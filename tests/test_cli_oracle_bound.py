"""Inputs from the command line that would exhaust the stack or run for
hours exit 2 before any work; the largest allowed ones still answer."""

import json

from hbinom.cli import ORACLE_MAX_DEPTH, main
from hbinom.oracles import zigzag_area_gf
from hbinom.sequences import preset, term


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_deep_box_exits_2(capsys):
    code, out, err = run_cli(capsys, "oracle", "--which", "box", "--args", "1500", "1")
    assert code == 2 and out == ""
    assert "oracle box is too large at 1500 1" in err


def test_deepest_allowed_box_answers(capsys):
    depth = str(ORACLE_MAX_DEPTH)
    code, out, _ = run_cli(capsys, "oracle", "--which", "box", "--args", depth, "1",
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == [1] * (ORACLE_MAX_DEPTH + 1)
    code, _, _ = run_cli(capsys, "oracle", "--which", "box",
                         "--args", str(ORACLE_MAX_DEPTH + 1), "1")
    assert code == 2


def test_long_bracelets_exit_2(capsys):
    code, out, err = run_cli(capsys, "oracle", "--which", "bracelets",
                             "--args", "1500", "1", "1")
    assert code == 2 and out == ""
    assert "too large" in err


def test_longest_allowed_bracelets_answer(capsys):
    # F(28) tilings times 27 cells is under the step bound; one cell more is not
    code, out, _ = run_cli(capsys, "oracle", "--which", "bracelets",
                           "--args", "27", "1", "1")
    assert code == 0
    assert int(out) == term(preset("lucas_numbers"), 27).as_int()
    code, _, _ = run_cli(capsys, "oracle", "--which", "bracelets",
                         "--args", "28", "1", "1")
    assert code == 2


def test_inversions_answer_at_the_size_of_the_other_path_oracles(capsys):
    # one pass per word: C(20,10) words answer, as for zigzag; C(22,11) does not
    code, out, _ = run_cli(capsys, "oracle", "--which", "inversion",
                           "--args", "20", "10", "--format", "json")
    assert code == 0
    assert json.loads(out) == zigzag_area_gf(20, 10)
    code, _, _ = run_cli(capsys, "oracle", "--which", "inversion", "--args", "22", "11")
    assert code == 2


def test_hour_long_enumerations_exit_2(capsys):
    for argv in (("inversion", "30", "15"), ("md_fibonomial", "40", "20"),
                 ("zigzag", "10000000000", "5000000000"),
                 ("md_ubinomial", "30", "15", "--s", "1", "--t", "1"),
                 ("gauss", "400", "200"), ("tilings", "10000000000", "1", "1")):
        code, out, err = run_cli(capsys, "oracle", "--which", argv[0],
                                 "--args", *argv[1:])
        assert code == 2 and out == "", argv
        assert "too large" in err, argv


def test_suite_skips_closed_forms_on_a_repeated_root(tmp_path, capsys):
    config = {"specs": [{"name": "double", "spec": {"a": "0", "b": "1", "s": "2",
                                                    "t": "-1"}}],
              "families": ["binet", "alternating", "corcino_a", "gould", "hu_sun"],
              "max_n": 5, "oracles": [], "format": "json"}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "suite", "--config", str(config_path))
    assert code == 0
    status = {r["check"]: (r["status"], r.get("note", ""))
              for r in json.loads(out)["records"]}
    for tag in ("binet", "alternating", "corcino_a"):
        assert status[f"pascal:{tag}:double"] == (
            "skip", "repeated characteristic root: s=2, t=-1"), tag
    assert status["pascal:gould:double"][0] == "pass"
    assert status["pascal:hu_sun:double"][0] == "pass"
