"""Command-line surface: formats, exit codes, caching, suite determinism."""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from hbinom import cli, recurrences
from hbinom.cli import CACHE_DIR_ENV, main, triangle_digest
from hbinom.ring import Scalar
from hbinom.sequences import preset


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- seq / binom ------------------------------------------------------------


def test_seq_csv(capsys):
    code, out, _ = run_cli(capsys, "seq", "--preset", "fibonacci",
                           "--max-n", "10", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value"
    assert lines[-1] == "10,55"


def test_seq_polynomial_spec(capsys):
    spec = json.dumps({"a": "0", "b": "1", "s": ["0", "1"], "t": "1"})
    code, out, _ = run_cli(capsys, "seq", "--spec", spec, "--max-n", "3",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[3] == {"n": 3, "value": ["1", "0", "1"]}


def test_binom_value(capsys):
    code, out, _ = run_cli(capsys, "binom", "--preset", "fibonacci",
                           "-n", "5", "-k", "3", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[-1] == "5,3,15"


def test_binom_rational_value(capsys):
    code, out, _ = run_cli(capsys, "binom", "--preset", "v", "--s", "1",
                           "--t", "1", "-n", "4", "-k", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["value"] == "28/3"


def test_binom_zero_term_exits_1(capsys):
    spec = json.dumps({"a": "1", "b": "0", "s": "0", "t": "1"})
    code, _, err = run_cli(capsys, "binom", "--spec", spec, "-n", "4", "-k", "2")
    assert code == 1
    assert "index 1" in err


def test_spec_and_preset_conflict(capsys):
    code, _, err = run_cli(capsys, "binom", "--preset", "fibonacci",
                           "--spec", "{}", "-n", "2", "-k", "1")
    assert code == 2
    assert "not both" in err


def test_unknown_preset_exits_2(capsys):
    code, _, err = run_cli(capsys, "seq", "--preset", "nonesuch")
    assert code == 2
    assert "unknown preset" in err


def test_bad_spec_json_exits_2(capsys):
    code, _, err = run_cli(capsys, "seq", "--spec", "{not json")
    assert code == 2
    assert "not valid JSON" in err


def test_argparse_usage_error_is_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["seq", "--badflag"])
    assert info.value.code == 2


# -- triangle and cache -----------------------------------------------------


def test_triangle_rows_lexicographic(capsys):
    code, out, _ = run_cli(capsys, "triangle", "--preset", "fibonacci",
                           "--max-n", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,value"
    assert len(lines) == 1 + 21
    assert "5,3,15" in lines
    keys = [tuple(map(int, line.split(",")[:2])) for line in lines[1:]]
    assert keys == sorted(keys)


def test_triangle_apex_only(capsys):
    code, out, _ = run_cli(capsys, "triangle", "--preset", "fibonacci",
                           "--max-n", "0", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == ["n,k,value", "0,0,1"]


def test_triangle_json_rational_cell(capsys):
    code, out, _ = run_cli(capsys, "triangle", "--preset", "v", "--s", "1",
                           "--t", "1", "--max-n", "4", "--format", "json")
    assert code == 0
    rows = {(r["n"], r["k"]): r["value"] for r in json.loads(out)}
    assert rows[(4, 2)] == "28/3"


def test_triangle_multinomial_slice(capsys):
    code, out, _ = run_cli(capsys, "triangle", "--preset", "fibonacci",
                           "--max-n", "5", "--kind", "multinomial-slice",
                           "--parts", "2,1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    # cells with n - k < 3 have a negative trailing part and vanish
    assert "2,0,0" in lines
    assert "5,2,30" in lines  # {5 choose 2,2,1}
    assert "3,0,2" in lines   # {3 choose 0,2,1}


def test_triangle_parts_need_slice_kind(capsys):
    code, _, err = run_cli(capsys, "triangle", "--preset", "fibonacci",
                           "--parts", "2,1")
    assert code == 2
    assert "multinomial-slice" in err


def test_triangle_cache_roundtrip(tmp_path, capsys):
    cache = tmp_path / "tri.jsonl"
    args = ("triangle", "--preset", "fibonacci", "--max-n", "6",
            "--format", "csv", "--cache", str(cache))
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    size_after_first = cache.stat().st_size
    code, second, _ = run_cli(capsys, *args)
    assert code == 0
    assert first == second
    assert cache.stat().st_size == size_after_first  # pure cache hit

    code, uncached, _ = run_cli(capsys, "triangle", "--preset", "fibonacci",
                                "--max-n", "6", "--format", "csv")
    assert uncached == first

    records = [json.loads(line) for line in cache.read_text().splitlines()]
    assert len(records) == 28
    assert all(set(r) == {"spec_hash", "n", "k", "value"} for r in records)
    assert len({r["spec_hash"] for r in records}) == 1


def test_triangle_cache_extends_incrementally(tmp_path, capsys):
    cache = tmp_path / "tri.jsonl"
    run_cli(capsys, "triangle", "--preset", "pell", "--max-n", "3",
            "--cache", str(cache))
    assert len(cache.read_text().splitlines()) == 10
    run_cli(capsys, "triangle", "--preset", "pell", "--max-n", "5",
            "--cache", str(cache))
    assert len(cache.read_text().splitlines()) == 21


def test_triangle_cache_distinguishes_kinds(tmp_path, capsys):
    cache = tmp_path / "tri.jsonl"
    run_cli(capsys, "triangle", "--preset", "fibonacci", "--max-n", "3",
            "--cache", str(cache))
    code, out, _ = run_cli(capsys, "triangle", "--preset", "fibonacci",
                           "--max-n", "3", "--kind", "multinomial-slice",
                           "--parts", "1", "--format", "csv", "--cache", str(cache))
    assert code == 0
    assert "3,1,2" in out.strip().splitlines()  # {3 choose 1,1,1} over Fibonacci
    hashes = {json.loads(line)["spec_hash"] for line in cache.read_text().splitlines()}
    assert len(hashes) == 2


def test_corrupt_cache_exits_2(tmp_path, capsys):
    cache = tmp_path / "tri.jsonl"
    cache.write_text('{"nope": 1}\n')
    code, _, err = run_cli(capsys, "triangle", "--preset", "fibonacci",
                           "--max-n", "2", "--cache", str(cache))
    assert code == 2
    assert "cache" in err


def test_torn_last_cache_line_is_skipped_and_cut(tmp_path, capsys):
    cache = tmp_path / "tri.jsonl"
    args = ("triangle", "--preset", "fibonacci", "--max-n", "3",
            "--format", "csv", "--cache", str(cache))
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    good = cache.read_text()
    lines = good.splitlines(keepends=True)
    # an append cut off mid-record: the last record is torn, the ones before it stand
    cache.write_text("".join(lines[:-1]) + lines[-1][:25])
    code, second, _ = run_cli(capsys, *args)
    assert code == 0 and second == first
    # the torn tail is gone and the recomputed record sits on its own line
    assert cache.read_text() == good
    code, third, _ = run_cli(capsys, *args)
    assert code == 0 and third == first


def test_bad_terminated_cache_line_still_exits_2(tmp_path, capsys):
    cache = tmp_path / "tri.jsonl"
    args = ("triangle", "--preset", "fibonacci", "--max-n", "3",
            "--cache", str(cache))
    run_cli(capsys, *args)
    lines = cache.read_text().splitlines(keepends=True)
    for bad in (lines[:2] + [lines[2][:25] + "\n"] + lines[3:],   # inside the file
                lines[:-1] + [lines[-1][:25] + "\n"]):            # terminated last line
        cache.write_text("".join(bad))
        code, _, err = run_cli(capsys, *args)
        assert code == 2
        assert "bad cache line" in err


def test_cache_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cachedir"))
    code, _, _ = run_cli(capsys, "triangle", "--preset", "fibonacci", "--max-n", "2")
    assert code == 0
    assert (tmp_path / "cachedir" / "triangles.jsonl").exists()


def _unversioned_digest(spec, kind="binomial", parts=()):
    """The cache key as it was before the format and engine versions joined it."""
    payload = json.dumps({"kind": kind, "parts": list(parts), "spec": spec.to_json()},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def test_records_under_an_unversioned_digest_are_not_replayed(tmp_path, capsys):
    spec = preset("fibonacci")
    args = ("triangle", "--preset", "fibonacci", "--max-n", "4", "--format", "csv")
    _, expected, _ = run_cli(capsys, *args)
    cache = tmp_path / "tri.jsonl"
    old = _unversioned_digest(spec)
    cache.write_text("".join(
        json.dumps({"spec_hash": old, "n": n, "k": k, "value": "999"}) + "\n"
        for n in range(5) for k in range(n + 1)))
    code, out, _ = run_cli(capsys, *args, "--cache", str(cache))
    assert code == 0
    assert out == expected
    fresh = [json.loads(line) for line in cache.read_text().splitlines()][15:]
    assert len(fresh) == 15
    assert {r["spec_hash"] for r in fresh} == {triangle_digest(spec, "binomial", ())}
    assert triangle_digest(spec, "binomial", ()) != old


@pytest.mark.parametrize("name", ["ENGINE_VERSION", "CACHE_FORMAT"])
def test_a_version_bump_misses_the_old_records(tmp_path, capsys, monkeypatch, name):
    cache = tmp_path / "tri.jsonl"
    args = ("triangle", "--preset", "fibonacci", "--max-n", "3", "--format", "csv",
            "--cache", str(cache))
    _, expected, _ = run_cli(capsys, *args)
    # hand-edit a cell; the running engine would replay it
    cache.write_text(cache.read_text().replace('"value":"2"', '"value":"999"', 1))
    assert "999" in run_cli(capsys, *args)[1]
    monkeypatch.setattr(cli, name, getattr(cli, name) * 2)
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert out == expected
    assert len(cache.read_text().splitlines()) == 20


_APPENDER = """
import sys, time
from hbinom.cli import append_cache
path, tag, start = sys.argv[1], sys.argv[2], float(sys.argv[3])
time.sleep(max(0.0, start - time.time()))
for n in range(20):
    append_cache(path, [{"spec_hash": tag, "n": n, "k": k, "value": "9" * 200}
                        for k in range(300)])
"""


def test_concurrent_appends_leave_whole_lines(tmp_path):
    cache = tmp_path / "tri.jsonl"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    start = str(time.time() + 1.0)
    procs = [subprocess.Popen([sys.executable, "-c", _APPENDER, str(cache), tag, start],
                              env=env) for tag in ("a", "b")]
    for proc in procs:
        assert proc.wait(timeout=120) == 0
    text = cache.read_text()
    assert text.endswith("\n")
    records = [json.loads(line) for line in text.splitlines()]
    # every batch is one run of whole lines, in order
    batches = [[r["k"] for r in run] for _, run in
               itertools.groupby(records, key=lambda r: (r["spec_hash"], r["n"]))]
    assert len(batches) == 40
    assert all(batch == list(range(300)) for batch in batches)


def test_triangle_zero_term_exits_1(capsys):
    args = ("triangle", "--preset", "u", "--s", "1", "--t", "-1", "--format", "csv")
    code, out, _ = run_cli(capsys, *args, "--max-n", "2")
    assert code == 0 and out.strip().splitlines()[-1] == "2,2,1"
    code, out, err = run_cli(capsys, *args, "--max-n", "5")   # U(3) = 0
    assert code == 1 and out == ""
    assert "index 3" in err


def test_triangle_past_the_int_str_digit_limit(capsys):
    spec = {"a": "3/7", "b": "-5/11", "s": "13/3", "t": "-17/5"}
    limit = sys.get_int_max_str_digits()
    code, out, _ = run_cli(capsys, "triangle", "--spec", json.dumps(spec),
                           "--max-n", "120")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    terms = [Fraction(spec["a"]), Fraction(spec["b"])]
    while len(terms) <= 120:
        terms.append(Fraction(spec["s"]) * terms[-1] + Fraction(spec["t"]) * terms[-2])
    expected = math.prod(terms[61:121]) / math.prod(terms[1:61])
    line = next(line for line in out.splitlines() if line.startswith("120  60  "))
    num, den = line.split()[2].split("/")
    sys.set_int_max_str_digits(0)
    try:
        assert Fraction(int(num), int(den)) == expected
        assert len(num) > 4300
    finally:
        sys.set_int_max_str_digits(limit)


# -- verify -----------------------------------------------------------------


def test_verify_passes(capsys):
    for family in ("binet", "alternating", "hu_sun", "gould",
                   "gould_symmetric", "vweighted"):
        code, out, _ = run_cli(capsys, "verify", "--preset", "fibonacci",
                               "--family", family, "--max-n", "6")
        assert code == 0, family
        assert "fail=0" in out


def test_verify_broken_scalar_identity_exits_1(capsys, monkeypatch):
    # a hu_sun pair built from wrong terms, every U(n) read as 5, breaks
    # F(r+s) = h1*F(r) + h2*F(s)
    entry = recurrences._FAMILIES["hu_sun"]
    monkeypatch.setitem(recurrences._FAMILIES, "hu_sun", entry._replace(
        rule=lambda family, r, s: (5 * family.numbers.one,
                                   family.numbers.value(family.seq.t) * 5)))
    code, _, err = run_cli(capsys, "verify", "--preset", "fibonacci",
                           "--family", "hu_sun", "--max-n", "3")
    assert code == 1
    assert "scalar identity broken at (1,1)" in err


def _break_pascal_pairs(monkeypatch):
    # (1, 1) for every cell: over the Fibonacci table, {1 choose 0} +
    # {1 choose 1} = 2 against {2 choose 1} = 1 at the first cell
    monkeypatch.setattr(recurrences, "family_coeffs",
                        lambda family, r, s: recurrences.CoeffPair(r, s, Scalar(1), Scalar(1)))


def test_verify_failure_carries_both_exact_sides(capsys, monkeypatch):
    _break_pascal_pairs(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "--preset", "fibonacci",
                           "--family", "hu_sun", "--max-n", "3", "--format", "json")
    assert code == 1
    first = json.loads(out)["records"][0]
    assert first == {"check": "pascal:hu_sun", "indices": [1, 1], "status": "fail",
                     "lhs": "2", "rhs": "1"}


def test_suite_pascal_failure_carries_both_exact_sides(capsys, monkeypatch, tmp_path):
    _break_pascal_pairs(monkeypatch)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"specs": [{"name": "fib", "preset": "fibonacci"}],
                                  "families": ["gould"], "oracles": [], "max_n": 4}))
    code, out, _ = run_cli(capsys, "suite", "--config", str(config), "--format", "json")
    assert code == 1
    record = json.loads(out)["records"][0]
    assert record == {"check": "pascal:gould:fib", "indices": [4], "status": "fail",
                      "lhs": "2", "rhs": "1", "note": "first failure at (1,1)"}


def test_verify_corcino_needs_rational_roots(capsys):
    code, _, err = run_cli(capsys, "verify", "--preset", "fibonacci",
                           "--family", "corcino_a", "--max-n", "6")
    assert code == 2
    assert "rational characteristic roots" in err
    code, out, _ = run_cli(capsys, "verify", "--preset", "u", "--s", "3",
                           "--t", "-2", "--family", "corcino_a", "--max-n", "6")
    assert code == 0


def test_verify_unknown_family(capsys):
    code, _, err = run_cli(capsys, "verify", "--preset", "fibonacci",
                           "--family", "nonesuch")
    assert code == 2


def test_verify_degenerate_roots_exit_2(capsys):
    spec = json.dumps({"a": "0", "b": "1", "s": "2", "t": "-1"})
    code, _, err = run_cli(capsys, "verify", "--spec", spec, "--family", "binet")
    assert code == 2
    assert "repeated" in err


def test_verify_json_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--preset", "fibonacci",
                           "--family", "hu_sun", "--max-n", "5",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["fail"] == 0
    assert doc["engine_version"]


def test_verify_bound_one_is_vacuous(capsys):
    # no cells exist below r + s = 2, so the minimal bound passes empty
    code, out, _ = run_cli(capsys, "verify", "--preset", "fibonacci",
                           "--family", "binet", "--max-n", "1")
    assert code == 0
    assert "pass=0 fail=0" in out
    code, _, _ = run_cli(capsys, "verify", "--preset", "fibonacci",
                         "--family", "binet", "--max-n", "0")
    assert code == 2


# -- oracle -----------------------------------------------------------------


def test_oracle_queries(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--which", "md_fibonomial", "--args", "5", "3")
    assert code == 0 and out.strip() == "15"
    code, out, _ = run_cli(capsys, "oracle", "--which", "errata_fibonomial",
                           "--args", "5", "3")
    assert code == 0 and out.strip() == "11"
    code, out, _ = run_cli(capsys, "oracle", "--which", "gauss", "--args", "4", "2",
                           "--format", "json")
    assert code == 0 and json.loads(out) == ["1", "1", "2", "1", "1"]
    code, out, _ = run_cli(capsys, "oracle", "--which", "subspaces", "--args", "4", "2", "2")
    assert code == 0 and out.strip() == "35"
    code, out, _ = run_cli(capsys, "oracle", "--which", "md_ubinomial", "--args", "4", "2",
                           "--s", "3", "--t", "-2")
    assert code == 0 and out.strip() == "35"


def test_oracle_arg_validation(capsys):
    code, _, err = run_cli(capsys, "oracle", "--which", "zigzag", "--args", "4")
    assert code == 2
    code, _, err = run_cli(capsys, "oracle", "--which", "subspaces", "--args", "3", "1", "5")
    assert code == 2
    code, _, err = run_cli(capsys, "oracle", "--which", "md_ubinomial", "--args", "4", "2")
    assert code == 2


# -- suite ------------------------------------------------------------------


SMALL_CONFIG = {
    "specs": [{"name": "fibonacci", "preset": "fibonacci"},
              {"name": "split", "preset": "u", "s": "3", "t": "-2"}],
    "families": ["binet", "alternating", "hu_sun", "corcino_a", "vweighted"],
    "max_n": 5,
    "oracles": ["md_formulas", "integrality", "series", "addition"],
    "format": "json",
}


def test_suite_small_config(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(SMALL_CONFIG))
    code, out, _ = run_cli(capsys, "suite", "--config", str(config_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["fail"] == 0
    assert doc["summary"]["skip"] == 1  # corcino_a on fibonacci
    checks = {r["check"] for r in doc["records"]}
    assert "oracle:errata_control" in checks
    assert "addition:double_v_literal_control:fibonacci" in checks


def test_suite_is_deterministic_modulo_timestamp(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(SMALL_CONFIG))
    docs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "suite", "--config", str(config_path))
        assert code == 0
        doc = json.loads(out)
        doc.pop("generated_at")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_suite_literal_strict_fails(tmp_path, capsys):
    config = dict(SMALL_CONFIG, literal_v_addition_strict=True,
                  specs=[{"name": "fibonacci", "preset": "fibonacci"}],
                  families=["hu_sun"], oracles=["addition"])
    config_path = tmp_path / "strict.json"
    config_path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "suite", "--config", str(config_path))
    assert code == 1
    doc = json.loads(out)
    failing = [r for r in doc["records"] if r["status"] == "fail"]
    assert len(failing) == 1
    assert failing[0]["check"] == "addition:double_v_literal:fibonacci"
    assert failing[0]["lhs"] and failing[0]["rhs"]


def test_suite_config_roundtrip():
    from hbinom.cli import SuiteConfig, default_config

    for config in (SuiteConfig.from_dict(SMALL_CONFIG), default_config()):
        assert SuiteConfig.from_dict(config.to_dict()) == config
    # and stable through an actual serialize/parse cycle
    config = default_config()
    assert SuiteConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


def test_suite_rejects_unknown_family(tmp_path, capsys):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(dict(SMALL_CONFIG, families=["nonesuch"])))
    code, _, err = run_cli(capsys, "suite", "--config", str(config_path))
    assert code == 2
    assert "unknown family" in err


def test_suite_rejects_malformed_config(tmp_path, capsys):
    config_path = tmp_path / "bad.json"
    config_path.write_text("{oops")
    code, _, err = run_cli(capsys, "suite", "--config", str(config_path))
    assert code == 2


def test_suite_warms_cache(tmp_path, capsys):
    cache = tmp_path / "tri.jsonl"
    config = dict(SMALL_CONFIG, oracles=[], cache=str(cache),
                  specs=[{"name": "fibonacci", "preset": "fibonacci"}],
                  families=["hu_sun"])
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code, _, _ = run_cli(capsys, "suite", "--config", str(config_path))
    assert code == 0
    assert cache.exists()
    code, out, _ = run_cli(capsys, "triangle", "--preset", "fibonacci",
                           "--max-n", "5", "--format", "csv", "--cache", str(cache))
    assert code == 0
    assert "5,3,15" in out


def test_suite_series_on_a_repeated_root(tmp_path, capsys):
    config = {"specs": [{"name": "double", "spec": {"a": "0", "b": "1", "s": "2",
                                                    "t": "-1"}}],
              "oracles": ["series"], "format": "json"}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "suite", "--config", str(config_path))
    assert code == 0
    record = next(r for r in json.loads(out)["records"] if r["check"] == "series:double")
    assert record["status"] == "pass"
    assert record["note"] == "exponential form skipped: repeated root"


def test_suite_checks_survive_optimize_flag():
    # `python -O` strips assert statements: a check that relied on one would
    # pass there and change the report
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    docs = []
    for flags in ([], ["-O"]):
        out = subprocess.run([sys.executable, *flags, "-m", "hbinom.cli", "suite",
                              "--format", "json"], env=env, capture_output=True,
                             text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        doc.pop("generated_at")
        docs.append(doc)
    assert docs[0] == docs[1]
    assert docs[0]["summary"]["fail"] == 0


def test_suite_default_config(capsys):
    code, out, _ = run_cli(capsys, "suite", "--format", "text", "--max-n", "6")
    assert code == 0
    assert "fail=0" in out.strip().splitlines()[-1]


def test_suite_out_file(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(dict(SMALL_CONFIG, oracles=[],
                                           families=["hu_sun"])))
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "suite", "--config", str(config_path),
                           "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["summary"]["fail"] == 0


# -- unreadable and unwritable files ----------------------------------------


def _one_error_line(err: str, path) -> None:
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert str(path) in err


def test_suite_config_not_utf8_exits_2(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(capsys, "suite", "--config", str(config_path))
    assert (code, out) == (2, "")
    _one_error_line(err, config_path)


def test_suite_out_directory_exits_2(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(dict(SMALL_CONFIG, oracles=[],
                                           families=["hu_sun"])))
    code, out, err = run_cli(capsys, "suite", "--config", str(config_path),
                             "--out", str(tmp_path))
    assert (code, out) == (2, "")
    _one_error_line(err, tmp_path)


def test_triangle_cache_directory_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "triangle", "--preset", "fibonacci",
                             "--max-n", "3", "--cache", str(tmp_path))
    assert (code, out) == (2, "")
    _one_error_line(err, tmp_path)


def test_triangle_cache_not_utf8_exits_2(tmp_path, capsys):
    cache = tmp_path / "tri.jsonl"
    cache.write_bytes(b"\xff\n")
    code, out, err = run_cli(capsys, "triangle", "--preset", "fibonacci",
                             "--max-n", "3", "--cache", str(cache))
    assert (code, out) == (2, "")
    _one_error_line(err, cache)
    assert cache.read_bytes() == b"\xff\n"


def test_triangle_cache_under_a_regular_file_exits_2(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    cache = afile / "t.jsonl"
    code, out, err = run_cli(capsys, "triangle", "--preset", "fibonacci",
                             "--max-n", "3", "--cache", str(cache))
    assert (code, out) == (2, "")
    _one_error_line(err, cache)


# -- destinations are checked before any work ---------------------------------


def _no_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the work ran before the destination was checked")

    monkeypatch.setattr(cli, "run_suite", refuse)
    monkeypatch.setattr(cli, "triangle_rows", refuse)


def _regular_file(tmp_path):
    afile = tmp_path / "afile"
    afile.write_text("")
    return afile


@pytest.mark.parametrize("where", ["directory", "missing_parent", "under_a_file"])
def test_suite_out_is_refused_before_the_suite_runs(tmp_path, capsys, monkeypatch, where):
    out_path = {"directory": tmp_path,
                "missing_parent": tmp_path / "no" / "report.txt",
                "under_a_file": _regular_file(tmp_path) / "report.txt"}[where]
    _no_work(monkeypatch)
    code, out, err = run_cli(capsys, "suite", "--max-n", "3", "--out", str(out_path))
    assert (code, out) == (2, "")
    _one_error_line(err, out_path)


@pytest.mark.parametrize("via", ["argv", "config"])
def test_suite_cache_under_a_file_is_refused_before_the_suite_runs(tmp_path, capsys,
                                                                     monkeypatch, via):
    cache = _regular_file(tmp_path) / "sub" / "t.jsonl"
    config_path = tmp_path / "config.json"
    config = dict(SMALL_CONFIG, **({"cache": str(cache)} if via == "config" else {}))
    config_path.write_text(json.dumps(config))
    report = tmp_path / "report.json"
    report.write_text("an earlier report\n")
    _no_work(monkeypatch)
    argv = ["suite", "--config", str(config_path), "--out", str(report)]
    if via == "argv":
        argv += ["--cache", str(cache)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    _one_error_line(err, cache)
    # --out is checked, never opened early: the refused run leaves it as it was
    assert report.read_text() == "an earlier report\n"


@pytest.mark.parametrize("where", ["directory", "under_a_file"])
def test_triangle_cache_is_refused_before_the_triangle_is_computed(tmp_path, capsys,
                                                                    monkeypatch, where):
    cache = tmp_path if where == "directory" else _regular_file(tmp_path) / "t.jsonl"
    _no_work(monkeypatch)
    code, out, err = run_cli(capsys, "triangle", "--preset", "cigler_qfib",
                             "--max-n", "40", "--cache", str(cache))
    assert (code, out) == (2, "")
    _one_error_line(err, cache)


def _no_write_permission(monkeypatch):
    # as if the process could write nowhere; root passes every real check
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)


def test_suite_out_without_write_permission_is_refused(tmp_path, capsys, monkeypatch):
    report = tmp_path / "report.txt"
    _no_work(monkeypatch)
    _no_write_permission(monkeypatch)
    code, out, err = run_cli(capsys, "suite", "--max-n", "3", "--out", str(report))
    assert (code, out) == (2, "")
    _one_error_line(err, report)
    assert not report.exists()


@pytest.mark.parametrize("via", ["flag", "env"])
def test_a_warm_cache_serves_without_write_permission(tmp_path, capsys, monkeypatch, via):
    # a read-only cache, or one in a read-only shared directory, is read and
    # never written while it holds every requested cell
    cache = tmp_path / "shared" / "triangles.jsonl"
    argv = ("triangle", "--preset", "fibonacci", "--max-n", "6")
    if via == "flag":
        argv += ("--cache", str(cache))
    else:
        monkeypatch.setenv(CACHE_DIR_ENV, str(cache.parent))
    code, cold, _ = run_cli(capsys, *argv)
    warm = cache.read_bytes()
    assert code == 0 and warm.count(b"\n") == 28
    _no_write_permission(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, cold, "")
    assert cache.read_bytes() == warm


def test_writable_destinations_pass_the_check(tmp_path, capsys):
    cache = tmp_path / "new" / "dirs" / "t.jsonl"
    code, out, _ = run_cli(capsys, "triangle", "--preset", "fibonacci", "--max-n", "3",
                           "--cache", str(cache))
    assert code == 0 and out.count("\n") == 10 and cache.exists()
    report = tmp_path / "report.txt"
    report.write_text("old")
    code, out, _ = run_cli(capsys, "suite", "--max-n", "2", "--out", str(report),
                           "--cache", str(cache))
    assert (code, out) == (0, "") and report.read_text().startswith("[PASS]")
