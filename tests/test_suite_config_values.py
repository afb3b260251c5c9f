"""Suite configs with values of the wrong kind are refused with exit 2, and a
spec whose fundamental sequence U(s, t) meets a zero term is recorded as
skips instead of stopping the run."""

import json

import pytest

from hbinom.cli import VERIFY_FAMILIES, ConfigError, SuiteConfig, main

FIB = {"name": "fib", "preset": "fibonacci"}


def _suite(capsys, tmp_path, config: dict):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(["suite", "--config", str(path), "--format", "json"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("entry,message", [
    ({"max_n": True}, "max_n must be an integer >= 1"),
    ({"max_n": False}, "max_n must be an integer >= 1"),
    ({"families": "binet"}, "families must be a list"),
    ({"oracles": "addition"}, "oracles must be a list"),
    ({"specs": FIB}, "specs must be a list"),
    ({"specs": [{"name": "x", "preset": 5}]}, "spec 'x': preset must be a string"),
    ({"specs": [{"name": ["x"], "preset": "fibonacci"}]},
     "each spec entry needs a name, a string"),
    ({"oracles": [["a"]]}, "each oracles entry must be a string"),
    ({"families": [["gould"]]}, "each families entry must be a string"),
], ids=["max_n_true", "max_n_false", "families_string", "oracles_string", "specs_object",
        "preset_int", "name_list", "oracle_list", "family_list"])
def test_values_of_the_wrong_kind_exit_2(capsys, tmp_path, entry, message):
    config = {"specs": [FIB], "max_n": 4, "oracles": [], **entry}
    with pytest.raises(ConfigError, match=message):
        SuiteConfig.from_dict(config)
    assert _suite(capsys, tmp_path, config) == (2, "", f"error: {message}\n")


def test_lists_and_integers_are_still_read():
    config = SuiteConfig.from_dict({"specs": [FIB], "max_n": 3, "families": ["gould"],
                                    "oracles": ["addition"]})
    assert (config.max_n, config.families, config.oracles) == (3, ["gould"], ["addition"])


def _records(out: str) -> dict:
    return {r["check"]: r for r in json.loads(out)["records"]}


def test_zero_term_in_the_fundamental_sequence_is_a_skip(capsys, tmp_path):
    # U(0, 1) = 0, 1, 0, 1, ...: every family, vweighted too, meets U(2) = 0
    spec = {"name": "zero", "spec": {"a": "0", "b": "1", "s": "0", "t": "1"}}
    code, out, err = _suite(capsys, tmp_path, {"specs": [spec], "max_n": 6})
    assert (code, err) == (0, "")
    records = _records(out)
    for family in VERIFY_FAMILIES:
        assert records[f"pascal:{family}:zero"] == {
            "check": f"pascal:{family}:zero", "indices": [6], "status": "skip",
            "note": "sequence term at index 2 is zero"}
    assert records["addition:double_u:zero"]["status"] == "pass"


def test_vweighted_skips_while_the_spec_own_table_passes(capsys, tmp_path):
    # H = 1, 1, 1, ... has no zero term, but its weights give U(0, 1)
    spec = {"name": "ones", "spec": {"a": "1", "b": "1", "s": "0", "t": "1"}}
    code, out, _ = _suite(capsys, tmp_path, {"specs": [spec], "max_n": 6,
                                             "families": ["gould", "vweighted"],
                                             "oracles": []})
    assert code == 0
    records = _records(out)
    assert records["pascal:gould:ones"]["status"] == "pass"
    assert records["pascal:vweighted:ones"]["status"] == "skip"
    assert records["pascal:vweighted:ones"]["note"] == "sequence term at index 2 is zero"
