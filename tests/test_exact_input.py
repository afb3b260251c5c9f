"""Spec values are exact input: ints and strings only.  A float, a boolean or
a zero denominator, in a --spec, a suite config spec or a suite preset
weight, exits 2 with one `error:` line instead of a traceback or a silently
rounded value."""

import json

import pytest

from hbinom.cli import main
from hbinom.ring import Scalar

FIB = {"a": "0", "b": "1", "s": "1", "t": "1"}

BAD_VALUES = {
    "zero_denominator": ("1/0", "zero denominator in '1/0'"),
    "zero_ratio_denominator": ({"num": ["1"], "den": ["0"]}, "zero denominator in"),
    "overflowing_float": ([1e400], "not an exact value: inf"),
    "float_coefficient": ([0.1, 1], "not an exact value: 0.1"),
    "bool_coefficient": ([True, 1], "not an exact value: True"),
    "float_value": (0.5, "not an exact value: 0.5"),
    "coefficients_not_a_list": ({"num": "12", "den": ["1"]}, "coefficients must be a list"),
}


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _suite(capsys, tmp_path, entry: dict):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"specs": [{"name": "x", **entry}], "max_n": 3,
                                "oracles": []}))
    return _run(capsys, "suite", "--config", str(path))


@pytest.mark.parametrize("value,message", BAD_VALUES.values(), ids=list(BAD_VALUES))
def test_inexact_spec_values_exit_2(capsys, value, message):
    spec = json.dumps({**FIB, "a": value})
    code, out, err = _run(capsys, "seq", "--spec", spec, "--max-n", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad sequence spec: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("value,message", BAD_VALUES.values(), ids=list(BAD_VALUES))
def test_inexact_suite_spec_values_exit_2(capsys, tmp_path, value, message):
    code, out, err = _suite(capsys, tmp_path, {"spec": {**FIB, "t": value}})
    assert (code, out) == (2, "")
    assert err.startswith("error: bad spec 'x': ") and message in err


@pytest.mark.parametrize("weight", [0.1, True, 2.0, "1/0", [1]],
                         ids=["float", "bool", "integral_float", "zero_denominator", "list"])
def test_inexact_preset_weights_exit_2(capsys, tmp_path, weight):
    code, out, err = _suite(capsys, tmp_path, {"preset": "u", "s": weight, "t": "1"})
    assert (code, out, err) == (2, "", f"error: spec 'x': not a rational value: {weight!r}\n")


def test_ints_and_strings_are_still_read(capsys, tmp_path):
    spec = {"a": 2, "b": "1/2", "s": [0, "1"], "t": {"num": ["1"], "den": ["0", "1"]}}
    code, out, _ = _run(capsys, "seq", "--spec", json.dumps(spec), "--max-n", "1",
                        "--format", "json")
    assert code == 0
    assert [row["value"] for row in json.loads(out)] == ["2", "1/2"]
    assert Scalar.from_json(spec["t"]) == Scalar.from_ratio([1], [0, 1])
    code, _, err = _suite(capsys, tmp_path, {"preset": "u", "s": 3, "t": "-2"})
    assert (code, err) == (0, "")
