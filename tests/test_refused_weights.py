"""A weight that would be ignored is refused, never dropped in silence: by
`preset` for the weights a preset does not take, by the CLI for `--s`/`--t`
beside `--spec` or on an oracle other than md_ubinomial, and by suite config
spec entries, which also refuse keys they do not know."""

import json

import pytest

from hbinom.cli import ConfigError, SuiteConfig, main
from hbinom.ring import X, Scalar
from hbinom.sequences import _PRESET_NAMES, preset


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- preset -------------------------------------------------------------------


@pytest.mark.parametrize("kind,weights,message", [
    ("fibonacci", {"s": 5}, "preset 'fibonacci' takes no weight s"),
    ("pell", {"t": 1}, "preset 'pell' takes no weight t"),
    ("lucas_numbers", {"s": 1, "t": 1}, "preset 'lucas_numbers' takes no weight s or t"),
    ("cigler_qfib", {"s": 5}, "preset 'cigler_qfib' takes no weight s"),
    ("cigler_qlucas", {"s": 1, "t": 2}, "preset 'cigler_qlucas' takes no weight s"),
])
def test_preset_refuses_a_weight_it_does_not_take(kind, weights, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        preset(kind, **weights)


def test_preset_still_takes_the_weights_it_uses():
    assert preset("u", s=3, t=-2).s == Scalar(3)
    assert preset("v", s=1, t=1).t == Scalar(1)
    assert preset("cigler_qfib", t=2).t == Scalar(2)
    assert preset("cigler_qlucas").s == X
    assert preset("fibonacci") == preset("Fibonacci")


# -- the CLI ------------------------------------------------------------------


SPEC = '{"a":0,"b":1,"s":1,"t":1}'


@pytest.mark.parametrize("argv,message", [
    (("seq", "--preset", "fibonacci", "--s", "5"), "preset 'fibonacci' takes no weight s"),
    (("seq", "--preset", "cigler_qfib", "--s", "5"), "preset 'cigler_qfib' takes no weight s"),
    (("binom", "--preset", "pell", "--t", "2", "-n", "4", "-k", "2"),
     "preset 'pell' takes no weight t"),
    (("seq", "--spec", SPEC, "--t", "9"), "--s and --t apply only to --preset, not to --spec"),
    (("verify", "--spec", SPEC, "--s", "2", "--family", "gould"),
     "--s and --t apply only to --preset, not to --spec"),
    (("oracle", "--which", "box", "--args", "2", "2", "--s", "3"),
     "oracle box takes no --s or --t; only md_ubinomial does"),
    (("oracle", "--which", "tilings", "--args", "3", "1", "1", "--t", "2"),
     "oracle tilings takes no --s or --t; only md_ubinomial does"),
], ids=["seq_fibonacci_s", "seq_qfib_s", "binom_pell_t", "seq_spec_t", "verify_spec_s",
        "oracle_box_s", "oracle_tilings_t"])
def test_cli_refuses_a_weight_it_would_ignore(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_the_weights_that_are_used_still_answer(capsys):
    assert run_cli(capsys, "seq", "--preset", "cigler_qfib", "--t", "2", "--max-n", "2",
                   "--format", "csv") == (0, 'n,value\n0,0\n1,1\n2,"[""0"",""1""]"\n', "")
    assert run_cli(capsys, "oracle", "--which", "md_ubinomial", "--args", "4", "2",
                   "--s", "1", "--t", "1") == (0, "6\n", "")
    assert run_cli(capsys, "oracle", "--which", "box", "--args", "2", "2") == \
        (0, "[1,1,2,1,1]\n", "")


# -- suite config spec entries ------------------------------------------------


def _suite(capsys, tmp_path, config: dict):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(["suite", "--config", str(path), "--format", "json"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PELL_SPEC = {"a": 0, "b": 1, "s": 2, "t": 1}


@pytest.mark.parametrize("entry,message", [
    ({"name": "x", "preset": "pell", "spec": {"a": 0, "b": 1, "s": 5, "t": 1}},
     "spec 'x': give either preset or spec, not both"),
    ({"name": "x", "spec": PELL_SPEC, "s": 5}, "spec 'x': s and t apply only to a preset"),
    ({"name": "x", "spec": PELL_SPEC, "t": 5}, "spec 'x': s and t apply only to a preset"),
    ({"name": "x", "preset": "pell", "s": 5}, "spec 'x': preset 'pell' takes no weight s"),
    ({"name": "x", "preset": "cigler_qfib", "s": 5, "t": 1},
     "spec 'x': preset 'cigler_qfib' takes no weight s"),
    ({"name": "x", "preset": "fibonacci", "weight": 3}, "spec 'x': unknown keys: weight"),
    ({"name": "x", "spec": PELL_SPEC, "S": 1, "note": ""}, "spec 'x': unknown keys: S, note"),
    ({"name": "x", "preset": "nonesuch"},
     "spec 'x': unknown preset 'nonesuch'; choose from " + ", ".join(_PRESET_NAMES)),
    ({"name": "x", "preset": "u", "s": 3}, "spec 'x': preset 'u' needs both s and t"),
    ({"name": "x", "preset": "v", "s": 3, "t": "1/0"},
     "spec 'x': not a rational value: '1/0'"),
], ids=["preset_and_spec", "spec_s", "spec_t", "pell_s", "qfib_s", "weight_key",
        "two_unknown_keys", "unknown_preset", "u_s_only", "bad_t"])
def test_spec_entries_refuse_what_they_would_ignore(capsys, tmp_path, entry, message):
    config = {"specs": [entry], "max_n": 4, "oracles": []}
    with pytest.raises(ConfigError, match=f"^{message}$"):
        SuiteConfig.from_dict(config)
    assert _suite(capsys, tmp_path, config) == (2, "", f"error: {message}\n")


def test_spec_entries_with_only_what_they_use_are_read():
    config = SuiteConfig.from_dict({"specs": [
        {"name": "qfib", "preset": "cigler_qfib", "t": 2},
        {"name": "u", "preset": "u", "s": 3, "t": -2},
        {"name": "pell", "spec": PELL_SPEC}]})
    assert config.specs == [("qfib", preset("cigler_qfib", t=2)),
                            ("u", preset("u", s=3, t=-2)), ("pell", preset("pell"))]
