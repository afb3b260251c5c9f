"""What `import hbinom.cli` loads, and the plain classes that replaced the
dataclasses: their equality, hashes, immutability and round trips.

The start-up guard runs in a fresh interpreter, since the test process has
long since imported everything."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import hbinom
from hbinom.binomials import MultinomialCheck, QstarReport, multinomial_product_check
from hbinom.cli import SuiteConfig, default_config
from hbinom.recurrences import (NATIVE, SCALAR, CellCheck, CoeffFamily, CoeffPair,
                                VWeightedCell, family_coeffs, resolve_family,
                                verify_pascal, vweighted_verify)
from hbinom.ring import ONE, ZERO, QuadExt, Scalar
from hbinom.sequences import (AdditionReport, BinetSpec, HoradamSpec, SeriesReport,
                              addition_check, preset, series_verify, to_binet)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hbinom.__file__)))

# modules the CLI must not load to start: the dataclass machinery and what it
# pulls in, and the stdlib modules only some commands use
NOT_AT_START = ("dataclasses", "inspect", "hashlib", "datetime")

GUARD = """\
import json, sys
import hbinom.cli
at_start = sorted(m for m in {names} if m in sys.modules)
import contextlib, io
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = hbinom.cli.main(["triangle", "--preset", "fibonacci", "--max-n", "6"])
after_triangle = sorted(m for m in {names} if m in sys.modules)
print(json.dumps([at_start, after_triangle, code, out.getvalue().count("\\n")]))
"""


def _fresh(code: str) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    env.pop("HBINOM_CACHE_DIR", None)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_import_loads_no_dataclass_machinery_and_no_lazy_module():
    at_start, after_triangle, code, lines = _fresh(GUARD.format(names=NOT_AT_START))
    assert at_start == []
    # an uncached triangle needs no digest, so hashlib stays out
    assert after_triangle == [] and (code, lines) == (0, 28)


def test_the_lazy_imports_load_where_they_are_used(tmp_path):
    code = (
        "import json, sys\n"
        "from hbinom.cli import triangle_rows\n"
        "from hbinom.report import Report\n"
        "from hbinom.sequences import preset\n"
        f"triangle_rows(preset('pell'), 'binomial', (), 3, {str(tmp_path / 't.jsonl')!r})\n"
        "cached = 'hashlib' in sys.modules\n"
        "Report().to_dict('2000-01-01T00:00:00+00:00')\n"
        "stamped = 'datetime' in sys.modules\n"
        "Report().to_dict()\n"
        "print(json.dumps([cached, stamped, 'datetime' in sys.modules]))\n")
    assert _fresh(code) == [True, False, True]


# -- equality and hashes ------------------------------------------------------


def test_specs_compare_and_hash_by_their_entries():
    spec = HoradamSpec(0, 1, Fraction(3, 2), -2)
    twin = HoradamSpec(Scalar(0), ONE, Scalar(Fraction(3, 2)), Scalar(-2))
    assert spec == twin and hash(spec) == hash(twin)
    assert spec is not twin and {spec: 1}[twin] == 1
    assert all(isinstance(x, Scalar) for x in (spec.a, spec.b, spec.s, spec.t))
    for other in (HoradamSpec(0, 1, Fraction(3, 2), 2), HoradamSpec(1, 1, Fraction(3, 2), -2)):
        assert spec != other
    assert spec != (spec.a, spec.b, spec.s, spec.t)
    assert spec != "spec" and spec != 0


def test_extension_values_compare_and_hash_by_their_parts():
    x = QuadExt(1, Fraction(1, 2), 5)
    assert x == QuadExt(ONE, Scalar(Fraction(1, 2)), Scalar(5))
    assert hash(x) == hash(QuadExt(1, Fraction(1, 2), 5))
    assert x != QuadExt(1, Fraction(1, 2), 3)
    assert x != QuadExt(1, -Fraction(1, 2), 5)
    assert QuadExt.embed(2, 5) != 2 and QuadExt.embed(2, 5) != Scalar(2)
    assert len({x, QuadExt(1, Fraction(1, 2), 5), x.conj()}) == 2


def test_closed_forms_and_families_compare_by_value():
    fib = preset("fibonacci")
    binet = to_binet(fib)
    rebuilt = BinetSpec(binet.A, binet.B, binet.p, binet.q)
    assert rebuilt == binet and hash(rebuilt) == hash(binet)
    assert BinetSpec(binet.B, binet.A, binet.q, binet.p) != binet
    # a family equals its copy on another number type
    family = resolve_family("binet", fib)
    native = family.with_numbers(NATIVE)
    assert native == family and hash(native) == hash(family)
    assert (native.tag, native.seq, native.roots, native.closed_form) == (
        family.tag, family.seq, family.roots, family.closed_form)
    assert (family.numbers, native.numbers) == (SCALAR, NATIVE)
    assert resolve_family("gould", fib) != resolve_family("gould_symmetric", fib)
    assert CoeffFamily.corcino_a(2, 1) != CoeffFamily.corcino_a(1, 2)


def test_a_copy_on_another_number_type_computes_its_own_terms():
    family = CoeffFamily.gould(preset("pell"))
    scalar_pair = family_coeffs(family, 2, 3)
    native = family.with_numbers(NATIVE)
    native_pair = family_coeffs(native, 2, 3)
    assert type(scalar_pair.h2) is Scalar and type(native_pair.h2) in (int, Fraction)
    assert scalar_pair.h2 == native_pair.h2
    assert type(family.terms(4)) is Scalar and type(native.terms(4)) is int


def test_records_compare_by_their_fields():
    assert CoeffPair(1, 2, ONE, ZERO) == CoeffPair(1, 2, ONE, ZERO)
    assert CoeffPair(1, 2, ONE, ZERO) != CoeffPair(2, 1, ONE, ZERO)
    fib = preset("fibonacci")
    assert verify_pascal(fib, CoeffFamily.gould(fib), 5).cells == \
        verify_pascal(fib, CoeffFamily.gould(fib), 5).cells
    assert series_verify(fib, 6) == series_verify(fib, 6)
    assert addition_check(fib, 2, 3) == addition_check(fib, 2, 3)
    assert addition_check(fib, 2, 3) != addition_check(fib, 3, 3)


# -- immutability -------------------------------------------------------------


def _frozen_values():
    fib = preset("fibonacci")
    binet = to_binet(fib)
    return [
        Scalar(3), QuadExt(1, 1, 5), fib, binet,
        series_verify(fib, 4), addition_check(fib, 1, 2),
        multinomial_product_check(fib, 4, 1, (2, 1)),
        hbinom.qstar_transfer(2, 1, 3, 1),
        CoeffPair(1, 1, ONE, ONE), CoeffFamily.gould(fib),
        verify_pascal(fib, CoeffFamily.gould(fib), 3).cells[0],
        vweighted_verify(fib, 3).cells[0],
    ]


def test_the_frozen_classes_are_still_frozen():
    values = _frozen_values()
    assert {type(v) for v in values} == {
        Scalar, QuadExt, HoradamSpec, BinetSpec, SeriesReport, AdditionReport,
        MultinomialCheck, QstarReport, CoeffPair, CoeffFamily, CellCheck, VWeightedCell}
    for value in values:
        for name in ("a", "r", "alpha", "tag", "_c", "new_name"):
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, "new_name")


def test_a_spec_keeps_its_entries_after_it_is_hashed():
    spec = preset("pell")
    h, disc = hash(spec), spec.discriminant()
    with pytest.raises(AttributeError):
        spec.s = Scalar(5)
    assert (hash(spec), spec.s, spec.discriminant()) == (h, Scalar(2), disc)
    assert disc == Scalar(8)


def test_a_record_takes_exactly_its_fields():
    pair = CoeffPair(1, 2, ONE, ZERO)
    assert (pair.r, pair.s, pair.h1, pair.h2) == (1, 2, ONE, ZERO)
    with pytest.raises(TypeError, match="CoeffPair takes 4 values, got 3"):
        CoeffPair(1, 2, ONE)


# -- the suite config round trip ----------------------------------------------


def test_suite_config_round_trips_through_json():
    config = default_config()
    config.max_n, config.cache = 7, "cache/t.jsonl"
    back = SuiteConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert back == config and back is not config
    assert back.to_dict() == config.to_dict()
    for name, value in (("max_n", 8), ("families", ["gould"]), ("oracles", []),
                        ("literal_v_addition_strict", True), ("format", "json"),
                        ("cache", None), ("specs", config.specs[:1])):
        changed = SuiteConfig.from_dict(config.to_dict())
        setattr(changed, name, value)
        assert changed != config, name


def test_suite_config_defaults_are_fresh_lists():
    first = SuiteConfig([("fib", preset("fibonacci"))], ["gould"])
    second = SuiteConfig([("fib", preset("fibonacci"))], ["gould"])
    assert first == second and first.oracles is not second.oracles
    first.oracles.append("extra")
    assert "extra" not in second.oracles
    with pytest.raises(TypeError):
        hash(first)
