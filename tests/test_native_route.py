"""The checks of a rational spec run on native ints and Fractions; each is
compared here, cell by cell, with the same check on the Scalar/QuadExt route.

The route follows `HoradamSpec.is_rational`, read once when a spec's context
is made; patching it to False over an empty memo sends every spec down the
Scalar/QuadExt route, which is the reference."""

import contextlib
import io
import json
import pathlib
import tempfile
from collections import OrderedDict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbinom import recurrences, sequences
from hbinom.binomials import ZeroTermError, integrality_scan, table_for
from hbinom.cli import main
from hbinom.recurrences import (FAMILY_TAGS, NATIVE, CoeffFamily, ScalarIdentityError,
                                family_coeffs, resolve_family, verify_pascal,
                                vweighted_verify)
from hbinom.ring import NativeExt, QuadExt, Scalar, lift, native, ndiv
from hbinom.sequences import (HoradamSpec, addition_check, context, preset, series_verify,
                              term, to_binet)

SPECS = {
    "fibonacci": preset("fibonacci"),
    "pell": preset("pell"),
    "lucas_numbers": preset("lucas_numbers"),
    "u3m2": preset("u", s=3, t=-2),
    "v3m2": preset("v", s=3, t=-2),
    "u2_0": preset("u", s=2, t=0),        # t = 0: singular alternating pairs
    "u0_1": preset("u", s=0, t=1),        # U(2) = 0: zero terms
    "fractional": HoradamSpec(Scalar(Fraction(1, 2)), Scalar(-3),
                              Scalar(Fraction(3, 7)), Scalar(Fraction(-5, 11))),
}
CHECKS = FAMILY_TAGS + ("vweighted", "addition")
MAX_N = 12

small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
rational_specs = st.builds(
    lambda a, b, s, t: HoradamSpec(Scalar(a), Scalar(b), Scalar(s), Scalar(t)),
    small_fracs, small_fracs, small_fracs, small_fracs)


def _on_scalars(monkeypatch):
    monkeypatch.setattr(HoradamSpec, "is_rational", property(lambda self: False))
    monkeypatch.setattr(sequences, "_contexts", OrderedDict())


def _cells(cells):
    """Every field of every cell record, by value and as printed."""
    return [(c, str(c.lhs), str(c.rhs), type(c.lhs), type(c.rhs)) for c in cells]


def _outcome(spec: HoradamSpec, check: str, max_n: int = MAX_N):
    """What a check gives: its records, or the type, message and index of the
    error that stopped it."""
    try:
        if check == "vweighted":
            return _cells(vweighted_verify(spec, max_n).cells)
        if check == "addition":
            reports = [addition_check(spec, r, s) for r in range(9) for s in range(9)]
            return [(rep, str(rep.v_literal_lhs), str(rep.v_literal_rhs), str(rep.disc))
                    for rep in reports]
        family = resolve_family(check, spec)
        report = verify_pascal(family.seq, family, max_n)
        return report.uses_extension, report.all_pass, _cells(report.cells)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "index", None)


def _both_routes(monkeypatch, spec: HoradamSpec, check: str, max_n: int = MAX_N):
    native_side = _outcome(spec, check, max_n)
    with monkeypatch.context() as m:
        _on_scalars(m)
        scalar_side = _outcome(spec, check, max_n)
    return native_side, scalar_side


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("name", sorted(SPECS))
def test_native_route_matches_the_scalar_route(monkeypatch, name, check):
    native_side, scalar_side = _both_routes(monkeypatch, SPECS[name], check)
    assert native_side == scalar_side


def test_the_specs_reach_every_kind_of_outcome(monkeypatch):
    outcomes = {(name, check): _outcome(spec, check)
                for name, spec in SPECS.items() for check in CHECKS}
    errors = {o[0] for o in outcomes.values() if isinstance(o[0], type)}
    assert {ZeroTermError, recurrences.SingularCoefficientError,
            recurrences.FamilyRequirementError} <= errors
    # the closed-form pairs leave the base field for irrational roots
    assert outcomes["fibonacci", "binet"][0] is True
    assert outcomes["fractional", "binet"][0] is True
    assert outcomes["u3m2", "binet"][0] is False
    assert outcomes["u0_1", "vweighted"][2] == 2


@given(rational_specs)
@settings(max_examples=15, deadline=None)
def test_native_route_matches_on_rational_specs(spec):
    with pytest.MonkeyPatch.context() as monkeypatch:
        for check in CHECKS:
            native_side, scalar_side = _both_routes(monkeypatch, spec, check, 7)
            assert native_side == scalar_side, check


def test_a_wrong_rule_breaks_the_scalar_identity_alike(monkeypatch):
    # (1, 1) for every cell, written once for both number types
    entry = recurrences._FAMILIES["gould"]
    monkeypatch.setitem(recurrences._FAMILIES, "gould", entry._replace(
        rule=lambda family, r, s: (family.numbers.one, family.numbers.one)))
    for name in ("fibonacci", "fractional"):
        native_side, scalar_side = _both_routes(monkeypatch, SPECS[name], "gould")
        assert native_side == scalar_side
        assert native_side[0] is ScalarIdentityError
        assert native_side[1].startswith("scalar identity broken at (1,1)")


# -- no floats, and Scalar/QuadExt at every boundary ------------------------


def _exact(value) -> bool:
    """An int, a Fraction, or a NativeExt with int parts: never a float."""
    if type(value) is NativeExt:
        return (all(type(v) is int for v in (value.a, value.b, value.den))
                and _exact(value.disc))
    return type(value) in (int, Fraction)


def _settled(value) -> bool:
    """An int when integral, a Fraction otherwise."""
    return type(value) is int or (type(value) is Fraction and value.denominator != 1)


@pytest.mark.parametrize("name", ["fibonacci", "lucas_numbers", "u3m2", "fractional"])
def test_native_values_are_never_floats(name):
    spec = SPECS[name]
    for tag in FAMILY_TAGS:
        try:
            family = resolve_family(tag, spec)
        except (ArithmeticError, ValueError):
            continue
        native_family = family.with_numbers(NATIVE)
        for total in range(2, MAX_N + 1):
            for r in range(1, total):
                try:
                    pair = family_coeffs(native_family, r, total - r)
                except ArithmeticError:
                    continue
                assert _exact(pair.h1) and _exact(pair.h2), (tag, r)
                if tag == "binet" or (tag == "alternating" and 2 * r == total):
                    assert type(pair.h1) is NativeExt is type(pair.h2), (tag, r)
    # the stored terms, factorials and rows are settled
    assert all(_settled(v) for v in context(spec)._values)
    tbl = table_for(spec)
    tbl.own_row(MAX_N)
    assert all(_settled(v) for v in tbl._fact)
    assert all(_settled(v) for row in tbl._rows for v in row)
    assert all(_settled(v) for v in context(to_binet(spec).conjugate)._values)


@given(st.integers(-50, 50), st.integers(-50, 50).filter(bool),
       st.fractions(max_denominator=9))
def test_native_division_is_exact(a, b, f):
    for x, y in ((a, b), (f, b), (a, f), (f, f)):
        if not y:
            continue
        q = ndiv(x, y)
        assert _settled(q) or q == 0
        assert q == Fraction(x) / Fraction(y)


def test_native_extension_lifts_to_the_same_quadext():
    binet = to_binet(SPECS["fractional"])
    disc = native(binet.disc)

    def ext(value: QuadExt) -> NativeExt:
        return NativeExt.over(native(value.alpha), native(value.beta), 1, disc)

    for value in (binet.A, binet.B, binet.p, binet.q):
        assert _exact(ext(value))
        assert lift(ext(value)) == value and str(lift(ext(value))) == str(value)
    p, q = map(ext, (binet.p, binet.q))
    assert lift(p * q) == binet.p * binet.q
    assert lift(p + q) == binet.p + binet.q
    assert bool(NativeExt.embed(0, 5)) is False and bool(QuadExt.embed(0, 5)) is False


def test_lift_gives_scalars():
    assert lift(3) == Scalar(3) and type(lift(3)) is Scalar
    assert lift(Fraction(-2, 6)) == Scalar(Fraction(-1, 3))
    assert lift(Scalar(4)) == Scalar(4) and lift(None) is None
    assert native(Scalar(Fraction(8, 4))) == 2 and type(native(Fraction(4, 2))) is int


def test_boundaries_stay_scalar_on_the_native_route():
    fib = SPECS["fibonacci"]
    assert all(type(c.lhs) is Scalar for c in vweighted_verify(fib, 6).cells)
    rep = addition_check(fib, 3, 4)
    assert type(rep.v_literal_lhs) is Scalar and type(rep.disc) is Scalar
    pair = family_coeffs(CoeffFamily.binet(fib), 2, 3)
    assert type(pair.h1) is QuadExt
    assert type(family_coeffs(CoeffFamily.gould(fib), 2, 3).h2) is Scalar


def test_the_route_follows_the_spec(monkeypatch):
    fib, poly = SPECS["fibonacci"], preset("cigler_qfib")
    assert recurrences._numbers(fib) is NATIVE
    assert recurrences._numbers(poly) is recurrences.SCALAR
    verify_pascal(fib, CoeffFamily.hu_sun(1, 1), 5)
    rows = table_for(fib)._rows
    assert len(rows) > 5 and all(type(v) is int for row in rows for v in row)
    _on_scalars(monkeypatch)
    assert recurrences._numbers(fib) is recurrences.SCALAR


# -- the readers of the held values, and the triangles built on them --------


def _scalar_memo(monkeypatch):
    """A fresh memo whose contexts hold Scalars whatever the spec.  Unlike
    `_on_scalars` it leaves `is_rational` alone, so `series_verify` and the
    generating function still accept rational specs."""
    monkeypatch.setattr(sequences, "_contexts", OrderedDict())
    monkeypatch.setattr(sequences, "native", Scalar.coerce)


def _pinned(values) -> list:
    """Values with their types and JSON forms."""
    return [(v, type(v), json.dumps(v.to_json())) for v in values]


def _attempt(read):
    try:
        return read()
    except ZeroTermError as exc:
        return ZeroTermError, exc.index


def _readers(spec: HoradamSpec, max_n: int) -> dict:
    """What every reader of the spec's terms and table gives up to max_n."""
    tbl = table_for(spec)
    out = {"terms": _pinned(term(spec, n) for n in range(max_n + 1)),
           "series": series_verify(spec, max_n),
           "integrality": _attempt(lambda: [(n, k, _pinned([v]))
                                            for n, k, v in integrality_scan(spec, max_n)])}
    for n in range(max_n + 1):
        out["row", n] = _attempt(lambda: _pinned(tbl.row(n)))
        out["factorial", n] = _attempt(lambda: _pinned([tbl.factorial(n)]))
        out["binomial", n] = _attempt(
            lambda: _pinned(tbl.binomial(n, k) for k in range(-1, n + 2)))
        out["multinomial", n] = _attempt(
            lambda: _pinned(tbl.multinomial((k, 1, n - k)) for k in range(n + 1)))
    return out


def _cli(*argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _triangles(spec: HoradamSpec, max_n: int) -> dict:
    """`hbinom triangle` for both kinds in every format, and a cold and a warm
    cached run with the cache file's bytes."""
    given = ("triangle", "--spec", json.dumps(spec.to_json()), "--max-n", str(max_n))
    kinds = {"binomial": (), "slice": ("--kind", "multinomial-slice", "--parts", "1")}
    out = {}
    for kind, extra in kinds.items():
        for fmt in ("text", "csv", "json"):
            out[kind, fmt] = _cli(*given, *extra, "--format", fmt)
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp, "t.jsonl")
            cold = _cli(*given, *extra, "--cache", str(path))
            warm = _cli(*given, *extra, "--cache", str(path))
            out[kind, "cache"] = cold, warm, path.exists() and path.read_bytes()
    return out


def _native_and_scalar_memos(monkeypatch, spec: HoradamSpec, max_n: int) -> tuple:
    native_side = _readers(spec, max_n), _triangles(spec, max_n)
    held = [v for row in table_for(spec)._rows for v in row] + context(spec)._values
    assert all(type(v) in (int, Fraction) for v in held)
    with monkeypatch.context() as m:
        _scalar_memo(m)
        scalar_side = _readers(spec, max_n), _triangles(spec, max_n)
        held = [v for row in table_for(spec)._rows for v in row] + context(spec)._values
        assert all(type(v) is Scalar for v in held)
    return native_side, scalar_side


@pytest.mark.parametrize("name", sorted(SPECS))
def test_readers_and_triangles_match_the_scalar_memo(monkeypatch, name):
    native_side, scalar_side = _native_and_scalar_memos(monkeypatch, SPECS[name], MAX_N)
    assert native_side == scalar_side


@given(rational_specs)
@settings(max_examples=10, deadline=None)
def test_readers_and_triangles_match_on_rational_specs(spec):
    with pytest.MonkeyPatch.context() as monkeypatch:
        native_side, scalar_side = _native_and_scalar_memos(monkeypatch, spec, 6)
    assert native_side == scalar_side


def test_a_zero_term_stops_both_memos_at_the_same_index(monkeypatch):
    native_side, scalar_side = _native_and_scalar_memos(monkeypatch, SPECS["u0_1"], 6)
    readers, triangles = native_side
    assert readers["row", 5] == readers["factorial", 3] == (ZeroTermError, 2)
    assert triangles["binomial", "csv"] == (1, "", "error: sequence term at index 2 is zero\n")
    assert native_side == scalar_side
