"""The integer kernels of the ring against the Fraction reference route."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbinom.ring import (_P1, ONE, ZERO, Scalar, _padd, _pdiv_exact, _pdivmod,
                         _pmul, _pmul_ff, _power, _primitive, _reduce, _trim)

fracs = st.fractions(min_value=-50, max_value=50, max_denominator=30)
polys = st.lists(fracs, max_size=7).map(_trim)
nonzero_polys = polys.filter(bool)
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@given(nonzero_polys)
@settings(max_examples=60, deadline=None)
def test_primitive_part(a):
    content, ints = _primitive(a)
    assert content > 0
    assert all(isinstance(v, int) for v in ints)
    assert tuple(content * v for v in ints) == a
    assert gcd(*ints) == 1


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_pmul_matches_reference(a, b):
    assert _pmul_ff(a, b) == _pmul(a, b)


@given(nonzero_polys, nonzero_polys)
@settings(max_examples=60, deadline=None)
def test_exact_division_of_products(q, b):
    assert _pdiv_exact(_pmul(q, b), b) == q


@given(nonzero_polys, nonzero_polys, nonzero_polys)
@settings(max_examples=60, deadline=None)
def test_inexact_division_is_refused(q, b, r):
    if len(b) < 2:
        return
    r = r[:len(b) - 1]
    if not _trim(r):
        return
    # deg r < deg b and r != 0, so b does not divide q*b + r
    assert _pdiv_exact(_padd(_pmul(q, b), r), b) is None


@given(nonzero_polys, nonzero_polys)
@settings(max_examples=60, deadline=None)
def test_exact_division_agrees_with_divmod(a, b):
    quo, rem = _pdivmod(a, b)
    assert _pdiv_exact(a, b) == (None if rem else quo)


def _reference_make(num, den):
    num, den = _trim(num), _trim(den)
    return ((), _P1) if not num else _reduce(num, den)


@given(polys, nonzero_polys, nonzero_polys)
@settings(max_examples=60, deadline=None)
def test_make_matches_reference(p, d, g):
    # p*g / (d*g) has the common factor g to cancel; with d constant it is a
    # polynomial, which the exact division must find.
    for num, den in ((_pmul(p, g), _pmul(d, g)), (p, d), (_pmul(p, d), d)):
        v = Scalar._make(num, den)
        assert (v.num_coeffs, v.den_coeffs) == _reference_make(num, den)


@given(rationals, rationals)
@settings(max_examples=60, deadline=None)
def test_rational_short_circuits(x, y):
    a, b = Scalar(x), Scalar(y)
    expected = {"+": x + y, "-": x - y, "*": x * y}
    got = {"+": a + b, "-": a - b, "*": a * b}
    if y:
        expected["/"] = x / y
        got["/"] = a / b
    if x:
        expected["inv"] = 1 / x
        got["inv"] = a.inverse()
    for op, value in expected.items():
        assert got[op].num_coeffs == ((value,) if value else ()), op
        assert got[op].den_coeffs == _P1, op


# integers around the machine-word edges and past 2**64, where CPython's int
# changes representation; 0 and +-1 are the identities of the ring
ints = st.one_of(st.sampled_from([0, 1, -1, 2**63, -2**63, 2**64, -2**64, 2**64 + 1]),
                 st.integers(-5, 5), st.integers(-2**80, 2**80))
# integer and non-integer rationals mixed
mixed = st.one_of(ints.map(Fraction), rationals,
                  st.fractions(max_denominator=2**70))


def _matches_fraction(got: Scalar, want: Fraction) -> None:
    ref = Scalar(want)
    assert got == ref
    assert got.to_json() == ref.to_json()
    assert got.num_coeffs == ((want,) if want else ())
    assert all(type(c) is Fraction for c in got.num_coeffs)
    assert got.den_coeffs == _P1


@pytest.mark.parametrize("values", [ints, mixed], ids=["ints", "mixed"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_rational_fast_paths_match_fraction(values, data):
    x, y = data.draw(values), data.draw(values)
    a, b = Scalar(x), Scalar(y)
    fx, fy = Fraction(x), Fraction(y)
    # both operands Scalar, and a plain int or Fraction on either side
    for got, want in ((a + b, fx + fy), (a + y, fx + fy), (x + b, fx + fy),
                      (a - b, fx - fy), (a - y, fx - fy), (x - b, fx - fy),
                      (a * b, fx * fy), (a * y, fx * fy), (x * b, fx * fy)):
        _matches_fraction(got, want)


@given(mixed, st.integers(-8, 40))
@settings(max_examples=120, deadline=None)
def test_rational_power_matches_square_and_multiply(x, k):
    base = Scalar(x)
    if x == 0 and k < 0:
        for route in (lambda: base ** k, lambda: _power(base, k, ONE)):
            with pytest.raises(ZeroDivisionError):
                route()
        return
    got, ref = base ** k, _power(base, k, ONE)
    assert got == ref
    assert got.to_json() == ref.to_json()
    _matches_fraction(got, Fraction(x) ** k)


def test_zero_to_a_negative_power_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO ** -1
    assert ZERO ** 0 == ONE


def _sympy_coeffs(poly, lc) -> tuple:
    return _trim(Fraction(str(c / lc)) for c in reversed(poly.all_coeffs()))


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5),
       st.lists(st.integers(-9, 9), min_size=1, max_size=5),
       st.lists(st.integers(-9, 9), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_cancel_matches_sympy(p, d, g):
    sympy = pytest.importorskip("sympy")
    if not any(d) or not any(g):
        return
    x = sympy.Symbol("x")
    g = tuple(map(Fraction, g))
    num = _pmul(tuple(map(Fraction, p)), g)
    den = _pmul(tuple(map(Fraction, d)), g)
    v = Scalar.from_ratio(num, den)

    def expr(coeffs):
        return sum(sympy.Rational(c.numerator, c.denominator) * x ** i
                   for i, c in enumerate(coeffs))

    sn, sd = (sympy.Poly(e, x) for e in
              sympy.fraction(sympy.cancel(expr(num) / expr(den))))
    lc = sd.LC()
    assert v.num_coeffs == _sympy_coeffs(sn, lc)
    assert v.den_coeffs == _sympy_coeffs(sd, lc)
