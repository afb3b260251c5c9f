"""The integer kernels of the ring, and the held form of `Scalar` (a content
times primitive int tuples), against the Fraction reference route."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbinom.binomials import table_for
from hbinom.ring import (_P1, ONE, ZERO, Scalar, _from_ints, _held, _horner,
                         _idivexact, _imul, _padd, _pdivmod, _pgcd, _pmul,
                         _poly_str, _power, _psqrt, _reduce, _trim)
from hbinom.sequences import HoradamSpec, preset

fracs = st.fractions(min_value=-50, max_value=50, max_denominator=30)
polys = st.lists(fracs, max_size=7).map(_trim)
nonzero_polys = polys.filter(bool)
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def _ints_of(coeffs):
    return _held(coeffs)[1]


@given(nonzero_polys)
@settings(max_examples=60, deadline=None)
def test_primitive_part(a):
    content, ints = _held(a)
    assert type(content) is Fraction and content != 0
    assert all(type(v) is int for v in ints)
    assert tuple(content * v for v in ints) == a
    assert gcd(*ints) == 1 and ints[-1] > 0
    assert _from_ints(content, ints) == a


def test_held_zero():
    assert _held(()) == (0, ())


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_imul_matches_reference(a, b):
    (ca, ia), (cb, ib) = _held(a), _held(b)
    assert _trim(_from_ints(ca * cb, _imul(ia, ib))) == _pmul(a, b)
    if a and b:
        # Gauss's lemma: a product of primitive parts is primitive
        prod = _imul(ia, ib)
        assert gcd(*prod) == 1 and prod[-1] > 0


@given(nonzero_polys, nonzero_polys)
@settings(max_examples=60, deadline=None)
def test_exact_division_of_products(q, b):
    assert _idivexact(_ints_of(_pmul(q, b)), _ints_of(b)) == list(_ints_of(q))


@given(nonzero_polys, nonzero_polys, nonzero_polys)
@settings(max_examples=60, deadline=None)
def test_inexact_division_is_refused(q, b, r):
    if len(b) < 2:
        return
    r = r[:len(b) - 1]
    if not _trim(r):
        return
    # deg r < deg b and r != 0, so b does not divide q*b + r
    assert _idivexact(_ints_of(_padd(_pmul(q, b), r)), _ints_of(b)) is None


@given(nonzero_polys, nonzero_polys)
@settings(max_examples=60, deadline=None)
def test_exact_division_agrees_with_divmod(a, b):
    quo, rem = _pdivmod(a, b)
    (ca, ia), (cb, ib) = _held(a), _held(b)
    got = _idivexact(ia, ib)
    if rem:
        assert got is None
    else:
        assert _from_ints(ca / cb, got) == quo


int_polys = st.lists(st.integers(-30, 30), max_size=6).map(_trim)
nonzero_int_polys = int_polys.filter(bool)


def _check_int_gcd(a, b):
    """`_pgcd` on int tuples gives the Fractions it gives on the same values
    as Fractions, and no float on the way."""
    got = _pgcd(a, b)
    assert got == _pgcd(tuple(map(Fraction, a)), tuple(map(Fraction, b)))
    assert all(type(c) is Fraction for c in got)
    if b:
        for part in _pdivmod(a, b):
            assert all(type(c) in (int, Fraction) for c in part)
    return got


@given(int_polys, int_polys)
@settings(max_examples=80, deadline=None)
def test_int_gcd_matches_fraction_gcd(a, b):
    _check_int_gcd(a, b)


@given(nonzero_int_polys, nonzero_int_polys, nonzero_int_polys)
@settings(max_examples=60, deadline=None)
def test_int_gcd_finds_a_common_factor(g, p, q):
    got = _check_int_gcd(_imul(g, p), _imul(g, q))
    # g divides the gcd over Q
    assert not _pdivmod(got, tuple(map(Fraction, g)))[1]


@pytest.mark.parametrize("a, b, want", [
    # n divides d with deg n < deg d: 2 + 3x divides (2 + 3x)(1 + 5x^2)
    ((2, 3), (2, 3, 10, 15), (Fraction(2, 3), Fraction(1))),
    ((2, 3, 10, 15), (2, 3), (Fraction(2, 3), Fraction(1))),
    # coprime: the gcd is the constant 1
    ((1, 1), (1, 0, 1), (Fraction(1),)),
    ((7,), (1, 0, 3), (Fraction(1),)),
    ((), (4, 2), (Fraction(2), Fraction(1))),
])
def test_int_gcd_cases(a, b, want):
    assert _check_int_gcd(a, b) == want


def test_scalar_stores_only_the_held_form():
    assert Scalar.__slots__ == ("_c", "_n", "_d")
    v = Scalar.from_ratio([1, Fraction(1, 2)], [3, 0, 1])
    # the coefficient tuples are rebuilt on each read, equal every time
    assert v.num_coeffs == v.num_coeffs and v.num_coeffs is not v.num_coeffs
    assert v.den_coeffs == v.den_coeffs and v.den_coeffs is not v.den_coeffs


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
def test_rational_arithmetic_matches_fraction(values, data):
    x, y = data.draw(values), data.draw(values)
    k = data.draw(st.integers(-8, 12))
    a, b = Scalar(x), Scalar(y)
    fx, fy = Fraction(x), Fraction(y)
    # both operands Scalar, and a plain int or Fraction on either side
    pairs = [(a + b, fx + fy), (a + y, fx + fy), (x + b, fx + fy),
             (a - b, fx - fy), (a - y, fx - fy), (x - b, fx - fy),
             (a * b, fx * fy), (a * y, fx * fy), (x * b, fx * fy)]
    if fy:
        pairs += [(a / b, fx / fy), (a / y, fx / fy), (x / b, fx / fy)]
    if fx:
        pairs += [(a.inverse(), 1 / fx), (a ** k, fx ** k)]
    for got, want in pairs:
        _matches_fraction(got, want)
    # a zero divisor, and zero to a negative power
    for route in (lambda: a / ZERO, lambda: a / 0, lambda: x / ZERO,
                  lambda: ZERO.inverse(), lambda: ZERO ** -1):
        with pytest.raises(ZeroDivisionError):
            route()


@given(mixed, st.integers(-8, 40))
@settings(max_examples=120, deadline=None)
def test_rational_power_matches_square_and_multiply(x, k):
    base = Scalar(x)

    def folded():
        """base**k as |k| plain products, inverted for k < 0."""
        result = ONE
        for _ in range(abs(k)):
            result = result * base
        return result.inverse() if k < 0 else result

    if x == 0 and k < 0:
        for route in (lambda: base ** k, lambda: _power(base, k, ONE), folded):
            with pytest.raises(ZeroDivisionError):
                route()
        return
    got, ref = _power(base, k, ONE), folded()
    assert got == ref
    assert base ** k == got
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


# ---------------------------------------------------------------------------
# the held form: every Scalar operation against the Fraction reference

def _ratio(num, den):
    """A Scalar from raw Fraction tuples, and its reference (num, den)."""
    ref = _reference_make(num, den)
    return Scalar.from_ratio(num, den), ref


# polynomials, and quotients of two random polynomials, which reduce to
# rationals, polynomials or rational functions
ratfuncs = st.builds(_ratio, polys, nonzero_polys)
ratfuncs_or_polys = st.one_of(polys.map(lambda p: _ratio(p, _P1)), ratfuncs)


def _expected_forms(num, den):
    """to_json, str and hash of the value num/den, rendered from the Fraction
    tuples as the Scalar of Fraction coefficient tuples did."""
    if len(num) <= 1 and den == _P1:
        value = num[0] if num else Fraction(0)
        return str(value), str(value), hash(value)
    text = [str(c) for c in num]
    if den == _P1:
        return text, _poly_str(num), hash((num, den))
    return ({"num": text, "den": [str(c) for c in den]},
            f"({_poly_str(num)})/({_poly_str(den)})", hash((num, den)))


def _check_held(v: Scalar, ref) -> None:
    num, den = ref
    assert (v.num_coeffs, v.den_coeffs) == (num, den)
    assert all(type(c) is Fraction for c in v.num_coeffs + v.den_coeffs)
    assert (v.to_json(), str(v), hash(v)) == _expected_forms(num, den)
    # canonical: primitive int tuples with positive leading entries, the
    # sign and the scale in the content; zero is 0 * ()
    for ints in (v._n, v._d):
        assert all(type(i) is int for i in ints)
        if ints:
            assert gcd(*ints) == 1 and ints[-1] > 0
    assert v._d[-1] > 0 and (len(v._d) == 1) == (den == _P1)
    assert (v._n == ()) == (not num) == (v._c == 0)
    # equal to the same value built from the reference tuples
    rebuilt = Scalar.from_ratio(num, den)
    assert v == rebuilt and hash(v) == hash(rebuilt)


def _ref_mul(a, b):
    return _reference_make(_pmul(a[0], b[0]), _pmul(a[1], b[1]))


def _ref_add(a, b):
    return _reference_make(_padd(_pmul(a[0], b[1]), _pmul(b[0], a[1])), _pmul(a[1], b[1]))


@given(ratfuncs_or_polys, ratfuncs_or_polys)
@settings(max_examples=120, deadline=None)
def test_held_arithmetic_matches_reference(x, y):
    (a, ra), (b, rb) = x, y
    _check_held(a, ra)
    neg_b = (tuple(-c for c in rb[0]), rb[1])
    _check_held(-b, neg_b)
    _check_held(a + b, _ref_add(ra, rb))
    _check_held(a - b, _ref_add(ra, neg_b))
    _check_held(a * b, _ref_mul(ra, rb))
    if rb[0]:
        _check_held(a / b, _ref_mul(ra, (rb[1], rb[0])))
        _check_held(b.inverse(), _reference_make(rb[1], rb[0]))


@given(ratfuncs_or_polys, st.integers(-2, 3))
@settings(max_examples=40, deadline=None)
def test_held_power_matches_reference(x, k):
    a, ra = x
    if not ra[0] and k < 0:
        return
    num, den = (ra[1], ra[0]) if k < 0 else ra
    ref = (_P1, _P1)
    for _ in range(abs(k)):
        ref = _ref_mul(ref, (num, den))
    _check_held(a ** k, ref)


@given(ratfuncs_or_polys, ratfuncs_or_polys)
@settings(max_examples=60, deadline=None)
def test_held_sqrt_matches_reference(x, y):
    (a, ra), (b, rb) = x, y
    for v, (num, den) in ((a, ra), (b * b, _ref_mul(rb, rb))):
        rn, rd = _psqrt(num), _psqrt(den)
        got = v.sqrt_if_square()
        if rn is None or rd is None:
            assert got is None
        else:
            _check_held(got, _reference_make(rn, rd))


@given(ratfuncs_or_polys, st.one_of(rationals, st.fractions(max_denominator=2**40)))
@settings(max_examples=120, deadline=None)
def test_integer_horner_matches_scalar_horner(x, point):
    a, (num, den) = x
    p = Scalar(point)
    den_at = _horner(den, p)
    if not den_at:
        with pytest.raises(ZeroDivisionError):
            a.evaluate(point)
        return
    want = _horner(num, p) / den_at
    got = a.evaluate(point)
    _check_held(got, (want.num_coeffs, want.den_coeffs))
    assert got == a.evaluate(p)


@given(polys, polys, nonzero_polys)
@settings(max_examples=60, deadline=None)
def test_equal_values_by_different_routes_agree(p, q, d):
    routes = [
        (Scalar.poly(_pmul(p, q)), Scalar.poly(p) * Scalar.poly(q)),
        (Scalar.from_ratio(_pmul(p, d), _pmul(q or _P1, d)),
         Scalar.poly(p) / Scalar.poly(q or _P1)),
        (Scalar.from_ratio(p, d) + Scalar.poly(q),
         Scalar.from_ratio(_padd(p, _pmul(q, d)), d)),
    ]
    for u, v in routes:
        assert u == v and hash(u) == hash(v)
        assert (u._c, u._n, u._d) == (v._c, v._n, v._d)
        assert u.to_json() == v.to_json() and str(u) == str(v)


def test_evaluate_at_a_polynomial_point_takes_the_scalar_route():
    x = Scalar.indeterminate()
    v = Scalar.from_ratio([1, 0, 1], [Fraction(-1, 2), 1])
    assert v.evaluate(x * x) == (x ** 4 + 1) / (x * x - Fraction(1, 2))
    assert v.evaluate(x) == v


# wide contents: numerators and denominators past a machine word, so that a
# coefficient's gcd with the content's denominator is often neither 1 nor it
wide_fracs = st.fractions(min_value=-10 ** 30, max_value=10 ** 30,
                          max_denominator=10 ** 12)
wide_polys = st.lists(st.one_of(wide_fracs, st.just(Fraction(0))), max_size=8).map(_trim)


def _to_json_reference(v: Scalar):
    """to_json read from the Fraction tuples `num_coeffs` and `den_coeffs`."""
    if v.is_rational:
        return str(v.as_fraction())
    num = [str(c) for c in v.num_coeffs]
    if v.is_polynomial:
        return num
    return {"num": num, "den": [str(c) for c in v.den_coeffs]}


@given(st.one_of(polys, wide_polys), st.one_of(nonzero_polys, wide_polys.filter(bool)),
       st.sampled_from([1, 2, 3, Fraction(-7, 12), Fraction(10 ** 20 + 1, 6)]))
@settings(max_examples=150, deadline=None)
def test_to_json_renders_the_held_ints_as_the_fraction_tuples(num, den, scale):
    values = [Scalar.poly(num), Scalar.from_ratio(num, den),
              Scalar.poly(num) * scale, Scalar.from_ratio(num, den) / scale]
    for v in values:
        assert v.to_json() == _to_json_reference(v)


def test_to_json_renders_triangle_cells_as_the_fraction_tuples():
    # U(x, -17/21): polynomial cells with fractional contents; V(x, -17/28):
    # rational-function cells with a non-constant denominator
    u = HoradamSpec(0, 1, Scalar.indeterminate(), Fraction(-17, 21))
    v = preset("cigler_qlucas", t=Fraction(-17, 28))
    cells = [c for spec, top in ((u, 18), (v, 8)) for n in range(top + 1)
             for c in table_for(spec).row(n)]
    assert {c.variant for c in cells} == {"rational", "polynomial", "rational_function"}
    for c in cells:
        assert c.to_json() == _to_json_reference(c)
