"""Field arithmetic: canonical forms, axioms, extensions, serialization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbinom.ring import (ONE, X, ZERO, ExtensionMismatchError,
                         IrrationalResidueError, QuadExt, Scalar)

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
rationals = st.builds(Scalar, fracs)
polys = st.builds(Scalar.poly, st.lists(fracs, max_size=4))
ratfuncs = st.builds(
    lambda n, d: Scalar.poly(n) / Scalar.poly(d),
    st.lists(fracs, max_size=3),
    st.lists(fracs, min_size=1, max_size=3).filter(lambda d: any(c != 0 for c in d)))
scalars = st.one_of(rationals, polys, ratfuncs)
quads = st.builds(QuadExt, rationals, rationals, st.just(Scalar(5)))


# -- canonical form ---------------------------------------------------------


def test_rational_construction():
    assert Scalar(Fraction(2, 4)) == Scalar(Fraction(1, 2))
    assert Scalar(7).variant == "rational"
    assert Scalar(0).is_zero() and not Scalar(3).is_zero()
    assert Scalar(1).is_one()


def test_trailing_zeros_trimmed():
    assert Scalar.poly([1, 2, 0, 0]) == Scalar.poly([1, 2])
    assert Scalar.poly([0, 0]) == ZERO
    assert Scalar.poly([5]).variant == "rational"


def test_ratio_reduces_to_rational():
    # (x+1)/(2x+2) collapses all the way down
    v = Scalar.from_ratio([1, 1], [2, 2])
    assert v == Scalar(Fraction(1, 2))
    assert v.variant == "rational"


def test_denominator_is_monic_and_coprime():
    v = Scalar.from_ratio([0, 2], [4, 0, 2])  # 2x / (2x^2 + 4)
    assert v.den_coeffs[-1] == 1
    assert v.num_coeffs == (Fraction(0), Fraction(1))
    assert v.den_coeffs == (Fraction(2), Fraction(0), Fraction(1))


def test_variant_promotion():
    assert (Scalar(2) + X).variant == "polynomial"
    assert (ONE / X).variant == "rational_function"
    assert (X / X).variant == "rational"
    assert ((X * X - 1) / (X + 1)) == X - 1


@given(scalars)
@settings(max_examples=60, deadline=None)
def test_canonical_reconstruction_idempotent(v):
    rebuilt = Scalar.from_ratio(v.num_coeffs, v.den_coeffs)
    assert rebuilt.num_coeffs == v.num_coeffs
    assert rebuilt.den_coeffs == v.den_coeffs
    assert v.den_coeffs[-1] == 1


# -- field axioms -----------------------------------------------------------


@given(scalars, scalars, scalars)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(scalars)
@settings(max_examples=60, deadline=None)
def test_multiplicative_inverse(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == ONE
        assert a ** 3 * a ** -3 == ONE


@given(scalars, st.integers(min_value=0, max_value=5))
@settings(max_examples=40, deadline=None)
def test_pow_matches_repeated_product(a, e):
    expected = ONE
    for _ in range(e):
        expected = expected * a
    assert a ** e == expected


def test_int_and_fraction_promotion():
    assert 1 + X == X + 1
    assert Fraction(1, 2) * Scalar(4) == Scalar(2)
    assert 3 - Scalar(1) == Scalar(2)
    assert 6 / Scalar(3) == Scalar(2)


def test_evaluate():
    f = (X * X + 1) / (X - 1)
    assert f.evaluate(2) == Scalar(5)
    assert f.evaluate(Fraction(1, 2)) == Scalar(Fraction(-5, 2))
    with pytest.raises(ZeroDivisionError):
        f.evaluate(1)


def test_degree_and_integrality():
    assert (X ** 3 + X).degree() == 3
    assert ZERO.degree() == -1
    with pytest.raises(ValueError):
        (ONE / X).degree()
    assert Scalar.poly([1, -2, 3]).is_integral
    assert not Scalar.poly([1, Fraction(1, 2)]).is_integral


# -- perfect squares --------------------------------------------------------


def test_sqrt_of_rationals():
    assert Scalar(Fraction(25, 4)).sqrt_if_square() == Scalar(Fraction(5, 2))
    assert Scalar(0).sqrt_if_square() == ZERO
    assert Scalar(2).sqrt_if_square() is None
    assert Scalar(-4).sqrt_if_square() is None


def test_sqrt_of_polynomials():
    square = X * X + 4 * X + 4
    assert square.sqrt_if_square() == X + 2
    assert (X * X + 1).sqrt_if_square() is None
    assert (X ** 3).sqrt_if_square() is None
    ratio = square / (9 * ONE)
    assert ratio.sqrt_if_square() == (X + 2) / 3


@given(scalars)
@settings(max_examples=60, deadline=None)
def test_square_roundtrip(v):
    root = (v * v).sqrt_if_square()
    assert root is not None
    assert root * root == v * v


# -- serialization ----------------------------------------------------------


def test_json_forms():
    assert Scalar(15).to_json() == "15"
    assert Scalar(Fraction(28, 3)).to_json() == "28/3"
    assert (1 + 2 * X).to_json() == ["1", "2"]
    assert (ONE / X).to_json() == {"num": ["1"], "den": ["0", "1"]}


@given(scalars)
@settings(max_examples=60, deadline=None)
def test_json_roundtrip_is_exact(v):
    assert Scalar.from_json(v.to_json()) == v


def test_str_forms():
    assert str(Scalar(Fraction(-3, 7))) == "-3/7"
    assert str(1 - X + 2 * X ** 3) == "1 - x + 2*x^3"
    assert str(ONE / (X + 1)) == "(1)/(1 + x)"


# -- quadratic extension ----------------------------------------------------


def test_quad_examples():
    five = Scalar(5)
    root = QuadExt(ZERO, ONE, five)
    assert root * root == QuadExt.embed(5, five)
    assert QuadExt(ONE, ONE, five) * QuadExt(ONE, -ONE, five) == QuadExt.embed(-4, five)
    inv = QuadExt(Scalar(3), ONE, five).inverse()
    assert inv == QuadExt(Scalar(Fraction(3, 4)), Scalar(Fraction(-1, 4)), five)


def test_quad_mismatched_discriminants():
    with pytest.raises(ExtensionMismatchError):
        QuadExt.embed(1, Scalar(5)) + QuadExt.embed(1, Scalar(8))


def test_quad_projection():
    five = Scalar(5)
    assert QuadExt.embed(Scalar(Fraction(2, 3)), five).project() == Scalar(Fraction(2, 3))
    with pytest.raises(IrrationalResidueError):
        QuadExt(ONE, ONE, five).project()


def test_quad_zero_norm_over_square_discriminant():
    # over disc 1 the element 1 + sqrt(1) is a nonzero zero divisor
    elem = QuadExt(ONE, ONE, Scalar(1))
    assert elem.norm() == ZERO
    with pytest.raises(ZeroDivisionError):
        elem.inverse()


def test_quad_polynomial_discriminant():
    d = X * X + 4
    root = QuadExt(ZERO, ONE, d)
    assert (root ** 2).project() == d
    val = QuadExt(X, ONE, d)
    assert val * val == QuadExt(X * X + d, 2 * X, d)


@given(quads, quads, quads)
@settings(max_examples=60, deadline=None)
def test_quad_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(quads, quads)
@settings(max_examples=60, deadline=None)
def test_quad_conjugation_automorphism(a, b):
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a * b).norm() == a.norm() * b.norm()
    assert (a * a.conj()).project() == a.norm()


@given(quads)
@settings(max_examples=60, deadline=None)
def test_quad_inverse(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        # disc 5 is not a square, so nonzero elements are invertible
        one = QuadExt.embed(1, Scalar(5))
        assert a * a.inverse() == one
        assert a ** 4 * a ** -4 == one


def _general_mul(x: QuadExt, y: QuadExt) -> QuadExt:
    a, b, c, d = x.alpha, x.beta, y.alpha, y.beta
    return QuadExt(a * c + x.disc * b * d, a * d + b * c, x.disc)


@given(quads, quads, st.builds(QuadExt, scalars, scalars, st.just(Scalar(5))))
@settings(max_examples=60, deadline=None)
def test_quad_embedded_fast_paths_match_general_formula(x, y, z):
    # products and quotients with a zero sqrt part skip the cross terms
    for u in (x, z):
        e = QuadExt.embed(y.alpha, u.disc)
        for left, right in ((e, u), (u, e), (e, e)):
            product = left * right
            assert product == _general_mul(left, right)
            assert str(product) == str(_general_mul(left, right))
        if not e.is_zero():
            quotient = u / e
            assert quotient == _general_mul(u, e.inverse())
            assert str(quotient) == str(_general_mul(u, e.inverse()))


def test_quad_division_by_embedded_zero_raises():
    with pytest.raises(ZeroDivisionError, match="zero-norm"):
        QuadExt(ONE, ONE, Scalar(5)) / QuadExt.embed(ZERO, Scalar(5))
