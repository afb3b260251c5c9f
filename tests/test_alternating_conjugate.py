"""The alternating family's U-ratio route against its full extension route,
cell by cell, on irrational, split, opposite and t = 0 roots."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbinom.recurrences import (SingularCoefficientError, _alternating_by_extension,
                                coeffs_alternating)
from hbinom.ring import IrrationalResidueError, QuadExt, Scalar
from hbinom.sequences import BinetSpec, HoradamSpec, preset, to_binet

# presets with irrational characteristic roots, and how far each is compared
PRESETS = [(preset("fibonacci"), 24), (preset("pell"), 24),
           (preset("lucas_numbers"), 24), (preset("cigler_qfib"), 12),
           (preset("u", s=1, t=-1), 24)]   # p/q a cube root of unity: singular cells
PRESET_IDS = ["fibonacci", "pell", "lucas_numbers", "cigler_qfib", "u_unit_roots"]


def _irrational(spec: HoradamSpec) -> bool:
    d = spec.discriminant()
    return not d.is_zero() and d.sqrt_if_square() is None


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
rational_specs = st.builds(
    lambda a, b, s, t: HoradamSpec(Scalar(a), Scalar(b), Scalar(s), Scalar(t)),
    small_fracs, small_fracs, small_fracs, small_fracs).filter(_irrational)
small_ints = st.integers(-2, 2)
polynomial_specs = st.builds(
    lambda a, b, s0, s1, t: HoradamSpec(Scalar(a), Scalar(b), Scalar.poly([s0, s1]),
                                        Scalar(t)),
    small_ints, small_ints, small_ints, st.integers(1, 2),
    small_ints.filter(bool)).filter(_irrational)


def _outcome(route, binet, r, s):
    try:
        pair = route(binet, r, s)
    except SingularCoefficientError:
        return "singular"
    return pair.h1, pair.h2, pair.h1.to_json(), pair.h2.to_json()


def _check_routes(spec: HoradamSpec, max_n: int) -> None:
    binet = to_binet(spec)
    assert not binet.p.beta.is_zero()
    for total in range(3, max_n + 1):
        for r in range(1, total):
            s = total - r
            if r != s:
                assert (_outcome(coeffs_alternating, binet, r, s)
                        == _outcome(_alternating_by_extension, binet, r, s)), (r, s)


@pytest.mark.parametrize("spec,max_n", PRESETS, ids=PRESET_IDS)
def test_conjugate_route_matches_extension_route_on_presets(spec, max_n):
    _check_routes(spec, max_n)


# rational roots: split, opposite (U(even) = 0) and t = 0 (every r != s singular)
RATIONAL_ROOTS = [preset("u", s=3, t=-2), preset("v", s=3, t=-2), preset("u", s=0, t=1),
                  preset("u", s=2, t=0), HoradamSpec(5, -1, 2, 0)]
RATIONAL_ROOT_IDS = ["u_split", "v_split", "u_opposite", "u_t0", "t0"]


@pytest.mark.parametrize("spec", RATIONAL_ROOTS, ids=RATIONAL_ROOT_IDS)
def test_u_ratio_route_matches_extension_route_on_rational_roots(spec):
    binet = to_binet(spec)
    for total in range(3, 25):
        for r in range(1, total):
            s = total - r
            if r != s:
                outcome = _outcome(coeffs_alternating, binet, r, s)
                assert outcome == _outcome(_alternating_by_extension, binet, r, s), (r, s)
                if spec.t.is_zero():
                    assert outcome == "singular", (r, s)


def test_comparison_reaches_singular_cells():
    binet = to_binet(preset("u", s=1, t=-1))
    for route in (coeffs_alternating, _alternating_by_extension):
        with pytest.raises(SingularCoefficientError):
            route(binet, 4, 1)


@given(rational_specs)
@settings(max_examples=25, deadline=None)
def test_conjugate_route_matches_extension_route_on_rational_specs(spec):
    _check_routes(spec, 16)


@given(polynomial_specs)
@settings(max_examples=8, deadline=None)
def test_conjugate_route_matches_extension_route_on_polynomial_specs(spec):
    _check_routes(spec, 8)


def test_split_roots_keep_the_extension_route():
    binet = to_binet(preset("u", s=3, t=-2))
    assert binet.p.beta.is_zero()
    # roots 2 and 1: h1 = (16 - 2)/(8 - 2), h2 = (16 - 8)/-(8 - 2)
    pair = coeffs_alternating(binet, 3, 1)
    assert (pair.h1, pair.h2) == (Scalar(Fraction(7, 3)), Scalar(Fraction(-4, 3)))


def test_non_conjugate_irrational_roots_keep_the_extension_route():
    # p = (1 + sqrt 5)/2 and q = p + 1 are irrational but not conjugate, so
    # the sqrt parts of the alternating ratios do not cancel
    half, one = Scalar(Fraction(1, 2)), Scalar(1)
    p = QuadExt(half, half, Scalar(5))
    binet = BinetSpec(QuadExt.embed(one, 5), QuadExt.embed(0, 5), p, p + 1)
    with pytest.raises(IrrationalResidueError):
        coeffs_alternating(binet, 2, 1)
