"""Coefficient families and the two-term recurrence on binomial tables."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hbinom
from hbinom.binomials import fbinomial, sequence_fn
from hbinom.recurrences import (CoeffFamily, CoeffPair, ScalarIdentityError,
                                SingularCoefficientError,
                                _assert_scalar_identity, coeffs_alternating,
                                coeffs_binet, family_coeffs, family_sequence,
                                verify_pascal, vweighted_verify)
from hbinom.ring import ONE, X, QuadExt, Scalar
from hbinom.sequences import (HoradamSpec, preset, term, to_binet)

FIB = preset("fibonacci")
LUCAS_V = preset("v", s=1, t=1)
SPLIT = preset("u", s=3, t=-2)  # roots 2 and 1
QLUCAS = preset("cigler_qlucas", t=1)


# -- closed-form pair -------------------------------------------------------


def test_binet_pair_lucas_numbers():
    pair = coeffs_binet(to_binet(LUCAS_V), 1, 1)
    five = Scalar(5)
    half = Fraction(1, 2)
    assert pair.h1 == QuadExt(Scalar(Fraction(3, 2)), Scalar(half), five)
    assert pair.h2 == QuadExt(Scalar(Fraction(3, 2)), Scalar(-half), five)


def test_binet_pair_rational_roots():
    pair = coeffs_binet(to_binet(SPLIT), 1, 1)
    assert pair.h1 == QuadExt.embed(4, Scalar(1))
    assert pair.h2 == QuadExt.embed(-1, Scalar(1))


def test_binet_pair_rejects_zero_terms():
    with pytest.raises(ValueError):
        coeffs_binet(to_binet(FIB), 0, 2)


def test_binet_pair_splits_terms():
    binet = to_binet(FIB)
    d = binet.disc
    for r in range(1, 7):
        for s in range(1, 7):
            pair = coeffs_binet(binet, r, s)
            lhs = (pair.h1 * QuadExt.embed(term(FIB, r), d)
                   + pair.h2 * QuadExt.embed(term(FIB, s), d))
            assert lhs.project() == term(FIB, r + s)


# -- alternating pair -------------------------------------------------------


def test_alternating_pair_is_s_t_at_2_1():
    for spec in (SPLIT, FIB, preset("u", s=5, t=7), QLUCAS):
        pair = coeffs_alternating(to_binet(spec), 2, 1)
        assert pair.h1 == spec.s
        assert pair.h2 == spec.t


def test_alternating_pair_fibonacci_3_1():
    pair = coeffs_alternating(to_binet(FIB), 3, 1)
    assert pair.h1 == Scalar(2)
    assert pair.h2 == Scalar(-1)


def test_alternating_ignores_initial_values():
    other = HoradamSpec(Scalar(5), Scalar(-3), FIB.s, FIB.t)
    for r, s in ((1, 2), (2, 5), (4, 3)):
        ours = coeffs_alternating(to_binet(FIB), r, s)
        theirs = coeffs_alternating(to_binet(other), r, s)
        assert (ours.h1, ours.h2) == (theirs.h1, theirs.h2)


def test_alternating_equal_indices_fall_back_to_closed_form():
    direct = coeffs_binet(to_binet(FIB), 2, 2)
    fallback = coeffs_alternating(to_binet(FIB), 2, 2)
    assert (fallback.h1, fallback.h2) == (direct.h1, direct.h2)


def test_alternating_singular_when_roots_negate():
    # s = 0 makes q = -p, so odd gaps keep the denominator alive but
    # even gaps kill it
    spec = HoradamSpec(Scalar(0), Scalar(1), Scalar(0), Scalar(4))
    with pytest.raises(SingularCoefficientError):
        coeffs_alternating(to_binet(spec), 3, 1)


# -- named families ---------------------------------------------------------


def test_corcino_pairs():
    pair = family_coeffs(CoeffFamily.corcino_a(2, 1), 2, 3)
    assert (pair.h1, pair.h2) == (Scalar(8), Scalar(1))
    pair = family_coeffs(CoeffFamily.corcino_b(2, 1), 2, 3)
    assert (pair.h1, pair.h2) == (Scalar(1), Scalar(4))
    # both split U(5) = 31 over the (3, -2) fundamental sequence
    assert 8 * 3 + 1 * 7 == 31
    assert 1 * 3 + 4 * 7 == 31


def test_gould_pairs():
    pair = family_coeffs(CoeffFamily.gould(FIB), 2, 2)
    assert pair.h1 == ONE
    assert pair.h2 == Scalar(2)  # (F4 - F2)/F2 = (3 - 1)/1
    pair = family_coeffs(CoeffFamily.gould_symmetric(FIB), 2, 2)
    assert pair.h2 == ONE


def test_gould_singular_on_zero_term():
    seq = lambda n: Scalar(n - 3)
    with pytest.raises(SingularCoefficientError):
        family_coeffs(CoeffFamily.gould(seq), 2, 3)


def test_hu_sun_pair():
    pair = family_coeffs(CoeffFamily.hu_sun(1, 1), 3, 2)
    assert (pair.h1, pair.h2) == (Scalar(2), Scalar(1))  # U3 and 1*U2
    pair = family_coeffs(CoeffFamily.hu_sun(3, -2), 2, 2)
    assert (pair.h1, pair.h2) == (Scalar(7), Scalar(-2))  # U3 and t*U1


def test_hu_sun_without_t_factor_fails_off_t_one():
    # literal pair (U(s+1), U(r-1)) at r = s = 2 for (3, -2): h1 = 7, h2 = 1
    u = lambda n: term(SPLIT, n)
    assert u(3) * u(2) + u(1) * u(2) == Scalar(24)  # misses U(4) = 15
    assert u(3) * u(2) + SPLIT.t * u(1) * u(2) == Scalar(15)
    cell_left = fbinomial(SPLIT, 3, 1)
    cell_right = fbinomial(SPLIT, 3, 2)
    assert u(3) * cell_left + u(1) * cell_right == Scalar(56)  # not 35
    assert u(3) * cell_left + SPLIT.t * u(1) * cell_right == fbinomial(SPLIT, 4, 2)


def test_hu_sun_t_one_recovers_classical_pair():
    for r, s in ((1, 1), (2, 3), (4, 2)):
        pair = family_coeffs(CoeffFamily.hu_sun(1, 1), r, s)
        assert pair.h1 == term(FIB, s + 1)
        assert pair.h2 == term(FIB, r - 1)


def test_family_sequence_targets():
    assert family_sequence(CoeffFamily.binet(LUCAS_V)) == LUCAS_V
    assert family_sequence(CoeffFamily.corcino_a(2, 1)) == SPLIT
    assert family_sequence(CoeffFamily.hu_sun(3, -2)) == SPLIT


# -- table verification -----------------------------------------------------


@pytest.mark.parametrize("spec", [FIB, LUCAS_V, QLUCAS],
                         ids=["fibonacci", "lucas_v", "poly_v"])
@pytest.mark.parametrize("maker", [CoeffFamily.binet, CoeffFamily.alternating],
                         ids=["binet", "alternating"])
def test_closed_form_families_verify(spec, maker):
    report = verify_pascal(spec, maker(spec), 10)
    assert report.all_pass
    assert len(report.cells) == sum(n - 1 for n in range(2, 11))


def test_extension_usage_reported():
    assert verify_pascal(FIB, CoeffFamily.binet(FIB), 6).uses_extension
    assert not verify_pascal(SPLIT, CoeffFamily.hu_sun(3, -2), 6).uses_extension


def test_named_families_verify():
    assert verify_pascal(SPLIT, CoeffFamily.corcino_a(2, 1), 12).all_pass
    assert verify_pascal(SPLIT, CoeffFamily.corcino_b(2, 1), 12).all_pass
    assert verify_pascal(FIB, CoeffFamily.hu_sun(1, 1), 12).all_pass
    assert verify_pascal(FIB, CoeffFamily.gould(FIB), 12).all_pass
    assert verify_pascal(LUCAS_V, CoeffFamily.gould_symmetric(LUCAS_V), 12).all_pass


def test_gould_on_arbitrary_nonzero_sequence():
    seq = lambda n: Scalar(n * n + 1)
    assert verify_pascal(seq, CoeffFamily.gould(seq), 10).all_pass


def test_corrupted_pair_fails_both_checks():
    def corrupted(r, s):
        pair = family_coeffs(CoeffFamily.hu_sun(1, 1), r, s)
        return CoeffPair(r, s, pair.h1, pair.h2 + 1)

    report = verify_pascal(FIB, corrupted, 8)
    assert not report.all_pass
    for cell in report.cells:
        assert not cell.scalar_ok
        assert not cell.table_ok


def test_wrong_pair_breaks_scalar_identity():
    # F(2) = 1, but 5*F(1) + 5*F(1) = 10
    with pytest.raises(ScalarIdentityError, match=r"\(1,1\).* = 10, F\(r\+s\) = 1"):
        _assert_scalar_identity(sequence_fn(FIB), CoeffPair(1, 1, Scalar(5), Scalar(5)))


def test_scalar_identity_check_survives_optimize_flag():
    code = ("from hbinom.binomials import sequence_fn\n"
            "from hbinom.recurrences import CoeffPair, ScalarIdentityError, "
            "_assert_scalar_identity\n"
            "from hbinom.ring import Scalar\n"
            "from hbinom.sequences import preset\n"
            "try:\n"
            "    _assert_scalar_identity(sequence_fn(preset('fibonacci')),\n"
            "                            CoeffPair(1, 1, Scalar(5), Scalar(5)))\n"
            "except ScalarIdentityError:\n"
            "    print('rejected')\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(hbinom.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "rejected"


def test_scalar_and_table_checks_agree_cellwise():
    report = verify_pascal(FIB, CoeffFamily.hu_sun(1, 1), 10)
    for cell in report.cells:
        assert cell.scalar_ok and cell.table_ok


# -- companion-weighted recurrence ------------------------------------------


def test_vweighted_cells():
    report = vweighted_verify(FIB, 12)
    assert report.all_pass
    report = vweighted_verify(SPLIT, 12)
    assert report.all_pass
    cell = next(c for c in report.cells if (c.r, c.s) == (2, 1))
    assert cell.lhs == Scalar(14)  # 2 * 7
    assert cell.rhs == Scalar(14)  # 3*3 + 5*1


def test_vweighted_pell_and_polynomial():
    assert vweighted_verify(preset("pell"), 12).all_pass
    assert vweighted_verify(preset("cigler_qfib", t=1), 8).all_pass


def test_vweighted_spot_value():
    # 2 * {4 choose 2}_F = 12 = L2 * {3 choose 1}_F + L2 * {3 choose 2}_F
    report = vweighted_verify(FIB, 4)
    cell = next(c for c in report.cells if (c.r, c.s) == (2, 2))
    assert cell.lhs == Scalar(12)
    assert cell.ok


# -- random-pair property: any scalar-identity pair splits the table --------


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.fractions(min_value=-3, max_value=3, max_denominator=4))
@settings(max_examples=50, deadline=None)
def test_any_scalar_solution_splits_cells(r, s, h1_value):
    # pick h1 freely, solve for h2, and the table identity must follow
    f_r, f_s, f_rs = term(FIB, r), term(FIB, s), term(FIB, r + s)
    h1 = Scalar(h1_value)
    h2 = (f_rs - h1 * f_r) / f_s
    cell = fbinomial(FIB, r + s, r)
    left = fbinomial(FIB, r + s - 1, r - 1)
    right = fbinomial(FIB, r + s - 1, r)
    assert h1 * left + h2 * right == cell
