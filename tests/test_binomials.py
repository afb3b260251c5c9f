"""Generalized factorials, binomials, multinomials, and the q-transfer."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbinom.binomials import (ZeroTermError, fbinomial, ffactorial,
                              fmultinomial, integrality_scan,
                              multinomial_product_check, qstar_transfer,
                              table_for)
from hbinom.cli import _cell_json
from hbinom.oracles import gaussian_binomial
from hbinom.ring import ONE, X, ZERO, Scalar, lift
from hbinom.sequences import _PRESET_NAMES, HoradamSpec, preset, term

FIB = preset("fibonacci")
PELL = preset("pell")
LUCAS_V = preset("v", s=1, t=1)
SPLIT = preset("u", s=3, t=-2)


def test_factorials():
    assert ffactorial(FIB, 0) == ONE
    assert ffactorial(FIB, 5).as_int() == 30
    assert ffactorial(LUCAS_V, 4).as_int() == 84  # 1 * 3 * 4 * 7
    assert ffactorial(SPLIT, 4).as_int() == 315


def test_factorial_skips_index_zero():
    # a sequence with a zero head is fine; zeros at 1+ are zero divisors
    assert ffactorial(FIB, 1) == ONE
    with pytest.raises(ZeroTermError) as info:
        ffactorial(lambda n: Scalar(n - 2), 5)
    assert info.value.index == 2


def test_binomials():
    assert fbinomial(FIB, 5, 3).as_int() == 15
    assert fbinomial(FIB, 6, 3).as_int() == 60
    assert fbinomial(SPLIT, 5, 2).as_int() == 155
    assert fbinomial(LUCAS_V, 4, 2) == Scalar(Fraction(28, 3))
    assert fbinomial(FIB, 7, 0) == ONE
    assert fbinomial(FIB, 7, 7) == ONE


def test_binomial_out_of_range_is_zero():
    assert fbinomial(FIB, 4, 5) == ZERO
    assert fbinomial(FIB, 4, -1) == ZERO


def test_polynomial_binomials():
    qfib = preset("cigler_qfib", t=1)
    # 4!/(2! 2!) over terms 1, x, x^2+1, x^3+2x
    cell = fbinomial(qfib, 4, 2)
    assert cell == X ** 4 + 3 * X * X + 2
    assert cell.is_integral


def test_multinomials():
    assert fmultinomial(FIB, (2, 1, 1)).as_int() == 6
    assert fmultinomial(FIB, (5,)) == ONE
    assert fmultinomial(FIB, ()) == ONE
    assert fmultinomial(FIB, (3, -1, 2)) == ZERO


@pytest.mark.parametrize("name", _PRESET_NAMES)
def test_own_multinomial_is_the_lifted_factorial_ratio(name):
    """The held multinomial, in the spec's own number type, lifts to the
    ratio of the lifted factorials and renders as that Scalar's `to_json`."""
    spec = preset(name, s=3, t=-2) if name in ("u", "v") else preset(name)
    tbl = table_for(spec)
    for parts in [(), (5,), (2, 1, 1), (0, 3, 2), (4, 0, 1, 2), (3, -1, 2), (-2,)]:
        own = tbl.own_multinomial(parts)
        assert type(own) in ((int, Fraction) if spec.is_rational else (Scalar,))
        if any(p < 0 for p in parts):
            expected = ZERO
        else:
            expected = tbl.factorial(sum(parts)) / math.prod(map(tbl.factorial, parts),
                                                             start=ONE)
        assert lift(own) == expected == tbl.multinomial(parts)
        assert _cell_json(own) == expected.to_json()


def test_binomial_is_two_part_multinomial():
    for n in range(9):
        for k in range(n + 1):
            assert fbinomial(FIB, n, k) == fmultinomial(FIB, (k, n - k))


def test_symmetry():
    for seq in (FIB, PELL, LUCAS_V, SPLIT):
        for n in range(12):
            for k in range(n + 1):
                assert fbinomial(seq, n, k) == fbinomial(seq, n, n - k)


def test_multinomial_product_checks():
    check = multinomial_product_check(FIB, 5, 2, (2, 1))
    assert check.product_ok and check.chain_ok
    check = multinomial_product_check(PELL, 4, 2, (1, 1))
    assert check.product_ok and check.chain_ok
    check = multinomial_product_check(FIB, 3, 3, ())
    assert check.product_ok and check.chain_ok
    with pytest.raises(ValueError):
        multinomial_product_check(FIB, 5, 2, (1, 1))


@given(st.integers(min_value=0, max_value=10), st.data())
@settings(max_examples=40, deadline=None)
def test_multinomial_identities_random_parts(n, data):
    parts = []
    left = n
    while left > 0:
        p = data.draw(st.integers(min_value=1, max_value=left))
        parts.append(p)
        left -= p
    k = parts[0] if parts else 0
    check = multinomial_product_check(FIB, n, k, tuple(parts[1:]))
    assert check.product_ok and check.chain_ok


def test_pascal_cells_frozen():
    tbl = table_for(SPLIT)
    assert tbl.binomial(4, 1).as_int() == 15
    assert tbl.binomial(4, 2).as_int() == 35
    assert tbl.factorial(5).as_int() == 9765


def test_integrality_scans():
    assert integrality_scan(FIB, 12) == []
    assert integrality_scan(PELL, 12) == []
    violations = integrality_scan(LUCAS_V, 4)
    assert violations == [(4, 2, Scalar(Fraction(28, 3)))]


def test_integrality_scan_polynomial():
    assert integrality_scan(preset("cigler_qfib", t=1), 8) == []


def test_qstar_transfer():
    report = qstar_transfer(2, 1, 4, 2)
    assert report.ok and report.lhs.as_int() == 35
    report = qstar_transfer(1, 2, 4, 2)
    assert report.ok and report.lhs.as_int() == 35
    report = qstar_transfer(1, 1, 6, 3)
    assert report.ok and report.lhs.as_int() == 20
    for p, q in ((3, 2), (Fraction(1, 2), 3)):
        for n in range(7):
            for k in range(n + 1):
                assert qstar_transfer(p, q, n, k).ok


def _power_sum(p, q):
    """U(m) = m_{p,q} = sum p^(m-1-j) q^j, written out."""
    p, q = Scalar(Fraction(p)), Scalar(Fraction(q))
    return lambda m: sum((p ** (m - 1 - j) * q ** j for j in range(m)), ZERO)


@pytest.mark.parametrize("p,q", [(2, 1), (1, 2), (3, 2), (1, 1)])
def test_fundamental_sequence_is_the_power_sum(p, q):
    u_spec = preset("u", s=p + q, t=-p * q)
    power_sum = _power_sum(p, q)
    for m in range(13):
        assert term(u_spec, m) == power_sum(m)
    for n in range(7):
        for k in range(n + 1):
            assert qstar_transfer(p, q, n, k).lhs == fbinomial(power_sum, n, k)


def test_qstar_transfer_rejects_zero_root():
    with pytest.raises(ValueError):
        qstar_transfer(0, 1, 4, 2)
    with pytest.raises(ValueError):
        qstar_transfer(2, 0, 4, 2)


def test_gaussian_specialization():
    # the fundamental sequence with roots (q0, 1) yields q-binomial values
    for q0 in (2, 3, Fraction(1, 2)):
        u_spec = preset("u", s=1 + Fraction(q0), t=-Fraction(q0))
        for n in range(9):
            for k in range(n + 1):
                expected = gaussian_binomial(n, k).evaluate(Scalar(Fraction(q0)))
                assert fbinomial(u_spec, n, k) == expected


def test_factorial_ratio_consistency():
    tbl = table_for(FIB)
    for n in range(1, 15):
        assert tbl.factorial(n) == tbl.factorial(n - 1) * term(FIB, n)
