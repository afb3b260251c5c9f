"""The per-spec context: one bounded memo of terms, closed form and binomial
table; the root powers A*p^k and B*q^k that the closed form reads from the
terms of H and of its conjugate G, and the closed-form families, checked
against the square-and-multiply route."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbinom import recurrences, sequences
from hbinom.binomials import sequence_fn, table_for
from hbinom.recurrences import (CoeffFamily, CoeffPair, SingularCoefficientError,
                                coeffs_alternating, coeffs_binet, verify_pascal)
from hbinom.ring import NativeExt, QuadExt, Scalar
from hbinom.sequences import (CONTEXT_LIMIT, BinetSpec, HoradamSpec, context, preset,
                              term, to_binet)

# every preset whose characteristic roots are distinct
PRESETS = [preset("fibonacci"), preset("pell"), preset("lucas_numbers"),
           preset("cigler_qfib"), preset("cigler_qlucas", t=-2),
           preset("u", s=3, t=-2), preset("v", s=3, t=-2),
           preset("u", s=1, t=-1),   # roots are sixth roots of unity: zero terms
           preset("u", s=0, t=1),    # roots +1 and -1: vanishing denominators
           # polynomial roots x and 1: the discriminant (x - 1)^2 is a square
           HoradamSpec.from_json({"a": "0", "b": "1", "s": ["1", "1"], "t": ["0", "-1"]}),
           # fractional roots 1/2 and 1/3
           HoradamSpec(Fraction(1, 2), 3, Fraction(5, 6), Fraction(-1, 6))]
PRESET_IDS = ["fibonacci", "pell", "lucas_numbers", "cigler_qfib", "cigler_qlucas",
              "u_split", "v_split", "u_unit_roots", "u_opposite_roots",
              "u_square_disc", "split_fractional"]

small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=2)
rational_specs = st.builds(
    lambda a, b, s, t: HoradamSpec(Scalar(a), Scalar(b), Scalar(s), Scalar(t)),
    small_fracs, small_fracs, small_fracs, small_fracs,
).filter(lambda spec: not spec.discriminant().is_zero())


def _fresh_spec(i: int) -> HoradamSpec:
    return HoradamSpec(Scalar(Fraction(i, 7919)), Scalar(1), Scalar(1), Scalar(1))


# -- the bounded memo -------------------------------------------------------


def test_context_memo_stays_within_its_bound():
    for i in range(2 * CONTEXT_LIMIT + 50):
        spec = _fresh_spec(i)
        term(spec, 6)
        table_for(spec).row(4)
        assert len(sequences._contexts) <= CONTEXT_LIMIT
    assert _fresh_spec(2 * CONTEXT_LIMIT + 49) in sequences._contexts
    assert _fresh_spec(0) not in sequences._contexts


def test_evicted_context_is_rebuilt_with_identical_terms_and_rows():
    spec = HoradamSpec(Scalar(Fraction(2, 3)), Scalar(-1), Scalar(3), Scalar(Fraction(1, 5)))
    terms = [term(spec, n) for n in range(25)]
    rows = [table_for(spec).row(n) for n in range(12)]
    first = context(spec)
    for i in range(CONTEXT_LIMIT + 1):
        term(_fresh_spec(i), 2)
    assert spec not in sequences._contexts
    assert context(spec) is not first
    assert [term(spec, n) for n in range(25)] == terms
    assert [table_for(spec).row(n) for n in range(12)] == rows
    assert [str(v) for v in table_for(spec).row(11)] == [str(v) for v in rows[11]]


def test_recently_used_context_survives_eviction():
    keep = HoradamSpec(Scalar(5), Scalar(7), Scalar(1), Scalar(1))
    kept = context(keep)
    for i in range(3 * CONTEXT_LIMIT):
        term(_fresh_spec(i), 1)
        if i % 100 == 0:
            term(keep, 3)
    assert context(keep) is kept


def test_equal_but_distinct_spec_shares_the_context_with_one_compare(monkeypatch):
    fib = preset("fibonacci")
    ctx = context(fib)
    twin = to_binet(fib).fundamental   # U(1, 1): equal to the preset, another object
    assert twin is not fib and twin == fib
    compares = []
    field_eq = HoradamSpec.__eq__
    monkeypatch.setattr(HoradamSpec, "__eq__",
                        lambda a, b: compares.append(1) or field_eq(a, b))
    assert context(twin) is ctx
    assert context(fib) is ctx
    assert len(compares) == 1
    # a lookup by the twin counts as a use of the shared context
    for i in range(3 * CONTEXT_LIMIT):
        term(_fresh_spec(i), 1)
        if i % 100 == 0:
            context(twin)
    assert context(fib) is ctx
    assert len(sequences._contexts) <= CONTEXT_LIMIT


def test_one_context_serves_terms_table_and_closed_form():
    spec = HoradamSpec(Scalar(3), Scalar(-2), Scalar(1), Scalar(3))
    ctx = context(spec)
    assert sequence_fn(spec) == ctx.term
    assert table_for(spec) is ctx.table
    assert to_binet(spec) is to_binet(HoradamSpec(3, -2, 1, 3))
    assert (CoeffFamily.binet(spec).closed_form
            is CoeffFamily.alternating(spec).closed_form)


def test_spec_hash_is_the_field_hash():
    spec = HoradamSpec(Scalar(Fraction(1, 2)), Scalar(2), Scalar(3), Scalar(4))
    assert hash(spec) == hash((spec.a, spec.b, spec.s, spec.t))
    assert hash(spec) == hash(HoradamSpec(Fraction(1, 2), 2, 3, 4))
    assert spec == HoradamSpec(Fraction(1, 2), 2, 3, 4)


def test_context_term_rejects_negative_index():
    with pytest.raises(ValueError):
        sequence_fn(preset("fibonacci"))(-1)


# -- root powers from terms against square-and-multiply ---------------------


def _check_ladders(spec: HoradamSpec, top: int) -> None:
    """A*p^k = (H(k) + (p - q)*G(k))/2 and B*q^k = (H(k) - (p - q)*G(k))/2
    for k <= top, and 2D*G = a*D*U + (2b - a*s)*V over U(s, t) and V(s, t)."""
    binet = to_binet(spec)
    root, half = binet.p - binet.q, Fraction(1, 2)
    a, b, s, d = spec.a, spec.b, spec.s, spec.discriminant()
    u, v = (sequence_fn(ctx.spec) for ctx in context(spec).companions)
    for k in range(top + 1):
        h, g = term(spec, k), term(binet.conjugate, k)
        assert (h + root * g) * half == binet.A * binet.p ** k
        assert (h - root * g) * half == binet.B * binet.q ** k
        assert 2 * d * g == a * d * u(k) + (2 * b - a * s) * v(k)
    with pytest.raises(ValueError):
        term(binet.conjugate, -1)


@pytest.mark.parametrize("spec", PRESETS, ids=PRESET_IDS)
def test_ladders_match_powers_on_presets(spec):
    _check_ladders(spec, 40)


@given(rational_specs)
@settings(max_examples=30, deadline=None)
def test_ladders_match_powers_on_rational_specs(spec):
    _check_ladders(spec, 40)


# -- closed-form pairs against the square-and-multiply route ----------------


def _reference_binet(binet, r, s) -> CoeffPair:
    h_r = binet.A * binet.p ** r + binet.B * binet.q ** r
    h_s = binet.A * binet.p ** s + binet.B * binet.q ** s
    if h_r.is_zero() or h_s.is_zero():
        raise SingularCoefficientError("zero term")
    return CoeffPair(r, s, binet.A * binet.p ** (r + s) / h_r,
                     binet.B * binet.q ** (r + s) / h_s)


def _reference_alternating(binet, r, s) -> CoeffPair:
    if r == s:
        return _reference_binet(binet, r, s)
    p, q = binet.p, binet.q
    denom = p ** r * q ** s - q ** r * p ** s
    if denom.is_zero():
        raise SingularCoefficientError("vanishing denominator")
    h1 = (p ** (r + s) * q ** s - q ** (r + s) * p ** s) / denom
    h2 = (p ** (r + s) * q ** r - q ** (r + s) * p ** r) / (-denom)
    return CoeffPair(r, s, h1.project(), h2.project())


def _outcome(rule, binet, r, s):
    try:
        pair = rule(binet, r, s)
    except SingularCoefficientError:
        return "singular"
    return pair.h1, pair.h2


def _check_pairs(spec: HoradamSpec, max_n: int) -> None:
    binet = to_binet(spec)
    for total in range(2, max_n + 1):
        for r in range(1, total):
            s = total - r
            assert (_outcome(coeffs_binet, binet, r, s)
                    == _outcome(_reference_binet, binet, r, s)), (r, s)
            assert (_outcome(coeffs_alternating, binet, r, s)
                    == _outcome(_reference_alternating, binet, r, s)), (r, s)


@pytest.mark.parametrize("spec", PRESETS, ids=PRESET_IDS)
def test_closed_form_pairs_match_reference_on_presets(spec):
    # the polynomial presets stop at 12, where the reference route already
    # takes about a second; their ladders are checked to 40 above
    _check_pairs(spec, 20 if spec.s.is_rational else 12)


def test_the_closed_form_holds_no_root_powers():
    binet = to_binet(preset("fibonacci"))
    for name in ("a_p_pow", "b_q_pow", "native_ladders"):
        assert not hasattr(BinetSpec, name) and not hasattr(binet, name)
    assert not hasattr(sequences, "Ladder")
    assert "ladders" not in recurrences._Numbers._fields
    for name in ("of", "__truediv__"):
        assert not hasattr(NativeExt, name)
    assert hasattr(QuadExt, "__pow__") and hasattr(QuadExt, "__truediv__")


def test_reference_comparison_reaches_singular_cells():
    binet = to_binet(preset("u", s=1, t=-1))
    assert _outcome(coeffs_binet, binet, 3, 1) == "singular"
    binet = to_binet(preset("u", s=0, t=1))
    assert _outcome(coeffs_alternating, binet, 3, 1) == "singular"


@given(rational_specs)
@settings(max_examples=6, deadline=None)
def test_closed_form_pairs_match_reference_on_rational_specs(spec):
    _check_pairs(spec, 20)


# -- failure witnesses ------------------------------------------------------


def test_wrong_bare_rule_reports_exact_witness():
    fib = preset("fibonacci")

    def ones(r, s):
        return CoeffPair(r, s, Scalar(1), Scalar(1))

    report = verify_pascal(fib, ones, 5)
    first = report.failures[0]
    # F(2) = 1, but F(1) + F(1) = 2: the scalar identity breaks first
    assert (first.r, first.s) == (1, 1)
    assert not first.scalar_ok
    assert (first.lhs, first.rhs) == (Scalar(2), Scalar(1))
    for cell in report.cells:
        if cell.ok:
            assert cell.lhs is None and cell.rhs is None
        else:
            assert cell.lhs != cell.rhs


def test_table_only_failure_reports_table_sides(monkeypatch):
    fib = preset("fibonacci")
    family = CoeffFamily.hu_sun(1, 1)
    # a family over its own table skips the scalar check, so only the
    # table identity can show the break
    monkeypatch.setattr("hbinom.recurrences.family_coeffs",
                        lambda fam, r, s: CoeffPair(r, s, Scalar(1), Scalar(1)))
    report = verify_pascal(fib, family, 4)
    first = report.failures[0]
    assert first.scalar_ok and not first.table_ok
    # {1 choose 0} + {1 choose 1} = 2, but {2 choose 1} = F(2)/F(1)^2 = 1
    assert (first.r, first.s) == (1, 1)
    assert (first.lhs, first.rhs) == (Scalar(2), Scalar(1))
