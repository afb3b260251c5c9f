"""The row route of BinomialTable against the factorial ratio, cell by cell."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbinom import sequences
from hbinom.binomials import BinomialTable, ZeroTermError, table_for
from hbinom.recurrences import CoeffFamily, verify_pascal, vweighted_verify
from hbinom.ring import X, Scalar
from hbinom.sequences import HoradamSpec, preset

PRESETS = {
    "u": preset("u", s=3, t=-2),
    "v": preset("v", s=1, t=1),
    "fibonacci": preset("fibonacci"),
    "pell": preset("pell"),
    "lucas_numbers": preset("lucas_numbers"),
    "cigler_qfib": preset("cigler_qfib", t=1),
    "cigler_qlucas": preset("cigler_qlucas", t=1),
}

ints = st.integers(min_value=-6, max_value=6)
fracs = st.fractions(min_value=-4, max_value=4, max_denominator=5)
polys = st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3).map(
    Scalar.poly)


def assert_routes_agree(spec, max_n: int) -> None:
    """Each row equals the factorial-ratio cells, on separate tables, both as
    lifted and as held values; a zero term stops both routes at the same
    index."""
    rows, cells = BinomialTable(spec), BinomialTable(spec)
    for n in range(max_n + 1):
        try:
            row = rows.row(n)
        except ZeroTermError as exc:
            with pytest.raises(ZeroTermError) as info:
                cells.binomial(n, 0)
            assert info.value.index == exc.index
            return
        assert row == tuple(cells.binomial(n, k) for k in range(n + 1)), n
        assert [v.to_json() for v in row] == [cells.binomial(n, k).to_json()
                                             for k in range(n + 1)]
        for k, held in enumerate(rows.own_row(n)):
            ref = cells.own_multinomial((k, n - k))
            assert type(held) is type(ref) and held == ref, (n, k)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_rows_match_factorial_ratio_on_presets(name):
    spec = PRESETS[name]
    assert_routes_agree(spec, 9 if name.startswith("cigler") else 24)


@given(ints, ints, ints, ints)
@settings(max_examples=40, deadline=None)
def test_rows_match_on_integer_specs(a, b, s, t):
    assert_routes_agree(HoradamSpec(a, b, s, t), 14)


@given(fracs, fracs, fracs, fracs)
@settings(max_examples=40, deadline=None)
def test_rows_match_on_rational_specs(a, b, s, t):
    assert_routes_agree(HoradamSpec(a, b, s, t), 12)


@given(ints, ints, polys, st.one_of(fracs.map(Scalar), polys))
@settings(max_examples=25, deadline=None)
def test_rows_match_on_polynomial_specs(a, b, s, t):
    assert_routes_agree(HoradamSpec(a, b, s + X, t), 7)


def test_rows_of_a_callable_sequence():
    assert_routes_agree(lambda n: Scalar(n * n + 1), 12)


def test_zero_term_raises_the_same_index_on_both_routes():
    spec = preset("u", s=1, t=-1)            # 0, 1, 1, 0, -1, -1, 0, ...
    assert BinomialTable(spec).row(2) == (1, 1, 1)
    for route in (lambda tbl: tbl.row(5), lambda tbl: tbl.binomial(5, 2)):
        with pytest.raises(ZeroTermError) as info:
            route(BinomialTable(spec))
        assert info.value.index == 3


@pytest.mark.parametrize("check", [
    lambda spec, max_n: verify_pascal(spec, CoeffFamily.hu_sun(1, 1), max_n).failures,
    lambda spec, max_n: [c for c in vweighted_verify(spec, max_n).cells if not c.ok],
], ids=["hu_sun", "vweighted"])
def test_the_pascal_checks_read_the_held_rows(check, monkeypatch):
    # a fresh memo, so the planted cell stays in this test
    monkeypatch.setattr(sequences, "_contexts", OrderedDict())
    fib = preset("fibonacci")
    tbl = table_for(fib)
    tbl.own_row(8)
    row = list(tbl._rows[6])
    row[2] += 1
    tbl._rows[6] = tuple(row)
    # C(6,2) is the whole side of cell (2, 4) and a part of the cells of row 7
    assert (2, 4) in [(c.r, c.s) for c in check(fib, 8)]


def test_row_index_must_be_nonnegative():
    with pytest.raises(ValueError):
        table_for(preset("fibonacci")).row(-1)
