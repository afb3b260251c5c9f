"""Generalized factorials, binomials, and multinomials over a sequence.

For a sequence F the factorial is n!_F = F(n)*F(n-1)*...*F(1) with 0!_F = 1;
F(0) never enters a product.  Binomials and multinomials are factorial ratios
computed in the fraction field, so nothing here assumes integrality; whether
the ratios are integral is a separate scan.

Whole rows come from a second route: the splitting pair (F(n)/F(k), 0) gives
C(n,k) = C(n-1,k-1) * F(n) / F(k), one product and one division by a single
term per cell, with no factorial bigints.  The factorial ratio stays the
reference route: single cells and the Pascal-family checks read it, never the
rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Union

from . import oracles
from .ring import ONE, ZERO, Scalar, ScalarLike
from .sequences import HoradamSpec, context

SequenceLike = Union[HoradamSpec, Callable[[int], ScalarLike]]


class ZeroTermError(ArithmeticError):
    """A factorial ran into a zero sequence term (a zero divisor for ratios)."""

    def __init__(self, index: int):
        super().__init__(f"sequence term at index {index} is zero")
        self.index = index


def sequence_fn(seq: SequenceLike) -> Callable[[int], Scalar]:
    """Normalize a spec or plain callable into an exact term function."""
    if isinstance(seq, HoradamSpec):
        return context(seq).term
    if callable(seq):
        return lambda n: Scalar.coerce(seq(n))
    raise TypeError(f"not a sequence: {seq!r}")


class BinomialTable:
    """Memoized factorials, binomial/multinomial cells and rows for one sequence."""

    def __init__(self, source: SequenceLike):
        self.source = source
        self._fn = sequence_fn(source)
        self._terms: list[Scalar] = [ONE]   # F(1), F(2), ... from index 1
        self._fact = [ONE]
        self._cells: Dict[tuple[int, int], Scalar] = {}
        self._rows: list[tuple[Scalar, ...]] = [(ONE,)]

    def _term(self, i: int) -> Scalar:
        """F(i) for i >= 1; the first zero among F(1..i) raises ZeroTermError."""
        terms = self._terms
        while len(terms) <= i:
            j = len(terms)
            f_j = self._fn(j)
            if f_j.is_zero():
                raise ZeroTermError(j)
            terms.append(f_j)
        return terms[i]

    def factorial(self, n: int) -> Scalar:
        if n < 0:
            raise ValueError("factorial index must be nonnegative")
        fact = self._fact
        while len(fact) <= n:
            fact.append(fact[-1] * self._term(len(fact)))
        return fact[n]

    def row(self, n: int) -> tuple[Scalar, ...]:
        """Cells C(n,0..n), each row built from the one above by
        C(n,k) = C(n-1,k-1) * F(n) / F(k); C(n,k) = C(n,n-k), so each mirrored
        pair is computed once.  Needs F(1..n) nonzero, like factorial(n)."""
        if n < 0:
            raise ValueError("row index must be nonnegative")
        rows = self._rows
        while len(rows) <= n:
            m = len(rows)
            prev = rows[-1]
            f_m = self._term(m)
            terms = self._terms
            rows.append(mirror([ONE] + [prev[k - 1] * f_m / terms[k]
                                        for k in range(1, m // 2 + 1)], m))
        return rows[n]

    def binomial(self, n: int, k: int) -> Scalar:
        if k < 0 or k > n:
            return ZERO
        key = (n, k)
        value = self._cells.get(key)
        if value is None:
            value = self.factorial(n) / (self.factorial(k) * self.factorial(n - k))
            self._cells[key] = value
        return value

    def multinomial(self, parts: Iterable[int]) -> Scalar:
        parts = tuple(parts)
        if any(p < 0 for p in parts):
            return ZERO
        n = sum(parts)
        denom = ONE
        for p in parts:
            denom = denom * self.factorial(p)
        return self.factorial(n) / denom


def mirror(half: list, n: int) -> tuple:
    """Row n from its entries k = 0..n//2, by the symmetry C(n,k) = C(n,n-k)."""
    return tuple(half + half[:(n + 1) // 2][::-1])


def table_for(seq: SequenceLike) -> BinomialTable:
    """Table for a sequence; the table of a spec is shared, held by the
    spec's context."""
    if isinstance(seq, HoradamSpec):
        ctx = context(seq)
        if ctx.table is None:
            ctx.table = BinomialTable(seq)
        return ctx.table
    return BinomialTable(seq)


def ffactorial(seq: SequenceLike, n: int) -> Scalar:
    return table_for(seq).factorial(n)


def fbinomial(seq: SequenceLike, n: int, k: int) -> Scalar:
    return table_for(seq).binomial(n, k)


def fmultinomial(seq: SequenceLike, parts: Iterable[int]) -> Scalar:
    return table_for(seq).multinomial(parts)


@dataclass(frozen=True)
class MultinomialCheck:
    """Two consistency identities tying multinomials to binomial products."""

    n: int
    k: int
    parts: tuple[int, ...]
    product_ok: bool
    chain_ok: bool


def multinomial_product_check(seq: SequenceLike, n: int, k: int,
                              parts: Iterable[int]) -> MultinomialCheck:
    """Check {n choose k}*{n-k choose parts} = {n choose k,parts} and the
    telescoping product of binomials for the full part list."""
    parts = tuple(parts)
    if sum(parts) != n - k:
        raise ValueError(f"parts must sum to n - k = {n - k}, got {sum(parts)}")
    tbl = table_for(seq)
    full = (k,) + parts
    product_ok = tbl.binomial(n, k) * tbl.multinomial(parts) == tbl.multinomial(full)

    chain = ONE
    remaining = n
    for p in full:
        chain = chain * tbl.binomial(remaining, p)
        remaining -= p
    chain_ok = chain == tbl.multinomial(full)
    return MultinomialCheck(n, k, parts, product_ok, chain_ok)


def integrality_scan(seq: SequenceLike, max_n: int) -> list[tuple[int, int, Scalar]]:
    """All (n, k, value) with non-integral binomial value for 0 <= k <= n <= max_n.

    Integral means integer coefficients throughout (a plain integer in the
    rational case).
    """
    tbl = table_for(seq)
    return [(n, k, value) for n in range(max_n + 1)
            for k, value in enumerate(tbl.row(n)) if not value.is_integral]


@dataclass(frozen=True)
class QstarReport:
    """Transfer between a two-root power-sum binomial and the q-binomial."""

    n: int
    k: int
    lhs: Scalar
    rhs: Scalar
    ok: bool


def qstar_transfer(p: ScalarLike, q: ScalarLike, n: int, k: int) -> QstarReport:
    """Check {n choose k} over U(m) = sum p^(m-1-j) q^j equals
    q^(k(n-k)) * Gauss(n, k) evaluated at p/q.  Needs p*q != 0."""
    p = Scalar.coerce(p)
    q = Scalar.coerce(q)
    if p.is_zero() or q.is_zero():
        raise ValueError("transfer needs p*q != 0")

    def power_sum(m: int) -> Scalar:
        acc = ZERO
        for j in range(m):
            acc = acc + p ** (m - 1 - j) * q ** j
        return acc

    lhs = fbinomial(power_sum, n, k)
    gauss = oracles.gaussian_binomial(n, k)
    rhs = q ** (k * (n - k)) * gauss.evaluate(p / q)
    return QstarReport(n, k, lhs, rhs, lhs == rhs)
