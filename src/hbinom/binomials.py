"""Generalized factorials, binomials, and multinomials over a sequence.

For a sequence F the factorial is n!_F = F(n)*F(n-1)*...*F(1) with 0!_F = 1;
F(0) never enters a product.  Binomials and multinomials are factorial ratios
computed in the fraction field, so nothing here assumes integrality; whether
the ratios are integral is a separate scan.

Whole rows come from a second route: the splitting pair (F(n)/F(k), 0) gives
C(n,k) = C(n-1,k-1) * F(n) / F(k), one product and one division by a single
term per cell, with no factorial bigints.  The held rows are the one store of
table cells: the triangle and the Pascal-family checks read them.  The
factorial ratio is not memoized; it stays as the reference route, read by
single cells (`binomial`) and multinomials, which the oracle checks compare
with brute force.

A table holds its terms, factorials and rows once, in the number type of its
spec's context: `int`/`Fraction` values for a spec whose entries are all
rational, `Scalar` values for any other spec and for a plain callable.  The
readers `factorial`, `binomial`, `row` and `multinomial` give `Scalar` values
either way; the Pascal-family checks and the triangle read the held values
(`own_row`, `own_multinomial`).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable

from . import oracles
from .ring import ONE, ZERO, Frozen, Scalar, ScalarLike, lift, ndiv
from .sequences import HoradamSpec, context, preset

SequenceLike = HoradamSpec | Callable[[int], ScalarLike]


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
    """Memoized factorials and binomial rows for one sequence, in the
    sequence's own number type; the `own_` readers give the held values.
    A spec's terms are read from its context, a plain callable's are
    memoized here."""

    def __init__(self, source: SequenceLike):
        self.source = source
        if isinstance(source, HoradamSpec):
            ctx = context(source)
            self._fn, self._own = ctx.own_term, ctx.own
        else:
            self._fn, self._own = functools.cache(sequence_fn(source)), Scalar.coerce
        self._nonzero = 0   # F(1..nonzero) are known to be nonzero
        one = self._own(ONE)
        self._fact = [one]
        self._rows = [(one,)]

    def _term(self, i: int):
        """F(i) for i >= 1; the first zero among F(1..i) raises ZeroTermError."""
        while self._nonzero < i:
            j = self._nonzero + 1
            if not self._fn(j):
                raise ZeroTermError(j)
            self._nonzero = j
        return self._fn(i)

    def own_factorial(self, n: int):
        if n < 0:
            raise ValueError("factorial index must be nonnegative")
        fact = self._fact
        while len(fact) <= n:
            fact.append(self._own(fact[-1] * self._term(len(fact))))
        return fact[n]

    def factorial(self, n: int) -> Scalar:
        return lift(self.own_factorial(n))

    def own_row(self, n: int) -> tuple:
        """Cells C(n,0..n), each row built from the one above by
        C(n,k) = C(n-1,k-1) * F(n) / F(k); C(n,k) = C(n,n-k), so each mirrored
        pair is computed once.  Needs F(1..n) nonzero, like factorial(n)."""
        if n < 0:
            raise ValueError("row index must be nonnegative")
        rows = self._rows
        while len(rows) <= n:
            m = len(rows)
            prev = rows[-1]
            f_m, fn = self._term(m), self._fn
            # C(m,0) = C(m-1,0) = 1
            rows.append(mirror([prev[0]] + [ndiv(prev[k - 1] * f_m, fn(k))
                                            for k in range(1, m // 2 + 1)], m))
        return rows[n]

    def row(self, n: int) -> tuple[Scalar, ...]:
        return tuple(map(lift, self.own_row(n)))

    def binomial(self, n: int, k: int) -> Scalar:
        """C(n,k) by the factorial ratio; 0 for k < 0 or k > n."""
        return self.multinomial((k, n - k))

    def own_multinomial(self, parts: Iterable[int]):
        """(p1 + p2 + ...)! / (p1! p2! ...) by the factorial ratio; 0 when a
        part is negative."""
        parts = tuple(parts)
        if any(p < 0 for p in parts):
            return self._own(ZERO)
        fact = self.own_factorial
        return ndiv(fact(sum(parts)), math.prod(fact(p) for p in parts))

    def multinomial(self, parts: Iterable[int]) -> Scalar:
        return lift(self.own_multinomial(parts))


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


class MultinomialCheck(Frozen):
    """Two consistency identities tying multinomials to binomial products."""

    __slots__ = ("n", "k", "parts", "product_ok", "chain_ok")


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


class QstarReport(Frozen):
    """Transfer between a two-root power-sum binomial and the q-binomial."""

    __slots__ = ("n", "k", "lhs", "rhs", "ok")


def qstar_transfer(p: ScalarLike, q: ScalarLike, n: int, k: int) -> QstarReport:
    """Check {n choose k} over U(m) = sum p^(m-1-j) q^j, the fundamental
    sequence U(p+q, -pq), equals q^(k(n-k)) * Gauss(n, k) evaluated at p/q.
    Needs p*q != 0."""
    p = Scalar.coerce(p)
    q = Scalar.coerce(q)
    if p.is_zero() or q.is_zero():
        raise ValueError("transfer needs p*q != 0")
    lhs = fbinomial(preset("u", s=p + q, t=-(p * q)), n, k)
    gauss = oracles.gaussian_binomial(n, k)
    rhs = q ** (k * (n - k)) * gauss.evaluate(p / q)
    return QstarReport(n, k, lhs, rhs, lhs == rhs)
