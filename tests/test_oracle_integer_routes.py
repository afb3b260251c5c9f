"""The integer routes of the suite's oracles against test-local copies of the
Scalar and tuple routes they replaced: one closure walk for every subspace
dimension, q-factorials by integer long division, and md_ubinomial summed on
ints or Fractions for rational weights."""

from fractions import Fraction
from itertools import combinations, product

import pytest

from hbinom.cli import main
from hbinom.oracles import (gaussian_binomial, md_ubinomial, subspace_count,
                            subspace_counts)
from hbinom.ring import ONE, ZERO, Scalar, X


def _subspace_count_by_tuples(n, k, q):
    """The per-k closure on coordinate tuples, rebuilding every lower level."""
    vectors = list(product(range(q), repeat=n))
    spans = {frozenset([(0,) * n])}
    for _ in range(k):
        grown = set()
        for space in spans:
            covered = set(space)
            for v in vectors:
                if v not in covered:
                    bigger = frozenset(tuple((wi + c * vi) % q for wi, vi in zip(w, v))
                                       for w in space for c in range(q))
                    covered |= bigger
                    grown.add(bigger)
        spans = grown
    return len(spans)


def _gaussian_by_scalars(n, k):
    """[n]_q! / ([k]_q! [n-k]_q!) divided as Scalar rational functions."""
    def qfact(m):
        acc = ONE
        for i in range(1, m + 1):
            acc = acc * Scalar.poly([1] * i)
        return acc

    return qfact(n) / (qfact(k) * qfact(n - k))


def _md_ubinomial_by_scalars(n, k, s, t):
    """The weighted tuple sum with every term and product a Scalar."""
    s, t = Scalar.coerce(s), Scalar.coerce(t)
    useq = [ZERO, ONE]
    while len(useq) <= n:
        useq.append(s * useq[-1] + t * useq[-2])
    total = ZERO
    for xs in combinations(range(1, n + 1), k):
        acc = t ** (xs[-1] - k) if xs else ONE
        prev = 0
        for i, x in enumerate(xs, start=1):
            if x - prev - 1:
                acc = acc * useq[k - i] ** (x - prev - 1)
            acc = acc * useq[n - x - (k - i) + 1]
            prev = x
        total = total + acc
    return total


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", range(5))
def test_closure_walk_matches_the_per_k_tuple_closure(n, q):
    counts = subspace_counts(n, q)
    assert counts == [_subspace_count_by_tuples(n, k, q) for k in range(n + 1)]
    assert counts == [subspace_count(n, k, q) for k in range(n + 1)]


def test_integer_q_factorial_ratio_matches_the_scalar_ratio():
    for n in range(13):
        for k in range(n + 1):
            got, want = gaussian_binomial(n, k), _gaussian_by_scalars(n, k)
            assert got.is_polynomial
            assert got == want, (n, k)
            assert got.to_json() == want.to_json(), (n, k)


@pytest.mark.parametrize("s,t", [
    (1, 1), (3, -2), (2, 1), (5, 0),
    (Fraction(3, 7), Fraction(-5, 11)), (Fraction(1, 2), 3),
    (X, 1), (X + 1, Fraction(-2, 3)),
], ids=["fib", "3,-2", "pell", "t0", "3/7,-5/11", "1/2,3", "poly_s", "poly_s_frac_t"])
def test_md_ubinomial_matches_the_scalar_route(s, t):
    for n in range(10):
        for k in range(n + 2):
            got, want = md_ubinomial(n, k, s, t), _md_ubinomial_by_scalars(n, k, s, t)
            assert isinstance(got, Scalar)
            assert got == want, (n, k)
            assert got.to_json() == want.to_json(), (n, k)


@pytest.mark.parametrize("args,message", [
    ((4, 5, 3), "need 0 <= k <= n <= 4"),
    ((4, -1, 3), "need 0 <= k <= n <= 4"),
    ((5, 2, 3), "need 0 <= k <= n <= 4"),
    ((4, 2, 5), "only prime fields of size 2 and 3 are supported"),
    ((5, 2, 5), "only prime fields of size 2 and 3 are supported"),
])
def test_subspace_count_refusals_are_unchanged(args, message, capsys):
    with pytest.raises(ValueError, match=message):
        subspace_count(*args)
    assert main(["oracle", "--which", "subspaces", "--args", *map(str, args)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_subspace_counts_refuses_what_the_walk_does_not_cover():
    with pytest.raises(ValueError, match="only prime fields"):
        subspace_counts(2, 5)
    with pytest.raises(ValueError, match="need 0 <= n <= 4"):
        subspace_counts(5, 2)
