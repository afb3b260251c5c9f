"""Independent combinatorial computations used to cross-check the engine.

Everything in this module is first-principles enumeration or direct formula
evaluation: no imports from the sequence or binomial machinery, so agreement
between the two routes is meaningful.  Counts are desk-scale by design.
"""

from __future__ import annotations

from itertools import combinations, product

from .ring import ONE, ZERO, Scalar, ScalarLike


# ---------------------------------------------------------------------------
# q-statistics: three enumerations and one polynomial-ratio route


def partitions_in_box_gf(height: int, width: int) -> list[int]:
    """Coefficient list of sum q^|lambda| over partitions with at most
    `height` parts, each part at most `width`.  Index = partition size."""
    if height < 0 or width < 0:
        raise ValueError("box dimensions must be nonnegative")
    counts = [0] * (height * width + 1)

    def rec(rows_left: int, max_part: int, size: int) -> None:
        counts[size] += 1
        if rows_left == 0:
            return
        for part in range(1, max_part + 1):
            rec(rows_left - 1, part, size + part)

    rec(height, width, 0)
    return counts


def zigzag_area_gf(n: int, k: int) -> list[int]:
    """Coefficient list of sum q^area over lattice paths with k east and
    n-k north steps; area = sum of heights at the east steps."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    counts = [0] * (k * (n - k) + 1)
    for east_positions in combinations(range(n), k):
        area = sum(pos - i for i, pos in enumerate(east_positions))
        counts[area] += 1
    return counts


def inversion_gf(n: int, k: int) -> list[int]:
    """Coefficient list of sum q^inv over 0/1 words with k ones; inv counts
    pairs (1 before 0), one pass per word: each 0 adds the ones seen so far."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    counts = [0] * (k * (n - k) + 1)
    for one_positions in combinations(range(n), k):
        word = [0] * n
        for pos in one_positions:
            word[pos] = 1
        inv = ones = 0
        for bit in word:
            if bit:
                ones += 1
            else:
                inv += ones
        counts[inv] += 1
    return counts


def _int_poly_mul(a: list[int], b: list[int]) -> list[int]:
    # a local product, not the ring's kernel, so the oracle shares no code with it
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def gaussian_binomial(n: int, k: int) -> Scalar:
    """q-binomial as an exact ratio of q-factorial polynomials.

    The prefix [0]_q! .. [n]_q! is built on ints; the monic divisor
    [k]_q! [n-k]_q! is taken out of [n]_q! by integer long division."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    qfact = [[1]]
    for i in range(1, n + 1):
        qfact.append(_int_poly_mul(qfact[-1], [1] * i))
    rem, den = list(qfact[n]), _int_poly_mul(qfact[k], qfact[n - k])
    quo = [0] * (len(rem) - len(den) + 1)
    for shift in range(len(quo) - 1, -1, -1):
        f = quo[shift] = rem[shift + len(den) - 1]
        for i, c in enumerate(den):
            rem[shift + i] -= f * c
    if any(rem):
        raise ArithmeticError("q-factorial ratio failed to divide exactly")
    return Scalar.poly(quo)


def subspace_counts(n: int, q: int) -> list[int]:
    """Numbers of k-dimensional subspaces of F_q^n for k = 0..n, by one
    explicit closure walk; only q in {2, 3} and n <= 4 are supported.

    Vectors are coded as the integers 0..q^n-1, with precomputed addition and
    scalar-multiple tables.  Spans grow one generator at a time, level by
    level, deduplicated by their membership set.  A span is extended only by
    vectors outside the superspaces already built from it: two distinct
    one-larger superspaces meet in the span itself, so each is built once.
    """
    if q not in (2, 3):
        raise ValueError("only prime fields of size 2 and 3 are supported")
    if not 0 <= n <= 4:
        raise ValueError("need 0 <= n <= 4")
    digits = list(product(range(q), repeat=n))
    code = {d: i for i, d in enumerate(digits)}
    add = [[code[tuple((x + y) % q for x, y in zip(dv, dw))] for dw in digits]
           for dv in digits]
    multiples = [[code[tuple(c * x % q for x in d)] for c in range(q)] for d in digits]
    vectors = range(len(digits))

    spans = {frozenset([0])}
    counts = [1]
    for _ in range(n):
        grown = set()
        for space in spans:
            covered = set(space)
            for v in vectors:
                if v not in covered:
                    bigger = frozenset(add[w][m] for w in space for m in multiples[v])
                    covered |= bigger
                    grown.add(bigger)
        spans = grown
        counts.append(len(spans))
    return counts


def subspace_count(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n, read off `subspace_counts`."""
    if q in (2, 3) and not 0 <= k <= n <= 4:
        raise ValueError("need 0 <= k <= n <= 4")
    return subspace_counts(n, q)[k]


# ---------------------------------------------------------------------------
# colored tilings


def _linear_shapes(length: int):
    """Yield tuples of tile sizes (1 = square, 2 = domino) covering a strip."""
    if length == 0:
        yield ()
        return
    for rest in _linear_shapes(length - 1):
        yield (1,) + rest
    if length >= 2:
        for rest in _linear_shapes(length - 2):
            yield (2,) + rest


def colored_tilings(length: int, square_colors: int, domino_colors: int) -> int:
    """Tilings of a 1 x length strip by colored squares and dominoes."""
    if length < 0 or square_colors < 0 or domino_colors < 0:
        raise ValueError("arguments must be nonnegative")
    total = 0
    for shape in _linear_shapes(length):
        ways = 1
        for tile in shape:
            ways *= square_colors if tile == 1 else domino_colors
        total += ways
    return total


def colored_bracelets(length: int, square_colors: int, domino_colors: int) -> int:
    """Tilings of a length-cell circular strip, split by the tile covering
    cell 0: a square there, a domino on cells (0, 1), or a domino straddling
    the seam on cells (length-1, 0)."""
    if length < 1:
        raise ValueError("circular strips need at least one cell")
    if square_colors < 0 or domino_colors < 0:
        raise ValueError("palette sizes must be nonnegative")
    total = square_colors * colored_tilings(length - 1, square_colors, domino_colors)
    if length >= 2:
        rest = colored_tilings(length - 2, square_colors, domino_colors)
        total += domino_colors * rest  # domino on cells 0,1
        total += domino_colors * rest  # domino on cells length-1,0
    return total


# ---------------------------------------------------------------------------
# summation formulas for binomial cells


def _fib_list(n: int) -> list[int]:
    fib = [0, 1]
    while len(fib) <= n:
        fib.append(fib[-1] + fib[-2])
    return fib


def _tuple_product(seq, n: int, k: int, xs: tuple[int, ...], acc):
    """acc times the product over i of seq[k-i]^(x_i - x_{i-1} - 1) *
    seq[n - x_i - (k-i) + 1] along the increasing tuple xs, with x_0 = 0 and
    seq[0]^0 = 1.  Works on int, Fraction and Scalar terms alike."""
    prev = 0
    for i, x in enumerate(xs, start=1):
        gap = x - prev - 1
        if gap:
            base = seq[k - i]
            if not base:
                return base
            acc = acc * base ** gap
        acc = acc * seq[n - x - (k - i) + 1]
        prev = x
    return acc


def md_fibonomial(n: int, k: int) -> int:
    """Fibonomial {n choose k} as a sum over increasing index tuples.

    Sum over 1 <= x_1 < ... < x_k <= n of the product over i of
    F(k-i)^(x_i - x_{i-1} - 1) * F(n - x_i - (k-i) + 1), with x_0 = 0,
    F(0)^0 = 1, and empty products equal to 1.
    """
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    fib = _fib_list(n + 1)
    return sum(_tuple_product(fib, n, k, xs, 1)
               for xs in combinations(range(1, n + 1), k))


def errata_fibonomial(n: int, k: int) -> int:
    """The misprinted variant: the last index ranges freely above x_{k-1}
    and contributes F(n - x_k) instead of the i = k product factor.

    Kept as a negative control; it does not reproduce the fibonomials.
    Needs k >= 2 (the formula requires a nonempty prefix tuple).
    """
    if k < 2:
        raise ValueError("variant formula needs k >= 2")
    if n < k:
        return 0
    fib = _fib_list(n + 1)
    total = 0
    for xs in combinations(range(1, n), k - 1):
        prod_val = _tuple_product(fib, n, k, xs, 1)
        for x_k in range(xs[-1] + 1, n + 1):
            total += prod_val * fib[n - x_k]
    return total


def md_ubinomial(n: int, k: int, s: ScalarLike, t: ScalarLike) -> Scalar:
    """{n choose k} over the fundamental (0, 1, s, t) sequence as a weighted
    sum over increasing index tuples; the tuple's top index contributes the
    weight t^(x_k - k).
    """
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    s, t = Scalar.coerce(s), Scalar.coerce(t)
    zero, one = ZERO, ONE
    if s.is_rational and t.is_rational:
        # rational weights: the sums run on int (or Fraction) and are wrapped once
        s, t = (int(f) if f.denominator == 1 else f
                for f in (s.as_fraction(), t.as_fraction()))
        zero, one = 0, 1
    useq = [zero, one]
    while len(useq) <= n:
        useq.append(s * useq[-1] + t * useq[-2])

    total = zero
    for xs in combinations(range(1, n + 1), k):
        total = total + _tuple_product(useq, n, k, xs,
                                       t ** (xs[-1] - k) if xs else one)
    return Scalar.coerce(total)
