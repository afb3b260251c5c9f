"""Two-term recurrences on generalized binomial tables.

If a coefficient pair (h1, h2) satisfies the scalar identity
``F(r+s) = h1*F(r) + h2*F(s)``, the same pair splits a table cell:
``{r+s choose r,s} = h1*{r+s-1 choose r-1,s} + h2*{r+s-1 choose r,s-1}``.
This module builds the classical coefficient families, checks the scalar
identity on construction, and verifies the cell identity over whole tables.
h1 always multiplies F(r) and the (r-1, s) cell; h2 the other pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Union

from .binomials import SequenceLike, sequence_fn, table_for
from .ring import ONE, QuadExt, Scalar, ScalarLike
from .sequences import BinetSpec, HoradamSpec, preset, term, to_binet

CoeffValue = Union[Scalar, QuadExt]


class SingularCoefficientError(ArithmeticError):
    """A coefficient formula divided by a vanishing sequence expression."""


class ScalarIdentityError(ArithmeticError):
    """A coefficient pair breaks F(r+s) = h1*F(r) + h2*F(s)."""


@dataclass(frozen=True)
class CoeffPair:
    """Coefficients (h1, h2) for splitting index r+s into r and s."""

    r: int
    s: int
    h1: CoeffValue
    h2: CoeffValue


_binets: Dict[HoradamSpec, BinetSpec] = {}


def _binet_for(spec: HoradamSpec) -> BinetSpec:
    cached = _binets.get(spec)
    if cached is None:
        cached = _binets[spec] = to_binet(spec)
    return cached


def _assert_scalar_identity(fn: Callable[[int], Scalar], pair: CoeffPair) -> None:
    f_r, f_s, f_rs = fn(pair.r), fn(pair.s), fn(pair.r + pair.s)
    if isinstance(pair.h1, QuadExt):
        d = pair.h1.disc
        lhs = pair.h1 * QuadExt.embed(f_r, d) + pair.h2 * QuadExt.embed(f_s, d)
        rhs = QuadExt.embed(f_rs, d)
    else:
        lhs = pair.h1 * f_r + pair.h2 * f_s
        rhs = f_rs
    if lhs != rhs:
        raise ScalarIdentityError(
            f"scalar identity broken at ({pair.r},{pair.s}): "
            f"h1*F(r) + h2*F(s) = {lhs}, F(r+s) = {rhs}")


def coeffs_binet(binet: BinetSpec, r: int, s: int) -> CoeffPair:
    """Formal closed-form pair h1 = A*p^(r+s)/H(r), h2 = B*q^(r+s)/H(s).

    The values live in the quadratic extension; they are exact but generally
    not base-field.  Requires H(r) != 0 and H(s) != 0.
    """
    if r < 1 or s < 1:
        raise ValueError("split indices must be positive")
    h_r = binet.A * binet.p ** r + binet.B * binet.q ** r
    h_s = binet.A * binet.p ** s + binet.B * binet.q ** s
    if h_r.is_zero():
        raise SingularCoefficientError(f"sequence term at index {r} is zero")
    if h_s.is_zero():
        raise SingularCoefficientError(f"sequence term at index {s} is zero")
    h1 = binet.A * binet.p ** (r + s) / h_r
    h2 = binet.B * binet.q ** (r + s) / h_s
    return CoeffPair(r, s, h1, h2)


def coeffs_alternating(binet: BinetSpec, r: int, s: int) -> CoeffPair:
    """Base-field pair from alternating root-power ratios.

    h1 = (p^(r+s) q^s - q^(r+s) p^s) / (p^r q^s - q^r p^s) and h2 the mirror
    ratio; both are symmetric in p, q, so the sqrt parts cancel and the
    projected values depend only on s and t, not on the initial values.
    For r = s the denominators vanish and the formal closed-form pair is
    returned instead.
    """
    if r < 1 or s < 1:
        raise ValueError("split indices must be positive")
    if r == s:
        return coeffs_binet(binet, r, s)
    p, q = binet.p, binet.q
    p_rs = p ** (r + s)
    q_rs = q ** (r + s)
    denom = p ** r * q ** s - q ** r * p ** s
    if denom.is_zero():
        raise SingularCoefficientError(
            f"alternating denominator vanishes at (r, s) = ({r}, {s})")
    h1 = (p_rs * q ** s - q_rs * p ** s) / denom
    h2 = (p_rs * q ** r - q_rs * p ** r) / (-denom)
    return CoeffPair(r, s, h1.project(), h2.project())


@dataclass(frozen=True)
class CoeffFamily:
    """A named rule (r, s) -> (h1, h2), bundled with the sequence whose
    scalar identity the rule satisfies."""

    tag: str
    spec: HoradamSpec | None = None
    roots: tuple[Scalar, Scalar] | None = None
    seq: SequenceLike | None = None

    @classmethod
    def binet(cls, spec: HoradamSpec) -> "CoeffFamily":
        return cls("binet", spec=spec)

    @classmethod
    def alternating(cls, spec: HoradamSpec) -> "CoeffFamily":
        return cls("alternating", spec=spec)

    @classmethod
    def corcino_a(cls, p: ScalarLike, q: ScalarLike) -> "CoeffFamily":
        return cls("corcino_a", roots=(Scalar.coerce(p), Scalar.coerce(q)))

    @classmethod
    def corcino_b(cls, p: ScalarLike, q: ScalarLike) -> "CoeffFamily":
        return cls("corcino_b", roots=(Scalar.coerce(p), Scalar.coerce(q)))

    @classmethod
    def gould(cls, seq: SequenceLike) -> "CoeffFamily":
        return cls("gould", seq=seq)

    @classmethod
    def gould_symmetric(cls, seq: SequenceLike) -> "CoeffFamily":
        return cls("gould_symmetric", seq=seq)

    @classmethod
    def hu_sun(cls, s: ScalarLike, t: ScalarLike) -> "CoeffFamily":
        return cls("hu_sun", spec=preset("u", s=s, t=t))


FAMILY_TAGS = ("binet", "alternating", "corcino_a", "corcino_b",
               "gould", "gould_symmetric", "hu_sun")


def family_sequence(family: CoeffFamily) -> SequenceLike:
    """The sequence whose scalar identity the family satisfies by construction."""
    if family.tag in ("binet", "alternating", "hu_sun"):
        return family.spec
    if family.tag in ("corcino_a", "corcino_b"):
        p, q = family.roots
        return preset("u", s=p + q, t=-(p * q))
    if family.tag in ("gould", "gould_symmetric"):
        return family.seq
    raise ValueError(f"unknown family tag {family.tag!r}")


def family_coeffs(family: CoeffFamily, r: int, s: int) -> CoeffPair:
    """Coefficient pair of a named family at (r, s), with the scalar identity
    for the family's own sequence asserted before returning."""
    if r < 1 or s < 1:
        raise ValueError("split indices must be positive")
    tag = family.tag
    if tag == "binet":
        pair = coeffs_binet(_binet_for(family.spec), r, s)
    elif tag == "alternating":
        pair = coeffs_alternating(_binet_for(family.spec), r, s)
    elif tag in ("corcino_a", "corcino_b"):
        p, q = family.roots
        if tag == "corcino_a":
            pair = CoeffPair(r, s, p ** s, q ** r)
        else:
            pair = CoeffPair(r, s, q ** s, p ** r)
    elif tag in ("gould", "gould_symmetric"):
        fn = sequence_fn(family.seq)
        a_r, a_s, a_rs = fn(r), fn(s), fn(r + s)
        if tag == "gould":
            if a_s.is_zero():
                raise SingularCoefficientError(f"sequence term at index {s} is zero")
            pair = CoeffPair(r, s, ONE, (a_rs - a_r) / a_s)
        else:
            if a_r.is_zero():
                raise SingularCoefficientError(f"sequence term at index {r} is zero")
            pair = CoeffPair(r, s, (a_rs - a_s) / a_r, ONE)
    elif tag == "hu_sun":
        u = family.spec
        pair = CoeffPair(r, s, term(u, s + 1), u.t * term(u, r - 1))
    else:
        raise ValueError(f"unknown family tag {tag!r}")
    _assert_scalar_identity(sequence_fn(family_sequence(family)), pair)
    return pair


PairRule = Union[CoeffFamily, Callable[[int, int], CoeffPair]]


@dataclass(frozen=True)
class CellCheck:
    r: int
    s: int
    scalar_ok: bool
    table_ok: bool

    @property
    def ok(self) -> bool:
        return self.scalar_ok and self.table_ok


@dataclass
class PascalReport:
    """Cell-by-cell verification of the two-term recurrence on one table."""

    family: str
    max_n: int
    cells: list[CellCheck] = field(default_factory=list)
    uses_extension: bool = False

    @property
    def all_pass(self) -> bool:
        return all(c.ok for c in self.cells)

    @property
    def failures(self) -> list[CellCheck]:
        return [c for c in self.cells if not c.ok]


def _check_cell(fn: Callable[[int], Scalar], tbl, pair: CoeffPair) -> CellCheck:
    r, s = pair.r, pair.s
    f_r, f_s, f_rs = fn(r), fn(s), fn(r + s)
    cell = tbl.binomial(r + s, r)
    left = tbl.binomial(r + s - 1, r - 1)
    right = tbl.binomial(r + s - 1, r)
    if isinstance(pair.h1, QuadExt):
        d = pair.h1.disc
        scalar_ok = (pair.h1 * QuadExt.embed(f_r, d) + pair.h2 * QuadExt.embed(f_s, d)
                     == QuadExt.embed(f_rs, d))
        combined = pair.h1 * QuadExt.embed(left, d) + pair.h2 * QuadExt.embed(right, d)
        table_ok = combined.project() == cell
    else:
        scalar_ok = pair.h1 * f_r + pair.h2 * f_s == f_rs
        table_ok = pair.h1 * left + pair.h2 * right == cell
    return CellCheck(r, s, scalar_ok, table_ok)


def verify_pascal(seq: SequenceLike, rule: PairRule, max_n: int) -> PascalReport:
    """Check scalar and table identities for every cell r, s >= 1 with
    r + s <= max_n.  `rule` is a named family or a bare (r, s) -> pair map."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    if isinstance(rule, CoeffFamily):
        tag = rule.tag
        pairs = lambda r, s: family_coeffs(rule, r, s)
    else:
        tag = getattr(rule, "__name__", "custom")
        pairs = rule
    fn = sequence_fn(seq)
    tbl = table_for(seq)
    report = PascalReport(tag, max_n)
    for total in range(2, max_n + 1):
        for r in range(1, total):
            pair = pairs(r, total - r)
            if isinstance(pair.h1, QuadExt) and not (
                    pair.h1.beta.is_zero() and pair.h2.beta.is_zero()):
                report.uses_extension = True
            report.cells.append(_check_cell(fn, tbl, pair))
    return report


@dataclass(frozen=True)
class VWeightedCell:
    r: int
    s: int
    ok: bool
    lhs: Scalar
    rhs: Scalar


@dataclass
class VWeightedReport:
    """Verification of 2*{r+s choose r} = V(s)*{r+s-1 choose r-1} +
    V(r)*{r+s-1 choose r} on the fundamental-sequence table."""

    s: Scalar
    t: Scalar
    max_n: int
    cells: list[VWeightedCell] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c.ok for c in self.cells)


def vweighted_verify(spec: HoradamSpec, max_n: int) -> VWeightedReport:
    """Check the companion-weighted recurrence for the (s, t) drawn from `spec`."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    u_spec = preset("u", s=spec.s, t=spec.t)
    v_spec = preset("v", s=spec.s, t=spec.t)
    tbl = table_for(u_spec)
    report = VWeightedReport(spec.s, spec.t, max_n)
    for total in range(2, max_n + 1):
        for r in range(1, total):
            s = total - r
            lhs = 2 * tbl.binomial(total, r)
            rhs = (term(v_spec, s) * tbl.binomial(total - 1, r - 1)
                   + term(v_spec, r) * tbl.binomial(total - 1, r))
            report.cells.append(VWeightedCell(r, s, lhs == rhs, lhs, rhs))
    return report
