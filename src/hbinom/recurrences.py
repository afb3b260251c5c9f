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
from typing import Callable, Dict, NamedTuple, Union

from .binomials import SequenceLike, sequence_fn, table_for
from .ring import ONE, QuadExt, Scalar, ScalarLike
from .sequences import BinetSpec, HoradamSpec, char_roots, preset, term, to_binet

CoeffValue = Union[Scalar, QuadExt]


class SingularCoefficientError(ArithmeticError):
    """A coefficient formula divided by a vanishing sequence expression."""


class ScalarIdentityError(ArithmeticError):
    """A coefficient pair breaks F(r+s) = h1*F(r) + h2*F(s)."""


class FamilyRequirementError(ValueError):
    """A family cannot be built for the given sequence."""


@dataclass(frozen=True)
class CoeffPair:
    """Coefficients (h1, h2) for splitting index r+s into r and s."""

    r: int
    s: int
    h1: CoeffValue
    h2: CoeffValue


def _split_sides(pair: CoeffPair, left: Scalar, right: Scalar, whole: Scalar):
    """h1*left + h2*right and whole, both lifted into the pair's quadratic
    extension when the coefficients live there.  With F(r), F(s), F(r+s)
    these are the two sides of the scalar identity; with the cells, of the
    table identity."""
    if isinstance(pair.h1, QuadExt):
        d = pair.h1.disc
        return (pair.h1 * QuadExt.embed(left, d) + pair.h2 * QuadExt.embed(right, d),
                QuadExt.embed(whole, d))
    return pair.h1 * left + pair.h2 * right, whole


def _assert_scalar_identity(fn: Callable[[int], Scalar], pair: CoeffPair) -> None:
    lhs, rhs = _split_sides(pair, fn(pair.r), fn(pair.s), fn(pair.r + pair.s))
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
    ap, bq = binet.a_p_pow, binet.b_q_pow
    h_r = ap[r] + bq[r]
    h_s = ap[s] + bq[s]
    if h_r.is_zero():
        raise SingularCoefficientError(f"sequence term at index {r} is zero")
    if h_s.is_zero():
        raise SingularCoefficientError(f"sequence term at index {s} is zero")
    h1 = ap[r + s] / h_r
    h2 = bq[r + s] / h_s
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
    p, q = binet.p_pow, binet.q_pow
    p_rs, q_rs = p[r + s], q[r + s]
    denom = p[r] * q[s] - q[r] * p[s]
    if denom.is_zero():
        raise SingularCoefficientError(
            f"alternating denominator vanishes at (r, s) = ({r}, {s})")
    h1 = (p_rs * q[s] - q_rs * p[s]) / denom
    h2 = (p_rs * q[r] - q_rs * p[r]) / (-denom)
    return CoeffPair(r, s, h1.project(), h2.project())


@dataclass(frozen=True)
class CoeffFamily:
    """A named rule (r, s) -> (h1, h2), bundled with the sequence `seq`
    whose scalar identity the rule satisfies.  The closed-form families carry
    the Binet data of `seq`, so a repeated root shows when they are built."""

    tag: str
    seq: SequenceLike
    roots: tuple[Scalar, Scalar] | None = None
    closed_form: BinetSpec | None = None

    @classmethod
    def binet(cls, spec: HoradamSpec) -> "CoeffFamily":
        return cls("binet", spec, closed_form=to_binet(spec))

    @classmethod
    def alternating(cls, spec: HoradamSpec) -> "CoeffFamily":
        return cls("alternating", spec, closed_form=to_binet(spec))

    @classmethod
    def corcino_a(cls, p: ScalarLike, q: ScalarLike) -> "CoeffFamily":
        return cls._corcino("corcino_a", Scalar.coerce(p), Scalar.coerce(q))

    @classmethod
    def corcino_b(cls, p: ScalarLike, q: ScalarLike) -> "CoeffFamily":
        return cls._corcino("corcino_b", Scalar.coerce(p), Scalar.coerce(q))

    @classmethod
    def _corcino(cls, tag: str, p: Scalar, q: Scalar) -> "CoeffFamily":
        # p and q are the roots of z^2 = (p+q)*z - p*q
        return cls(tag, preset("u", s=p + q, t=-(p * q)), (p, q))

    @classmethod
    def gould(cls, seq: SequenceLike) -> "CoeffFamily":
        return cls("gould", seq)

    @classmethod
    def gould_symmetric(cls, seq: SequenceLike) -> "CoeffFamily":
        return cls("gould_symmetric", seq)

    @classmethod
    def hu_sun(cls, s: ScalarLike, t: ScalarLike) -> "CoeffFamily":
        return cls("hu_sun", preset("u", s=s, t=t))


def family_sequence(family: CoeffFamily) -> SequenceLike:
    """The sequence whose scalar identity the family satisfies by construction."""
    return family.seq


def _rational_roots(tag: str, spec: HoradamSpec) -> tuple[Scalar, Scalar]:
    p, q = char_roots(spec)
    if not (p.beta.is_zero() and q.beta.is_zero()):
        raise FamilyRequirementError(
            f"family {tag} needs rational characteristic roots; "
            f"discriminant {spec.discriminant()} is not a perfect square")
    return p.project(), q.project()


def _gould(family: CoeffFamily, r: int, s: int) -> CoeffPair:
    fn = sequence_fn(family.seq)
    a_r, a_s, a_rs = fn(r), fn(s), fn(r + s)
    if a_s.is_zero():
        raise SingularCoefficientError(f"sequence term at index {s} is zero")
    return CoeffPair(r, s, ONE, (a_rs - a_r) / a_s)


def _gould_symmetric(family: CoeffFamily, r: int, s: int) -> CoeffPair:
    fn = sequence_fn(family.seq)
    a_r, a_s, a_rs = fn(r), fn(s), fn(r + s)
    if a_r.is_zero():
        raise SingularCoefficientError(f"sequence term at index {r} is zero")
    return CoeffPair(r, s, (a_rs - a_s) / a_r, ONE)


class _Family(NamedTuple):
    """Registry entry: how a spec gives the family, and the family's rule
    (family, r, s) -> pair."""

    build: Callable[[HoradamSpec], CoeffFamily]
    rule: Callable[[CoeffFamily, int, int], CoeffPair]


# Tag -> the family for a spec and its coefficient rule.  Root-based and
# fundamental-sequence families certify the (0, 1, s, t) table for the spec's
# weights; the others the spec.
_FAMILIES: Dict[str, _Family] = {
    "binet": _Family(CoeffFamily.binet,
                     lambda f, r, s: coeffs_binet(f.closed_form, r, s)),
    "alternating": _Family(CoeffFamily.alternating,
                           lambda f, r, s: coeffs_alternating(f.closed_form, r, s)),
    "corcino_a": _Family(
        lambda spec: CoeffFamily.corcino_a(*_rational_roots("corcino_a", spec)),
        lambda f, r, s: CoeffPair(r, s, f.roots[0] ** s, f.roots[1] ** r)),
    "corcino_b": _Family(
        lambda spec: CoeffFamily.corcino_b(*_rational_roots("corcino_b", spec)),
        lambda f, r, s: CoeffPair(r, s, f.roots[1] ** s, f.roots[0] ** r)),
    "gould": _Family(CoeffFamily.gould, _gould),
    "gould_symmetric": _Family(CoeffFamily.gould_symmetric, _gould_symmetric),
    "hu_sun": _Family(lambda spec: CoeffFamily.hu_sun(spec.s, spec.t),
                      lambda f, r, s: CoeffPair(r, s, term(f.seq, s + 1),
                                                f.seq.t * term(f.seq, r - 1))),
}

FAMILY_TAGS = tuple(_FAMILIES)


def resolve_family(tag: str, spec: HoradamSpec) -> CoeffFamily:
    """The family named `tag` for `spec`; `family.seq` is the table it
    certifies.  Raises FamilyRequirementError when a root-based family meets
    irrational roots, and DegenerateRootsError when a closed-form or root-based
    family meets a repeated root."""
    if tag not in _FAMILIES:
        raise ValueError(f"unknown family tag {tag!r}")
    return _FAMILIES[tag].build(spec)


def family_coeffs(family: CoeffFamily, r: int, s: int) -> CoeffPair:
    """Coefficient pair of a named family at (r, s), with the scalar identity
    for the family's own sequence asserted before returning."""
    if r < 1 or s < 1:
        raise ValueError("split indices must be positive")
    if family.tag not in _FAMILIES:
        raise ValueError(f"unknown family tag {family.tag!r}")
    pair = _FAMILIES[family.tag].rule(family, r, s)
    _assert_scalar_identity(sequence_fn(family.seq), pair)
    return pair


PairRule = Union[CoeffFamily, Callable[[int, int], CoeffPair]]


@dataclass(frozen=True)
class CellCheck:
    """Outcome at one cell.  A failing cell keeps both exact sides of the
    first identity that broke, the scalar one before the table one; a passing
    cell keeps None."""

    r: int
    s: int
    scalar_ok: bool
    table_ok: bool
    lhs: CoeffValue | None = None
    rhs: CoeffValue | None = None

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


def _check_cell(fn: Callable[[int], Scalar] | None, tbl, pair: CoeffPair) -> CellCheck:
    """Table identity at the pair's cell, and the scalar identity over `fn`
    unless `fn` is None because it is already known to hold."""
    r, s = pair.r, pair.s
    scalar_ok, witness = True, (None, None)
    if fn is not None:
        lhs, rhs = _split_sides(pair, fn(r), fn(s), fn(r + s))
        scalar_ok = lhs == rhs
        if not scalar_ok:
            witness = lhs, rhs
    lhs, rhs = _split_sides(pair, tbl.binomial(r + s - 1, r - 1),
                            tbl.binomial(r + s - 1, r), tbl.binomial(r + s, r))
    table_ok = lhs == rhs
    if scalar_ok and not table_ok:
        witness = lhs, rhs
    return CellCheck(r, s, scalar_ok, table_ok, *witness)


def verify_pascal(seq: SequenceLike, rule: PairRule, max_n: int) -> PascalReport:
    """Check scalar and table identities for every cell r, s >= 1 with
    r + s <= max_n.  `rule` is a named family or a bare (r, s) -> pair map."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    fn = sequence_fn(seq)
    if isinstance(rule, CoeffFamily):
        tag = rule.tag
        pairs = lambda r, s: family_coeffs(rule, r, s)
        if seq == rule.seq:
            fn = None  # family_coeffs raises on any break of the scalar identity
    else:
        tag = getattr(rule, "__name__", "custom")
        pairs = rule
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
