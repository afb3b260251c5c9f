"""Two-term recurrences on generalized binomial tables.

If a coefficient pair (h1, h2) satisfies the scalar identity
``F(r+s) = h1*F(r) + h2*F(s)``, the same pair splits a table cell:
``{r+s choose r,s} = h1*{r+s-1 choose r-1,s} + h2*{r+s-1 choose r,s-1}``.
This module builds the classical coefficient families, checks the scalar
identity on construction, and verifies the cell identity over whole tables.
h1 always multiplies F(r) and the (r-1, s) cell; h2 the other pair.
`verify_family` runs any check of VERIFY_FAMILIES, a family's or the
companion-weighted one (`vweighted_verify`), into a `PascalReport` of cells.

Each family's rule is written once, over + - * ** and truth tests, with
rational divisions through `ring.ndiv` (`int / int` would give a float; no
rule divides an extension value).  The checks read the terms and the rows of
cells that the spec's context holds, in the spec's own number type: a table
whose spec has rational entries is checked on `int`/`Fraction` terms and
cells, and on `NativeExt` pairs built from terms for the closed-form
families.  Any other table runs the same rules on `Scalar` and `QuadExt`.
Values leave the module as `Scalar` and `QuadExt` on both routes: the pairs
of `family_coeffs`, `coeffs_binet` and `coeffs_alternating`, and the sides in
cell records and error messages.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from functools import cached_property

from .binomials import SequenceLike, sequence_fn, table_for
from .ring import ONE, Frozen, NativeExt, QuadExt, Scalar, ScalarLike, lift, native, ndiv
from .sequences import BinetSpec, HoradamSpec, char_roots, context, preset, to_binet


class SingularCoefficientError(ArithmeticError):
    """A coefficient formula divided by a vanishing sequence expression."""


class ScalarIdentityError(ArithmeticError):
    """A coefficient pair breaks F(r+s) = h1*F(r) + h2*F(s)."""


class FamilyRequirementError(ValueError):
    """A family cannot be built for the given sequence."""


class _Numbers(namedtuple("_Numbers", "value one terms ext")):
    """A number type the rules run on: how a Scalar reads in it, its one,
    how it reads a sequence's terms, and its extension value
    (a + b*sqrt(disc))/den from a, b, den and disc of the type."""

    __slots__ = ()


SCALAR = _Numbers(lambda x: x, ONE, sequence_fn,
                  lambda a, b, den, disc: QuadExt(a / den, b / den, disc))
NATIVE = _Numbers(native, 1, lambda spec: context(spec).own_term, NativeExt.over)


def _numbers(seq: SequenceLike) -> _Numbers:
    """NATIVE for a spec whose context holds native values (its entries are
    all rational), SCALAR otherwise: the type of the table's cells."""
    return NATIVE if isinstance(seq, HoradamSpec) and context(seq).own is native else SCALAR


class CoeffPair(Frozen):
    """Coefficients (h1, h2) for splitting index r+s into r and s."""

    __slots__ = ("r", "s", "h1", "h2")


def _split_sides(pair: CoeffPair, left, right, whole):
    """h1*left + h2*right and whole, both lifted into the pair's quadratic
    extension when the coefficients live there.  With F(r), F(s), F(r+s)
    these are the two sides of the scalar identity; with the cells, of the
    table identity."""
    h1 = pair.h1
    if isinstance(h1, (QuadExt, NativeExt)):
        embed, d = type(h1).embed, h1.disc
        return h1 * embed(left, d) + pair.h2 * embed(right, d), embed(whole, d)
    return h1 * left + pair.h2 * right, whole


def _assert_scalar_identity(fn: Callable[[int], object], pair: CoeffPair) -> None:
    lhs, rhs = _split_sides(pair, fn(pair.r), fn(pair.s), fn(pair.r + pair.s))
    if lhs != rhs:
        raise ScalarIdentityError(
            f"scalar identity broken at ({pair.r},{pair.s}): "
            f"h1*F(r) + h2*F(s) = {lift(lhs)}, F(r+s) = {lift(rhs)}")


def _closed_form_pair(family: "CoeffFamily", r: int, s: int) -> tuple:
    """A*p^(r+s)/H(r) and B*q^(r+s)/H(s) from the terms of H and of the
    closed form's conjugate G: A*p^n = (H(n) + (p - q)*G(n))/2 and
    B*q^n = (H(n) - (p - q)*G(n))/2.  p - q is beta*sqrt(disc) for conjugate
    roots (beta = 1 from `char_roots`), and the base-field alpha for rational
    roots, where (p - q)*G folds into the base field."""
    h = family.terms
    h_r, h_s, h_rs = h(r), h(s), h(r + s)
    if not h_r:
        raise SingularCoefficientError(f"sequence term at index {r} is zero")
    if not h_s:
        raise SingularCoefficientError(f"sequence term at index {s} is zero")
    g, alpha, beta, disc = family.conjugate
    g_rs, ext = g(r + s), family.numbers.ext
    if beta:
        y = g_rs if beta == 1 else beta * g_rs
        return ext(h_rs, y, 2 * h_r, disc), ext(h_rs, -y, 2 * h_s, disc)
    x = alpha * g_rs
    return ext(h_rs + x, 0, 2 * h_r, disc), ext(h_rs - x, 0, 2 * h_s, disc)


def coeffs_binet(binet: BinetSpec, r: int, s: int) -> CoeffPair:
    """Formal closed-form pair h1 = A*p^(r+s)/H(r), h2 = B*q^(r+s)/H(s).

    The values live in the quadratic extension; they are exact but generally
    not base-field.  Requires H(r) != 0 and H(s) != 0.
    """
    if r < 1 or s < 1:
        raise ValueError("split indices must be positive")
    family = CoeffFamily("binet", binet.spec, closed_form=binet)
    return CoeffPair(r, s, *_closed_form_pair(family, r, s))


def coeffs_alternating(binet: BinetSpec, r: int, s: int) -> CoeffPair:
    """Base-field pair from alternating root-power ratios.

    h1 = (p^(r+s) q^s - q^(r+s) p^s) / (p^r q^s - q^r p^s) and h2 the mirror
    ratio.  Both cancel to terms of the fundamental sequence U(p+q, -pq):
    with t = -pq and d = |r - s|, for r > s h1 = U(r)/U(d) and
    h2 = -(-t)^d U(s)/U(d); for r < s h1 = -(-t)^d U(r)/U(d) and
    h2 = U(s)/U(d).  The denominator vanishes exactly when t = 0 or
    U(d) = 0.  For r = s it vanishes identically and the formal closed-form
    pair is returned instead.  Roots whose sum or product is irrational
    raise IrrationalResidueError.
    """
    if r < 1 or s < 1:
        raise ValueError("split indices must be positive")
    if r == s:
        return coeffs_binet(binet, r, s)
    return CoeffPair(r, s, *_alternating_pair(SCALAR, binet, r, s))


def _alternating_pair(numbers: _Numbers, binet: BinetSpec, r: int, s: int) -> tuple:
    """The U-ratio pair at r != s."""
    fundamental = binet.fundamental
    u = numbers.terms(fundamental)
    pq = -numbers.value(fundamental.t)
    d = abs(r - s)
    u_d = u(d)
    if not pq or not u_d:
        raise SingularCoefficientError(
            f"alternating denominator vanishes at (r, s) = ({r}, {s})")
    cross = -pq ** d
    if r > s:
        return ndiv(u(r), u_d), ndiv(cross * u(s), u_d)
    return ndiv(cross * u(r), u_d), ndiv(u(s), u_d)


def _alternating_by_extension(binet: BinetSpec, r: int, s: int) -> CoeffPair:
    """The alternating pair at r != s by root powers, full extension products
    and inversions: the reference for `coeffs_alternating`."""
    p, q = binet.p, binet.q
    p_rs, q_rs = p ** (r + s), q ** (r + s)
    p_r, q_r, p_s, q_s = p ** r, q ** r, p ** s, q ** s
    denom = p_r * q_s - q_r * p_s
    if denom.is_zero():
        raise SingularCoefficientError(
            f"alternating denominator vanishes at (r, s) = ({r}, {s})")
    h1 = (p_rs * q_s - q_rs * p_s) / denom
    h2 = (p_rs * q_r - q_rs * p_r) / (-denom)
    return CoeffPair(r, s, h1.project(), h2.project())


class CoeffFamily(Frozen):
    """A named rule (r, s) -> (h1, h2), bundled with the sequence `seq`
    whose scalar identity the rule satisfies.  The closed-form families carry
    the Binet data of `seq`, so a repeated root shows when they are built.
    `numbers` is the number type the rule runs on: `verify_pascal` makes a
    NATIVE copy for its own cells (`with_numbers`), and every other family is
    SCALAR.  Families equal in all but `numbers` are equal."""

    def __init__(self, tag: str, seq: SequenceLike,
                 roots: tuple[Scalar, Scalar] | None = None,
                 closed_form: BinetSpec | None = None, numbers: _Numbers = SCALAR):
        self.__dict__.update(tag=tag, seq=seq, roots=roots, closed_form=closed_form,
                             numbers=numbers)

    def _key(self) -> tuple:
        return self.tag, self.seq, self.roots, self.closed_form

    def with_numbers(self, numbers: _Numbers) -> "CoeffFamily":
        """The same family on the number type `numbers`."""
        return CoeffFamily(self.tag, self.seq, self.roots, self.closed_form, numbers)

    @cached_property
    def terms(self) -> Callable[[int], object]:
        """The terms of `seq` on the family's number type."""
        return self.numbers.terms(self.seq)

    @cached_property
    def conjugate(self) -> tuple:
        """(g, alpha, beta, disc) on the family's number type: the terms g of
        the closed form's conjugate G, and p - q = alpha + beta*sqrt(disc)."""
        binet, value = self.closed_form, self.numbers.value
        root = binet.p - binet.q
        return (self.numbers.terms(binet.conjugate), value(root.alpha),
                value(root.beta), value(binet.disc))

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


def _gould(family: CoeffFamily, r: int, s: int) -> tuple:
    fn = family.terms
    a_r, a_s, a_rs = fn(r), fn(s), fn(r + s)
    if not a_s:
        raise SingularCoefficientError(f"sequence term at index {s} is zero")
    return family.numbers.one, ndiv(a_rs - a_r, a_s)


def _gould_symmetric(family: CoeffFamily, r: int, s: int) -> tuple:
    fn = family.terms
    a_r, a_s, a_rs = fn(r), fn(s), fn(r + s)
    if not a_r:
        raise SingularCoefficientError(f"sequence term at index {r} is zero")
    return ndiv(a_rs - a_s, a_r), family.numbers.one


def _hu_sun(family: CoeffFamily, r: int, s: int) -> tuple:
    u = family.terms
    return u(s + 1), family.numbers.value(family.seq.t) * u(r - 1)


def _corcino(first: int, second: int):
    """The rule (p_first^s, p_second^r) over the family's roots."""
    def rule(family: CoeffFamily, r: int, s: int) -> tuple:
        value = family.numbers.value
        return value(family.roots[first]) ** s, value(family.roots[second]) ** r
    return rule


class _Family(namedtuple("_Family", "build rule")):
    """Registry entry: how a spec gives the family, and the family's rule
    (family, r, s) -> (h1, h2) on the family's number type."""

    __slots__ = ()


# Tag -> the family for a spec and its coefficient rule.  Root-based and
# fundamental-sequence families certify the (0, 1, s, t) table for the spec's
# weights; the others the spec.
_FAMILIES: dict[str, _Family] = {
    "binet": _Family(CoeffFamily.binet, _closed_form_pair),
    "alternating": _Family(CoeffFamily.alternating, lambda f, r, s: (
        _closed_form_pair(f, r, s) if r == s
        else _alternating_pair(f.numbers, f.closed_form, r, s))),
    "corcino_a": _Family(
        lambda spec: CoeffFamily.corcino_a(*_rational_roots("corcino_a", spec)),
        _corcino(0, 1)),
    "corcino_b": _Family(
        lambda spec: CoeffFamily.corcino_b(*_rational_roots("corcino_b", spec)),
        _corcino(1, 0)),
    "gould": _Family(CoeffFamily.gould, _gould),
    "gould_symmetric": _Family(CoeffFamily.gould_symmetric, _gould_symmetric),
    "hu_sun": _Family(lambda spec: CoeffFamily.hu_sun(spec.s, spec.t), _hu_sun),
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
    """Coefficient pair of a named family at (r, s), on the family's number
    type, with the scalar identity for the family's own sequence asserted
    before returning."""
    if r < 1 or s < 1:
        raise ValueError("split indices must be positive")
    if family.tag not in _FAMILIES:
        raise ValueError(f"unknown family tag {family.tag!r}")
    pair = CoeffPair(r, s, *_FAMILIES[family.tag].rule(family, r, s))
    _assert_scalar_identity(family.terms, pair)
    return pair


PairRule = CoeffFamily | Callable[[int, int], CoeffPair]


class CellCheck(Frozen):
    """Outcome at one cell.  A failing cell keeps both exact sides of the
    first identity that broke, the scalar one before the table one; a passing
    cell keeps None."""

    __slots__ = ("r", "s", "scalar_ok", "table_ok", "lhs", "rhs")

    @property
    def ok(self) -> bool:
        return self.scalar_ok and self.table_ok


class PascalReport:
    """Cell-by-cell verification of a two-term recurrence on one table."""

    def __init__(self, family: str, max_n: int):
        self.family = family
        self.max_n = max_n
        self.cells: list[CellCheck] = []
        self.uses_extension = False

    @property
    def all_pass(self) -> bool:
        return all(c.ok for c in self.cells)

    @property
    def failures(self) -> list[CellCheck]:
        return [c for c in self.cells if not c.ok]


def _check_cell(fn: Callable[[int], object] | None, above: tuple, row: tuple,
                pair: CoeffPair) -> CellCheck:
    """Table identity at the pair's cell, read from the held rows r+s-1
    (`above`) and r+s (`row`), and the scalar identity over `fn` unless `fn`
    is None because it is already known to hold."""
    r, s = pair.r, pair.s
    scalar_ok, witness = True, (None, None)
    if fn is not None:
        lhs, rhs = _split_sides(pair, fn(r), fn(s), fn(r + s))
        scalar_ok = lhs == rhs
        if not scalar_ok:
            witness = lhs, rhs
    lhs, rhs = _split_sides(pair, above[r - 1], above[r], row[r])
    table_ok = lhs == rhs
    if scalar_ok and not table_ok:
        witness = lhs, rhs
    return CellCheck(r, s, scalar_ok, table_ok, lift(witness[0]), lift(witness[1]))


def verify_pascal(seq: SequenceLike, rule: PairRule, max_n: int) -> PascalReport:
    """Check scalar and table identities for every cell r, s >= 1 with
    r + s <= max_n.  `rule` is a named family or a bare (r, s) -> pair map.
    The table of a rational spec is checked on native values, and so are the
    pairs of a family whose own sequence is rational too."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    numbers = _numbers(seq)
    fn = numbers.terms(seq)
    if isinstance(rule, CoeffFamily):
        tag = rule.tag
        family = rule
        if numbers is NATIVE and _numbers(rule.seq) is NATIVE:
            family = rule.with_numbers(NATIVE)
        pairs = lambda r, s: family_coeffs(family, r, s)
        if seq == rule.seq:
            fn = None  # family_coeffs raises on any break of the scalar identity
    else:
        tag = getattr(rule, "__name__", "custom")
        pairs = rule
    rows = table_for(seq).own_row
    report = PascalReport(tag, max_n)
    for total in range(2, max_n + 1):
        for r in range(1, total):
            pair = pairs(r, total - r)
            h1 = pair.h1
            if isinstance(h1, (QuadExt, NativeExt)) and (h1.beta or pair.h2.beta):
                report.uses_extension = True
            report.cells.append(_check_cell(fn, rows(total - 1), rows(total), pair))
    return report


class VWeightedCell(Frozen):
    """Outcome at one companion-weighted cell, with both exact sides."""

    __slots__ = ("r", "s", "ok", "lhs", "rhs")


def vweighted_verify(spec: HoradamSpec, max_n: int) -> PascalReport:
    """Check 2*{r+s choose r} = V(s)*{r+s-1 choose r-1} + V(r)*{r+s-1 choose r}
    on the U(s, t) table of `spec`'s (s, t), natively when s, t are rational."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    u_ctx, v_ctx = context(spec).companions
    rows = table_for(u_ctx.spec).own_row
    v = v_ctx.own_term
    report = PascalReport("vweighted", max_n)
    for total in range(2, max_n + 1):
        above, row = rows(total - 1), rows(total)
        for r in range(1, total):
            s = total - r
            lhs = 2 * row[r]
            rhs = v(s) * above[r - 1] + v(r) * above[r]
            report.cells.append(VWeightedCell(r, s, lhs == rhs, lift(lhs), lift(rhs)))
    return report


VERIFY_FAMILIES = FAMILY_TAGS + ("vweighted",)


def verify_family(tag: str, spec: HoradamSpec, max_n: int) -> PascalReport:
    """The check named `tag` in VERIFY_FAMILIES on the table it certifies for
    `spec`: the companion-weighted recurrence for "vweighted", and
    `verify_pascal` of the registry family otherwise."""
    if tag == "vweighted":
        return vweighted_verify(spec, max_n)
    family = resolve_family(tag, spec)
    return verify_pascal(family.seq, family, max_n)
