"""Second-order linear recurrence sequences with exact scalar terms.

A sequence is pinned down by four scalars: initial values a, b and recurrence
weights s, t, with H(0) = a, H(1) = b and H(n+2) = s*H(n+1) + t*H(n).  Terms
may be rationals, polynomials, or rational functions; everything downstream
(closed forms, generating functions, addition identities) stays exact.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction

from .ring import ONE, ZERO, QuadExt, Scalar, ScalarLike, X


class DegenerateRootsError(ValueError):
    """Raised when the characteristic roots coincide (discriminant zero)."""


@dataclass(frozen=True)
class HoradamSpec:
    """Defining data of one sequence: initial values and recurrence weights."""

    a: Scalar
    b: Scalar
    s: Scalar
    t: Scalar

    def __post_init__(self):
        for name in ("a", "b", "s", "t"):
            object.__setattr__(self, name, Scalar.coerce(getattr(self, name)))

    def __hash__(self) -> int:
        # hashed once: the spec keys every lookup of its context
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.a, self.b, self.s, self.t))
            object.__setattr__(self, "_hash", h)
        return h

    def discriminant(self) -> Scalar:
        """s^2 + 4t, the discriminant of z^2 = s*z + t."""
        return self.s * self.s + 4 * self.t

    def to_json(self) -> dict:
        return {"a": self.a.to_json(), "b": self.b.to_json(),
                "s": self.s.to_json(), "t": self.t.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "HoradamSpec":
        if not isinstance(obj, dict) or set(obj) != {"a", "b", "s", "t"}:
            raise ValueError("sequence spec must be a dict with keys a, b, s, t")
        return cls(*(Scalar.from_json(obj[k]) for k in ("a", "b", "s", "t")))


class SeqContext:
    """Everything memoized for one spec: its terms, its closed form with the
    root-power ladders (set by `to_binet`), and its binomial table (set by
    `binomials.table_for`)."""

    def __init__(self, spec: HoradamSpec):
        self.spec = spec
        self._values = [spec.a, spec.b]
        self.binet: BinetSpec | None = None
        self.table = None

    def term(self, n: int) -> Scalar:
        """n-th term by the recurrence."""
        if n < 0:
            raise ValueError("term index must be nonnegative")
        vals = self._values
        s, t = self.spec.s, self.spec.t
        while len(vals) <= n:
            vals.append(s * vals[-1] + t * vals[-2])
        return vals[n]


# One suite run touches 20 distinct specs over the default config and 23-25
# over a four-spec benchmark config (seeds 101 and 102): its own specs,
# U(s, t) and V(s, t) for each of them, and the fixed specs of the oracle
# groups.  The bound holds ten times that, so no run evicts a context it
# still uses, while a long-lived process meeting ever new specs stays bounded.
CONTEXT_LIMIT = 256

_contexts: "OrderedDict[HoradamSpec, SeqContext]" = OrderedDict()


def context(spec: HoradamSpec) -> SeqContext:
    """The memo of `spec`, most recently used last; the least recently used
    context is dropped once more than CONTEXT_LIMIT are held."""
    ctx = _contexts.get(spec)
    if ctx is None:
        ctx = _contexts[spec] = SeqContext(spec)
        if len(_contexts) > CONTEXT_LIMIT:
            _contexts.popitem(last=False)
    else:
        _contexts.move_to_end(spec)
    return ctx


def term(spec: HoradamSpec, n: int) -> Scalar:
    """n-th term by the recurrence (memoized per spec)."""
    return context(spec).term(n)


def char_roots(spec: HoradamSpec) -> tuple[QuadExt, QuadExt]:
    """Roots (s +/- sqrt(D))/2 of z^2 = s*z + t, as extension elements over D.

    When D is a perfect square the sqrt parts are zero and both roots live in
    the base field.
    """
    d = spec.discriminant()
    if d.is_zero():
        raise DegenerateRootsError(f"repeated characteristic root: s={spec.s}, t={spec.t}")
    half = Scalar(Fraction(1, 2))
    root = d.sqrt_if_square()
    if root is not None:
        p = QuadExt((spec.s + root) * half, ZERO, d)
        q = QuadExt((spec.s - root) * half, ZERO, d)
    else:
        p = QuadExt(spec.s * half, half, d)
        q = QuadExt(spec.s * half, -half, d)
    return p, q


class Ladder:
    """start * base**k for k = 0, 1, ..., grown by one product per index as
    reads reach further."""

    def __init__(self, start: QuadExt, base: QuadExt):
        self._rungs = [start]
        self._base = base

    def __getitem__(self, k: int) -> QuadExt:
        if k < 0:
            raise ValueError("ladder index must be nonnegative")
        rungs = self._rungs
        while len(rungs) <= k:
            rungs.append(rungs[-1] * self._base)
        return rungs[k]


@dataclass(frozen=True)
class BinetSpec:
    """Closed-form data: H(n) = A*p^n + B*q^n in the extension over disc,
    with ladders p_pow[k] = p^k, q_pow[k] = q^k, a_p_pow[k] = A*p^k and
    b_q_pow[k] = B*q^k."""

    A: QuadExt
    B: QuadExt
    p: QuadExt
    q: QuadExt
    p_pow: Ladder = field(init=False, compare=False, repr=False)
    q_pow: Ladder = field(init=False, compare=False, repr=False)
    a_p_pow: Ladder = field(init=False, compare=False, repr=False)
    b_q_pow: Ladder = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        one = QuadExt.embed(ONE, self.disc)
        for name, start, base in (("p_pow", one, self.p), ("q_pow", one, self.q),
                                  ("a_p_pow", self.A, self.p), ("b_q_pow", self.B, self.q)):
            object.__setattr__(self, name, Ladder(start, base))

    @property
    def disc(self) -> Scalar:
        return self.p.disc


def to_binet(spec: HoradamSpec) -> BinetSpec:
    """The closed form of `spec`, built once and shared through its context;
    a repeated root raises DegenerateRootsError on every call."""
    ctx = context(spec)
    if ctx.binet is None:
        p, q = char_roots(spec)
        d = p.disc
        a = QuadExt.embed(spec.a, d)
        b = QuadExt.embed(spec.b, d)
        pq = p - q
        big_a = (b - q * a) / pq
        big_b = -((b - p * a) / pq)
        ctx.binet = BinetSpec(big_a, big_b, p, q)
    return ctx.binet


def binet_term(binet: BinetSpec, n: int) -> Scalar:
    """n-th term via the closed form; the sqrt parts must cancel exactly."""
    if n < 0:
        raise ValueError("term index must be nonnegative")
    value = binet.A * binet.p ** n + binet.B * binet.q ** n
    return value.project()


def explicit_term(spec: HoradamSpec, n: int) -> Scalar:
    """n-th term by the double-sum closed form in s and t (requires s != 0)."""
    if n < 0:
        raise ValueError("term index must be nonnegative")
    if spec.s.is_zero():
        raise ValueError("explicit closed form needs a nonzero linear weight s")
    if n == 0:
        return spec.a
    s, t = spec.s, spec.t
    first = ZERO
    for k in range(n // 2 + 1):
        first = first + math.comb(n - k, k) * s ** (n - 2 * k) * t ** k
    second = ZERO
    for k in range((n - 1) // 2 + 1):
        second = second + math.comb(n - k - 1, k) * s ** (n - 2 * k - 1) * t ** k
    return spec.a * first + (spec.b - spec.a * spec.s) * second


def ogf(spec: HoradamSpec) -> Scalar:
    """Ordinary generating function (a + (b - a*s)x) / (1 - s*x - t*x^2).

    Only defined for specs with rational entries: the series indeterminate
    must be fresh, so polynomial specs are rejected.
    """
    for name in ("a", "b", "s", "t"):
        if not getattr(spec, name).is_rational:
            raise ValueError("generating function needs rational spec entries")
    a, b = spec.a.as_fraction(), spec.b.as_fraction()
    s, t = spec.s.as_fraction(), spec.t.as_fraction()
    num = Scalar.poly([a, b - a * s])
    den = Scalar.poly([1, -s, -t])
    return num / den


@dataclass(frozen=True)
class SeriesReport:
    """Outcome of checking generating-function series against the recurrence."""

    order: int
    ogf_ok: bool
    egf_checked: bool
    egf_ok: bool


def series_verify(spec: HoradamSpec, order: int) -> SeriesReport:
    """Expand the OGF (and EGF when the roots are rational and distinct) to
    `order` terms and compare coefficientwise with the recurrence."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    g = ogf(spec)
    num = list(g.num_coeffs)
    den = list(g.den_coeffs)
    scale = den[0]
    # canonicalization leaves den(0) != 0 because the defining den has constant 1
    num = [c / scale for c in num]
    den = [c / scale for c in den]

    ogf_ok = True
    series: list[Fraction] = []
    for n in range(order + 1):
        c = num[n] if n < len(num) else Fraction(0)
        for j in range(1, min(n, len(den) - 1) + 1):
            c -= den[j] * series[n - j]
        series.append(c)
        if c != term(spec, n).as_fraction():
            ogf_ok = False

    disc = spec.discriminant()
    egf_checked = not disc.is_zero() and disc.sqrt_if_square() is not None
    egf_ok = True
    if egf_checked:
        binet = to_binet(spec)
        big_a = binet.A.project().as_fraction()
        big_b = binet.B.project().as_fraction()
        p = binet.p.project().as_fraction()
        q = binet.q.project().as_fraction()
        ep = eq = Fraction(1)
        for n in range(order + 1):
            if n:
                ep = ep * p / n
                eq = eq * q / n
            coeff = big_a * ep + big_b * eq
            if coeff * math.factorial(n) != term(spec, n).as_fraction():
                egf_ok = False
    return SeriesReport(order, ogf_ok, egf_checked, egf_ok)


@dataclass(frozen=True)
class AdditionReport:
    """Exact audit of the doubled addition identities at one index pair.

    `u_ok` checks 2*U(r+s) = U(r)V(s) + U(s)V(r).  `v_corrected_ok` checks
    2*V(r+s) = V(r)V(s) + D*U(r)U(s).  The widely reprinted variant without
    the discriminant factor is evaluated too and reported, not asserted: it
    only holds when D = 1.
    """

    r: int
    s: int
    disc: Scalar
    u_ok: bool
    v_corrected_ok: bool
    v_literal_ok: bool
    v_literal_lhs: Scalar
    v_literal_rhs: Scalar


def addition_check(spec: HoradamSpec, r: int, s: int) -> AdditionReport:
    if r < 0 or s < 0:
        raise ValueError("indices must be nonnegative")
    u_spec = preset("u", s=spec.s, t=spec.t)
    v_spec = preset("v", s=spec.s, t=spec.t)

    def u(n: int) -> Scalar:
        return term(u_spec, n)

    def v(n: int) -> Scalar:
        return term(v_spec, n)

    d = spec.discriminant()
    u_ok = 2 * u(r + s) == u(r) * v(s) + u(s) * v(r)
    v_corrected_ok = 2 * v(r + s) == v(r) * v(s) + d * u(r) * u(s)
    lhs = 2 * v(r + s)
    rhs = v(r) * v(s) + u(s) * u(r)
    return AdditionReport(r, s, d, u_ok, v_corrected_ok, lhs == rhs, lhs, rhs)


_PRESET_NAMES = ("u", "v", "fibonacci", "pell", "lucas_numbers",
                 "cigler_qfib", "cigler_qlucas")


def preset(kind: str, s: ScalarLike | None = None, t: ScalarLike | None = None) -> HoradamSpec:
    """Well-known spec families by name.

    "u" and "v" need both weights.  The Cigler q-polynomial presets take the
    constant weight t (default 1) and use the indeterminate for s.
    """
    key = kind.strip().lower().replace("-", "_")
    if key in ("u", "v"):
        if s is None or t is None:
            raise ValueError(f"preset {key!r} needs both s and t")
        s_, t_ = Scalar.coerce(s), Scalar.coerce(t)
        if key == "u":
            return HoradamSpec(ZERO, ONE, s_, t_)
        return HoradamSpec(Scalar(2), s_, s_, t_)
    if key == "fibonacci":
        return HoradamSpec(ZERO, ONE, ONE, ONE)
    if key == "pell":
        return HoradamSpec(ZERO, ONE, Scalar(2), ONE)
    if key == "lucas_numbers":
        return HoradamSpec(Scalar(2), ONE, ONE, ONE)
    if key in ("cigler_qfib", "cigler_qlucas"):
        t_ = ONE if t is None else Scalar.coerce(t)
        if not t_.is_rational:
            raise ValueError("Cigler presets take a rational weight t")
        if key == "cigler_qfib":
            return HoradamSpec(ZERO, ONE, X, t_)
        return HoradamSpec(Scalar(2), X, X, t_)
    raise ValueError(f"unknown preset {kind!r}; choose from {', '.join(_PRESET_NAMES)}")
