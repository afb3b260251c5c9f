"""Second-order linear recurrence sequences with exact scalar terms.

A sequence is pinned down by four scalars: initial values a, b and recurrence
weights s, t, with H(0) = a, H(1) = b and H(n+2) = s*H(n+1) + t*H(n).  Terms
may be rationals, polynomials, or rational functions; everything downstream
(closed forms, generating functions, addition identities) stays exact.

Each spec's terms are held once, in the spec's own number type: `int` and
`Fraction` values when its four entries are all rational, `Scalar` values
otherwise.  Readers outside the memo get `Scalar` terms either way; the
addition identities here and the Pascal checks in `recurrences` run on the
held values.  The closed form H(n) = A*p^n + B*q^n is `QuadExt` values, and
A*p^n and B*q^n are read from the terms of H and of its conjugate G
(`BinetSpec.conjugate`), which is held like any spec.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from fractions import Fraction
from functools import cached_property

from .ring import ONE, ZERO, Frozen, QuadExt, Scalar, ScalarLike, X, lift, native

_setattr = object.__setattr__


class DegenerateRootsError(ValueError):
    """Raised when the characteristic roots coincide (discriminant zero)."""


class HoradamSpec(Frozen):
    """Defining data of one sequence: initial values and recurrence weights.
    Specs with equal entries are equal and hash alike, since a spec keys the
    memo of its context."""

    __slots__ = ("a", "b", "s", "t", "_hash", "_disc")

    def __init__(self, a: ScalarLike, b: ScalarLike, s: ScalarLike, t: ScalarLike):
        _setattr(self, "a", Scalar.coerce(a))
        _setattr(self, "b", Scalar.coerce(b))
        _setattr(self, "s", Scalar.coerce(s))
        _setattr(self, "t", Scalar.coerce(t))
        _setattr(self, "_hash", None)
        _setattr(self, "_disc", None)

    def _key(self) -> tuple:
        return self.a, self.b, self.s, self.t

    def __hash__(self) -> int:
        # hashed once: the spec keys every lookup of its context
        h = self._hash
        if h is None:
            h = hash(self._key())
            _setattr(self, "_hash", h)
        return h

    @property
    def is_rational(self) -> bool:
        """True when a, b, s and t are all rational; such a spec is held and
        checked on native values."""
        return all(x.is_rational for x in (self.a, self.b, self.s, self.t))

    def discriminant(self) -> Scalar:
        """s^2 + 4t, the discriminant of z^2 = s*z + t (worked out once)."""
        d = self._disc
        if d is None:
            d = self.s * self.s + 4 * self.t
            _setattr(self, "_disc", d)
        return d

    def to_json(self) -> dict:
        return {"a": self.a.to_json(), "b": self.b.to_json(),
                "s": self.s.to_json(), "t": self.t.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "HoradamSpec":
        if not isinstance(obj, dict) or set(obj) != {"a", "b", "s", "t"}:
            raise ValueError("sequence spec must be a dict with keys a, b, s, t")
        return cls(*(Scalar.from_json(obj[k]) for k in ("a", "b", "s", "t")))


class SeqContext:
    """Everything memoized for one spec: its terms, its closed form (set by
    `to_binet`), and its binomial table (set by `binomials.table_for`).
    Terms and table hold values of the spec's own number type, fixed here:
    `own` reads a Scalar as an int or Fraction for a rational spec, and as
    itself otherwise."""

    def __init__(self, spec: HoradamSpec):
        self.spec = spec
        self.own = native if spec.is_rational else Scalar.coerce
        self._values = [self.own(spec.a), self.own(spec.b)]
        self.binet: BinetSpec | None = None
        self.table = None

    def own_term(self, n: int):
        """n-th term by the recurrence, in the spec's own number type."""
        if n < 0:
            raise ValueError("term index must be nonnegative")
        vals = self._values
        if len(vals) <= n:
            own = self.own
            s, t = own(self.spec.s), own(self.spec.t)
            while len(vals) <= n:
                vals.append(own(s * vals[-1] + t * vals[-2]))
        return vals[n]

    def term(self, n: int) -> Scalar:
        """n-th term by the recurrence, as a Scalar."""
        return lift(self.own_term(n))

    @cached_property
    def companions(self) -> tuple["SeqContext", "SeqContext"]:
        """The contexts of U(s, t) and V(s, t) for this spec's weights."""
        s, t = self.spec.s, self.spec.t
        return context(preset("u", s=s, t=t)), context(preset("v", s=s, t=t))


# One suite run touches 24 distinct specs over the default config and 26-30
# over each of the eight four-spec benchmark configs of seeds 101 and 102
# (counted in process): its own specs, U(s, t), V(s, t) and the closed form's
# conjugate G for each of them, and the fixed specs of the oracle groups.
# The bound holds more than eight times that, so no run evicts a context it
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
        # by the stored key itself: an equal but distinct spec is compared
        # field by field once per lookup, not twice
        _contexts.move_to_end(ctx.spec)
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


class BinetSpec(Frozen):
    """Closed-form data: H(n) = A*p^n + B*q^n in the extension over disc;
    the specs it gives derive from A, B, p and q alone.  Equal A, B, p and q
    make equal closed forms, so families carrying them compare equal."""

    def __init__(self, A: QuadExt, B: QuadExt, p: QuadExt, q: QuadExt):
        self.__dict__.update(A=A, B=B, p=p, q=q)

    def _key(self) -> tuple:
        return self.A, self.B, self.p, self.q

    @property
    def disc(self) -> Scalar:
        return self.p.disc

    @cached_property
    def fundamental(self) -> HoradamSpec:
        """U(p+q, -pq), whose terms are (p^n - q^n)/(p - q); an irrational
        root sum or product raises IrrationalResidueError."""
        return preset("u", s=(self.p + self.q).project(), t=-(self.p * self.q).project())

    @cached_property
    def spec(self) -> HoradamSpec:
        """H, with H(0) = A + B and H(1) = A*p + B*q on the recurrence of
        `fundamental`; an irrational term raises IrrationalResidueError."""
        u = self.fundamental
        return HoradamSpec((self.A + self.B).project(),
                           (self.A * self.p + self.B * self.q).project(), u.s, u.t)

    @cached_property
    def conjugate(self) -> HoradamSpec:
        """G(n) = (A*p^n - B*q^n)/(p - q) on H's recurrence, so that
        A*p^n = (H(n) + (p - q)*G(n))/2 and B*q^n = (H(n) - (p - q)*G(n))/2.
        With H's a, b, s, t and D = s^2 + 4t = (p - q)^2, G(0) = (2b - a*s)/D
        and G(1) = (2a*t + b*s)/D."""
        h = self.spec
        a, b, s, t, d = h.a, h.b, h.s, h.t, h.discriminant()
        return HoradamSpec((2 * b - a * s) / d, (2 * a * t + b * s) / d, s, t)


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
    if not spec.is_rational:
        raise ValueError("generating function needs rational spec entries")
    a, b = spec.a.as_fraction(), spec.b.as_fraction()
    s, t = spec.s.as_fraction(), spec.t.as_fraction()
    num = Scalar.poly([a, b - a * s])
    den = Scalar.poly([1, -s, -t])
    return num / den


class SeriesReport(Frozen):
    """Outcome of checking generating-function series against the recurrence."""

    __slots__ = ("order", "ogf_ok", "egf_checked", "egf_ok")


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


class AdditionReport(Frozen):
    """Exact audit of the doubled addition identities at one index pair.

    `u_ok` checks 2*U(r+s) = U(r)V(s) + U(s)V(r).  `v_corrected_ok` checks
    2*V(r+s) = V(r)V(s) + D*U(r)U(s).  The widely reprinted variant without
    the discriminant factor is evaluated too and reported, not asserted: it
    only holds when D = 1.
    """

    __slots__ = ("r", "s", "disc", "u_ok", "v_corrected_ok", "v_literal_ok",
                 "v_literal_lhs", "v_literal_rhs")


def addition_check(spec: HoradamSpec, r: int, s: int) -> AdditionReport:
    """The identities on the terms of U(s, t) and V(s, t) as their contexts
    hold them, native values when s and t are rational; the report holds
    Scalar values either way."""
    if r < 0 or s < 0:
        raise ValueError("indices must be nonnegative")
    u_ctx, v_ctx = context(spec).companions
    u, v = u_ctx.own_term, v_ctx.own_term
    disc = spec.discriminant()
    d = u_ctx.own(disc)
    u_ok = 2 * u(r + s) == u(r) * v(s) + u(s) * v(r)
    v_corrected_ok = 2 * v(r + s) == v(r) * v(s) + d * u(r) * u(s)
    lhs = 2 * v(r + s)
    rhs = v(r) * v(s) + u(s) * u(r)
    return AdditionReport(r, s, disc, u_ok, v_corrected_ok, lhs == rhs,
                          lift(lhs), lift(rhs))


# preset name -> the weights it takes; a weight it does not take is refused,
# never ignored
_PRESET_WEIGHTS = {"u": "st", "v": "st", "fibonacci": "", "pell": "",
                   "lucas_numbers": "", "cigler_qfib": "t", "cigler_qlucas": "t"}
_PRESET_NAMES = tuple(_PRESET_WEIGHTS)


def preset(kind: str, s: ScalarLike | None = None, t: ScalarLike | None = None) -> HoradamSpec:
    """Well-known spec families by name.

    "u" and "v" need both weights.  The Cigler q-polynomial presets take the
    constant weight t (default 1) and use the indeterminate for s.  The
    other presets take no weight.  A weight a preset does not take raises
    ValueError.
    """
    key = kind.strip().lower().replace("-", "_")
    if key not in _PRESET_WEIGHTS:
        raise ValueError(f"unknown preset {kind!r}; choose from {', '.join(_PRESET_NAMES)}")
    ignored = [name for name, value in (("s", s), ("t", t))
               if value is not None and name not in _PRESET_WEIGHTS[key]]
    if ignored:
        raise ValueError(f"preset {key!r} takes no weight {' or '.join(ignored)}")
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
