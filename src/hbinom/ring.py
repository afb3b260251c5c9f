"""Exact scalar arithmetic for the whole package.

A :class:`Scalar` is a quotient of univariate polynomials with rational
coefficients, kept in a canonical form (monic denominator, reduced, no
trailing zero coefficients).  Plain rationals and polynomials are the
``den == 1`` special cases, so the three kinds mix freely and arithmetic
never leaves the field.  No floating point anywhere.

A :class:`QuadExt` is an element ``alpha + beta*sqrt(disc)`` of the quadratic
extension of that field by a fixed discriminant.  The discriminant is carried
verbatim (never reduced to a square-free part) and elements over different
discriminants refuse to combine.

A sequence whose entries are all rational is held and checked on native
values instead: a plain ``int`` when the value is integral, a ``Fraction``
otherwise, and a :class:`NativeExt` pair of them in place of a ``QuadExt``.
``ndiv`` divides native and ``Scalar`` values (``int / int`` would give a
float); a ``NativeExt`` is only added and multiplied.  ``lift`` turns native
values back into the ``Scalar`` or ``QuadExt`` they stand for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union


class ExtensionMismatchError(ValueError):
    """Raised when combining quadratic-extension elements over different discriminants."""


class IrrationalResidueError(ArithmeticError):
    """Raised when projecting an extension element whose sqrt part has not cancelled."""


Coeffs = tuple[Fraction, ...]
ScalarLike = Union["Scalar", int, Fraction]

_F0 = Fraction(0)
_F1 = Fraction(1)
_P1: Coeffs = (_F1,)


# ---------------------------------------------------------------------------
# tuple-level polynomial helpers (coefficients ascending, no trailing zeros)

def _trim(coeffs) -> Coeffs:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _padd(a: Coeffs, b: Coeffs) -> Coeffs:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pneg(a: Coeffs) -> Coeffs:
    return tuple(-c for c in a)


def _pmul(a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return ()
    out = [_F0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def _pscale(a: Coeffs, c: Fraction) -> Coeffs:
    if c == 0:
        return ()
    return tuple(x * c for x in a)


def _pdivmod(a: Coeffs, b: Coeffs) -> tuple[Coeffs, Coeffs]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return (), a
    rem = list(a)
    quo = [_F0] * (len(a) - len(b) + 1)
    inv_lc = 1 / b[-1]
    for shift in range(len(a) - len(b), -1, -1):
        factor = rem[shift + len(b) - 1] * inv_lc
        if factor != 0:
            quo[shift] = factor
            for i, c in enumerate(b):
                rem[shift + i] -= factor * c
    return _trim(quo), _trim(rem)


def _pgcd(a: Coeffs, b: Coeffs) -> Coeffs:
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if not a:
        return ()
    return _pscale(a, 1 / a[-1])


# ---------------------------------------------------------------------------
# fraction-free kernels.  By Gauss's lemma, when primitive integer polynomials
# satisfy B | A over Q the quotient has integer coefficients, so products and
# exact quotients run on plain ints and go back to Fraction once, at the end.
# The Fraction helpers above stay as the reference route the tests compare
# against, and as the route for short factors and for gcds.

# Both factors must be longer than this for the integer product to win,
# conversions to and from primitive form included.  Measured on CPython 3.11
# with 20-bit coefficients: 14 us against 16 us for the Fraction loop at 2 x 2
# coefficients, 23 us against 72 us at 2 x 10; a constant times a short
# polynomial stays cheaper on the Fraction route (9 us against 11 us at 1 x 2).
_INT_MUL_CUTOFF = 1


def _primitive(coeffs: Coeffs) -> tuple[Fraction, list[int]]:
    """(content, ints) with coeffs == content * ints and gcd(ints) == 1.

    `coeffs` must have a nonzero entry; the content is positive."""
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = math.gcd(*ints)
    if g != 1:
        ints = [v // g for v in ints]
    return Fraction(g, den), ints


def _from_ints(content: Fraction, ints: list[int]) -> Coeffs:
    p, q = content.numerator, content.denominator
    if q == 1:
        return tuple(Fraction(p * v) for v in ints)
    return tuple(Fraction(p * v, q) for v in ints)


def _imul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _idivexact(a: list[int], b: list[int]) -> Optional[list[int]]:
    """Integer quotient a / b, or None when some step leaves Z or a remainder stays."""
    lb, lc = len(b), b[-1]
    rem = list(a)
    quo = [0] * (len(a) - lb + 1)
    for shift in range(len(a) - lb, -1, -1):
        top = rem[shift + lb - 1]
        if top:
            f, r = divmod(top, lc)
            if r:
                return None
            quo[shift] = f
            for i, c in enumerate(b):
                rem[shift + i] -= f * c
    if any(rem[:lb - 1]):
        return None
    return quo


def _pmul_ff(a: Coeffs, b: Coeffs) -> Coeffs:
    """Same product as `_pmul`, on ints when both factors are long."""
    if a == _P1:
        return b
    if b == _P1:
        return a
    if len(a) <= _INT_MUL_CUTOFF or len(b) <= _INT_MUL_CUTOFF:
        return _pmul(a, b)
    ca, ia = _primitive(a)
    cb, ib = _primitive(b)
    return _from_ints(ca * cb, _imul(ia, ib))


def _pdiv_exact(a: Coeffs, b: Coeffs) -> Optional[Coeffs]:
    """a / b when b divides a over Q, else None.  Both must be nonzero."""
    ca, ia = _primitive(a)
    cb, ib = _primitive(b)
    quo = _idivexact(ia, ib)
    if quo is None:
        return None
    return _from_ints(ca / cb, quo)


def _reduce(num: Coeffs, den: Coeffs) -> tuple[Coeffs, Coeffs]:
    """Reference canonical form of a nonzero num/den: cancel the Euclidean
    gcd over Q, then make the denominator monic."""
    g = _pgcd(num, den)
    if len(g) > 1:
        num = _pdivmod(num, g)[0]
        den = _pdivmod(den, g)[0]
    lc = den[-1]
    if lc != 1:
        num = _pscale(num, 1 / lc)
        den = _pscale(den, 1 / lc)
    return num, den


def _frac_sqrt(value: Fraction) -> Optional[Fraction]:
    if value < 0:
        return None
    rn = math.isqrt(value.numerator)
    rd = math.isqrt(value.denominator)
    if rn * rn != value.numerator or rd * rd != value.denominator:
        return None
    return Fraction(rn, rd)


def _psqrt(a: Coeffs) -> Optional[Coeffs]:
    """Exact polynomial square root, or None if `a` is not a perfect square."""
    if not a:
        return ()
    deg = len(a) - 1
    if deg % 2:
        return None
    lead = _frac_sqrt(a[-1])
    if lead is None:
        return None
    m = deg // 2
    g = [_F0] * (m + 1)
    g[m] = lead
    for i in range(m - 1, -1, -1):
        acc = a[m + i]
        for j in range(i + 1, m):
            k = m + i - j
            if i < k <= m:
                acc -= g[j] * g[k]
        g[i] = acc / (2 * lead)
    g_t = _trim(g)
    if _pmul(g_t, g_t) != a:
        return None
    return g_t


# ---------------------------------------------------------------------------


class Scalar:
    """Canonical element of Q(x): a reduced quotient with monic denominator."""

    __slots__ = ("_num", "_den")

    def __init__(self, value: ScalarLike = 0):
        if isinstance(value, Scalar):
            object.__setattr__(self, "_num", value._num)
            object.__setattr__(self, "_den", value._den)
            return
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise TypeError(f"cannot build Scalar from {type(value).__name__}")
        f = Fraction(value)
        object.__setattr__(self, "_num", (f,) if f else ())
        object.__setattr__(self, "_den", _P1)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Scalar is immutable")

    @classmethod
    def _raw(cls, num: Coeffs, den: Coeffs) -> "Scalar":
        obj = object.__new__(cls)
        object.__setattr__(obj, "_num", num)
        object.__setattr__(obj, "_den", den)
        return obj

    @classmethod
    def _make(cls, num: Coeffs, den: Coeffs) -> "Scalar":
        num = _trim(num)
        den = _trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return cls._raw((), _P1)
        if len(den) == 1:
            lc = den[0]
            return cls._raw(num if lc == 1 else _pscale(num, 1 / lc), _P1)
        if len(num) >= len(den):
            quo = _pdiv_exact(num, den)
            if quo is not None:
                return cls._raw(quo, _P1)
        return cls._raw(*_reduce(num, den))

    @classmethod
    def coerce(cls, value: ScalarLike) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return cls(value)

    @classmethod
    def poly(cls, coeffs) -> "Scalar":
        """Polynomial from ascending coefficients (ints or Fractions)."""
        return cls._raw(_trim(Fraction(c) for c in coeffs), _P1)

    @classmethod
    def from_ratio(cls, num_coeffs, den_coeffs) -> "Scalar":
        return cls._make(tuple(Fraction(c) for c in num_coeffs),
                         tuple(Fraction(c) for c in den_coeffs))

    @classmethod
    def indeterminate(cls) -> "Scalar":
        return cls._raw((_F0, _F1), _P1)

    # -- inspection ---------------------------------------------------------

    @property
    def num_coeffs(self) -> Coeffs:
        return self._num

    @property
    def den_coeffs(self) -> Coeffs:
        return self._den

    @property
    def variant(self) -> str:
        if len(self._den) > 1:
            return "rational_function"
        if len(self._num) > 1:
            return "polynomial"
        return "rational"

    @property
    def is_rational(self) -> bool:
        return len(self._num) <= 1 and len(self._den) == 1

    @property
    def is_polynomial(self) -> bool:
        return len(self._den) == 1

    def is_zero(self) -> bool:
        return not self._num

    def is_one(self) -> bool:
        return self._num == _P1 and self._den == _P1

    @property
    def is_integer(self) -> bool:
        return self.is_rational and (not self._num or self._num[0].denominator == 1)

    @property
    def is_integral(self) -> bool:
        """True when the value is a polynomial with integer coefficients."""
        return self.is_polynomial and all(c.denominator == 1 for c in self._num)

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"not a rational value: {self}")
        return self._num[0] if self._num else _F0

    def as_int(self) -> int:
        f = self.as_fraction()
        if f.denominator != 1:
            raise ValueError(f"not an integer: {f}")
        return f.numerator

    def degree(self) -> int:
        """Degree of a polynomial value; zero has degree -1."""
        if not self.is_polynomial:
            raise ValueError("degree is defined for polynomial values only")
        return len(self._num) - 1

    # -- arithmetic ---------------------------------------------------------

    def _coerce_other(self, other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, bool):
            return None
        if isinstance(other, (int, Fraction)):
            return Scalar(other)
        return None

    def __add__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        x, y = _rational_value(self), _rational_value(other)
        if x is not None and y is not None:
            return _from_fraction(x + y)
        if self._den == _P1 and other._den == _P1:
            return Scalar._raw(_padd(self._num, other._num), _P1)
        return Scalar._make(
            _padd(_pmul_ff(self._num, other._den), _pmul_ff(other._num, self._den)),
            _pmul_ff(self._den, other._den))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        x, y = _rational_value(self), _rational_value(other)
        if x is not None and y is not None:
            return _from_fraction(x - y)
        return self.__add__(-other)

    def __rsub__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return other.__add__(-self)

    def __neg__(self):
        return Scalar._raw(_pneg(self._num), self._den)

    def __mul__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        x, y = _rational_value(self), _rational_value(other)
        if x is not None and y is not None:
            return _from_fraction(x * y)
        if self._den == _P1 and other._den == _P1:
            return Scalar._raw(_pmul_ff(self._num, other._num), _P1)
        return Scalar._make(_pmul_ff(self._num, other._num),
                            _pmul_ff(self._den, other._den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        x, y = _rational_value(self), _rational_value(other)
        if x is not None and y is not None:
            return _from_fraction(x / y)
        return Scalar._make(_pmul_ff(self._num, other._den),
                            _pmul_ff(self._den, other._num))

    def __rtruediv__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return other.__truediv__(self)

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        x = _rational_value(self)
        if x is not None:
            return _from_fraction(1 / x)
        return Scalar._make(self._den, self._num)

    def __pow__(self, exponent: int) -> "Scalar":
        if not isinstance(exponent, int):
            return NotImplemented
        # a rational base takes one Fraction power; other bases take the
        # square-and-multiply route
        x = _rational_value(self)
        if x is not None:
            return _from_fraction(x ** exponent)
        return _power(self, exponent, ONE)

    def evaluate(self, point: ScalarLike) -> "Scalar":
        """Substitute `point` for the indeterminate."""
        point = Scalar.coerce(point)

        def horner(coeffs: Coeffs) -> Scalar:
            acc = ZERO
            for c in reversed(coeffs):
                acc = acc * point + Scalar(c)
            return acc

        return horner(self._num) / horner(self._den)

    def sqrt_if_square(self) -> Optional["Scalar"]:
        """Exact square root within the field, or None."""
        rn = _psqrt(self._num)
        if rn is None:
            return None
        rd = _psqrt(self._den)
        if rd is None:
            return None
        return Scalar._make(rn, rd)

    # -- misc protocol ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        if self.is_rational:
            return hash(self.as_fraction())
        return hash((self._num, self._den))

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.as_fraction())
        if self.is_polynomial:
            return _poly_str(self._num)
        return f"({_poly_str(self._num)})/({_poly_str(self._den)})"

    def __repr__(self) -> str:
        return f"Scalar({self})"

    # -- serialization ------------------------------------------------------

    def to_json(self):
        """JSON-friendly form: string, coefficient list, or {num, den} dict."""
        if self.is_rational:
            return str(self.as_fraction())
        if self.is_polynomial:
            return [str(c) for c in self._num]
        return {"num": [str(c) for c in self._num],
                "den": [str(c) for c in self._den]}

    @classmethod
    def from_json(cls, obj) -> "Scalar":
        """Inverse of to_json.  Each coefficient is read by `exact_rational`;
        a zero denominator raises ValueError."""
        try:
            if isinstance(obj, dict):
                if set(obj) != {"num", "den"}:
                    raise TypeError(f"cannot parse scalar from {obj!r}")
                return cls.from_ratio(_exact_list(obj["num"]), _exact_list(obj["den"]))
            if isinstance(obj, (list, tuple)):
                return cls.poly(_exact_list(obj))
            return cls(exact_rational(obj))
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {obj!r}") from exc


def exact_rational(value) -> Fraction:
    """A rational as JSON or the command line gives it: an int, or a string
    such as "-3/7".  Floats and booleans are refused, since they are not
    exact; a zero denominator raises ZeroDivisionError."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"not an exact value: {value!r} (give an integer or a string)")
    return Fraction(value)


def _exact_list(coeffs) -> list[Fraction]:
    if not isinstance(coeffs, (list, tuple)):
        raise TypeError(f"coefficients must be a list, not {coeffs!r}")
    return [exact_rational(c) for c in coeffs]


def _power(base, exponent: int, one):
    """base**exponent by square-and-multiply, for Scalar and QuadExt alike; a
    negative exponent inverts the base first."""
    if exponent < 0:
        base, exponent = base.inverse(), -exponent
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        base = base * base
        exponent >>= 1
    return result


def _rational_value(v: Scalar) -> Optional[Fraction]:
    """The value of a rational Scalar (a monic constant denominator is 1), else None."""
    if len(v._num) <= 1 and len(v._den) == 1:
        return v._num[0] if v._num else _F0
    return None


def _from_fraction(f: Fraction) -> Scalar:
    return Scalar._raw((f,) if f else (), _P1)


def _from_int(n: int) -> Scalar:
    # an int wrapped once, with no Fraction operator dispatch or gcd: `lift`
    # reads every held int through here
    return Scalar._raw((Fraction(n),) if n else (), _P1)


def _poly_str(coeffs: Coeffs) -> str:
    if not coeffs:
        return "0"
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
            continue
        base = "x" if k == 1 else f"x^{k}"
        if c == 1:
            terms.append(base)
        elif c == -1:
            terms.append(f"-{base}")
        else:
            terms.append(f"{c}*{base}")
    return " + ".join(terms).replace("+ -", "- ")


ZERO = Scalar(0)
ONE = Scalar(1)
X = Scalar.indeterminate()


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadExt:
    """Element alpha + beta*sqrt(disc) of a quadratic extension of Q(x)."""

    alpha: Scalar
    beta: Scalar
    disc: Scalar

    def __post_init__(self):
        object.__setattr__(self, "alpha", Scalar.coerce(self.alpha))
        object.__setattr__(self, "beta", Scalar.coerce(self.beta))
        object.__setattr__(self, "disc", Scalar.coerce(self.disc))

    @classmethod
    def embed(cls, value: ScalarLike, disc: ScalarLike) -> "QuadExt":
        return cls(Scalar.coerce(value), ZERO, Scalar.coerce(disc))

    def _coerce_other(self, other) -> Optional["QuadExt"]:
        if isinstance(other, QuadExt):
            if other.disc != self.disc:
                raise ExtensionMismatchError(
                    f"mixed discriminants: {self.disc} vs {other.disc}")
            return other
        if isinstance(other, bool):
            return None
        if isinstance(other, (int, Fraction, Scalar)):
            return QuadExt.embed(other, self.disc)
        return None

    def __add__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return QuadExt(self.alpha + other.alpha, self.beta + other.beta, self.disc)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return QuadExt(self.alpha - other.alpha, self.beta - other.beta, self.disc)

    def __rsub__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return QuadExt(-self.alpha, -self.beta, self.disc)

    def __mul__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.alpha, self.beta, other.alpha, other.beta
        # an embedded operand (sqrt part zero) multiplies componentwise
        if b.is_zero():
            return QuadExt(a * c, a * d, self.disc)
        if d.is_zero():
            return QuadExt(a * c, b * c, self.disc)
        return QuadExt(a * c + self.disc * b * d, a * d + b * c, self.disc)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        c = other.alpha
        if other.beta.is_zero() and not c.is_zero():
            return QuadExt(self.alpha / c, self.beta / c, self.disc)
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int) -> "QuadExt":
        if not isinstance(exponent, int):
            return NotImplemented
        return _power(self, exponent, QuadExt.embed(ONE, self.disc))

    def conj(self) -> "QuadExt":
        return QuadExt(self.alpha, -self.beta, self.disc)

    def norm(self) -> Scalar:
        return self.alpha * self.alpha - self.disc * self.beta * self.beta

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n.is_zero():
            # happens for nonzero elements when disc is a perfect square
            raise ZeroDivisionError(f"zero-norm extension element: {self}")
        return QuadExt(self.alpha / n, -self.beta / n, self.disc)

    def is_zero(self) -> bool:
        return self.alpha.is_zero() and self.beta.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def project(self) -> Scalar:
        """Base-field value of an element whose sqrt part cancelled."""
        if not self.beta.is_zero():
            raise IrrationalResidueError(
                f"sqrt part did not cancel: beta = {self.beta}")
        return self.alpha

    def __str__(self) -> str:
        return f"{self.alpha} + ({self.beta})*sqrt({self.disc})"


# ---------------------------------------------------------------------------
# native values

Native = Union[int, Fraction]


def native(value) -> Native:
    """A rational Scalar, an int or a Fraction as an int when integral and a
    Fraction otherwise."""
    if type(value) is int:
        return value
    if isinstance(value, Scalar):
        value = value.as_fraction()
    return value.numerator if value.denominator == 1 else value


def ndiv(a, b):
    """Exact quotient a / b, never a float: native values give a native
    value, and Scalar values divide with /."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return native(q) if type(q) is Fraction else q


class NativeExt:
    """(a + b*sqrt(disc)) / den with int a, b, den and a native disc: a
    QuadExt value kept over one denominator, so that sums and products take
    a few int operations and no gcd.  `alpha` and `beta` reduce it."""

    __slots__ = ("a", "b", "den", "disc")

    def __init__(self, a: int, b: int, den: int, disc: Native):
        self.a, self.b, self.den, self.disc = a, b, den, disc

    @classmethod
    def over(cls, a: Native, b: Native, den: Native, disc: Native) -> "NativeExt":
        """(a + b*sqrt(disc)) / den for native a, b and den, scaled to ints by
        the lcm of their denominators."""
        an, ad = a.as_integer_ratio()
        bn, bd = b.as_integer_ratio()
        dn, dd = den.as_integer_ratio()
        m = math.lcm(ad, bd, dd)
        return cls(an * (m // ad), bn * (m // bd), dn * (m // dd), disc)

    @classmethod
    def embed(cls, value: Native, disc: Native) -> "NativeExt":
        if type(value) is int:
            return cls(value, 0, 1, disc)
        return cls(value.numerator, 0, value.denominator, disc)

    @property
    def alpha(self) -> Native:
        return ndiv(self.a, self.den)

    @property
    def beta(self) -> Native:
        return ndiv(self.b, self.den)

    def __add__(self, other: "NativeExt") -> "NativeExt":
        d1, d2 = self.den, other.den
        if d1 == d2:
            return NativeExt(self.a + other.a, self.b + other.b, d1, self.disc)
        return NativeExt(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1,
                         d1 * d2, self.disc)

    def __mul__(self, other: "NativeExt") -> "NativeExt":
        a, b, c, d = self.a, self.b, other.a, other.b
        den = self.den * other.den
        if not b:
            return NativeExt(a * c, a * d, den, self.disc)
        if not d:
            return NativeExt(a * c, b * c, den, self.disc)
        return NativeExt(a * c + self.disc * b * d, a * d + b * c, den, self.disc)

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __eq__(self, other) -> bool:
        if type(other) is not NativeExt:
            return NotImplemented
        return (self.a * other.den == other.a * self.den
                and self.b * other.den == other.b * self.den
                and self.disc == other.disc)


def lift(value):
    """The Scalar or QuadExt a native value or NativeExt stands for; any other
    value is returned as it is."""
    if type(value) is int:
        return _from_int(value)
    if type(value) is Fraction:
        return _from_fraction(value)
    if type(value) is NativeExt:
        return QuadExt(lift(value.alpha), lift(value.beta), lift(value.disc))
    return value
