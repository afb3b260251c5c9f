"""Exact scalar arithmetic for the whole package.

A :class:`Scalar` is a quotient of univariate polynomials with rational
coefficients, kept in a canonical form (monic denominator, reduced, no
trailing zero coefficients).  Plain rationals and polynomials are the
``den == 1`` special cases, so the three kinds mix freely and arithmetic
never leaves the field.  No floating point anywhere.  A value stores one
form: a rational content times primitive int tuples, so products and exact
quotients run on ints.  Its Fraction coefficient tuples are built from that
form whenever something reads them, and never kept.

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
from fractions import Fraction
from typing import Optional, Sequence, Union


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
    inv_lc = _F1 / b[-1]
    for shift in range(len(a) - len(b), -1, -1):
        factor = rem[shift + len(b) - 1] * inv_lc
        if factor != 0:
            quo[shift] = factor
            for i, c in enumerate(b):
                rem[shift + i] -= factor * c
    return _trim(quo), _trim(rem)


def _pgcd(a: Coeffs, b: Coeffs) -> Coeffs:
    """Monic gcd over Q, as Fractions; `a` and `b` may also be int tuples."""
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if not a:
        return ()
    return _pscale(a, _F1 / a[-1])


# ---------------------------------------------------------------------------
# fraction-free kernels.  By Gauss's lemma a product of primitive integer
# polynomials is primitive, and when primitive B | A over Q the quotient has
# integer coefficients; so a Scalar holds each polynomial as a rational
# content times a primitive int tuple, and products and exact quotients run
# on plain ints.  The Fraction helpers above stay as the reference route the
# tests compare against; `_pgcd` also runs Euclid on the held ints.

Ints = tuple[int, ...]
_I1: Ints = (1,)


def _held(coeffs: Coeffs) -> tuple[Fraction, Ints]:
    """The held form of trimmed coefficients: coeffs == content * ints with
    gcd(ints) == 1 and a positive leading int; zero is (0, ())."""
    if not coeffs:
        return _F0, ()
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return Fraction(g, den), tuple(v // g for v in ints)


def _from_ints(content: Fraction, ints: Sequence[int]) -> Coeffs:
    p, q = content.numerator, content.denominator
    if q == 1:
        return tuple(Fraction(p * v) for v in ints)
    return tuple(Fraction(p * v, q) for v in ints)


def _imul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _idivexact(a: Sequence[int], b: Sequence[int]) -> Optional[list[int]]:
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


def _iadd(c1: Fraction, a: Ints, c2: Fraction, b: Ints) -> tuple[Fraction, Ints]:
    """The held form of c1*a + c2*b, over the lcm of the contents' denominators."""
    q1, q2 = c1.denominator, c2.denominator
    m = math.lcm(q1, q2)
    f1, f2 = c1.numerator * (m // q1), c2.numerator * (m // q2)
    if len(a) < len(b):
        a, b, f1, f2 = b, a, f2, f1
    out = [f1 * v for v in a]
    for i, v in enumerate(b):
        out[i] += f2 * v
    while out and not out[-1]:
        out.pop()
    if not out:
        return _F0, ()
    g = math.gcd(*out)
    if out[-1] < 0:
        g = -g
    return Fraction(g, m), tuple(v // g for v in out)


def _ihorner(ints: Ints, a: int, b: int) -> tuple[int, int]:
    """(acc, b**len(ints)) with acc / b**(len(ints) - 1) the value of the
    polynomial `ints` at a/b: Horner's rule on ints."""
    acc, bk = 0, 1
    for v in reversed(ints):
        acc = acc * a + v * bk
        bk *= b
    return acc, bk


def _horner(coeffs: Coeffs, point: "Scalar") -> "Scalar":
    """Reference evaluation by Horner's rule on Scalars."""
    acc = ZERO
    for c in reversed(coeffs):
        acc = acc * point + Scalar(c)
    return acc


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


_setattr = object.__setattr__


class Frozen:
    """Base of the immutable value classes.  `Frozen(*values)` sets a
    subclass's `__slots__` in order through the slots' own setters, which
    each subclass binds once in `_setters`; a subclass with its own
    `__init__` sets its attributes through those or `object.__setattr__`.
    Any later assignment or deletion raises AttributeError.  Two values of
    one class are equal when their `_key`s are, by default the slots in
    order, and hash as their key."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *values):
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError(f"{type(self).__name__} takes {len(setters)} values, "
                            f"got {len(values)}")
        for set_, value in zip(setters, values):
            set_(self, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Scalar(Frozen):
    """Canonical element of Q(x): a reduced quotient with monic denominator.

    It is held as `c * n / (d / d[-1])` with a Fraction content `c` and int
    tuples `n` and `d`, each primitive with a positive leading entry (zero is
    `0 * ()`, a polynomial has `d == (1,)`).  That is all it stores: the
    Fraction coefficient tuples `num_coeffs` and `den_coeffs` are built from
    it on each read."""

    __slots__ = ("_c", "_n", "_d")

    def __init__(self, value: ScalarLike = 0):
        if isinstance(value, Scalar):
            _set_c(self, value._c)
            _set_n(self, value._n)
            _set_d(self, value._d)
            return
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise TypeError(f"cannot build Scalar from {type(value).__name__}")
        f = Fraction(value)
        _set_c(self, f)
        _set_n(self, _I1 if f else ())
        _set_d(self, _I1)

    @classmethod
    def _make(cls, num: Coeffs, den: Coeffs) -> "Scalar":
        num = _trim(num)
        den = _trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return ZERO
        cn, n = _held(num)
        cd, d = _held(den)
        return _reduced(cn / (cd * d[-1]), n, d)

    @classmethod
    def coerce(cls, value: ScalarLike) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return cls(value)

    @classmethod
    def poly(cls, coeffs) -> "Scalar":
        """Polynomial from ascending coefficients (ints or Fractions)."""
        return _raw(*_held(_trim(Fraction(c) for c in coeffs)), _I1)

    @classmethod
    def from_ratio(cls, num_coeffs, den_coeffs) -> "Scalar":
        return cls._make(tuple(Fraction(c) for c in num_coeffs),
                         tuple(Fraction(c) for c in den_coeffs))

    @classmethod
    def indeterminate(cls) -> "Scalar":
        return _raw(_F1, (0, 1), _I1)

    # -- inspection ---------------------------------------------------------

    @property
    def num_coeffs(self) -> Coeffs:
        return _from_ints(self._c, self._n)

    @property
    def den_coeffs(self) -> Coeffs:
        d = self._d
        return _P1 if len(d) == 1 else _from_ints(Fraction(1, d[-1]), d)

    @property
    def variant(self) -> str:
        if len(self._d) > 1:
            return "rational_function"
        if len(self._n) > 1:
            return "polynomial"
        return "rational"

    @property
    def is_rational(self) -> bool:
        return len(self._n) <= 1 and len(self._d) == 1

    @property
    def is_polynomial(self) -> bool:
        return len(self._d) == 1

    def is_zero(self) -> bool:
        return not self._n

    def is_one(self) -> bool:
        return self._c == 1 and self._n == _I1 and self._d == _I1

    @property
    def is_integer(self) -> bool:
        return self.is_rational and self._c.denominator == 1

    @property
    def is_integral(self) -> bool:
        """True when the value is a polynomial with integer coefficients."""
        # the ints are primitive, so c * ints is integral exactly when c is
        return self.is_polynomial and self._c.denominator == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"not a rational value: {self}")
        return self._c

    def as_int(self) -> int:
        f = self.as_fraction()
        if f.denominator != 1:
            raise ValueError(f"not an integer: {f}")
        return f.numerator

    def degree(self) -> int:
        """Degree of a polynomial value; zero has degree -1."""
        if not self.is_polynomial:
            raise ValueError("degree is defined for polynomial values only")
        return len(self._n) - 1

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
        d1, d2 = self._d, other._d
        if len(d1) == 1 and len(d2) == 1:
            return _raw(*_iadd(self._c, self._n, other._c, other._n), _I1)
        # c1*l1*n1/d1 + c2*l2*n2/d2 over d1*d2, whose leading entry is l1*l2
        l1, l2 = d1[-1], d2[-1]
        c, n = _iadd(self._c * l1, _imul(self._n, d2), other._c * l2, _imul(other._n, d1))
        if not n:
            return ZERO
        if len(d1) == 1 or len(d2) == 1:
            # n1/d1 + p = (n1 + p*d1)/d1 is reduced when n1/d1 is
            return _raw(c / (l1 * l2), n, d2 if len(d1) == 1 else d1)
        return _reduced(c / (l1 * l2), n, tuple(_imul(d1, d2)))

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
        return _raw(-self._c, self._n, self._d)

    def __mul__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return _mul(self, other)

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
        return _mul(self, other.inverse())

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
        # 1 / (c*l*n/d) = d / (c*l*n), reduced because n/d is
        n, d = self._n, self._d
        return _raw(1 / (self._c * d[-1] * n[-1]), d, n)

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
        x = _rational_value(point)
        if x is None:
            return _horner(self.num_coeffs, point) / _horner(self.den_coeffs, point)
        # c*l*n(a/b) / d(a/b), each side scaled by b to its length
        a, b = x.numerator, x.denominator
        num, bn = _ihorner(self._n, a, b)
        den, bd = _ihorner(self._d, a, b)
        if not den:
            raise ZeroDivisionError("division by zero scalar")
        c = self._c
        return _from_fraction(Fraction(c.numerator * self._d[-1] * num * bd,
                                       c.denominator * den * bn))

    def sqrt_if_square(self) -> Optional["Scalar"]:
        """Exact square root within the field, or None."""
        rn = _psqrt(self.num_coeffs)
        if rn is None:
            return None
        rd = _psqrt(self.den_coeffs)
        if rd is None:
            return None
        return Scalar._make(rn, rd)

    # -- misc protocol ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._n)

    def __eq__(self, other) -> bool:
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return self._c == other._c and self._n == other._n and self._d == other._d

    def __hash__(self):
        if self.is_rational:
            return hash(self._c)
        return hash((self.num_coeffs, self.den_coeffs))

    def __str__(self) -> str:
        if self.is_rational:
            return str(self._c)
        if self.is_polynomial:
            return _poly_str(self.num_coeffs)
        return f"({_poly_str(self.num_coeffs)})/({_poly_str(self.den_coeffs)})"

    def __repr__(self) -> str:
        return f"Scalar({self})"

    # -- serialization ------------------------------------------------------

    def to_json(self):
        """JSON-friendly form: string, coefficient list, or {num, den} dict.
        The coefficient strings are those of `num_coeffs` and `den_coeffs`,
        formed from the held ints without building their Fractions."""
        if self.is_rational:
            return str(self._c)
        c, d = self._c, self._d
        num = _coeff_strs(c.numerator, c.denominator, self._n)
        if len(d) == 1:
            return num
        return {"num": num, "den": _coeff_strs(1, d[-1], d)}

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


# the slot setters Frozen binds: they skip the immutability guard, and a
# Scalar is built faster through them than through object.__setattr__
_set_c, _set_n, _set_d = Scalar._setters
_new = object.__new__


def _raw(c: Fraction, n: Ints, d: Ints) -> Scalar:
    obj = _new(Scalar)
    _set_c(obj, c)
    _set_n(obj, n)
    _set_d(obj, d)
    return obj


def _reduced(c: Fraction, n: Ints, d: Ints) -> Scalar:
    """c * n / (d / d[-1]) in canonical form, for nonzero c and primitive n
    and d with positive leading entries."""
    if len(d) == 1:
        return _raw(c, n, _I1)
    if len(n) >= len(d):
        quo = _idivexact(n, d)
        if quo is not None:
            return _raw(c * d[-1], tuple(quo), _I1)
    # Euclid over Q finds the common factor; by Gauss's lemma its primitive
    # part divides n and d exactly on ints
    g = _pgcd(n, d)
    if len(g) == 1:
        return _raw(c, n, d)
    g = _held(g)[1]
    n2, d2 = tuple(_idivexact(n, g)), tuple(_idivexact(d, g))
    return _raw(c * d[-1] / d2[-1], n2, d2)


def _mul(a: Scalar, b: Scalar) -> Scalar:
    """a * b on the held forms: a product of contents and of int tuples."""
    x, y = _rational_value(a), _rational_value(b)
    if x is not None:
        a, b, y = b, a, x
    if y is not None:
        return _raw(a._c * y, a._n, a._d) if y else ZERO
    n = tuple(_imul(a._n, b._n))
    if len(a._d) == 1 and len(b._d) == 1:
        return _raw(a._c * b._c, n, _I1)
    return _reduced(a._c * b._c, n, tuple(_imul(a._d, b._d)))


def _rational_value(v: Scalar) -> Optional[Fraction]:
    """The value of a rational Scalar (a monic constant denominator is 1), else None."""
    if len(v._n) <= 1 and len(v._d) == 1:
        return v._c
    return None


def _from_fraction(f: Fraction) -> Scalar:
    return _raw(f, _I1 if f else (), _I1)


def _from_int(n: int) -> Scalar:
    # an int wrapped once, with no Fraction operator dispatch or gcd: `lift`
    # reads every held int through here
    return _raw(Fraction(n), _I1 if n else (), _I1)


def _coeff_strs(p: int, q: int, ints: Ints) -> list[str]:
    """[str(Fraction(p * v, q)) for v in ints], for coprime p and q > 0: the
    gcd of p*v and q is that of v and q, one int gcd per entry."""
    if q == 1:
        return [str(p * v) for v in ints]
    out = []
    for v in ints:
        g = math.gcd(v, q)
        out.append(str(p * (v // g)) if g == q else f"{p * (v // g)}/{q // g}")
    return out


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


class QuadExt(Frozen):
    """Element alpha + beta*sqrt(disc) of a quadratic extension of Q(x)."""

    __slots__ = ("alpha", "beta", "disc")

    def __init__(self, alpha: ScalarLike, beta: ScalarLike, disc: ScalarLike):
        _setattr(self, "alpha", Scalar.coerce(alpha))
        _setattr(self, "beta", Scalar.coerce(beta))
        _setattr(self, "disc", Scalar.coerce(disc))

    def _key(self) -> tuple:
        return self.alpha, self.beta, self.disc

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
