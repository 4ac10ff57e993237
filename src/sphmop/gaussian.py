"""Exact Gaussian-rational scalars: complex numbers a + b*i with rational a, b.

Every structure constant in this package lives in Q(i), so all algebraic
identities can be checked with zero tolerance.  Floats appear only in the
group-geometry layer.
"""

from __future__ import annotations

from fractions import Fraction


def as_fraction(x) -> Fraction:
    """x as a Fraction if it is an int or a Fraction, else TypeError: the
    one rational coercion of the exact layers (a float never passes)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    Immutable and hashable; arithmetic is exact.  Fraction keeps the parts
    reduced with positive denominator, which makes structural equality the
    correctness oracle throughout the test suite.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", as_fraction(re))
        object.__setattr__(self, "im", as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(x) -> "GaussianRational":
        z = _operand(x)
        if z is NotImplemented:
            raise TypeError(
                f"cannot coerce {type(x).__name__} to GaussianRational")
        return z

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        if not other.re and not other.im:
            return self
        if not self.re and not self.im:
            return other
        return _make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.re, -self.im)

    def __sub__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        return _make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else other - self

    def __mul__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        a, b, c, d = self.re, self.im, other.re, other.im
        # zero fast-paths matter: most structure constants are real or
        # purely imaginary, and Fraction multiplication is not cheap
        if not b:
            if not a:
                return ZERO
            if not d:
                return ZERO if not c else _make(a * c, _FR_ZERO)
            if not c:
                return _make(_FR_ZERO, a * d)
            return _make(a * c, a * d)
        if not a:
            if not d:
                return ZERO if not c else _make(_FR_ZERO, b * c)
            if not c:
                return _make(-(b * d), _FR_ZERO)
            return _make(-(b * d), b * c)
        return _make(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianRational((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else other / self

    def __pow__(self, n: int):
        if n < 0:
            return GaussianRational(1) / self ** (-n)
        result = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- comparisons / hashing ----------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # equal to int and Fraction values, so hashes must agree with theirs
        return hash(self.re) if not self.im else hash((self.re, self.im))

    # -- conversion ----------------------------------------------------

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_gaussian(self)


_FR_ZERO = Fraction(0)


def _operand(x):
    """x as a GaussianRational, or NotImplemented when x is no int, Fraction
    or GaussianRational: an arithmetic method returns that, so Python tries
    the other operand's reflected method."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return NotImplemented


def _make(re: Fraction, im: Fraction) -> GaussianRational:
    """Internal fast constructor: skips coercion, both args are already
    Fractions."""
    z = object.__new__(GaussianRational)
    object.__setattr__(z, "re", re)
    object.__setattr__(z, "im", im)
    return z


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def _format_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def format_gaussian(z: GaussianRational) -> str:
    """Serialize as "p/q+r/s*i" with minus signs inline; zero parts elided.

    The zero value serializes as "0"; purely imaginary values as "r/s*i".
    """
    if z.is_zero():
        return "0"
    parts = []
    if z.re:
        parts.append(_format_fraction(z.re))
    if z.im:
        imtxt = _format_fraction(z.im) + "*i"
        if parts and z.im > 0:
            parts.append("+" + imtxt)
        else:
            parts.append(imtxt)
    return "".join(parts)


def parse_gaussian(text: str) -> GaussianRational:
    """Inverse of :func:`format_gaussian`: accepts exactly the strings it
    emits and raises ValueError on any other."""
    re_text, im_text = text, "0"
    if text.endswith("*i"):
        # the imaginary part starts at the last sign, or at the start
        cut = max(text.rfind("+"), text.rfind("-"), 0)
        re_text, im_text = text[:cut] or "0", text[cut:-2]
    try:
        z = GaussianRational(Fraction(re_text), Fraction(im_text))
    except (ValueError, ZeroDivisionError):
        z = None
    if z is None or format_gaussian(z) != text:
        raise ValueError(
            f"not a canonical Gaussian-rational literal: {text!r}")
    return z
