"""Exact Gaussian-rational scalars: complex numbers a + b*i with rational a, b.

Every structure constant in this package lives in Q(i), so all algebraic
identities can be checked with zero tolerance.  Floats appear only in the
group-geometry layer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def as_fraction(x) -> Fraction:
    """x as a Fraction if it is an int or a Fraction, else TypeError: the
    one rational coercion of the exact layers (a float never passes)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


class GaussianRational:
    """A complex number (a + b*i) / d with integers a, b and d.

    Immutable and hashable; arithmetic is exact.  The triple is kept
    reduced, d > 0 and gcd(a, b, d) = 1, so each value has one triple and
    structural equality is the correctness oracle throughout the test
    suite.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re=0, im=0):
        re, im = as_fraction(re), as_fraction(im)
        return _reduced(re.numerator * im.denominator,
                        im.numerator * re.denominator,
                        re.denominator * im.denominator)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

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
        return not self._a and not self._b

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        # sums onto a zero accumulator are common (matrix products, Horner
        # sums), and skipping them measurably shortens `verify`
        if not other._a and not other._b:
            return self
        if not self._a and not self._b:
            return other
        a, b, d = self._a, self._b, self._d
        c, f, e = other._a, other._b, other._d
        return _reduced(a * e + c * d, b * e + f * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(-self._a, -self._b, self._d)

    def __sub__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        a, b, d = self._a, self._b, self._d
        c, f, e = other._a, other._b, other._d
        return _reduced(a * e - c * d, b * e - f * d, d * e)

    def __rsub__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else other - self

    def __mul__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        a, b, d = self._a, self._b, self._d
        c, f, e = other._a, other._b, other._d
        return _reduced(a * c - b * f, a * f + b * c, d * e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        a, b, d = self._a, self._b, self._d
        c, f, e = other._a, other._b, other._d
        n = c * c + f * f
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        return _reduced((a * c + b * f) * e, (b * c - a * f) * e, d * n)

    def __rtruediv__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else other / self

    def __pow__(self, n: int):
        if n < 0:
            return ONE / self ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "GaussianRational":
        return _reduced(self._a, -self._b, self._d)

    # -- comparisons / hashing ----------------------------------------

    def __eq__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __hash__(self):
        # equal to int and Fraction values, so hashes must agree with theirs
        return hash(self.re) if not self._b else hash((self.re, self.im))

    # -- conversion ----------------------------------------------------

    def __complex__(self):
        # int true division rounds correctly, as Fraction's float does
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_gaussian(self)


# the slots' own setters (__setattr__ refuses every assignment); faster than
# object.__setattr__, which `verify --ell 10 --wmax 10` measurably feels
_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i) / d in lowest terms, for d > 0: the one normalisation of
    every GaussianRational."""
    g = gcd(a, b, d)
    z = object.__new__(GaussianRational)
    _set_a(z, a // g)
    _set_b(z, b // g)
    _set_d(z, d // g)
    return z


def integer_horner(p, D: int, z) -> GaussianRational:
    """(p_0 + p_1 z + ... + p_n z^n) / D for integers p_m and D > 0, at a
    scalar z = (a + b*i) / d.  Horner's rule runs on the Gaussian integer
    acc <- acc (a + b*i) + p_m d^(n-m), and the sum is reduced once, as
    acc / (D d^n).  A real z (b = 0) runs the same rule on integers."""
    z = GaussianRational.of(z)
    a, b, d = z._a, z._b, z._d
    if not b:
        acc, scale = p[-1], 1
        for c in reversed(p[:-1]):
            scale *= d
            acc = acc * a + c * scale
        return _reduced(acc, 0, D * scale)
    re, im, scale = p[-1], 0, 1
    for c in reversed(p[:-1]):
        scale *= d
        re, im = re * a - im * b + c * scale, re * b + im * a
    return _reduced(re, im, D * scale)


def _operand(x):
    """x as a GaussianRational, or NotImplemented when x is no int, Fraction
    or GaussianRational: an arithmetic method returns that, so Python tries
    the other operand's reflected method."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return _reduced(x.numerator, 0, x.denominator)
    return NotImplemented


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

