"""Exact Gaussian-rational scalars, the coefficient field of every symbolic
computation in the package.  A value is one integer triple ``parts()`` =
(a, b, d) meaning (a + b*i)/d, in canonical form: d > 0 and gcd(a, b, d) = 1
(zero is (0, 0, 1)); values are immutable and hashable.

Soundness: scaling a triple by a nonzero integer keeps its value, and d > 0
with gcd(a, b, d) = 1 fixes the scale, so each value of Q(i) has exactly one
canonical triple and equality is equality of triples.  Each operation is an
exact identity of Q(i) on the integers, such as (a1 + b1 i)/d1 * (a2 + b2 i)/d2
= ((a1 a2 - b1 b2) + (a1 b2 + b1 a2) i)/(d1 d2); one division by gcd(a, b, d),
skipped when d = 1, restores the canonical form.  Then d is the lcm of the
reduced denominators of ``re`` and ``im``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class GaussRational:
    """``(a + b*i)/d`` with integers a, b, d in canonical form."""

    __slots__ = ("_abd",)

    def __new__(cls, re=0, im=0):
        if type(re) is int and type(im) is int:
            return _reduced(re, im, 1)
        for x in (re, im):
            if not isinstance(x, (int, str, Fraction)):
                raise TypeError(f"cannot build an exact rational from {type(x).__name__}")
        re, im = Fraction(re), Fraction(im)
        p, q = re.denominator, im.denominator
        return _reduced(re.numerator * q, im.numerator * p, p * q)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

    def __reduce__(self):
        return _reduced, self._abd

    @staticmethod
    def coerce(x) -> "GaussRational":
        if isinstance(x, GaussRational):
            return x
        if isinstance(x, int):
            return _reduced(int(x), 0, 1)
        if isinstance(x, Fraction):
            return _reduced(x.numerator, 0, x.denominator)
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussRational")

    @staticmethod
    def i() -> "GaussRational":
        return _reduced(0, 1, 1)

    def parts(self) -> tuple:
        """The canonical triple (a, b, d) of (a + b*i)/d."""
        return self._abd

    re = property(lambda self: Fraction(self._abd[0], self._abd[2]),
                  doc="The real part a/d, a Fraction.")
    im = property(lambda self: Fraction(self._abd[1], self._abd[2]),
                  doc="The imaginary part b/d, a Fraction.")

    def __add__(self, other):
        if type(other) is not GaussRational:
            other = GaussRational.coerce(other)
        a1, b1, d1 = self._abd
        a2, b2, d2 = other._abd
        if d1 == d2:
            return _reduced(a1 + a2, b1 + b2, d1)
        return _reduced(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussRational:
            other = GaussRational.coerce(other)
        a1, b1, d1 = self._abd
        a2, b2, d2 = other._abd
        if d1 == d2:
            return _reduced(a1 - a2, b1 - b2, d1)
        return _reduced(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)

    def __rsub__(self, other):
        return GaussRational.coerce(other) - self

    def __neg__(self):
        a, b, d = self._abd
        return _reduced(-a, -b, d)

    def __mul__(self, other):
        a1, b1, d1 = self._abd
        if type(other) is int:
            return _reduced(a1 * other, b1 * other, d1)
        if type(other) is not GaussRational:
            other = GaussRational.coerce(other)
        a2, b2, d2 = other._abd
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussRational:
            other = GaussRational.coerce(other)
        a1, b1, d1 = self._abd
        a2, b2, d2 = other._abd
        if not a2 and not b2:
            raise ZeroDivisionError("division by zero GaussRational")
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2,
                        d1 * (a2 * a2 + b2 * b2))

    def __rtruediv__(self, other):
        return GaussRational.coerce(other) / self

    def conj(self) -> "GaussRational":
        a, b, d = self._abd
        return _reduced(a, -b, d)

    def is_zero(self) -> bool:
        return not self._abd[0] and not self._abd[1]

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if type(other) is GaussRational:
            return self._abd == other._abd
        if isinstance(other, int):
            return self._abd == (other, 0, 1)
        if isinstance(other, Fraction):
            return self._abd == (other.numerator, 0, other.denominator)
        return NotImplemented

    def __hash__(self):
        # a real value hashes as the equal int or Fraction does
        a, b, d = self._abd
        if not b:
            return hash(a) if d == 1 else hash(Fraction(a, d))
        return hash((a, b) if d == 1 else (Fraction(a, d), Fraction(b, d)))

    def __complex__(self):
        a, b, d = self._abd
        return complex(a / d, b / d)

    def __repr__(self):
        re, im = self.re, self.im
        if im == 0:
            return f"{re}"
        if re == 0:
            return f"{im}*i"
        return f"({re}{'+' if im > 0 else ''}{im}*i)"


_new, _set = object.__new__, GaussRational._abd.__set__


def _reduced(a: int, b: int, d: int) -> GaussRational:
    """(a + b*i)/d for d > 0, brought to canonical form."""
    if d != 1 and (g := gcd(a, b, d)) != 1:
        a, b, d = a // g, b // g, d // g
    x = _new(GaussRational)
    _set(x, (a, b, d))
    return x


ZERO = GaussRational(0)
ONE = GaussRational(1)
