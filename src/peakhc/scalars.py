"""Exact scalars: arbitrary-precision rationals extended by a square root of -1.

All module-theoretic linear algebra in this package runs over Q(i), because
the even idempotents that split induced simple supermodules involve sqrt(-1).
Every exact rational in the package, a Hopf-side coefficient or a component
of a ``GaussianRational``, goes through one coercion, ``_rational``: it stays
``int`` while it is integral and becomes ``fractions.Fraction`` only after a
real division.  Structure constants of the 0-Hecke-Clifford algebra, the
actions of induced supermodules and almost all Hopf basis-change tables are
integral, and ``int`` arithmetic is far cheaper than ``Fraction`` arithmetic.
Floats are rejected.  ``GaussianRational`` mixes freely with ``int`` and
``Fraction`` in arithmetic expressions; instances are immutable by
convention and hashable.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["GaussianRational", "as_gauss", "GAUSS_ZERO", "GAUSS_ONE", "GAUSS_I"]

def _rational(x):
    """An exact rational as ``int`` when integral, else as ``Fraction``.

    A ``Fraction`` with denominator 1 becomes its numerator, and ``bool``
    becomes plain ``int``; floats and everything else raise TypeError.
    """
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError("expected an exact rational, got %r" % (x,))


class GaussianRational:
    """An element re + im*i of Q(i), exact and immutable."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is int else _rational(re)
        self.im = im if type(im) is int else _rational(im)

    # -- ring structure ----------------------------------------------------

    # A GaussianRational operand is read directly, and an int or Fraction
    # one as a real number, so neither is first promoted through _coerce.

    def __add__(self, other):
        if type(other) is GaussianRational:
            return GaussianRational(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is GaussianRational:
            return GaussianRational(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if type(other) is GaussianRational:
            ore, oim = other.re, other.im
            if not oim and not self.im:
                return GaussianRational(self.re * ore)
            return GaussianRational(
                self.re * ore - self.im * oim,
                self.re * oim + self.im * ore,
            )
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other if self.im else 0)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        # Fraction(x) / y: int / int must never give a float
        if not o.im:
            return GaussianRational(
                Fraction(self.re) / o.re, Fraction(self.im) / o.re
            )
        nrm = o.re * o.re + o.im * o.im
        return GaussianRational(
            Fraction(self.re * o.re + self.im * o.im) / nrm,
            Fraction(self.im * o.re - self.re * o.im) / nrm,
        )

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- predicates / comparisons ------------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if type(other) is GaussianRational:
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        # agrees with hash(int/Fraction) when the value is real
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def is_rational(self) -> bool:
        return not self.im

    def rational(self) -> int | Fraction:
        """The value as ``int`` when integral, else as ``Fraction``; raises
        ValueError when the imaginary part is nonzero."""
        if self.im:
            raise ValueError("value %s has a nonzero imaginary part" % self)
        return self.re

    # -- display -------------------------------------------------------------

    def __repr__(self):
        return "GaussianRational(%r, %r)" % (str(self.re), str(self.im))

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return _imag_str(self.im)
        sign = "+" if self.im > 0 else "-"
        return "%s%s%s" % (self.re, sign, _imag_str(abs(self.im)))


def _imag_str(im: int | Fraction) -> str:
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return "%si" % im


def _coerce(x):
    if type(x) is GaussianRational:
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return None


def as_gauss(x) -> GaussianRational:
    """Promote an int / Fraction / GaussianRational to a GaussianRational."""
    g = _coerce(x)
    if g is None:
        raise TypeError("cannot interpret %r as a Gaussian rational" % (x,))
    return g


GAUSS_ZERO = GaussianRational(0)
GAUSS_ONE = GaussianRational(1)
GAUSS_I = GaussianRational(0, 1)
