"""Exact scalars: arbitrary-precision rationals extended by a square root of -1.

All module-theoretic linear algebra in this package runs over Q(i), because
the even idempotents that split induced simple supermodules involve sqrt(-1).
A value of Q(i) has one representation.  A real value is ``int`` while it
is integral and ``fractions.Fraction`` otherwise; only a value with a nonzero
imaginary part is a ``GaussianRational``.  Every exact rational, a real
value or a component of a ``GaussianRational``, goes through one coercion,
``_rational``, and every ``GaussianRational`` operation returns through one
constructor, ``gaussian``, which demotes a real result.  Structure constants
of the 0-Hecke-Clifford algebra, the actions of induced supermodules and
almost all Hopf basis-change tables are integral, and ``int`` arithmetic is
far cheaper than ``Fraction`` or ``GaussianRational`` arithmetic.  Floats
are rejected.  ``as_gauss`` reads any scalar as a ``GaussianRational`` with
``.re`` and ``.im``; it is the one place where a real value is promoted.
``GaussianRational`` mixes freely with ``int`` and ``Fraction`` in
arithmetic expressions; instances are immutable by convention and hashable.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["GaussianRational", "gaussian", "as_scalar", "as_gauss", "GAUSS_I"]

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
    """An element re + im*i of Q(i), exact and immutable.

    The program builds one only for a nonzero imaginary part, through
    ``gaussian``; ``as_gauss`` also builds real ones, to read components.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is int else _rational(re)
        self.im = im if type(im) is int else _rational(im)

    # -- ring structure ----------------------------------------------------

    # A GaussianRational operand is read directly, and an int or Fraction
    # one as a real number, so neither is first promoted; every result
    # comes back through gaussian, so a real one is int or Fraction.

    def __add__(self, other):
        if type(other) is GaussianRational:
            return gaussian(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return gaussian(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is GaussianRational:
            return gaussian(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return gaussian(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return gaussian(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if type(other) is GaussianRational:
            ore, oim = other.re, other.im
            return gaussian(
                self.re * ore - self.im * oim,
                self.re * oim + self.im * ore,
            )
        if isinstance(other, (int, Fraction)):
            return gaussian(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is GaussianRational:
            ore, oim = other.re, other.im
        elif isinstance(other, (int, Fraction)):
            ore, oim = other, 0
        else:
            return NotImplemented
        # Fraction(x) / y: int / int must never give a float
        if not oim:
            return gaussian(Fraction(self.re) / ore, Fraction(self.im) / ore)
        nrm = ore * ore + oim * oim
        return gaussian(
            Fraction(self.re * ore + self.im * oim) / nrm,
            Fraction(self.im * ore - self.re * oim) / nrm,
        )

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        nrm = self.re * self.re + self.im * self.im
        return gaussian(Fraction(other * self.re) / nrm, Fraction(-other * self.im) / nrm)

    def __neg__(self):
        return gaussian(-self.re, -self.im)

    def __pos__(self):
        return gaussian(self.re, self.im)

    def conjugate(self):
        return gaussian(self.re, -self.im)

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


def gaussian(re, im=0):
    """The value re + im*i in its one representation: a ``GaussianRational``
    when ``im`` is nonzero, else ``re`` as ``int`` while it is integral and
    as ``Fraction`` otherwise."""
    if im:
        return GaussianRational(re, im)
    return re if type(re) is int else _rational(re)


def as_scalar(x):
    """An int / Fraction / GaussianRational in the one representation."""
    if type(x) is GaussianRational:
        return x if x.im else _rational(x.re)
    return _rational(x)


def as_gauss(x) -> GaussianRational:
    """Promote an int / Fraction / GaussianRational to a GaussianRational,
    whose ``.re`` and ``.im`` can be read."""
    if type(x) is GaussianRational:
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError("cannot interpret %r as a Gaussian rational" % (x,))


def _gauss_json(x) -> dict:
    """The JSON form {"re": str, "im": str} of a scalar of Q(i)."""
    g = as_gauss(x)
    return {"re": str(g.re), "im": str(g.im)}


def _gauss_from_json(d, where: str):
    """The scalar of a JSON form written by ``_gauss_json``; ValueError,
    naming ``where``, on anything else."""
    if not isinstance(d, dict) or not d.keys() >= {"re", "im"}:
        raise ValueError("%s is %r, not an object with 're' and 'im'" % (where, d))
    return gaussian(Fraction(d["re"]), Fraction(d["im"]))


GAUSS_I = GaussianRational(0, 1)
