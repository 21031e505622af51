"""Exact closed arithmetic for spectral functions.

Everything the local L/eps/gamma factors of unramified-type data live in:
a scalar (root of unity times an exact power of q), a monomial q^{-a s},
and multisets of geometric factors

    1 - e^{2 pi i angle} * q^{-(sdir * s + shift)}

in the numerator and denominator.  Angles and shifts are exact rationals, so
detection of zeros and poles at s = 0 is never a tolerance question;
evaluation at a given s uses floating complex arithmetic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .field import read_number


class PoleError(ArithmeticError):
    """Evaluation at a point where a denominator factor vanishes."""


class RegularizationError(ArithmeticError):
    """Regularization requested for a function with a pole at s = 0."""


class OrderMismatchError(ArithmeticError):
    """Limit requested with the wrong zero/pole order."""


def mod1(x: Fraction) -> Fraction:
    """x reduced to [0, 1): x itself when it is there already."""
    floor = x.numerator // x.denominator
    return x - floor if floor else x


def as_fraction(x) -> Fraction:
    """x itself when it is a ``Fraction`` already, else ``Fraction(x)``."""
    return x if type(x) is Fraction else Fraction(x)


def turn(num, den=None) -> Fraction:
    """An exact angle in turns, reduced to [0, 1)."""
    return mod1(Fraction(num, den) if den is not None else as_fraction(num))


@dataclass(frozen=True, order=True)
class GeometricFactor:
    """The factor 1 - e^{2 pi i angle} q^{-(sdir*s + shift)}.

    sdir = +1 gives the familiar 1 - alpha q^{-(s+shift)}; sdir = -1 encodes
    the reflected factors such as 1 - q^{s-1} appearing through L(1-s, .).
    Its floats are made in ``value``, on each call, as numerator / denominator
    (float() of the Fraction bit for bit); construction makes none.
    """

    angle: Fraction
    shift: Fraction
    sdir: int = 1

    def __post_init__(self):
        object.__setattr__(self, "angle", turn(self.angle))
        object.__setattr__(self, "shift", as_fraction(self.shift))
        if self.sdir not in (1, -1):
            raise ValueError("sdir must be +1 or -1")

    def vanishes_at_zero(self) -> bool:
        return self.angle.numerator == 0 and self.shift.numerator == 0

    def value(self, s: complex, q: int) -> complex:
        a, h = self.angle, self.shift
        return 1 - cmath.exp(2j * math.pi * (a.numerator / a.denominator)) * \
            q ** (-(self.sdir * s + h.numerator / h.denominator))

    def to_dict(self) -> dict:
        d = {"angle": str(self.angle), "shift": str(self.shift)}
        if self.sdir != 1:
            d["sdir"] = self.sdir
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "GeometricFactor":
        return cls(read_number(d["angle"]), read_number(d["shift"]),
                   read_number(d.get("sdir", 1), int))


def _sorted(factors: Iterable[GeometricFactor]) -> tuple:
    return tuple(sorted(factors, key=lambda g: (g.sdir, g.shift, g.angle)))


@dataclass(frozen=True)
class SpectralFunction:
    """scalar * q^{-exponent*s} * prod(num) / prod(den), with the exact
    scalar e^{2 pi i unit_angle} * q^{qpow}."""

    unit_angle: Fraction = Fraction(0)
    qpow: Fraction = Fraction(0)
    exponent: Fraction = Fraction(0)
    num: tuple = ()
    den: tuple = ()
    q: int = 2

    def __post_init__(self):
        object.__setattr__(self, "unit_angle", turn(self.unit_angle))
        object.__setattr__(self, "qpow", as_fraction(self.qpow))
        object.__setattr__(self, "exponent", as_fraction(self.exponent))
        object.__setattr__(self, "num", tuple(self.num))
        object.__setattr__(self, "den", tuple(self.den))

    # -- scalar ------------------------------------------------------------

    def scalar_value(self) -> complex:
        u, p = self.unit_angle, self.qpow
        return cmath.exp(2j * math.pi * (u.numerator / u.denominator)) * \
            float(self.q) ** (p.numerator / p.denominator)

    # -- algebra -----------------------------------------------------------

    def multiply(self, other: "SpectralFunction") -> "SpectralFunction":
        """Pointwise product; factor lists concatenate, nothing cancels."""
        if self.q != other.q:
            raise ValueError("cannot multiply spectral functions over different q")
        return SpectralFunction(self.unit_angle + other.unit_angle,
                                self.qpow + other.qpow,
                                self.exponent + other.exponent,
                                self.num + other.num, self.den + other.den,
                                self.q)

    __mul__ = multiply

    def inverse(self) -> "SpectralFunction":
        return SpectralFunction(-self.unit_angle, -self.qpow, -self.exponent,
                                self.den, self.num, self.q)

    def normalize(self) -> "SpectralFunction":
        """Cancel identical numerator/denominator factors and sort."""
        num = list(self.num)
        den = []
        for g in self.den:
            if g in num:
                num.remove(g)
            else:
                den.append(g)
        return SpectralFunction(self.unit_angle, self.qpow, self.exponent,
                                _sorted(num), _sorted(den), self.q)

    def is_one(self) -> bool:
        f = self.normalize()
        return (f.unit_angle == 0 and f.qpow == 0
                and f.exponent == 0 and not f.num and not f.den)

    # -- orders and values ---------------------------------------------------

    def ord_zero_at_zero(self) -> int:
        """Exact order of vanishing at s = 0 (negative means a pole)."""
        return sum(1 for g in self.num if g.vanishes_at_zero()) \
            - sum(1 for g in self.den if g.vanishes_at_zero())

    def evaluate(self, s: complex) -> complex:
        """f(s), with the scalar's q^qpow and q^{-exponent s} taken as the
        one power q^{qpow - exponent s}: finite where q^qpow alone is not.
        Where that power is past the float range, f(s) is 0 at an exact
        zero of a numerator factor, and the power's OverflowError is raised
        anywhere else."""
        u, p = self.unit_angle, self.qpow
        try:
            val = cmath.exp(2j * math.pi * (u.numerator / u.denominator)) * \
                float(self.q) ** (p.numerator / p.denominator
                                  - float(self.exponent) * s)
        except OverflowError:
            if all(g.value(s, self.q) != 0 for g in self.num):
                raise
            val = 0j
        for g in self.num:
            val *= g.value(s, self.q)
        for g in self.den:
            d = g.value(s, self.q)
            if abs(d) < 1e-14:
                raise PoleError(f"denominator factor {g} vanishes at s = {s}")
            val /= d
        return val

    def _at_zero(self) -> tuple[int, complex]:
        """(n, c) with f(s) = c (s log q)^n (1 + O(s)) as s -> 0.

        A factor vanishing at 0, 1 - q^{-sdir s}, is sdir s log q (1 + O(s))
        and contributes sdir to c; every other factor is evaluated at 0.
        """
        n, sign, c = 0, 1, self.scalar_value()
        for g in self.num:
            if g.vanishes_at_zero():
                n, sign = n + 1, sign * g.sdir
            else:
                c *= g.value(0.0, self.q)
        for g in self.den:
            if g.vanishes_at_zero():
                n, sign = n - 1, sign * g.sdir
            else:
                c /= g.value(0.0, self.q)
        return n, sign * c

    def regularized_value(self) -> complex:
        """lim_{s->0} zeta_F(s)^n f(s) where n = ord_zero_at_zero(f) >= 0:
        zeta_F(s) = 1 / (s log q) (1 + O(s)), so this is c of ``_at_zero``."""
        n, c = self._at_zero()
        if n < 0:
            raise RegularizationError("regularization undefined for poles")
        return c

    def limit_with_power(self, k: int) -> complex:
        """lim_{s->0} s^k f(s) for a function with pole order exactly k at 0:
        c (log q)^{-k}, with c of ``_at_zero``."""
        n, c = self._at_zero()
        if n != -k:
            raise OrderMismatchError(
                f"pole order at 0 is {-n}, expected {k}")
        return c * math.log(self.q) ** n

    # -- constructors and serialization --------------------------------------

    @classmethod
    def zeta(cls, q: int) -> "SpectralFunction":
        """The local zeta factor (1 - q^{-s})^{-1}."""
        return cls(den=(GeometricFactor(Fraction(0), Fraction(0)),), q=q)

    def to_dict(self) -> dict:
        s = self.scalar_value()
        return {
            "scalar": [s.real, s.imag],
            "exponent": str(self.exponent),
            "num": [g.to_dict() for g in _sorted(self.num)],
            "den": [g.to_dict() for g in _sorted(self.den)],
            "q": self.q,
        }
