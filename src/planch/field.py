"""Exact arithmetic for non-Archimedean field data.

Field elements are plain ``fractions.Fraction`` values interpreted inside a
local field of residue characteristic p; valuations, square classes and
quadratic characters are all decided exactly (no p-adic truncation).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Union

Rational = Union[int, Fraction]


class FieldError(ValueError):
    pass


def read_number(x, kind=Fraction):
    """kind(x) for a number read from input.  A value that does not parse as
    one raises TypeError, which the command line reports as malformed, and
    so do a JSON boolean, a float or complex that is not finite, and an int
    read from a number of another value (1.5 is not the int 1)."""
    try:
        v = kind(x)
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        raise TypeError(f"{x!r} is not a {kind.__name__}") from e
    if (isinstance(x, bool)
            or (kind in (float, complex) and not cmath.isfinite(v))
            or (kind is int and not isinstance(x, str) and v != x)):
        raise TypeError(f"{x!r} is not a {kind.__name__}")
    return v


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class LocalFieldSpec:
    """Residue data (p, q = p^f) and the level of the additive character."""

    p: int
    q: int
    psi_level: int = 0
    f: int = field(init=False, repr=False, compare=False)  # q = p^f

    def __post_init__(self):
        if not _is_prime(self.p):
            raise FieldError(f"p = {self.p} is not prime")
        q, f = self.q, 0
        while q % self.p == 0 and q > 1:
            q //= self.p
            f += 1
        if q != 1 or f < 1:
            raise FieldError(f"q = {self.q} is not a positive power of p = {self.p}")
        object.__setattr__(self, "f", f)

    @classmethod
    def from_dict(cls, d: dict) -> "LocalFieldSpec":
        p = read_number(d["p"], int)
        return cls(p=p, q=p ** read_number(d.get("f", 1), int),
                   psi_level=read_number(d.get("psi_level", 0), int))

    def to_dict(self) -> dict:
        return {"p": self.p, "f": self.f, "psi_level": self.psi_level}


def valuation(x: Rational, p: int) -> int:
    """Exact p-adic valuation of a nonzero rational."""
    x = Fraction(x)
    if x == 0:
        raise FieldError("valuation undefined for 0")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def unit_part_mod(x: Rational, p: int, modulus: int) -> int:
    """The unit part u of x = p^v * u reduced mod ``modulus`` (a power of p)."""
    x = Fraction(x)
    if x == 0:
        raise FieldError("unit part undefined for 0")
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
    while den % p == 0:
        den //= p
    return (num * pow(den, -1, modulus)) % modulus


def smallest_nonresidue(p: int) -> int:
    """Smallest positive quadratic non-residue mod an odd prime p."""
    if p == 2:
        raise FieldError("no canonical non-residue unit for p = 2; units are classified mod 8")
    for u in range(2, p):
        if pow(u, (p - 1) // 2, p) == p - 1:
            return u
    raise FieldError(f"no non-residue found mod {p}")  # unreachable for odd primes


@dataclass(frozen=True)
class SquareClass:
    """A coset of F^x / F^{x,2}, stored as (valuation parity, unit class).

    For odd p the unit class is 1 or the smallest positive non-residue; for
    p = 2 the unit class is the residue of the unit part mod 8.
    """

    p: int
    val_parity: int  # 0 or 1
    unit_class: int  # odd p: 1 or smallest non-residue; p = 2: 1, 3, 5 or 7

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        if self.p != other.p:
            raise FieldError("square classes over different residue characteristics")
        if self.p == 2:
            u = (self.unit_class * other.unit_class) % 8
        else:
            u = _unit_class_odd(self.unit_class * other.unit_class, self.p)
        return SquareClass(self.p, (self.val_parity + other.val_parity) % 2, u)

    def representative(self) -> int:
        """Small positive integer representing the class."""
        return self.unit_class * (self.p if self.val_parity else 1)

    def is_trivial(self) -> bool:
        return self.val_parity == 0 and self.unit_class == 1

    def __repr__(self):
        return f"SquareClass(p={self.p}, rep={self.representative()})"


def _unit_class_odd(u_mod_free: int, p: int) -> int:
    u = u_mod_free % p
    if u == 0:
        raise FieldError("not a unit")
    return 1 if pow(u, (p - 1) // 2, p) == 1 else smallest_nonresidue(p)


def square_class(x: Rational, p: int) -> SquareClass:
    """Canonical square class of a nonzero rational in the p-adic field.

    Hensel: for odd p a unit is a square iff its reduction mod p is a
    quadratic residue; for p = 2 iff its unit part is 1 mod 8.
    """
    x = Fraction(x)
    if x == 0:
        raise FieldError("square class undefined for 0")
    v = valuation(x, p) % 2
    if p == 2:
        return SquareClass(2, v, unit_part_mod(x, 2, 8))
    return SquareClass(p, v, _unit_class_odd(unit_part_mod(x, p, p), p))


def all_square_classes(p: int) -> list[SquareClass]:
    """The full class group: 4 classes for odd p, 8 for p = 2."""
    if p == 2:
        units = [1, 3, 5, 7]
    else:
        units = [1, smallest_nonresidue(p)]
    return [SquareClass(p, v, u) for v in (0, 1) for u in units]


@dataclass(frozen=True)
class QuadraticCharacter:
    """A {+1,-1}-valued multiplicative character of the square-class group."""

    p: int
    table: tuple  # tuple of ((val_parity, unit_class), value) pairs, sorted

    def __post_init__(self):
        t = dict(self.table)
        classes = all_square_classes(self.p)
        if set(t.keys()) != {(c.val_parity, c.unit_class) for c in classes}:
            raise FieldError("character table must cover every square class")
        for c1 in classes:
            for c2 in classes:
                c3 = c1 * c2
                if t[(c1.val_parity, c1.unit_class)] * t[(c2.val_parity, c2.unit_class)] \
                        != t[(c3.val_parity, c3.unit_class)]:
                    raise FieldError("character table is not multiplicative")

    @classmethod
    def _of(cls, p: int, value: Callable) -> "QuadraticCharacter":
        """The character with the value value(c) on each square class c."""
        return cls(p, tuple(sorted(((c.val_parity, c.unit_class), value(c))
                                   for c in all_square_classes(p))))

    @classmethod
    def from_dict(cls, p: int, values: dict) -> "QuadraticCharacter":
        return cls._of(p, lambda c: int(values[c.representative()]))

    @classmethod
    def trivial(cls, p: int) -> "QuadraticCharacter":
        return cls._of(p, lambda c: 1)

    @classmethod
    def unramified_quadratic(cls, p: int) -> "QuadraticCharacter":
        """x -> (-1)^{v(x)}: trivial on units, -1 on the uniformizer."""
        return cls._of(p, lambda c: (-1) ** c.val_parity)

    def on_class(self, c: SquareClass) -> int:
        if c.p != self.p:
            raise FieldError("class/character residue characteristic mismatch")
        return dict(self.table)[(c.val_parity, c.unit_class)]

    def __call__(self, x: Rational) -> int:
        return self.on_class(square_class(x, self.p))

    def unramified_angle(self) -> Fraction:
        """Turn angle of the unramified part: 0 if chi(pi) = 1 else 1/2."""
        pi_cls = square_class(self.p, self.p)
        return Fraction(0) if self.on_class(pi_cls) == 1 else Fraction(1, 2)


def gamma_trivial(spec: LocalFieldSpec):
    """The gamma factor of the trivial atom (the trivial character),
    q^{n(1/2-s)} (1-q^{-s}) / (1-q^{s-1}), built as ``gamma_parts`` gives
    it for the one atom (0, 1): the unit angle 0, qpow n/2 and exponent n."""
    from .spectral import GeometricFactor, SpectralFunction

    n = spec.psi_level
    return SpectralFunction(
        qpow=Fraction(n, 2), exponent=Fraction(n),
        num=(GeometricFactor(Fraction(0), Fraction(0)),),
        den=(GeometricFactor(Fraction(0), Fraction(1), -1),), q=spec.q)


def gamma_star_trivial(spec: LocalFieldSpec):
    """Regularized value q^{n/2} (1 - q^{-1})^{-1}; exact Fraction whenever
    q^{n/2} is rational, float otherwise."""
    n = spec.psi_level
    zeta1 = Fraction(1) / (1 - Fraction(1, spec.q))
    if (spec.f * n) % 2 == 0 or _is_square(spec.q):
        # q^{n/2} rational: q = p^f with f*n even, or q itself a square
        root = _exact_q_halfpower(spec.q, n)
        return root * zeta1
    return float(spec.q) ** (n / 2.0) * float(zeta1)


def _is_square(q: int) -> bool:
    r = int(q ** 0.5)
    return r * r == q or (r + 1) * (r + 1) == q


def _exact_q_halfpower(q: int, n: int) -> Fraction:
    if n % 2 == 0:
        return Fraction(q) ** (n // 2)
    r = int(round(q ** 0.5))
    if r * r != q:
        raise FieldError("q^{n/2} is irrational here")
    return Fraction(r) ** n
