"""Weil-Deligne representations built from unramified atoms.

An atom is (unramified character angle u) tensor Sp(m): the character takes
the value e^{2 pi i u} at a uniformizer and Sp(m) is the m-dimensional
irreducible of the SL_2 factor.  Representations are multisets of atoms.

The multiset calculus (tensor, dual, Sym^2, wedge^2, adjoint) only ever adds
and negates angles, so the worker functions below are written against a
generic angle type: the integer numerators k of the angles k/N of a public
``WDRep`` over one common denominator N, exact ``Fraction`` turns, affine
angle forms, and the affine angles of a torus family packed into one integer
each over its common denominator (``limitcheck.FactorProgram.compile``).

A ``WDRep`` keeps those numerators and N as its ``_form``: one built from
atoms derives it once, ``from_numerators`` is given it, so a plethysm chain
and its gamma factor stay in integers and build each object from fields
already reduced, equal to what the public constructors build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Tuple

from .field import LocalFieldSpec, read_number
from .spectral import GeometricFactor, SpectralFunction, mod1, reduced, turn

Atom = Tuple[object, int]  # (angle, sp-dimension)

SELF_DUAL_NONE = "none"
SELF_DUAL_ORTHOGONAL = "orthogonal"
SELF_DUAL_SYMPLECTIC = "symplectic"
SELF_DUAL_BOTH = "orthogonal_and_symplectic"


# -- SL_2 plethysm on dimensions only ---------------------------------------

def sp_tensor(m: int, n: int) -> list[int]:
    """Clebsch-Gordan: Sp(m) x Sp(n) = sum of Sp(m+n-1-2j)."""
    if m < 1 or n < 1:
        raise ValueError("Sp dimensions must be >= 1")
    return [m + n - 1 - 2 * j for j in range(min(m, n))]


def sp_sym2(m: int) -> list[int]:
    """Sym^2 Sp(m) = Sp(2m - 1) + Sp(2m - 5) + ..."""
    return list(range(2 * m - 1, 0, -4))


def sp_wedge2(m: int) -> list[int]:
    """wedge^2 Sp(m) = Sp(2m - 3) + Sp(2m - 7) + ..."""
    return list(range(2 * m - 3, 0, -4))


# -- atom-list calculus (angle-generic) --------------------------------------

def tensor_atoms(a: Sequence[Atom], b: Sequence[Atom]) -> list[Atom]:
    out = []
    for (u, m) in a:
        for (v, n) in b:
            w = u + v
            out.extend((w, k) for k in sp_tensor(m, n))
    return out


def dual_atoms(a: Sequence[Atom]) -> list[Atom]:
    return [(-u, m) for (u, m) in a]


def _square_atoms(a: Sequence[Atom], own) -> list[Atom]:
    """Sym^2 or wedge^2 of an atom list: each atom's own square, ``own``
    (sp_sym2 or sp_wedge2) at twice its angle, and each pair of atoms'
    tensor product."""
    out = []
    atoms = list(a)
    for i, (u, m) in enumerate(atoms):
        out.extend((u + u, k) for k in own(m))
        for (v, n) in atoms[i + 1:]:
            out.extend((u + v, k) for k in sp_tensor(m, n))
    return out


def sym2_atoms(a: Sequence[Atom]) -> list[Atom]:
    return _square_atoms(a, sp_sym2)


def wedge2_atoms(a: Sequence[Atom]) -> list[Atom]:
    return _square_atoms(a, sp_wedge2)


def ad_atoms(a: Sequence[Atom]) -> list[Atom]:
    return tensor_atoms(a, dual_atoms(a))


def ad_over_center_atoms(a: Sequence[Atom]) -> list[Atom]:
    """ad_atoms(a) without one trivial atom: the last term, Sp(1) at angle
    u - u, of the first atom's Clebsch-Gordan series Sp(m0) x Sp(m0), which
    is at index m0 - 1."""
    out = ad_atoms(a)
    del out[a[0][1] - 1]
    return out


# -- local factors of an atom list -------------------------------------------

def gamma_parts(atoms: Sequence[Atom], psi_level: int):
    """Monomial and factor data of gamma(s, rho, psi) for an atom list.

    Returns (unit_angle, qpow, exponent, num, den) where num/den are lists of
    (angle, shift, sdir) triples for factors 1 - e(angle) q^{-(sdir*s+shift)}.
    For the atom (u, m) with r = (m-1)/2 and n = psi_level:

        eps  = e(u)^{nm} q^{nm(1/2-s)} * (-e(u) q^{1/2-s})^{m-1}
        num <- 1 - e(u) q^{-(s+r)}            (from 1/L(s, rho))
        den <- 1 - e(-u) q^{-(1-s+r)}         (from L(1-s, rho dual))

    The monodromy part of eps is det(-Frob q^{-s} | V^I / V_N^I); the naive
    recipe without the q^{1/2} weight fails the functional equation.

    How it accumulates: per Sp size m it keeps the atom count, the sum of
    the angles, r and 1 + r, so r and 1 + r are built once per size and
    shared by its atoms.  The integer sums of n*m + m - 1 and of m - 1 over
    the atoms give exponent, qpow = exponent / 2 and the half-integer part
    of unit_angle with one ``Fraction`` each, and that part is added last to
    the sizes' angle sums times n*m + m - 1: an int on integer numerators.
    Per atom an exact call builds the stored -u and one partial angle sum,
    nothing else.  No dict is keyed by an angle: a ``Fraction`` hashes slowly.
    """
    n = psi_level
    sizes = {}  # m -> [atom count, sum of the angles, r, 1 + r]
    num, den = [], []
    for (u, m) in atoms:
        acc = sizes.get(m)
        if acc is None:
            acc = sizes[m] = [0, u, Fraction(m - 1, 2), Fraction(m + 1, 2)]
        else:
            acc[1] = acc[1] + u
        acc[0] += 1
        num.append((u, acc[2], 1))
        den.append((-u, acc[3], -1))
    weights = sum(count * (n * m + m - 1) for m, (count, *_) in sizes.items())
    halves = sum(count * (m - 1) for m, (count, *_) in sizes.items())
    terms = [total * (n * m + m - 1) for m, (_, total, *_) in sizes.items()]
    unit = sum(terms[1:], terms[0]) + Fraction(halves, 2) if terms else \
        Fraction(0)
    return unit, Fraction(weights, 2), Fraction(weights), num, den


# -- the public representation type -------------------------------------------


@dataclass(frozen=True)
class WDAtom:
    angle: Fraction
    sp: int = 1

    def __post_init__(self):
        object.__setattr__(self, "angle", turn(self.angle))
        if self.sp < 1:
            raise ValueError("Sp dimension must be >= 1")

    def is_self_dual(self) -> bool:
        return self.angle.denominator <= 2

    def self_duality(self) -> str:
        if not self.is_self_dual():
            return SELF_DUAL_NONE
        return SELF_DUAL_ORTHOGONAL if self.sp % 2 == 1 else SELF_DUAL_SYMPLECTIC

    def dual(self) -> "WDAtom":
        return WDAtom(-self.angle, self.sp)


def _key(atom: WDAtom):
    return (atom.sp, atom.angle)


def from_numerators(pairs: Iterable[Atom], n: int, calculus=list) -> WDRep:
    """The WDRep of ``calculus`` of (k, sp) pairs with angles k/N, built in
    order: the ints (sp, k mod N) order as ``_key`` does.  Equal pairs share
    one atom, and the pairs reduced mod N are its ``_form``."""
    atoms, form, prev = [], [], None
    for key in sorted([(m, k % n) for k, m in calculus(pairs)]):
        if key != prev:
            prev, atom = key, reduced(WDAtom, angle=Fraction(key[1], n),
                                      sp=key[0])
        atoms.append(atom)
        form.append((key[1], key[0]))
    return reduced(WDRep, atoms=tuple(atoms), _form=(form, n))


@dataclass(frozen=True)
class WDRep:
    """A multiset of atoms in ``_key`` order, with ``_form``: the (k, sp)
    numerators of their angles k/N in atom order, and N, never changed."""

    atoms: tuple

    def __post_init__(self):
        atoms = tuple(sorted(self.atoms, key=_key))
        n = math.lcm(*(a.angle.denominator for a in atoms))
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "_form", (
            [(a.angle.numerator * (n // a.angle.denominator), a.sp)
             for a in atoms], n))

    @classmethod
    def of(cls, *pairs) -> "WDRep":
        return cls.from_atom_list(pairs)

    @classmethod
    def from_atom_list(cls, atoms: Iterable[Atom]) -> "WDRep":
        return cls(tuple(WDAtom(u, m) for (u, m) in atoms))

    @property
    def dim(self) -> int:
        return sum(a.sp for a in self.atoms)

    def __add__(self, other: "WDRep") -> "WDRep":
        return WDRep(self.atoms + other.atoms)

    def dual(self) -> "WDRep":
        return from_numerators(*self._form, dual_atoms)

    def tensor(self, other: "WDRep") -> "WDRep":
        (a, n), (b, m) = self._form, other._form
        lcm = math.lcm(n, m)
        return from_numerators(tensor_atoms(
            [(k * (lcm // n), sp) for k, sp in a],
            [(k * (lcm // m), sp) for k, sp in b]), lcm)

    def sym2(self) -> "WDRep":
        return from_numerators(*self._form, sym2_atoms)

    def wedge2(self) -> "WDRep":
        return from_numerators(*self._form, wedge2_atoms)

    def ad(self) -> "WDRep":
        """rho tensor rho-dual: the full adjoint of the ambient linear group."""
        return from_numerators(*self._form, ad_atoms)

    def ad_over_center(self) -> "WDRep":
        """Adjoint on the trace-zero part: ad() minus one trivial atom."""
        if self.dim == 0:
            raise ValueError("adjoint of the zero representation")
        return from_numerators(*self._form, ad_over_center_atoms)

    def determinant(self) -> Fraction:
        """Angle of the determinant character: sum of m * angle, mod 1."""
        return mod1(sum((a.sp * a.angle for a in self.atoms), Fraction(0)))

    # -- self-duality and component groups ---------------------------------

    def is_self_dual(self) -> bool:
        return self.atoms == self.dual().atoms  # both sorted on construction

    def self_duality(self) -> str:
        if not self.is_self_dual():
            return SELF_DUAL_NONE
        counts = {}
        for a in self.atoms:
            counts[a] = counts.get(a, 0) + 1
        orth_ok = all(c % 2 == 0 for a, c in counts.items()
                      if a.self_duality() == SELF_DUAL_SYMPLECTIC)
        symp_ok = self.dim % 2 == 0 and all(
            c % 2 == 0 for a, c in counts.items()
            if a.self_duality() == SELF_DUAL_ORTHOGONAL)
        if orth_ok and symp_ok:
            return SELF_DUAL_BOTH
        if orth_ok:
            return SELF_DUAL_ORTHOGONAL
        if symp_ok:
            return SELF_DUAL_SYMPLECTIC
        # self-dual of mixed type, e.g. Sp(2) + 1: every invariant
        # nondegenerate form mixes symmetric and alternating blocks, so the
        # parameter factors through neither classical group
        return SELF_DUAL_NONE

    def component_groups(self) -> tuple[int, int, int]:
        """(|S^+|, |S|, fiber ratio) of the centralizer component groups.

        |S^+| = 2^K for K the number of distinct orthogonal-type constituents;
        passing to the special orthogonal group halves the count exactly when
        some orthogonal-type constituent has odd dimension.  The fiber ratio
        2|S| / |S^+| is 1 or 2.
        """
        sd = self.self_duality()
        if sd not in (SELF_DUAL_ORTHOGONAL, SELF_DUAL_BOTH):
            raise ValueError("component groups only defined for orthogonal parameters")
        orth_constituents = {a for a in self.atoms
                             if a.self_duality() == SELF_DUAL_ORTHOGONAL}
        k = len(orth_constituents)
        s_plus = 2 ** k
        if any(a.sp % 2 == 1 for a in orth_constituents):
            s = 2 ** (k - 1)
        else:
            s = 2 ** k
        ratio = 2 * s // s_plus
        return s_plus, s, ratio

    # -- local factors -------------------------------------------------------

    def gamma_factor(self, spec: LocalFieldSpec) -> SpectralFunction:
        """gamma_parts on the numerators k of angles k/N gives the unit h/2 + K
        (h = exponent - psi_level dim) of the angle (2 unit + h (N - 1)) / 2N,
        reduced mod 1 in integers.  A num factor keeps its atom's angle, a den
        factor takes an atom's angle (-k mod N) / N if there is one, a repeated
        atom shares both, and no field is normalised again."""
        pairs, n = self._form
        unit, qpow, exponent, num, den = gamma_parts(pairs, spec.psi_level)
        h = exponent.numerator - spec.psi_level * self.dim
        twice = unit.numerator * (2 // unit.denominator) + h * (n - 1)
        angles = {k: a.angle for (k, _), a in zip(pairs, self.atoms)}
        factors, prev = [], None
        for a, (_, r, sd), (k, r1, sd1) in zip(self.atoms, num, den):
            if a is not prev:
                k %= n
                prev, pair = a, (
                    reduced(GeometricFactor, angle=a.angle, shift=r, sdir=sd),
                    reduced(GeometricFactor, angle=angles[k] if k in angles
                            else Fraction(k, n), shift=r1, sdir=sd1))
            factors.append(pair)
        return reduced(
            SpectralFunction, unit_angle=Fraction(twice % (2 * n), 2 * n),
            qpow=qpow, exponent=exponent, num=tuple(f for f, _ in factors),
            den=tuple(g for _, g in factors), q=spec.q)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {"atoms": [{"angle": str(a.angle), "sp": a.sp} for a in self.atoms]}

    @classmethod
    def from_dict(cls, d: dict) -> "WDRep":
        return cls(tuple(WDAtom(read_number(a["angle"]),
                                read_number(a.get("sp", 1), int))
                         for a in d["atoms"]))

    def __repr__(self):
        terms = " + ".join(f"{a.angle}*Sp({a.sp})" for a in self.atoms)
        return f"WDRep({terms or '0'})"


def parse_rep_text(text: str) -> WDRep:
    """Parse compact text like ``1/3*Sp(2) + 0*Sp(1) + 1/2``."""
    atoms = []
    for raw in text.split("+"):
        term = raw.strip()
        if not term:
            raise ValueError(f"empty term in {text!r}")
        angle, sp = Fraction(0), 1
        if "*" in term:
            left, right = (t.strip() for t in term.split("*", 1))
            angle = Fraction(left)
            sp = _parse_sp(right)
        elif term.lower().startswith("sp("):
            sp = _parse_sp(term)
        else:
            angle = Fraction(term)
        atoms.append(WDAtom(angle, sp))
    return WDRep(tuple(atoms))


def _parse_sp(term: str) -> int:
    t = term.strip()
    if not (t.lower().startswith("sp(") and t.endswith(")")):
        raise ValueError(f"expected Sp(m), got {term!r}")
    return int(t[3:-1])
