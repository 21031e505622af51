"""Reference constructions that only the tests use: brute-force counts,
explicit families and the input formats that planch itself does not read.
"""

from __future__ import annotations

import math
from fractions import Fraction

from planch.field import (FieldError, QuadraticCharacter, SquareClass,
                          all_square_classes, read_number, smallest_nonresidue)
from planch.forms import BilForm, gamma_t_representative, mat
from planch.limitcheck import AffineAngle, FactorProgram, _packed_atoms
from planch.spectral import GeometricFactor, SpectralFunction, as_fraction
from planch.wdrep import SELF_DUAL_ORTHOGONAL, WDRep, gamma_parts


def component_groups_brute_force(rep: WDRep) -> tuple[int, int]:
    """Enumerate sign vectors on the distinct orthogonal-type constituents
    and count those with trivial determinant parity: (|S+|, |S|)."""
    orth = sorted({a for a in rep.atoms
                   if a.self_duality() == SELF_DUAL_ORTHOGONAL},
                  key=lambda a: (a.sp, a.angle))
    total, in_so = 0, 0
    for mask in range(2 ** len(orth)):
        total += 1
        det = 1
        for i, a in enumerate(orth):
            if (mask >> i) & 1:
                det *= (-1) ** a.sp
        if det == 1:
            in_so += 1
    return total, in_so


def closure_family_member(t: SquareClass, d: int, lam) -> BilForm:
    """Ad(a_lambda^{-1}) applied to gamma_t_representative(t, d): reciprocal
    scaling on a symplectic pair fixes the alternating part while the
    rank-one symmetric part dies like lambda^2, landing on gamma_0 at
    lambda = 0 (even d)."""
    if d % 2 != 0:
        raise ValueError("the closure family needs even d")
    lam = Fraction(lam)
    base = gamma_t_representative(t, d)
    scale = [Fraction(1)] * d
    scale[0] = lam
    if lam != 0:
        scale[1] = Fraction(1) / lam
    out = [[base.gram[i][j] * scale[i] * scale[j] for j in range(d)]
           for i in range(d)]
    if lam == 0:  # the entrywise limit: the symmetric block vanishes
        out[0][1], out[1][0] = Fraction(1, 2), Fraction(-1, 2)
    return BilForm(mat(out))


def character_from_values(p: int, on_unit: int,
                          on_pi: int) -> QuadraticCharacter:
    """Odd p only: the character with the value on_unit on the non-residue
    unit and on_pi on p."""
    if p == 2:
        raise FieldError("for p = 2 build the character from its full table")
    u = smallest_nonresidue(p)
    return QuadraticCharacter.from_dict(p, {
        c.representative(): on_pi ** c.val_parity
        * (on_unit if c.unit_class == u else 1)
        for c in all_square_classes(p)})


def as_affine(x, nfree: int) -> AffineAngle:
    """x as an affine angle over nfree free coordinates: a number is a
    constant angle."""
    if isinstance(x, AffineAngle):
        return x
    return AffineAngle(as_fraction(x), (0,) * nfree)


def compile_affine(atoms, spec, nfree: int,
                   regularize: bool) -> FactorProgram:
    """``FactorProgram.compile`` on atoms whose angles are ``AffineAngle``s
    or numbers, packed over their common denominator."""
    atoms = [(as_affine(u, nfree), m) for u, m in atoms]
    den = math.lcm(*(a.const.denominator for a, _ in atoms))
    return FactorProgram.compile(_packed_atoms(atoms, den), spec, nfree,
                                 regularize, den)


def is_one(f: SpectralFunction) -> bool:
    """f is the constant 1 once identical numerator and denominator factors
    cancel."""
    f = f.normalize()
    return (f.unit_angle == 0 and f.qpow == 0
            and f.exponent == 0 and not f.num and not f.den)


def factor_from_dict(d: dict) -> GeometricFactor:
    """The factor of one entry of ``SpectralFunction.to_dict``'s num or den."""
    return GeometricFactor(read_number(d["angle"]), read_number(d["shift"]),
                           read_number(d.get("sdir", 1), int))


def l_factor(rep: WDRep, spec) -> SpectralFunction:
    """L(s, rep): one factor 1 - e(u) q^{-(s + (m - 1)/2)} per atom in den."""
    den = tuple(GeometricFactor(a.angle, Fraction(a.sp - 1, 2))
                for a in rep.atoms)
    return SpectralFunction(den=den, q=spec.q)


def eps_factor(rep: WDRep, spec) -> SpectralFunction:
    """eps(s, rep, psi): the monomial part of ``gamma_parts``."""
    atoms = [(a.angle, a.sp) for a in rep.atoms]
    unit, qpow, exponent, _, _ = gamma_parts(atoms, spec.psi_level)
    return SpectralFunction(unit_angle=unit, qpow=qpow, exponent=exponent,
                            q=spec.q)
