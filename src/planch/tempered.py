"""Bookkeeping for the tempered dual of GL_d.

Points are (Levi shape, per-block twisted-Steinberg data, imaginary twist),
densities come from regularized adjoint gamma factors, and the orthogonal
locus is described by triples grouping blocks into dual pairs (In),
symplectic self-dual atoms (Is) and orthogonal self-dual atoms (Io).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .field import LocalFieldSpec, QuadraticCharacter, read_number
from .spectral import mod1, turn
from .wdrep import (SELF_DUAL_BOTH, SELF_DUAL_ORTHOGONAL, SELF_DUAL_SYMPLECTIC,
                    WDAtom, WDRep)


class CentralCharacterMismatch(ValueError):
    pass


def multiplicity_order(keys) -> int:
    """The product of the factorials of the multiplicities of the keys: the
    order of the group that permutes equal keys among themselves."""
    return math.prod(math.factorial(c) for c in Counter(keys).values())


@dataclass(frozen=True)
class TempBlock:
    """One GL_k block carrying the twisted Steinberg St_k(u), twisted by an
    extra unitary unramified angle."""

    k: int
    angle: Fraction
    twist: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "angle", turn(self.angle))
        object.__setattr__(self, "twist", turn(self.twist))
        if self.k < 1:
            raise ValueError("block size must be >= 1")

    @property
    def effective_angle(self) -> Fraction:
        return mod1(self.angle + self.twist)


@dataclass(frozen=True)
class TempPoint:
    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise ValueError("a tempered point needs at least one block")

    @classmethod
    def of(cls, *blocks) -> "TempPoint":
        return cls(tuple(TempBlock(k, u, t) for (k, u, t) in blocks))

    @property
    def d(self) -> int:
        return sum(b.k for b in self.blocks)

    def shape(self) -> tuple:
        return tuple(b.k for b in self.blocks)

    def central_angle(self) -> Fraction:
        return self.parameter().determinant()

    def parameter(self) -> WDRep:
        return WDRep(tuple(WDAtom(b.effective_angle, b.k) for b in self.blocks))

    def weyl_order(self) -> int:
        """|W(M, sigma)|: blocks of one size and one angle permute."""
        return multiplicity_order((b.k, b.effective_angle) for b in self.blocks)

    def to_dict(self) -> dict:
        return {"blocks": [{"k": b.k, "angle": str(b.angle),
                            "twist": str(b.twist)} for b in self.blocks]}

    @classmethod
    def from_dict(cls, d: dict) -> "TempPoint":
        return cls(tuple(TempBlock(read_number(b["k"], int),
                                   read_number(b["angle"]),
                                   read_number(b.get("twist", 0)))
                         for b in d["blocks"]))


def plancherel_density(pt: TempPoint, spec: LocalFieldSpec) -> complex:
    """omega(-1)^{d-1} gamma*(Ad) with omega(-1) = 1 for unramified points."""
    return pt.parameter().ad().gamma_factor(spec).regularized_value()


def plancherel_density_chi(pt: TempPoint, chi: QuadraticCharacter,
                           spec: LocalFieldSpec) -> complex:
    """chi(-1)^{d-1} gamma*(Ad on trace-zero) / d for a point of central
    character chi."""
    if pt.central_angle() != chi.unramified_angle():
        raise CentralCharacterMismatch(
            f"point has central angle {pt.central_angle()}, "
            f"character has angle {chi.unramified_angle()}")
    d = pt.d
    sign = chi(-1) ** (d - 1)
    g = pt.parameter().ad_over_center().gamma_factor(spec)
    return sign * g.regularized_value() / d


def central_quotient_relation_check(pt: TempPoint, chi: QuadraticCharacter,
                                    spec: LocalFieldSpec,
                                    tol: float = 1e-12) -> bool:
    """mu_chi = gamma*(1)^{-dim A} / [X*(A):X*(G)] * mu, for GL_d: divide by
    gamma*(1) and by d."""
    from .field import gamma_star_trivial

    lhs = plancherel_density_chi(pt, chi, spec)
    sign = chi(-1) ** (pt.d - 1)
    rhs = sign * plancherel_density(pt, spec) / \
        (float(gamma_star_trivial(spec)) * pt.d)
    return abs(lhs - rhs) <= tol * max(1.0, abs(rhs))


# -- the orthogonal locus ------------------------------------------------------


@dataclass(frozen=True)
class OrthTriple:
    """Block grouping of an orthogonal-locus component.

    dual_pairs:  (atom, m) for a dual pair sigma^m x (sigma dual)^m
    symplectic:  (atom, p) for a symplectic-type self-dual atom, p (even) copies
    orthogonal:  (atom, q) for an orthogonal-type self-dual atom, q copies
    """

    dual_pairs: tuple = ()
    symplectic: tuple = ()
    orthogonal: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "dual_pairs", tuple(self.dual_pairs))
        object.__setattr__(self, "symplectic", tuple(self.symplectic))
        object.__setattr__(self, "orthogonal", tuple(self.orthogonal))
        if any(m < 1 for _, m in
               self.dual_pairs + self.symplectic + self.orthogonal):
            raise ValueError("multiplicities must be >= 1")
        if any(p % 2 for _, p in self.symplectic):
            raise ValueError("symplectic multiplicities must be even "
                             "on the orthogonal locus")
        seen = set()
        for atom, m in self.dual_pairs:
            if atom.is_self_dual():
                raise ValueError(f"dual-pair atom {atom} is self-dual")
            if atom in seen or atom.dual() in seen:
                raise ValueError("dual-pair atoms must be distinct as unordered pairs")
            seen.add(atom)
            seen.add(atom.dual())
        for kind, group in ((SELF_DUAL_SYMPLECTIC, self.symplectic),
                            (SELF_DUAL_ORTHOGONAL, self.orthogonal)):
            for atom, _ in group:
                if atom.self_duality() != kind:
                    raise ValueError(f"atom {atom} is not of {kind} type")
                if atom in seen:
                    raise ValueError(f"{kind} atoms must be pairwise distinct")
                seen.add(atom)
        if not (self.dual_pairs or self.symplectic or self.orthogonal):
            raise ValueError("empty triple")

    @property
    def d(self) -> int:
        return sum(k for k, _, _ in self.layout())

    def layout(self) -> list:
        """The one place where the block order and the mirror rows are
        decided: an entry (k, base angle, row) per block.  The sigma sides
        of all dual pairs come first, then their dual sides; then each Is or
        Io atom with n = 2h (+ 1) copies as h rows (r + j, +1), a frozen
        middle row None when n is odd, and the mirroring rows
        (r + h - 1 - j, -1).  A row (i, sign) puts the block's twist at
        sign * x_i on the mirrored subtorus, so every free coordinate x_i
        has one +1 and one -1 row, on blocks of one size."""
        out = []
        for sign in (1, -1):
            r = 0
            for a, m in self.dual_pairs:
                u = a.angle if sign == 1 else mod1(-a.angle)
                out += [(a.sp, u, (r + j, sign)) for j in range(m)]
                r += m
        for a, n in self.symplectic + self.orthogonal:
            h = n // 2
            out += [(a.sp, a.angle, (r + j, 1)) for j in range(h)]
            out += [(a.sp, a.angle, None)] * (n % 2)
            out += [(a.sp, a.angle, (r + h - 1 - j, -1)) for j in range(h)]
            r += h
        return out

    def base_point(self) -> TempPoint:
        return TempPoint(tuple(TempBlock(k, u) for k, u, _ in self.layout()))

    def weyl_orders(self) -> tuple[int, int]:
        """(|W|, |W'|): the full stabilizer and the mirrored-twist subgroup.
        Each dual pair's m copies permute on both sides, and each Is or Io
        atom's n copies permute in |W| and pair up as n // 2 flippable
        mirrored pairs in |W'|."""
        f = math.factorial
        ms = [m for _, m in self.dual_pairs]
        ns = [n for _, n in self.symplectic + self.orthogonal]
        return (math.prod(f(m) ** 2 for m in ms) * math.prod(map(f, ns)),
                math.prod(map(f, ms))
                * math.prod(f(n // 2) * 2 ** (n // 2) for n in ns))

    def to_dict(self) -> dict:
        return {
            "In": [{"angle": str(a.angle), "sp": a.sp, "m": m}
                   for a, m in self.dual_pairs],
            "Is": [{"angle": str(a.angle), "sp": a.sp, "p": p}
                   for a, p in self.symplectic],
            "Io": [{"angle": str(a.angle), "sp": a.sp, "q": q}
                   for a, q in self.orthogonal],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "OrthTriple":
        def blocks(key, count):
            return tuple((WDAtom(read_number(e["angle"]),
                                 read_number(e.get("sp", 1), int)),
                          read_number(e[count], int))
                         for e in d.get(key, []))

        return cls(blocks("In", "m"), blocks("Is", "p"), blocks("Io", "q"))


@dataclass(frozen=True)
class TripleConstants:
    P: int
    S: int
    D: int
    N: int
    c: int
    W: int
    Wprime: int


def appendix_constants(t: OrthTriple) -> TripleConstants:
    """The closed-form constants attached to an orthogonal-locus triple,
    from (sp, m) for each dual pair and (sp, n) for each Is or Io atom of n
    copies.  An Is atom's n is even, so the one rule for Is and Io atoms
    gives it n / 2 in D and N and nothing in c."""
    w, wp = t.weyl_orders()
    pairs = [(a.sp, m) for a, m in t.dual_pairs]
    atoms = [(a.sp, n) for a, n in t.symplectic + t.orthogonal]
    return TripleConstants(
        P=(math.prod(k ** (2 * m) for k, m in pairs)
           * math.prod(k ** n for k, n in atoms)),
        S=sum(2 * m for _, m in pairs) + sum(n for _, n in atoms),
        D=(math.prod(k ** m for k, m in pairs)
           * math.prod(k ** ((n + 1) // 2) for k, n in atoms)),
        N=sum(m for _, m in pairs) + sum((n + 1) // 2 for _, n in atoms),
        c=sum(n % 2 for _, n in atoms), W=w, Wprime=wp)


def orth_triple_of(pt: TempPoint) -> Optional[OrthTriple]:
    """Group the blocks of an orthogonal point into a triple, or None."""
    param = pt.parameter()
    if param.self_duality() not in (SELF_DUAL_ORTHOGONAL, SELF_DUAL_BOTH):
        return None
    counts = {}
    for b in pt.blocks:
        atom = WDAtom(b.effective_angle, b.k)
        counts[atom] = counts.get(atom, 0) + 1
    pairs, symp, orth = [], [], []
    done = set()
    for atom in sorted(counts, key=lambda a: (a.sp, a.angle)):
        if atom in done:
            continue
        mult = counts[atom]
        if atom.is_self_dual():
            if atom.sp % 2 == 1:
                orth.append((atom, mult))
            else:
                symp.append((atom, mult))
            done.add(atom)
        else:
            dual = atom.dual()
            if counts.get(dual, 0) != mult:
                return None  # cannot happen for a self-dual parameter
            rep = atom if atom.angle < dual.angle else dual
            pairs.append((rep, mult))
            done.add(atom)
            done.add(dual)
    return OrthTriple(tuple(pairs), tuple(symp), tuple(orth))


# -- formal-degree style right-hand sides ---------------------------------------


def formal_degree_rhs(param: WDRep, spec: LocalFieldSpec) -> float:
    """|gamma*(0, wedge^2 param)| / |S|, the density predicted for the
    classical-group member with this orthogonal parameter."""
    if param.dim == 0:
        raise ValueError("zero-dimensional parameter")
    sd = param.self_duality()
    if sd not in (SELF_DUAL_ORTHOGONAL, SELF_DUAL_BOTH):
        raise ValueError("parameter is not orthogonal")
    if param.dim % 2 == 1 and param.determinant() != 0:
        raise ValueError("odd-dimensional parameter must have trivial determinant")
    _, s, _ = param.component_groups()
    val = param.wedge2().gamma_factor(spec).regularized_value()
    return abs(val) / s


def hii_rhs(param: WDRep, index_xstar: int, deg_rho: int,
            spec: LocalFieldSpec) -> float:
    """deg(rho) |gamma(0, adjoint)| / ([X*(A):X*(G)] |S|) for a discrete
    parameter (adjoint gamma factor regular and nonvanishing at 0)."""
    g = param.wedge2().gamma_factor(spec)
    if g.ord_zero_at_zero() != 0:
        raise ValueError("adjoint gamma factor is not regular-nonzero at 0; "
                         "parameter is not discrete")
    _, s, _ = param.component_groups()
    return deg_rho * abs(g.evaluate(0.0)) / (index_xstar * s)
