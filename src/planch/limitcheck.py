"""Numerical verification of the spectral-limit identity.

The left-hand side is a singular s -> 0 limit of symmetric-square-weighted
density integrals over a component of the tempered dual; the right-hand side
is an exterior-square integral over the mirrored subtorus of its orthogonal
locus.  Gamma factors are compiled once per component (``FactorProgram``:
atom angles become affine forms in the free torus coordinates, with exact
detection of identically-vanishing factors), so that a chunk of nodes is
costed from the phasors E_r = e(t_r) of its free coordinates, ``Phasors``.
The left integrand Ad(t, 0) / Sym^2(t, s) is one such program.  A test
function is given by its phasor form, ``phasor_values``, and is evaluated
from the same phasors as the program.  Both sides are integrated on uniform
offset midpoint grids, summed chunk by chunk.  The left grid is sized from
the poles of its program and the tolerance (``lhs_grid_size``): a
denominator 1 - a e(c.t) with |a| = q^{-(sdir s + shift)} costs the rule
about e^{-n (sdir s + shift) log q / ||c||_inf}, so n grows like
ln(100 / tol) ||c||_inf / (s log q) as s -> 0.  A program groups its
factors by primitive direction d; along d every factor, and the monomial,
is a function of w = e(d.t) alone.  On a grid of n nodes per axis, w at the
node of index I is e((d.I mod n + sum_r d_r (1/2 + offset)) / n): it takes
only n values.  So on a grid of two or more axes each direction's product
is tabulated once per grid on those n residues, and a chunk (a block of
whole rows of the last axis) reads it through a strided view of the table,
with no exp and no copy: a direction in the head coordinates gives one
value per row, one in the last coordinate one per column, and each other
direction costs one in-place multiply over the chunk.  A 1-D grid is
costed on its axis phasors e((i + 1/2 + offset) / n), segment by segment.
The s -> 0 limit is taken by Richardson extrapolation.  The order of a
triple's blocks and their pairing into mirror rows, which both sides and
the constants joining them depend on, are decided in one place,
``OrthTriple.layout()``.
"""

from __future__ import annotations

import cmath
import contextlib
import dataclasses
import functools
import itertools
import math
import numbers
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .field import (LocalFieldSpec, gamma_star_trivial, gamma_trivial,
                    read_number)
from .forms import det, mat
from .spectral import PoleError, mod1
from .tempered import OrthTriple, TripleConstants, appendix_constants
from .wdrep import (WDRep, ad_over_center_atoms, gamma_parts, sym2_atoms,
                    wedge2_atoms)


class NonGenericPoint(ValueError):
    pass


class NotWeylInvariant(ValueError):
    pass


# -- affine angles ---------------------------------------------------------------


@dataclass(frozen=True)
class AffineAngle:
    """const + sum(coeffs[r] * x_r) in turns, over the free torus coordinates."""

    const: Fraction
    coeffs: tuple

    def __add__(self, other):
        if isinstance(other, AffineAngle):
            return AffineAngle(self.const + other.const,
                               tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))
        return AffineAngle(self.const + Fraction(other), self.coeffs)

    __radd__ = __add__

    def __neg__(self):
        return AffineAngle(-self.const, tuple(-c for c in self.coeffs))

    def __mul__(self, n: int):
        return AffineAngle(self.const * n, tuple(c * n for c in self.coeffs))

    __rmul__ = __mul__

    @functools.cached_property
    def phase(self) -> complex:
        """e(const), made once per angle."""
        return cmath.exp(2j * math.pi * self.const)

    def is_identically_zero(self) -> bool:
        return mod1(self.const) == 0 and all(c == 0 for c in self.coeffs)


def _as_affine(x, nfree: int) -> AffineAngle:
    if isinstance(x, AffineAngle):
        return x
    return AffineAngle(Fraction(x), (0,) * nfree)


# -- compiled factor programs -----------------------------------------------------


@contextlib.contextmanager
def _small_buffers():
    """numpy's ufunc iterator copies broadcast and strided operands into
    its buffers when the whole chunk fits them (8192 elements by default):
    two chunk-sized copies for (rows, 1) * (1, cols), one for a strided
    view of a residue table; with its smallest buffer it reads them in
    place (numpy 2.4 on a 2-core Xeon: 0.6 instead of 2.1 ns per node of a
    64 x 128 chunk for (1, cols) - (rows, 1)).  A chunk's program, block
    phasors and test function all combine such operands, so ``_times_phi``
    runs all three in this one scope."""
    with np.errstate():
        np.setbufsize(16)
        yield


@dataclass
class _Factor:
    const: Fraction    # constant angle part, in turns
    coeffs: tuple      # integer coefficients over free coordinates
    shift: float
    sdir: int
    in_num: bool


def _int_coeffs(a: AffineAngle) -> tuple:
    if any(c != int(c) for c in a.coeffs):
        raise ValueError(f"angle coefficients {a.coeffs} are not integers")
    return tuple(int(c) for c in a.coeffs)


def _phasor_power(e: np.ndarray, k: int) -> np.ndarray:
    """e**k for unit-modulus e and a nonzero integer k, by repeated squaring;
    a negative power is the conjugate of the positive one."""
    if k < 0:
        return np.conj(_phasor_power(e, -k))
    if k == 1:
        return e
    out = _phasor_power(e * e, k // 2)
    return out * e if k % 2 else out


def _direction(c: tuple) -> tuple[tuple, int]:
    """(d, m) with c = m d, for c != 0: d is primitive and its first nonzero
    entry is positive."""
    g = math.gcd(*c)
    if next(x for x in c if x) < 0:
        g = -g
    return tuple(x // g for x in c), g


class Phasors:
    """The phasors E_r = e(t_r) of one chunk of nodes, ``shape`` (nfree, m).
    Each E_r is an array that broadcasts to the chunk's ``nodes`` shape: on a
    one-row grid chunk (``_grid_chunks``) a head coordinate is (1, 1) and
    the last axis (1, cols), so a monomial in one coordinate costs only its
    own values.  Each power E_r^k is built once, by squaring or as the
    conjugate of E_r^-k, and kept for the chunk.  ``GridChunk`` gives the
    same values from a grid's residue tables."""

    def __init__(self, e: list, nodes: tuple):
        self.nodes = nodes
        self.shape = (len(e), math.prod(nodes))
        self._e = e
        self._powers = {}

    @classmethod
    def of_nodes(cls, t: np.ndarray) -> "Phasors":
        """The phasors of M arbitrary nodes t, shape (nfree, M): one exp per
        node coordinate."""
        return cls(list(np.exp(2j * np.pi * t)), (t.shape[1],))

    def power(self, r: int, k: int) -> np.ndarray:
        p = self._powers.get((r, k))
        if p is None:
            neg = self._powers.get((r, -k))
            p = np.conj(neg) if neg is not None else _phasor_power(self._e[r], k)
            self._powers[r, k] = p
        return p

    def monomial(self, c: tuple, scale: Optional[complex] = None):
        """scale * prod_r E_r^{c_r}, broadcast over the coordinates it uses
        (a scalar when scaled and c = 0); for c != 0 unscaled it may be a kept
        power: read it, do not write to it."""
        out = scale
        for r, k in enumerate(c):
            if k:
                out = self.power(r, k) if out is None else out * self.power(r, k)
        return out

    def direction(self, c: tuple, key, fn: Callable) -> np.ndarray:
        """fn(w) at the phasors w = e(c.t) of the nodes, c != 0: an array that
        broadcasts to ``nodes``, to read and not to write.  ``key`` names fn
        for a grid that keeps its values (``GridChunk``); fn reads w and
        does not write to it."""
        return fn(self.monomial(c))

    def blocks(self, atoms) -> list:
        """Each atom's phasor, to read and not to write: for the angle
        const + c.t, e(const) prod_r E_r^{c_r}."""
        return [self.monomial(a.coeffs, a.phase) for a, _ in atoms]


_QUARTER_TURNS = np.array([1, 1j, -1, -1j])


def _unit_roots(n: int) -> np.ndarray:
    """e(k / n) for k = 0 ... n - 1, each within about 2.5e-16 of the exact
    value: the angle is split in integers into the nearest quarter turn
    j / 4, whose phasor i^j is exact, and a rest of at most 1/8 turn, which
    rounds once before its exp."""
    k = np.arange(n)
    j = (4 * k + n // 2) // n
    return (np.exp(2j * np.pi * ((4 * k - j * n) / (4 * n)))
            * _QUARTER_TURNS[j % 4])


class _ResidueGrid:
    """The grid of ``_grid_mean`` with dim >= 2, read through residues.  At
    the node of index I its coordinates are t = (I + 1/2 + offset) / n, so

        e(c.t) = e((c.I mod n + sigma_c) / n),
        sigma_c = sum_r c_r (1/2 + offset),

    takes only n values, and so does any function of it.  ``table``
    tabulates such a function once per grid and key, on the residue phasors
    w_k = e((k + sigma_c) / n), and a chunk (``GridChunk``) reads its values
    as a slice of a strided view of that table."""

    def __init__(self, dim: int, n: int, offset: float):
        self.dim, self.n, self.offset = dim, n, offset
        # 1/2 + offset as an exact ratio of integers
        self._half = (Fraction(1, 2) + Fraction(offset)).as_integer_ratio()
        self._roots = _unit_roots(n)
        self._tables = {}

    def table(self, key, c: tuple, fn: Optional[Callable],
              const: Fraction = 0) -> np.ndarray:
        """fn(e(const + c.t)) on the grid, or e(const + c.t) itself when fn
        is None, as a read-only view W of the periodic extension of its n
        residue values: W[f, i, j] is its value at row i and column j of the
        last two axes where the outer coordinates give c.I = f mod n.  W
        steps by 1 along f, by c_head (the coefficient of the row
        coordinate) along i and by c_last along j; an axis along which c.I
        does not move has length 1."""
        view = self._tables.get(key)
        if view is None:
            n = self.n
            # residue k sits at (k + shift) / n turns, shift = sum_r c_r
            # (1/2 + offset) + n const, split exactly into whole + frac:
            # e(k / n) rotated by whole places and scaled by e(frac / n)
            num, den = self._half
            p, r = const.numerator, const.denominator
            whole, frac = divmod(int(sum(c)) * num * r + n * p * den, den * r)
            values = np.roll(self._roots, -whole) * cmath.exp(
                2j * math.pi * (frac / (den * r * n)))
            if fn is not None:
                values = fn(values)
            steps = (1, c[-2], c[-1])
            shape = (n if self.dim > 2 else 1,) + tuple(n if k else 1
                                                      for k in steps[1:])
            # W[0, 0, 0] sits at a multiple of n, so position p holds
            # values[p mod n]: the lowest position W reads is then >= 0
            back = sum(max(0, -k) * (m - 1) for k, m in zip(steps, shape))
            start = -(-back // n) * n
            ext = np.resize(values, start + 1 + sum(
                max(0, k) * (m - 1) for k, m in zip(steps, shape)))
            ext.flags.writeable = False
            item = ext.itemsize
            view = self._tables[key] = np.ndarray(
                shape, complex, buffer=ext, offset=start * item,
                strides=tuple(k * item for k in steps))
        return view


class GridChunk(Phasors):
    """The rows first ... first + rows - 1 of the last axis of a
    ``_ResidueGrid`` at the outer coordinates ``outer`` (dim - 2 of them),
    so that c.I runs by c_head down the rows and by c_last along them.
    It answers every call of ``Phasors``: each direction, power, monomial
    and block phasor is a slice of a residue table's view, so the chunk
    builds no array of its own (a scaled ``monomial`` aside)."""

    def __init__(self, grid: _ResidueGrid, outer: tuple, first: int,
                 rows: int):
        self.grid, self.outer = grid, outer
        self._rows = slice(first, first + rows)
        self.nodes = (rows, grid.n)
        self.shape = (grid.dim, rows * grid.n)

    def direction(self, c, key, fn):
        return self._read(self.grid.table(key, c, fn), c)

    def _read(self, view, c):
        f = sum(k * i for k, i in zip(c, self.outer)) % self.grid.n
        return view[f, self._rows if c[-2] else slice(None)]

    def _phasor(self, c, const):
        """e(const + c.t) for c != 0, one exp per residue of c.I."""
        return self._read(self.grid.table((c, const), c, None, const), c)

    def power(self, r, k):
        return self._phasor(tuple(k if i == r else 0
                                  for i in range(self.grid.dim)), 0)

    def monomial(self, c, scale=None):
        if not any(c):
            return scale
        return self._phasor(c, 0) if scale is None else \
            scale * self._phasor(c, 0)

    def blocks(self, atoms):
        """Each atom's phasor with its constant inside the tabulated angle,
        so that e(const + c.t) takes one exp per residue and no product."""
        return [self._phasor(a.coeffs, a.const) if any(a.coeffs)
                else a.phase for a, _ in atoms]


def _direction_product(w: np.ndarray, net: int, terms: tuple,
                       a: list) -> np.ndarray:
    """w^net prod (w^k - a_f)^{+-1} over a direction's terms (k, f, in
    numerator), at its phasors w: a new array, two passes a term.  Each term
    is written into one buffer, which the first denominator term keeps as
    the denominator."""
    pw = Phasors([w], w.shape)
    out = np.empty(w.shape, dtype=complex)
    out[...] = pw.power(0, net) if net else 1.0
    den = buf = None
    for k, f, in_num in terms:
        if buf is None:
            buf = np.empty_like(out)
        np.subtract(pw.power(0, k), a[f], out=buf)
        if in_num:
            out *= buf
        elif den is None:
            den, buf = buf, None
        else:
            den *= buf
    if den is not None:
        out /= den
    return out


@dataclass(eq=False)  # hashed by identity: a grid keys its tables by program
class FactorProgram:
    """A gamma factor of a family of representations, ready for grid
    evaluation.  Every factor is 1 - a_f e(c.t) with an integer vector c
    and the scalar a_f = e(const_f) q^{-(sdir s + shift)}.  At compile time
    the factors with c = 0 fold, with the monomial's e(unit) q^{qpow -
    exponent s}, into one scalar per s.  Every other factor, and the
    monomial's e(u.t), joins the group of its primitive direction d
    (``_direction``: c = m d).  Along d it is a function of the direction
    phasor w = e(d.t) alone, and as every phasor has modulus 1

        1 - a_f w^m = w^m (w^{-m} - a_f),

    so a direction costs w^net prod (w^{-m} - a_f)^{+-1}, all its w^m joined
    in one power (``_direction_product``).  ``eval_phasors`` asks its
    ``Phasors`` for each direction's product (``Phasors.direction``): on
    arbitrary nodes it is costed per node; on a grid chunk (``GridChunk``)
    it is costed once per grid on the n residues of d.I and read through a
    strided view.  A direction in the head coordinates only gives one value
    per row, (0, ..., 0, 1) one per column; their product is written to the
    output in one pass, and each other direction is multiplied into it in
    place, one pass each.  ``factors`` keeps one entry per kept factor;
    ``quotient`` joins two programs into one.

    Poles: ``SpectralFunction.evaluate`` refuses a denominator factor below
    1e-14; no node here is guarded, as for s > 0 no program meets a pole:
    Sym^2's factors cross the bar as 1 - e(.) q^{-(s + r)}, and Ad's and
    wedge^2's denominators have shift >= 1.  ``_grid_mean`` raises
    ``PoleError`` on a sum that is not finite."""

    q: int
    nfree: int
    unit_const: Fraction
    unit_coeffs: tuple
    qpow: float
    exponent: float
    factors: list

    # most nodes in one chunk of a streamed grid (``_grid_chunks``):
    # ``eval_phasors`` on a grid chunk holds one chunk-sized array, its
    # output; of 2^11 ... 2^15, 2^13 and 2^14 gave the fastest limit-d3
    # grids, within noise, on a 2-core Xeon with numpy 2.4
    BLOCK = 1 << 13

    def __post_init__(self):
        zero = (0,) * self.nfree
        self._scalar_num, self._scalar_den = [], []
        # primitive direction d -> [net power of w, [(-m, factor, in num)]]
        dirs = {}
        if self.unit_coeffs != zero:
            d, m = _direction(self.unit_coeffs)
            dirs[d] = [m, []]
        for i, f in enumerate(self.factors):
            if f.coeffs == zero:
                (self._scalar_num if f.in_num else self._scalar_den).append(i)
                continue
            d, m = _direction(f.coeffs)
            group = dirs.setdefault(d, [0, []])
            group[0] += m if f.in_num else -m
            group[1].append((-m, i, f.in_num))
        # (d, net, terms) of the directions that vary per row (d_last = 0),
        # per column (d = (0, ..., 0, 1)) and per node
        self._row, self._col, self._node = [], [], []
        for d, (net, terms) in dirs.items():
            kind = (self._row if d[-1] == 0 else
                    self._col if not any(d[:-1]) else self._node)
            kind.append((d, net, tuple(terms)))
        self._rot = np.exp(2j * np.pi * np.array(
            [float(f.const) for f in self.factors], dtype=float))
        self._shift = np.array([f.shift for f in self.factors], dtype=float)
        self._sdir = np.array([f.sdir for f in self.factors], dtype=float)
        self._at_s = None

    @classmethod
    def compile(cls, atoms, spec: LocalFieldSpec, nfree: int,
                regularize: bool) -> "FactorProgram":
        """With ``regularize``, identically-vanishing numerator factors are
        left out: each gives exactly 1 after pairing with a zeta factor."""
        atoms = [(_as_affine(u, nfree), m) for (u, m) in atoms]
        unit, qpow, exponent, num, den = gamma_parts(atoms, spec.psi_level)
        unit = _as_affine(unit, nfree)
        factors = []
        for (a, r, sd) in num:
            a = _as_affine(a, nfree)
            if regularize and r == 0 and a.is_identically_zero():
                continue
            factors.append(_Factor(mod1(a.const), _int_coeffs(a), float(r), sd,
                                   True))
        for (a, r, sd) in den:
            a = _as_affine(a, nfree)
            if r == 0 and a.is_identically_zero():
                raise ArithmeticError("denominator factor vanishes identically")
            factors.append(_Factor(mod1(a.const), _int_coeffs(a), float(r), sd,
                                   False))
        return cls(q=spec.q, nfree=nfree, unit_const=mod1(unit.const),
                   unit_coeffs=_int_coeffs(unit),
                   qpow=float(qpow), exponent=float(exponent), factors=factors)

    def quotient(self, den: "FactorProgram") -> "FactorProgram":
        """self(t, 0) / den(t, s) as one program over the same torus: self's
        factors are frozen at s = 0, den's cross the fraction bar and its
        monomial is inverted.  Factors of both read the same phasor
        powers of a chunk."""
        return FactorProgram(
            q=self.q, nfree=self.nfree,
            unit_const=mod1(self.unit_const - den.unit_const),
            unit_coeffs=tuple(a - b for a, b in zip(self.unit_coeffs,
                                                    den.unit_coeffs)),
            qpow=self.qpow - den.qpow, exponent=-den.exponent,
            factors=([dataclasses.replace(f, sdir=0) for f in self.factors]
                     + [dataclasses.replace(f, in_num=not f.in_num)
                        for f in den.factors]))

    def eval(self, t: np.ndarray, s: complex) -> np.ndarray:
        """Evaluate at the nodes ``t`` of shape (nfree, M) and the point s,
        in one pass: M values, or one value when nfree = 0."""
        return self.eval_phasors(Phasors.of_nodes(t) if self.nfree
                                 else Phasors([], (1,)), s)

    def _at(self, s: complex) -> tuple:
        """(scalar, a) at the point s: the monomial's constant times the
        factors with c = 0, and a_f of each factor as a list.  Made once per
        s and kept until the program is evaluated at another s."""
        at = self._at_s
        if at is None or at[0] != s:
            a = self._rot * self.q ** (-(self._sdir * s + self._shift))
            scalar = (np.exp(2j * np.pi * float(self.unit_const))
                      * (self.q ** self.qpow) * self.q ** (-self.exponent * s))
            scalar = scalar * np.prod(1.0 - a[self._scalar_num]) \
                / np.prod(1.0 - a[self._scalar_den])
            at = self._at_s = (s, complex(scalar), a.tolist())
        return at[1], at[2]

    def eval_phasors(self, ph: Phasors, s: complex) -> np.ndarray:
        """Evaluate at the point s on the nodes of ``ph``: a new array of
        shape ``ph.nodes``.  The scalar and the per-row directions make one
        array shaped like the chunk's head, the per-column direction one
        shaped like its last axis; their product is written to the output,
        and every other direction is multiplied into it.  On a grid chunk
        ``ComponentModel._times_phi`` runs it in ``_small_buffers``."""
        scalar, a = self._at(s)
        out = np.empty(ph.nodes, dtype=complex)
        if not self.nfree:
            out[...] = scalar
            return out
        row, col = scalar, 1.0
        for d, net, terms in self._row:
            row = row * self._along(ph, s, d, net, terms, a)
        for d, net, terms in self._col:
            col = self._along(ph, s, d, net, terms, a)
        np.multiply(row, col, out=out)
        for d, net, terms in self._node:
            out *= self._along(ph, s, d, net, terms, a)
        return out

    def _along(self, ph, s, d, net, terms, a) -> np.ndarray:
        """The product of direction d's factors and monomial at the nodes of
        ``ph``; a grid keeps it per program, s and d."""
        return ph.direction(d, (self, s, d), functools.partial(
            _direction_product, net=net, terms=terms, a=a))


# -- test functions ----------------------------------------------------------------


class TestFunction:
    """A smooth Weyl-invariant function Phi of a tempered point, given by its
    phasor form ``phasor_values``.  ``values``, at per-block angles of shape
    (S, M), is the one wrapper over it; a subclass may not define another.
    The classes below bind it in their own class dict, so that each can be
    wrapped (traced) on its own."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if vars(cls).get("values", TestFunction.values) is not \
                TestFunction.values:
            raise TypeError(f"{cls.__name__} defines values: a test function "
                            f"is given by phasor_values")

    def values(self, dims: tuple, angles: np.ndarray) -> np.ndarray:
        vals = self.phasor_values(dims, np.exp(2j * np.pi * angles))
        return np.broadcast_to(vals, angles.shape[1:]).astype(complex)

    def phasor_values(self, dims: tuple, z) -> np.ndarray:
        """Phi at block phasors z: S rows, arrays (or scalars) that broadcast
        against each other to the nodes' shape; or one scalar."""
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


class ConstantPhi(TestFunction):
    def __init__(self, c: float = 1.0):
        self.c = read_number(c, float)

    values = TestFunction.values

    def phasor_values(self, dims, z):
        return self.c

    def describe(self):
        return {"kind": "constant", "c": self.c}


class TrigPhi(TestFunction):
    """const + Re( sum of coeff * powersum_{h,k} ), where powersum_{h,k} is
    the sum of z_b^h = e^{2 pi i h theta_b} over blocks of size k.
    Invariant under any permutation of equal-size blocks."""

    def __init__(self, terms: Sequence[tuple], const: float = 1.0):
        # terms: (h, k, coeff)
        self.terms = [(read_number(h, int), read_number(k, int), complex(c))
                      for (h, k, c) in terms]
        self.const = read_number(const, float)

    values = TestFunction.values

    def phasor_values(self, dims, z):
        out = self.const
        for (h, k, c) in self.terms:
            rows = [b for b, kb in enumerate(dims) if kb == k]
            if h == 0:
                out = out + (c * len(rows)).real
            else:
                out = out + (c * sum(_phasor_power(z[b], h)
                                     for b in rows)).real
        return out

    def describe(self):
        return {"kind": "trig", "const": self.const,
                "terms": [[h, k, [c.real, c.imag]] for (h, k, c) in self.terms]}


class GaussianPhi(TestFunction):
    """Product over blocks of the truncated Fourier series of a Gaussian
    bump, 1 + sum_{h <= hmax} 2 e^{-(width h)^2} cos 2 pi h (theta - center),
    whose cosines are Re(e(-h center) z^h); multiset-invariant by
    construction.  Truncated, it is not non-negative: its minimum on a
    circle is about -8.9e-5 with the defaults and -0.022 at (0.3, 0.1, 6)."""

    def __init__(self, width: float = 0.35, center: float = 0.0, hmax: int = 8):
        self.width = read_number(width, float)
        self.center = read_number(center, float)
        self.hmax = read_number(hmax, int)

    values = TestFunction.values

    def phasor_values(self, dims, z):
        out = 1.0
        for zb in z:
            bump, power = 1.0, 1.0
            for h in range(1, self.hmax + 1):
                power = power * zb
                bump = bump + (2 * math.exp(-(self.width * h) ** 2) * cmath.exp(
                    -2j * math.pi * h * self.center) * power).real
            out = out * bump
        return out

    def describe(self):
        return {"kind": "gaussian", "width": self.width, "center": self.center,
                "hmax": self.hmax}


def phi_from_dict(d: dict) -> TestFunction:
    kind = d.get("kind", "constant")
    if kind == "constant":
        return ConstantPhi(d.get("c", 1.0))
    if kind == "trig":
        return TrigPhi([(t[0], t[1], complex(t[2][0], t[2][1])) for t in d["terms"]],
                       d.get("const", 1.0))
    if kind == "gaussian":
        return GaussianPhi(d.get("width", 0.35), d.get("center", 0.0),
                           d.get("hmax", 8))
    raise ValueError(f"unknown test-function kind {kind!r}")


def check_weyl_invariance(phi: TestFunction, dims: tuple, rng,
                          samples: int = 32, tol: float = 1e-12):
    """Reject test functions that change under permutations of equal-size
    blocks (sampled)."""
    dims = tuple(dims)
    s = len(dims)
    angles = rng.random((s, samples))
    ref = phi.values(dims, angles)
    for _ in range(8):
        perm = _random_dim_preserving_permutation(dims, rng)
        vals = phi.values(dims, angles[perm, :])
        if np.max(np.abs(vals - ref)) > tol:
            raise NotWeylInvariant("test function is not invariant under "
                                   "permutations of equal blocks")


def _random_dim_preserving_permutation(dims, rng):
    perm = np.arange(len(dims))
    for k in set(dims):
        idx = [i for i, d in enumerate(dims) if d == k]
        shuffled = list(idx)
        rng.shuffle(shuffled)
        for a, b in zip(idx, shuffled):
            perm[a] = b
    return perm


# -- component models ---------------------------------------------------------------


def _kernel_lattice_basis(k: Sequence[int]) -> list:
    """Basis of the integer lattice { n : sum k_b n_b = 0 }."""
    s = len(k)
    if s == 1:
        return []
    gs = [k[0]]
    bez = [[1]]
    for i in range(1, s):
        g, x, y = _ext_gcd(gs[-1], k[i])
        gs.append(g)
        bez.append([c * x for c in bez[-1]] + [y])
    basis = []
    for i in range(s - 1):
        v = [0] * s
        scale = k[i + 1] // gs[i + 1]
        for j in range(i + 1):
            v[j] = scale * bez[i][j]
        v[i + 1] = -gs[i] // gs[i + 1]
        if sum(a * b for a, b in zip(k, v)) != 0:
            raise ArithmeticError(f"kernel basis vector {v} is not orthogonal "
                                  f"to the block sizes {list(k)}")
        basis.append(v)
    return basis


def _ext_gcd(a: int, b: int):
    if b == 0:
        return a, 1, 0
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def component_blocks(triple: OrthTriple) -> list:
    """The blocks (k, base angle) in the order of ``triple.layout()``."""
    return [(k, u) for k, u, _ in triple.layout()]


def mirror_structure(triple: OrthTriple) -> tuple[int, list]:
    """Free-coordinate count and per-block rows for the mirrored subtorus:
    each row is (index, sign) or None for a frozen middle coordinate."""
    layout = triple.layout()
    return len(_mirror_sizes(layout)), [row for _, _, row in layout]


def _mirror_sizes(layout: list) -> list:
    """The block size of each free coordinate of the mirrored subtorus."""
    return [k for k, _, row in layout if row and row[1] == 1]


def _covering_orders(layout: list) -> tuple[int, int]:
    """(lhs, rhs) covering orders: the product over block sizes k of
    (number of blocks of size k)!, and of c_k! 2^{c_k} for the c_k free
    coordinates of size k."""
    def permutations(sizes):
        return math.prod(math.factorial(c) for c in Counter(sizes).values())

    mirror = _mirror_sizes(layout)
    return (permutations(k for k, _, _ in layout),
            permutations(mirror) * 2 ** len(mirror))


@dataclass
class QuadConfig:
    n_base: int = 128
    rhs_n: int = 128
    s0: float = 0.1
    s_count: int = 6
    tol: float = 1e-3
    max_nodes: int = 2 ** 22
    offset: float = 0.5 * (math.sqrt(5) - 1)  # golden offset, dodges exact hits
    extrap_order: int = 3

    def __post_init__(self):
        """Refuse settings that leave no s-sequence, an empty grid, a
        tolerance no run can meet, nodes that are not numbers or no
        extrapolation rule: the limit is taken from s0 > 0 down, every grid
        has a node at a finite offset, tol > 0 also sizes the left grid,
        and Richardson eliminates a whole number of terms (0: none)."""
        for name in ("s0", "tol"):
            if not (math.isfinite(getattr(self, name))
                    and getattr(self, name) > 0):
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {getattr(self, name)}")
        for name in ("s_count", "n_base", "rhs_n", "max_nodes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, "
                                 f"got {getattr(self, name)}")
        if not math.isfinite(self.offset):
            raise ValueError(f"offset must be finite, got {self.offset}")
        if not (isinstance(self.extrap_order, numbers.Integral)
                and self.extrap_order >= 0):
            raise ValueError(f"extrap_order must be a non-negative integer, "
                             f"got {self.extrap_order!r}")


def lhs_covering_order(triple: OrthTriple) -> int:
    """Generic fiber of the parametrizing torus over the component: every
    permutation of same-size blocks extends to a twisted identification
    because unramified twisted-Steinberg blocks of one size are all
    twist-equivalent.  Equals |W(M, sigma)| exactly when same-size blocks
    carry the same base character."""
    return _covering_orders(triple.layout())[0]


def rhs_covering_order(triple: OrthTriple) -> int:
    """Generic fiber of the mirrored subtorus over the orthogonal locus:
    same-size mirrored pairs permute freely and each pair flips."""
    return _covering_orders(triple.layout())[1]


class ComponentModel:
    """Everything needed to integrate over one component of the tempered dual
    with fixed central character, and over the mirrored subtorus of its
    orthogonal locus."""

    def __init__(self, triple: OrthTriple, spec: LocalFieldSpec,
                 chi_minus_one: int = 1):
        self.triple = triple
        self.spec = spec
        self.chi_minus_one = int(chi_minus_one)
        self.consts: TripleConstants = appendix_constants(triple)
        c = self.consts
        layout = triple.layout()
        self.dims = tuple(k for k, _, _ in layout)
        self.S = len(layout)
        self.d = sum(self.dims)
        mirror_sizes = _mirror_sizes(layout)
        self.dprime = math.prod(mirror_sizes)
        # Jacobian chain: the free-coordinate fundamental domain of the
        # mirrored subtorus has exactly the normalized subtorus volume
        if c.D * self.dprime != c.P or 2 * c.N != c.S + c.c:
            raise ArithmeticError(
                f"appendix constants are inconsistent with the triple: "
                f"D d' = {c.D * self.dprime} vs P = {c.P}, "
                f"2N = {2 * c.N} vs S + c = {c.S + c.c}")
        self.F_lhs, self.F_rhs = _covering_orders(layout)

        # LHS torus: kernel-lattice basis of the block-dimension vector
        basis = _kernel_lattice_basis(self.dims)
        self.R_lhs = len(basis)
        if self.R_lhs:
            m = [[k * v[b] for v in basis] + [int(b == 0)]
                 for b, k in enumerate(self.dims)]
            self.J_k = abs(det(mat(m)))
        else:
            self.J_k = Fraction(1)
        lhs_atoms = [(AffineAngle(u, tuple(int(v[b]) for v in basis)), k)
                     for b, (k, u, _) in enumerate(layout)]
        self.lhs_atoms = lhs_atoms
        self.sym2_lhs = FactorProgram.compile(sym2_atoms(lhs_atoms), spec,
                                              self.R_lhs, regularize=False)
        self.ad_lhs = FactorProgram.compile(ad_over_center_atoms(lhs_atoms),
                                            spec, self.R_lhs, regularize=True)
        self.lhs_program = self.ad_lhs.quotient(self.sym2_lhs)

        # RHS subtorus: a block with mirror row (i, sign) has twist sign * x_i
        self.R_rhs = len(mirror_sizes)
        self.rhs_atoms = [
            (AffineAngle(u, tuple(row[1] if row and row[0] == i else 0
                                  for i in range(self.R_rhs))), k)
            for k, u, row in layout]
        self.wedge2_rhs = FactorProgram.compile(wedge2_atoms(self.rhs_atoms),
                                                spec, self.R_rhs,
                                                regularize=True)

        self._gamma_triv = gamma_trivial(spec)

    # -- integrands ------------------------------------------------------------

    def lhs_integrand(self, phi: TestFunction, t: np.ndarray,
                      s: float) -> np.ndarray:
        """Phi Ad(t, 0) / Sym^2(t, s) at the nodes t, shape (R_lhs, M)."""
        return self._times_phi(self.lhs_program, phi, t, s, self.lhs_atoms)

    def rhs_integrand(self, phi: TestFunction, t: np.ndarray) -> np.ndarray:
        """Phi times the regularized wedge^2 gamma factor at the nodes t."""
        return self._times_phi(self.wedge2_rhs, phi, t, 0.0, self.rhs_atoms)

    def _times_phi(self, prog, phi, t, s, atoms) -> np.ndarray:
        """prog(t, s) times phi at its block phasors, both read from one
        ``Phasors``: the grid chunk t itself, or made from the nodes t."""
        ph = t if isinstance(t, Phasors) else Phasors.of_nodes(t)
        with _small_buffers():
            out = prog.eval_phasors(ph, s)
            out *= phi.phasor_values(self.dims, ph.blocks(atoms))
        return out

    # -- quadrature ---------------------------------------------------------------

    def lhs_grid_size(self, s: float, cfg: QuadConfig) -> tuple[int, bool]:
        """Nodes per axis of the left grid at s, and whether the node budget
        capped them.  A denominator factor 1 - a_f e(c_f.t) of
        ``lhs_program`` with |a_f| = e^{-dist_f}, dist_f = (sdir s + shift)
        log q, has its poles dist_f / (2 pi |c_r|) off the real torus along
        the axis r of largest |c_r|, so the offset midpoint rule on n nodes
        per axis misses its mean by about e^{-n dist_f / ||c_f||_inf} of the
        integrand's scale (Trefethen & Weideman, SIAM Review 56, 2014).  n
        is the least that brings the nearest pole's term to e^{-R} =
        tol / 100, which leaves room for the integrand's peak-to-mean factor
        and for Richardson's amplification of each level's error.  It is
        never below ``n_base``, which also covers the test function's
        Fourier degree, and the node budget caps it.  A denominator with
        dist_f <= 0 meets the torus and raises ``PoleError``."""
        log_q = math.log(self.spec.q)
        reach = 0.0
        for f in self.lhs_program.factors:
            if f.in_num or not any(f.coeffs):
                continue
            dist = (f.sdir * s + f.shift) * log_q
            if not dist > 0:
                raise PoleError(f"a denominator factor of the left side meets "
                                f"the torus at s = {s}")
            reach = max(reach, max(map(abs, f.coeffs)) / dist)
        n = max(cfg.n_base, math.ceil(math.log(100 / cfg.tol) * reach))
        capped = False
        dim = max(self.R_lhs, 1)
        while n ** dim > cfg.max_nodes:
            n = int(n / 1.3)
            capped = True
        return n, capped

    def lhs_mean(self, phi: TestFunction, s: float, cfg: QuadConfig):
        """Mean of the LHS integrand over the component torus; returns
        (mean, error_estimate, n, nodes, budget_flag), n the fine grid's
        nodes per axis (1 on a point)."""
        dim = self.R_lhs

        def integrand(t):
            return self.lhs_integrand(phi, t, s)

        if dim == 0:
            return _grid_mean(integrand, 0, 1, cfg.offset), 0.0, 1, 1, False
        n, capped = self.lhs_grid_size(s, cfg)
        mean = _grid_mean(integrand, dim, n, cfg.offset)
        # self-consistency estimate on a coarser incommensurate grid, never
        # larger than the fine one, so that the budget holds for both.  It
        # takes the fine grid's parity: the integrand's Fourier modes span a
        # lattice L that holds 2Z^R (Sym^2 has a factor at twice each block's
        # angle, and the block angles span Z^R), so an even grid aliases at
        # the modes nZ^R but an odd one only at nL, which can be far finer
        # (L = 2Z for Io = {1, quadratic} and a constant phi).  With equal
        # parity the coarse aliases are the fine ones scaled by n2 / n.
        n2 = int(n / math.sqrt(2))
        n2 = max(1, n2 - (n - n2) % 2)
        mean2 = _grid_mean(integrand, dim, n2, cfg.offset)
        err = abs(mean - mean2)
        return mean, err, n, n ** dim + n2 ** dim, capped

    def lhs_value(self, phi: TestFunction, s: float, cfg: QuadConfig):
        """d * gamma(s, 1, psi) * (component constants) * mean, with the
        rest of ``lhs_mean``'s tuple."""
        mean, err, n, nodes, flag = self.lhs_mean(phi, s, cfg)
        pref = self.lhs_prefactor(s)
        return pref * mean, abs(pref) * err, n, nodes, flag

    def lhs_prefactor(self, s: float) -> complex:
        c = self.consts
        const = self.d * (self.chi_minus_one ** (self.d - 1)) * \
            float(self.J_k) / (c.P * self.F_lhs)
        return const * self._gamma_triv.evaluate(s)

    def rhs_value(self, phi: TestFunction, cfg: QuadConfig) -> complex:
        """2 chi(-1)^{d-1} / (F 2^c) times the mean over the free coordinates:
        the Jacobian factor (D d' / P) (2 pi / log q)^{2N - S - c} is exactly
        1, as ``__init__`` checks."""
        mean = _grid_mean(lambda t: self.rhs_integrand(phi, t), self.R_rhs,
                          cfg.rhs_n, cfg.offset)
        const = (2 * (self.chi_minus_one ** (self.d - 1))
                 / (self.F_rhs * 2 ** self.consts.c))
        return const * mean

    def measure_mass(self, phi: TestFunction, cfg: QuadConfig) -> float:
        """The component mass realized by the LHS quadrature with all gamma
        factors dropped, that is with the empty program: J_k / (P F) times
        the plain mean of phi, F the covering order (= |W(M, sigma)| for
        twist-inequivalent blocks)."""
        c = self.consts
        empty = FactorProgram.compile([], self.spec, self.R_lhs, False)
        mean = _grid_mean(lambda t: self._times_phi(empty, phi, t, 0.0,
                                                    self.lhs_atoms),
                          self.R_lhs, cfg.n_base, cfg.offset)
        return float(self.J_k) / (c.P * self.F_lhs) * mean.real


# -- grids -----------------------------------------------------------------------


def _grid_chunks(dim: int, n: int, offset: float):
    """The ``Phasors`` of each chunk of the grid of ``_grid_mean``, in node
    order.  With dim >= 2 and n <= BLOCK a chunk is BLOCK // n whole rows of
    the last axis, fewer where the outer coordinates (all but the last two)
    carry, so that its rows form one arithmetic run: a ``GridChunk`` of one
    ``_ResidueGrid``, which reads every function of e(c.t) from a table of
    its n residues.  Otherwise a chunk is one row of the last axis, or when
    n > BLOCK a segment of one, with its axis phasors e((i + 1/2 + offset) /
    n) made per segment and per row, so that no array outgrows a chunk and
    a 1-D grid keeps no table.  No grid node takes an exp or a coordinate of
    its own."""
    if dim == 0:
        yield Phasors([], (1,))
        return
    block = FactorProgram.BLOCK
    if dim > 1 and n <= block:
        grid, rows = _ResidueGrid(dim, n, offset), min(n, block // n)
        for outer in itertools.product(range(n), repeat=dim - 2):
            for i in range(0, n, rows):
                yield GridChunk(grid, outer, i, min(rows, n - i))
        return

    def axis(i):
        return np.exp(2j * np.pi * ((i + 0.5 + offset) / n))

    for row in itertools.product(range(n), repeat=dim - 1):
        head = [axis(np.array([[k]])) for k in row]
        for j in range(0, n, block):
            last = axis(np.arange(j, min(n, j + block)))[None, :]
            yield Phasors(head + [last], last.shape)


def _grid_mean(fun: Callable, dim: int, n: int, offset: float) -> complex:
    """Mean of fun over the uniform offset grid of n^dim nodes (n^0 = 1: a
    point), node (i_1..i_dim) at ((i_r + 1/2 + offset) / n)_r.  For periodic
    integrands this is the trapezoid rule up to translation, hence
    spectrally accurate; the golden offset keeps nodes off the exact
    singular loci.  fun takes each chunk's ``Phasors`` (``_grid_chunks``),
    whose ``shape`` is (dim, nodes in the chunk), and its values are summed
    at once, so memory does not grow with the grid and no node takes an exp
    or a coordinate.  A sum that is not finite met a pole (see
    ``FactorProgram``) and raises ``PoleError``."""
    size = n ** dim
    total = 0j
    for ph in _grid_chunks(dim, n, offset):
        total += complex(fun(ph).sum())
    if not cmath.isfinite(total):
        raise PoleError(f"the mean over {size} nodes is not finite")
    return total / size


# -- extrapolation and the report ---------------------------------------------------


def richardson(s_values: Sequence[float], l_values: Sequence[complex],
               order: int) -> complex:
    """Neville extrapolation to s = 0 for values on a geometric s-sequence,
    assuming an expansion A + B s + C s^2 + ..."""
    tab = list(l_values)
    n = len(tab)
    for mlevel in range(1, min(order, n - 1) + 1):
        new = []
        for j in range(len(tab) - 1):
            ratio = s_values[j] / s_values[j + mlevel]
            new.append((ratio * tab[j + 1] - tab[j]) / (ratio - 1))
        tab = new
    return tab[-1]


@dataclass
class LimitReport:
    s_values: list
    lhs_values: list
    lhs_errors: list
    lhs_extrapolated: complex
    rhs: complex
    abs_discrepancy: float
    rel_discrepancy: float
    tolerance: float
    passed: bool
    nodes_used: int
    budget_exceeded: bool
    grid_n: list

    def to_dict(self) -> dict:
        return {
            "s_values": list(self.s_values),
            "lhs_values": [[v.real, v.imag] for v in self.lhs_values],
            "lhs_errors": list(self.lhs_errors),
            "lhs_extrapolated": [self.lhs_extrapolated.real,
                                 self.lhs_extrapolated.imag],
            "rhs": [self.rhs.real, self.rhs.imag],
            "abs_discrepancy": self.abs_discrepancy,
            "rel_discrepancy": self.rel_discrepancy,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "nodes_used": self.nodes_used,
            "budget_exceeded": self.budget_exceeded,
            "grid_n": list(self.grid_n),
        }


def verify(triple: OrthTriple, phi: TestFunction, spec: LocalFieldSpec,
           cfg: Optional[QuadConfig] = None, chi_minus_one: int = 1,
           rng=None) -> LimitReport:
    """Run the full limit check: LHS over a decreasing s-sequence with
    Richardson extrapolation against the closed-form RHS."""
    cfg = cfg or QuadConfig()
    model = ComponentModel(triple, spec, chi_minus_one)
    if rng is None:
        rng = np.random.default_rng(20240901)
    check_weyl_invariance(phi, model.dims, rng)
    s_values = [cfg.s0 * 2.0 ** (-k) for k in range(cfg.s_count)]
    lhs_vals, lhs_errs, grid_n, nodes, budget = [], [], [], 0, False
    for s in s_values:
        v, e, n, m, f = model.lhs_value(phi, s, cfg)
        lhs_vals.append(v)
        lhs_errs.append(e)
        grid_n.append(n)
        nodes += m
        budget = budget or f
    extrap = richardson(s_values, lhs_vals, cfg.extrap_order)
    rhs = model.rhs_value(phi, cfg)
    absd = abs(extrap - rhs)
    reld = absd / max(abs(rhs), 1e-12)
    return LimitReport(
        s_values=s_values, lhs_values=lhs_vals, lhs_errors=lhs_errs,
        lhs_extrapolated=extrap, rhs=rhs, abs_discrepancy=absd,
        rel_discrepancy=reld, tolerance=cfg.tol,
        passed=bool(reld < cfg.tol and not budget),
        nodes_used=nodes, budget_exceeded=budget, grid_n=grid_n)


# -- exact pointwise checks -----------------------------------------------------------


def subtorus_twists(triple: OrthTriple, free: Sequence[Fraction]) -> list:
    """Per-block twist angles for a point of the mirrored subtorus, given its
    free coordinates, numbered as in the rows of ``triple.layout()``."""
    free = [Fraction(x) for x in free]
    expected, rows = mirror_structure(triple)
    if len(free) != expected:
        raise ValueError(f"expected {expected} free coordinates, got {len(free)}")
    return [Fraction(0) if row is None else mod1(row[1] * free[row[0]])
            for row in rows]


def point_parameter(triple: OrthTriple, twists: Sequence[Fraction]) -> WDRep:
    blocks = component_blocks(triple)
    if len(twists) != len(blocks):
        raise ValueError("one twist per block required")
    return WDRep.from_atom_list([(mod1(u + Fraction(t)), k)
                                 for (k, u), t in zip(blocks, twists)])


def lhs_integrand_exact(triple: OrthTriple, phi: TestFunction, s: float,
                        twists: Sequence[Fraction],
                        spec: LocalFieldSpec) -> complex:
    """Exact single-point LHS integrand: Phi times the inverse
    symmetric-square gamma factor at s times the regularized adjoint value.
    Finite on the singular hyperplanes for every s > 0; where the regularized
    order jumps the value is the limiting one (zero along collision loci)."""
    if s <= 0:
        raise ValueError("the integrand is evaluated at s > 0")
    twists = [Fraction(t) for t in twists]
    param = point_parameter(triple, twists)
    blocks = component_blocks(triple)
    total = sum((k * t for (k, _), t in zip(blocks, twists)), Fraction(0))
    if mod1(total) != 0:
        raise ValueError("twists must satisfy the sum-zero constraint")
    angles = np.array([[float(mod1(u + t))]
                       for (k, u), t in zip(blocks, twists)])
    phival = phi.values(tuple(k for k, _ in blocks), angles)[0]
    gsym = param.sym2().gamma_factor(spec)
    gad = param.ad_over_center().gamma_factor(spec)
    return phival / gsym.evaluate(s) * gad.regularized_value()


def eq13_values(triple: OrthTriple, free: Sequence[Fraction],
                spec: LocalFieldSpec):
    """Both sides of the exact pointwise identity at a generic subtorus
    point: gamma*(1) lim s^N gamma(s, Sym^2)^{-1} gamma*(Ad/A) versus
    log(q)^{-N} gamma*(wedge^2)."""
    consts = appendix_constants(triple)
    twists = subtorus_twists(triple, free)
    param = point_parameter(triple, twists)
    gsym = param.sym2().gamma_factor(spec)
    n_actual = gsym.ord_zero_at_zero()
    if n_actual != consts.N:
        raise NonGenericPoint(
            f"Sym^2 gamma factor vanishes to order {n_actual}, expected "
            f"{consts.N}: the point is not generic")
    lim = gsym.inverse().limit_with_power(consts.N)
    gsv = float(gamma_star_trivial(spec))
    ad_star = param.ad_over_center().gamma_factor(spec).regularized_value()
    lhs = gsv * lim * ad_star
    rhs = math.log(spec.q) ** (-consts.N) * \
        param.wedge2().gamma_factor(spec).regularized_value()
    return lhs, rhs


def eq13_check(triple: OrthTriple, free: Sequence[Fraction],
               spec: LocalFieldSpec, tol: float = 1e-10) -> bool:
    lhs, rhs = eq13_values(triple, free, spec)
    return abs(lhs - rhs) <= tol * max(1.0, abs(rhs))


def singular_exponent(triple: OrthTriple, twists: Sequence[Fraction]) -> int:
    """Pole order at s = 0 of the inverse Sym^2 gamma factor at a torus
    point, counted through the vanishing linear forms of the pinch loci:
    dual-pair sums, symplectic sums below the diagonal, orthogonal sums on
    and below the diagonal."""
    twists = [Fraction(t) for t in twists]
    count = 0
    offset_dual = sum(m for _, m in triple.dual_pairs)
    i0 = 0
    for a, m in triple.dual_pairs:
        xs = twists[i0:i0 + m]
        xvs = twists[offset_dual + i0:offset_dual + i0 + m]
        count += sum(1 for x in xs for xv in xvs if mod1(x + xv) == 0)
        i0 += m
    pos = 2 * offset_dual
    for a, p in triple.symplectic:
        ys = twists[pos:pos + p]
        count += sum(1 for i in range(p) for j in range(i + 1, p)
                     if mod1(ys[i] + ys[j]) == 0)
        pos += p
    for a, q in triple.orthogonal:
        zs = twists[pos:pos + q]
        count += sum(1 for i in range(q) for j in range(i, q)
                     if mod1(zs[i] + zs[j]) == 0)
        pos += q
    return count


def singular_exponent_engine(triple: OrthTriple, twists: Sequence[Fraction],
                             spec: LocalFieldSpec) -> int:
    """Oracle: the exact vanishing order of the Sym^2 gamma factor."""
    param = point_parameter(triple, twists)
    return param.sym2().gamma_factor(spec).ord_zero_at_zero()


def fit_divergence_exponent(triple: OrthTriple, phi: TestFunction,
                            spec: LocalFieldSpec, cfg: QuadConfig,
                            chi_minus_one: int = 1) -> float:
    """Log-log slope of the raw component integral against s: close to -1
    whenever singular loci meet the support."""
    model = ComponentModel(triple, spec, chi_minus_one)
    s_values = [cfg.s0 * 2.0 ** (-k) for k in range(cfg.s_count)]
    ys = []
    for s in s_values:
        mean = model.lhs_mean(phi, s, cfg)[0]
        ys.append(abs(mean))
    xs = np.log(s_values)
    ys = np.log(ys)
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope)
