"""Numerical verification of the spectral-limit identity.

The left-hand side is a singular s -> 0 limit of symmetric-square-weighted
density integrals over a component of the tempered dual; the right-hand side
is an exterior-square integral over the mirrored subtorus of its orthogonal
locus.  Gamma factors are compiled once per component (``FactorProgram``:
atom angles become affine forms in the free torus coordinates, with exact
detection of identically-vanishing factors), so that a chunk of nodes is
costed from the phasors E_r = e(t_r) of its free coordinates, ``Phasors``.
The left integrand Ad(t, 0) / Sym^2(t, s) is one such program.  A test
function is given by its phasor form, ``phasor_values``: it is built from
functions of one block phasor, fn(z_b), which it reads from the chunk
through a block accessor, from the same phasors as the program; a Phi that
is one scalar scales the program's constant.  Both sides are integrated on
uniform offset midpoint grids, summed chunk by chunk.  The left grid is
sized from the poles of its program and the tolerance (``lhs_grid_size``): a
denominator 1 - a e(c.t) with |a| = q^{-(sdir s + shift)} costs the rule
about e^{-n (sdir s + shift) log q / ||c||_inf}, so n grows like
ln(100 / tol) ||c||_inf / (s log q) as s -> 0.  A program groups its
factors by primitive direction d; along d every factor, and the monomial,
is a function of w = e(d.t) alone, and a test function is built from
functions of its block phasors e(const_b + c_b.t).  So every integrand asks
a chunk one question, ``at(a, fn)``: fn at the phasor of an affine angle a,
with a = d.t for a direction and a = const_b + c_b.t for a block.  On a grid
of n nodes per axis, e(const + c.t) at the node of index I is e(const +
(c.I mod n + sum_r c_r (1/2 + offset)) / n): it takes only n values.  So on
any grid of two or more axes fn is tabulated once per grid and pair (a, fn)
on those n residues, and a chunk (a block of whole rows of the last axis,
or a segment of one row) reads it through a strided view of the table,
with no exp and no copy: a direction in the head coordinates gives one
value per row, one in the last coordinate one per column, and each other
direction costs one in-place multiply over the chunk.  Each caller hands
the same fn to every chunk, so the grid finds its table again.  A left mean
carries an error estimate from a coarser grid.  On two or more axes that is
the grid's sub-grid of all-even index, summed from the same chunks, with n
a multiple of 4 so that it aliases where the grid does not.  A 1-D grid is
one row, costed on its axis phasors e((i + 1/2 + offset) / n), and a
mean's fine and coarse 1-D grids share chunks (``_row_chunks``).
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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from .field import (LocalFieldSpec, gamma_star_trivial, gamma_trivial,
                    read_number)
from .spectral import PoleError, as_fraction, mod1
from .tempered import OrthTriple, appendix_constants, multiplicity_order
from .wdrep import (WDRep, ad_over_center_atoms, from_numerators,
                    gamma_parts, sym2_atoms, wedge2_atoms)


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
        return AffineAngle(self.const + as_fraction(other), self.coeffs)

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

    def __hash__(self):
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        """The dataclass hash, made once per angle: a grid looks its tables
        up by angle on every chunk, and a ``Fraction`` hashes slowly."""
        return hash((self.const, self.coeffs))

    def is_identically_zero(self) -> bool:
        return self.const.denominator == 1 and not any(self.coeffs)


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


# An affine angle k/N + c.x over a common denominator N packs into the one
# integer k + sum_r c_r 2^(128 r): the plethysm and ``gamma_parts`` only add,
# negate and scale angles by integers, which act on it digit by digit while
# every digit stays below 2^127 in size, as it does for N < 2^64 and any
# psi-level whose gamma factors have float values.
def _packed_atoms(atoms, den: int) -> list:
    """The atoms with their ``AffineAngle``s packed over den."""
    if den >> 64:
        raise OverflowError(f"common denominator {den} is past 2^64")
    return [(a.const.numerator * (den // a.const.denominator)
             + sum(c << 128 * r for r, c in enumerate(_int_coeffs(a), 1)), m)
            for a, m in atoms]


def _unpacked(v: int, nfree: int) -> tuple[int, tuple]:
    """(k, c) of the packed angle v: its balanced base-2^128 digits."""
    digits = []
    for _ in range(nfree + 1):
        digits.append(((v + (1 << 127)) & ((1 << 128) - 1)) - (1 << 127))
        v = (v - digits[-1]) >> 128
    if v:
        raise OverflowError("a packed angle's digit left its range")
    return digits[0], tuple(digits[1:])


def _phasor_power(e: np.ndarray, k: int) -> np.ndarray:
    """e**k for unit-modulus e and a nonzero integer k, by repeated squaring;
    a negative power is the conjugate of the positive one."""
    if k < 0:
        return np.conj(_phasor_power(e, -k))
    if k == 1:
        return e
    out = _phasor_power(e * e, k // 2)
    return out * e if k % 2 else out


def _primitive(c: tuple) -> tuple[tuple, int]:
    """(d, m) with c = m d, for c != 0: d is primitive and its first nonzero
    entry is positive."""
    g = math.gcd(*c)
    if next(x for x in c if x) < 0:
        g = -g
    return tuple(x // g for x in c), g


class Phasors:
    """The phasors E_r = e(t_r) of one chunk of nodes, ``shape`` (nfree, m):
    arbitrary nodes (``of_nodes``), a point, or segments of 1-D grids
    (``_row_chunks``).  Each E_r is an array of the chunk's ``nodes``
    shape.  Each power E_r^k is built once, by squaring or as the
    conjugate of E_r^-k, and kept for the chunk.  A chunk answers one
    question, ``at(a, fn)``: a function of one phasor at the phasor of an
    affine angle a, which is a program direction (const 0, c = d) or a
    test function's block (const_b + c_b.t).  On a grid of two or more
    axes ``GridChunk`` answers it from the grid's residue tables instead."""

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

    def at(self, a: AffineAngle, fn: Callable):
        """fn(w) at the phasors w = e(a.const + a.coeffs.t) of the nodes, here
        costed on them as e(const) prod_r E_r^{c_r} (e(const) left out when
        const = 0); for c = 0 it is fn(a.phase).  The result broadcasts to
        ``nodes``, or is a scalar: read it, do not write to it.  fn maps
        one phasor array (or scalar) to its values without writing to it,
        and is the same object, or an equal one, on every chunk of a grid:
        ``GridChunk`` keeps its values per (a, fn)."""
        w = a.phase if a.const else None
        for r, k in enumerate(a.coeffs):
            if k:
                w = self.power(r, k) if w is None else w * self.power(r, k)
        return fn(a.phase if w is None else w)


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
    """The grid of ``_grid_means`` with dim >= 2, read through residues.  At
    the node of index I its coordinates are t = (I + 1/2 + offset) / n, so

        e(c.t) = e((c.I mod n + sigma_c) / n),
        sigma_c = sum_r c_r (1/2 + offset),

    takes only n values, and so do e(const + c.t) and any function of it.
    ``table`` tabulates such a function once per grid on the residue
    phasors w_k = e((k + sigma_c) / n + const), and a chunk (``GridChunk``)
    reads its values as a slice of a strided view of that table."""

    def __init__(self, dim: int, n: int):
        self.dim, self.n = dim, n
        roots = _unit_roots(n)
        # two periods, so that roots rotated by any whole place are a slice
        self._roots = np.concatenate((roots, roots))
        self._tables = {}

    def table(self, a: AffineAngle, fn: Callable) -> np.ndarray:
        """fn(e(const + c.t)) on the grid for a = const + c.t, c != 0, as a
        read-only complex view W of the periodic extension of its n residue
        values: W[f, i, j] is its value at row i and column j of the last
        two axes where the outer coordinates give c.I = f mod n.  W steps
        by 1 along f, by c_head (the coefficient of the row coordinate)
        along i and by c_last along j; an axis along which c.I does not move
        has length 1.  It is kept per (a, fn), the one key of the grid's
        tables: fn is tabulated again for every fn that is not equal to it,
        so a caller passes the same fn on every chunk.  A real fn is stored
        complex: a chunk that mixes float64 with complex operands in
        ``_small_buffers`` pays a cast per buffer of 16.  Besides fn, a
        table costs a constant number of numpy calls: a slice of the roots,
        one multiply, and one broadcast copy into the extension."""
        view = self._tables.get((a, fn))
        if view is None:
            n, c, const = self.n, a.coeffs, a.const
            # residue k sits at (k + shift) / n turns, shift = sum_r c_r
            # (1/2 + offset) + n const, split exactly into whole + frac:
            # e(k / n) rotated by whole places and scaled by e(frac / n)
            num, den = _HALF
            p, r = const.numerator, const.denominator
            whole, frac = divmod(int(sum(c)) * num * r + n * p * den, den * r)
            whole %= n
            values = fn(self._roots[whole:whole + n] * cmath.exp(
                2j * math.pi * (frac / (den * r * n))))
            # W's steps along f, i and j; a step of 0 (f's when dim = 2)
            # gives an axis of length 1
            steps = (int(self.dim > 2), c[-2], c[-1])
            # W[0, 0, 0] sits at a multiple of n, so position p holds
            # values[p mod n]: the lowest position W reads is then >= 0
            back = (n - 1) * sum(max(0, -k) for k in steps)
            start = -(-back // n) * n
            size = start + 1 + (n - 1) * sum(max(0, k) for k in steps)
            ext = np.empty(-(-size // n) * n, complex)
            ext.reshape(-1, n)[...] = values  # fn may return one scalar
            ext.flags.writeable = False
            item = ext.itemsize
            view = self._tables[a, fn] = np.ndarray(
                tuple(n if k else 1 for k in steps), complex, buffer=ext,
                offset=start * item, strides=tuple(k * item for k in steps))
        return view


class GridChunk:
    """The nodes at rows ``rows`` and columns ``cols`` (ranges) of the last
    two axes of a ``_ResidueGrid``, at the outer coordinates ``outer``
    (dim - 2 of them), so that c.I runs by c_head down the rows and by
    c_last along them: whole rows, or a segment of one row.  It answers
    ``Phasors.at(a, fn)`` with a slice of the view of the grid's table of
    fn(e(const + c.t)) on its n residues: the constant sits inside the
    tabulated angle, so the chunk builds no array of its own and no node
    takes an exp or a power.  An angle with c = 0 is one phasor, e(const)."""

    def __init__(self, grid: _ResidueGrid, outer: tuple, rows: range,
                 cols: range):
        self.grid, self.outer = grid, outer
        self._rows = slice(rows.start, rows.stop)
        self._cols = slice(cols.start, cols.stop)
        self.nodes = (len(rows), len(cols))
        self.shape = (grid.dim, len(rows) * len(cols))

    def at(self, a: AffineAngle, fn: Callable):
        c = a.coeffs
        if not any(c):
            return fn(a.phase)
        f = sum(k * i for k, i in zip(c, self.outer)) % self.grid.n
        return self.grid.table(a, fn)[f, self._rows if c[-2] else slice(None),
                                      self._cols if c[-1] else slice(None)]

    def even(self, values: np.ndarray) -> np.ndarray:
        """The chunk's values at its nodes of all-even index (a strided view,
        empty where an outer coordinate is odd)."""
        if any(i % 2 for i in self.outer):
            return values[:0]
        return values[self._rows.start % 2::2, self._cols.start % 2::2]


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


@dataclass
class FactorProgram:
    """A gamma factor of a family of representations, ready for grid
    evaluation.  Every factor is 1 - a_f e(c.t) with an integer vector c
    and the scalar a_f = e(const_f) q^{-(sdir s + shift)}.  The factors
    with c = 0 fold, with the monomial's e(unit) q^{qpow -
    exponent s}, into one scalar per s.  Every other factor, and the
    monomial's e(u.t), joins the group of its primitive direction d
    (``_primitive``: c = m d).  Along d it is a function of the direction
    phasor w = e(d.t) alone, and as every phasor has modulus 1

        1 - a_f w^m = w^m (w^{-m} - a_f),

    so a direction costs w^net prod (w^{-m} - a_f)^{+-1}, all its w^m joined
    in one power (``_direction_product``).  ``eval_phasors`` asks its
    chunk for each direction's product at the angle d.t (``at``): on
    ``Phasors`` it is costed per node; on a chunk of a grid of two or more
    axes (``GridChunk``) it is costed once per grid on the n residues of d.I
    and read through a strided view.  A direction in the head coordinates
    only gives one value per row, (0, ..., 0, 1) one per column; their
    product is written to the output in one pass, and each other direction
    is multiplied into it in place, one pass each.  ``factors`` keeps one
    entry per kept factor; ``quotient`` joins two programs into one.

    Poles: ``SpectralFunction.evaluate`` refuses a denominator factor below
    1e-14; no node here is guarded, as for s > 0 no program meets a pole:
    Sym^2's factors cross the bar as 1 - e(.) q^{-(s + r)}, and Ad's and
    wedge^2's denominators have shift >= 1.  ``_grid_means`` raises
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
    # output.  limit-d3 ops_per_s through bench/run.py (10 alternating
    # rounds of 10 s, 2-core Xeon, numpy 2.4, median [quartiles]): 2^13
    # 60.3 [55.3, 62.9], 2^14 67.8 [60.3, 71.6], 2^15 73.5 [66.4, 76.1],
    # 2^16 72.7 [66.2, 74.5]; 2^15 won 5 of the 10 rounds, 2^16 4
    BLOCK = 1 << 15

    # ``_at``'s values at the last s it was asked for
    _at_s = None

    # A program derives its factor groups and float arrays once, when they
    # are first read: ``ComponentModel`` evaluates only the quotient of its
    # Ad and Sym^2 programs, so those two derive none.

    @functools.cached_property
    def _scalars(self) -> tuple:
        """The indices of the factors with c = 0 in the numerator, and in
        the denominator."""
        return tuple([i for i, f in enumerate(self.factors)
                      if f.in_num is side and not any(f.coeffs)]
                     for side in (True, False))

    @functools.cached_property
    def _dirs(self) -> tuple:
        """(angle d.t, net, terms) of the directions that vary per row
        (d_last = 0), per column (d = (0, ..., 0, 1)) and per node."""
        # primitive direction d -> [net power of w, [(-m, factor, in num)]]
        dirs = {}
        if any(self.unit_coeffs):
            d, m = _primitive(self.unit_coeffs)
            dirs[d] = [m, []]
        for i, f in enumerate(self.factors):
            if any(f.coeffs):
                d, m = _primitive(f.coeffs)
                group = dirs.setdefault(d, [0, []])
                group[0] += m if f.in_num else -m
                group[1].append((-m, i, f.in_num))
        out = [], [], []
        for d, (net, terms) in dirs.items():
            kind = 0 if d[-1] == 0 else 1 if not any(d[:-1]) else 2
            out[kind].append((AffineAngle(Fraction(0), d), net, tuple(terms)))
        return out

    @functools.cached_property
    def _rot(self) -> np.ndarray:
        return np.exp(2j * np.pi * np.array(
            [f.const.numerator / f.const.denominator for f in self.factors],
            dtype=float))

    @functools.cached_property
    def _shift(self) -> np.ndarray:
        return np.array([f.shift for f in self.factors], dtype=float)

    @functools.cached_property
    def _sdir(self) -> np.ndarray:
        return np.array([f.sdir for f in self.factors], dtype=float)

    @classmethod
    def compile(cls, atoms, spec: LocalFieldSpec, nfree: int,
                regularize: bool, den: int) -> "FactorProgram":
        """The program of the gamma factor of ``atoms``, whose angles over
        the ``nfree`` free coordinates are packed over the common
        denominator ``den`` (``_packed_atoms``), as ``ComponentModel`` runs
        its plethysm.  ``gamma_parts`` runs on the packed integers, and each
        kept factor makes one ``Fraction``, its constant.  With
        ``regularize``, identically-vanishing numerator factors are left
        out: each gives exactly 1 after pairing with a zeta factor."""
        unit, qpow, exponent, num, dens = gamma_parts(atoms, spec.psi_level)
        # unit = h/2 + K, K packed and h = sum (m - 1): as in
        # WDRep.gamma_factor its constant is (2 unit + h (N - 1)) / 2N
        h = sum(m - 1 for _, m in atoms)
        twice, coeffs = _unpacked(unit.numerator * (2 // unit.denominator),
                                  nfree)
        angles = [_unpacked(a, nfree) for a, _, _ in num]
        factors = []
        for sign, group in ((1, num), (-1, dens)):
            for (k, c), (_, r, sd) in zip(angles, group):
                if not (r or k % den or any(c)):
                    if sign < 0:
                        raise ArithmeticError(
                            "denominator factor vanishes identically")
                    if regularize:
                        continue
                factors.append(_Factor(
                    Fraction(sign * k % den, den), tuple(sign * x for x in c),
                    r.numerator / r.denominator, sd, sign > 0))
        return cls(q=spec.q, nfree=nfree,
                   unit_const=Fraction((twice + h * (den - 1)) % (2 * den),
                                       2 * den),
                   unit_coeffs=tuple(x // 2 for x in coeffs),
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
            factors=([_Factor(f.const, f.coeffs, f.shift, 0, f.in_num)
                      for f in self.factors]
                     + [_Factor(f.const, f.coeffs, f.shift, f.sdir,
                                not f.in_num) for f in den.factors]))

    def eval(self, t: np.ndarray, s: complex) -> np.ndarray:
        """Evaluate at the nodes ``t`` of shape (nfree, M) and the point s,
        in one pass: M values, or one value when nfree = 0."""
        return self.eval_phasors(Phasors.of_nodes(t) if self.nfree
                                 else Phasors([], (1,)), s)

    def _at(self, s: complex) -> tuple:
        """(scalar, row, col, node) at the point s: the monomial's constant
        times the factors with c = 0, and the (angle, fn) of each direction
        per row, per column and per node, fn its ``_direction_product`` at
        s.  Made once per s and kept until the program is evaluated at
        another s, so that a grid finds each direction's fn again."""
        at = self._at_s
        if at is None or at[0] != s:
            a = self._rot * self.q ** (-(self._sdir * s + self._shift))
            scalar = (np.exp(2j * np.pi * float(self.unit_const))
                      * (self.q ** self.qpow) * self.q ** (-self.exponent * s))
            num, den = self._scalars
            scalar = scalar * np.multiply.reduce(1.0 - a[num]) \
                / np.multiply.reduce(1.0 - a[den])
            a = a.tolist()
            at = self._at_s = (s, complex(scalar)) + tuple(
                [(angle, functools.partial(_direction_product, net=net,
                                           terms=terms, a=a))
                 for angle, net, terms in kind] for kind in self._dirs)
        return at[1:]

    def eval_phasors(self, ph: Phasors | GridChunk, s: complex,
                     scale: complex = 1.0) -> np.ndarray:
        """Evaluate at the point s on the nodes of ``ph``, times ``scale``: a
        new array of shape ``ph.nodes``.  The scalar and the per-row
        directions make one array shaped like the chunk's head, the
        per-column direction one shaped like its last axis; their product
        is written to the output, and every other direction is multiplied
        into it.  ``scale`` joins the scalar, so it costs no pass over the
        nodes.  On a grid chunk ``ComponentModel._times_phi`` runs it in
        ``_small_buffers``."""
        scalar, rows, cols, nodes = self._at(s)
        out = np.empty(ph.nodes, dtype=complex)
        row, col = scalar * scale, 1.0
        for a, fn in rows:
            row = row * ph.at(a, fn)
        for a, fn in cols:
            col = ph.at(a, fn)
        np.multiply(row, col, out=out)
        for a, fn in nodes:
            out *= ph.at(a, fn)
        return out


# -- test functions ----------------------------------------------------------------


class TestFunction:
    """A smooth Weyl-invariant function Phi of a tempered point, given by its
    phasor form ``phasor_values``, in which Phi is a function of the block
    phasors z_b = e(theta_b) built from functions of one block, fn(z_b).  A
    chunk hands it a block accessor, z(b, fn) = fn(z_b) on its nodes, which
    is the chunk's ``at`` at block b's angle: on a grid of two or more axes
    fn is tabulated once per grid on the n residues of that angle and read
    as a strided view, so no node takes a block power.  ``values``, at
    per-block angles of shape (S, M), is the one wrapper over it; a subclass
    may not define another.  The classes below bind it in their own class
    dict, so that each can be wrapped (traced) on its own."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if vars(cls).get("values", TestFunction.values) is not \
                TestFunction.values:
            raise TypeError(f"{cls.__name__} defines values: a test function "
                            f"is given by phasor_values")

    def values(self, dims: tuple, angles: np.ndarray) -> np.ndarray:
        z = np.exp(2j * np.pi * angles)
        vals = self.phasor_values(dims, lambda b, fn: fn(z[b]))
        return np.broadcast_to(vals, angles.shape[1:]).astype(complex)

    def phasor_values(self, dims: tuple, z: Callable):
        """Phi on a chunk's nodes, from its block accessor z: z(b, fn) is
        fn(z_b) at block b's phasors, an array that broadcasts to the nodes'
        shape, or a scalar, to read and not to write.  fn maps one phasor
        array (or scalar) to its values without writing to it.  It is the
        same object, or an equal one, on every chunk, such as a function
        made once per test function or a bound method: a grid keeps fn's
        values per block angle and fn, so a fresh lambda per chunk gives the
        same values but tabulates them again on every chunk.  The result is
        an array or scalar that broadcasts to the nodes; one scalar when Phi
        does not vary."""
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


def _real_power_sum(terms: tuple, w):
    """Re sum c w^h over the (h, c) of ``terms``, h != 0."""
    return functools.reduce(np.add, (c * _phasor_power(w, h)
                                     for h, c in terms)).real


class TrigPhi(TestFunction):
    """const + Re( sum of coeff * powersum_{h,k} ), where powersum_{h,k} is
    the sum of z_b^h = e^{2 pi i h theta_b} over blocks of size k.
    Invariant under any permutation of equal-size blocks.  In phasor form
    it is const + sum_b g_{k_b}(z_b), g_k(z) = Re sum c z^h over the terms
    of block size k with h != 0, one function of one block; a term with h
    = 0 adds Re(c) times the number of blocks of size k to the constant."""

    def __init__(self, terms: Sequence[tuple], const: float = 1.0):
        # terms: (h, k, coeff)
        self.terms = [(read_number(h, int), read_number(k, int),
                       read_number(c, complex)) for (h, k, c) in terms]
        if any(k < 1 for _, k, _ in self.terms):
            raise ValueError("a trig term's block size k must be >= 1")
        self.const = read_number(const, float)
        by_size = {}
        for h, k, c in self.terms:
            if h:
                by_size.setdefault(k, []).append((h, c))
        self._g = {k: functools.partial(_real_power_sum, tuple(t))
                   for k, t in by_size.items()}

    values = TestFunction.values

    def phasor_values(self, dims, z):
        const = sum(((c * dims.count(k)).real for h, k, c in self.terms
                     if h == 0), self.const)
        return sum((z(b, self._g[k]) for b, k in enumerate(dims)
                    if k in self._g), const)

    def describe(self):
        return {"kind": "trig", "const": self.const,
                "terms": [[h, k, [c.real, c.imag]] for (h, k, c) in self.terms]}


class GaussianPhi(TestFunction):
    """Product over blocks of the truncated Fourier series of a Gaussian
    bump, 1 + sum_{h <= hmax} 2 e^{-(width h)^2} cos 2 pi h (theta - center),
    whose cosines are Re(e(-h center) z^h); multiset-invariant by
    construction.  Truncated, it is not non-negative: its minimum on a
    circle is about -8.9e-5 with the defaults and -0.022 at (0.3, 0.1, 6).
    In phasor form it is prod_b bump(z_b), one function of one block."""

    def __init__(self, width: float = 0.35, center: float = 0.0, hmax: int = 8):
        self.width = read_number(width, float)
        self.center = read_number(center, float)
        self.hmax = read_number(hmax, int)
        if self.hmax < 0:
            raise ValueError("hmax must be >= 0")
        self._coeffs = [2 * math.exp(-(self.width * h) ** 2)
                        * cmath.exp(-2j * math.pi * h * self.center)
                        for h in range(1, self.hmax + 1)]

    values = TestFunction.values

    def _bump(self, w):
        out, power = 1.0, 1.0
        for c in self._coeffs:
            power = power * w
            out = out + (c * power).real
        return out

    def phasor_values(self, dims, z):
        return math.prod((z(b, self._bump) for b in range(len(dims))),
                         start=1.0)

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


_WEYL_SAMPLES, _WEYL_TOL = 32, 1e-12


def check_weyl_invariance(phi: TestFunction, dims: tuple, rng):
    """Reject test functions that change under permutations of equal-size
    blocks (8 sampled, at 32 random points) by more than 1e-12 relative to
    their largest sampled value, or 1e-12 absolute when that is below 1: a
    permutation reorders sums, and so moves the rounding of a large Phi.
    The samples and all their permutations take one call of ``values``."""
    dims, samples = tuple(dims), _WEYL_SAMPLES
    angles = rng.random((len(dims), samples))
    perms = [_random_dim_preserving_permutation(dims, rng) for _ in range(8)]
    vals = phi.values(dims, np.concatenate(
        [angles] + [angles[perm, :] for perm in perms], axis=1))
    ref, vals = vals[:samples], vals[samples:].reshape(len(perms), samples)
    if np.max(np.abs(vals - ref)) > _WEYL_TOL * max(1.0, np.max(np.abs(ref))):
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


def _mirror_sizes(layout: list) -> list:
    """The block size of each free coordinate of the mirrored subtorus."""
    return [k for k, _, row in layout if row and row[1] == 1]


def _covering_orders(layout: list) -> tuple[int, int]:
    """(lhs, rhs) covering orders: the product over block sizes k of
    (number of blocks of size k)!, and of c_k! 2^{c_k} for the c_k free
    coordinates of size k.  The left one is the generic fiber of the
    parametrizing torus over the component: every permutation of same-size
    blocks extends to a twisted identification, because unramified
    twisted-Steinberg blocks of one size are all twist-equivalent; it
    equals |W(M, sigma)| exactly when same-size blocks carry the same base
    character.  The right one is the generic fiber of the mirrored
    subtorus over the orthogonal locus: same-size mirrored pairs permute
    freely and each pair flips."""
    mirror = _mirror_sizes(layout)
    return (multiplicity_order(k for k, _, _ in layout),
            multiplicity_order(mirror) * 2 ** len(mirror))


@dataclass
class QuadConfig:
    n_base: int = 128
    rhs_n: int = 128
    s0: float = 0.1
    s_count: int = 6
    tol: float = 1e-3
    max_nodes: int = 2 ** 22
    # every grid's node offset and Richardson's order, the same for all runs
    offset: ClassVar[float] = 0.5 * (math.sqrt(5) - 1)  # golden: dodges hits
    extrap_order: ClassVar[int] = 3

    def __post_init__(self):
        """Refuse settings that leave no s-sequence, an empty grid or a
        tolerance no run can meet: the limit is taken from s0 > 0 down, and
        tol > 0 also sizes the left grid."""
        for name in ("s0", "tol"):
            if not (math.isfinite(getattr(self, name))
                    and getattr(self, name) > 0):
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {getattr(self, name)}")
        for name in ("s_count", "n_base", "rhs_n", "max_nodes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, "
                                 f"got {getattr(self, name)}")

    def s_values(self) -> list:
        """The geometric s-sequence s0, s0 / 2, ... of s_count terms."""
        return [self.s0 * 2.0 ** (-k) for k in range(self.s_count)]

    def capped(self, n: int, dim: int) -> tuple[int, bool]:
        """n nodes per axis, cut by factors of 1.3 until the grid of n^dim
        nodes fits ``max_nodes``, and whether it was cut: the one node
        budget of the left and the right grids."""
        cut = False
        while n ** dim > self.max_nodes:
            n = int(n / 1.3)
            cut = True
        return n, cut


# 1/2 + offset as an exact ratio of integers, for ``_ResidueGrid``
_HALF = (Fraction(1, 2) + Fraction(QuadConfig.offset)).as_integer_ratio()


class ComponentModel:
    """Everything needed to integrate over one component of the tempered dual
    with fixed central character, and over the mirrored subtorus of its
    orthogonal locus."""

    def __init__(self, triple: OrthTriple, spec: LocalFieldSpec,
                 chi_minus_one: int = 1):
        self.spec = spec
        self.chi_minus_one = int(chi_minus_one)
        self.consts = c = appendix_constants(triple)
        layout = triple.layout()
        self.dims = tuple(k for k, _, _ in layout)
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
        # the left side's mass in closed form: for the kernel-lattice basis
        # v_1..v_R below, det[k_b v_r(b) | e_0] = +-prod(k) / gcd(k), so the
        # Jacobian over P = prod(k) is 1 / gcd(k), and F_lhs is the covering
        self.mass = Fraction(1, math.gcd(*self.dims) * self.F_lhs)

        # LHS torus: kernel-lattice basis of the block-dimension vector
        basis = _kernel_lattice_basis(self.dims)
        self.R_lhs = len(basis)
        self.lhs_atoms = [(AffineAngle(u, tuple(int(v[b]) for v in basis)), k)
                          for b, (k, u, _) in enumerate(layout)]
        # RHS subtorus: a block with mirror row (i, sign) has twist sign * x_i
        self.R_rhs = len(mirror_sizes)
        self.rhs_atoms = [
            (AffineAngle(u, tuple(row[1] if row and row[0] == i else 0
                                  for i in range(self.R_rhs))), k)
            for k, u, row in layout]

        # the plethysm on angles packed over the blocks' common denominator
        n = math.lcm(*(u.denominator for _, u, _ in layout))
        lhs = _packed_atoms(self.lhs_atoms, n)
        rhs = _packed_atoms(self.rhs_atoms, n)
        self.sym2_lhs = FactorProgram.compile(sym2_atoms(lhs), spec,
                                              self.R_lhs, False, n)
        self.ad_lhs = FactorProgram.compile(ad_over_center_atoms(lhs), spec,
                                            self.R_lhs, True, n)
        self.lhs_program = self.ad_lhs.quotient(self.sym2_lhs)
        self.wedge2_rhs = FactorProgram.compile(wedge2_atoms(rhs), spec,
                                                self.R_rhs, True, n)

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
        chunk: the grid chunk t itself, or ``Phasors`` of the nodes t.  The
        block accessor is the chunk's ``at`` at each block's angle.  A phi
        that is one scalar on the chunk joins the program's scalar instead
        of a pass over the nodes."""
        ph = Phasors.of_nodes(t) if isinstance(t, np.ndarray) else t
        with _small_buffers():
            phi_t = phi.phasor_values(self.dims,
                                      lambda b, fn: ph.at(atoms[b][0], fn))
            if np.ndim(phi_t) == 0:
                return prog.eval_phasors(ph, s, phi_t)
            out = prog.eval_phasors(ph, s)
            out *= phi_t
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
        Fourier degree, and the node budget caps it.  On more than one axis
        n is a multiple of 4 (``lhs_mean``): rounded up, or down where the
        budget requires it, which flags the cap.  A denominator with dist_f
        <= 0 meets the torus and raises ``PoleError``."""
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
        dim = max(self.R_lhs, 1)
        n, capped = cfg.capped(n, dim)
        if dim >= 2 and n % 4:
            up = n + 4 - n % 4
            n, capped = ((up, capped) if up ** dim <= cfg.max_nodes
                         else (n - n % 4 or n, True))
        return n, capped

    def lhs_mean(self, phi: TestFunction, s: float, cfg: QuadConfig):
        """Mean of the LHS integrand over the component torus; returns
        (mean, error_estimate, n, nodes, budget_flag), n the grid's nodes
        per axis (1 on a point).  The error estimate is the distance to the
        mean on a coarser grid, read in the same call of ``_grid_means``: on
        a 1-D torus one of about n / sqrt(2) nodes, which shares chunks with
        the fine grid; on more axes the fine grid's sub-grid of all-even
        index, so that ``nodes`` is n^R."""
        dim = self.R_lhs

        def integrand(t):
            return self.lhs_integrand(phi, t, s)

        if dim == 0:
            return _grid_mean(integrand, 0, 1), 0.0, 1, 1, False
        n, capped = self.lhs_grid_size(s, cfg)
        # The integrand's Fourier modes span a lattice L that holds 2Z^R
        # (Sym^2 has a factor at twice each block's angle, and the block
        # angles span Z^R): an even grid aliases at the modes nZ^R, an odd
        # one only at nL, which can be far finer (L = 2Z for Io = {1,
        # quadratic} and a constant phi), and the estimate must alias where
        # the fine grid does not.  On one axis the coarse grid takes the
        # fine grid's parity, so its aliases are the fine ones scaled by
        # n2 / n.  On more, n is a multiple of 4 and the sub-grid aliases at
        # (n / 2)Z^R, in L and beyond nZ^R; with n / 2 odd and L = 2Z^R it
        # would alias where the fine grid does and read 0.  Below 4 nodes
        # per axis (a capped grid) there is no sub-grid: the error is |mean|.
        if dim == 1:
            n2 = int(n / math.sqrt(2))
            n2 = max(1, n2 - (n - n2) % 2)
            mean, mean2 = _grid_means(integrand, dim, (n, n2))
            return mean, abs(mean - mean2), n, n + n2, capped
        mean, *sub = _grid_means(integrand, dim, (n,), even=n >= 4)
        return mean, abs(mean - sum(sub)), n, n ** dim, capped

    def lhs_value(self, phi: TestFunction, s: float, cfg: QuadConfig):
        """d * gamma(s, 1, psi) * (component constants) * mean, with the
        rest of ``lhs_mean``'s tuple."""
        mean, err, n, nodes, flag = self.lhs_mean(phi, s, cfg)
        # d chi(-1)^{d-1} mass as one correctly rounded division of integers
        pref = (self.d * self.chi_minus_one ** (self.d - 1) * self.mass.numerator
                / self.mass.denominator * self._gamma_triv.evaluate(s))
        return pref * mean, abs(pref) * err, n, nodes, flag

    def rhs_value(self, phi: TestFunction,
                  cfg: QuadConfig) -> tuple[complex, bool]:
        """(value, capped): 2 chi(-1)^{d-1} / (F 2^c) times the mean over
        the free coordinates, on ``rhs_n`` nodes per axis cut to the node
        budget, and whether the budget cut them.  The Jacobian factor (D d'
        / P) (2 pi / log q)^{2N - S - c} is exactly 1, as ``__init__``
        checks."""
        n, capped = cfg.capped(cfg.rhs_n, self.R_rhs)
        mean = _grid_mean(lambda t: self.rhs_integrand(phi, t), self.R_rhs, n)
        const = (2 * (self.chi_minus_one ** (self.d - 1))
                 / (self.F_rhs * 2 ** self.consts.c))
        return const * mean, capped

    def measure_mass(self, phi: TestFunction, cfg: QuadConfig) -> float:
        """The component mass realized by the LHS quadrature with all gamma
        factors dropped, that is with the empty program: ``mass`` = 1 /
        (gcd(k) F) times the plain mean of phi, F the covering order (=
        |W(M, sigma)| for twist-inequivalent blocks).  The grid has
        ``n_base`` nodes per axis, cut like the left grid's to fit
        ``max_nodes``."""
        empty = FactorProgram.compile([], self.spec, self.R_lhs, False, 1)
        mean = _grid_mean(lambda t: self._times_phi(empty, phi, t, 0.0,
                                                    self.lhs_atoms),
                          self.R_lhs, cfg.capped(cfg.n_base, self.R_lhs)[0])
        return float(self.mass) * mean.real


# -- grids -----------------------------------------------------------------------


def _row_chunks(ns: tuple):
    """The 1-D grids of n nodes for each n of ``ns``, grid after grid in
    node order, in chunks of at most BLOCK nodes: pairs (``Phasors`` of the
    chunk's axis phasors e((i + 1/2 + offset) / n), its pieces (g, size) in
    order).  A grid is cut at the multiples of BLOCK, as when read alone,
    and its segments share a chunk while they fit."""
    block, chunks, used = FactorProgram.BLOCK, [[]], 0
    for g, n in enumerate(ns):
        for j in range(0, n, block):
            seg = (g, j, min(n, j + block))
            if used + seg[2] - j > block:
                chunks.append([])
                used = 0
            chunks[-1].append(seg)
            used += seg[2] - j
    for pieces in chunks:
        axis = np.concatenate([np.exp(2j * np.pi * (
            (np.arange(j, stop) + 0.5 + QuadConfig.offset) / ns[g]))
            for g, j, stop in pieces])
        yield Phasors([axis], axis.shape), [(g, stop - j)
                                            for g, j, stop in pieces]


def _grid_chunks(dim: int, n: int):
    """The chunks of a grid of ``_grid_means`` on no axis or on two or more
    (``_row_chunks`` reads the 1-D grids), in node order, each of at most
    BLOCK nodes.  A point is one ``Phasors`` of no coordinate.  With dim >=
    2 a chunk is a ``GridChunk`` of one ``_ResidueGrid``, which reads every
    function of e(c.t) from a table of its n residues: BLOCK // n whole rows
    of the last axis, fewer where the outer coordinates (all but the last
    two) carry, so that its rows form one arithmetic run, or when n > BLOCK
    a segment of one row.  No grid node takes an exp or a coordinate of its
    own."""
    if dim == 0:
        yield Phasors([], (1,))
        return
    block = FactorProgram.BLOCK
    grid, rows = _ResidueGrid(dim, n), max(1, block // n)
    for outer in itertools.product(range(n), repeat=dim - 2):
        for i in range(0, n, rows):
            for j in range(0, n, block):
                yield GridChunk(grid, outer, range(i, min(n, i + rows)),
                                range(j, min(n, j + block)))


def _grid_means(fun: Callable, dim: int, ns: tuple,
                even: bool = False) -> list:
    """Mean of fun over the uniform offset grid of n^dim nodes for each n of
    ``ns`` (n^0 = 1: a point), node (i_1..i_dim) at ((i_r + 1/2 + offset) /
    n)_r.  For periodic integrands this is the trapezoid rule up to
    translation, hence spectrally accurate; the golden offset keeps nodes
    off the exact singular loci.  fun takes each chunk, whose ``shape`` is
    (dim, nodes in the chunk), and its values are summed at once, so memory
    does not grow with the grid and no node takes an exp or a coordinate.
    Every 1-D grid is read through ``_row_chunks``: the grids of ``ns``
    share chunks, each summing its own pieces, so a chunk adds up as it
    would alone.  On other dims ``ns`` holds one n, read chunk by chunk
    (``_grid_chunks``).  With ``even`` (dim >= 2, n even) the means end
    with the one over the nodes I = 2J, at ((J_r + (1/2 + offset) / 2) /
    (n / 2))_r: the offset rule on n / 2 nodes per axis, summed from each
    chunk's slice of them (``GridChunk.even``).  A grid's sum that is not
    finite met a pole (see ``FactorProgram``) or a value beyond floating
    range, and raises ``PoleError``; that check is the guard, so numpy's
    overflow and invalid warnings, from the chunks' products and from their
    sums, are hidden."""
    totals = [0j] * (len(ns) + even)
    with np.errstate(over="ignore", invalid="ignore"):
        if dim == 1:
            for ph, pieces in _row_chunks(ns):
                values, at = fun(ph), 0
                for g, size in pieces:
                    totals[g] += complex(values[at:at + size].sum())
                    at += size
        else:
            [n] = ns
            for ph in _grid_chunks(dim, n):
                values = fun(ph)
                totals[0] += complex(values.sum())
                if even:
                    totals[1] += complex(ph.even(values).sum())
    sizes = [n ** dim for n in ns] + [(ns[0] // 2) ** dim] * even
    for total, size in zip(totals, sizes):
        if not cmath.isfinite(total):
            raise PoleError(f"the mean over {size} nodes is not finite: "
                            f"a pole or a value beyond floating range")
    return [total / size for total, size in zip(totals, sizes)]


def _grid_mean(fun: Callable, dim: int, n: int) -> complex:
    """The mean of fun over the one grid of n^dim nodes (``_grid_means``)."""
    return _grid_means(fun, dim, (n,))[0]


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
    nodes_used: int         # left-grid nodes, and a 1-D coarse grid's
    budget_exceeded: bool   # the left or the right grid was capped
    grid_n: list

    def to_dict(self) -> dict:
        """The fields in order, each complex number as [re, im]."""
        d = dataclasses.asdict(self)
        d["lhs_values"] = [[v.real, v.imag] for v in self.lhs_values]
        for k in ("lhs_extrapolated", "rhs"):
            d[k] = [d[k].real, d[k].imag]
        return d


def verify(triple: OrthTriple, phi: TestFunction, spec: LocalFieldSpec,
           cfg: Optional[QuadConfig] = None,
           chi_minus_one: int = 1) -> LimitReport:
    """Run the full limit check: LHS over a decreasing s-sequence with
    Richardson extrapolation against the closed-form RHS.  The check fails
    when a left grid or the right grid was cut to the node budget, as each
    of them reports (``lhs_value``, ``rhs_value``)."""
    cfg = cfg or QuadConfig()
    model = ComponentModel(triple, spec, chi_minus_one)
    check_weyl_invariance(phi, model.dims, np.random.default_rng(20240901))
    s_values = cfg.s_values()
    lhs_vals, lhs_errs, grid_n, nodes, flags = map(list, zip(*(
        model.lhs_value(phi, s, cfg) for s in s_values)))
    extrap = richardson(s_values, lhs_vals, cfg.extrap_order)
    rhs, rhs_capped = model.rhs_value(phi, cfg)
    budget = any(flags) or rhs_capped
    absd = abs(extrap - rhs)
    reld = absd / max(abs(rhs), 1e-12)
    return LimitReport(
        s_values=s_values, lhs_values=lhs_vals, lhs_errors=lhs_errs,
        lhs_extrapolated=extrap, rhs=rhs, abs_discrepancy=absd,
        rel_discrepancy=reld, tolerance=cfg.tol,
        passed=bool(reld < cfg.tol and not budget),
        nodes_used=sum(nodes), budget_exceeded=budget, grid_n=grid_n)


# -- exact pointwise checks -----------------------------------------------------------


def subtorus_twists(triple: OrthTriple, free: Sequence[Fraction]) -> list:
    """Per-block twist angles for a point of the mirrored subtorus, given its
    free coordinates, numbered as in the rows of ``triple.layout()``."""
    free = [as_fraction(x) for x in free]
    layout = triple.layout()
    expected = len(_mirror_sizes(layout))
    if len(free) != expected:
        raise ValueError(f"expected {expected} free coordinates, got {len(free)}")
    return [Fraction(0) if row is None else mod1(row[1] * free[row[0]])
            for _, _, row in layout]


def point_parameter(triple: OrthTriple, twists: Sequence[Fraction]) -> WDRep:
    """Each block at its base angle plus its twist, built on numerators."""
    layout = triple.layout()
    if len(twists) != len(layout):
        raise ValueError("one twist per block required")
    angles = [(u, as_fraction(t), k) for (k, u, _), t in zip(layout, twists)]
    n = math.lcm(*(x.denominator for u, t, _ in angles for x in (u, t)))
    return from_numerators([(u.numerator * (n // u.denominator)
                             + t.numerator * (n // t.denominator), k)
                            for u, t, k in angles], n)


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


def singular_exponent(triple: OrthTriple, twists: Sequence[Fraction]) -> int:
    """Pole order at s = 0 of the inverse Sym^2 gamma factor at a torus
    point, counted through the vanishing linear forms of the pinch loci:
    dual-pair sums, symplectic sums below the diagonal, orthogonal sums on
    and below the diagonal."""
    twists = [as_fraction(t) for t in twists]
    count = 0
    offset_dual = sum(m for _, m in triple.dual_pairs)
    i0 = 0
    for a, m in triple.dual_pairs:
        xs = twists[i0:i0 + m]
        xvs = twists[offset_dual + i0:offset_dual + i0 + m]
        count += sum(1 for x in xs for xv in xvs if (x + xv).denominator == 1)
        i0 += m
    pos = 2 * offset_dual
    for groups, above in ((triple.symplectic, 1), (triple.orthogonal, 0)):
        for a, p in groups:
            ys = twists[pos:pos + p]
            count += sum(1 for i in range(p) for j in range(i + above, p)
                         if (ys[i] + ys[j]).denominator == 1)
            pos += p
    return count


def singular_exponent_engine(triple: OrthTriple, twists: Sequence[Fraction],
                             spec: LocalFieldSpec) -> int:
    """Oracle: the exact vanishing order of the Sym^2 gamma factor."""
    param = point_parameter(triple, twists)
    return param.sym2().gamma_factor(spec).ord_zero_at_zero()
