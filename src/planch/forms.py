"""Bilinear forms, twisted conjugacy classes and the odd orthogonal embedding.

All linear algebra is exact over the rationals: rank decisions transfer to
the p-adic field (rank of a rational matrix is the same over any field of
characteristic zero), and square-class decisions use the exact Hensel
criteria from ``field``.  Matrices are tuples of ``Fraction``, but the
arithmetic runs in Python integers: a matrix is cleared to integer rows over
one common denominator, products, the group and reconstruction checks and
``charpoly`` run on those rows, and a ``Fraction`` is made only for an entry
that is returned, never per arithmetic step.  B_g is read from g, the
transpose of its V* x V block, not multiplied out as g^T Q.  One
fraction-free (Bareiss) Gauss-Jordan elimination, ``_reduce``, is the only
row reduction: ``det``, ``rank``, ``solve``, ``inverse`` and the kernel basis
all read it.  A matrix is checked to lie in SO(2d+1) once, where it enters
``OddSOEmbedding.element``; the elements the embedding builds, and the ones
that element returns, carry that as the type ``SOElement``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Optional, Sequence

from .field import SquareClass, read_number, square_class, valuation
from .spectral import as_fraction

Matrix = tuple  # tuple of tuples of Fraction


class NotInGroupError(ValueError):
    pass


class DegenerateFormError(ValueError):
    pass


class NotRegularError(ValueError):
    pass


# -- exact matrix helpers ------------------------------------------------------

def mat(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(map(as_fraction, row)) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n))
                 for i in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(map(tuple, zip(*a)))


def mat_add(a: Matrix, b: Matrix, sign: int = 1) -> Matrix:
    op = {1: operator.add, -1: operator.sub}[sign]
    return tuple(tuple(map(op, ra, rb)) for ra, rb in zip(a, b))


def _cleared(a: Matrix) -> tuple[list, int]:
    """Integer rows and the least common denominator den, a = rows / den."""
    den = math.lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (den // x.denominator) for x in row]
            for row in a], den


def _fractions(rows: list, den: int) -> Matrix:
    """rows / den: one Fraction per entry, and no gcd when den is 1."""
    if den == 1:
        return tuple(tuple(map(Fraction, row)) for row in rows)
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


def _imul(a: list, b: list) -> list:
    """The product of integer rows a and b."""
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def _product(*ms: Matrix) -> tuple[list, int]:
    """The product of the matrices ms as integer rows and a denominator."""
    rows, den = _cleared(ms[0])
    for m in ms[1:]:
        im, dm = _cleared(m)
        rows, den = _imul(rows, im), den * dm
    return rows, den


def _same(x: tuple, y: tuple) -> bool:
    """Whether two (integer rows, denominator) pairs are one matrix."""
    (rx, dx), (ry, dy) = x, y
    return [[v * dy for v in row] for row in rx] == \
        [[v * dx for v in row] for row in ry]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return _fractions(*_product(a, b))


def _reduce(a: Matrix):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of a.

    Returns (pivots, rows, p, sign, den): the pivot columns, the reduced
    integer rows, the last pivot p, the sign of the row swaps and the common
    denominator den of a.  The reduced row-echelon form of a is rows / p;
    for a square a of full rank, det(a) = sign p / den^n.
    """
    rows, den = _cleared(a)
    pivots, sign, p = [], 1, 1
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        top, prev, p = rows[r], p, rows[r][col]
        for i, row in enumerate(rows):
            if i != r:
                # exact division: every entry is a minor of den * a
                f = row[col]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        pivots.append(col)
    return pivots, rows, p, sign, den


def _side(a: Matrix, what: str) -> int:
    """n for an n x n matrix a; ``ValueError`` for any other shape."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError(f"{what} of a non-square matrix")
    return n


def rank(a: Matrix) -> int:
    return len(_reduce(a)[0])


def det(a: Matrix) -> Fraction:
    """Exact determinant, sign p / den^n of ``_reduce`` at full rank."""
    n = _side(a, "determinant")
    pivots, _, p, sign, den = _reduce(a)
    return Fraction(sign * p, den ** n) if len(pivots) == n else Fraction(0)


def _solve(a: Matrix, b: Matrix) -> tuple[list, int]:
    """(rows, p) with a x = b at x = rows / p, for square invertible a and
    b of as many rows: [a | b] reduces to [1 | x]."""
    n = _side(a, "solve")
    if len(b) != n:
        raise ValueError(f"solve of {n} rows against a right side of {len(b)}")
    pivots, rows, p, _, _ = _reduce(tuple((*ra, *rb) for ra, rb in zip(a, b)))
    if pivots[:n] != list(range(n)):
        raise DegenerateFormError("matrix is singular")
    return [row[n:] for row in rows], p


def solve(a: Matrix, b: Matrix) -> Matrix:
    """x with a x = b for square invertible a."""
    return _fractions(*_solve(a, b))


def inverse(a: Matrix) -> Matrix:
    return solve(a, identity(len(a)))


def charpoly(a: Matrix) -> tuple:
    """Monic characteristic polynomial det(T I - a), coefficients from the
    constant term up: Faddeev-LeVerrier on the integer matrix den a, whose
    coefficient c_k of T^(n-k) is an integer; that of a is c_k / den^k."""
    n = _side(a, "characteristic polynomial")
    ia, den = _cleared(a)
    m, coeffs = [[int(i == j) for j in range(n)] for i in range(n)], [1]
    for k in range(1, n + 1):
        m = _imul(ia, m)
        c = -sum(m[i][i] for i in range(n)) // k  # exact
        coeffs.append(Fraction(c, den ** k))
        for i in range(n):
            m[i][i] += c
    return (*coeffs[:0:-1], Fraction(1))


def poly_mul(p: tuple, q: tuple) -> tuple:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return tuple(out)


def poly_is_squarefree(p: tuple) -> bool:
    """p of degree n >= 1, coefficients from the constant term up, has no
    repeated root: its resultant with p', the determinant of their
    (2n - 1)-square Sylvester matrix, is not 0."""
    n = len(p) - 1
    dp = [i * c for i, c in enumerate(p)][1:]
    rows = [[0] * i + coeffs[::-1] + [0] * (2 * n - 1 - i - len(coeffs))
            for coeffs, count in ((list(p), n - 1), (dp, n))
            for i in range(count)]
    return det(rows) != 0


# -- bilinear forms -------------------------------------------------------------


@dataclass(frozen=True)
class BilForm:
    """B(x, y) = x^T gram y."""

    gram: Matrix

    def __post_init__(self):
        object.__setattr__(self, "gram", mat(self.gram))
        n = len(self.gram)
        if not n or any(len(row) != n for row in self.gram):
            raise ValueError("Gram matrix must be square and nonempty")

    @property
    def d(self) -> int:
        return len(self.gram)

    def is_nondegenerate(self) -> bool:
        return det(self.gram) != 0

    def sym_part(self) -> Matrix:
        """B^s with Gram gamma + gamma^T (so 2B = B^s + B^a)."""
        return mat_add(self.gram, transpose(self.gram))

    def alt_part(self) -> Matrix:
        return mat_add(self.gram, transpose(self.gram), sign=-1)

    def to_dict(self) -> dict:
        return {"matrix": [[str(x) for x in row] for row in self.gram]}

    @classmethod
    def from_dict(cls, d: dict) -> "BilForm":
        return cls(mat([[read_number(x) for x in row] for row in d["matrix"]]))


@dataclass(frozen=True)
class OrbitLabel:
    kind: str  # "gamma_t" | "gamma_0" | "outside_sharp"
    t: Optional[SquareClass] = None

    def __repr__(self):
        if self.kind == "gamma_t":
            return f"gamma_t({self.t.representative()})"
        return self.kind


def classify_sharp(b: BilForm, p: int) -> OrbitLabel:
    """Orbit label of a nondegenerate form: gamma_t if the symmetric part has
    rank one of class t and the alternating part has maximal rank, gamma_0
    for alternating forms in even dimension, outside_sharp otherwise."""
    if not b.is_nondegenerate():
        raise DegenerateFormError("classify_sharp needs a nondegenerate form")
    d = b.d
    s, a = b.sym_part(), b.alt_part()
    rs = rank(s)
    if rs == 0:  # nondegenerate and alternating, so d is even
        return OrbitLabel("gamma_0")
    if rs == 1 and rank(a) == d - d % 2:
        # s = c v v^T, so each nonzero s_ii = c v_i^2 has the class of c
        t = next(s[i][i] for i in range(d) if s[i][i] != 0)
        return OrbitLabel("gamma_t", square_class(t, p))
    return OrbitLabel("outside_sharp")


def gamma_t_representative(t: SquareClass, d: int) -> BilForm:
    """An explicit form with alternating part of maximal rank and symmetric
    part of rank one and class t."""
    if d < 1:
        raise ValueError("d must be >= 1")
    c = Fraction(t.representative(), 2)
    g = [[Fraction(0)] * d for _ in range(d)]
    g[0][0] = c  # B^s = 2c E_11, class(2c) = t
    start = 1 if d % 2 == 1 else 0
    if d % 2 == 0:
        # rank-1 correction sits on a symplectic pair to keep nondegeneracy
        g[0][1] += Fraction(1, 2)
        g[1][0] += Fraction(-1, 2)
        start = 2
    for i in range(start, d - 1, 2):
        g[i][i + 1] = Fraction(1, 2)
        g[i + 1][i] = Fraction(-1, 2)
    return BilForm(mat(g))


def disc_twisted(b: BilForm, p: int) -> SquareClass:
    """Square class of det(gram); invariant under the twisted conjugation."""
    dv = det(b.gram)
    if dv == 0:
        raise DegenerateFormError("discriminant of a degenerate form")
    return square_class(dv, p)


def twisted_conjugate(b: BilForm, m: Matrix) -> BilForm:
    """Ad(m) B: gram -> m^{-T} gram m^{-1}."""
    mi = inverse(m)
    return BilForm(_fractions(*_product(transpose(mi), b.gram, mi)))


def char_poly_twisted(b: BilForm) -> tuple:
    """Characteristic polynomial of gram^{-T} gram, exact coefficients;
    ``solve`` raises ``DegenerateFormError`` on a degenerate form."""
    return charpoly(solve(transpose(b.gram), b.gram))


def correspond_char_poly(coeffs: tuple, flavor: str) -> tuple:
    """Map a monic degree-2n characteristic polynomial to the twisted-space
    side: chi(-T) in the orthogonal-even flavor, chi(T)(T-1) in the
    symplectic-odd flavor."""
    coeffs = tuple(Fraction(c) for c in coeffs)
    deg = len(coeffs) - 1
    if coeffs[-1] != 1:
        raise ValueError("input polynomial must be monic")
    if deg % 2 != 0:
        raise ValueError("input polynomial must have even degree")
    if flavor == "orthogonal-even":
        return tuple(c * (-1) ** i for i, c in enumerate(coeffs))
    if flavor == "symplectic-odd":
        return poly_mul(coeffs, (Fraction(-1), Fraction(1)))
    raise ValueError(f"unknown flavor {flavor!r}")


# -- twisted Weyl discriminant ---------------------------------------------------


def _theta_matrix(gram: Matrix) -> Matrix:
    """Matrix of X -> -gram^{-1} X^T gram on gl_d, in the basis E_ij
    (row-major)."""
    d = len(gram)
    gi = inverse(gram)
    # theta(E_ij)_(a,b) = -(gram^{-1})_(a,j) gram_(i,b)
    return tuple(tuple(-gi[a][j] * gram[i][b]
                       for i in range(d) for j in range(d))
                 for a in range(d) for b in range(d))


def _one_minus_theta(gram: Matrix) -> Matrix:
    """1 - theta on gl_d; its kernel is the twisted fixed space."""
    return mat_add(identity(len(gram) ** 2), _theta_matrix(gram), sign=-1)


def _kernel_basis(a: Matrix) -> list:
    """Basis of the kernel of a (list of coefficient vectors): for each free
    column j, 1 at j and minus the reduced row-echelon column j at the
    pivots."""
    pivots, rows, p, _, _ = _reduce(a)
    m = len(a[0])
    basis = []
    for j in [j for j in range(m) if j not in pivots]:
        v = [Fraction(0)] * m
        v[j] = Fraction(1)
        for c, row in zip(pivots, rows):
            v[c] = Fraction(-row[j], p)
        basis.append(v)
    return basis


def twisted_fixed_space(b: BilForm) -> list:
    """Basis of the fixed Lie algebra of the twisted adjoint action."""
    return _kernel_basis(_one_minus_theta(b.gram))


def weyl_discriminant_twisted(b: BilForm, p: int, q: int) -> float:
    """|det(1 - Ad(gamma) on gl_d / fixed)| in the normalized absolute value
    q^{-v}.  Requires the form to be strongly regular: fixed space of the
    minimal dimension floor(d/2), abelian, and semisimple transverse part.
    A degenerate form raises ``DegenerateFormError`` from the first
    ``solve``, in ``char_poly_twisted``."""
    d = b.d
    # eigenvalue collisions of the twisted action enlarge the stabilizer
    # beyond a torus (every stabilizer element commutes with gram^{-T} gram)
    if not poly_is_squarefree(char_poly_twisted(b)):
        raise NotRegularError("eigenvalue collision in the twisted action")
    n2 = d * d
    one_minus = _one_minus_theta(b.gram)
    fix = _kernel_basis(one_minus)
    k = len(fix)
    if k != d // 2:
        raise NotRegularError(
            f"fixed space has dimension {k}, expected {d // 2}")
    if rank(mat_mul(one_minus, one_minus)) != n2 - k:
        raise NotRegularError("transverse part of 1 - Ad(gamma) is not "
                              "semisimple")
    # abelian check on the fixed algebra
    mats = [tuple(tuple(v[i * d + j] for j in range(d)) for i in range(d))
            for v in fix]
    for i in range(k):
        for j in range(i + 1, k):
            if not _same(_product(mats[i], mats[j]),
                         _product(mats[j], mats[i])):
                raise NotRegularError("twisted centralizer is not abelian")
    cp = charpoly(one_minus)
    lead = next(c for c in cp if c != 0)  # T^k g(T): +- product of nonzero eigenvalues
    return float(q) ** (-valuation(lead, p))


# -- odd special orthogonal embedding --------------------------------------------


class SOElement(tuple):
    """A matrix known to lie in SO(2d+1) of the embedding of its size: one
    that ``OddSOEmbedding.element`` checked, or that the embedding built in
    the group.  It indexes like the plain matrix it is."""


@dataclass(frozen=True)
class OddSOEmbedding:
    """U = V + L + V* with Q((x,l,x*),(y,m,y*)) = <x,y*> + <y,x*> + l m."""

    d: int

    @property
    def dim(self) -> int:
        return 2 * self.d + 1

    def gram(self) -> Matrix:
        return _odd_so_gram(self.d)

    def is_in_group(self, g: Matrix) -> tuple[bool, str]:
        n = self.dim
        if len(g) != n or any(len(row) != n for row in g):
            return False, f"g is not {n} x {n}"
        j = self.gram()
        if not _same(_product(transpose(g), j, g), _cleared(j)):
            return False, "g^T Q g != Q"
        if det(g) != 1:
            return False, "det(g) != 1"
        return True, ""

    def element(self, g: Matrix) -> SOElement:
        """g as an element of the group: an ``SOElement`` of this size as it
        is, any other matrix once checked (``NotInGroupError`` if it is not
        in the group).  The only membership check of the module."""
        if isinstance(g, SOElement) and len(g) == self.dim:
            return g
        ok, why = self.is_in_group(g)
        if not ok:
            raise NotInGroupError(why)
        return SOElement(g)

    def levi_element(self, a: Matrix) -> SOElement:
        """diag(A, 1, A^{-T}) in GL(V) = the common Levi."""
        d, n = self.d, self.dim
        if len(a) != d or any(len(row) != d for row in a):
            raise ValueError(f"A must be {d} x {d}")
        ai = transpose(inverse(a))
        g = [[Fraction(0)] * n for _ in range(n)]
        for i in range(d):
            g[i][:d], g[d + 1 + i][d + 1:] = a[i], ai[i]
        g[d][d] = Fraction(1)
        return SOElement(mat(g))

    def _check_shape(self, w: Sequence, u: Matrix):
        """Refuse a column w of other than d entries or a block U other than
        d x d, which the block fill would not notice."""
        d = self.d
        if len(w) != d or len(u) != d or any(len(row) != d for row in u):
            raise ValueError(f"the column must have {d} entries and the "
                             f"block be {d} x {d}")

    def n_bar_element(self, ell: Sequence, s: Matrix) -> SOElement:
        """The element of the lower unipotent radical with linear form ell
        and V -> V* block S, the transpose of ``n_element(ell, S^T)`` (Q^2 =
        1): S + S^T = -ell ell^T is checked, and with it the element is in
        the group."""
        self._check_shape(ell, s)
        return SOElement(transpose(self.n_element(ell, transpose(s))))

    def n_element(self, w: Sequence, u: Matrix) -> SOElement:
        """Upper unipotent: V* -> V block U and column w with
        U + U^T = -w w^T (checked; with it the element is in the group).
        A w of other than d entries or a U other than d x d raises
        ``ValueError``."""
        d, n = self.d, self.dim
        self._check_shape(w, u)
        (w,), u = mat((w,)), mat(u)
        iu, du = _cleared(u)
        minus = [[-x - y for x, y in zip(r, c)] for r, c in zip(iu, zip(*iu))]
        if not _same((minus, du), _product(tuple((x,) for x in w), (w,))):
            raise NotInGroupError("U + U^T != -w w^T")
        zero, one = Fraction(0), Fraction(1)
        g = [[one if i == j else zero for j in range(n)] for i in range(n)]
        for i in range(d):
            g[i][d], g[d][d + 1 + i], g[i][d + 1:] = w[i], -w[i], u[i]
        return SOElement(map(tuple, g))


@lru_cache(maxsize=None)
def _odd_so_gram(d: int) -> Matrix:
    n = 2 * d + 1
    return mat([[int(abs(i - j) == d + 1 or i == j == d) for j in range(n)]
                for i in range(n)])


def build_odd_so(d: int) -> OddSOEmbedding:
    if d < 1:
        raise ValueError("d must be >= 1")
    return OddSOEmbedding(d)


def b_of_g(emb: OddSOEmbedding, g: Matrix) -> BilForm:
    """B_g(x, y) = Q(g x, y) restricted to V: the V x V block of g^T Q,
    read from g as B_g[i][j] = g[d + 1 + j][i], the transpose of its
    V* x V block."""
    g = emb.element(g)
    d = emb.d
    return BilForm(tuple(tuple(g[d + 1 + j][i] for j in range(d))
                         for i in range(d)))


def in_g_prime(emb: OddSOEmbedding, g: Matrix) -> bool:
    return b_of_g(emb, g).is_nondegenerate()


def bruhat_factor(emb: OddSOEmbedding, g: Matrix):
    """Factor g in G' as u1 * mtilde * u2 with u1, u2 upper unipotent and
    mtilde in the twisted Levi component; returns (u1, mtilde, u2).  u1 and
    u2 are in the group by construction, and mtilde = u1^{-1} g u2^{-1},
    checked exactly."""
    g = emb.element(g)
    d, n = emb.d, emb.dim
    ig, dg = _cleared(g)
    # With E = g31 and E^{-1} = r / p (one reduction of [E | 1]), all over
    # D = dg p: [w2 | U2] = E^{-1} [g32 | g33] = right / D, [U1; -w1^T] =
    # [g11; g21] E^{-1} = left / D, a = g22 - g21 w2 = alpha / (dg D) and
    # C = g13 - g11 U2 + a w1 w2^T = c / (dg D^3).
    r, p = _solve(tuple(row[:d] for row in g[d + 1:]), identity(d))
    big = dg * p
    right = _imul(r, [row[d:] for row in ig[d + 1:]])
    left = _imul([row[:d] for row in ig[:d + 1]], r)
    alpha = ig[d][d] * big - sum(x * y[0] for x, y in zip(ig[d], right))
    gu = _imul([row[:d] for row in ig[:d]], [row[1:] for row in right])
    c = [[(ig[i][d + 1 + j] * big - gu[i][j]) * big * big
          - alpha * left[d][i] * right[j][0] for j in range(d)]
         for i in range(d)]
    u1 = emb.n_element([Fraction(-x, big) for x in left[d]],
                       _fractions(left[:d], big))
    u2 = emb.n_element([Fraction(y[0], big) for y in right],
                       _fractions([y[1:] for y in right], big))
    zero = Fraction(0)
    mt = [[zero] * n for _ in range(n)]
    for i, (ci, ei) in enumerate(zip(_fractions(c, dg * big ** 3), g[d + 1:])):
        mt[i][d + 1:], mt[d + 1 + i][:d] = ci, ei[:d]
    mt[d][d] = Fraction(alpha, dg * big)
    mt = SOElement(map(tuple, mt))
    if not _same(_product(u1, mt, u2), (ig, dg)):
        raise ArithmeticError("Bruhat factorization failed to reconstruct g")
    return u1, mt, u2


def m_tilde_of(emb: OddSOEmbedding, ubar: Matrix) -> Optional[BilForm]:
    """The twisted-Levi component of an element of the lower unipotent
    radical, as a bilinear form on V; None when B_ubar is degenerate."""
    ubar = emb.element(ubar)
    if not in_g_prime(emb, ubar):
        return None
    _, mt, _ = bruhat_factor(emb, ubar)
    return b_of_g(emb, mt)
