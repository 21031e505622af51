"""Checks of planch results made apart from planch.

Every function here either computes a reference value without calling
planch (plain ``Fraction`` linear algebra, the pinch-locus count, the
mirrored-subtorus map, Neville extrapolation, closed-form masses) or tests a
property the method must have (the functional equation, both sides of the
pointwise identity, invariance under twisted conjugation).  A check that
fails raises ``CheckFailed``; no check compares with stored output.
"""

from __future__ import annotations

import math
from fractions import Fraction


class CheckFailed(Exception):
    pass


def require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


# -- block structure of a component, computed from the triple itself ------------


def mod1(x: Fraction) -> Fraction:
    return x - math.floor(x)


def mirrored_blocks(triple) -> tuple[int, list]:
    """Free-coordinate count and the blocks (size, base angle, coefficient
    vector over the free coordinates) of the mirrored subtorus, in the order
    dual pairs (sigma side, then dual side), symplectic, orthogonal."""
    nfree = (sum(m for _, m in triple.dual_pairs)
             + sum(p // 2 for _, p in triple.symplectic)
             + sum(q // 2 for _, q in triple.orthogonal))

    def unit(i, sign):
        v = [0] * nfree
        v[i] = sign
        return tuple(v)

    blocks, r = [], 0
    for a, m in triple.dual_pairs:
        blocks += [(a.sp, Fraction(a.angle), unit(r + i, 1)) for i in range(m)]
        r += m
    r2 = 0
    for a, m in triple.dual_pairs:
        blocks += [(a.sp, mod1(-Fraction(a.angle)), unit(r2 + i, -1))
                   for i in range(m)]
        r2 += m
    for a, copies in list(triple.symplectic) + list(triple.orthogonal):
        half = copies // 2
        for i in range(copies):
            if i < half:
                row = unit(r + i, 1)
            elif copies - 1 - i < half:
                row = unit(r + copies - 1 - i, -1)
            else:
                row = (0,) * nfree
            blocks.append((a.sp, Fraction(a.angle), row))
        r += half
    return nfree, blocks


def block_angles(blocks, free) -> list:
    return [mod1(u + sum(c * x for c, x in zip(row, free)))
            for _, u, row in blocks]


def pinch_forms(sizes) -> list:
    """The linear forms whose vanishing makes a Sym^2 factor 1 - q^{-s}
    vanish at s = 0: theta_b + theta_c for blocks of equal size (their
    tensor product holds Sp(1)) and 2 theta_b for odd-size blocks (their
    symmetric square holds Sp(1))."""
    n = len(sizes)
    out = [(b, c) for b in range(n) for c in range(b + 1, n)
           if sizes[b] == sizes[c]]
    return out + [(b, b) for b in range(n) if sizes[b] % 2 == 1]


def pinch_count(sizes, angles) -> int:
    """Vanishing order at s = 0 of the Sym^2 gamma factor at a point."""
    return sum(1 for b, c in pinch_forms(sizes)
               if mod1(Fraction(angles[b]) + Fraction(angles[c])) == 0)


def forced_pinch_count(blocks) -> int:
    """Pinch forms that vanish identically on the mirrored subtorus."""
    sizes = [k for k, _, _ in blocks]
    n = 0
    for b, c in pinch_forms(sizes):
        (_, ub, rb), (_, uc, rc) = blocks[b], blocks[c]
        if mod1(ub + uc) == 0 and all(x + y == 0 for x, y in zip(rb, rc)):
            n += 1
    return n


def is_generic(blocks, free) -> bool:
    """A subtorus point off every pinch locus beyond the forced ones."""
    sizes = [k for k, _, _ in blocks]
    return pinch_count(sizes, block_angles(blocks, free)) == \
        forced_pinch_count(blocks)


# -- the spectral limit --------------------------------------------------------------


def neville_limit(s_values, values, order: int) -> complex:
    """Extrapolate values known at s_values to s = 0, eliminating the powers
    s, s^2, ..., s^order (at most len - 1 of them)."""
    table = [complex(v) for v in values]
    s = list(s_values)
    for level in range(1, min(order, len(table) - 1) + 1):
        table = [(s[j] * table[j + 1] - s[j + level] * table[j])
                 / (s[j] - s[j + level]) for j in range(len(table) - 1)]
    return table[-1]


def check_limit(report, tol: float, order: int) -> None:
    """The extrapolated left side is the limit of the reported left sides,
    agrees with the independently computed right side within tol, and no
    node budget was hit."""
    require(not report.budget_exceeded, "node budget exceeded")
    ext = neville_limit(report.s_values, report.lhs_values, order)
    require(abs(ext - report.lhs_extrapolated) <= 1e-9 * abs(ext),
            f"extrapolated value {report.lhs_extrapolated} is not the limit "
            f"{ext} of the reported left sides")
    rel = abs(report.lhs_extrapolated - report.rhs) / abs(report.rhs)
    require(rel < tol, f"left and right sides differ by {rel:.3e} > {tol}")
    require(report.passed, "verify reports a failure")


def closed_form_mass(sizes) -> float:
    """Mass of a component with a constant test function equal to 1:
    1 / (gcd(block sizes) * prod_k n_k!), n_k the number of blocks of size
    k.  With every block of size 1 and one base character this is the
    1/|W| of the measure normalization."""
    counts = {}
    for k in sizes:
        counts[k] = counts.get(k, 0) + 1
    w = math.prod(math.factorial(n) for n in counts.values())
    return 1.0 / (math.gcd(*sizes) * w)


def check_mass(mass: float, sizes) -> None:
    want = closed_form_mass(sizes)
    require(abs(mass - want) <= 1e-12 * want,
            f"measure_mass {mass} != closed form {want}")


def rhs_prefactor(triple) -> float:
    """2 / (F 2^c) in front of the subtorus mean: F the fiber of the
    mirrored subtorus over the orthogonal locus (same-size mirrored pairs
    permute and flip), c the number of orthogonal atoms of odd multiplicity.
    The power of 2 pi / log q cancels, since 2N - S = c."""
    pairs = {}
    for a, n in triple.dual_pairs:
        pairs[a.sp] = pairs.get(a.sp, 0) + n
    for a, n in list(triple.symplectic) + list(triple.orthogonal):
        pairs[a.sp] = pairs.get(a.sp, 0) + n // 2
    fiber = math.prod(math.factorial(n) * 2 ** n for n in pairs.values())
    c = sum(1 for _, n in triple.orthogonal if n % 2 == 1)
    return 2.0 / (fiber * 2 ** c)


def check_close(got: complex, want: complex, rel: float, what: str) -> None:
    require(abs(got - want) <= rel * abs(want),
            f"{what}: {got} != {want} (rel {abs(got - want) / abs(want):.2e})")


# -- exact identities -----------------------------------------------------------------


def check_eq13(lhs: complex, rhs: complex, tol: float = 1e-10) -> None:
    check_close(lhs, rhs, tol, "eq13 sides")


def check_functional_equation(pairs, tol: float = 1e-10) -> None:
    """pairs of (gamma(s, rho), gamma(1 - s, rho dual)); each product is 1."""
    for g, gd in pairs:
        require(abs(g * gd - 1) <= tol,
                f"gamma(s) gamma(1-s) = {g * gd} != 1")


def check_singular(combinatorial: int, engine: int, own: int) -> None:
    require(combinatorial == engine == own,
            f"singular exponents differ: law {combinatorial}, "
            f"engine {engine}, pinch count {own}")


# -- plain Fraction linear algebra -----------------------------------------------------


def mul(a, b):
    """Product of Fraction matrices, skipping zero entries."""
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [Fraction(0)] * len(b[0])
        for k, x in enumerate(row):
            if x:
                for j, y in b_rows[k]:
                    acc[j] += x * y
        out.append(acc)
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def det(a) -> Fraction:
    m = [[Fraction(x) for x in row] for row in a]
    n, out = len(m), Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            out = -out
        out *= m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] / m[k][k]
            m[r] = [x - f * y for x, y in zip(m[r], m[k])]
    return out


def same(a, b) -> bool:
    return [list(r) for r in a] == [list(r) for r in b]


def odd_so_gram(d: int):
    """Q((x, l, x*), (y, m, y*)) = <x, y*> + <y, x*> + l m on V + L + V*."""
    n = 2 * d + 1
    q = [[Fraction(0)] * n for _ in range(n)]
    for i in range(d):
        q[i][d + 1 + i] = q[d + 1 + i][i] = Fraction(1)
    q[d][d] = Fraction(1)
    return q


def check_so_element(d, ell, s, g, bg_gram, in_prime, factors) -> None:
    """The criterion-10 round trip of one element of the lower unipotent
    radical with linear form ell and V -> V* block s."""
    q = odd_so_gram(d)
    require(same(mul(transpose(g), mul(q, g)), q), "g^T Q g != Q")
    need = [[-ell[i] * ell[j] for j in range(d)] for i in range(d)]
    sym = [[bg_gram[i][j] + bg_gram[j][i] for j in range(d)] for i in range(d)]
    require(same(sym, need), "symmetric part of B_g != -l l^T")
    require(in_prime == (det(s) != 0),
            f"in_g_prime {in_prime} disagrees with det(S) = {det(s)}")
    if not in_prime:
        require(factors is None, "Bruhat factors for an element outside G'")
        return
    u1, mt, u2 = factors
    for name, x in (("u1", u1), ("mtilde", mt), ("u2", u2)):
        require(same(mul(transpose(x), mul(q, x)), q), f"{name}^T Q {name} != Q")
    require(same(mul(u1, mul(mt, u2)), g), "u1 mtilde u2 != g")


def check_twist(gram, m, conj_gram, labels, polys) -> None:
    """Ad(m) B has Gram m^{-T} gram m^{-1}, i.e. m^T conj m = gram, and the
    orbit label and twisted characteristic polynomial do not change."""
    require(same(mul(transpose(m), mul(conj_gram, m)), gram),
            "twisted conjugate has the wrong Gram matrix")
    require(labels[0] == labels[1], f"orbit label changed: {labels}")
    require(polys[0] == polys[1], f"twisted char poly changed: {polys}")
