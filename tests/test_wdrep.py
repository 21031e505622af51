import cmath
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planch.field import LocalFieldSpec, gamma_star_trivial, gamma_trivial
from planch.limitcheck import AffineAngle
from planch.spectral import GeometricFactor, SpectralFunction, mod1
from planch.wdrep import (SELF_DUAL_BOTH, SELF_DUAL_NONE,
                          SELF_DUAL_ORTHOGONAL, SELF_DUAL_SYMPLECTIC, WDAtom,
                          WDRep, ad_atoms, ad_over_center_atoms,
                          component_groups_brute_force, gamma_parts,
                          parse_rep_text, sp_sym2, sp_tensor, sp_wedge2)

SPEC3 = LocalFieldSpec(3, 3, 0)


# -- character-polynomial oracle for the SL_2 plethysm -------------------------

def char_of_sp(m):
    """Laurent coefficients of the character of Sp(m) on weights."""
    return {w: 1 for w in range(-(m - 1), m, 2)}


def char_mul(a, b):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            out[wa + wb] = out.get(wa + wb, 0) + ca * cb
    return out


def char_sym2(a):
    """Sym^2 of a character: (chi(x)^2 + chi(x^2)) / 2 on weights."""
    sq = char_mul(a, a)
    frob = {2 * w: c for w, c in a.items()}
    return {w: (sq.get(w, 0) + frob.get(w, 0)) // 2
            for w in set(sq) | set(frob)}


def char_wedge2(a):
    sq = char_mul(a, a)
    frob = {2 * w: c for w, c in a.items()}
    return {w: (sq.get(w, 0) - frob.get(w, 0)) // 2
            for w in set(sq) | set(frob)}


def peel(char):
    """Decompose a character into Sp(m) constituents."""
    char = {w: c for w, c in char.items() if c}
    out = []
    while char:
        top = max(char)
        mult = char[top]
        m = top + 1
        out += [m] * mult
        for w, c in char_of_sp(m).items():
            char[w] = char.get(w, 0) - mult * c
        char = {w: c for w, c in char.items() if c}
    return sorted(out)


def test_sp_tensor():
    assert sp_tensor(1, 5) == [5]
    assert sorted(sp_tensor(2, 2)) == [1, 3]
    assert sorted(sp_tensor(3, 2)) == [2, 4]
    rng = random.Random(0)
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        got = sorted(sp_tensor(m, n))
        assert got == peel(char_mul(char_of_sp(m), char_of_sp(n)))
        assert sum(got) == m * n


def test_sp_sym2_wedge2():
    assert sp_sym2(2) == [3] and sp_wedge2(2) == [1]
    assert sorted(sp_sym2(3)) == [1, 5]
    assert sorted(sp_wedge2(4)) == [1, 5]
    for m in range(1, 8):
        assert sorted(sp_sym2(m)) == peel(char_sym2(char_of_sp(m)))
        assert sorted(sp_wedge2(m)) == peel(char_wedge2(char_of_sp(m)))
        assert sum(sp_sym2(m)) == m * (m + 1) // 2
        assert sum(sp_wedge2(m)) == m * (m - 1) // 2


# -- representation calculus ----------------------------------------------------

def random_rep(rng, max_dim=6, denom=12):
    atoms = []
    total = 0
    while total < max_dim:
        m = rng.randint(1, max_dim - total)
        atoms.append((F(rng.randint(0, denom - 1), denom), m))
        total += m
        if rng.random() < 0.4:
            break
    return WDRep.of(*atoms)


def test_dual_tensor_ad():
    r = WDRep.of((F(1, 3), 1))
    assert r.dual() == WDRep.of((F(2, 3), 1))
    assert r.dual().dual() == r
    u, v = F(1, 5), F(1, 7)
    ad = WDRep.of((u, 1), (v, 1)).ad()
    assert ad == WDRep.of((0, 1), (0, 1), (u - v, 1), (v - u, 1))
    assert WDRep.of((0, 2)).sym2() == WDRep.of((0, 3))
    # matrix-coefficient oracle for ad of a 2x2 diagonal parameter
    a, b = cmath.exp(2j * math.pi / 5), cmath.exp(2j * math.pi / 7)
    eig = sorted((x * y.conjugate() for x in (a, b) for y in (a, b)),
                 key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    got = sorted((cmath.exp(2j * math.pi * float(at.angle)) for at in ad.atoms),
                 key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    assert all(abs(x - y) < 1e-12 for x, y in zip(eig, got))


def test_ad_over_center_atoms_drops_the_trivial_atom():
    """Oracles: for exact angles, ad() less one WDAtom(0, 1) as a multiset;
    for affine angles, ad_atoms less its first identically-zero Sp(1)."""
    rng = random.Random(8)
    for _ in range(300):
        rep = random_rep(rng)
        want = list(rep.ad().atoms)
        want.remove(WDAtom(F(0), 1))
        assert WDRep.from_atom_list(ad_over_center_atoms(rep.atom_list())) \
            == WDRep(tuple(want))
    for _ in range(300):
        nfree = rng.randint(0, 3)
        atoms = [(AffineAngle(F(rng.randint(0, 11), 12),
                              tuple(rng.randint(-2, 2) for _ in range(nfree))),
                  rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
        want = ad_atoms(atoms)
        del want[next(i for i, (a, m) in enumerate(want)
                      if m == 1 and a.is_identically_zero())]
        assert ad_over_center_atoms(atoms) == want


def test_sym2_plus_wedge2_is_square():
    rng = random.Random(1)
    for _ in range(200):
        r = random_rep(rng)
        lhs = sorted((r.sym2() + r.wedge2()).atoms, key=lambda a: (a.sp, a.angle))
        rhs = sorted(r.tensor(r).atoms, key=lambda a: (a.sp, a.angle))
        assert lhs == rhs


def test_l_factor_examples():
    assert WDRep.of((0, 1)).l_factor(SPEC3).to_dict() == \
        WDRep.of((0, 1)).l_factor(SPEC3).to_dict()
    l = WDRep.of((0, 1)).l_factor(SPEC3)
    assert abs(l.evaluate(1.0) - 1.5) < 1e-14  # zeta at 1
    g = WDRep.of((0, 1)).gamma_factor(SPEC3)
    triv = gamma_trivial(SPEC3)
    for s in (0.3, 0.8, 0.5 + 0.4j):
        assert abs(g.evaluate(s) - triv.evaluate(s)) < 1e-12
    assert g.ord_zero_at_zero() == 1
    # angle 1/2 atom: no pole of L at 0, gamma regular there
    g2 = WDRep.of((F(1, 2), 1)).gamma_factor(SPEC3)
    assert g2.ord_zero_at_zero() == 0


def test_eps_is_monomial():
    rng = random.Random(2)
    for _ in range(50):
        r = random_rep(rng)
        e = r.eps_factor(LocalFieldSpec(3, 3, rng.randint(-2, 2)))
        assert not e.num and not e.den


def test_functional_equation():
    rng = random.Random(3)
    for _ in range(60):
        spec = LocalFieldSpec(3, 3, rng.randint(-2, 2))
        r = random_rep(rng)
        g = r.gamma_factor(spec)
        gd = r.dual().gamma_factor(spec)
        for _ in range(5):
            s = complex(rng.uniform(-1, 1), rng.uniform(0.05, 1.0))
            assert abs(g.evaluate(s) * gd.evaluate(1 - s) - 1) < 1e-10


def _reflect(f: SpectralFunction) -> SpectralFunction:
    """s -> f(1 - s), exactly: q^{-a(1 - s)} = q^{-a} q^{a s}, and the
    factor with (shift, sdir) becomes the one with (shift + sdir, -sdir)."""
    return SpectralFunction(
        f.unit_angle, f.qpow - f.exponent, -f.exponent,
        tuple(GeometricFactor(g.angle, g.shift + g.sdir, -g.sdir)
              for g in f.num),
        tuple(GeometricFactor(g.angle, g.shift + g.sdir, -g.sdir)
              for g in f.den), f.q)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.one_of(st.fractions(0, 1, max_denominator=24),
                                    st.integers(0, 208).map(lambda k: F(k, 209)),
                                    st.integers(0, 6478).map(lambda k: F(k, 6479)),
                                    st.sampled_from((F(5, 209), F(108, 6479)))),
                          st.integers(1, 4)), min_size=1, max_size=4),
       st.sampled_from(((2, 2), (2, 4), (3, 3), (5, 25), (7, 7))),
       st.integers(-3, 3),
       st.tuples(st.floats(0.1, 0.9), st.floats(0.05, 1.0)))
def test_functional_equation_property(atoms, field, level, s):
    """gamma(s, rho, psi) gamma(1 - s, rho dual, psi) = 1 for unramified
    rho, whose determinant is trivial on -1: as spectral functions, exactly,
    and in value at one s."""
    spec = LocalFieldSpec(*field, level)
    rho = WDRep.from_atom_list(atoms)
    g = rho.gamma_factor(spec)
    gd = rho.dual().gamma_factor(spec)
    assert g.multiply(_reflect(gd)).is_one()
    s = complex(*s)
    assert abs(g.evaluate(s) * gd.evaluate(1 - s) - 1) < 1e-10


def _gamma_parts_per_atom(atoms, psi_level):
    """Reference for ``gamma_parts``: each output summed atom by atom in
    ``Fraction``s, as the formula in its docstring reads."""
    n = psi_level
    unit, qpow, exponent = F(0), F(0), F(0)
    num, den = [], []
    for (u, m) in atoms:
        unit = unit + u * (n * m + m - 1) + F(m - 1, 2)
        qpow += F(n * m, 2) + F(m - 1, 2)
        exponent += F(n * m + (m - 1))
        r = F(m - 1, 2)
        num.append((u, r, 1))
        den.append((-u, 1 + r, -1))
    return unit, qpow, exponent, num, den


# -- the exact path against a plain-Fraction reference ------------------------

def _ref_tensor(a, b):
    """Sp(m) x Sp(n) = Sp(|m - n| + 1) + ... + Sp(m + n - 1), pair by pair,
    at the sum of the angles reduced mod 1."""
    return [(mod1(u + v), k) for (u, m) in a for (v, n) in b
            for k in range(abs(m - n) + 1, m + n, 2)]


def _ref_square(a, top):
    """Sym^2 (top = 1) or wedge^2 (top = 3): each atom's own square at twice
    its angle, Sp(2m - top), Sp(2m - top - 4), ..., and each pair's tensor."""
    out = []
    for i, (u, m) in enumerate(a):
        out += [(mod1(2 * u), k) for k in range(2 * m - top, 0, -4)]
        out += _ref_tensor([(u, m)], a[i + 1:])
    return out


def _ref_rep(pairs):
    return tuple(sorted((WDAtom(u, m) for (u, m) in pairs),
                        key=lambda a: (a.sp, a.angle)))


def _ref_gamma(atoms, spec):
    unit, qpow, exponent, num, den = _gamma_parts_per_atom(
        [(a.angle, a.sp) for a in atoms], spec.psi_level)
    return SpectralFunction(unit, qpow, exponent,
                            tuple(GeometricFactor(*f) for f in num),
                            tuple(GeometricFactor(*f) for f in den), spec.q)


_DENOMINATORS = (1, 2, 12, 31, 60, 209, 6479)


@st.composite
def _exact_atoms(draw):
    """0 to 6 atoms of Sp size 1 to 4 at angles k/N with k in [-N, 2N).  An
    atom may repeat an earlier one, or sit at 108/6479 or 1/60, distinct
    angles 2.6e-6 apart."""
    atoms = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 2))
        if kind == 0 and atoms:
            atoms.append(draw(st.sampled_from(atoms)))
            continue
        if kind == 1:
            u = draw(st.sampled_from((F(108, 6479), F(1, 60))))
        else:
            n = draw(st.sampled_from(_DENOMINATORS))
            u = F(draw(st.integers(-n, 2 * n - 1)), n)
        atoms.append((u, draw(st.integers(1, 4))))
    return atoms


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_exact_atoms(), _exact_atoms(), st.integers(-2, 2), st.randoms())
def test_exact_path_matches_a_fraction_reference(atoms, other, level, rnd):
    """The plethysm on integer numerators equals, atom for atom and in
    order, the calculus in plain Fractions sorted by (sp, angle); the gamma
    factor equals the per-atom reference field for field and in value."""
    spec = LocalFieldSpec(3, 3, level)
    rho, sigma = WDRep.from_atom_list(atoms), WDRep.from_atom_list(other)
    a = [(x.angle, x.sp) for x in rho.atoms]
    b = [(x.angle, x.sp) for x in sigma.atoms]
    dual = [(mod1(-u), m) for (u, m) in a]
    ad = _ref_tensor(a, dual)
    assert rho.dual().atoms == _ref_rep(dual)
    assert rho.tensor(sigma).atoms == _ref_rep(_ref_tensor(a, b))
    assert rho.sym2().atoms == _ref_rep(_ref_square(a, 1))
    assert rho.wedge2().atoms == _ref_rep(_ref_square(a, 3))
    assert rho.ad().atoms == _ref_rep(ad)
    if a:
        ad.remove((F(0), 1))
        assert rho.ad_over_center().atoms == _ref_rep(ad)
    for rep in (rho, rho.sym2(), rho.tensor(sigma)):
        assert rep.gamma_factor(spec) == _ref_gamma(rep.atoms, spec)
    # values where q^{qpow} stays a finite float: 0 < Re s < 1, dim <= 300
    for rep in (rho, rho.sym2()):
        got, want = rep.gamma_factor(spec), _ref_gamma(rep.atoms, spec)
        for s in (0.3 + 0.7j, 0.8 - 0.5j):
            assert got.evaluate(s) == want.evaluate(s)
        n = got.ord_zero_at_zero()
        assert n == want.ord_zero_at_zero()
        assert got.regularized_value() == want.regularized_value()
        assert got.inverse().limit_with_power(n) \
            == want.inverse().limit_with_power(n)
    shuffled = list(atoms)
    rnd.shuffle(shuffled)
    again = WDRep.from_atom_list(shuffled)
    for x, y in ((again, rho), (again.sym2(), rho.sym2()),
                 (again.ad(), rho.ad())):
        assert x == y and hash(x) == hash(y)


def _types(x):
    """x with each number replaced by its type, affine angles opened up."""
    if isinstance(x, AffineAngle):
        return AffineAngle, _types(x.const), _types(x.coeffs)
    if isinstance(x, (list, tuple)):
        return type(x), tuple(_types(y) for y in x)
    return type(x)


@st.composite
def _atom_lists(draw):
    """Atoms with Fraction angles, or with affine angles over 0 to 3 free
    coordinates; constants negative and beyond 1, denominators up to 60."""
    nfree = draw(st.sampled_from((None, 0, 1, 2, 3)))
    consts = st.fractions(-3, 3, max_denominator=60)
    coeffs = st.tuples(*[st.integers(-3, 3)] * (nfree or 0))

    def angle():
        const = draw(consts)
        return const if nfree is None else AffineAngle(const, draw(coeffs))

    return [(angle(), draw(st.integers(1, 6)))
            for _ in range(draw(st.integers(0, 8)))]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_atom_lists(), st.integers(-2, 3))
def test_gamma_parts_matches_the_per_atom_sums(atoms, level):
    """All five outputs equal the per-atom accumulation, with the same
    types, for the exact angles of ``WDRep`` and the affine angles of
    ``FactorProgram.compile``."""
    got = gamma_parts(atoms, level)
    want = _gamma_parts_per_atom(atoms, level)
    assert got == want
    assert _types(got) == _types(want)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.fractions(-3, 3, max_denominator=60),
       st.fractions(-3, 3, max_denominator=60),
       st.lists(st.integers(-2, 2), max_size=3))
def test_exact_zero_tests_agree_with_mod1(x, y, coeffs):
    """The zero tests that read a denominator or a numerator decide as the
    reduction mod 1 does, and a constructor keeps a Fraction it is given."""
    assert WDAtom(x).is_self_dual() == (mod1(2 * x) == 0)
    g = GeometricFactor(x, y)
    assert g.vanishes_at_zero() == (mod1(x) == 0 and y == 0)
    assert g.shift is y
    a = AffineAngle(x, tuple(coeffs))
    assert a.is_identically_zero() == (mod1(x) == 0
                                       and all(c == 0 for c in coeffs))
    u = mod1(x)
    assert WDAtom(u).angle is u and GeometricFactor(u, y).angle is u


def test_gamma_ord_equals_l_pole_order():
    rng = random.Random(4)
    for _ in range(200):
        r = random_rep(rng)
        g = r.gamma_factor(SPEC3)
        l_pole = sum(1 for a in r.atoms if a.angle == 0 and a.sp == 1)
        assert g.ord_zero_at_zero() == l_pole


def test_gamma_multiplicative_over_sums():
    rng = random.Random(5)
    for _ in range(50):
        r1, r2 = random_rep(rng, 4), random_rep(rng, 4)
        lhs = (r1 + r2).gamma_factor(SPEC3).normalize().to_dict()
        rhs = r1.gamma_factor(SPEC3).multiply(
            r2.gamma_factor(SPEC3)).normalize().to_dict()
        assert lhs == rhs


def random_self_dual_rep(rng, denom=12):
    """A random point of the orthogonal locus: mirrored dual pairs plus
    self-dual atoms."""
    atoms = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            u = F(rng.randint(1, denom - 1), denom)
            sp = rng.randint(1, 3)
            atoms += [(u, sp), (-u, sp)]
        else:
            atoms.append((rng.choice([F(0), F(1, 2)]), rng.randint(1, 3)))
    return WDRep.of(*atoms)


def test_star_product_identity():
    """gamma*(1) gamma*(Ad/A) = gamma*(pi x pi-dual) for every rep; equals
    gamma*(Sym2) gamma*(wedge2) at self-dual points (where pi ~ pi-dual)."""
    rng = random.Random(6)
    gs1 = float(gamma_star_trivial(SPEC3))
    for _ in range(60):
        r = random_rep(rng, 5)
        full = r.ad().gamma_factor(SPEC3).regularized_value()
        split = gs1 * r.ad_over_center().gamma_factor(SPEC3).regularized_value()
        assert abs(full - split) <= 1e-10 * max(1.0, abs(full))
    for _ in range(60):
        r = random_self_dual_rep(rng)
        assert r.is_self_dual()
        full = r.ad().gamma_factor(SPEC3).regularized_value()
        sw = r.sym2().gamma_factor(SPEC3).regularized_value() * \
            r.wedge2().gamma_factor(SPEC3).regularized_value()
        assert abs(full - sw) <= 1e-10 * max(1.0, abs(full))


def test_determinant():
    assert WDRep.of((F(1, 2), 1), (F(1, 2), 1)).determinant() == 0
    assert WDRep.of((F(1, 3), 2)).determinant() == F(2, 3)
    assert WDRep.of((0, 3)).determinant() == 0


def invariant_form_solve(angles):
    """Oracle: solve for an invariant bilinear form of a sum of characters."""
    n = len(angles)
    rho = np.diag([np.exp(2j * np.pi * float(a)) for a in angles])
    # B(rho x, rho y) = B(x, y)  <=>  rho^T G rho = G
    a = np.kron(rho.T, rho.T) - np.eye(n * n)
    _, sv, vh = np.linalg.svd(a)
    null = vh[np.abs(sv) < 1e-9].conj() if len(sv) == n * n else vh[[]]
    has_sym = has_alt = False
    for row in null:
        g = row.reshape(n, n)
        if np.linalg.matrix_rank(g + g.T, tol=1e-9) > 0 and \
           np.allclose(g, g.T, atol=1e-9):
            has_sym = True
        if np.linalg.matrix_rank(g - g.T, tol=1e-9) > 0 and \
           np.allclose(g, -g.T, atol=1e-9):
            has_alt = True
    # also scan symmetrized combinations
    for row in null:
        g = row.reshape(n, n)
        s, w = (g + g.T) / 2, (g - g.T) / 2
        if np.abs(np.linalg.det(s)) > 1e-9:
            has_sym = True
        if n % 2 == 0 and np.abs(np.linalg.det(w)) > 1e-9:
            has_alt = True
    return has_sym, has_alt


def test_self_duality():
    assert WDRep.of((0, 1)).self_duality() == SELF_DUAL_ORTHOGONAL
    assert WDRep.of((0, 2)).self_duality() == SELF_DUAL_SYMPLECTIC
    assert WDRep.of((F(1, 3), 1), (F(2, 3), 1)).self_duality() == SELF_DUAL_BOTH
    assert WDRep.of((F(1, 3), 1)).self_duality() == SELF_DUAL_NONE
    # explicit 2x2 invariant-form oracle for the hyperbolic pair
    has_sym, has_alt = invariant_form_solve([F(1, 3), F(2, 3)])
    assert has_sym and has_alt
    # mixed self-dual type: no pure nondegenerate invariant form
    assert WDRep.of((0, 2), (0, 1)).self_duality() == SELF_DUAL_NONE
    assert WDRep.of((0, 2), (0, 1)).is_self_dual()
    assert WDRep.of((0, 2), (0, 2)).self_duality() == SELF_DUAL_BOTH


def random_orthogonal_rep(rng):
    atoms = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.4:  # orthogonal-type atom, any multiplicity
            atoms += [(rng.choice([F(0), F(1, 2)]), rng.choice([1, 3, 5]))] \
                * rng.randint(1, 2)
        elif kind < 0.7:  # symplectic-type atom, even multiplicity
            atoms += [(rng.choice([F(0), F(1, 2)]), rng.choice([2, 4]))] \
                * (2 * rng.randint(1, 2))
        else:  # dual pair
            u = F(rng.randint(1, 5), 11)
            m = rng.randint(1, 2)
            sp = rng.randint(1, 3)
            atoms += [(u, sp)] * m + [(-u, sp)] * m
    return WDRep.of(*atoms)


def test_component_groups():
    assert WDRep.of((0, 1), (F(1, 2), 1)).component_groups() == (4, 2, 1)
    assert WDRep.of((0, 3)).component_groups() == (2, 1, 1)
    assert WDRep.of((0, 2), (0, 2)).component_groups() == (1, 1, 2)
    with pytest.raises(ValueError):
        WDRep.of((F(1, 3), 1), (F(1, 3), 1), (F(1, 3), 2)).component_groups()
    rng = random.Random(7)
    for _ in range(200):
        r = random_orthogonal_rep(rng)
        if r.self_duality() not in (SELF_DUAL_ORTHOGONAL, SELF_DUAL_BOTH):
            continue
        s_plus, s, ratio = r.component_groups()
        total, in_so = component_groups_brute_force(r)
        assert s_plus == total and s == in_so
        assert ratio in (1, 2)
        orth_dims = {a.sp for a in r.atoms
                     if a.self_duality() == SELF_DUAL_ORTHOGONAL}
        assert (ratio == 2) == all(d % 2 == 0 for d in orth_dims)


def test_parse_and_serialize():
    r = parse_rep_text("1/3*Sp(2) + 0*Sp(1) + 1/2")
    assert r == WDRep.of((F(1, 3), 2), (0, 1), (F(1, 2), 1))
    assert WDRep.from_dict(r.to_dict()) == r
    assert parse_rep_text("Sp(3)") == WDRep.of((0, 3))
    with pytest.raises(ValueError):
        parse_rep_text("Sp(2) + ")
