import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

import planch.limitcheck as limitcheck
from planch.field import LocalFieldSpec
from planch.limitcheck import (AffineAngle, ComponentModel, ConstantPhi,
                               FactorProgram, GaussianPhi,
                               NonGenericPoint, NotWeylInvariant, QuadConfig,
                               TestFunction, TrigPhi, check_weyl_invariance,
                               component_blocks, eq13_check, eq13_values,
                               lhs_covering_order, mirror_structure,
                               phi_from_dict, point_parameter,
                               rhs_covering_order, richardson,
                               singular_exponent, singular_exponent_engine,
                               subtorus_twists, verify)
from planch.spectral import PoleError
from planch.tempered import OrthTriple
from planch.wdrep import WDAtom, gamma_parts

SPEC3 = LocalFieldSpec(3, 3, 0)

T_D1 = OrthTriple(orthogonal=((WDAtom(F(0), 1), 1),))
T_IO2 = OrthTriple(orthogonal=((WDAtom(F(0), 1), 1), (WDAtom(F(1, 2), 1), 1)))
T_IN = OrthTriple(dual_pairs=((WDAtom(F(1, 3), 1), 1),))
T_D3 = OrthTriple(dual_pairs=((WDAtom(F(1, 5), 1), 1),),
                  orthogonal=((WDAtom(F(0), 1), 1),))
T_IS = OrthTriple(symplectic=((WDAtom(F(0), 2), 2),))
T_IO3 = OrthTriple(orthogonal=((WDAtom(F(0), 1), 3),))
# Io = {Sp(3) at 0, Sp(1) at 1/2}: its left torus {(x, -3x)} meets the
# orthogonal locus at the triple itself and at T_SP31_TWIST, and its Sym^2
# holds e(-6x)
T_SP31 = OrthTriple(orthogonal=((WDAtom(F(0), 3), 1), (WDAtom(F(1, 2), 1), 1)))
T_SP31_TWIST = OrthTriple(orthogonal=((WDAtom(F(1, 2), 3), 1),
                                      (WDAtom(F(0), 1), 1)))

FAST = QuadConfig(s0=0.1, s_count=4, n_base=64, rhs_n=128)


class LopsidedPhi(TestFunction):
    """Deliberately not Weyl-invariant: depends on the first block only."""

    def phasor_values(self, dims, z):
        return z[0].real

    def describe(self):
        return {"kind": "lopsided"}


def test_test_functions_invariant():
    rng = np.random.default_rng(0)
    for phi in (ConstantPhi(2.0),
                TrigPhi([(1, 1, 0.3 + 0.1j), (2, 2, -0.2 + 0j)]),
                GaussianPhi(width=0.4, center=0.25)):
        check_weyl_invariance(phi, (1, 1, 2, 2), rng)
    with pytest.raises(NotWeylInvariant):
        check_weyl_invariance(LopsidedPhi(), (1, 1), rng)


def test_values_alone_is_refused():
    """A test function is given by its phasor form: a subclass defining its
    own ``values`` fails at class creation."""
    with pytest.raises(TypeError, match="phasor_values"):
        class AngleOnlyPhi(TestFunction):
            def values(self, dims, angles):
                return 1.0 + 0.3 * np.cos(2 * np.pi * angles).sum(axis=0)

    class Bound(ConstantPhi):
        values = TestFunction.values

    assert Bound(2.0).values((1,), np.zeros((1, 3))).tolist() == [2.0] * 3


def test_phi_from_dict_roundtrip():
    for phi in (ConstantPhi(1.5),
                TrigPhi([(1, 1, 0.3 + 0.2j)], const=0.7),
                GaussianPhi(0.3, 0.1, 6)):
        clone = phi_from_dict(phi.describe())
        x = np.random.default_rng(1).random((2, 13))
        assert np.allclose(phi.values((1, 1), x), clone.values((1, 1), x))


def test_covering_orders():
    assert lhs_covering_order(T_D1) == 1
    assert lhs_covering_order(T_IO2) == 2
    assert lhs_covering_order(T_IN) == 2
    assert lhs_covering_order(T_D3) == 6
    assert lhs_covering_order(T_IS) == 2
    assert lhs_covering_order(T_IO3) == 6
    assert rhs_covering_order(T_D1) == 1
    assert rhs_covering_order(T_IO2) == 1
    assert rhs_covering_order(T_IN) == 2
    assert rhs_covering_order(T_D3) == 2
    assert rhs_covering_order(T_IS) == 2
    assert rhs_covering_order(T_IO3) == 2


def test_d1_lhs_constant_in_s():
    """At d = 1 the two trivial gamma factors cancel exactly."""
    model = ComponentModel(T_D1, SPEC3)
    phi = ConstantPhi(3.25)
    vals = [model.lhs_value(phi, s, FAST)[0] for s in (0.5, 0.1, 0.01, 0.003)]
    for v in vals:
        assert abs(v - 3.25) < 1e-12
    rep = verify(T_D1, phi, SPEC3, FAST)
    assert rep.rel_discrepancy < 1e-10 and rep.passed


def test_verify_small_cases():
    for triple in (T_IO2, T_IN):
        rep = verify(triple, ConstantPhi(1.0), SPEC3, FAST)
        assert rep.rel_discrepancy < 1e-3, (triple, rep.rel_discrepancy)
        assert rep.passed


def test_verify_other_field():
    spec = LocalFieldSpec(2, 2, 1)
    rep = verify(T_IN, ConstantPhi(1.0), spec, FAST)
    assert rep.rel_discrepancy < 1e-3


def test_rhs_linearity_and_relabeling():
    model = ComponentModel(T_IO2, SPEC3)
    phi1, phi2 = ConstantPhi(1.0), ConstantPhi(2.5)
    r1 = model.rhs_value(phi1, FAST)
    r2 = model.rhs_value(phi2, FAST)
    assert abs(r2 - 2.5 * r1) < 1e-12
    swapped = OrthTriple(orthogonal=(T_IO2.orthogonal[1], T_IO2.orthogonal[0]))
    assert abs(ComponentModel(swapped, SPEC3).rhs_value(phi1, FAST) - r1) < 1e-12


def test_eq13_five_classes():
    rng = random.Random(3)
    for triple in (T_D1, T_IN, T_IS, T_IO3, T_D3,
                   OrthTriple(orthogonal=((WDAtom(F(1, 2), 1), 2),))):
        nfree, _ = mirror_structure(triple)
        checked = 0
        while checked < 20:
            free = [F(rng.randint(1, 100), 101) for _ in range(nfree)]
            try:
                assert eq13_check(triple, free, SPEC3, tol=1e-10)
            except NonGenericPoint:
                continue
            checked += 1


def test_eq13_nongeneric_reported():
    triple = OrthTriple(dual_pairs=((WDAtom(F(1, 3), 1), 2),))
    # equal free coordinates create extra vanishing pairs: order exceeds N
    with pytest.raises(NonGenericPoint):
        eq13_values(triple, [F(1, 7), F(1, 7)], SPEC3)


def test_singular_exponent():
    rng = random.Random(4)
    # generic points are regular
    blocks = component_blocks(T_D3)
    for _ in range(50):
        tw = [F(rng.randint(1, 30), 31) for _ in blocks]
        tw[-1] = -sum(tw[:-1])
        assert singular_exponent(T_D3, tw) == \
            singular_exponent_engine(T_D3, tw, SPEC3)
    # generic subtorus points have exponent N
    from planch.tempered import appendix_constants
    for triple in (T_D1, T_IN, T_IS, T_IO3, T_D3):
        n = appendix_constants(triple).N
        nfree, _ = mirror_structure(triple)
        free = [F(1 + 7 * i, 101) for i in range(nfree)]
        tw = subtorus_twists(triple, free)
        assert singular_exponent(triple, tw) == n
        assert singular_exponent_engine(triple, tw, SPEC3) == n
    # zero twist on a single odd orthogonal atom: the diagonal form vanishes
    assert singular_exponent(T_D1, [F(0)]) == 1


def test_measure_normalization():
    # component where same-size blocks share the base character: F = |W|
    cfg = QuadConfig(n_base=512)
    io2same = OrthTriple(orthogonal=((WDAtom(F(1, 2), 1), 2),))
    model = ComponentModel(io2same, SPEC3)
    assert abs(model.measure_mass(ConstantPhi(1.0), cfg) - 0.5) < 1e-9
    model3 = ComponentModel(T_IO3, SPEC3)
    assert abs(model3.measure_mass(ConstantPhi(1.0), cfg) - 1 / 6) < 1e-9
    model1 = ComponentModel(T_D1, SPEC3)
    assert abs(model1.measure_mass(ConstantPhi(1.0), cfg) - 1.0) < 1e-12


def test_quadrature_self_consistency():
    """Doubling the minimum grid moves the value by less than the reported
    error estimate, across 20 random configurations."""
    rng = random.Random(5)
    for _ in range(20):
        triple = rng.choice([T_IO2, T_IN, T_IS])
        model = ComponentModel(triple, SPEC3)
        phi = TrigPhi([(1, rng.choice([1, 2]), rng.uniform(-0.5, 0.5) + 0j)])
        s = rng.uniform(0.02, 0.2)
        n = rng.choice([96, 128, 192])
        cfg1 = QuadConfig(n_base=n)
        cfg2 = QuadConfig(n_base=2 * n)
        v1, e1, _, _, _ = model.lhs_value(phi, s, cfg1)
        v2 = model.lhs_value(phi, s, cfg2)[0]
        assert abs(v1 - v2) <= max(e1, 1e-12) * 4


def test_lhs_integrand_exact():
    from planch.field import gamma_trivial
    from planch.limitcheck import lhs_integrand_exact

    # d = 1: the integrand is Phi(chi) / gamma(s, 1, psi)
    phi = ConstantPhi(2.0)
    for s in (0.5, 0.1, 0.01):
        got = lhs_integrand_exact(T_D1, phi, s, [F(0)], SPEC3)
        want = 2.0 / gamma_trivial(SPEC3).evaluate(s)
        assert abs(got - want) < 1e-12
    # a point on a singular hyperplane stays finite and grows like 1/s
    tw = [F(0), F(0)]  # the orthogonal base point of T_IO2
    v1 = lhs_integrand_exact(T_IO2, ConstantPhi(1.0), 0.1, tw, SPEC3)
    v2 = lhs_integrand_exact(T_IO2, ConstantPhi(1.0), 0.05, tw, SPEC3)
    assert abs(v2) > 1.5 * abs(v1)
    with pytest.raises(ValueError):
        lhs_integrand_exact(T_IO2, phi, 0.1, [F(1, 3), F(1, 5)], SPEC3)
    with pytest.raises(ValueError):
        lhs_integrand_exact(T_IO2, phi, -0.1, [F(0), F(0)], SPEC3)


def test_richardson():
    # exact polynomial data extrapolates exactly
    svals = [0.1 * 2.0 ** -k for k in range(5)]
    lvals = [2.0 + 3.0 * s - 1.5 * s ** 2 for s in svals]
    assert abs(richardson(svals, lvals, 3) - 2.0) < 1e-12


def test_point_parameter_and_twists():
    tw = subtorus_twists(T_D3, [F(1, 7)])
    assert tw == [F(1, 7), F(6, 7), F(0)]
    param = point_parameter(T_D3, tw)
    angles = sorted(a.angle for a in param.atoms)
    assert angles == sorted([F(1, 5) + F(1, 7), F(4, 5) + F(6, 7) - 1, F(0)])
    with pytest.raises(ValueError):
        subtorus_twists(T_D3, [F(1, 7), F(1, 7)])


def test_verify_budget_flag():
    cfg = QuadConfig(s0=0.02, s_count=2, n_base=64, max_nodes=512)
    rep = verify(T_IO2, ConstantPhi(1.0), SPEC3, cfg)
    assert rep.budget_exceeded
    assert not rep.passed


def test_report_serialization():
    rep = verify(T_D1, ConstantPhi(1.0), SPEC3, FAST)
    d = rep.to_dict()
    assert d["passed"] is True
    assert len(d["lhs_values"]) == len(d["s_values"])
    assert isinstance(d["rhs"], list) and len(d["rhs"]) == 2
    assert d["grid_n"] == [1] * len(d["s_values"])
    # on a torus the report carries the fine grid's n at each s
    rep = verify(T_IN, ConstantPhi(1.0), SPEC3, FAST)
    model = ComponentModel(T_IN, SPEC3)
    assert rep.to_dict()["grid_n"] == [model.lhs_grid_size(s, FAST)[0]
                                       for s in rep.s_values]


def test_grid_size_follows_the_poles_and_the_tolerance():
    """n = R max_f ||c_f||_inf / dist_f over the left program's denominators,
    R = ln(100 / tol): T_SP31, whose Sym^2 holds e(-6x), gets three times
    the n of T_D3, whose coefficients are at most 2 and whose nearest poles
    are as far, and n grows like ln(100 / tol)."""
    d3, sp31 = ComponentModel(T_D3, SPEC3), ComponentModel(T_SP31, SPEC3)
    for s in (0.1, 0.013):
        for tol in (1e-2, 1e-4, 1e-8):
            cfg = QuadConfig(n_base=1, tol=tol, max_nodes=2 ** 40)
            want = math.log(100 / tol) * 2 / (s * math.log(3))
            n, capped = d3.lhs_grid_size(s, cfg)
            assert abs(n - want) < 1 and not capped
            assert abs(sp31.lhs_grid_size(s, cfg)[0] - 3 * want) < 1
    # the floor still holds, and a pole on the torus is refused
    assert d3.lhs_grid_size(0.1, QuadConfig(n_base=500, tol=1e-2))[0] == 500
    for s in (0.0, -0.1):
        with pytest.raises(PoleError):
            d3.lhs_grid_size(s, QuadConfig())


def test_two_locus_points_make_the_left_side_of_t_sp31():
    """The left torus of T_SP31 meets the orthogonal locus twice; with its
    grid sized from its poles, the extrapolated left side is within 1e-4 of
    the sum of the right sides at both points, at q = 3 and 5."""
    cfg = QuadConfig(s0=0.1, s_count=6, n_base=128, rhs_n=512)
    for q in (3, 5):
        spec = LocalFieldSpec(q, q, 0)
        rep = verify(T_SP31, ConstantPhi(1.0), spec, cfg)
        twist = ComponentModel(T_SP31_TWIST, spec).rhs_value(ConstantPhi(1.0),
                                                             cfg)
        assert abs(rep.lhs_extrapolated / (rep.rhs + twist) - 1) < 1e-4, q


def test_error_estimate_bounds_the_gap_to_a_doubled_grid():
    """At each s of criterion 7's shapes and configurations, and of T_SP31,
    the error that lhs_mean reports is at least the distance of its mean to
    the mean on a grid of 2n nodes per axis, at q = 3 and 5."""
    trig = TrigPhi([(1, 1, 0.4 + 0j), (2, 1, -0.15 + 0.1j)], const=1.0)
    wide = QuadConfig(s0=0.1, s_count=6, n_base=128, rhs_n=512)
    d3 = QuadConfig(s0=0.2, s_count=4, n_base=128, rhs_n=256, tol=1e-2)
    cases = ((T_IO2, wide, trig), (T_IN, wide, trig), (T_D3, d3, trig),
             (T_SP31, wide, ConstantPhi(1.0)))
    for q in (3, 5):
        spec = LocalFieldSpec(q, q, 0)
        for triple, cfg, phi in cases:
            model = ComponentModel(triple, spec)
            for k in range(cfg.s_count):
                s = cfg.s0 * 2.0 ** -k
                mean, err, n, _, _ = model.lhs_mean(phi, s, cfg)
                ref = limitcheck._grid_mean(
                    lambda t: model.lhs_integrand(phi, t, s), model.R_lhs,
                    2 * n, cfg.offset)
                assert abs(mean - ref) <= err, (q, triple, s)


def test_coarse_grid_stays_inside_the_budget():
    """When the budget caps the fine grid below n_base, the coarse grid is
    still no larger than the fine one."""
    model = ComponentModel(T_D3, SPEC3)
    cfg = QuadConfig(max_nodes=2048)
    n, capped = model.lhs_grid_size(0.1, cfg)
    assert capped and n < cfg.n_base // 2 and n ** 2 <= cfg.max_nodes
    _, _, n_used, nodes, flag = model.lhs_mean(ConstantPhi(1.0), 0.1, cfg)
    assert (n_used, flag) == (n, True)
    assert 0 < nodes - n ** 2 <= n ** 2


def _atom_parts(atoms, spec, nfree, regularize):
    """(q, unit, qpow, exponent, factors) of the gamma factor of atoms, read
    from gamma_parts, with each kept factor as (angle, shift, sdir, in_num)."""
    unit, qpow, exponent, num, den = gamma_parts(atoms, spec.psi_level)
    factors = []
    for group, in_num in ((num, True), (den, False)):
        for (a, r, sd) in group:
            a = limitcheck._as_affine(a, nfree)
            if not (regularize and in_num and r == 0
                    and a.is_identically_zero()):
                factors.append((a, float(r), sd, in_num))
    return (spec.q, limitcheck._as_affine(unit, nfree), float(qpow),
            float(exponent), factors)


def _program_parts(prog):
    """The same parts read from a compiled program."""
    return (prog.q, AffineAngle(prog.unit_const, prog.unit_coeffs),
            prog.qpow, prog.exponent,
            [(AffineAngle(f.const, f.coeffs), f.shift, f.sdir, f.in_num)
             for f in prog.factors])


def _per_factor_eval(parts, t, s, phasor=None):
    """The gamma factor of ``parts`` (``_atom_parts``, ``_program_parts``)
    as a product of one exponential per factor and node: e(unit) q^{qpow -
    exponent s} prod_num g / prod_den g with g = 1 - e(const + c.t)
    q^{-(sdir s + shift)}.  ``phasor(a)`` gives e(const + c.t) at the nodes
    (default: one exp of the angle from t).  Returns the values and, per
    node, the smallest |g| and sum 1/|g| over the factors."""
    q, unit, qpow, exponent, factors = parts

    def e(a):
        if phasor is not None:
            return phasor(a)
        return np.exp(2j * np.pi * (float(a.const)
                                    + np.array(a.coeffs, dtype=float) @ t))

    val = e(unit) * q ** qpow * q ** (-exponent * s)
    smallest = np.full(t.shape[1], np.inf)
    cond = np.zeros(t.shape[1])
    for a, r, sd, in_num in factors:
        g = 1.0 - e(a) * q ** (-(sd * s + r))
        val = val * g if in_num else val / g
        smallest = np.minimum(smallest, np.abs(g))
        with np.errstate(divide="ignore"):  # kept factors vanishing at s = 0
            cond = cond + 1.0 / np.abs(g)
    return val, smallest, cond


def test_phasor_evaluator_matches_per_factor_formula():
    rng = random.Random(515)
    compared = 0
    unit_groups = 0
    for case in range(160):
        nfree = case % 4
        p, q = rng.choice(((3, 3), (2, 4), (5, 5), (3, 9)))
        spec = LocalFieldSpec(p, q, case // 4 % 2)
        atoms = []
        for _ in range(rng.randint(1, 5)):
            coeffs = tuple(rng.randint(-3, 3) for _ in range(nfree))
            if rng.random() < 0.25:
                coeffs = (0,) * nfree
            const = F(0) if rng.random() < 0.3 else F(rng.randint(0, 59), 60)
            atoms.append((AffineAngle(const, coeffs), rng.randint(1, 3)))
        regularize = case // 8 % 2 == 1
        prog = FactorProgram.compile(atoms, spec, nfree, regularize)
        unit_groups += any(prog.unit_coeffs)
        t = np.array([[rng.random() for _ in range(257)]
                      for _ in range(nfree)]).reshape(nfree, 257)
        for s in (0.0, 0.37, 0.05 - 0.4j):
            parts = _atom_parts(atoms, spec, nfree, regularize)
            want, smallest, cond = _per_factor_eval(parts, t, s)
            got = prog.eval(t, s)
            assert got.shape == (t.shape[1] if nfree else 1,)
            assert len(prog.factors) == len(parts[4])
            ok = smallest >= 1e-6
            compared += int(ok.sum())
            # each factor's rounding is a few 1e-16 in both formulas, so
            # the relative difference may grow like 1e-15 times sum 1/|g|
            rel = np.abs(got - want)[ok] / np.abs(want)[ok]
            assert np.all(rel <= 1e-12 + 1e-14 * cond[ok]), \
                (case, s, float(rel.max()))
    assert compared > 50000 and unit_groups > 20


def test_trig_phi_matches_direct_sum():
    rng = np.random.default_rng(7)
    dims = (1, 2, 1, 3, 2, 1)
    angles = rng.random((len(dims), 301)) * 3 - 1
    terms = [(1, 1, 0.3 + 0.1j), (2, 1, -0.2 + 0j), (-3, 2, 0.1 - 0.4j),
             (0, 3, 0.5 + 0j), (-1, 1, 0.05j), (4, 5, 1.0 + 0j)]
    want = np.full(angles.shape[1], 0.8, dtype=complex)
    for h, k, c in terms:
        rows = [b for b, kb in enumerate(dims) if kb == k]
        ps = np.exp(2j * np.pi * h * angles[rows, :]).sum(axis=0)
        want = want + (c * ps).real
    got = TrigPhi(terms, const=0.8).values(dims, angles)
    assert np.max(np.abs(got - want)) < 1e-13


def test_inconsistent_constants_raise(monkeypatch):
    good = limitcheck.appendix_constants(T_D3)
    ComponentModel(T_D3, SPEC3)
    for field in ("D", "N"):
        bad = dataclasses.replace(good, **{field: getattr(good, field) + 1})
        monkeypatch.setattr(limitcheck, "appendix_constants",
                            lambda triple, bad=bad: bad)
        with pytest.raises(ArithmeticError):
            ComponentModel(T_D3, SPEC3)


def test_kernel_basis_check_raises(monkeypatch):
    assert limitcheck._kernel_lattice_basis([2, 3, 1])
    monkeypatch.setattr(limitcheck, "_ext_gcd", lambda a, b: (1, 1, 1))
    with pytest.raises(ArithmeticError):
        limitcheck._kernel_lattice_basis([2, 3, 1])


def test_gaussian_phi_matches_cosine_sum():
    rng = np.random.default_rng(11)
    angles = rng.random((3, 401)) * 3 - 1
    phi = GaussianPhi(width=0.45, center=0.3, hmax=7)
    want = np.ones(angles.shape[1])
    for theta in angles:
        want = want * (1 + sum(2 * math.exp(-(0.45 * h) ** 2)
                               * np.cos(2 * np.pi * h * (theta - 0.3))
                               for h in range(1, 8)))
    got = phi.values((1, 1, 1), angles)
    assert got.dtype == complex
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


def test_fused_integrand_matches_separate_programs():
    """lhs_integrand, one program with Phi from its phasors, against Phi at
    the angles times Ad(t, 0) / Sym^2(t, s) from the two programs."""
    rng = np.random.default_rng(606)
    phis = (ConstantPhi(1.7), TrigPhi([(1, 1, 0.2 + 0.1j), (2, 2, -0.15 + 0j),
                                       (-1, 1, 0.05j)], const=1.0),
            GaussianPhi(width=1.0, center=0.2, hmax=3))
    compared = 0
    for triple in (T_D1, T_IN, T_IS, T_IO3, T_D3):
        model = ComponentModel(triple, SPEC3)
        nfree = model.R_lhs
        t = rng.random((nfree, 5000 if nfree else 1)) * 1.5 - 0.25
        sym2 = limitcheck.sym2_atoms(model.lhs_atoms)
        ad = limitcheck.ad_over_center_atoms(model.lhs_atoms)
        angles = np.array([float(a.const) + np.array(a.coeffs) @ t
                           for a, _ in model.lhs_atoms])
        _, small_ad, cond_ad = _per_factor_eval(
            _atom_parts(ad, SPEC3, nfree, True), t, 0.0)
        for s in (0.2, 0.0125):
            _, small_sym, cond_sym = _per_factor_eval(
                _atom_parts(sym2, SPEC3, nfree, False), t, s)
            ok = np.minimum(small_ad, small_sym) >= 1e-6
            for phi in phis:
                want = (phi.values(model.dims, angles)
                        * model.ad_lhs.eval(t, 0.0)
                        / model.sym2_lhs.eval(t, s))
                got = model.lhs_integrand(phi, t, s)
                assert got.shape == want.shape == (t.shape[1],)
                rel = np.abs(got - want)[ok] / np.abs(want)[ok]
                bound = 1e-12 + 1e-14 * (cond_ad + cond_sym)[ok]
                assert np.all(rel <= bound), \
                    (triple, s, type(phi).__name__, float(rel.max()))
                compared += int(ok.sum())
    assert compared > 100000


def test_quotient_matches_ratio_of_programs():
    """quotient(den) evaluates to self(t, 0) / den(t, s), unit phasors
    included."""
    rng = random.Random(77)
    units = 0
    for case in range(40):
        nfree = 1 + case % 3
        spec = LocalFieldSpec(3, 3, case % 2)
        progs = []
        for regularize in (True, False):
            atoms = [(AffineAngle(F(rng.randint(0, 59), 60),
                                  tuple(rng.randint(-2, 2)
                                        for _ in range(nfree))),
                      rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
            progs.append(FactorProgram.compile(atoms, spec, nfree, regularize))
        top, den = progs
        quot = top.quotient(den)
        units += any(quot.unit_coeffs)
        t = np.array([[rng.random() for _ in range(200)]
                      for _ in range(nfree)])
        for s in (0.3, 0.02):
            want = top.eval(t, 0.0) / den.eval(t, s)
            got = quot.eval(t, s)
            assert np.all(np.abs(got - want) <= 1e-11 * np.abs(want)), \
                (case, s)
    assert units > 10


def _grid_index(dim, n):
    """The index I of each node of the dim-axis grid, in node order."""
    return np.stack([m.ravel() for m in np.meshgrid(*[np.arange(n)] * dim,
                                                     indexing="ij")])


def _full_grid(dim, n, offset):
    return (_grid_index(dim, n) + 0.5 + offset) / n


def _exact_phasor(turns):
    """e(turns) for an exact rational angle, to about 1.6e-16: the nearest
    quarter turn j / 4 is split off exactly and its phasor i^j is exact."""
    j = round(4 * turns)
    return (1, 1j, -1, -1j)[j % 4] * np.exp(2j * np.pi
                                            * float(turns - F(j, 4)))


def _exact_on_grid(n, offset):
    """phasor(a, index): e(const + c.t) at the grid nodes of these indices,
    where t = (I + 1/2 + offset) / n, from the exact angle const + (c.I mod
    n + sum_r c_r (1/2 + offset)) / n at each residue of c.I."""
    half = F(1, 2) + F(offset)
    tables = {}

    def phasor(a, index):
        c = tuple(int(x) for x in a.coeffs)
        if (a.const, c) not in tables:
            tables[a.const, c] = np.array([
                _exact_phasor(a.const + (k + sum(c) * half) / n)
                for k in range(n)])
        return tables[a.const, c][np.array(c, dtype=int) @ index % n]
    return phasor


def test_streamed_means_match_full_grid(monkeypatch):
    """Small chunks, so that every grid spans several with a ragged last
    one: the streamed means equal full-grid means."""
    cfg = QuadConfig(n_base=16, rhs_n=40, tol=5.0)
    phi = TrigPhi([(1, 1, 0.25 + 0.1j), (2, 1, -0.1 + 0j)], const=1.0)
    t_in2 = OrthTriple(dual_pairs=((WDAtom(F(1, 3), 1), 2),))
    for triple, dim in ((T_IN, 1), (T_D3, 2), (t_in2, 3)):
        model = ComponentModel(triple, SPEC3)
        assert model.R_lhs == dim
        s = 0.15
        n, _ = model.lhs_grid_size(s, cfg)
        n2 = int(n / math.sqrt(2))
        n2 -= (n - n2) % 2
        chunk = n ** dim // 4 + 1
        assert (n ** dim % chunk) and (n2 ** dim % chunk)
        monkeypatch.setattr(FactorProgram, "BLOCK", chunk)
        full = [np.mean(model.lhs_integrand(phi, _full_grid(dim, m, cfg.offset),
                                            s)) for m in (n, n2)]
        mean, err, _, nodes, _ = model.lhs_mean(phi, s, cfg)
        assert abs(mean - full[0]) <= 1e-13 * abs(full[0])
        assert abs(err - abs(full[0] - full[1])) <= 1e-13 * abs(full[0])
        assert nodes == n ** dim + n2 ** dim

        rhs = model.rhs_value(phi, cfg)
        t = _full_grid(model.R_rhs, cfg.rhs_n, cfg.offset)
        mean = np.mean(model.rhs_integrand(phi, t))
        with monkeypatch.context() as m:
            m.setattr(limitcheck, "_grid_mean", lambda *args: 1.0)
            assert abs(rhs - model.rhs_value(phi, cfg) * mean) <= \
                1e-13 * abs(rhs)


def test_integrand_calls_cover_the_nodes_used(monkeypatch):
    """Every node verify counts passes through lhs_integrand(phi, t, s) with
    t as its third positional argument, and one call holds one chunk."""
    seen = []
    original = ComponentModel.lhs_integrand

    def spy(self, phi, t, s, /):
        seen.append(t.shape[1])
        return original(self, phi, t, s)

    monkeypatch.setattr(ComponentModel, "lhs_integrand", spy)
    for triple in (T_D1, T_IN, T_D3):
        seen.clear()
        rep = verify(triple, TrigPhi([(1, 1, 0.2 + 0j)]), SPEC3, FAST)
        assert sum(seen) == rep.nodes_used
        assert max(seen) <= FactorProgram.BLOCK


def test_non_finite_grid_sum_raises_pole_error(monkeypatch):
    """No node is guarded against a pole: a grid sum that is not finite
    raises PoleError."""
    model = ComponentModel(T_IN, SPEC3)
    assert np.isfinite(model.lhs_mean(ConstantPhi(1.0), 0.1, FAST)[0])
    monkeypatch.setattr(ComponentModel, "lhs_integrand",
                        lambda self, phi, t, s: np.full(t.shape[1], np.inf))
    with pytest.raises(PoleError):
        model.lhs_mean(ConstantPhi(1.0), 0.1, FAST)


def test_grid_chunks_are_the_grid_phasors(monkeypatch):
    """Each chunk of _grid_chunks holds, in node order, E_r = e(t_r) of its
    nodes and block phasors equal to those of its nodes: dims 0-3, ragged
    last chunks, a chunk per row segment when n > BLOCK.  A segment makes
    them as ``Phasors.of_nodes`` does, from powers of E_r; a residue grid
    chunk reads them from its grid's tables, which are compared with the
    phasor of the exact angle const + (c.I mod n + sum_r c_r (1/2 +
    offset)) / n at the node of index I."""
    offset = QuadConfig().offset
    rng = random.Random(4)
    block = FactorProgram.BLOCK
    cases = [(0, 5, block), (1, 37, block), (1, block + 100, block),
             (2, 100, block), (3, 17, block), (2, 37, 16), (3, 9, 4)]
    for dim, n, chunk in cases:
        monkeypatch.setattr(FactorProgram, "BLOCK", chunk)
        atoms = [(AffineAngle(F(rng.randrange(7), 7),
                              tuple(rng.randint(-2, 2) for _ in range(dim))), 1)
                 for _ in range(4)]
        grid = _full_grid(dim, n, offset) if dim else np.zeros((0, 1))
        index = _grid_index(dim, n) if dim else grid
        exact = _exact_on_grid(n, offset)
        start, sizes = 0, []
        for ph in limitcheck._grid_chunks(dim, n, offset):
            m = ph.shape[1]
            assert ph.shape == (dim, m) and math.prod(ph.nodes) == m <= chunk
            t, nodes = grid[:, start:start + m], index[:, start:start + m]
            start += m
            sizes.append(m)
            if isinstance(ph, limitcheck.GridChunk):
                axes = [exact(AffineAngle(F(0), tuple(int(i == r)
                                                      for i in range(dim))),
                              nodes) for r in range(dim)]
                ref = [exact(a, nodes) for a, _ in atoms]
            else:
                axes = np.exp(2j * np.pi * t)
                ref = limitcheck.Phasors.of_nodes(t).blocks(atoms)
            for r in range(dim):
                got = np.broadcast_to(ph.power(r, 1), ph.nodes).ravel()
                assert np.abs(got - axes[r]).max() <= 1e-15
            for got, want in zip(ph.blocks(atoms), ref):
                got = np.broadcast_to(got, ph.nodes).ravel()
                assert np.abs(got - want).max() <= 1e-15
        assert start == n ** dim
        if n ** dim > chunk:
            assert len(set(sizes)) == 2  # a ragged last chunk
        if dim and n > chunk:
            assert max(sizes) == chunk  # segments of one row


def test_grid_integrands_equal_node_integrands(monkeypatch):
    """On a grid chunk the fused program and phi, costed on broadcast
    phasors, give the values they give on the chunk's flattened nodes."""
    monkeypatch.setattr(FactorProgram, "BLOCK", 100)
    offset = QuadConfig().offset
    phi = TrigPhi([(1, 1, 0.25 + 0.1j), (2, 1, -0.1 + 0j)], const=1.0)
    t_in2 = OrthTriple(dual_pairs=((WDAtom(F(1, 3), 1), 2),))
    for triple in (T_D1, T_IN, T_D3, t_in2):
        model = ComponentModel(triple, SPEC3)
        dim, n = model.R_lhs, 23
        grid = _full_grid(dim, n, offset) if dim else np.zeros((0, 1))
        got = np.concatenate([
            np.broadcast_to(model.lhs_integrand(phi, ph, 0.1), ph.nodes).ravel()
            for ph in limitcheck._grid_chunks(dim, n, offset)])
        want = model.lhs_integrand(phi, grid, 0.1)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_random_programs_on_grid_chunks_match_flattened_nodes(monkeypatch):
    """Random programs with factors in the head coordinates only, in the
    last one only, in both, and with a unit monomial: on every chunk of
    ragged grids, one row segments among them (BLOCK is small), the
    broadcast evaluation gives what ``eval`` gives on the flattened nodes."""
    monkeypatch.setattr(FactorProgram, "BLOCK", 16)
    offset = QuadConfig().offset
    rng = random.Random(1111)
    grids = {1: (13, 37), 2: (7, 23), 3: (5,)}
    kinds = Counter()
    compared = 0

    def coeffs(nfree, kind):
        head = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(nfree - 1)]
        last = rng.choice((-3, -2, -1, 1, 2, 3))
        if kind == "row":
            return tuple(head) + (0,)
        if kind == "lane":
            return (0,) * (nfree - 1) + (last,)
        return tuple(head) + (last,)

    for case in range(96):
        nfree = 1 + case % 3
        p, q = rng.choice(((3, 3), (2, 4), (5, 5), (3, 9)))
        spec = LocalFieldSpec(p, q, case // 3 % 2)
        atoms = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(("row", "lane", "mixed", "zero"))
            c = (0,) * nfree if kind == "zero" else coeffs(nfree, kind)
            const = F(rng.randint(0, 59), 60)
            atoms.append((AffineAngle(const, c), rng.randint(1, 3)))
        regularize = case // 6 % 2 == 1
        prog = FactorProgram.compile(atoms, spec, nfree, regularize)
        for f in prog.factors:
            head, last = any(f.coeffs[:-1]), f.coeffs[-1] != 0
            kinds["row" if not last and head else "lane" if not head and last
                  else "mixed" if last else "scalar"] += 1
        kinds["unit"] += any(prog.unit_coeffs)
        for n in grids[nfree]:
            t = _full_grid(nfree, n, offset)
            for s in (0.0, 0.37, 0.05 - 0.4j):
                got = np.concatenate([
                    np.broadcast_to(prog.eval_phasors(ph, s), ph.nodes).ravel()
                    for ph in limitcheck._grid_chunks(nfree, n, offset)])
                want = prog.eval(t, s)
                _, smallest, cond = _per_factor_eval(
                    _atom_parts(atoms, spec, nfree, regularize), t, s)
                ok = smallest >= 1e-6
                compared += int(ok.sum())
                rel = np.abs(got - want)[ok] / np.abs(want)[ok]
                assert np.all(rel <= 1e-12 + 1e-14 * cond[ok]), \
                    (case, n, s, float(rel.max()))
    assert compared > 30000
    assert min(kinds[k] for k in ("row", "lane", "mixed", "scalar")) > 20
    assert kinds["unit"] > 10, kinds


def test_factors_on_one_direction_on_grid_chunks(monkeypatch):
    """Random programs with factors at c, -c, 2c and -3c and the unit
    monomial along c, beside a few factors in other directions, for R = 1,
    2 and 3: on every chunk of residue grids (ragged chunks, n below
    |c|_1) and of one-row segments (BLOCK is small), the chunk values are
    what ``eval`` gives on the flattened nodes, and those are the product
    of the factors one by one."""
    monkeypatch.setattr(FactorProgram, "BLOCK", 16)
    offset = QuadConfig().offset
    rng = random.Random(2024)
    grids = {1: (3, 37), 2: (2, 7, 23), 3: (3, 5)}
    compared = backward = 0

    def vector(nfree):
        while True:
            c = tuple(rng.randint(-3, 3) for _ in range(nfree))
            if any(c):
                return c

    def factor(c):
        return limitcheck._Factor(F(rng.randint(0, 59), 60), c,
                                  rng.choice((0.0, 0.5, 1.0)),
                                  rng.choice((-1, 0, 1)), rng.random() < 0.5)

    for case in range(36):
        nfree = 1 + case % 3
        c = vector(nfree)
        factors = [factor(tuple(m * x for x in c)) for m in (1, -1, 2, -3)]
        factors += [factor(vector(nfree)) for _ in range(rng.randint(0, 3))]
        rng.shuffle(factors)
        unit = rng.choice((1, -1, 2, -3, 0))
        prog = FactorProgram(
            q=rng.choice((3, 4, 5, 9)), nfree=nfree,
            unit_const=F(rng.randint(0, 59), 60),
            unit_coeffs=tuple(unit * x for x in c), qpow=rng.uniform(-2, 2),
            exponent=rng.uniform(-3, 3), factors=factors)
        # a direction that steps back along the rows or the columns
        backward += any(x < 0 for x in limitcheck._direction(c)[0])
        for n in grids[nfree]:
            t, index = _full_grid(nfree, n, offset), _grid_index(nfree, n)
            exact = _exact_on_grid(n, offset)
            for s in (0.0, 0.37, 0.05 - 0.4j):
                got = np.concatenate([
                    np.broadcast_to(prog.eval_phasors(ph, s), ph.nodes).ravel()
                    for ph in limitcheck._grid_chunks(nfree, n, offset)])
                want = prog.eval(t, s)
                # the factors' phasors from exact angles: a float angle of
                # up to 1.6 |c|_1 turns would round by about 1e-15 |c|_1
                ref, smallest, cond = _per_factor_eval(
                    _program_parts(prog), t, s, lambda a: exact(a, index))
                ok = smallest >= 1e-6
                compared += int(ok.sum())
                for val, base in ((got, want), (want, ref)):
                    rel = np.abs(val - base)[ok] / np.abs(base)[ok]
                    assert np.all(rel <= 1e-12 + 1e-14 * cond[ok]), \
                        (case, n, s, float(rel.max()))
    assert compared > 20000 and backward > 5, (compared, backward)


def test_quad_config_refuses_bad_offset_and_extrap_order():
    """A node offset that is not finite puts no node on a number, and an
    extrapolation order below 0 or not whole names no Richardson rule:
    both are refused when the config is made."""
    for bad in ({"offset": math.nan}, {"offset": math.inf},
                {"offset": -math.inf}, {"extrap_order": -1},
                {"extrap_order": 1.5}, {"extrap_order": 3.0},
                {"extrap_order": "3"}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            QuadConfig(**bad)
    assert QuadConfig(offset=0.0, extrap_order=0).extrap_order == 0
    assert QuadConfig(extrap_order=np.int64(2)).extrap_order == 2


def test_grid_means_take_no_node_angles(monkeypatch):
    """lhs_mean, rhs_value and measure_mass build every Phasors from the
    grid's axis phasors, never from node angles."""
    def refuse(cls, t):
        raise AssertionError("Phasors built from node angles")

    monkeypatch.setattr(limitcheck.Phasors, "of_nodes", classmethod(refuse))
    phi = TrigPhi([(1, 1, 0.2 + 0j)])
    for triple in (T_D1, T_IN, T_D3, T_IS):
        model = ComponentModel(triple, SPEC3)
        assert np.isfinite(model.lhs_mean(phi, 0.1, FAST)[0])
        assert np.isfinite(model.rhs_value(phi, FAST))
        assert np.isfinite(model.measure_mass(phi, FAST))
    with pytest.raises(AssertionError, match="node angles"):
        model.lhs_integrand(phi, np.zeros((model.R_lhs, 3)), 0.1)


def test_phi_on_broadcast_phasors():
    """Each test function gives on block phasors of shapes (rows, 1),
    (1, n), (rows, n) and a scalar the values it gives on the flattened
    nodes."""
    rng = np.random.default_rng(6)
    rows, n = 5, 7
    a = np.exp(2j * np.pi * rng.random((rows, 1)))
    b = np.exp(2j * np.pi * rng.random((1, n)))
    z = [a, b, a * b, np.exp(0.4j)]
    flat = [np.broadcast_to(zb, (rows, n)).ravel() for zb in z]
    dims = (1, 1, 2, 2)
    for phi in (ConstantPhi(1.5),
                TrigPhi([(1, 1, 0.3 + 0.1j), (2, 2, -0.2 + 0j), (0, 1, 0.5)],
                        const=0.7),
                GaussianPhi(width=0.4, center=0.25)):
        got = np.broadcast_to(phi.phasor_values(dims, z), (rows, n)).ravel()
        want = np.broadcast_to(phi.phasor_values(dims, flat), rows * n)
        assert np.abs(got - want).max() <= 1e-15


def test_chunk_evaluation_holds_only_its_output():
    """One evaluation of the fused program of T_D3 on a full chunk of BLOCK
    nodes, in the small-buffer scope that ``lhs_integrand`` gives it, holds
    its output and the grid's residue tables, which are a few n long: every
    direction is a strided view of its table, and no factor has a buffer or
    a denominator of its own.  Its peak stays below two chunk-sized complex
    arrays; a direction copied out of its table would reach two."""
    import tracemalloc

    model = ComponentModel(T_D3, SPEC3)
    n = 128
    ph = next(limitcheck._grid_chunks(2, n, QuadConfig().offset))
    assert ph.nodes == (FactorProgram.BLOCK // n, n)
    chunk = FactorProgram.BLOCK * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        with limitcheck._small_buffers():
            model.lhs_program.eval_phasors(ph, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * chunk, peak / chunk


def test_lhs_mean_memory_does_not_grow_with_the_grid():
    """One lhs_mean on T_D3 at s = 0.025 covers 839^2 + 593^2 nodes, and one
    on T_IN at s = 5e-5 a 1-D grid of 419181 + 296405 nodes; the streamed
    chunks keep each allocation peak to a few MB."""
    import tracemalloc

    cfg = QuadConfig()
    phi = TrigPhi([(1, 1, 0.3 + 0j)])
    for triple, s, n in ((T_D3, 0.025, 839), (T_IN, 5e-5, 419181)):
        model = ComponentModel(triple, SPEC3)
        assert model.lhs_grid_size(s, cfg)[0] == n
        tracemalloc.start()
        try:
            model.lhs_mean(phi, s, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20, (triple, peak)
