"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with -s to see the timing lines:  pytest tests/test_acceptance.py -s
"""

import math
import random
import time
from fractions import Fraction as F

import numpy as np

from planch.field import (LocalFieldSpec, gamma_star_trivial, square_class)
from planch.forms import (BilForm, OrbitLabel, char_poly_twisted, charpoly,
                          classify_sharp, closure_family_member,
                          correspond_char_poly, b_of_g, bruhat_factor,
                          build_odd_so, det, in_g_prime, mat, mat_eq, mat_mul,
                          poly_mul, twisted_conjugate)
from planch.limitcheck import (ComponentModel, ConstantPhi, QuadConfig,
                               TrigPhi, component_blocks, eq13_values,
                               mirror_structure, singular_exponent,
                               singular_exponent_engine, subtorus_twists,
                               verify)
from planch.tempered import OrthTriple, appendix_constants, formal_degree_rhs
from planch.wdrep import (SELF_DUAL_BOTH, SELF_DUAL_ORTHOGONAL, WDAtom, WDRep,
                          component_groups_brute_force)

SPEC3 = LocalFieldSpec(3, 3, 0)


def fit_divergence_exponent(triple, phi, spec, cfg):
    """Log-log slope of the raw component integral against s: close to -1
    whenever singular loci meet the support."""
    model = ComponentModel(triple, spec)
    s_values = cfg.s_values()
    ys = [abs(model.lhs_mean(phi, s, cfg)[0]) for s in s_values]
    return float(np.polyfit(np.log(s_values), np.log(ys), 1)[0])


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:>2}: {name} {detail}")
    assert ok, f"criterion {num} failed: {name} {detail}"


# -- 1: trivial-character constants ------------------------------------------------

def test_criterion_1_trivial_constants():
    t0 = time.time()
    cases = {(2, 2, 0): F(2), (3, 3, 0): F(3, 2), (5, 5, 2): F(25, 4),
             (2, 4, -1): F(2, 3)}
    ok = all(gamma_star_trivial(LocalFieldSpec(p, q, n)) == want
             for (p, q, n), want in cases.items())
    report(1, "trivial gamma* constants exact", ok,
           f"({(time.time() - t0) * 1e3:.2f} ms)")


# -- 2: functional equation ---------------------------------------------------------

def random_rep(rng, max_dim=6, denom=12):
    atoms, total = [], 0
    while total < max_dim:
        m = rng.randint(1, max_dim - total)
        atoms.append((F(rng.randint(0, denom - 1), denom), m))
        total += m
        if rng.random() < 0.35:
            break
    return WDRep.of(*atoms)


def test_criterion_2_functional_equation():
    t0 = time.time()
    rng = random.Random(202)
    worst = 0.0
    for _ in range(200):
        spec = LocalFieldSpec(3, 3, rng.randint(-2, 2))
        r = random_rep(rng)
        g, gd = r.gamma_factor(spec), r.dual().gamma_factor(spec)
        for _ in range(20):
            s = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.05, 1.5))
            worst = max(worst, abs(g.evaluate(s) * gd.evaluate(1 - s) - 1))
    dt = time.time() - t0
    report(2, "functional equation, 200 reps x 20 points",
           worst < 1e-10 and dt < 5, f"(max dev {worst:.2e}, {dt:.2f} s)")


# -- 3: plethysm consistency ---------------------------------------------------------

def random_self_dual_rep(rng, denom=12):
    atoms = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            u = F(rng.randint(1, denom - 1), denom)
            sp = rng.randint(1, 3)
            atoms += [(u, sp), (-u, sp)]
        else:
            atoms.append((rng.choice([F(0), F(1, 2)]), rng.randint(1, 3)))
    return WDRep.of(*atoms)


def test_criterion_3_plethysm():
    t0 = time.time()
    rng = random.Random(303)
    ok = True
    for _ in range(500):
        r = random_rep(rng, 5)
        lhs = sorted((r.sym2() + r.wedge2()).atoms,
                     key=lambda a: (a.sp, a.angle))
        ok &= lhs == sorted(r.tensor(r).atoms, key=lambda a: (a.sp, a.angle))
    gs1 = float(gamma_star_trivial(SPEC3))
    worst = 0.0
    for _ in range(100):
        r = random_self_dual_rep(rng)
        full = gs1 * r.ad_over_center().gamma_factor(SPEC3).regularized_value()
        sw = r.sym2().gamma_factor(SPEC3).regularized_value() * \
            r.wedge2().gamma_factor(SPEC3).regularized_value()
        worst = max(worst, abs(full - sw) / max(1.0, abs(full)))
    dt = time.time() - t0
    report(3, "plethysm + regularized product identity",
           ok and worst < 1e-10 and dt < 5,
           f"(max rel dev {worst:.2e}, {dt:.2f} s)")


# -- 4: component groups ---------------------------------------------------------------

def random_orthogonal_rep(rng):
    atoms = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.4:
            atoms += [(rng.choice([F(0), F(1, 2)]), rng.choice([1, 3, 5]))] \
                * rng.randint(1, 2)
        elif kind < 0.7:
            atoms += [(rng.choice([F(0), F(1, 2)]), rng.choice([2, 4]))] \
                * (2 * rng.randint(1, 2))
        else:
            u = F(rng.randint(1, 5), 11)
            m, sp = rng.randint(1, 2), rng.randint(1, 3)
            atoms += [(u, sp)] * m + [(-u, sp)] * m
    return WDRep.of(*atoms)


def test_criterion_4_component_groups():
    t0 = time.time()
    rng = random.Random(404)
    checked, ok = 0, True
    while checked < 200:
        r = random_orthogonal_rep(rng)
        if r.self_duality() not in (SELF_DUAL_ORTHOGONAL, SELF_DUAL_BOTH):
            continue
        s_plus, s, ratio = r.component_groups()
        total, in_so = component_groups_brute_force(r)
        ok &= (s_plus == total and s == in_so and ratio in (1, 2))
        orth_dims = {a.sp for a in r.atoms
                     if a.self_duality() == SELF_DUAL_ORTHOGONAL}
        ok &= (ratio == 2) == all(d % 2 == 0 for d in orth_dims)
        checked += 1
    dt = time.time() - t0
    report(4, "component groups vs sign-vector brute force (200)",
           ok and dt < 1, f"({dt:.2f} s)")


# -- 5: the exact pointwise identity ---------------------------------------------------

FIVE_TRIPLES = [
    OrthTriple(dual_pairs=((WDAtom(F(1, 3), 1), 2),)),                 # In only
    OrthTriple(symplectic=((WDAtom(F(0), 2), 2),)),                    # Is only
    OrthTriple(orthogonal=((WDAtom(F(0), 1), 3),)),                    # Io, q odd
    OrthTriple(orthogonal=((WDAtom(F(1, 2), 1), 2),)),                 # Io, q even
    OrthTriple(dual_pairs=((WDAtom(F(1, 5), 1), 1),),                  # mixed
               orthogonal=((WDAtom(F(0), 3), 1),)),
]


def test_criterion_5_exact_identity():
    t0 = time.time()
    rng = random.Random(505)
    worst = 0.0
    for triple in FIVE_TRIPLES:
        nfree, _ = mirror_structure(triple)
        checked = 0
        while checked < 100:
            free = [F(rng.randint(1, 208), 209) for _ in range(nfree)]
            try:
                lhs, rhs = eq13_values(triple, free, SPEC3)
            except Exception:
                continue
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
            checked += 1
    dt = time.time() - t0
    report(5, "pointwise limit identity, 100 points x 5 triples",
           worst < 1e-10 and dt < 10, f"(max rel dev {worst:.2e}, {dt:.2f} s)")


# -- 6 and 7: the spectral limit -----------------------------------------------------

def test_criterion_6_limit_d1():
    t0 = time.time()
    triple = OrthTriple(orthogonal=((WDAtom(F(0), 1), 1),))
    cfg = QuadConfig(s0=0.1, s_count=5)
    ok = True
    for phi in (ConstantPhi(1.0), TrigPhi([(1, 1, 0.3 + 0j)], const=1.0)):
        rep = verify(triple, phi, SPEC3, cfg)
        ok &= rep.rel_discrepancy < 1e-10 and rep.passed
        model = ComponentModel(triple, SPEC3)
        for s in (0.5, 0.05, 0.005):
            v = model.lhs_value(phi, s, cfg)[0]
            ok &= abs(v - rep.rhs) < 1e-10
    dt = time.time() - t0
    report(6, "spectral limit at d=1 (LHS constant in s)", ok and dt < 1,
           f"({dt:.2f} s)")


def test_criterion_7_limit_d2_d3():
    trig = TrigPhi([(1, 1, 0.4 + 0j), (2, 1, -0.15 + 0.1j)], const=1.0)
    cases = [
        ("d=2 Io={1,quad}",
         OrthTriple(orthogonal=((WDAtom(F(0), 1), 1), (WDAtom(F(1, 2), 1), 1))),
         QuadConfig(s0=0.1, s_count=6, n_base=128, rhs_n=512), 1e-3),
        ("d=2 In pair",
         OrthTriple(dual_pairs=((WDAtom(F(1, 3), 1), 1),)),
         QuadConfig(s0=0.1, s_count=6, n_base=128, rhs_n=512), 1e-3),
        ("d=3 In pair + Io singleton",
         OrthTriple(dual_pairs=((WDAtom(F(1, 5), 1), 1),),
                    orthogonal=((WDAtom(F(0), 1), 1),)),
         QuadConfig(s0=0.2, s_count=4, n_base=128, rhs_n=256), 1e-2),
    ]
    for name, triple, cfg, tol in cases:
        for phi, pname in ((ConstantPhi(1.0), "1"), (trig, "trig")):
            t0 = time.time()
            cfg.tol = tol
            rep = verify(triple, phi, SPEC3, cfg)
            dt = time.time() - t0
            report(7, f"spectral limit {name}, phi={pname}",
                   rep.rel_discrepancy < tol and rep.passed and dt < 300,
                   f"(rel {rep.rel_discrepancy:.2e}, {dt:.1f} s)")


# -- 8: singular exponents and the divergence rate -----------------------------------

def test_criterion_8_singular_exponents():
    t0 = time.time()
    rng = random.Random(808)
    triple = OrthTriple(dual_pairs=((WDAtom(F(1, 5), 1), 1),),
                        orthogonal=((WDAtom(F(0), 1), 1),))
    blocks = component_blocks(triple)
    agree = 0
    for _ in range(1000):
        tw = [F(rng.randint(0, 30), 31) for _ in blocks]
        tw[-1] = -sum(tw[:-1])
        if singular_exponent(triple, tw) == \
                singular_exponent_engine(triple, tw, SPEC3):
            agree += 1
    ok = agree == 1000
    # divergence rate over the geometric sequence 0.1 ... 0.003125
    cfg = QuadConfig(s0=0.1, s_count=6, n_base=128)
    slopes = []
    for t in (OrthTriple(orthogonal=((WDAtom(F(0), 1), 1),
                                     (WDAtom(F(1, 2), 1), 1))),
              OrthTriple(dual_pairs=((WDAtom(F(1, 3), 1), 1),))):
        slopes.append(fit_divergence_exponent(t, ConstantPhi(1.0), SPEC3, cfg))
    ok &= all(abs(sl + 1.0) < 0.05 for sl in slopes)
    dt = time.time() - t0
    report(8, "singular-exponent law + divergence rate", ok,
           f"(agree {agree}/1000, slopes {[round(s, 3) for s in slopes]}, "
           f"{dt:.1f} s)")


# -- 9: forms ---------------------------------------------------------------------------

def test_criterion_9_forms():
    t0 = time.time()
    rng = random.Random(909)
    ok = classify_sharp(BilForm(mat([[-1, 1], [-1, 0]])), 3) == \
        OrbitLabel("gamma_t", square_class(1, 3))
    alt = BilForm(mat([[0, 1], [-1, 0]]))
    ok &= classify_sharp(alt, 3).kind == "gamma_0"
    ok &= char_poly_twisted(alt) == (1, 2, 1)

    def random_form(d):
        while True:
            b = BilForm(mat([[F(rng.randint(-4, 4)) for _ in range(d)]
                             for _ in range(d)]))
            if b.is_nondegenerate():
                return b

    def random_gln(d):
        while True:
            m = mat([[F(rng.randint(-3, 3)) for _ in range(d)]
                     for _ in range(d)])
            if det(m) != 0:
                return m

    for _ in range(500):
        d = rng.randint(1, 3)
        b, m = random_form(d), random_gln(d)
        bc = twisted_conjugate(b, m)
        ok &= classify_sharp(bc, 3) == classify_sharp(b, 3)
        ok &= char_poly_twisted(bc) == char_poly_twisted(b)
    # closure family lands on gamma_0
    t = square_class(-1, 3)
    ok &= classify_sharp(closure_family_member(t, 2, F(1, 9)), 3) == \
        OrbitLabel("gamma_t", t)
    ok &= classify_sharp(closure_family_member(t, 2, 0), 3).kind == "gamma_0"
    # central fiber in the symplectic flavor: (T+1)^{2n}(T-1)
    two_n = 4
    chi_eps = charpoly(mat([[-1 if i == j else 0 for j in range(two_n)]
                            for i in range(two_n)]))
    got = correspond_char_poly(chi_eps, "symplectic-odd")
    ok &= got == poly_mul(chi_eps, (-1, 1))
    dt = time.time() - t0
    report(9, "forms: classification, invariance, closure, fiber",
           ok and dt < 5, f"({dt:.2f} s)")


# -- 10: the odd orthogonal embedding ---------------------------------------------------

def test_criterion_10_so_embedding():
    t0 = time.time()
    rng = random.Random(1010)
    ok = True
    for d in (2, 3):
        emb = build_odd_so(d)
        done = 0
        while done < 100:
            ell = [F(rng.randint(-4, 4)) for _ in range(d)]
            t = [[F(rng.randint(-4, 4)) for _ in range(d)] for _ in range(d)]
            s = [[t[i][j] - t[j][i] - F(ell[i] * ell[j], 2)
                  for j in range(d)] for i in range(d)]
            g = emb.n_bar_element(ell, mat(s))
            bg = b_of_g(emb, g)
            need = mat([[-ell[i] * ell[j] for j in range(d)]
                        for i in range(d)])
            ok &= mat_eq(bg.sym_part(), need)
            if not in_g_prime(emb, g):
                continue
            u1, mt, u2 = bruhat_factor(emb, g)
            ok &= mat_eq(mat_mul(u1, mat_mul(mt, u2)), g)
            done += 1
    dt = time.time() - t0
    report(10, "odd orthogonal embedding: rank-one law + round trips",
           ok and dt < 5, f"({dt:.2f} s)")


# -- 11: measure normalization ----------------------------------------------------------

def test_criterion_11_measure_normalization():
    t0 = time.time()
    cfg = QuadConfig(n_base=512)
    cases = [
        (OrthTriple(orthogonal=((WDAtom(F(0), 1), 1),)), 1, 1.0),
        (OrthTriple(orthogonal=((WDAtom(F(1, 2), 1), 2),)), 2, 0.5),
        (OrthTriple(orthogonal=((WDAtom(F(0), 1), 3),)), 6, 1 / 6),
    ]
    ok = True
    for triple, w, want in cases:
        assert appendix_constants(triple).W == w
        mass = ComponentModel(triple, SPEC3).measure_mass(ConstantPhi(1.0), cfg)
        ok &= abs(mass - want) < 1e-6
    dt = time.time() - t0
    report(11, "spectral-measure normalization 1/|W|", ok and dt < 10,
           f"({dt:.2f} s)")


# -- 12: Steinberg self-consistency ------------------------------------------------------

def hand_gamma_at_zero(m, q, psi_level):
    """Ten-line independent assembly from the L-factor definitions: the atom
    (angle 0, Sp(m)) has L(s) = (1 - q^{-(s + (m-1)/2)})^{-1} and epsilon
    monomial (e q^{1/2-s})^{m-1} q^{m n (1/2-s)} with e = -1."""
    r = (m - 1) / 2.0
    eps = ((-1) * q ** 0.5) ** (m - 1) * q ** (psi_level * m * 0.5)
    l_at_0 = 1.0 / (1 - q ** -(0 + r)) if r > 0 else None
    l_dual_at_1 = 1.0 / (1 - q ** -(1 + r))
    num = (1 - q ** -(0 + r))  # 1 / L(0)
    return eps * num / (1 - q ** -(1 + r))


def test_criterion_12_steinberg():
    t0 = time.time()
    ok = True
    for n in (1, 2):
        m = 2 * n + 1
        param = WDRep.of((0, m))
        got = formal_degree_rhs(param, SPEC3)
        # wedge^2 Sp(2n+1) decomposes into Sp blocks 2(2n+1)-3-4j
        hand = 1.0
        k = 2 * m - 3
        while k >= 1:
            hand *= hand_gamma_at_zero(k, 3, 0)
            k -= 4
        ok &= abs(got - abs(hand)) < 1e-12 * max(1.0, abs(hand))
    dt = time.time() - t0
    report(12, "Steinberg self-consistency (principal parameters)",
           ok and dt < 5, f"({dt:.2f} s)")
