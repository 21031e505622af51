import math
import random
import re
from fractions import Fraction as F

import pytest

from planch.field import LocalFieldSpec, QuadraticCharacter, gamma_star_trivial
from planch.tempered import (CentralCharacterMismatch, OrthTriple, TempPoint,
                             appendix_constants,
                             central_quotient_relation_check, formal_degree_rhs,
                             hii_rhs, orth_triple_of, plancherel_density,
                             plancherel_density_chi)
from planch.wdrep import WDAtom, WDRep

from oracles import character_from_values

SPEC3 = LocalFieldSpec(3, 3, 0)
CHI0 = QuadraticCharacter.trivial(3)


def test_parameter_of():
    assert TempPoint.of((1, 0, 0)).parameter() == WDRep.of((0, 1))
    u = F(1, 5)
    assert TempPoint.of((1, u, 0), (1, -u, 0)).parameter() == \
        WDRep.of((u, 1), (-u, 1))
    assert TempPoint.of((2, 0, 0)).parameter() == WDRep.of((0, 2))
    # Weyl equivalence: permuted blocks give the same parameter
    pt1 = TempPoint.of((1, u, F(1, 7)), (2, 0, 0))
    pt2 = TempPoint.of((2, 0, 0), (1, u, F(1, 7)))
    assert pt1.parameter() == pt2.parameter()


def test_weyl_order():
    assert TempPoint.of((1, F(1, 3), 0), (1, F(1, 3), 0)).weyl_order() == 2
    assert TempPoint.of((1, F(1, 3), 0), (1, F(2, 3), 0)).weyl_order() == 1
    # twist participates in the block identity
    assert TempPoint.of((1, F(1, 3), 0), (1, F(1, 6), F(1, 6))).weyl_order() == 2


def test_triple_weyl_orders():
    t = OrthTriple(orthogonal=((WDAtom(F(0), 1), 1),))
    assert t.weyl_orders() == (1, 1)
    t = OrthTriple(symplectic=((WDAtom(F(0), 2), 2),))
    assert t.weyl_orders() == (2, 2)
    t = OrthTriple(orthogonal=((WDAtom(F(0), 1), 3),))
    assert t.weyl_orders() == (6, 2)
    t = OrthTriple(dual_pairs=((WDAtom(F(1, 5), 1), 2),))
    assert t.weyl_orders() == (4, 2)


def test_plancherel_density():
    pt = TempPoint.of((1, 0, 0))
    assert abs(plancherel_density(pt, SPEC3) - 1.5) < 1e-12
    # d=2 principal series: gamma*(1)^2 gamma(0, 2u) gamma(0, -2u)
    u = F(1, 5)
    pt2 = TempPoint.of((1, u, 0), (1, -u, 0))
    g1 = float(gamma_star_trivial(SPEC3))
    g2 = WDRep.of((2 * u, 1)).gamma_factor(SPEC3).evaluate(0.0)
    g3 = WDRep.of((-2 * u, 1)).gamma_factor(SPEC3).evaluate(0.0)
    expect = g1 ** 2 * g2 * g3
    assert abs(plancherel_density(pt2, SPEC3) - expect) < 1e-10
    # real at self-dual points
    assert abs(plancherel_density(pt2, SPEC3).imag) < 1e-12
    # invariant under dualizing the point (angle negation)
    rng = random.Random(9)
    for _ in range(30):
        blocks = [(rng.randint(1, 2), F(rng.randint(0, 11), 12), 0)
                  for _ in range(rng.randint(1, 3))]
        dual_blocks = [(k, -u, 0) for (k, u, _) in blocks]
        v1 = plancherel_density(TempPoint.of(*blocks), SPEC3)
        v2 = plancherel_density(TempPoint.of(*dual_blocks), SPEC3)
        assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1))


def test_plancherel_density_chi():
    pt = TempPoint.of((1, 0, 0))
    assert abs(plancherel_density_chi(pt, CHI0, SPEC3) - 1.0) < 1e-12
    st = TempPoint.of((2, 0, 0))
    assert abs(plancherel_density_chi(st, CHI0, SPEC3) - 9 / 8) < 1e-12
    with pytest.raises(CentralCharacterMismatch):
        plancherel_density_chi(TempPoint.of((1, F(1, 2), 0)), CHI0, SPEC3)
    # chi(-1) = -1 flips the sign for even d
    ram = character_from_values(3, on_unit=-1, on_pi=1)
    assert ram(-1) == -1
    v0 = plancherel_density_chi(st, CHI0, SPEC3)
    v1 = plancherel_density_chi(st, ram, SPEC3)
    assert abs(v0 + v1) < 1e-12


def test_central_quotient_relation():
    rng = random.Random(0)
    chi_half = QuadraticCharacter.unramified_quadratic(3)
    for _ in range(30):
        blocks = []
        total_angle = F(0)
        d = rng.randint(1, 3)
        for _ in range(d):
            u = F(rng.randint(0, 11), 12)
            blocks.append((1, u, 0))
            total_angle += u
        pt = TempPoint.of(*blocks)
        chi = CHI0 if pt.central_angle() == 0 else (
            chi_half if pt.central_angle() == F(1, 2) else None)
        if chi is None:
            continue
        assert central_quotient_relation_check(pt, chi, SPEC3)


def test_orth_triple_of():
    t = orth_triple_of(TempPoint.of((1, 0, 0), (1, F(1, 2), 0)))
    assert t is not None and len(t.orthogonal) == 2 and not t.dual_pairs
    u = F(1, 5)
    t2 = orth_triple_of(TempPoint.of((1, u, 0), (1, -u, 0)))
    assert t2 is not None and t2.dual_pairs == ((WDAtom(u, 1), 1),)
    assert orth_triple_of(TempPoint.of((2, 0, 0))) is None  # symplectic type
    # round trip: base point of the triple regenerates the parameter
    pt = TempPoint.of((1, u, 0), (1, -u, 0), (3, 0, 0))
    t3 = orth_triple_of(pt)
    assert t3.base_point().parameter() == pt.parameter()


def test_appendix_constants():
    t = OrthTriple(orthogonal=((WDAtom(F(0), 1), 1), (WDAtom(F(1, 2), 1), 1)))
    c = appendix_constants(t)
    assert (c.P, c.S, c.D, c.N, c.c, c.W, c.Wprime) == (1, 2, 1, 2, 2, 1, 1)
    t = OrthTriple(dual_pairs=((WDAtom(F(1, 5), 1), 1),))
    c = appendix_constants(t)
    assert (c.P, c.S, c.D, c.N, c.c, c.W, c.Wprime) == (1, 2, 1, 1, 0, 1, 1)
    t = OrthTriple(symplectic=((WDAtom(F(0), 2), 2),))
    c = appendix_constants(t)
    assert (c.P, c.S, c.D, c.N, c.c, c.W, c.Wprime) == (4, 2, 2, 1, 0, 2, 2)


def test_appendix_constants_invariants():
    rng = random.Random(1)
    for _ in range(100):
        parts = {}
        if rng.random() < 0.6:
            parts["dual_pairs"] = ((WDAtom(F(rng.randint(1, 9), 20),
                                           rng.randint(1, 3)),
                                    rng.randint(1, 2)),)
        if rng.random() < 0.6:
            parts["symplectic"] = ((WDAtom(rng.choice([F(0), F(1, 2)]),
                                           2 * rng.randint(1, 2)),
                                    2 * rng.randint(1, 2)),)
        if rng.random() < 0.6:
            parts["orthogonal"] = ((WDAtom(rng.choice([F(0), F(1, 2)]),
                                           2 * rng.randint(0, 1) + 1),
                                    rng.randint(1, 3)),)
        if not parts:
            continue
        t = OrthTriple(**parts)
        c = appendix_constants(t)
        total = sum(2 * m * a.sp for a, m in t.dual_pairs) + \
            sum(p * a.sp for a, p in t.symplectic) + \
            sum(q * a.sp for a, q in t.orthogonal)
        assert total == t.d
        assert c.N <= c.S
        assert 2 * c.N == c.S + c.c  # pairs plus odd middles
    # an odd Is multiplicity is refused where the triple is built
    for p in (1, 3):
        with pytest.raises(ValueError, match="^symplectic multiplicities must "
                                             "be even on the orthogonal locus$"):
            OrthTriple(symplectic=((WDAtom(F(0), 2), p),))


def _constants_by_group(t):
    """(P, S, D, N, c, W, W') from one loop per group, In, Is and Io, the
    reference for the one rule that Is and Io atoms share."""
    w = wp = P = D = 1
    S = N = c = 0
    for a, m in t.dual_pairs:
        w *= math.factorial(m) ** 2
        wp *= math.factorial(m)
        P *= a.sp ** (2 * m)
        D *= a.sp ** m
        S, N = S + 2 * m, N + m
    for a, p in t.symplectic:
        w *= math.factorial(p)
        wp *= math.factorial(p // 2) * 2 ** (p // 2)
        P *= a.sp ** p
        D *= a.sp ** (p // 2)
        S, N = S + p, N + p // 2
    for a, q in t.orthogonal:
        w *= math.factorial(q)
        wp *= math.factorial(q // 2) * 2 ** (q // 2)
        P *= a.sp ** q
        D *= a.sp ** ((q + 1) // 2)
        S, N, c = S + q, N + (q + 1) // 2, c + q % 2
    return P, S, D, N, c, w, wp


def test_constants_match_the_per_group_loops():
    rng = random.Random(20)
    for _ in range(500):
        t = _random_triple(rng)
        c = appendix_constants(t)
        assert (c.P, c.S, c.D, c.N, c.c, c.W, c.Wprime) == \
            _constants_by_group(t)
        assert t.weyl_orders() == (c.W, c.Wprime)


def test_triple_validation():
    sp1, sp2 = WDAtom(F(0), 1), WDAtom(F(0), 2)
    with pytest.raises(ValueError, match=re.escape(
            f"atom {sp2} is not of orthogonal type")):
        OrthTriple(orthogonal=((sp2, 1),))  # even sp not orth type
    with pytest.raises(ValueError, match=re.escape(
            f"atom {sp1} is not of symplectic type")):
        OrthTriple(symplectic=((sp1, 2),))  # odd sp not sympl type
    with pytest.raises(ValueError):
        OrthTriple(dual_pairs=((WDAtom(F(0), 1), 1),))  # self-dual in In
    with pytest.raises(ValueError, match="^orthogonal atoms must be pairwise "
                                         "distinct$"):
        OrthTriple(orthogonal=((sp1, 1), (sp1, 2)))
    with pytest.raises(ValueError, match="^symplectic atoms must be pairwise "
                                         "distinct$"):
        OrthTriple(symplectic=((sp2, 2), (sp2, 4)))
    # every multiplicity is at least 1, also beside a real atom
    for m in (0, -2):
        with pytest.raises(ValueError, match="multiplicities"):
            OrthTriple(orthogonal=((WDAtom(F(0), 1), m),))
        with pytest.raises(ValueError, match="multiplicities"):
            OrthTriple(symplectic=((WDAtom(F(0), 2), m),))
        with pytest.raises(ValueError, match="multiplicities"):
            OrthTriple(dual_pairs=((WDAtom(F(1, 3), 1), m),))
        with pytest.raises(ValueError, match="multiplicities"):
            OrthTriple(orthogonal=((WDAtom(F(0), 1), 1),
                                   (WDAtom(F(1, 2), 1), m)))
    t = OrthTriple(dual_pairs=((WDAtom(F(1, 5), 2), 1),),
                   orthogonal=((WDAtom(F(0), 3), 2),))
    assert t.d == 4 + 6
    assert OrthTriple.from_dict(t.to_dict()) == t


def test_formal_degree_rhs():
    # wedge2 of the hyperbolic pair {1, chi_(1/2)} is the quadratic character
    val = formal_degree_rhs(WDRep.of((0, 1), (F(1, 2), 1)), SPEC3)
    g = abs(WDRep.of((F(1, 2), 1)).gamma_factor(SPEC3).evaluate(0.0))
    assert abs(val - g / 2) < 1e-12
    # principal parameter Sp(3): wedge2 = Sp(3), |S| = 1
    val3 = formal_degree_rhs(WDRep.of((0, 3)), SPEC3)
    assert abs(val3 - 9 / 4) < 1e-12
    with pytest.raises(ValueError):
        formal_degree_rhs(WDRep.of((F(1, 3), 1)), SPEC3)  # not orthogonal
    with pytest.raises(ValueError):
        formal_degree_rhs(WDRep.of((F(1, 2), 1)), SPEC3)  # odd dim, det != 1


def test_formal_degree_rhs_is_the_steinberg_formal_degree_of_sp2n():
    """The principal parameter Sp(2n+1) of Sp(2n) predicts the formal degree
    of Steinberg, which needs nothing but the degrees 2, 4, ..., 2n: 1 / P(1/q)
    for vol(I) = 1, P(t) = prod (1 - t^d) / ((1 - t)(1 - t^(d-1))) the
    Poincare series of the affine Weyl group (Bott; Borel, Invent. Math. 35,
    1976), rescaled by vol(I) = q^-dimG (q - 1)^r q^N under the level-l
    measure, dimG = n(2n + 1), r = n and N = n^2."""
    for n in (1, 2, 3, 4):
        dim_g = n * (2 * n + 1)
        for p, q in ((3, 3), (2, 4), (5, 5), (3, 9), (5, 25)):
            t = F(1, q)
            poincare = math.prod((1 - t ** d) / ((1 - t) * (1 - t ** (d - 1)))
                                 for d in range(2, 2 * n + 1, 2))
            exact = F(q ** dim_g) / (poincare * (q - 1) ** n * q ** (n * n))
            for level in (0, 1):
                want = float(exact) * q ** (level * dim_g / 2)
                got = formal_degree_rhs(WDRep.of((0, 2 * n + 1)),
                                        LocalFieldSpec(p, q, level))
                assert abs(got - want) <= 1e-12 * want, (n, q, level)


def test_hii_rhs():
    assert abs(hii_rhs(WDRep.of((0, 3)), 1, 1, SPEC3) - 9 / 4) < 1e-12
    assert abs(hii_rhs(WDRep.of((0, 3)), 1, 2, SPEC3) - 9 / 2) < 1e-12
    assert abs(hii_rhs(WDRep.of((0, 3)), 2, 1, SPEC3) - 9 / 8) < 1e-12
    with pytest.raises(ValueError):
        # non-discrete: the adjoint gamma factor vanishes at 0
        hii_rhs(WDRep.of((0, 1), (0, 1)), 1, 1, SPEC3)


def test_point_serialization():
    pt = TempPoint.of((2, F(1, 3), F(1, 7)), (1, 0, 0))
    assert TempPoint.from_dict(pt.to_dict()) == pt


def _random_triple(rng):
    """A random valid triple: up to two dual pairs, two Is and three Io atoms,
    block sizes 1-4, distinct atoms."""
    while True:
        seen, parts = set(), {"dual_pairs": [], "symplectic": [],
                              "orthogonal": []}
        for _ in range(rng.randint(0, 2)):
            a = WDAtom(F(rng.randint(1, 11), 12), rng.randint(1, 4))
            if not a.is_self_dual() and not {a, a.dual()} & seen:
                seen |= {a, a.dual()}
                parts["dual_pairs"].append((a, rng.randint(1, 3)))
        for kind, sizes, mults in (("symplectic", (2, 4), (2, 4)),
                                   ("orthogonal", (1, 3), (1, 2, 3, 4))):
            for _ in range(rng.randint(0, 3 if kind == "orthogonal" else 2)):
                a = WDAtom(rng.choice([F(0), F(1, 2)]), rng.choice(sizes))
                if a not in seen:
                    seen.add(a)
                    parts[kind].append((a, rng.choice(mults)))
        if any(parts.values()):
            return OrthTriple(**parts)


def test_layout_properties():
    rng = random.Random(7)
    for _ in range(300):
        t = _random_triple(rng)
        lay = t.layout()
        c = appendix_constants(t)
        # mirror rows: each free coordinate has one +1 and one -1 row, on
        # blocks of one size whose base angles are opposite
        rows = {}
        for k, u, row in lay:
            if row is not None:
                rows.setdefault(row[0], {}).setdefault(row[1], []).append((k, u))
        nfree = len(rows)
        assert sorted(rows) == list(range(nfree))
        for pair in rows.values():
            assert sorted(pair) == [-1, 1] and len(pair[1]) == len(pair[-1]) == 1
            (k1, u1), (k2, u2) = pair[1][0], pair[-1][0]
            assert k1 == k2 and (u1 + u2) % 1 == 0
        # None rows are the middle blocks of odd-multiplicity Io atoms
        start = 2 * sum(m for _, m in t.dual_pairs)
        middles = set()
        for a, n in t.symplectic + t.orthogonal:
            assert all(e[:2] == (a.sp, a.angle) for e in lay[start:start + n])
            if a.sp % 2 == 1 and n % 2 == 1:
                middles.add(start + n // 2)
            start += n
        assert start == len(lay)
        assert {b for b, (_, _, row) in enumerate(lay) if row is None} == middles
        # against the closed-form constants
        dprime = math.prod(k for k, _, row in lay if row and row[1] == 1)
        assert len(lay) == c.S
        assert math.prod(k for k, _, _ in lay) == c.P
        assert c.D * dprime == c.P
        assert nfree + c.c == c.N
        assert t.base_point().shape() == tuple(k for k, _, _ in lay)
