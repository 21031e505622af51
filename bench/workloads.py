"""The benchmark's workloads: inputs made from a seed, and the operations.

An operation is one timed call into planch's public functions, or a short
fixed chain of them such as the criterion-10 round trip.  Its
``check`` runs after every call, outside the timing; its ``oracle`` is an
independent computation too slow to repeat, run once on the result of the
first round.  Every planch function is looked up on its module at call time,
so that the tracer's wrappers see the call.

Each workload has a fixed make-up: the seed changes angles, coefficients and
matrix entries, never the number, kind or size of the operations, so that
one round costs the same on every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable, Optional

from planch import forms, limitcheck
from planch.field import LocalFieldSpec
from planch.tempered import OrthTriple
from planch.wdrep import WDAtom, WDRep

import checks


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]
    oracle: Optional[Callable[[object], None]] = None


# -- the spectral limit --------------------------------------------------------------

SPEC3 = LocalFieldSpec(3, 3, 0)

# criterion 7, d = 3: one 2-D torus with grids up to 1457^2 nodes
D3_TRIPLE = OrthTriple(dual_pairs=((WDAtom(F(1, 5), 1), 1),),
                       orthogonal=((WDAtom(F(0), 1), 1),))

# the fields of the sweep: (p, q)
SWEEP_FIELDS = ((3, 3), (2, 4), (5, 5), (7, 7), (3, 9), (5, 25))


def _block_sizes(triple) -> list:
    return [k for k, _, _ in checks.mirrored_blocks(triple)[1]]


def rhs_by_quad(triple, spec, c: float) -> complex:
    """c times the right side of the limit identity for a 1-D mirrored
    subtorus, by adaptive quadrature of the exact regularized wedge^2 gamma
    factor assembled at each point.  The integrand has period 1; the
    interval is shifted so that no node lands on a point where a factor
    vanishes exactly."""
    from scipy.integrate import quad

    _, blocks = checks.mirrored_blocks(triple)

    def integrand(x):
        angles = checks.block_angles(blocks, [F(x)])
        rep = WDRep.from_atom_list([(u, k) for u, (k, _, _)
                                    in zip(angles, blocks)])
        return rep.wedge2().gamma_factor(spec).regularized_value()

    a = 0.1234567
    re, _ = quad(lambda x: integrand(x).real, a, a + 1.0, epsabs=0.0,
                 epsrel=1e-12, limit=200)
    # the imaginary part integrates to about zero: bound it on re's scale
    im, _ = quad(lambda x: integrand(x).imag, a, a + 1.0,
                 epsabs=1e-12 * abs(re), limit=200)
    val = complex(re, im)
    return c * checks.rhs_prefactor(triple) * val


def limit_op(triple, phi, spec, cfg, const: Optional[float] = None) -> Op:
    """``verify`` on one component.  With a constant test function c, the
    oracle checks the component mass and, for a 1-D mirrored subtorus, the
    right side against adaptive quadrature."""

    def oracle(rep):
        model = limitcheck.ComponentModel(triple, spec)
        checks.check_mass(model.measure_mass(limitcheck.ConstantPhi(1.0), cfg),
                          _block_sizes(triple))
        if checks.mirrored_blocks(triple)[0] == 1:
            checks.check_close(rep.rhs, rhs_by_quad(triple, spec, const),
                               1e-8, "right side vs adaptive quadrature")

    return Op("verify",
              lambda: limitcheck.verify(triple, phi, spec, cfg),
              lambda rep: checks.check_limit(rep, cfg.tol, cfg.extrap_order),
              oracle if const is not None else None)


def limit_d3(rng: random.Random) -> list:
    """Criterion 7's d = 3 component with a constant and a trigonometric test
    function; the seed draws the constant and the Fourier coefficients, so
    every seed does the same grid work."""
    cfg = limitcheck.QuadConfig(s0=0.2, s_count=4, n_base=128, rhs_n=256,
                                tol=1e-2)
    c = rng.uniform(0.5, 2.0)
    trig = limitcheck.TrigPhi(
        [(1, 1, complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))),
         (2, 1, complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.1, 0.1)))],
        const=1.0)
    return [limit_op(D3_TRIPLE, limitcheck.ConstantPhi(c), SPEC3, cfg, c),
            limit_op(D3_TRIPLE, trig, SPEC3, cfg)]


def _generic_angle(rng) -> F:
    """An angle of denominator 60 that is not self-dual (2u != 0)."""
    return F(rng.choice([k for k in range(1, 60) if k != 30]), 60)


def sweep_components(rng) -> list:
    """Seven small components: 1-D tori or points on both sides.  Blocks of
    size 3 and more are left to the zero-dimensional Io = Sp(3): with 1-D
    tori of such blocks, the Richardson error of this s-sequence exceeds
    the tolerance at q = 9 and 25 with psi-level 1."""
    half = lambda: F(rng.randrange(2), 2)  # noqa: E731
    return [
        OrthTriple(dual_pairs=((WDAtom(_generic_angle(rng), 1), 1),)),
        OrthTriple(dual_pairs=((WDAtom(_generic_angle(rng), 2), 1),)),
        OrthTriple(orthogonal=((WDAtom(F(0), 1), 1), (WDAtom(F(1, 2), 1), 1))),
        OrthTriple(symplectic=((WDAtom(half(), 2), 2),)),
        OrthTriple(orthogonal=((WDAtom(half(), 1), 2),)),
        OrthTriple(orthogonal=((WDAtom(half(), 1), 1),)),
        OrthTriple(orthogonal=((WDAtom(half(), 3), 1),)),
    ]


def limit_sweep(rng: random.Random) -> list:
    """84 components (7 shapes x 6 fields x psi-levels 0 and 1), each with a
    constant and a trigonometric test function."""
    cfg = limitcheck.QuadConfig(s0=0.1, s_count=6, n_base=128, rhs_n=512,
                                tol=1e-2)
    ops = []
    for p, q in SWEEP_FIELDS:
        for level in (0, 1):
            spec = LocalFieldSpec(p, q, level)
            for triple in sweep_components(rng):
                sizes = sorted(set(_block_sizes(triple)))
                c = rng.uniform(0.5, 2.0)
                trig = limitcheck.TrigPhi(
                    [(1, k, complex(rng.uniform(-0.3, 0.3),
                                    rng.uniform(-0.1, 0.1))) for k in sizes]
                    + [(2, sizes[0], complex(rng.uniform(-0.1, 0.1), 0.0))],
                    const=1.0)
                ops.append(limit_op(triple, limitcheck.ConstantPhi(c), spec,
                                    cfg, c))
                ops.append(limit_op(triple, trig, spec, cfg))
    return ops


# -- exact identities -----------------------------------------------------------------

EQ13_TRIPLES = (
    OrthTriple(dual_pairs=((WDAtom(F(1, 3), 1), 2),)),                 # In only
    OrthTriple(symplectic=((WDAtom(F(0), 2), 2),)),                    # Is only
    OrthTriple(orthogonal=((WDAtom(F(0), 1), 3),)),                    # Io, q odd
    OrthTriple(orthogonal=((WDAtom(F(1, 2), 1), 2),)),                 # Io, q even
    OrthTriple(dual_pairs=((WDAtom(F(1, 5), 1), 1),),                  # mixed
               orthogonal=((WDAtom(F(0), 3), 1),)),
    OrthTriple(dual_pairs=((WDAtom(F(1, 7), 1), 1),),                  # d = 7
               symplectic=((WDAtom(F(0), 2), 2),),
               orthogonal=((WDAtom(F(0), 1), 1),)),
    OrthTriple(dual_pairs=((WDAtom(F(1, 5), 2), 1),),                  # d = 8
               orthogonal=((WDAtom(F(0), 1), 2), (WDAtom(F(1, 2), 1), 2))),
)
# 112 eq13 + 45 functional-equation + 60 singular-exponent operations: the
# counts put the median operation inside the dense cluster of d = 7 singular
# exponents and small-triple eq13 points, not on a gap between two clusters,
# where op_p50_s would jump between them from run to run
EQ13_POINTS = 16

# criterion 8's triple and the d = 7 one; twists of denominator 31 never
# make blocks of different groups collide, so the combinatorial law holds
SINGULAR_TRIPLES = (EQ13_TRIPLES[5], D3_TRIPLE)
SINGULAR_POINTS = 30

# Sp-dimensions of the random representations of the functional-equation
# operations; the seed draws their angles and the psi-level
FE_SHAPES = ((1,), (2,), (3,), (1, 1), (1, 2), (4,), (1, 1, 1), (2, 2),
             (1, 3), (1, 1, 2), (5,), (2, 3), (1, 1, 1, 1), (6,), (3, 3))
FE_REPEATS = 3
FE_POINTS = 8


def eq13_op(triple, free, spec) -> Op:
    return Op("eq13",
              lambda: limitcheck.eq13_values(triple, free, spec),
              lambda sides: checks.check_eq13(*sides))


def fe_op(rep, spec, points) -> Op:
    def call():
        g = rep.gamma_factor(spec)
        gd = rep.dual().gamma_factor(spec)
        return [(g.evaluate(s), gd.evaluate(1 - s)) for s in points]

    return Op("functional-equation", call, checks.check_functional_equation)


def singular_op(triple, twists, spec) -> Op:
    sizes = _block_sizes(triple)
    bases = [u for _, u, _ in checks.mirrored_blocks(triple)[1]]
    own = checks.pinch_count(sizes, [u + t for u, t in zip(bases, twists)])
    return Op("singular-exponent",
              lambda: (limitcheck.singular_exponent(triple, twists),
                       limitcheck.singular_exponent_engine(triple, twists,
                                                           spec)),
              lambda res: checks.check_singular(res[0], res[1], own))


def generic_free_point(rng, triple) -> list:
    """Free subtorus coordinates of denominator 209, rejected until they
    leave every pinch locus that does not vanish identically."""
    nfree, blocks = checks.mirrored_blocks(triple)
    while True:
        free = [F(rng.randint(1, 208), 209) for _ in range(nfree)]
        if checks.is_generic(blocks, free):
            return free


def exact_identity(rng: random.Random) -> list:
    ops = []
    for triple in EQ13_TRIPLES:
        for _ in range(EQ13_POINTS):
            ops.append(eq13_op(triple, generic_free_point(rng, triple), SPEC3))
    for _ in range(FE_REPEATS):
        for shape in FE_SHAPES:
            rep = WDRep.of(*[(F(rng.randrange(12), 12), m) for m in shape])
            spec = LocalFieldSpec(3, 3, rng.randint(-2, 2))
            points = [complex(rng.uniform(-1.5, 1.5), rng.uniform(0.05, 1.5))
                      for _ in range(FE_POINTS)]
            ops.append(fe_op(rep, spec, points))
    for triple in SINGULAR_TRIPLES:
        sizes = _block_sizes(triple)
        for _ in range(SINGULAR_POINTS):
            tw = [F(rng.randint(0, 30), 31) for _ in sizes]
            # sum-zero constraint; the last block has size 1
            tw[-1] = -sum(k * t for k, t in zip(sizes[:-1], tw[:-1]))
            ops.append(singular_op(triple, tw, SPEC3))
    return ops


# -- forms and the odd orthogonal embedding ----------------------------------------

SO_DIMS = (2, 3, 4)
SO_IN_G_PRIME = 14   # elements of G' per d
SO_OUTSIDE = 2       # elements with degenerate B_g per d
TWIST_DIMS = (1, 2, 3)
TWIST_PER_DIM = 12


def so_op(d, ell, s) -> Op:
    def call():
        emb = forms.build_odd_so(d)
        g = emb.n_bar_element(ell, forms.mat(s))
        bg = forms.b_of_g(emb, g)
        inside = forms.in_g_prime(emb, g)
        return g, bg, inside, forms.bruhat_factor(emb, g) if inside else None

    def check(res):
        g, bg, inside, factors = res
        checks.check_so_element(d, ell, s, g, bg.gram, inside, factors)

    return Op("so-round-trip", call, check)


def twist_op(b, m) -> Op:
    def call():
        bc = forms.twisted_conjugate(b, m)
        return (bc, (forms.classify_sharp(b, 3), forms.classify_sharp(bc, 3)),
                (forms.char_poly_twisted(b), forms.char_poly_twisted(bc)))

    def check(res):
        bc, labels, polys = res
        checks.check_twist(b.gram, m, bc.gram, labels, polys)

    return Op("twisted-conjugation", call, check)


def _nbar_data(rng, d, degenerate: bool):
    """(ell, S) with S + S^T = -ell ell^T; a zero first row and column of S
    (ell_0 = 0 and T's first row and column zero) make B_g degenerate."""
    while True:
        ell = [F(rng.randint(-4, 4)) for _ in range(d)]
        t = [[F(rng.randint(-4, 4)) for _ in range(d)] for _ in range(d)]
        if degenerate:
            ell[0] = F(0)
            for i in range(d):
                t[0][i] = t[i][0] = F(0)
        s = [[t[i][j] - t[j][i] - ell[i] * ell[j] / 2 for j in range(d)]
             for i in range(d)]
        if degenerate or checks.det(s) != 0:
            return ell, s


def _invertible(rng, d, lo, hi):
    while True:
        m = [[F(rng.randint(lo, hi)) for _ in range(d)] for _ in range(d)]
        if checks.det(m) != 0:
            return m


def forms_exact(rng: random.Random) -> list:
    ops = []
    for d in SO_DIMS:
        for i in range(SO_IN_G_PRIME + SO_OUTSIDE):
            ops.append(so_op(d, *_nbar_data(rng, d, i >= SO_IN_G_PRIME)))
    for d in TWIST_DIMS:
        for _ in range(TWIST_PER_DIM):
            b = forms.BilForm(forms.mat(_invertible(rng, d, -4, 4)))
            m = forms.mat(_invertible(rng, d, -3, 3))
            ops.append(twist_op(b, m))
    return ops


WORKLOADS = {
    "limit-d3": limit_d3,
    "limit-sweep": limit_sweep,
    "exact-identity": exact_identity,
    "forms-exact": forms_exact,
}


def build(name: str, seed: int) -> list:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
