import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import planch.forms as forms
from planch.field import square_class
from planch.forms import (BilForm, DegenerateFormError, NotRegularError,
                          OrbitLabel, _kernel_basis, _theta_matrix,
                          build_odd_so, in_g_prime,
                          char_poly_twisted, charpoly, classify_sharp,
                          correspond_char_poly, det, disc_twisted,
                          gamma_t_representative, identity, inverse, mat,
                          mat_mul, poly_mul, rank, solve, transpose,
                          twisted_conjugate, twisted_fixed_space,
                          weyl_discriminant_twisted)

from oracles import closure_family_member

WORKED = BilForm(mat([[-1, 1], [-1, 0]]))


def _squarefree_by_euclid(p: tuple) -> bool:
    """gcd(p, p') is constant, by Euclid's algorithm: the reference for the
    resultant test of ``poly_is_squarefree``."""
    def poly_mod(a, b):
        a = list(a)
        while len(b) > 1 and b[-1] == 0:
            b = b[:-1]
        while len(a) >= len(b) and any(c != 0 for c in a):
            while len(a) > 1 and a[-1] == 0:
                a = a[:-1]
            if len(a) < len(b):
                break
            f = a[-1] / b[-1]
            k = len(a) - len(b)
            for i, c in enumerate(b):
                a[k + i] -= f * c
            a = a[:-1]
        return a

    a, b = list(p), [i * c for i, c in enumerate(p)][1:]
    while any(c != 0 for c in b):
        a, b = b, poly_mod(a, b)
    return len([c for c in a if c != 0]) <= 1 and a[0] != 0 if a else False


def random_gln(rng, d, lo=-3, hi=3):
    while True:
        m = mat([[F(rng.randint(lo, hi)) for _ in range(d)] for _ in range(d)])
        if det(m) != 0:
            return m


def random_form(rng, d, lo=-4, hi=4):
    while True:
        b = BilForm(mat([[F(rng.randint(lo, hi)) for _ in range(d)]
                         for _ in range(d)]))
        if b.is_nondegenerate():
            return b


def test_split_sym_alt():
    s, a = WORKED.sym_part(), WORKED.alt_part()
    assert s == mat([[-2, 0], [0, 0]])
    assert a == mat([[0, 2], [-2, 0]])
    sym = BilForm(mat([[1, 2], [2, 5]]))
    s, a = sym.sym_part(), sym.alt_part()
    assert s == mat([[2, 4], [4, 10]]) and all(x == 0 for r in a for x in r)
    alt = BilForm(mat([[0, 3], [-3, 0]]))
    s, a = alt.sym_part(), alt.alt_part()
    assert all(x == 0 for r in s for x in r) and a == mat([[0, 6], [-6, 0]])
    # 2 Gamma = Gamma_s + Gamma_a exactly
    rng = random.Random(0)
    for _ in range(50):
        b = random_form(rng, 3)
        s, a = b.sym_part(), b.alt_part()
        two = [[2 * x for x in row] for row in b.gram]
        assert mat(two) == mat([[s[i][j] + a[i][j] for j in range(3)]
                                for i in range(3)])


def test_classify_examples():
    assert classify_sharp(WORKED, 3) == OrbitLabel("gamma_t", square_class(1, 3))
    # the symmetric part diag(0, 3, 0): its one nonzero entry is in the middle
    middle = BilForm(mat([[0, 0, 1], [0, F(3, 2), 0], [-1, 0, 0]]))
    assert classify_sharp(middle, 3) == OrbitLabel("gamma_t", square_class(3, 3))
    assert classify_sharp(BilForm(mat([[0, 1], [-1, 0]])), 3).kind == "gamma_0"
    assert classify_sharp(BilForm(identity(2)), 3).kind == "outside_sharp"
    with pytest.raises(DegenerateFormError):
        classify_sharp(BilForm(mat([[1, 0], [0, 0]])), 3)


def test_gamma_t_representative_roundtrip():
    for p in (3, 5, 2):
        reps = (1, 2, 3, 6) if p != 2 else (1, 3, 5, 7, 2, 6, 10, 14)
        for d in (1, 2, 3, 4):
            for r in reps:
                t = square_class(r, p)
                b = gamma_t_representative(t, d)
                assert b.is_nondegenerate()
                lab = classify_sharp(b, p)
                assert lab == OrbitLabel("gamma_t", t), (p, d, r, lab)
                # alternating part has maximal rank, symmetric part rank one
                assert rank(b.alt_part()) == (d if d % 2 == 0 else d - 1)
                assert rank(b.sym_part()) == 1


def test_classify_ad_invariance():
    rng = random.Random(1)
    for _ in range(200):
        d = rng.randint(1, 3)
        b = random_form(rng, d)
        m = random_gln(rng, d)
        bc = twisted_conjugate(b, m)
        assert classify_sharp(bc, 3) == classify_sharp(b, 3)
        assert char_poly_twisted(bc) == char_poly_twisted(b)
        assert disc_twisted(bc, 3) == disc_twisted(b, 3)


@st.composite
def _form_and_conjugator(draw):
    """A nondegenerate form of dim 1 to 3 and an invertible m.  The form is
    a random one (nearly always outside_sharp), a gamma_t representative,
    or an alternating one of dim 2 (gamma_0), so that every orbit label
    occurs; entries are small fractions."""
    kind = draw(st.sampled_from(("random", "gamma_t", "gamma_0")))
    d = 2 if kind == "gamma_0" else draw(st.integers(1, 3))
    entry = st.fractions(-4, 4, max_denominator=3)

    def square():
        return mat(draw(st.lists(st.lists(entry, min_size=d, max_size=d),
                                 min_size=d, max_size=d)))

    if kind == "gamma_t":
        b = gamma_t_representative(square_class(
            draw(st.sampled_from((1, 2, 3, 5, 6, 7, 10))), 3), d)
    elif kind == "gamma_0":
        x = draw(entry.filter(bool))
        b = BilForm(mat([[0, x], [-x, 0]]))
    else:
        b = BilForm(square())
    assume(b.is_nondegenerate())
    m = square()
    assume(det(m) != 0)
    return b, m


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_form_and_conjugator())
def test_classify_and_char_poly_are_twisted_conjugation_invariant(case):
    """classify_sharp at p = 2, 3 and 5 and char_poly_twisted do not change
    under the twisted conjugation gram -> m^-T gram m^-1."""
    b, m = case
    bc = twisted_conjugate(b, m)
    for p in (2, 3, 5):
        assert classify_sharp(bc, p) == classify_sharp(b, p)
    assert char_poly_twisted(bc) == char_poly_twisted(b)


def test_classify_scaling_covariance():
    rng = random.Random(2)
    for _ in range(100):
        d = rng.randint(1, 4)
        t = square_class(rng.choice([1, 2, 3, 6]), 3)
        b = gamma_t_representative(t, d)
        a = F(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
        lab = classify_sharp(BilForm(mat([[a * x for x in row]
                                          for row in b.gram])), 3)
        assert lab == OrbitLabel("gamma_t", square_class(a, 3) * t)


def test_disc():
    assert disc_twisted(WORKED, 3) == square_class(1, 3)
    assert disc_twisted(BilForm(mat([[0, 1], [-1, 0]])), 3) == square_class(1, 3)


def test_char_poly_twisted():
    # alternating: (T+1)^d; symmetric: (T-1)^d
    assert char_poly_twisted(BilForm(mat([[0, 1], [-1, 0]]))) == (1, 2, 1)
    assert char_poly_twisted(BilForm(identity(3))) == (-1, 3, -3, 1)
    cp = char_poly_twisted(WORKED)
    assert cp == (1, 2, 1)
    # the constant coefficient is det(g^{-T} g) = +-1 always
    rng = random.Random(3)
    for _ in range(60):
        b = random_form(rng, rng.randint(1, 4))
        cp = char_poly_twisted(b)
        assert abs(cp[0]) == 1


def test_correspond_char_poly():
    # central element in the symplectic flavor
    two_n = 4
    chi = charpoly(mat([[-1 if i == j else 0 for j in range(two_n)]
                        for i in range(two_n)]))
    assert chi == (1, 4, 6, 4, 1)  # (T+1)^4
    got = correspond_char_poly(chi, "symplectic-odd")
    assert got == poly_mul((1, 4, 6, 4, 1), (-1, 1))
    # identity in the orthogonal flavor: (T-1)^{2n} -> (T+1)^{2n}
    chi_id = charpoly(identity(two_n))
    assert correspond_char_poly(chi_id, "orthogonal-even") == (1, 4, 6, 4, 1)
    # degree bookkeeping
    assert len(correspond_char_poly(chi, "symplectic-odd")) == two_n + 2
    assert len(correspond_char_poly(chi, "orthogonal-even")) == two_n + 1
    with pytest.raises(ValueError):
        correspond_char_poly((2, 0, 2), "orthogonal-even")  # not monic


def test_gamma_t_lands_in_central_fiber():
    """Even-dimensional rank-one-plus-alternating forms have twisted
    characteristic polynomial (T+1)^{2n}, the fiber over the central
    element."""
    rng = random.Random(4)
    for d in (2, 4):
        for r in (1, 2, 3, 6):
            b = gamma_t_representative(square_class(r, 3), d)
            m = random_gln(rng, d)
            cp = char_poly_twisted(twisted_conjugate(b, m))
            binom = charpoly(mat([[-1 if i == j else 0 for j in range(d)]
                                  for i in range(d)]))
            assert cp == binom  # (T+1)^d


def test_closure_family():
    t = square_class(-1, 3)
    for lam in (1, F(1, 2), F(1, 5), F(1, 17)):
        member = closure_family_member(t, 2, lam)
        assert classify_sharp(member, 3) == OrbitLabel("gamma_t", t)
    limit = closure_family_member(t, 2, 0)
    assert classify_sharp(limit, 3).kind == "gamma_0"
    # entrywise convergence: the lambda^2-scaled entry is the only moving one
    m1 = closure_family_member(t, 2, F(1, 100))
    assert abs(m1.gram[0][0] - limit.gram[0][0]) < F(1, 1000)
    assert m1.gram[0][1] == limit.gram[0][1]


def test_weyl_discriminant():
    # d = 1: |det(1 - Ad)| = |2|_p
    assert weyl_discriminant_twisted(BilForm(mat([[5]])), 3, 3) == 1.0
    assert weyl_discriminant_twisted(BilForm(mat([[1]])), 2, 2) == 0.5
    rng = random.Random(5)
    count = 0
    while count < 40:
        b = random_form(rng, 2)
        try:
            w = weyl_discriminant_twisted(b, 3, 3)
        except NotRegularError:
            continue
        m = random_gln(rng, 2)
        w2 = weyl_discriminant_twisted(twisted_conjugate(b, m), 3, 3)
        assert abs(w - w2) < 1e-12
        count += 1
    # eigenvalue collision: the identity form has twisted action 1 twice
    with pytest.raises(NotRegularError):
        weyl_discriminant_twisted(BilForm(identity(2)), 3, 3)
    # alternating forms collide at -1
    with pytest.raises(NotRegularError):
        weyl_discriminant_twisted(BilForm(mat([[0, 1], [-1, 0]])), 3, 3)


def test_fixed_space_dim():
    rng = random.Random(6)
    for d in (1, 2, 3, 4):
        b = random_form(rng, d, lo=-9, hi=9)
        assert len(twisted_fixed_space(b)) >= d // 2


def random_rational(rng):
    if rng.random() < 0.3:
        return F(0)
    return F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6, 7, 12, 35]))


def fraction_rref(a):
    """Plain Fraction Gauss-Jordan: (pivot columns, det); det is 0 unless a
    is square of full rank."""
    rows = [list(r) for r in a]
    n, m = len(rows), len(rows[0])
    dv, pivots = F(1), []
    for col in range(m):
        r = len(pivots)
        piv = next((i for i in range(r, n) if rows[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            dv = -dv
        dv *= rows[r][col]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return pivots, (dv if len(pivots) == n == m else F(0))


def random_deficient(rng, n, m):
    """An n x m rational matrix whose rows repeat or combine earlier rows
    often enough that its rank is below min(n, m) in many draws."""
    rows = []
    for i in range(n):
        if i and rng.random() < 0.35:
            c1, c2 = random_rational(rng), random_rational(rng)
            r1, r2 = rng.choice(rows), rng.choice(rows)
            rows.append([c1 * x + c2 * y for x, y in zip(r1, r2)])
        else:
            rows.append([random_rational(rng) for _ in range(m)])
    return mat(rows)


def test_integer_kernels_match_fraction_reference():
    """mat_mul and the one fraction-free reduction behind det, rank, solve,
    inverse and the kernel basis work in integers; they must agree exactly
    with plain Fraction arithmetic."""
    rng = random.Random(11)
    swaps = singular = deficient = 0
    for trial in range(400):
        n, k, m = (rng.randint(1, 7) for _ in range(3))
        a = mat([[random_rational(rng) for _ in range(k)] for _ in range(n)])
        b = mat([[random_rational(rng) for _ in range(m)] for _ in range(k)])
        want = tuple(tuple(sum(x * y for x, y in zip(row, col))
                           for col in transpose(b)) for row in a)
        got = mat_mul(a, b)
        assert got == want
        assert all(type(x) is F for row in got for x in row)

        sq = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
        if trial % 5 == 0 and n > 1:  # a repeated row: singular
            sq[rng.randrange(1, n)] = list(sq[0])
        if trial % 7 == 0 and n > 1:  # zero leading pivot: needs a row swap
            sq[0][0] = F(0)
        sq = mat(sq)
        dv = det(sq)
        assert type(dv) is F and dv == fraction_rref(sq)[1]
        rhs = mat([[random_rational(rng) for _ in range(m)] for _ in range(n)])
        if dv == 0:
            for call in (lambda: solve(sq, rhs), lambda: inverse(sq)):
                with pytest.raises(DegenerateFormError):
                    call()
        else:
            assert mat_mul(sq, solve(sq, rhs)) == rhs
            assert mat_mul(sq, inverse(sq)) == identity(n)
        singular += dv == 0
        swaps += sq[0][0] == 0 and dv != 0

        rect = random_deficient(rng, n, m)
        pivots = fraction_rref(rect)[0]
        assert rank(rect) == len(pivots)
        deficient += len(pivots) < min(n, m)
        basis = _kernel_basis(rect)
        assert len(basis) == m - len(pivots)
        for v in basis:
            assert all(type(x) is F for x in v)
            assert mat_mul(rect, mat([[x] for x in v])) == ((F(0),),) * n
        if basis:  # independent
            assert len(fraction_rref(mat(basis))[0]) == len(basis)
    assert singular >= 50 and swaps >= 20 and deficient >= 50
    with pytest.raises(ValueError):
        det(mat([[1, 2, 3], [4, 5, 6]]))


def test_theta_matrix_matches_elementary_construction():
    """The closed form of theta on gl_d against theta(E_ij) built from the
    elementary matrices with mat_mul, column by column."""
    rng = random.Random(12)
    for d in (1, 2, 3, 4):
        for _ in range(5):
            gram = random_form(rng, d).gram
            gi = inverse(gram)
            cols = []
            for i in range(d):
                for j in range(d):
                    e = mat([[int((a, b) == (j, i)) for b in range(d)]
                             for a in range(d)])  # E_ij transposed
                    th = [[-x for x in row]
                          for row in mat_mul(gi, mat_mul(e, gram))]
                    cols.append([x for row in th for x in row])
            assert _theta_matrix(gram) == transpose(cols)


def test_reductions_per_call(monkeypatch):
    """``bruhat_factor`` of a built element reduces its d x d block E once,
    as [E | 1], and
    ``weyl_discriminant_twisted`` never reduces the bare d x d Gram matrix;
    both still raise DegenerateFormError on singular input."""
    shapes = []
    original = forms._reduce

    def spy(a):
        shapes.append((len(a), len(a[0])))
        return original(a)

    rng = random.Random(31)
    for d in (2, 3):
        emb = build_odd_so(d)
        while True:
            ell = [F(rng.randint(-3, 3)) for _ in range(d)]
            t = [[F(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)]
            g = emb.n_bar_element(ell, mat(
                [[t[i][j] - t[j][i] - ell[i] * ell[j] / 2 for j in range(d)]
                 for i in range(d)]))
            if in_g_prime(emb, g):
                break
        while True:
            b = random_form(rng, d)
            try:
                weyl_discriminant_twisted(b, 3, 3)
                break
            except NotRegularError:
                continue
        with monkeypatch.context() as m:
            m.setattr(forms, "_reduce", spy)
            shapes.clear()
            forms.bruhat_factor(emb, g)
            assert shapes == [(d, 2 * d)]
            shapes.clear()
            weyl_discriminant_twisted(b, 3, 3)
            assert shapes and (d, d) not in shapes
        with pytest.raises(DegenerateFormError):
            forms.bruhat_factor(emb, identity(2 * d + 1))
        singular = BilForm(mat([[int(i == j < d - 1) for j in range(d)]
                                for i in range(d)]))
        for call in (weyl_discriminant_twisted, lambda f, p, q:
                     char_poly_twisted(f)):
            with pytest.raises(DegenerateFormError):
                call(singular, 3, 3)


def test_squarefree_by_resultant_matches_euclid():
    """Products of linear factors and of x^2 + a, with and without a
    repeated factor: the resultant test agrees with Euclid and with the
    factors."""
    rng = random.Random(21)
    repeated = 0
    for _ in range(1000):
        factors = [(F(-rng.randint(-3, 3), rng.randint(1, 2)), F(1))
                   for _ in range(rng.randint(1, 5))]
        factors += [(F(rng.randint(1, 2)), F(0), F(1))
                    for _ in range(rng.randint(0, 2))]
        p = (F(rng.choice([-2, -1, 1, 3])),)
        for f in factors:
            p = poly_mul(p, f)
        distinct = len(set(factors)) == len(factors)
        repeated += not distinct
        assert forms.poly_is_squarefree(p) == _squarefree_by_euclid(p) \
            == distinct, factors
    assert repeated > 200


def test_non_square_input_is_refused():
    """solve, inverse and charpoly refuse a non-square or ragged matrix
    with ValueError, as det does, and solve a right side of the wrong
    number of rows, rather than reading the overlap."""
    rect = mat([[1, 0, 5], [0, 1, 7]])
    ragged = ((F(1), F(2)), (F(3),))
    for a in (rect, ragged, transpose(rect)):
        for call in (det, inverse, charpoly,
                     lambda a: solve(a, mat([[1]] * len(a)))):
            with pytest.raises(ValueError, match="non-square"):
                call(a)
    with pytest.raises(ValueError, match="right side"):
        solve(identity(2), mat([[1], [2], [3]]))
