import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from planch.forms import (BilForm, NotInGroupError, b_of_g, bruhat_factor,
                          build_odd_so, det, identity, in_g_prime, inverse,
                          m_tilde_of, mat, mat_eq, mat_mul, transpose)


def random_nbar(emb, rng, lo=-4, hi=4):
    d = emb.d
    ell = [F(rng.randint(lo, hi)) for _ in range(d)]
    t = [[F(rng.randint(lo, hi)) for _ in range(d)] for _ in range(d)]
    s = [[t[i][j] - t[j][i] - F(ell[i] * ell[j], 2) for j in range(d)]
         for i in range(d)]
    return emb.n_bar_element(ell, mat(s)), ell, mat(s)


def mtilde_element(emb, e):
    """The twisted-Levi element with lower-left block E."""
    d, n = emb.d, emb.dim
    c = inverse(transpose(e))
    g = [[F(0)] * n for _ in range(n)]
    for i in range(d):
        for j in range(d):
            g[i][d + 1 + j] = c[i][j]
            g[d + 1 + i][j] = e[i][j]
    g[d][d] = F(1)
    gm = mat(g)
    if not emb.is_in_group(gm)[0]:
        g[d][d] = F(-1)
        gm = mat(g)
    return emb.element(gm)


def test_quadratic_space():
    for d in (1, 2, 3):
        emb = build_odd_so(d)
        j = emb.gram()
        assert len(j) == 2 * d + 1
        assert mat_eq(j, transpose(j))
        assert det(j) != 0


def test_levi_membership():
    emb = build_odd_so(2)
    a = mat([[1, 2], [0, 3]])
    g = emb.levi_element(a)
    assert emb.is_in_group(g)[0]
    assert not in_g_prime(emb, g)  # Levi elements preserve V
    with pytest.raises(ValueError):  # its blocks would not be inverse
        emb.levi_element(mat([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))


def test_group_membership_errors():
    emb = build_odd_so(2)
    bad = [[F(1 if i == j else 0) for j in range(5)] for i in range(5)]
    bad[0][0] = F(2)
    with pytest.raises(NotInGroupError):
        emb.element(mat(bad))
    with pytest.raises(NotInGroupError):
        emb.n_bar_element([1, 0], mat([[0, 0], [0, 0]]))  # S+S^T != -ll^T


def test_unipotent_elements_refuse_wrong_shapes():
    """A column of other than d entries or a block other than d x d raises
    ValueError, in n_element and through n_bar_element, before the form
    check could read only their overlap and return the identity."""
    emb = build_odd_so(2)
    zero = [[0, 0], [0, 0]]
    for w, u in (([0, 0, 7], [[0, 0, 0], [0, 0, 0], [0, 0, 9]]),
                 ([0], zero), ([0, 0], [[0, 0]]), ([0, 0], [[0, 0], [0]]),
                 ([0, 0], [[0, 0, 1], [0, 0, 1]]),
                 ([0, 0], [[0, 0], [0, 0, 1]])):
        with pytest.raises(ValueError, match="2 entries"):
            emb.n_element(w, u)
        with pytest.raises(ValueError, match="2 entries"):
            emb.n_bar_element(w, u)
    assert mat_eq(emb.n_element([0, 0], zero), identity(5))
    assert mat_eq(emb.n_bar_element([0, 0], zero), identity(5))


def test_mtilde_form_is_b_g():
    """On the twisted Levi component, g -> B_g is the identification with
    nondegenerate forms."""
    rng = random.Random(0)
    for d in (1, 2, 3):
        emb = build_odd_so(d)
        for _ in range(10):
            while True:
                e = mat([[F(rng.randint(-3, 3)) for _ in range(d)]
                         for _ in range(d)])
                if det(e) != 0:
                    break
            g = mtilde_element(emb, e)
            bg = b_of_g(emb, g)
            assert bg.is_nondegenerate()
            assert in_g_prime(emb, g)
            # Bruhat factorization of a twisted-Levi element is trivial
            u1, mt, u2 = bruhat_factor(emb, g)
            assert mat_eq(mt, g)


def test_identity_not_in_open_cell():
    for d in (1, 2, 3):
        emb = build_odd_so(d)
        assert not in_g_prime(emb, identity(2 * d + 1))


def test_rank_one_property_and_roundtrip():
    rng = random.Random(1)
    for d in (2, 3):
        emb = build_odd_so(d)
        for _ in range(100):
            g, ell, s = random_nbar(emb, rng)
            bg = b_of_g(emb, g)
            # symmetric part is exactly -(ell tensor ell)
            need = mat([[-ell[i] * ell[j] for j in range(d)]
                        for i in range(d)])
            assert mat_eq(bg.sym_part(), need)
            mt_form = m_tilde_of(emb, g)
            if mt_form is None:
                assert not in_g_prime(emb, g)
                continue
            assert mat_eq(mt_form.gram, bg.gram)
            u1, mt, u2 = bruhat_factor(emb, g)
            assert mat_eq(mat_mul(u1, mat_mul(mt, u2)), g)


@st.composite
def _nbar_in_g_prime(draw):
    """A random element of the lower unipotent radical for d = 2 or 3, with
    linear form ell and S = T - T^T - ell ell^T / 2 from small fractions,
    that lies in G' (B_g nondegenerate)."""
    d = draw(st.sampled_from((2, 3)))
    entry = st.fractions(-4, 4, max_denominator=3)
    ell = draw(st.lists(entry, min_size=d, max_size=d))
    t = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d,
                      max_size=d))
    s = mat([[t[i][j] - t[j][i] - ell[i] * ell[j] / 2 for j in range(d)]
             for i in range(d)])
    emb = build_odd_so(d)
    g = emb.n_bar_element(ell, s)
    assume(in_g_prime(emb, g))
    return emb, g


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_nbar_in_g_prime())
def test_bruhat_round_trip_property(case):
    """For random nbar in G', bruhat_factor gives u1 mtilde u2 == g, with
    u1 and u2 upper unipotent (each is n_element of its own column and
    block) and mtilde in the twisted Levi component, whose form is B_g."""
    emb, g = case
    d = emb.d
    u1, mt, u2 = bruhat_factor(emb, g)
    assert mat_eq(mat_mul(u1, mat_mul(mt, u2)), g)
    for u in (u1, u2):
        w = [u[i][d] for i in range(d)]
        block = [[u[i][d + 1 + j] for j in range(d)] for i in range(d)]
        assert mat_eq(u, emb.n_element(w, block))
    levi = {(i, j) for i in range(d) for j in range(d + 1, 2 * d + 1)}
    levi |= {(j, i) for i, j in levi} | {(d, d)}
    assert all(mt[i][j] == 0 for i in range(2 * d + 1)
               for j in range(2 * d + 1) if (i, j) not in levi)
    assert mat_eq(b_of_g(emb, mt).gram, b_of_g(emb, g).gram)


def test_degenerate_ubar():
    emb = build_odd_so(2)
    g = emb.n_bar_element([0, 0], mat([[0, 1], [-1, 0]]))
    assert in_g_prime(emb, g)  # alternating S of full rank
    g0 = emb.n_bar_element([0, 0], mat([[0, 0], [0, 0]]))
    assert m_tilde_of(emb, g0) is None


def test_sym_part_class_is_minus_square():
    """The symmetric part of a form from the unipotent radical has rank at
    most one, and its nonzero value is -1 times a square."""
    from planch.field import square_class
    from planch.forms import rank
    rng = random.Random(2)
    for d in (2, 3):
        emb = build_odd_so(d)
        for _ in range(50):
            g, ell, _ = random_nbar(emb, rng)
            bg = b_of_g(emb, g)
            assert rank(bg.sym_part()) <= 1
            sym = bg.sym_part()
            diag = [sym[i][i] for i in range(d) if sym[i][i] != 0]
            if not diag:
                continue
            for p in (3, 5, 2):
                assert square_class(-diag[0], p).is_trivial()


def test_membership_checked_once_per_public_entry(monkeypatch):
    """n_bar_element -> b_of_g -> in_g_prime -> bruhat_factor -> m_tilde_of
    checks group membership no time at all: every element there was built
    in the group.  A plain matrix costs one check per public entry, an
    ``SOElement`` of another d is checked and refused, and each entry
    still refuses a non-member."""
    from planch.forms import OddSOEmbedding, SOElement

    calls = []
    original = OddSOEmbedding.is_in_group

    def spy(self, g):
        calls.append(g)
        return original(self, g)

    monkeypatch.setattr(OddSOEmbedding, "is_in_group", spy)
    entries = (b_of_g, in_g_prime, bruhat_factor, m_tilde_of)
    rng = random.Random(11)
    inside = 0
    for d in (2, 3):
        emb = build_odd_so(d)
        for _ in range(20):
            calls.clear()
            g, _, _ = random_nbar(emb, rng)
            assert isinstance(g, SOElement)
            b_of_g(emb, g)
            if in_g_prime(emb, g):
                u1, mt, u2 = bruhat_factor(emb, g)
                assert all(isinstance(x, SOElement) for x in (u1, mt, u2))
                inside += 1
            m_tilde_of(emb, g)
            assert calls == []
            plain = tuple(g)
            for entry in entries:
                if entry is bruhat_factor and not in_g_prime(emb, g):
                    continue
                calls.clear()
                entry(emb, plain)
                assert len(calls) == 1, entry.__name__
    assert inside > 10
    emb = build_odd_so(2)
    other = build_odd_so(3).n_bar_element([1, 0, 0], mat(
        [[F(-1, 2), 0, 0], [0, 0, 0], [0, 0, 0]]))
    calls.clear()
    with pytest.raises(NotInGroupError):
        emb.element(other)
    assert len(calls) == 1
    scaled = [[F(1 if i == j else 0) for j in range(5)] for i in range(5)]
    scaled[0][0] = F(2)
    minus = [[F(-1 if i == j else 0) for j in range(5)] for i in range(5)]
    # g^T Q g != Q; det(g) = -1; the wrong size, which mat_mul and mat_eq,
    # zipping rows and columns, would not see
    for bad in (mat(scaled), mat(minus), identity(3), other):
        for entry in entries:
            with pytest.raises(NotInGroupError):
                entry(emb, bad)


def test_built_elements_are_in_the_group():
    """What the embedding returns as an ``SOElement`` without a check is in
    the group: random outputs of n_element, n_bar_element, levi_element and
    the mtilde of bruhat_factor pass ``is_in_group``."""
    from planch.forms import SOElement

    rng = random.Random(12)
    seen = 0
    for d in (1, 2, 3, 4):
        emb = build_odd_so(d)
        for _ in range(15):
            w = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)]
            t = [[F(rng.randint(-4, 4)) for _ in range(d)] for _ in range(d)]
            u = mat([[t[i][j] - t[j][i] - w[i] * w[j] / 2 for j in range(d)]
                     for i in range(d)])
            while True:
                a = mat([[F(rng.randint(-3, 3)) for _ in range(d)]
                         for _ in range(d)])
                if det(a) != 0:
                    break
            g, _, _ = random_nbar(emb, rng)
            nbar = emb.n_bar_element(w, u)
            # row d holds w and the V -> V* block is U itself
            assert list(nbar[d][:d]) == w
            assert tuple(tuple(row[:d]) for row in nbar[d + 1:]) == u
            built = [emb.n_element(w, u), nbar, emb.levi_element(a), g]
            if in_g_prime(emb, g):
                built.append(bruhat_factor(emb, g)[1])
                seen += 1
            for x in built:
                assert isinstance(x, SOElement)
                assert emb.is_in_group(x) == (True, "")
    assert seen > 20


def test_bruhat_reconstruction_failure_raises(monkeypatch):
    """The exact reconstruction check of bruhat_factor is a real check: with
    unipotent factors that are wrong, it raises ArithmeticError."""
    from planch.forms import OddSOEmbedding

    emb = build_odd_so(2)
    g = emb.n_bar_element([1, 2], mat([[F(-1, 2), 0], [-2, -2]]))
    bruhat_factor(emb, g)
    monkeypatch.setattr(OddSOEmbedding, "n_element",
                        lambda self, w, u: identity(self.dim))
    with pytest.raises(ArithmeticError):
        bruhat_factor(emb, g)


def _fmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b)]
            for row in a]


def _faddeev_leverrier(a):
    """det(T - a) from the constant term up, on Fractions at every step."""
    n = len(a)
    coeffs, m = [F(1)], [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        m = _fmul(a, m)
        c = -sum(m[i][i] for i in range(n)) / k
        coeffs.append(c)
        m = [[x + c * (i == j) for j, x in enumerate(row)]
             for i, row in enumerate(m)]
    return tuple(coeffs[::-1])


def test_integer_path_matches_a_fraction_reference():
    """charpoly, b_of_g, is_in_group, n_element and bruhat_factor, which
    run on integer rows over one denominator, against plain Fraction
    arithmetic for d = 1..4, on integer data and on data with
    denominators > 1."""
    from planch.forms import charpoly

    rng = random.Random(24)
    refused = outside = 0
    for d in (1, 2, 3, 4):
        emb, n = build_odd_so(d), 2 * d + 1
        q = [[F(int(abs(i - j) == d + 1 or i == j == d)) for j in range(n)]
             for i in range(n)]
        assert emb.gram() == mat(q)
        for dens in ((1,), (1, 2, 3, 10)):
            for _ in range(8):
                def r(lo=-4, hi=4):
                    return F(rng.randint(lo, hi), rng.choice(dens))
                a = [[r() for _ in range(n)] for _ in range(n)]
                assert charpoly(mat(a)) == _faddeev_leverrier(a)
                w = [r() for _ in range(d)]
                t = [[r() for _ in range(d)] for _ in range(d)]
                u = [[t[i][j] - t[j][i] - w[i] * w[j] / 2 for j in range(d)]
                     for i in range(d)]
                want = [[F(int(i == j)) for j in range(n)] for i in range(n)]
                for i in range(d):
                    want[i][d], want[d][d + 1 + i] = w[i], -w[i]
                    want[i][d + 1:] = u[i]
                nu = emb.n_element(w, mat(u))
                assert [list(row) for row in nu] == want
                bad = [row[:] for row in u]
                bad[0][-1] += F(1, dens[-1])
                with pytest.raises(NotInGroupError):
                    emb.n_element(w, mat(bad))
                refused += 1
                g = emb.n_bar_element(w, mat(u))
                for x in (g, nu):
                    tq = _fmul(transpose(x), q)
                    assert b_of_g(emb, x).gram == mat([row[:d]
                                                       for row in tq[:d]])
                flip = [[F(0)] * n for _ in range(n)]
                for i in range(n):
                    flip[i][i] = F(-1 if i == d else 1)
                off = [list(row) for row in g]
                off[d + 1][0] += 1
                for x in (g, mat(_fmul(g, flip)), mat(off), mat(a)):
                    member = _fmul(transpose(x), _fmul(q, x)) == q \
                        and det(x) == 1
                    assert emb.is_in_group(x)[0] == member
                    outside += not member
                if not in_g_prime(emb, g):
                    continue
                u1, mt, u2 = bruhat_factor(emb, g)
                assert _fmul(u1, _fmul(mt, u2)) == [list(row) for row in g]
                for x in (u1, mt, u2):
                    assert all(type(v) is F for row in x for v in row)
                for x in (u1, u2):  # upper unipotent
                    assert all(x[i][j] == (i == j) for i in range(n)
                               for j in range(i + 1))
                    assert all(x[i][j] == 0 for i in range(d + 1, n)
                               for j in range(n) if i != j)
                # twisted Levi: blocks V* -> V, L -> L and V -> V* alone
                assert all(mt[i][j] == 0 for i in range(n) for j in range(n)
                           if not (i < d < j or j < d < i or i == j == d))
    assert refused == 64 and outside >= 150
