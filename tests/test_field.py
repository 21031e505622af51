import random
from fractions import Fraction as F

import pytest

from planch.field import (FieldError, LocalFieldSpec, QuadraticCharacter,
                          all_square_classes, gamma_star_trivial,
                          gamma_trivial, smallest_nonresidue, square_class,
                          valuation)
from planch.spectral import PoleError

from oracles import character_from_values


def hensel_is_square(x, p, prec=9):
    """Oracle: decide squareness in the p-adic field by Hensel lifting."""
    x = F(x)
    v = valuation(x, p)
    if v % 2 != 0:
        return False
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
    while den % p == 0:
        den //= p
    mod = p ** prec
    u = (num * pow(den, -1, mod)) % mod
    if p == 2:
        return u % 8 == 1
    if pow(u % p, (p - 1) // 2, p) != 1:
        return False
    # lift a root, just to make sure the criterion is honest
    y = next(r for r in range(1, p) if (r * r - u) % p == 0)
    for k in range(1, prec):
        mk = p ** (k + 1)
        while (y * y - u) % mk != 0:
            y += p ** k
    assert (y * y - u) % mod == 0
    return True


def test_valuation_examples():
    assert valuation(18, 3) == 2
    assert valuation(F(1, 3), 3) == -1
    assert valuation(7, 5) == 0
    with pytest.raises(FieldError):
        valuation(0, 3)


def test_square_class_examples():
    assert square_class(-2, 3).representative() == 1
    assert square_class(2, 5).representative() == smallest_nonresidue(5) == 2
    assert square_class(3, 3).representative() == 3
    with pytest.raises(FieldError):
        square_class(0, 3)


def test_square_class_matches_hensel_oracle():
    rng = random.Random(5)
    for p in (2, 3, 5, 7):
        for _ in range(200):
            x = F(rng.randint(1, 400), rng.randint(1, 400)) * rng.choice([1, -1])
            y = F(rng.randint(1, 60), rng.randint(1, 60))
            # class(x y^2) = class(x)
            assert square_class(x * y * y, p) == square_class(x, p)
            # triviality of the class agrees with Hensel squareness
            assert square_class(x, p).is_trivial() == hensel_is_square(x, p)


def test_class_group_structure():
    for p in (3, 5, 2):
        classes = all_square_classes(p)
        assert len(classes) == (8 if p == 2 else 4)
        # closed under multiplication, every element is an involution
        for c1 in classes:
            assert (c1 * c1).is_trivial()
            for c2 in classes:
                assert c1 * c2 in classes


def test_char_eval():
    chi0 = QuadraticCharacter.trivial(3)
    assert chi0(F(7, 5)) == 1
    chi = QuadraticCharacter.unramified_quadratic(3)
    assert chi(9) == 1
    assert chi(3) == -1
    rng = random.Random(6)
    for _ in range(1000):
        x = F(rng.randint(1, 300), rng.randint(1, 300)) * rng.choice([1, -1])
        y = F(rng.randint(1, 40), rng.randint(1, 40))
        assert chi(x * y * y) == chi(x)
    # multiplicativity and involutivity
    ram = character_from_values(3, on_unit=-1, on_pi=1)
    for _ in range(200):
        x = F(rng.randint(1, 99), rng.randint(1, 99))
        y = F(rng.randint(1, 99), rng.randint(1, 99))
        assert ram(x * y) == ram(x) * ram(y)
        assert ram(x) in (1, -1)
    assert ram(1) == 1


def test_char_minus_one():
    # -1 is a non-residue mod 3, a residue mod 5
    assert character_from_values(3, -1, 1)(-1) == -1
    assert character_from_values(5, -1, 1)(-1) == 1
    assert QuadraticCharacter.unramified_quadratic(3)(-1) == 1


def test_bad_character_table_rejected():
    with pytest.raises(FieldError):
        QuadraticCharacter.from_dict(3, {1: 1, 2: -1, 3: 1, 6: 1})


def test_gamma_trivial():
    g = gamma_trivial(LocalFieldSpec(3, 3, 0))
    assert g.ord_zero_at_zero() == 1
    assert abs(g.regularized_value() - 1.5) < 1e-14
    # (1 - 3^{-s}) / (1 - 3^{s-1}) at s = 2
    expect = (1 - 3.0 ** -2) / (1 - 3.0 ** 1)
    assert abs(g.evaluate(2.0) - expect) < 1e-14
    g2 = gamma_trivial(LocalFieldSpec(2, 2, 2))
    assert abs(g2.evaluate(0.3) -
               2 ** (2 * (0.5 - 0.3)) * (1 - 2 ** -0.3) / (1 - 2 ** -0.7)) < 1e-14
    with pytest.raises(PoleError):
        g.evaluate(1.0)  # zeta_F(0) pole


def test_gamma_star_trivial_exact():
    assert gamma_star_trivial(LocalFieldSpec(3, 3, 0)) == F(3, 2)
    assert gamma_star_trivial(LocalFieldSpec(2, 2, 0)) == F(2)
    assert gamma_star_trivial(LocalFieldSpec(5, 5, 2)) == F(25, 4)
    assert gamma_star_trivial(LocalFieldSpec(2, 4, -1)) == F(2, 3)
    assert gamma_star_trivial(LocalFieldSpec(2, 4, 2)) == F(16, 3)


def test_regularized_matches_star():
    for (p, q, n) in [(3, 3, 0), (2, 2, 0), (5, 5, 2), (2, 4, -1), (7, 7, 1)]:
        spec = LocalFieldSpec(p, q, n)
        got = gamma_trivial(spec).regularized_value()
        assert abs(got - float(gamma_star_trivial(spec))) < 1e-12


def test_field_spec_validation():
    with pytest.raises(FieldError):
        LocalFieldSpec(4, 4, 0)
    with pytest.raises(FieldError):
        LocalFieldSpec(3, 6, 0)
    spec = LocalFieldSpec.from_dict({"p": 3, "f": 2, "psi_level": -1})
    assert spec.q == 9 and spec.f == 2
    assert LocalFieldSpec.from_dict(spec.to_dict()) == spec
    # f is read off q once, and is no part of the spec's repr, order or hash
    assert LocalFieldSpec(2, 2 ** 7).f == 7 and LocalFieldSpec(5, 5).f == 1
    assert repr(spec) == "LocalFieldSpec(p=3, q=9, psi_level=-1)"
    assert hash(spec) == hash((3, 9, -1))
