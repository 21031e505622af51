import math
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planch.field import LocalFieldSpec, gamma_trivial
from planch.spectral import (GeometricFactor, OrderMismatchError, PoleError,
                             RegularizationError, SpectralFunction, mod1,
                             turn)
from planch.wdrep import WDRep

SPEC3 = LocalFieldSpec(3, 3, 0)


def random_function(rng, q=3, max_factors=4):
    num = tuple(GeometricFactor(F(rng.randint(0, 5), 6), F(rng.randint(0, 3), 2))
                for _ in range(rng.randint(0, max_factors)))
    den = tuple(GeometricFactor(F(rng.randint(0, 5), 6), F(rng.randint(1, 3), 2))
                for _ in range(rng.randint(0, max_factors)))
    return SpectralFunction(unit_angle=F(rng.randint(0, 7), 8),
                            qpow=F(rng.randint(-2, 2), 2),
                            exponent=F(rng.randint(-2, 2)),
                            num=num, den=den, q=q)


def test_multiply_and_normalize():
    rng = random.Random(0)
    f = random_function(rng)
    assert f.multiply(f.inverse()).is_one()
    zeta = SpectralFunction.zeta(3)
    one_minus = SpectralFunction(num=(GeometricFactor(0, 0),), q=3)
    assert zeta.multiply(one_minus).is_one()
    g = gamma_trivial(SPEC3)
    assert g.multiply(g).ord_zero_at_zero() == 2


def test_no_automatic_cancellation():
    zeta = SpectralFunction.zeta(3)
    one_minus = SpectralFunction(num=(GeometricFactor(0, 0),), q=3)
    prod = zeta.multiply(one_minus)
    assert prod.num and prod.den          # kept verbatim
    assert not prod.normalize().num       # cancelled only on request


def test_ord_zero_examples():
    assert SpectralFunction.zeta(3).ord_zero_at_zero() == -1
    assert gamma_trivial(SPEC3).ord_zero_at_zero() == 1
    f = SpectralFunction(num=(GeometricFactor(F(1, 3), 0),), q=3)
    assert f.ord_zero_at_zero() == 0


def test_ord_additivity_random():
    rng = random.Random(1)
    for _ in range(1000):
        f, g = random_function(rng), random_function(rng)
        assert f.multiply(g).ord_zero_at_zero() == \
            f.ord_zero_at_zero() + g.ord_zero_at_zero()


def test_regularized_value():
    one_minus = SpectralFunction(num=(GeometricFactor(0, 0),), q=3)
    assert abs(one_minus.regularized_value() - 1.0) < 1e-15
    assert abs(gamma_trivial(SPEC3).regularized_value() - 1.5) < 1e-14
    f = SpectralFunction(num=(GeometricFactor(F(1, 2), 0),), q=3)
    assert abs(f.regularized_value() - f.evaluate(0.0)) < 1e-15
    with pytest.raises(RegularizationError):
        SpectralFunction.zeta(3).regularized_value()


def test_regularized_multiplicativity():
    rng = random.Random(2)
    done = 0
    while done < 300:
        f, g = random_function(rng), random_function(rng)
        if f.ord_zero_at_zero() < 0 or g.ord_zero_at_zero() < 0:
            continue
        lhs = f.multiply(g).regularized_value()
        rhs = f.regularized_value() * g.regularized_value()
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
        done += 1


def test_evaluate():
    zeta = SpectralFunction.zeta(3)
    assert abs(zeta.evaluate(1.0) - 1.5) < 1e-15
    assert abs(gamma_trivial(SPEC3).evaluate(0.5) - 1.0) < 1e-14
    with pytest.raises(PoleError):
        zeta.evaluate(0.0)


def test_log_periodicity():
    rng = random.Random(3)
    period = 2 * math.pi / math.log(3)
    for _ in range(50):
        f = random_function(rng)
        t = rng.uniform(0.1, 5.0)
        v1, v2 = f.evaluate(1j * t), f.evaluate(1j * (t + period))
        assert abs(abs(v1) - abs(v2)) < 1e-9 * max(1.0, abs(v1))


def test_limit_with_power():
    zeta = SpectralFunction.zeta(3)
    assert abs(zeta.limit_with_power(1) - 1 / math.log(3)) < 1e-14
    assert abs(zeta.multiply(zeta).limit_with_power(2) - math.log(3) ** -2) < 1e-14
    f = SpectralFunction(num=(GeometricFactor(F(1, 2), 0),), q=3)
    assert abs(f.limit_with_power(0) - f.evaluate(0.0)) < 1e-15
    with pytest.raises(OrderMismatchError):
        zeta.limit_with_power(2)



def test_at_zero_cancelled_pole_and_reflected_zero():
    """A zero cancelling a pole leaves a function regular at 0, whose limit
    with power 0 is its regularized value; a reflected factor 1 - q^{s}
    is -s log q (1 + O(s)), so zeta(s) f(s) tends to -1."""
    cancelled = SpectralFunction(num=(GeometricFactor(0, 0),),
                                 den=(GeometricFactor(0, 0),), q=3)
    assert cancelled.limit_with_power(0) == cancelled.regularized_value() == 1
    reflected = SpectralFunction(num=(GeometricFactor(0, 0, -1),), q=3)
    assert reflected.regularized_value() == -1
    s = 1e-7
    numeric = reflected.multiply(SpectralFunction.zeta(3)).evaluate(s)
    assert abs(numeric - reflected.regularized_value()) < 1e-6
    assert abs(reflected.inverse().limit_with_power(1)
               + 1 / math.log(3)) < 1e-15

def test_limit_with_power_numeric_oracle():
    rng = random.Random(4)
    done = 0
    while done < 100:
        f = random_function(rng)
        k = rng.randint(1, 2)
        for _ in range(k):
            f = f.multiply(SpectralFunction.zeta(3))
        if f.ord_zero_at_zero() != -k:
            continue
        lim = f.limit_with_power(k)
        s = 1e-4
        numeric = s ** k * f.evaluate(s)
        assert abs(numeric - lim) <= 1e-3 * max(abs(lim), 1e-9)
        done += 1


def _random_unramified(rng):
    """A random spectral function over q in {2, ..., 25}: angles of
    denominator up to 12, shifts 0 ... 3/2 on both sides, both s
    directions, so that it may vanish or have a pole at s = 0."""
    def factors():
        return tuple(GeometricFactor(F(rng.randint(0, 11), 12) if rng.random()
                                     < 0.7 else F(0), F(rng.randint(0, 3), 2),
                                     rng.choice((1, -1)))
                     for _ in range(rng.randint(0, 4)))
    return SpectralFunction(unit_angle=F(rng.randint(0, 11), 12),
                            qpow=F(rng.randint(-3, 3), 2),
                            exponent=F(rng.randint(-4, 4), 2),
                            num=factors(), den=factors(),
                            q=rng.choice((2, 3, 4, 5, 7, 9, 25)))


def _mp_value(f, s):
    """f(s) to 50 digits, from the exact Fraction fields of f alone."""
    def frac(x):
        return mpmath.mpf(x.numerator) / x.denominator

    def e(x):
        return mpmath.expjpi(2 * frac(x))

    q = mpmath.mpf(f.q)
    val = e(f.unit_angle) * q ** frac(f.qpow) * q ** (-frac(f.exponent) * s)
    for g in f.num:
        val *= 1 - e(g.angle) * q ** (-(g.sdir * s + frac(g.shift)))
    for g in f.den:
        val /= 1 - e(g.angle) * q ** (-(g.sdir * s + frac(g.shift)))
    return val


def test_values_and_limits_match_mpmath():
    """evaluate, regularized_value and limit_with_power against 50-digit
    mpmath on random unramified functions, to 1e-12 relative.  The oracle
    reads the exact fields: f at s, and zeta(s)^n f(s) or s^k f(s) at s =
    1e-30, whose distance to the limit is O(s).  At Re s in [0.05, 0.45]
    every factor of these shifts is at least 1 - 2^{-0.05} from zero."""
    rng = random.Random(11)
    with mpmath.workdps(50):
        tiny = mpmath.mpf(10) ** -30
        for _ in range(300):
            f = _random_unramified(rng)
            s = complex(rng.uniform(0.05, 0.45), rng.uniform(-1.5, 1.5))
            want = complex(_mp_value(f, mpmath.mpc(s)))
            assert abs(f.evaluate(s) - want) <= 1e-12 * abs(want)
            n = sum(g.angle == 0 and g.shift == 0 for g in f.num) \
                - sum(g.angle == 0 and g.shift == 0 for g in f.den)
            if n >= 0:
                zeta = 1 / (1 - mpmath.mpf(f.q) ** -tiny)
                want = complex(zeta ** n * _mp_value(f, tiny))
                got = f.regularized_value()
            else:
                want = complex(tiny ** -n * _mp_value(f, tiny))
                got = f.limit_with_power(-n)
            assert abs(got - want) <= 1e-12 * abs(want)


def test_evaluate_past_the_float_range_of_q_to_the_qpow():
    """The gamma factor of (6 x Sp(4) at 0) tensor itself at q = 3 and
    psi-level 2 has q^qpow = 3^792, past the float range, yet f(0.3 + 0.7j)
    is about 7e148: evaluate takes q^{qpow - exponent s} as one power, and
    matches 50-digit mpmath."""
    rho = WDRep.of(*[(F(0), 4)] * 6)
    f = rho.tensor(rho).gamma_factor(LocalFieldSpec(3, 3, 2))
    assert (f.qpow, f.exponent) == (792, 1584)
    s = 0.3 + 0.7j
    with mpmath.workdps(50):
        want = complex(_mp_value(f, mpmath.mpc(s)))
    assert abs(f.evaluate(s) - want) <= 1e-11 * abs(want)


def test_evaluate_is_zero_at_an_exact_zero_past_the_float_range():
    """The same factor has a zero of order 36 at s = 0, where q^{qpow} =
    3^792 is past the float range: evaluate(0) is 0, and a zero factor
    does not hide a pole.  Where the true value is past the float range,
    at s = -0.1, evaluate still raises OverflowError, and the value at 0.3
    + 0.7j is the one the single power gave before."""
    rho = WDRep.of(*[(F(0), 4)] * 6)
    f = rho.tensor(rho).gamma_factor(LocalFieldSpec(3, 3, 2))
    assert f.ord_zero_at_zero() == 36
    assert f.evaluate(0.0) == 0 and f.evaluate(0j) == 0
    with pytest.raises(PoleError):
        SpectralFunction(qpow=792, num=f.num, den=(GeometricFactor(0, 1),),
                         q=3).evaluate(-1.0)
    with mpmath.workdps(50):
        assert abs(_mp_value(f, mpmath.mpf(-0.1))) > mpmath.mpf(2) ** 1024
    with pytest.raises(OverflowError):
        f.evaluate(-0.1)
    assert f.evaluate(0.3 + 0.7j) == complex(4.2471229219029444e+148,
                                             -5.079647711320789e+148)


def test_serialization_roundtrip():
    rng = random.Random(5)
    for _ in range(20):
        f = random_function(rng).normalize()
        d = f.to_dict()
        g = SpectralFunction(
            num=tuple(GeometricFactor.from_dict(x) for x in d["num"]),
            den=tuple(GeometricFactor.from_dict(x) for x in d["den"]),
            q=d["q"], exponent=F(d["exponent"]))
        for s in (0.3, 0.7 + 0.2j):
            want = complex(*d["scalar"]) * g.evaluate(s)
            assert abs(f.evaluate(s) - want) < 1e-12


def test_turn_helper():
    assert turn(7, 3) == F(1, 3)
    assert turn(F(-1, 4)) == F(3, 4)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.fractions(-5, 5, max_denominator=60))
def test_mod1_property(x):
    """mod1(x) lies in [0, 1), differs from x by an integer, and is x
    itself when x is in [0, 1) already."""
    y = mod1(x)
    assert type(y) is F and 0 <= y < 1
    assert (x - y).denominator == 1
    assert (y is x) == (0 <= x < 1)
