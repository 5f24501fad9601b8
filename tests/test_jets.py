from fractions import Fraction

import pytest

from conftest import random_fraction, random_jet
from zcurv.jets import Jet
from zcurv.scalars import sadd, sexp, sln, smul


def x(order=8, base=(0, 0)):
    return Jet.variable("x", base, order)


def y(order=8, base=(0, 0)):
    return Jet.variable("y", base, order)


def test_monomial_product():
    xy = x(4) * y(4)
    assert xy == Jet((0, 0), 4, {(1, 1): 1})


def test_difference_of_squares():
    u = (1 + x(2)) * (1 - x(2))
    assert u == Jet((0, 0), 2, {(0, 0): 1, (2, 0): -1})


def test_truncation_kills_overflow():
    cube = x(4).pow_int(3)
    assert (cube * cube).is_zero()


def test_pow_int_large_exponent_by_squaring():
    n = 10 ** 6
    u = x(2) + 1
    assert u.pow_int(n) == Jet((0, 0), 2, {(0, 0): 1, (1, 0): n,
                                          (2, 0): n * (n - 1) // 2})
    assert x(2).pow_int(n).is_zero()


def test_incompatible_operands():
    with pytest.raises(ValueError):
        x(4) + x(5)
    with pytest.raises(ValueError):
        x(4, base=(0, 0)) * x(4, base=(1, 0))


def test_derivatives_lower_order():
    u = x(6).pow_int(3) * y(6)
    ux = u.deriv_x()
    assert ux.order == 5
    assert ux == Jet((0, 0), 5, {(2, 1): 3})
    assert u.deriv_x().deriv_y() == Jet((0, 0), 4, {(2, 0): 3})
    with pytest.raises(ValueError):
        Jet.constant(1, order=0).deriv_x()


def test_division_round_trip():
    u = 1 + x(6) + y(6) * 2
    assert (u.inverse() * u) == Jet.constant(1, order=6)
    v = x(6) + 3
    assert (u / v) * v == u
    with pytest.raises(ValueError):
        x(6).inverse()


def test_exp_of_zero():
    assert Jet.zero(order=5).exp() == Jet.constant(1, order=5)


def test_ln_inverts_exp(rng):
    for _ in range(30):
        u = random_jet(rng, order=5, terms=4)
        u = u - Jet.constant(u.body, order=5)  # zero constant term
        assert u.exp().ln() == u


def test_exp_is_multiplicative(rng):
    for _ in range(20):
        u = random_jet(rng, order=4, terms=3)
        v = random_jet(rng, order=4, terms=3)
        assert (u + v).exp() == u.exp() * v.exp()


def test_exp_ln_with_symbolic_bodies():
    u = x(5) + 2
    w = u.ln()
    assert w.body == sln(Fraction(2))
    assert w.exp() == u
    assert (u.ln() * Fraction(1, 2)).exp().pow_int(2) == u


def test_ln_requires_positive_body():
    with pytest.raises(ValueError):
        (x(4) - 1).ln()
    with pytest.raises(ValueError):
        x(4).ln()


def test_compose_identity_and_shift():
    f = (x(6) + y(6) + 2).ln()
    assert f.compose(x(6), y(6)) == f
    shifted = f.compose(x(6, base=(1, 0)) - 1, y(6, base=(1, 0)))
    direct = (x(6, base=(1, 0)) - 1 + y(6, base=(1, 0)) + 2).ln()
    assert shifted == direct


def test_compose_base_mismatch_is_an_error():
    f = (x(6) + y(6) + 2).ln()
    with pytest.raises(ValueError):
        f.compose(x(6) + 1, y(6))


def test_evaluate():
    f = x(6) * x(6) + y(6) * 3
    assert f.evaluate(2.0, 1.0) == pytest.approx(7.0)
    g = (x(8) + y(8) + 2).ln()
    import math
    assert g.evaluate(0.25, 0.125) == pytest.approx(math.log(2.375))


def test_truncate_and_max_abs():
    u = 1 + x(6) * 5
    assert u.truncate(0) == Jet.constant(1, order=0)
    assert u.max_abs_coeff() == 5.0
    with pytest.raises(ValueError):
        u.truncate(7)


def test_max_abs_saturates_beyond_float_range():
    huge = Fraction(10) ** 400
    assert Jet.constant(huge, order=2).max_abs_coeff() == float("inf")
    # in floats the two terms overflow to +inf and -inf, which sum to nan
    s = sadd(smul(Fraction(10 ** 10), sexp(Fraction(700))),
             smul(Fraction(-10 ** 10), sexp(Fraction(701))))
    assert Jet((0, 0), 2, {(1, 0): s}).max_abs_coeff() == float("inf")


def test_scalar_multiplication_kinds(rng):
    u = random_jet(rng, order=5)
    q = random_fraction(rng, nonzero=True)
    assert (u * q) * (1 / q) == u
    assert u * 1 == u
    assert (u * sln(Fraction(2))).coeffs != {} or u.is_zero()


def test_partials_commute_and_satisfy_leibniz(rng):
    for _ in range(15):
        u = random_jet(rng, order=6)
        v = random_jet(rng, order=6)
        assert u.deriv_x().deriv_y() == u.deriv_y().deriv_x()
        assert (u * v).deriv_x() == \
            u.deriv_x() * v.truncate(5) + u.truncate(5) * v.deriv_x()


def test_display_order():
    u = Jet((0, 0), 4, {(0, 0): 1, (1, 0): 2, (0, 1): 3, (2, 0): 1,
                        (1, 1): -1})
    assert str(u) == "1 + 2*x + 3*y + x^2 - x*y"
