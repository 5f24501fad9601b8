from fractions import Fraction

import pytest

from conftest import random_jet, random_superfield
from zcurv.jets import Jet
from zcurv.superfield import SuperField, standard_gens

GENS = standard_gens(2)


def coord(name, order=5):
    return SuperField.coordinate(name, GENS, (0, 0), order)


def test_d_plus_of_xi_is_one():
    assert coord("xi").d_plus() == SuperField.constant(1, GENS, order=4)


def test_d_plus_of_x_is_xi():
    assert coord("x").d_plus() == coord("xi", order=4)


def test_d_minus_of_eta_and_y():
    assert coord("eta").d_minus() == SuperField.constant(1, GENS, order=4)
    assert coord("y").d_minus() == coord("eta", order=4)


def test_generator_relations():
    xi, eta, th1 = coord("xi"), coord("eta"), coord("th1")
    assert (xi * xi).is_zero()
    assert xi * eta == -(eta * xi)
    # a component's mask sets bit i for GENS[i]: xi 1, eta 2, th1 4
    assert (xi * eta * th1).component(0b111) == Jet.constant(1, order=5)
    # fixed generator order pins the sign
    assert eta * xi == SuperField(GENS, (0, 0), 5,
                                  {0b11: Jet.constant(-1, order=5)})


def test_squares_of_superderivations(rng):
    for _ in range(40):
        f = random_superfield(rng, GENS, order=5)
        assert f.d_plus().d_plus() == f.deriv_x().truncate(3)
        assert f.d_minus().d_minus() == f.deriv_y().truncate(3)


def test_superderivations_anticommute(rng):
    for _ in range(40):
        f = random_superfield(rng, GENS, order=5)
        assert (f.d_plus().d_minus() + f.d_minus().d_plus()).is_zero()


def test_super_leibniz_rule(rng):
    for _ in range(30):
        p = rng.randint(0, 1)
        u = random_superfield(rng, GENS, order=5, parity=p, comps=2)
        v = random_superfield(rng, GENS, order=5, comps=2)
        sign = Fraction(-1 if p else 1)
        lhs = (u * v).d_plus()
        rhs = u.d_plus() * v.truncate(4) + (u.truncate(4) * v.d_plus()) * sign
        assert lhs == rhs
        lhs = (u * v).d_minus()
        rhs = u.d_minus() * v.truncate(4) + (u.truncate(4) * v.d_minus()) * sign
        assert lhs == rhs


def test_supercommutativity(rng):
    for _ in range(30):
        pu, pv = rng.randint(0, 1), rng.randint(0, 1)
        u = random_superfield(rng, GENS, order=4, parity=pu, comps=2)
        v = random_superfield(rng, GENS, order=4, parity=pv, comps=2)
        sign = Fraction(-1 if pu * pv else 1)
        assert u * v == (v * u) * sign


def test_partial_derivative_interior_sign():
    xi, eta = coord("xi"), coord("eta")
    u = random_jet_field()
    # D-(xi*eta*u) = -xi*u;  D+(that) = -u
    f = xi * eta * u
    step = f.d_minus()
    assert step == -(coord("xi", order=4) * u.truncate(4))
    assert step.d_plus() == -(u.truncate(3))


def random_jet_field(order=5):
    jet = Jet((0, 0), order, {(1, 0): 2, (0, 2): -3, (0, 0): 1})
    return SuperField.from_jet(jet, GENS)


def test_mixed_derivative_of_even_field_lands_in_xi_eta_sector():
    u = random_jet_field()
    dd = u.d_minus().d_plus()
    mask_xi_eta = 0b11
    assert set(dd.comps) <= {mask_xi_eta}
    assert dd.component(mask_xi_eta) == \
        u.component(0).deriv_x().deriv_y()


def test_exp_of_xi_eta():
    xi_eta = coord("xi") * coord("eta")
    assert xi_eta.exp() == SuperField.constant(1, GENS, order=5) + xi_eta


def test_exp_of_zero():
    assert SuperField.zero(GENS, order=4).exp() \
        == SuperField.constant(1, GENS, order=4)


def test_zero_has_the_default_order():
    zero = SuperField.zero(standard_gens(2))
    assert zero.order == 8 and zero.is_zero()


def test_ln_inverts_exp(rng):
    for _ in range(100):
        s = random_superfield(rng, GENS, order=4, parity=0, comps=2, terms=2)
        s = s - SuperField.constant(s.body, GENS, order=4)
        assert s.exp().ln() == s


def test_exp_adds_for_even_fields(rng):
    for _ in range(10):
        u = random_superfield(rng, GENS, order=4, parity=0, comps=2, terms=2)
        v = random_superfield(rng, GENS, order=4, parity=0, comps=2, terms=2)
        assert (u + v).exp() == u.exp() * v.exp()


def test_exp_requires_even_input():
    with pytest.raises(ValueError):
        coord("xi").exp()
    with pytest.raises(ValueError):
        (coord("xi") + SuperField.constant(1, GENS, order=5)).ln()


def test_ln_requires_invertible_body():
    u = coord("xi") * coord("eta")
    with pytest.raises(ValueError):
        u.ln()


def test_parity_classification():
    assert coord("xi").parity() == 1
    assert (coord("xi") * coord("eta")).parity() == 0
    mixed = coord("xi") + SuperField.constant(1, GENS, order=5)
    assert mixed.parity() is None
    assert SuperField.zero(GENS).parity() == 0


def test_component_access_and_str():
    f = coord("xi") * coord("th1") + SuperField.constant(2, GENS, order=5)
    assert f.component(0b101) == Jet.constant(1, order=5)
    assert str(f) == "2 + xi*th1"


def test_incompatible_generator_lists():
    other = SuperField.constant(1, standard_gens(1), order=5)
    with pytest.raises(ValueError):
        coord("xi") + other


def test_negative_orders_are_rejected():
    with pytest.raises(ValueError, match="jet order must be >= 0"):
        SuperField.zero(GENS, order=-5)
    with pytest.raises(ValueError, match="jet order must be >= 0"):
        SuperField.zero(GENS, order=3).truncate(-1)
    with pytest.raises(ValueError, match="jet order must be >= 0"):
        SuperField.zero(GENS, order=0).d_plus()


def test_fields_share_the_base_pair_of_their_jets():
    j = Jet.variable("x", (Fraction(1, 2), 3), 5)
    f = SuperField.from_jet(j, GENS)
    assert f.base is j.base
    xi = SuperField(GENS, j.base, 5, {0b1: Jet.constant(1, j.base, 5)})
    assert xi.base is j.base
    for g in (f + xi, f * xi, xi * 2, f.d_plus(), f.d_minus(), -f,
              f.truncate(3)):
        assert g.base is j.base
    # any other base is made a pair of Fractions
    g = SuperField(GENS, [1, "1/2"], 5)
    assert g.base == (1, Fraction(1, 2))
    assert all(type(v) is Fraction for v in g.base)


def test_an_absent_component_shares_the_base_pair():
    j = Jet.variable("x", (Fraction(1, 2), 3), 5)
    assert SuperField.from_jet(j, ("xi", "eta")).component(3).base is j.base


@pytest.mark.parametrize("build,message", [
    (lambda: SuperField(GENS, (0, 0), 3, {1 << len(GENS): Jet.constant(1)}),
     "component mask 0b10000 out of range"),
    (lambda: SuperField(GENS, (0, 0), 3, {0: Jet.constant(1, (1, 0), 3)}),
     "component jet has wrong base or order"),
    (lambda: SuperField(GENS, (0, 0), 3, {0: Jet.constant(1, (0, 0), 4)}),
     "component jet has wrong base or order"),
    (lambda: SuperField.coordinate("zeta", GENS), "unknown coordinate 'zeta'"),
    (lambda: coord("x", 5) * coord("x", 4),
     "incompatible base points or orders"),
], ids=["mask-out-of-range", "component-base", "component-order",
        "unknown-coordinate", "incompatible-orders"])
def test_superfield_refusals(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_scalars_add_and_multiply_on_the_body():
    field = coord("x") + coord("xi")
    assert field + 1 == field + SuperField.constant(1, GENS, order=5)
    assert 1 + field == field + 1
    assert (field - 1) + 1 == field
    assert (field - 1).component(0) == coord("x").component(0) - 1
    assert 2 * field == field + field
    assert (2 * field).component(0b1) == Jet.constant(2, order=5)
