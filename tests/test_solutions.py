from fractions import Fraction

import pytest

from conftest import random_fraction, random_jet, random_poly_x, random_poly_y
from zcurv.cartan import CartanMatrix, standard_cartan
from zcurv.jets import Jet
from zcurv.scalars import sexp, sln
from zcurv.solutions import (SolutionVector, conformal_transform,
                             liouville_residual, liouville_solution,
                             lse_residual, super_liouville_residual,
                             transform_GF)
from zcurv.superfield import SuperField, standard_gens

GENS = standard_gens(2)


def jet_x(order=8, base=(0, 0)):
    return Jet.variable("x", base, order)


def jet_y(order=8, base=(0, 0)):
    return Jet.variable("y", base, order)


def test_liouville_solution_shifted_linear():
    f = jet_x(9) + 1
    g = jet_y(9) + 1
    solution = liouville_solution(f, g)
    expected = -((jet_x(9) + jet_y(9) + 2).ln().truncate(8))
    assert solution == expected


def test_liouville_solution_at_base_one_one():
    f = jet_x(9, base=(1, 1))
    g = jet_y(9, base=(1, 1))
    solution = liouville_solution(f, g)
    expected = -((jet_x(9, (1, 1)) + jet_y(9, (1, 1))).ln().truncate(8))
    assert solution == expected


def test_liouville_solution_preconditions():
    with pytest.raises(ValueError, match="f'"):
        liouville_solution(jet_x(8) * jet_x(8), jet_y(8) + 1)
    with pytest.raises(ValueError, match="vanishes"):
        liouville_solution(jet_x(8), jet_y(8))
    with pytest.raises(ValueError, match="positive"):
        liouville_solution(-jet_x(8) + 1, jet_y(8) + 1)
    with pytest.raises(ValueError, match="only on x"):
        liouville_solution(jet_y(8), jet_y(8) + 1)


def test_liouville_residual_of_solutions_vanishes(rng):
    for _ in range(20):
        f = random_poly_x(rng, order=9, degree=4)
        g = random_poly_y(rng, order=9, degree=4)
        g = _fix_admissibility(f, g)
        residual = liouville_residual(liouville_solution(f, g))
        assert residual.order == 6
        assert residual.is_zero()


def _fix_admissibility(f, g):
    """Adjust g so that f'g' > 0 and f+g != 0 at the base point."""
    fp, gp = f.deriv_x(), g.deriv_y()
    if (fp.body > 0) != (gp.body > 0):
        g = Jet(g.base, g.order,
                {(i, j): -v for (i, j), v in g.coeffs.items()})
    if (f + g).body == 0:
        g = g + 1
    return g


def _oracle_liouville_solution(f, g):
    """The ratio form that liouville_solution replaced, kept as an exact
    oracle: one inverse of (f+g)^2, two products and one ln."""
    fp, gp = f.deriv_x(), g.deriv_y()
    s = (f + g).truncate(fp.order)
    return ((fp * gp) / (s * s)).ln() * Fraction(1, 2)


def test_liouville_solution_matches_the_ratio_form(rng):
    cases = []
    for order in (4, 9, 14):
        f = random_poly_x(rng, order=order, degree=4)
        g = random_poly_y(rng, order=order, degree=4)
        cases.append((f, _fix_admissibility(f, g)))
    for base in ((0, 0), (Fraction(1, 2), Fraction(1, 2)),
                 (Fraction(-2, 3), Fraction(-2, 3))):
        x, y = jet_x(12, base), jet_y(12, base)
        cases += [(x.exp(), y.exp() * 3),  # exp, off the origin if base != 0
                  (-x.exp(), y.exp() * -2),  # f', g' and f + g negative
                  (-x + 1, y * Fraction(-1, 3) - 4),
                  ((x * 2 + 1) * (x + 3).inverse(), (y + 2) * (y + 2) + 1)]
    for f, g in cases:
        solution = liouville_solution(f, g)
        assert solution == _oracle_liouville_solution(f, g)
        assert str(solution) == str(_oracle_liouville_solution(f, g))


def _squared_sum_solution(f, g):
    """The form liouville_solution replaced, (1/2) (ln(f'g') - ln((f+g)^2)),
    ln((f+g)^2) first: its refusals are the ones to keep."""
    fp, gp = f.deriv_x(), g.deriv_y()
    s = (f + g).truncate(fp.order)
    log_s2 = (s * s).ln()
    return ((fp * gp).ln() - log_s2) * Fraction(1, 2)


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return str(exc)


def test_ln_of_a_negative_or_unit_sum_matches_the_ratio_form():
    cases = []
    for base in ((0, 0), (Fraction(1, 3), Fraction(1, 3)),
                 (Fraction(-1, 2), Fraction(2))):
        x, y = jet_x(9, base), jet_y(9, base)
        y0 = y - base[1]  # g(y0) = 0, so f + g has f's body
        cases += [(-x - 2, -y),  # f(x0) + g(y0) < 0
                  (-x * x * Fraction(1, 2) - x * 2 - 3,
                   1 - y * Fraction(1, 2)),
                  ((x * 4).exp(), y0),  # the body exp(4 x0), a unit
                  (-(x * 4).exp(), -y0),  # minus that unit
                  ((x * 2).exp() * 3, y0 * sexp(Fraction(1, 3)))]
    for f, g in cases:
        assert (f + g).body != 0
        solution = liouville_solution(f, g)
        assert solution == _oracle_liouville_solution(f, g)
        assert solution == _squared_sum_solution(f, g)
        assert str(solution) == str(_oracle_liouville_solution(f, g))


def test_the_squared_sum_is_refused_first():
    half_third = (Fraction(1, 2), Fraction(1, 3))
    x, y = jet_x(6, half_third), jet_y(6, half_third)
    x0, y0 = jet_x(6), jet_y(6)
    cases = [
        (x.exp(), y),  # c = exp(1/2) + 1/3: c^2 has three terms
        (-x.exp(), y),  # the same, and f'g' < 0 too
        (x0 + sln(Fraction(2)), y0),  # c = ln(2): c^2 has an ln factor
        (x0 + 10 ** 40 + 2, y0),  # c^2 past what _factor decides
        (x0 + 10 ** 40 + 2, -y0),  # the same, and f'g' < 0 too
        (-x0 + 1, y0 + 1),  # c^2 = 4 is fine, f'g' < 0 is not
    ]
    for f, g in cases:
        refusal = _outcome(lambda: liouville_solution(f, g))
        assert isinstance(refusal, str)
        assert refusal == _outcome(lambda: _squared_sum_solution(f, g))


def test_liouville_residual_of_zero():
    residual = liouville_residual(Jet.zero(order=8))
    assert residual == Jet.constant(-1, order=6)


def test_liouville_residual_log_solution():
    f_jet = -((jet_x(8, (1, 1)) + jet_y(8, (1, 1))).ln())
    assert liouville_residual(f_jet).is_zero()


def test_lse_residual_rank_one_normalisations():
    sl2 = standard_cartan("sl2")
    f_jet = -((jet_x(8, (1, 1)) + jet_y(8, (1, 1))).ln())
    assert all(r.is_zero() for r in lse_residual(
        SolutionVector((f_jet,), sl2), "ls"))
    g_jet = f_jet * 2
    assert all(r.is_zero() for r in lse_residual(
        SolutionVector((g_jet,), sl2), "lsbis"))
    # the same jet does not satisfy the other normalisation
    assert not all(r.is_zero() for r in lse_residual(
        SolutionVector((f_jet,), sl2), "lsbis"))


def test_lse_residual_refusals():
    f_jet = jet_x(4, (1, 1))
    with pytest.raises(ValueError) as err:
        lse_residual(SolutionVector((f_jet,), standard_cartan("sl2")), "G")
    assert str(err.value) == "unknown form 'G'"
    with pytest.raises(ValueError) as err:
        lse_residual(SolutionVector((f_jet,), standard_cartan("osp12")), "ls")
    assert str(err.value) == "classical residuals require an all-even matrix"


def test_solution_vector_checks_rank_is_immutable_and_equal_by_fields():
    sl3 = standard_cartan("sl3")
    comps = (jet_x(4), jet_x(4) * 2)
    sol = SolutionVector(comps, sl3)
    assert sol == SolutionVector(comps, standard_cartan("sl3"))
    assert hash(sol) == hash(SolutionVector(comps, sl3))
    assert sol != SolutionVector(comps[::-1], sl3)
    with pytest.raises(AttributeError):
        sol.components = comps[::-1]
    with pytest.raises(ValueError, match="component count must equal the "
                       "rank"):
        SolutionVector(comps[:1], sl3)


def test_lse_residual_of_zero_solution():
    sl3 = standard_cartan("sl3")
    zeros = SolutionVector((Jet.zero(order=6), Jet.zero(order=6)), sl3)
    for r in lse_residual(zeros, "ls"):
        assert r == Jet.constant(-1, order=4)


def test_transform_examples(rng):
    ident = CartanMatrix.from_rows([[1]])
    u = random_jet(rng, order=6)
    sol = SolutionVector((u,), ident)
    assert transform_GF(sol).components == (u,)
    sl2 = standard_cartan("sl2")
    assert transform_GF(SolutionVector((u,), sl2)).components[0] == u * 2
    with pytest.raises(ValueError):
        transform_GF(SolutionVector((u,), CartanMatrix.from_rows([[0]])),
                     inverse=True)
    inv = transform_GF(transform_GF(SolutionVector((u,), sl2)), inverse=True)
    assert inv.components[0] == u


def test_intertwining_identity(rng):
    for _ in range(15):
        n = rng.randint(1, 3)
        rows = [[random_fraction(rng) for _ in range(n)] for _ in range(n)]
        matrix = CartanMatrix.from_rows(rows)
        comps = tuple(random_jet(rng, order=5, terms=3) for _ in range(n))
        sol = SolutionVector(comps, matrix)
        lhs = lse_residual(transform_GF(sol), "lsbis")
        rhs_parts = lse_residual(sol, "ls")
        for i in range(n):
            target = Jet.zero((0, 0), 3)
            for j in range(n):
                if rows[i][j]:
                    target = target + rhs_parts[j] * Fraction(rows[i][j])
            assert lhs[i] == target


def test_conformal_identity_transform():
    f_jet = -((jet_x(8) + jet_y(8) + 2).ln())
    out = conformal_transform(f_jet, jet_x(8), jet_y(8))
    assert out == f_jet.truncate(7)


def test_conformal_scaling_example():
    f_jet = -((jet_x(8, (2, 1)) + jet_y(8, (2, 1))).ln())
    phi = jet_x(8, (1, 1)) * 2
    psi = jet_y(8, (1, 1))
    out = conformal_transform(f_jet, phi, psi)
    direct = -((jet_x(8, (1, 1)) * 2 + jet_y(8, (1, 1))).ln()) \
        + Jet.constant(Fraction(1, 2) * sln(Fraction(2)), (1, 1), 8)
    assert out == direct.truncate(7)
    assert liouville_residual(out).is_zero()


def _random_reparam(rng, which, order=9):
    """Random polynomial reparametrisation fixing the base point."""
    var = jet_x(order) if which == "x" else jet_y(order)
    slope = abs(random_fraction(rng, nonzero=True))
    out = var * slope
    for d in range(2, 4):
        c = random_fraction(rng)
        if c:
            out = out + var.pow_int(d) * c
    return out


def test_conformal_residual_preservation(rng):
    for _ in range(10):
        f = random_poly_x(rng, order=9, degree=3)
        g = _fix_admissibility(f, random_poly_y(rng, order=9, degree=3))
        solution = liouville_solution(f, g)
        phi = _random_reparam(rng, "x")
        psi = _random_reparam(rng, "y")
        moved = conformal_transform(solution, phi, psi)
        assert liouville_residual(moved).is_zero()


def test_conformal_group_law(rng):
    for _ in range(10):
        f = random_poly_x(rng, order=9, degree=3)
        g = _fix_admissibility(f, random_poly_y(rng, order=9, degree=3))
        solution = liouville_solution(f, g)
        phi1, psi1 = _random_reparam(rng, "x"), _random_reparam(rng, "y")
        phi2, psi2 = _random_reparam(rng, "x"), _random_reparam(rng, "y")
        composed = conformal_transform(
            solution, phi1.compose(phi2, psi2), psi1.compose(phi2, psi2))
        nested = conformal_transform(
            conformal_transform(solution, phi1, psi1), phi2, psi2)
        assert composed.truncate(6) == nested.truncate(6)


def test_super_residual_of_constant_zero_field():
    field = SuperField.zero(GENS, order=6)
    residual = super_liouville_residual(field)
    assert residual == SuperField.constant(-1, GENS, order=4)


def test_super_residual_handles_sign_flag():
    field = SuperField.zero(GENS, order=6)
    assert super_liouville_residual(field, sign=-1) \
        == SuperField.constant(1, GENS, order=4)


def test_super_residual_requires_even_field():
    with pytest.raises(ValueError):
        super_liouville_residual(
            SuperField.coordinate("xi", GENS, order=6))


def test_super_residual_even_reduction(rng):
    # a purely even field's residual sits in the empty and xi*eta sectors,
    # with the xi*eta sector carrying the mixed derivative
    u = random_jet(rng, order=6)
    field = SuperField.from_jet(u, GENS)
    residual = super_liouville_residual(field)
    mask = 0b11
    assert set(residual.comps) <= {0, mask}
    assert residual.component(mask) == u.deriv_x().deriv_y()


def test_super_residual_transfer_identity(rng):
    """With alpha, beta defined by the elimination rule, the second-order
    residual of F = ln(a*b) equals minus the first equation's residual."""
    for _ in range(8):
        a = _random_invertible_even(rng)
        b = _random_invertible_even(rng)
        alpha = b.ln().d_plus()
        beta = -(a.ln().d_minus())
        f_field = (a * b).ln()
        lhs = super_liouville_residual(f_field)
        first_eq = (beta.d_plus() + alpha.d_minus()
                    + (a * b).truncate(4)).truncate(4)
        assert lhs == -first_eq


def _random_invertible_even(rng, order=6):
    from conftest import random_superfield
    field = random_superfield(rng, GENS, order=order, parity=0, comps=2,
                              terms=2)
    body_fix = 2 - field.body
    return field + SuperField.constant(body_fix, GENS, order=order)


def test_super_liouville_exact_solution():
    """F0 - xi*eta*exp(F0) with F0_xy = -exp(2 F0) solves the super system
    for the engine's + sign; built from the reflected two-function formula."""
    base = (1, 3)
    order = 8
    x8, y8 = jet_x(order, base), jet_y(order, base)
    f0 = -((y8 - x8).ln())                       # F0_xy = -exp(2 F0)
    assert (f0.deriv_x().deriv_y()
            + (f0 * 2).exp().truncate(order - 2)).is_zero()
    expf0 = f0.exp()
    field = SuperField(GENS, base, order, {
        0: f0,
        0b11: -expf0,
    })
    assert super_liouville_residual(field).is_zero()
    # the opposite sign does not vanish
    assert not super_liouville_residual(field, sign=-1).is_zero()


# The exp-then-truncate formulas that the residual kernel replaced, kept as
# an exact oracle: truncating first must not change a single coefficient.

def _oracle_liouville(f_jet):
    mixed = f_jet.deriv_x().deriv_y()
    return mixed - (f_jet * 2).exp().truncate(f_jet.order - 2)


def _oracle_lse(sol, form):
    A = sol.cartan.entries
    n = sol.cartan.rank
    comps = sol.components
    out = []
    for i in range(n):
        target = comps[i].order - 2
        mixed = comps[i].deriv_x().deriv_y()
        if form == "ls":
            arg = Jet.zero(comps[i].base, comps[i].order)
            for j in range(n):
                if A[i][j]:
                    arg = arg + comps[j] * A[i][j]
            rhs = arg.exp().truncate(target)
        else:
            rhs = Jet.zero(comps[i].base, target)
            for j in range(n):
                if A[i][j]:
                    rhs = rhs + comps[j].exp().truncate(target) * A[i][j]
        out.append(mixed - rhs)
    return out


def _oracle_super(field, sign=1):
    mixed = field.d_minus().d_plus()
    return mixed - field.exp().truncate(field.order - 2) * Fraction(sign)


def _loggable_jet(rng, order):
    """Rational, ln(p) or symbolic coefficients; exp accepts all three."""
    u = random_jet(rng, order=order, terms=5)
    kind = rng.randrange(3)
    if kind == 0:
        return u
    p = Fraction(rng.choice([2, 3, 5, 6]))
    if kind == 1:
        return u + sln(p)
    return u + random_jet(rng, order=order, terms=2) * sln(p)


def test_residual_kernel_matches_exp_then_truncate(rng):
    for _ in range(12):
        n = rng.randint(1, 3)
        rows = [[random_fraction(rng) if rng.random() < 0.7 else 0
                 for _ in range(n)] for _ in range(n)]
        order = rng.randint(2, 7)
        comps = tuple(_loggable_jet(rng, order) for _ in range(n))
        sol = SolutionVector(comps, CartanMatrix.from_rows(rows))
        for form in ("ls", "lsbis"):
            assert lse_residual(sol, form) == _oracle_lse(sol, form)
        assert liouville_residual(comps[0]) == _oracle_liouville(comps[0])
    for n in range(2, 6):
        sol = SolutionVector(tuple(_loggable_jet(rng, 6)
                                   for _ in range(n - 1)),
                             standard_cartan(f"sl{n}"))
        for form in ("ls", "lsbis"):
            assert lse_residual(sol, form) == _oracle_lse(sol, form)


def test_super_residual_kernel_matches_exp_then_truncate(rng):
    for order in range(2, 7):
        field = _random_invertible_even(rng, order=order)
        for sign in (1, -1):
            assert super_liouville_residual(field, sign) \
                == _oracle_super(field, sign)


def test_lsbis_never_exponentiates_a_zero_column():
    # ln(2)*ln(3) has no exp in the scalar ring; its column of A is zero
    x, y = jet_x(4), jet_y(4)
    body = sln(Fraction(2)) * sln(Fraction(3))
    with pytest.raises(ValueError):
        (x * y + body).exp()
    sol = SolutionVector((x, x * y + body),
                         CartanMatrix.from_rows([[2, 0], [0, 0]]))
    assert [str(r) for r in lse_residual(sol, "lsbis")] \
        == ["-2 - 2*x - x^2", "1"]
    assert [str(r) for r in lse_residual(sol, "ls")] \
        == ["-1 - 2*x - 2*x^2", "0"]


def test_each_used_component_is_exponentiated_once(rng, monkeypatch):
    calls = []
    exp = Jet.exp

    def counting_exp(self):
        calls.append(self.order)
        return exp(self)

    monkeypatch.setattr(Jet, "exp", counting_exp)
    comps = tuple(random_jet(rng, order=6) for _ in range(3))
    sol = SolutionVector(comps, standard_cartan("sl4"))
    for form in ("ls", "lsbis"):
        calls.clear()
        lse_residual(sol, form)
        assert calls == [4, 4, 4]
    calls.clear()
    liouville_residual(comps[0])
    assert calls == [4]


def test_residuals_keep_their_order_errors():
    with pytest.raises(ValueError, match="order-0"):
        liouville_residual(jet_x(1))
    with pytest.raises(ValueError, match="order-0"):
        lse_residual(SolutionVector((jet_x(1),), standard_cartan("sl2")),
                     "lsbis")
    with pytest.raises(ValueError):
        super_liouville_residual(SuperField.coordinate("x", GENS, order=1))


@pytest.mark.parametrize("build,message", [
    (lambda: liouville_solution(jet_x(), jet_x()), "g must depend only on y"),
    (lambda: liouville_solution(jet_x(), jet_y() * jet_y() + 1),
     "g'(y0) vanishes"),
    (lambda: conformal_transform(jet_x(), jet_y(), jet_y()),
     "phi must depend only on x"),
    (lambda: conformal_transform(jet_x(), jet_x(), jet_x()),
     "psi must depend only on y"),
    (lambda: conformal_transform(jet_x(), jet_x() * jet_x(), jet_y()),
     "phi' or psi' vanishes at the base point"),
], ids=["g-depends-on-x", "g-prime-vanishes", "phi-depends-on-y",
        "psi-depends-on-x", "phi-prime-vanishes"])
def test_solution_refusals(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
