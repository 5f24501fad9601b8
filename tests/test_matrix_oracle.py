"""The zero-curvature derivation against explicit matrices.

Every other check of ``derive`` is relative to zcurv's own bracket rule.
Here the Chevalley generators e_i, f_i, h_i of slN (N = 2..6, nodes
relabelled by a seeded permutation), sp(4) (C2) and so(5) (B2) are explicit
sympy matrices.  Kac's a_ij = alpha_j(h_i) is read off them through
[h_i, e_j] = a_ij e_j, and zcurv's Cartan matrix A is its transpose (Kac,
*Infinite Dimensional Lie Algebras*, ch. 1).  For the connection of
``derive_toda``

    A_x = sum_i a_i H_i + b_i X+_i,    A_y = sum_i A_i H_i + B_i X-_i

with function entries, R = dx A_y - dy A_x + [A_x, A_y] must have no
component outside the H_i and X+-_i, and its coefficients must equal those
of ``zerocurv._curvature_parts`` under ``derive_toda``'s names and, up to
sign, ``derive_toda``'s first-order equations.  The C2 and B2 matrices are
not symmetric, so the test sees the A_ji orientation of the bracket table.
"""

import random

import pytest
import sympy as sp

from zcurv.cartan import CartanMatrix
from zcurv.symexpr import fn
from zcurv.zerocurv import ChevalleyRelations, _curvature_parts, derive_toda

X, Y = sp.symbols("x y")


def unit(n: int, i: int, j: int):
    m = sp.zeros(n, n)
    m[i, j] = 1
    return m


def bracket(a, b):
    return a * b - b * a


def sl(n: int, seed: int):
    """e_i = E_{i,i+1} and f_i = E_{i+1,i} of sl(n), nodes permuted."""
    nodes = random.Random(seed).sample(range(n - 1), n - 1)
    return ([unit(n, i, i + 1) for i in nodes],
            [unit(n, i + 1, i) for i in nodes])


def sp4():
    """sp(4) on the form [[0, I], [-I, 0]]: alpha_1 = e1 - e2 (short),
    alpha_2 = 2 e2 (long)."""
    e = [unit(4, 0, 1) - unit(4, 3, 2), unit(4, 1, 3)]
    return e, [m.T for m in e]


def so5():
    """so(5) on the form with 1 at (0, 0), (1, 3), (3, 1), (2, 4), (4, 2):
    alpha_1 = e1 - e2 (long), alpha_2 = e2 (short)."""
    e = [unit(5, 1, 2) - unit(5, 4, 3), unit(5, 2, 0) - unit(5, 0, 4)]
    return e, [m.T for m in e]


# Kac's Table Fin, a_ij = <alpha_i^vee, alpha_j>, for the labels above
KAC = {"C2": ((2, -2), (-1, 2)), "B2": ((2, -1), (-2, 2))}
FORMS = {"C2": sp.Matrix([[0, 0, 1, 0], [0, 0, 0, 1],
                          [-1, 0, 0, 0], [0, -1, 0, 0]]),
         "B2": sp.Matrix([[1, 0, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1],
                          [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]])}


def weight(h, x):
    """The c with [h, x] = c x."""
    i, j = next((i, j) for i in range(x.rows) for j in range(x.cols)
                if x[i, j])
    c = bracket(h, x)[i, j] / x[i, j]
    assert bracket(h, x) == c * x
    return c


def chevalley(e, f):
    """(e, f, h, a): f_i rescaled so that h_i = [e_i, f_i] has
    alpha_i(h_i) = 2, and Kac's a_ij, after checking the relations."""
    f = [fi * 2 / weight(bracket(ei, fi), ei) for ei, fi in zip(e, f)]
    h = [bracket(ei, fi) for ei, fi in zip(e, f)]
    a = [[int(weight(hi, ej)) for ej in e] for hi in h]
    zero = sp.zeros(*h[0].shape)
    for i, hi in enumerate(h):
        for j, (ej, fj) in enumerate(zip(e, f)):
            assert bracket(hi, fj) == -a[i][j] * fj
            assert bracket(hi, h[j]) == zero
            assert bracket(e[i], fj) == (hi if i == j else zero)
    return e, f, h, a


def to_sympy(expr):
    """A symexpr expression of derivatives of named functions of x, y."""
    total = sp.Integer(0)
    for mono, c in expr.terms.items():
        term = sp.Rational(c.numerator, c.denominator)
        for atom in mono:
            assert not (atom.dp or atom.dm or atom.base_parity), atom
            factor = sp.Function(atom.name)(X, Y)
            if atom.dx or atom.dy:
                factor = factor.diff(*([X] * atom.dx + [Y] * atom.dy))
            term *= factor
        total += term
    return total


def curvature_components(e, f, h, names):
    """{generator: coefficient} of R on the H_i and X+-_i, after checking
    that R has no other component."""
    lo_a, lo_b, up_a, up_b = ([sp.Function(p + s)(X, Y) for s in names]
                              for p in "abAB")
    r = len(e)
    ax = sum((lo_a[i] * h[i] + lo_b[i] * e[i] for i in range(r)),
             sp.zeros(*h[0].shape))
    ay = sum((up_a[i] * h[i] + up_b[i] * f[i] for i in range(r)),
             sp.zeros(*h[0].shape))
    R = ay.diff(X) - ax.diff(Y) + bracket(ax, ay)
    basis = ([(("H", i), h[i]) for i in range(r)]
             + [(("X+", i), e[i]) for i in range(r)]
             + [(("X-", i), f[i]) for i in range(r)])
    M = sp.Matrix.hstack(*(g.reshape(g.rows * g.cols, 1) for _, g in basis))
    vec = R.reshape(R.rows * R.cols, 1)
    coefficients = (M.T * M).inv() * M.T * vec
    residual = (vec - M * coefficients).applyfunc(sp.expand)
    assert residual == sp.zeros(*residual.shape), "R leaves the span"
    return {key: sp.expand(c) for (key, _), c in zip(basis, coefficients)}


@pytest.mark.parametrize("generators, kac", [
    *(pytest.param(sl(n, seed=n), None, id=f"sl{n}") for n in range(2, 7)),
    pytest.param(sp4(), "C2", id="sp4"),
    pytest.param(so5(), "B2", id="so5"),
])
def test_curvature_of_the_matrices_is_the_derived_one(generators, kac):
    e, f, h, a = chevalley(*generators)
    r = len(e)
    if kac is not None:
        assert tuple(map(tuple, a)) == KAC[kac]
        form = FORMS[kac]
        for g in e + f + h:
            assert g.T * form + form * g == sp.zeros(*g.shape)
    A = CartanMatrix.from_rows([[a[j][i] for j in range(r)]
                                for i in range(r)])
    names = ["" if r == 1 else str(i + 1) for i in range(r)]
    want = curvature_components(e, f, h, names)

    cx = {("H", i): fn("a" + s) for i, s in enumerate(names)}
    cx.update({("X+", i): fn("b" + s) for i, s in enumerate(names)})
    cy = {("H", i): fn("A" + s) for i, s in enumerate(names)}
    cy.update({("X-", i): fn("B" + s) for i, s in enumerate(names)})
    gens, operator = _curvature_parts(ChevalleyRelations(A), "dx", cx,
                                      "dy", cy)
    assert operator == {}
    assert set(gens) <= set(want)
    for g, coefficient in want.items():
        got = to_sympy(gens[g]) if g in gens else 0
        assert sp.expand(got - coefficient) == 0, g

    # the first-order equations are the components, each up to its sign
    order = ([("H", i) for i in range(r)] + [("X-", i) for i in range(r)]
             + [("X+", i) for i in range(r)])
    for g, eq in zip(order, derive_toda(A).first_order):
        diff = sp.expand(to_sympy(eq.lhs) - to_sympy(eq.rhs))
        assert 0 in (sp.expand(diff - want[g]), sp.expand(diff + want[g])), g
