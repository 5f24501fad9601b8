"""The zero-curvature derivation against explicit matrices.

Every other check of ``derive`` is relative to zcurv's own bracket rule.
Here the Chevalley generators e_i, f_i, h_i of slN (N = 2..8, nodes
relabelled by a seeded permutation), sp(4) and sp(6) (C2, C3) and so(5)
and so(7) (B2, B3) are explicit sympy matrices.  Kac's a_ij = alpha_j(h_i)
is read off them through [h_i, e_j] = a_ij e_j, and zcurv's Cartan matrix
A is its transpose (Kac, *Infinite Dimensional Lie Algebras*, ch. 1).
For the connection of ``derive_toda``

    A_x = sum_i a_i H_i + b_i X+_i,    A_y = sum_i A_i H_i + B_i X-_i

with function entries, R = dx A_y - dy A_x + [A_x, A_y] must have no
component outside the H_i and X+-_i, and its coefficients must equal those
of ``zerocurv._curvature_parts`` under ``derive_toda``'s names and, up to
sign, ``derive_toda``'s first-order equations.  The B and C matrices are
not symmetric, so the test sees the A_ji orientation of the bracket table.

``derive_toda`` writes its two final forms down from A without deriving
them, so both are derived here, modulo its first-order equations:

* lsbis: with G_j = ln(b_j) + ln(B_j), replacing every derivative of B_j in
  x, of b_j in y and of A_i in x through the first-order equations reduces
  G_j,xy - sum_k A_jk exp(G_k) to 0;
* ls: for invertible A, F = A^-1 G turns the lsbis system into
  F_i,xy = exp(sum_j A_ij F_j), the rendered ``form="ls"`` equations.
"""

import functools
import random

import pytest
import sympy as sp

from zcurv.cartan import CartanMatrix
from zcurv.symexpr import ExpAtom, fn
from zcurv.zerocurv import ChevalleyRelations, _curvature_parts, derive_toda

X, Y = sp.symbols("x y")


def unit(n: int, i: int, j: int):
    m = sp.zeros(n, n)
    m[i, j] = 1
    return m


def bracket(a, b):
    return a * b - b * a


def sl(n: int, seed: int):
    """e_i = E_{i,i+1} and f_i = E_{i+1,i} of sl(n), nodes permuted; no
    invariant form is checked."""
    nodes = random.Random(seed).sample(range(n - 1), n - 1)
    return ([unit(n, i, i + 1) for i in nodes],
            [unit(n, i + 1, i) for i in nodes], None)


def pairing(n: int, sign: int):
    """The 2n x 2n form [[0, I], [sign * I, 0]]."""
    return sp.Matrix(sp.BlockMatrix([[sp.zeros(n), sp.eye(n)],
                                     [sign * sp.eye(n), sp.zeros(n)]]))


def symplectic(n: int):
    """sp(2n) on the form pairing(n, -1), basis vector i of weight e_i and
    n+i of weight -e_i: alpha_i = e_i - e_(i+1) (short) for i < n, alpha_n
    = 2 e_n (long)."""
    m = 2 * n
    e = [unit(m, i, i + 1) - unit(m, n + i + 1, n + i)
         for i in range(n - 1)] + [unit(m, n - 1, m - 1)]
    return e, [g.T for g in e], pairing(n, -1)


def orthogonal(n: int):
    """so(2n+1) on the form diag(1, pairing(n, 1)), basis vector 0 of
    weight 0, i of weight e_i and n+i of weight -e_i: alpha_i = e_i -
    e_(i+1) (long) for i < n, alpha_n = e_n (short)."""
    m = 2 * n + 1
    e = [unit(m, i + 1, i + 2) - unit(m, n + i + 2, n + i + 1)
         for i in range(n - 1)] + [unit(m, n, 0) - unit(m, 0, 2 * n)]
    return e, [g.T for g in e], sp.diag(1, pairing(n, 1))


# Kac's Table Fin, a_ij = <alpha_i^vee, alpha_j>, for the labels above
KAC = {"C2": ((2, -2), (-1, 2)), "B2": ((2, -1), (-2, 2)),
       "C3": ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
       "B3": ((2, -1, 0), (-1, 2, -1), (0, -2, 2))}
# name -> (realization, Kac label or None); the slN nodes are permuted
ALGEBRAS = {**{f"sl{n}": (functools.partial(sl, n, seed=n), None)
               for n in range(2, 9)},
            "sp4": (functools.partial(symplectic, 2), "C2"),
            "sp6": (functools.partial(symplectic, 3), "C3"),
            "so5": (functools.partial(orthogonal, 2), "B2"),
            "so7": (functools.partial(orthogonal, 3), "B3")}


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


def function(name: str):
    return sp.Function(name)(X, Y)


def to_sympy(expr):
    """A symexpr expression of derivatives of named functions of x, y and
    of exps of their rational-linear combinations."""
    total = sp.Integer(0)
    for mono, c in expr.terms.items():
        term = sp.Rational(c.numerator, c.denominator)
        for atom in mono:
            if isinstance(atom, ExpAtom):
                term *= sp.exp(sum(sp.Rational(q.numerator, q.denominator)
                                   * function(name) for q, name in atom.args))
                continue
            assert not (atom.dp or atom.dm or atom.base_parity), atom
            factor = function(atom.name)
            if atom.dx or atom.dy:
                factor = factor.diff(*([X] * atom.dx + [Y] * atom.dy))
            term *= factor
        total += term
    return total


def curvature_components(e, f, h, names):
    """{generator: coefficient} of R on the H_i and X+-_i, after checking
    that R has no other component."""
    lo_a, lo_b, up_a, up_b = ([function(p + s) for s in names]
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


@functools.cache
def realization(name: str):
    """(e, f, h, A) of the algebra ``name`` in ALGEBRAS, with zcurv's A the
    transpose of Kac's a_ij, after checking the Chevalley relations, the
    invariant form and, for B and C, Kac's a_ij."""
    realize, kac = ALGEBRAS[name]
    e, f, form = realize()
    e, f, h, a = chevalley(e, f)
    if kac is not None:
        assert tuple(map(tuple, a)) == KAC[kac]
    if form is not None:
        for g in e + f + h:
            assert g.T * form + form * g == sp.zeros(*g.shape)
    r = len(e)
    return e, f, h, CartanMatrix.from_rows([[a[j][i] for j in range(r)]
                                            for i in range(r)])


def suffixes(r: int) -> list[str]:
    """``derive_toda``'s index suffixes of rank r."""
    return ["" if r == 1 else str(i + 1) for i in range(r)]


@pytest.mark.parametrize("name", ALGEBRAS)
def test_curvature_of_the_matrices_is_the_derived_one(name):
    e, f, h, A = realization(name)
    r = len(e)
    names = suffixes(r)
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


def first_order_rules(system, names):
    """{derivative: value}: ``system``'s first-order equations solved for
    A_i,x, B_j,x and b_j,y, one equation each and each linear in it."""
    targets = {sp.Derivative(function(p + s), v)
               for s in names for p, v in (("A", X), ("B", X), ("b", Y))}
    rules = {}
    for eq in system.first_order:
        diff = sp.expand(to_sympy(eq.lhs) - to_sympy(eq.rhs))
        (target,) = diff.atoms(sp.Derivative) & targets
        c = diff.coeff(target)
        assert c.is_number and c != 0, eq.render()
        rules[target] = sp.expand(target - diff / c)
        assert target not in rules[target].atoms(sp.Derivative)
    assert set(rules) == targets
    return rules


def reduce(expr, rules):
    """``expr`` with each derivative that differentiates a left side of
    ``rules`` replaced by that derivative of its right side, until none is
    left."""
    while True:
        for d in expr.atoms(sp.Derivative):
            counts = dict(d.variable_count)
            key = next((k for k in (sp.Derivative(d.expr, v) for v in counts)
                        if k in rules), None)
            if key is not None:
                (v,) = key.variables
                counts[v] -= 1
                value = rules[key]
                for w, n in counts.items():
                    value = value.diff(w, n)
                expr = expr.xreplace({d: value})
                break
        else:
            return expr


@pytest.mark.parametrize("name", ALGEBRAS)
def test_lsbis_follows_from_the_first_order_equations(name):
    _, _, _, A = realization(name)
    names = suffixes(A.rank)
    system = derive_toda(A, form="lsbis")
    rules = first_order_rules(system, names)
    g = {function("G" + s): sp.log(function("b" + s))
         + sp.log(function("B" + s)) for s in names}
    for s, eq in zip(names, system.final):
        assert to_sympy(eq.lhs) == function("G" + s).diff(X, Y)
        # G_j,y first, then its x derivative, each reduced and expanded
        g_y = sp.expand(reduce(g[function("G" + s)].diff(Y), rules))
        g_xy = sp.expand(reduce(g_y.diff(X), rules))
        rhs = sp.expand(to_sympy(eq.rhs).xreplace(g))
        assert g_xy - rhs == 0, eq.render()


@pytest.mark.parametrize("name", ALGEBRAS)
def test_ls_is_lsbis_under_f_equal_to_inverse_a_g(name):
    _, _, _, A = realization(name)
    names = suffixes(A.rank)
    lsbis, ls = (derive_toda(A, form=form).final for form in ("lsbis", "ls"))
    inverse = sp.Matrix(A.entries).inv()
    fs = inverse * sp.Matrix([function("G" + s) for s in names])
    f_of_g = {function("F" + s): fi for s, fi in zip(names, fs)}
    # F_i,xy = sum_j (A^-1)_ij G_j,xy, with G_j,xy from the lsbis system
    g_xy = [to_sympy(eq.rhs) for eq in lsbis]
    for i, (s, eq) in enumerate(zip(names, ls)):
        assert to_sympy(eq.lhs) == function("F" + s).diff(X, Y)
        lhs = sum(inverse[i, j] * g_xy[j] for j in range(A.rank))
        rhs = to_sympy(eq.rhs).xreplace(f_of_g)
        assert sp.expand(lhs - rhs) == 0, eq.render()
