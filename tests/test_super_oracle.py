"""The osp(1|2) derivations against an explicit operator realization.

``derive-super`` and ``obstruction`` are otherwise checked only against
zcurv's own algebra.  Here the reduced connection acts, as an operator, on
columns of generic superfields built from this file's own Grassmann
algebra and its own 3x3 osp(1|2) matrices; nothing comes from
``superalg`` or ``superfield``.

* A Grassmann element maps strictly increasing tuples of generators (xi = 0,
  eta = 1, then one fresh tau_k per odd-valued component function) to
  sympy expressions in x and y.
* A generic superfield of parity p is sum_S theta_S f_S(x, y) over
  S in {(), xi, eta, xi eta}; a component with |S| + p odd carries its own
  tau_k.  D+ = d/d(xi) + xi dx and D- = d/d(eta) + eta dy, both acting from
  the left.
* The matrices act on right coordinates, rows of parity (even, odd, even):
  c (x) g has the entries (-1)^(|c| p_i) c g_ij, and a connection
  nabla = D + A acts as (nabla Psi)^i = (-1)^(p_i) D Psi^i + sum_j A^i_j Psi^j.

An operator's matrix is read column by column from the basis vectors, and
compared with the envelope sum_g R_g (x) g of zcurv's components, whose
atoms are turned into derivatives of the generic superfields.
"""

import itertools
import re

import pytest
import sympy as sp

from zcurv.symexpr import Atom, ExpAtom
from zcurv.zerocurv import (_curvature_parts, _super_pair,
                            derive_super_liouville, nonreduced_obstruction)

X, Y = sp.symbols("x y")
XI, ETA = 0, 1
_TAU = itertools.count(2)
P = (0, 1, 0)  # row parities


class Gr:
    """A Grassmann element; repeated monomials are summed, zeros dropped."""

    def __init__(self, pairs=()):
        terms = {}
        for m, c in pairs:
            terms[m] = terms.get(m, sp.S.Zero) + c
        self.terms = {m: c for m, c in terms.items() if c != 0}

    def __add__(self, other):
        return Gr([*self.terms.items(), *other.terms.items()])

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if not isinstance(other, Gr):
            return Gr((m, c * other) for m, c in self.terms.items())
        return Gr((tuple(sorted(m1 + m2)), _sign(m1, m2) * c1 * c2)
                  for m1, c1 in self.terms.items()
                  for m2, c2 in other.terms.items() if not set(m1) & set(m2))

    def parity(self):
        parities = {len(m) % 2 for m in self.terms}
        assert len(parities) <= 1, "inhomogeneous Grassmann element"
        return parities.pop() if parities else 0

    def map(self, f):
        return Gr((m, f(c)) for m, c in self.terms.items())

    def is_zero(self):
        return all(sp.expand(c) == 0 for c in self.terms.values())


ONE = Gr([((), 1)])


def _sign(m1, m2):
    """The sign that sorts theta_m1 theta_m2: one per inverted pair."""
    return (-1) ** sum(a > b for a in m1 for b in m2)


def d_theta(v, k):
    """The left derivative d/d(theta_k)."""
    return Gr((m[:m.index(k)] + m[m.index(k) + 1:], (-1) ** m.index(k) * c)
              for m, c in v.terms.items() if k in m)


def d_plus(v):
    return d_theta(v, XI) + Gr([((XI,), 1)]) * v.map(lambda c: c.diff(X))


def d_minus(v):
    return d_theta(v, ETA) + Gr([((ETA,), 1)]) * v.map(lambda c: c.diff(Y))


def g_exp(v):
    """exp of an even element: the body's exp times the finite series of
    the nilpotent rest."""
    body = v.terms.get((), 0)
    rest, power, total = v - ONE * body, ONE, ONE
    for k in itertools.count(1):
        power = power * rest * sp.Rational(1, k)
        if not power.terms:
            return total * sp.exp(body)
        total = total + power


def superfield(name, parity):
    return Gr((S + ((next(_TAU),) if (len(S) + parity) % 2 else ()),
               sp.Function(f"{name}_{''.join('xe'[k] for k in S)}")(X, Y))
              for S in ((), (XI,), (ETA,), (XI, ETA)))


def atom_value(a, env):
    """An atom's derivative word dx^i dy^j (D+)^e+ (D-)^e- f on env[f]."""
    if isinstance(a, ExpAtom):
        return g_exp(sum((env[n] * sp.Rational(c) for c, n in a.args), Gr()))
    v = env[a.name]
    assert v.parity() == a.base_parity
    v = d_minus(v) if a.dm else v
    v = d_plus(v) if a.dp else v
    return v.map(lambda c: c.diff(X, a.dx, Y, a.dy))


def monomial_value(q, mono, env):
    term = ONE * sp.Rational(q)
    for a in mono:
        term = term * atom_value(a, env)
    return term


def expr_value(expr, env):
    return sum((monomial_value(q, mono, env)
                for mono, q in expr.terms.items()), Gr())


def unit(i, j):
    m = sp.zeros(3, 3)
    m[i, j] = 1
    return m


MATRICES = {"H": sp.diag(1, 0, -1), "X+": unit(0, 2), "X-": unit(2, 0),
            "d+": unit(0, 1) - unit(1, 2), "d-": unit(1, 0) + unit(2, 1)}


def matrix_parity(m):
    parities = {(P[i] + P[j]) % 2
                for i, j in itertools.product(range(3), repeat=2) if m[i, j]}
    assert len(parities) == 1
    return parities.pop()


def envelope(components):
    """The matrix of sum_g R_g (x) g, from generator name to R_g."""
    out = [[Gr() for _ in range(3)] for _ in range(3)]
    for g, r in components.items():
        for i, j in itertools.product(range(3), repeat=2):
            if MATRICES[g][i, j]:
                sign = (-1) ** (r.parity() * P[i])
                out[i][j] = out[i][j] + r * (sign * MATRICES[g][i, j])
    return out


def apply(matrix, psi):
    return [sum((matrix[i][j] * psi[j] for j in range(3)), Gr())
            for i in range(3)]


def nabla(D, coeffs, env):
    """nabla = D + sum_g c_g g for zcurv's coefficients {(name, 0): Expr}."""
    A = envelope({g: expr_value(c, env) for (g, _), c in coeffs.items()})
    return lambda psi: [D(c) * (-1) ** p + a
                        for c, p, a in zip(psi, P, apply(A, psi))]


def columns(op):
    """The matrix of an operator read off the basis vectors."""
    cols = [op([ONE if k == j else Gr() for k in range(3)]) for j in range(3)]
    return [[cols[j][i] for j in range(3)] for i in range(3)]


def same(u, v):
    return all((a - b).is_zero() for a, b in zip(u, v))


def anticommutator(n1, n2):
    return lambda psi: [a + b for a, b in zip(n1(n2(psi)), n2(n1(psi)))]


def generic_psi():
    return [superfield(f"psi{i}", p) for i, p in enumerate(P)]


def reduced_pair(env):
    _, cplus, cminus = _super_pair()
    return nabla(d_plus, cplus, env), nabla(d_minus, cminus, env)


ENV = {"alpha": superfield("alpha", 1), "a": superfield("a", 0),
       "beta": superfield("beta", 1), "b": superfield("b", 0)}


def test_matrices_have_the_printed_bracket_table():
    note = derive_super_liouville().notes[0]
    assert note.startswith("bracket table (matrix oracle): ")
    entries = note.split(": ", 1)[1].split(", ")
    assert len(entries) == 5
    for entry in entries:
        kind, g, h, coef, k = re.fullmatch(
            r"([\[{])(.+),(.+)[\]}] = (-?\d*)\*?(.+)", entry).groups()
        a, b = MATRICES[g], MATRICES[h]
        odd = matrix_parity(a) * matrix_parity(b)
        assert kind == ("{" if odd else "[")
        coef = int(coef + "1" if coef in ("", "-") else coef)
        assert a * b - (-1) ** odd * b * a == coef * MATRICES[k]


def test_reduced_curvature_is_the_envelope_of_curvature_parts():
    rel, cplus, cminus = _super_pair()
    gens, operator = _curvature_parts(rel, "D+", cplus, "D-", cminus)
    assert operator == {}
    expected = envelope({g: expr_value(c, ENV) for (g, _), c in gens.items()})
    got = columns(anticommutator(*reduced_pair(ENV)))
    assert all(same(row, exp_row) for row, exp_row in zip(got, expected))


def test_reduced_curvature_is_a_multiplication_operator():
    curv = anticommutator(*reduced_pair(ENV))
    psi = generic_psi()
    assert same(curv(psi), apply(columns(curv), psi))


@pytest.mark.parametrize("k, dx", [(0, X), (1, Y)], ids=["D+", "D-"])
def test_squares_are_the_derivative_plus_the_halved_obstruction(k, dx):
    """Each obstruction equation is linear in one generator (or d_x, d_y)
    atom per monomial; moved right of the other atoms, it leaves that
    generator's coefficient, and (nabla+-)^2 = sum_g c_g (x) g."""
    eq = nonreduced_obstruction().final[k]
    assert eq.rhs.is_zero()
    parts = {}
    for mono, q in eq.lhs.terms.items():
        (i,) = [i for i, a in enumerate(mono)
                if a.name in MATRICES or a.name in ("d_x", "d_y")]
        g, rest = mono[i], mono[:i] + mono[i + 1:]
        if g.name in MATRICES:
            assert g.base_parity == matrix_parity(MATRICES[g.name])
        after = sum((a.base_parity + a.dp + a.dm) % 2 for a in mono[i + 1:])
        q *= (-1) ** (g.base_parity * after)
        parts[g.name] = parts.get(g.name, Gr()) + monomial_value(q, rest, ENV)
    operator = parts.pop(f"d_{dx}")
    square = reduced_pair(ENV)[k]
    psi = generic_psi()
    expected = [operator * c.map(lambda f: f.diff(dx)) + e
                for c, e in zip(psi, apply(envelope(parts), psi))]
    assert same(square(square(psi)), expected)


@pytest.mark.parametrize("sign", [1, -1])
def test_eliminated_curvature_is_the_second_order_equation(sign):
    """alpha = D+(ln b), beta = -D-(ln a): {nabla+, nabla-} is minus
    (D+D-F - sign * exp(F)) (x) H, F = ln(a b), only for sign +1."""
    system = derive_super_liouville()
    assert system.defs == ("F = ln(a*b)",)
    lna, lnb = superfield("lna", 0), superfield("lnb", 0)
    env = {"a": g_exp(lna), "b": g_exp(lnb), "alpha": d_plus(lnb),
           "beta": d_minus(lna) * -1, "F": lna + lnb}
    (final,) = system.final
    assert final.lhs.terms == {(Atom("F", dp=1, dm=1),): 1}
    residual = expr_value(final.lhs, env) - expr_value(final.rhs, env) * sign
    expected = envelope({"H": residual * -1})
    got = columns(anticommutator(*reduced_pair(env)))
    holds = all(same(row, exp_row) for row, exp_row in zip(got, expected))
    assert holds == (sign == 1)
