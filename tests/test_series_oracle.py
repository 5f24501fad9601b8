"""Coefficient-by-coefficient oracles for exp, ln and inverse.

Jets are checked against sympy's bivariate Taylor coefficients at rational
base points, expanded with sympy's ring series in a scaling variable t
(x - x0 -> t X, y - y0 -> t Y) and with the body kept as a symbol B until
the end.  Superfields are checked against the plain power series in
s = S - body, which needs nothing but superfield products.
"""

from fractions import Fraction

import pytest
import sympy
from sympy.polys.domains import QQ
from sympy.polys.ring_series import rs_exp, rs_log, rs_series_inversion
from sympy.polys.rings import ring

from conftest import random_fraction, random_jet, random_superfield
from zcurv.jets import Jet
from zcurv.scalars import sexp, sinv, sln
from zcurv.superfield import SuperField, standard_gens

K = 6
GENS = standard_gens(2)
B = sympy.Symbol("B")
DOMAIN = QQ.frac_field(B)
RING, T, X, Y = ring("t,X,Y", DOMAIN)

# f(B + s) for a series s without constant term, as (series, constant)
TAYLOR = {
    "exp": lambda s: (rs_exp(s, T, K + 1), 0),
    "ln": lambda s: (rs_log(1 + s * RING(1 / DOMAIN.from_sympy(B)), T, K + 1),
                     sympy.log(B)),
    "inverse": lambda s: (rs_series_inversion(RING(DOMAIN.from_sympy(B)) + s,
                                              T, K + 1), 0),
}

BODIES = {
    "exp": [(Fraction(0), 0), (Fraction(3, 2), sympy.Rational(3, 2)),
            (Fraction(1, 2) + sln(Fraction(2)),
             sympy.Rational(1, 2) + sympy.log(2))],
    "ln": [(Fraction(1), 1), (Fraction(3, 2), sympy.Rational(3, 2)),
           (sexp(Fraction(1, 2)), sympy.exp(sympy.Rational(1, 2)))],
    "inverse": [(Fraction(-2, 3), sympy.Rational(-2, 3)),
                (sexp(Fraction(1, 2)), sympy.exp(sympy.Rational(1, 2)))],
}


def sympy_taylor(op, jet, body):
    """Taylor coefficients of op(jet) to total degree K, keyed by (i, j)."""
    s = RING(0)
    for (i, j), v in jet.coeffs.items():
        if (i, j) != (0, 0):
            s += DOMAIN.convert(sympy.Rational(v.numerator, v.denominator)) \
                * T ** (i + j) * X ** i * Y ** j
    series, constant = TAYLOR[op](s)
    factor = sympy.exp(B) if op == "exp" else 1
    out = {(i, j): DOMAIN.to_sympy(c) * factor
           for (_, i, j), c in series.items()}
    out[(0, 0)] = out.get((0, 0), 0) + constant
    return {key: sympy.sympify(c).subs(B, body) for key, c in out.items()}


@pytest.mark.parametrize("op,body,sym_body", [
    (op, body, sym_body) for op, bodies in BODIES.items()
    for body, sym_body in bodies])
def test_jet_series_match_sympy_taylor(rng, op, body, sym_body):
    for _ in range(3):
        base = (random_fraction(rng), random_fraction(rng))
        poly = random_jet(rng, base, order=K, terms=6)
        jet = poly - poly.body + Jet.constant(body, base, K)
        got = getattr(jet, op)()
        want = sympy_taylor(op, jet, sym_body)
        for i in range(K + 1):
            for j in range(K + 1 - i):
                g, w = got.coefficient(i, j), want.get((i, j), sympy.S.Zero)
                if w.is_Rational:
                    assert g == Fraction(int(w.p), int(w.q)), (i, j)
                    assert isinstance(g, Fraction), (i, j)
                else:
                    assert float(g) == pytest.approx(float(w), rel=1e-12,
                                                     abs=1e-12), (i, j)


def naive_exp(field):
    c, gens = field.body, field.gens
    s = field - SuperField.constant(c, gens, field.base, field.order)
    acc = power = SuperField.constant(1, gens, field.base, field.order)
    for k in range(1, field.order + len(gens) + 1):
        power = power * s * Fraction(1, k)
        acc = acc + power
    return acc * sexp(c)


def naive_ln(field):
    c, gens = field.body, field.gens
    one = SuperField.constant(1, gens, field.base, field.order)
    u = field * sinv(c) - one
    acc, power = SuperField.constant(sln(c), gens, field.base,
                                     field.order), one
    for k in range(1, field.order + len(gens) + 1):
        power = power * u
        acc = acc + power * Fraction((-1) ** (k + 1), k)
    return acc


@pytest.mark.parametrize("op,body", [
    ("exp", Fraction(2)), ("exp", Fraction(1, 2) + sln(Fraction(2))),
    ("ln", Fraction(2)), ("ln", sexp(Fraction(1, 3)))])
def test_superfield_series_match_power_series(rng, op, body):
    naive = naive_exp if op == "exp" else naive_ln
    for gens in (GENS, standard_gens(4)):
        # disjoint generator pairs, so that the top power N^(g/2) of the
        # nilpotent part is not zero
        pairs = {3 << 2 * i: Fraction(i + 1, 2) for i in range(len(gens) // 2)}
        for _ in range(4):
            base = (random_fraction(rng), random_fraction(rng))
            field = random_superfield(rng, gens, base, order=4, parity=0,
                                      comps=4, terms=3)
            field = field - field.body + SuperField.constant(body, gens,
                                                             base, 4)
            field = field + SuperField(gens, base, 4, {
                m: Jet.constant(v, base, 4) for m, v in pairs.items()})
            got, want = getattr(field, op)(), naive(field)
            for mask in range(1 << len(gens)):
                g, w = got.component(mask), want.component(mask)
                for i in range(got.order + 1):
                    for j in range(got.order + 1 - i):
                        assert g.coefficient(i, j) == w.coefficient(i, j), \
                            (mask, i, j)
