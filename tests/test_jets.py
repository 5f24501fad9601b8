import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import DATA, GOLDEN, random_fraction, random_jet
from zcurv import jets, scalars
from zcurv.jets import Jet
from zcurv.scalars import Scalar, sadd, sexp, sinv, sln, smul
from zcurv.solutions import liouville_solution
from zcurv.superfield import SuperField, standard_gens


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


def test_equal_jets_evaluate_to_equal_floats():
    rng = random.Random(8)
    for _ in range(300):
        coeffs = {}
        for d in range(7):
            for i in range(d + 1):
                if rng.random() < 0.6:
                    coeffs[(i, d - i)] = Fraction(
                        rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 999))
        keys = list(coeffs)
        rng.shuffle(keys)
        u = Jet((Fraction(1, 3), 0), 6, coeffs)
        v = Jet(u.base, 6, {k: coeffs[k] for k in keys})
        assert u == v
        x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
        assert u.evaluate(x, y) == v.evaluate(x, y)


def test_truncate_and_max_abs():
    u = 1 + x(6) * 5
    assert u.truncate(0) == Jet.constant(1, order=0)
    assert u.max_abs_coeff() == 5.0
    with pytest.raises(ValueError):
        u.truncate(7)


def test_truncate_rejects_a_negative_order():
    with pytest.raises(ValueError, match="order must be >= 0"):
        Jet.variable("x", (0, 0), 3).truncate(-1)
    with pytest.raises(ValueError, match="order must be >= 0"):
        Jet.zero((0, 0), 3).truncate(-1)
    field = SuperField.coordinate("x", standard_gens(2), order=3)
    with pytest.raises(ValueError, match="order must be >= 0"):
        field.truncate(-1)


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


def test_rational_scalar_coefficients_are_stored_as_fractions():
    two = Jet.constant(Scalar.from_rational(2), order=3)
    assert two == Jet.constant(2, order=3)
    assert isinstance(two.body, Fraction)
    assert hash(two) == hash(Jet.constant(2, order=3))
    assert len({two, Jet.constant(2, order=3)}) == 1
    assert Jet((0, 0), 3, {(1, 1): Scalar.from_rational(0)}).is_zero()


def naive_product(a, b):
    """Reference truncated product: every coefficient pair, summed in
    Fraction | Scalar arithmetic, kept when it lands within the order."""
    out = {}
    for (i1, j1), v1 in a.coeffs.items():
        for (i2, j2), v2 in b.coeffs.items():
            if i1 + i2 + j1 + j2 <= a.order:
                key = (i1 + i2, j1 + j2)
                out[key] = sadd(out.get(key, Fraction(0)), smul(v1, v2))
    return {k: v for k, v in out.items() if v != 0}


SYMBOLS = [sln(Fraction(2)), sexp(Fraction(1, 2)), sexp(Fraction(-1)),
           sadd(Fraction(1), sln(Fraction(3)))]


def _oracle_jet(rng, order, density, symbolic):
    coeffs = {}
    for d in range(order + 1):
        for i in range(d + 1):
            if rng.random() < density:
                v = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                if symbolic and rng.random() < 0.3:
                    v = smul(v, rng.choice(SYMBOLS))
                coeffs[(i, d - i)] = v
    return Jet((Fraction(1, 3), Fraction(-2)), order, coeffs)


@pytest.mark.parametrize("order", range(17))
def test_product_matches_naive_convolution(rng, order):
    cases = [(1.0, False, False), (0.15, False, False),  # integer path
             (0.6, True, False), (0.15, True, True)]  # generic path
    for density, symbolic_a, symbolic_b in cases:
        a = _oracle_jet(rng, order, density, symbolic_a)
        b = _oracle_jet(rng, order, density, symbolic_b)
        for u, v in ((a, b), (b, a), (a, a)):
            prod = u * v
            assert prod.coeffs == naive_product(u, v)
            assert all(c != 0 for c in prod.coeffs.values())
            rational = all(isinstance(c, Fraction) for c in
                           [*u.coeffs.values(), *v.coeffs.values()])
            if rational:
                assert all(isinstance(c, Fraction)
                           for c in prod.coeffs.values())


@pytest.mark.parametrize("order", range(1, 17))
def test_product_cancels_to_exact_zero(rng, order):
    u = _oracle_jet(rng, order, 0.5, False)
    u = u - Jet.constant(u.body, u.base, order) + Fraction(3, 7)
    one = u * u.inverse()
    assert one.coeffs == {(0, 0): Fraction(1)}
    # (a + b)(a - b) == a^2 - b^2: the cross terms cancel exactly
    a = _oracle_jet(rng, order, 0.5, False)
    b = _oracle_jet(rng, order, 0.5, False)
    diff = (a + b) * (a - b) - (a * a - b * b)
    assert diff.is_zero() and diff.coeffs == {}
    # the same with symbolic coefficients, through the generic path
    a5 = a * sln(Fraction(5))
    prod = (a5 + b) * (a5 - b)
    assert prod.coeffs == naive_product(a5 + b, a5 - b)
    assert (prod - (a5 * a5 - b * b)).is_zero()
    x_only = Jet((0, 0), order, {(1, 0): Fraction(1)})
    y_only = Jet((0, 0), order, {(0, 1): Fraction(1, 2)})
    skew = (x_only + y_only) * (x_only - y_only)
    assert (1, 1) not in skew.coeffs


# The object-level recurrence that the integer series kernel replaced,
# kept verbatim as the exact reference.

def _reference_series(parts, first, kind):
    ln = kind == "ln"
    if kind == "exp":
        parts = parts[:1] + [parts[k] * k for k in range(1, len(parts))]
    seq = [None if ln else first]  # E_0 = W_0 = 1, T_0 = 0
    total = first
    for d in range(1, len(parts)):
        acc = parts[d] * d if ln and not parts[d].is_zero() else None
        for k in range(1, d + 1):
            prev = seq[d - k]
            if prev is None or parts[k].is_zero():
                continue
            term = -(parts[k] * prev) if ln else parts[k] * prev
            acc = term if acc is None else acc + term
        if acc is not None and not ln:
            acc = acc * Fraction(1, d) if kind == "exp" else -acc
        seq.append(acc)
        if acc is not None:
            total = total + (acc * Fraction(1, d) if ln else acc)
    return total


def _homogeneous_parts(u):
    """The parts of u by total degree i + j, one jet per degree 0..order."""
    parts = [{} for _ in range(u.order + 1)]
    for (i, j), c in u.coeffs.items():
        parts[i + j][(i, j)] = c
    return [Jet(u.base, u.order, p) for p in parts]


def _reference_exp(u):
    one = Jet.constant(1, u.base, u.order)
    return _reference_series(_homogeneous_parts(u), one, "exp") * sexp(u.body)


def _reference_ln(u):
    c = u.body
    return _reference_series(_homogeneous_parts(u * sinv(c)),
                             Jet.constant(sln(c), u.base, u.order), "ln")


def _reference_inverse(u):
    ic = sinv(u.body)
    one = Jet.constant(1, u.base, u.order)
    return _reference_series(_homogeneous_parts(u * ic), one, "inverse") * ic


def _series_jet(rng, order, shape, max_den, units=None):
    """A jet with a positive rational body: dense parts, x-only parts, or
    sparse parts with whole degrees left empty.  The parts are rational, or
    with ``units`` each coefficient is a rational times one of them."""
    coeffs = {(0, 0): Fraction(rng.randint(1, 50), rng.randint(1, max_den))}
    empty = rng.randint(1, max(order, 1))
    for d in range(1, order + 1):
        for i in range(d + 1):
            if shape == "dense":
                keep = True
            elif shape == "x-only":
                keep = i == d
            else:
                keep = d != empty and rng.random() < 0.3
            if keep:
                coeffs[(i, d - i)] = Fraction(rng.randint(-60, 60),
                                              rng.randint(1, max_den))
                if units:
                    coeffs[(i, d - i)] = smul(coeffs[(i, d - i)],
                                              rng.choice(units))
    return Jet((Fraction(-1, 2), Fraction(2, 3)), order, coeffs)


# Units for the parts of series inputs: exp, ln and root units; unit pairs
# that fold to a rational (2^(1/2) * 2^(1/2) = 2, exp(1/2) * exp(-1/2) = 1);
# and the rational unit next to a non-rational one, also in one coefficient.
ROOT2 = sexp(smul(Fraction(1, 2), sln(Fraction(2))))
SERIES_UNITS = [
    [sexp(Fraction(1, 3)), sln(Fraction(2)), ROOT2],
    [ROOT2, sexp(Fraction(1, 2)), sexp(Fraction(-1, 2))],
    [Fraction(1), sexp(Fraction(2, 5)), sadd(Fraction(1), sln(Fraction(3)))],
]


@pytest.mark.parametrize("order", range(17))
def test_integer_series_matches_the_object_recurrence(order):
    rng = random.Random(1000 + order)
    inputs = [(shape, max_den, None) for shape in ("dense", "x-only", "sparse")
              for max_den in (1, 12, 10 ** 9)]
    if order <= 8:  # unit series gain units with each degree; keeps it quick
        inputs += [(shape, 12, units) for units in SERIES_UNITS
                   for shape in ("dense", "sparse")]
    for shape, max_den, units in inputs:
        u = _series_jet(rng, order, shape, max_den, units)
        for got, want in ((u.exp(), _reference_exp(u)),
                          (u.ln(), _reference_ln(u)),
                          (u.inverse(), _reference_inverse(u))):
            assert got == want
            assert str(got) == str(want)
        w = u - u.body * 2  # a negative body
        assert w.inverse() == _reference_inverse(w)


def test_rational_series_make_no_jet_products(monkeypatch):
    rng = random.Random(5)
    inputs = [_series_jet(rng, 9, "dense", 12),
              _series_jet(rng, 6, "dense", 12, SERIES_UNITS[0])]
    inside = []
    series = jets.degree_series
    mul = Jet.__mul__

    def watched_series(*args):
        inside.append(True)
        try:
            return series(*args)
        finally:
            inside.pop()

    def watched_mul(self, other):
        assert not inside, "Jet product inside the series"
        return mul(self, other)

    monkeypatch.setattr(jets, "degree_series", watched_series)
    monkeypatch.setattr(Jet, "__mul__", watched_mul)
    for u in inputs:
        assert u.exp() == _reference_exp(u)
        assert u.ln() == _reference_ln(u)
        assert u.inverse() == _reference_inverse(u)


def test_series_build_a_fixed_number_of_jets(monkeypatch):
    # the series read the jet's rows directly, so a call builds the scaled
    # input, the series and the scaled result, however high the order
    u = _series_jet(random.Random(9), 9, "dense", 12)
    built = []
    ring_result = jets._ring_result

    def counted(*args):
        built.append(True)
        return ring_result(*args)

    monkeypatch.setattr(jets, "_ring_result", counted)
    for series in (u.exp, u.ln, u.inverse):
        built.clear()
        series()
        assert len(built) <= 3, series.__name__


# Unit rows against coefficient-wise Fraction | Scalar arithmetic.  Besides
# SYMBOLS, 2^(1/2) and exp(-1/2) make unit pairs that fold to a rational:
# 2^(1/2) * 2^(1/2) = 2 and exp(1/2) * exp(-1/2) = 1.
FOLDING = SYMBOLS + [ROOT2, sexp(Fraction(-1, 2))]
_Q0 = Fraction(0)


def _unit_jet(rng, order):
    coeffs = {}
    for d in range(order + 1):
        for i in range(d + 1):
            if rng.random() < 0.7:
                v = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                if rng.random() < 0.6:
                    v = smul(v, rng.choice(FOLDING))
                coeffs[(i, d - i)] = v
    return Jet((Fraction(1, 3), Fraction(-2)), order, coeffs)


def _nonzero(coeffs):
    return {k: v for k, v in coeffs.items() if v != 0}


def _kinds(coeffs):
    return {k: type(v) for k, v in coeffs.items()}


@pytest.mark.parametrize("order", range(1, 9))
def test_unit_rows_match_coefficientwise_arithmetic(order):
    rng = random.Random(1300 + order)
    for _ in range(4):
        a, b = _unit_jet(rng, order), _unit_jet(rng, order)
        ca, cb = a.coeffs, b.coeffs
        keys = {*ca, *cb}
        q = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        s = smul(q, rng.choice(FOLDING))
        cases = [
            (a * b, naive_product(a, b)),
            (a + b, _nonzero({k: sadd(ca.get(k, _Q0), cb.get(k, _Q0))
                              for k in keys})),
            (a - b, _nonzero({k: sadd(ca.get(k, _Q0),
                                      smul(Fraction(-1), cb.get(k, _Q0)))
                              for k in keys})),
            (-a, {k: smul(Fraction(-1), v) for k, v in ca.items()}),
            (a * q, {k: smul(v, q) for k, v in ca.items()}),
            (a * s, _nonzero({k: smul(v, s) for k, v in ca.items()})),
            (a.deriv_x(), {(i - 1, j): smul(v, Fraction(i))
                           for (i, j), v in ca.items() if i}),
            (a.deriv_y(), {(i, j - 1): smul(v, Fraction(j))
                           for (i, j), v in ca.items() if j}),
        ]
        for got, want in cases:
            assert got.coeffs == want
            assert _kinds(got.coeffs) == _kinds(want)
        for j in (a, b, a * b, a * s):
            again = Jet(j.base, j.order, j.coeffs)
            assert again == j
            assert hash(again) == hash(j)
            assert str(again) == str(j)
    x, y = Jet.variable("x", a.base, order), Jet.variable("y", a.base, order)
    for u, v in ((ROOT2, ROOT2), (FOLDING[1], FOLDING[-1])):
        a, b = x * u + Fraction(1, 3) * u, (y - 5) * v
        prod = a * b
        assert prod.coeffs == naive_product(a, b)
        assert all(isinstance(c, Fraction) for c in prod.coeffs.values())


def _pairwise_ln(u):
    """The coefficients of ln u as ln(c) + sum_n (-1)^(n+1) s^n / n with
    c = u's body and s = u / c - 1, by coefficient-wise products."""
    c = u.body
    s = Jet(u.base, u.order, {k: smul(v, sinv(c))
                              for k, v in u.coeffs.items() if k != (0, 0)})
    out = {(0, 0): sln(c)}
    power = s.coeffs
    for n in range(1, u.order + 1):
        for k, v in power.items():
            out[k] = sadd(out.get(k, _Q0), smul(v, Fraction((-1) ** (n + 1), n)))
        power = naive_product(Jet(u.base, u.order, power), s)
    return _nonzero(out)


def test_unit_products_are_per_unit_pair(monkeypatch):
    """exp(x) times 3*exp(y) at (1/2, 1/2) carries exp(1/2) on every
    coefficient: the product multiplies units once per pair of units, not
    once per pair of coefficients.  Both scalars and jets take a unit
    product from _unit_product, so the test counts its calls."""
    base, order = (Fraction(1, 2), Fraction(1, 2)), 16
    f = Jet.variable("x", base, order).exp()
    g = Jet.variable("y", base, order).exp() * 3

    calls = []
    unit_product = scalars._unit_product

    def counted(u, v):
        calls.append((u, v))
        return unit_product(u, v)

    monkeypatch.setattr(scalars, "_unit_product", counted)
    monkeypatch.setattr(jets, "_unit_product", counted)
    prod = f * g
    assert 0 < len(calls) <= len(f.rows) * len(g.rows)
    monkeypatch.undo()
    assert prod.coeffs == naive_product(f, g)

    # F = (1/2) ln(f'g') - (1/2) ln((f + g)^2)
    fp, gp = f.deriv_x(), g.deriv_y()
    s = (f + g).truncate(fp.order)
    lhs = _pairwise_ln(Jet(base, fp.order, naive_product(fp, gp)))
    rhs = _pairwise_ln(Jet(base, fp.order, naive_product(s, s)))
    want = _nonzero({k: smul(sadd(lhs.get(k, _Q0),
                                  smul(Fraction(-1), rhs.get(k, _Q0))),
                             Fraction(1, 2))
                     for k in {*lhs, *rhs}})
    assert liouville_solution(f, g).coeffs == want


# Units are numbered as a process first meets them.  This script meets
# ln(7), exp(1/3) and ln(2) before anything else, and then the units
# exp(k/6) ln(2)^a ln(7)^b of the jet it renders last in descending order,
# the reverse of the order they print in.  Then it runs CLI commands.
FRESH_UNIT_ORDER_SCRIPT = """
import contextlib, io, json, sys
from fractions import Fraction
from zcurv.scalars import sexp, sln, smul
first = [sln(Fraction(7)), sexp(Fraction(1, 3)), sln(Fraction(2))]
for k in range(16, -1, -1):
    for a in (2, 1, 0):
        for b in (2, 1, 0):
            v = sexp(Fraction(k, 6))
            for factor in [first[2]] * a + [first[0]] * b:
                v = smul(v, factor)
from zcurv.cli import main
from zcurv.jets import Jet
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out.append([code, buf.getvalue()])
base = (Fraction(1, 2), Fraction(1, 2))
p = ((Jet.variable("x", base, 4).exp() + sln(Fraction(7)))
     * (Jet.variable("y", base, 4).exp() * sexp(Fraction(1, 3)) + first[2]))
out.append([str(p * p), repr((p * p).evaluate(0.6, 0.4))])
print(json.dumps(out))
"""


def test_unit_order_never_reaches_output(tmp_path):
    doc = tmp_path / "sol.json"
    doc.write_text(json.dumps({"components": ["-2*ln(x+y)"]}))
    argvs = [["verify-liouville", "--f", "x+1", "--g", "y+1", "--order", "8"],
             ["verify-lse", "--cartan", str(DATA / "sl2.cm"), "--solution",
              str(doc), "--form", "lsbis", "--base", "1,1"]]
    env = {**os.environ, "PYTHONPATH": str(Path(jets.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", FRESH_UNIT_ORDER_SCRIPT,
                           json.dumps(argvs)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    liouville, lse, rendered = json.loads(proc.stdout)
    assert liouville == [0, (GOLDEN / "verify_liouville.txt").read_text()]
    assert lse == [0, (GOLDEN / "verify_lse.txt").read_text()]
    base = (Fraction(1, 2), Fraction(1, 2))
    p = ((Jet.variable("x", base, 4).exp() + sln(Fraction(7)))
         * (Jet.variable("y", base, 4).exp() * sexp(Fraction(1, 3))
            + sln(Fraction(2))))
    assert rendered == [str(p * p), repr((p * p).evaluate(0.6, 0.4))]
