import math
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from zcurv import scalars
from zcurv.scalars import (_MR_EXACT_BELOW, MAX_COFACTOR_BITS, MAX_UNITS,
                           Scalar, _factor, _short, exact, sexp, sinv, sln,
                           unit_terms)


def test_ln_expands_over_primes():
    assert sln(Fraction(12)) == 2 * sln(Fraction(2)) + sln(Fraction(3))
    assert sln(Fraction(1)) == Fraction(0)
    assert sln(Fraction(1, 2)) == -sln(Fraction(2))


def test_ln_is_additive_on_products():
    a, b = Fraction(6), Fraction(35, 4)
    assert sln(a) + sln(b) == sln(a * b)


def test_exp_inverts_ln():
    for q in (Fraction(2), Fraction(3, 7), Fraction(12), Fraction(1)):
        assert sexp(sln(q)) == q


def test_exp_of_rational_is_symbolic_and_exact():
    e3 = sexp(Fraction(3))
    assert isinstance(e3, Scalar)
    assert e3 * sexp(Fraction(-3)) == Fraction(1)


def test_fractional_prime_powers_fold():
    root2 = sexp(Fraction(1, 2) * sln(Fraction(2)))
    assert root2 * root2 == Fraction(2)
    # integer part of the exponent moves into the coefficient
    assert Fraction(2) * root2 == sexp(Fraction(3, 2) * sln(Fraction(2)))


def test_inverse():
    e2 = sexp(Fraction(2))
    assert sinv(e2) * e2 == Fraction(1)
    assert sinv(Fraction(3, 4)) == Fraction(4, 3)
    with pytest.raises(ValueError):
        sinv(sln(Fraction(2)))  # 1/ln(2) is outside the ring
    with pytest.raises(ValueError):
        sinv(Fraction(1) + sln(Fraction(2)))


def test_ln_rejects_nonpositive_and_multi_term():
    with pytest.raises(ValueError):
        sln(Fraction(0))
    with pytest.raises(ValueError):
        sln(Fraction(-2))
    with pytest.raises(ValueError):
        sln(Fraction(1) + sln(Fraction(2)))


def test_ln_rejects_ln_factors():
    ln2 = sln(Fraction(2))
    with pytest.raises(ValueError) as err:
        ln2.ln()
    assert str(err.value) == "ln not defined on scalar with ln factors: ln(2)"


def test_exp_rejects_nonlinear_log_terms():
    ln2 = sln(Fraction(2))
    with pytest.raises(ValueError):
        (ln2 * ln2).exp()


def test_float_conversion():
    import math
    assert float(sexp(Fraction(1))) == pytest.approx(math.e)
    v = Fraction(1, 2) + sln(Fraction(3))
    assert float(v) == pytest.approx(0.5 + math.log(3.0))


def test_rational_downcast():
    # sexp, sln and the ring operations hand back plain Fractions whenever
    # the value is rational
    assert isinstance(sexp(Fraction(0)), Fraction)
    assert isinstance(sln(Fraction(8)), Scalar)
    assert isinstance(sexp(Fraction(1)) * sexp(Fraction(-1)), Fraction)


def test_equality_and_hash():
    a = sln(Fraction(2)) + sln(Fraction(3))
    b = sln(Fraction(6))
    assert a == b and hash(a) == hash(b)


def test_rational_factor_matches_the_ring_product():
    values = [sln(Fraction(12)), sexp(Fraction(2, 3)),
              sexp(Fraction(1)) + sln(Fraction(5, 2)),
              sexp(Fraction(1, 2) * sln(Fraction(3)))]
    for s in values:
        for q in (Fraction(0), Fraction(-3, 4), Fraction(7)):
            # a rational factor scales each term and leaves the units as
            # they are
            scaled = exact({u: c * q for u, c in s._terms.items()})
            for got in (s * q, q * s):
                assert got == scaled
                if q:
                    assert (list(got._terms.items())
                            == list(scaled._terms.items()))


_UNITS = (lambda q: q, lambda q: q * sexp(Fraction(1, 3)),
          lambda q: q * sexp(Fraction(-2)),
          lambda q: q * sln(Fraction(2)),
          lambda q: q * sln(Fraction(5)),
          lambda q: q * sexp(sln(Fraction(3)) * Fraction(1, 2)))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.lists(st.tuples(st.sampled_from(range(len(_UNITS))),
                          st.fractions(min_value=-50, max_value=50,
                                       max_denominator=30)),
                min_size=2, max_size=6),
       st.randoms(use_true_random=False))
def test_equal_scalars_convert_to_equal_floats(terms, shuffler):
    """The float of a scalar depends on its value, not on term order."""
    parts = [_UNITS[u](q) for u, q in terms]
    forward = Fraction(0)
    for p in parts:
        forward = forward + p
    shuffler.shuffle(parts)
    backward = Fraction(0)
    for p in reversed(parts):
        backward = backward + p
    assert forward == backward
    assert float(forward) == float(backward)


def test_float_sums_in_sorted_unit_order_past_an_intermediate_overflow():
    """fsum raises when a partial sum leaves the float range, so the unit
    order of a sum near the top of that range decides whether it converts."""
    e = sexp(Fraction(709))
    a = e
    b = e * sexp(Fraction(1, 2) * sln(Fraction(2)))
    c = e * sexp(Fraction(1, 2) * sln(Fraction(3)))
    forward = a + c - b
    backward = a - b + c
    assert forward == backward
    assert float(forward) == float(backward) == 1.0830523449032066e+308
    # the terms of forward in insertion order, a + c first, overflow
    with pytest.raises(OverflowError, match="intermediate overflow"):
        math.fsum([float(a), float(c), -float(b)])


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.one_of(st.integers(min_value=1, max_value=10**6 - 1),
                 st.integers(min_value=1, max_value=10**24 - 1)))
def test_factor_matches_sympy(n):
    assert _factor(n) == sympy.factorint(n)


# 1, a composite trial divisor, the last trial divisors 991 and 997, and the
# first prime past them, 1009
@pytest.mark.parametrize("n", [1, 25, 991 * 997, 997**2, 997 * 1009,
                               1009**2, 6 * 999983])
def test_factor_around_the_last_trial_divisors(n):
    assert _factor(n) == sympy.factorint(n)


@pytest.mark.parametrize("n", [
    10**20 + 2,                       # 2 * 3 * 155977777 * 106852828571
    1009**10,                         # past the Miller-Rabin bound
    1000003**2,                       # a square of a prime past trial division
    (10**12 + 39) * (10**12 + 61),    # two primes near the largest rho needs
    318665857834031151167461,         # strong pseudoprime to bases 2 to 37
])
def test_factor_splits_large_cofactors(n):
    assert _factor(n) == sympy.factorint(n)


def test_factor_halves_a_square_past_the_bound():
    p, q = 10000000019, 30000000001  # sympy.nextprime(10^10), (3*10^10)
    assert (p * q) ** 2 >= _MR_EXACT_BELOW > p * q
    assert _factor((p * q) ** 2) == {p: 2, q: 2}
    assert _factor(6 * (p * q) ** 2) == {2: 1, 3: 1, p: 2, q: 2}


@pytest.mark.parametrize("n,cofactor", [
    (2**89 - 1, 2**89 - 1),                       # a prime past the bound
    (10**40 + 2, (10**40 + 2) // 6),              # no small factor to peel
])
def test_factor_rejects_what_it_cannot_decide(n, cofactor):
    assert cofactor >= _MR_EXACT_BELOW
    with pytest.raises(ValueError, match=f"cannot factor {n} exactly: its "
                       f"factor {cofactor} "):
        _factor(n)


def test_factor_splits_squares_before_the_cofactor_limit():
    # 1009^400 has 3,990 bits: the square split takes it down to 1009^25
    # before the limit is applied; 1009^401 is no square and is refused
    assert (1009**25).bit_length() <= MAX_COFACTOR_BITS
    assert (1009**400).bit_length() > MAX_COFACTOR_BITS
    assert _factor(1009**400) == {1009: 400}
    n = 1009**401
    with pytest.raises(ValueError) as err:
        _factor(n)
    assert str(err.value) == (
        f"cannot factor {_short(n)} exactly: its factor {_short(n)} has "
        f"{n.bit_length()} bits, past the limit of {MAX_COFACTOR_BITS}")


def _factor_one_at_a_time(n: int) -> dict[int, int]:
    """The trial division _factor used before it stripped whole powers: one
    division per factor.  For the smooth numbers below it is complete."""
    out, rest = {}, n
    for d in scalars._TRIAL_DIVISORS:
        while rest % d == 0:
            out[d] = out.get(d, 0) + 1
            rest //= d
    assert rest == 1
    return out


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.lists(st.tuples(st.sampled_from([2, 3, 5, 7, 11, 13, 997]),
                          st.integers(0, 300)), max_size=5))
def test_factor_strips_powers_like_one_division_at_a_time(powers):
    n = math.prod(p**e for p, e in powers)
    assert _factor(n) == _factor_one_at_a_time(n)


def test_a_prime_power_factors_in_few_divisions():
    # one division per factor took 0.1 s at 2^20000 and 0.4 s at 2^40000,
    # quadratic in the exponent; 2^600000 would take minutes
    start = time.perf_counter()
    assert _factor(2**600000 * 3**1000) == {2: 600000, 3: 1000}
    assert _factor(997**50001) == {997: 50001}
    assert time.perf_counter() - start < 3


def test_short_form_matches_str():
    # powers of ten and their neighbours, where a digit count read off the
    # bit length is off by one if anywhere
    for k in [*range(1, 400), 1000, 4299]:
        for n in (10**k - 1, 10**k, 10**k + 7, 3 * 10**k // 7, -(10**k)):
            text = str(n)
            digits = len(text.lstrip("-"))
            if digits <= 48:
                assert _short(n) == text
            else:
                sign = "-" if n < 0 else ""
                assert _short(n) == (f"{sign}{text.lstrip('-')[:24]}..."
                                     f"{text[-24:]} ({digits} digits)")


def test_short_form_past_the_str_digit_limit():
    n = 10**20000 + 12345
    assert _short(n) == ("1" + "0" * 23 + "..." + "0" * 19 + "12345"
                         + " (20001 digits)")
    assert _short(-n).startswith("-1000")


def test_str_prints_long_integers_short():
    # each rational of a term (coefficient, exp argument, prime exponent)
    # prints as str() would, with long integers in _short's form
    v = Fraction(7, 3) * sexp(Fraction(1, 2)) + sln(Fraction(12))
    assert str(v) == "2*ln(2) + ln(3) + (7/3)*exp(1/2)"
    assert str(sexp(Fraction(1, 2) * sln(Fraction(2)) + Fraction(1, 3))) \
        == "exp(1/3)*2^(1/2)"
    big = 10**5000 + 1  # str() of it passes Python's 4,300-digit limit
    v = Fraction(big, 3) * sexp(Fraction(-big, 7)) + Fraction(-big)
    assert str(v) == (f"({_short(big)}/3)*exp({_short(-big)}/7) + "
                      f"{_short(-big)}")
    assert len(str(v)) < 250


# The ring against sympy: each unit exp(r) * prod p^c * prod ln(q)^m maps to
# its sympy expression, so a scalar maps to a sum of sympy terms.
def _sympy_terms(v):
    if isinstance(v, Fraction):
        return [sympy.Rational(v.numerator, v.denominator)] if v else []
    terms = []
    for u, c in v._terms.items():
        r, logs, pows = scalars._UNITS[u]
        term = sympy.Rational(c.numerator, c.denominator) * sympy.exp(
            sympy.Rational(r.numerator, r.denominator))
        for p, e in logs:
            term *= sympy.Integer(p) ** sympy.Rational(e.numerator,
                                                       e.denominator)
        for q, m in pows:
            term *= sympy.log(q) ** m
        terms.append(term)
    return terms


def _sympy(v):
    return sympy.Add(*_sympy_terms(v))


def _same(expr, want):
    return sympy.expand(expr - want) == 0


ROOT3 = sexp(Fraction(1, 2) * sln(Fraction(3)))
CBRT2 = sexp(Fraction(1, 3) * sln(Fraction(2)))
# units without ln factors, then units with them
_PLAIN = [Fraction(1), sexp(Fraction(1, 3)), sexp(Fraction(-2)), ROOT3,
          CBRT2, sexp(Fraction(1, 2)) * CBRT2]
_ORACLE_UNITS = _PLAIN + [sln(Fraction(2)), sln(Fraction(5)),
                          ROOT3 * sln(Fraction(3))]
_RATS = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def _combination(pairs):
    out = Fraction(0)
    for u, q in pairs:
        out = out + q * _ORACLE_UNITS[u]
    return out


_SUMS = st.lists(st.tuples(st.integers(0, len(_ORACLE_UNITS) - 1), _RATS),
                 min_size=1, max_size=4).map(_combination)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(_SUMS, _SUMS, st.integers(0, len(_PLAIN) - 1),
       _RATS.filter(bool), st.lists(_RATS, min_size=4, max_size=4))
def test_scalar_ring_matches_sympy(a, b, plain, q, exponent):
    """Products, inverse, exp, ln and float against sympy's own rules."""
    product = a * b
    assert _same(_sympy(product), _sympy(a) * _sympy(b))
    single = q * _PLAIN[plain]
    assert _same(_sympy(sinv(single)) * _sympy(single), 1)
    positive = abs(q) * _PLAIN[plain]
    assert _same(_sympy(sln(positive)), sympy.expand_log(
        sympy.log(_sympy(positive)), force=True, factor=True))
    r, *logs = exponent
    arg = r
    for p, c in zip((2, 3, 5), logs):
        arg = arg + c * sln(Fraction(p))
    assert _same(_sympy(sexp(arg)), sympy.exp(_sympy(arg)))
    for v in (a, b, product, sinv(single), sln(positive), sexp(arg)):
        terms = _sympy_terms(v)
        scale = sum(abs(float(sympy.N(t, 30))) for t in terms)
        want = float(sympy.N(sympy.Add(*terms), 30))
        assert abs(float(v) - want) <= 1e-14 * scale


# Every exact value is canonical: a Fraction exactly when it is rational,
# with sympy deciding rationality, and otherwise a Scalar.
def _assert_canonical(v):
    assert type(v) in (Fraction, Scalar), v
    rational = isinstance(sympy.expand(_sympy(v)), sympy.Rational)
    assert isinstance(v, Fraction) == rational, v


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(_SUMS, _SUMS, st.integers(0, len(_PLAIN) - 1), _RATS.filter(bool),
       _RATS, st.lists(_RATS, min_size=4, max_size=4))
def test_every_exact_value_is_canonical(a, b, plain, k, q, exponent):
    from zcurv.exprparse import eval_jet, parse_expression
    from zcurv.jets import Jet

    r, *logs = exponent
    arg = r
    for p, c in zip((2, 3, 5), logs):
        arg = arg + c * sln(Fraction(p))
    single, positive = k * _PLAIN[plain], abs(k) * _PLAIN[plain]
    inv = sinv(single)
    values = [a, b, a + b, a - b, b - a, a * b, -a, a + q, (a + q) - a,
              a * q, q - a, single * inv, inv, inv * inv * single,
              sexp(arg), sexp(r), sexp(sln(positive)), sln(positive),
              sln(abs(q) + 1), sinv(q or 1)]
    for v in values:
        _assert_canonical(v)
    base = (Fraction(1, 2), Fraction(-1, 3))
    x, y = Jet.variable("x", base, 3), Jet.variable("y", base, 3)
    jet = (x * single + a) * (y * inv + b) - x * y
    for v in (jet.body, jet.coefficient(1, 0), jet.coefficient(1, 1),
              *jet.coeffs.values()):
        _assert_canonical(v)
    memo = {}
    text = (f"exp({r})*exp(-({r})) + ln(exp({r})) + exp(ln(2)/2)^2"
            f" + (exp(1/3) + {q}) - exp(1/3) + exp({r})/exp({r})^2")
    want = Jet.constant(3 + r + q + sexp(-r), base, 3)
    assert eval_jet(parse_expression(text), x, y, memo) == want
    folded = [v for v in memo.values() if not isinstance(v, Jet)]
    assert len(folded) > 10
    for v in folded:
        _assert_canonical(v)


@pytest.mark.parametrize("terms", [{}, {0: Fraction(3, 4)}, {0: Fraction(0)},
                                   {0: Fraction(2), 5: Fraction(0)}])
def test_a_scalar_refuses_rational_terms(terms):
    with pytest.raises(ValueError, match="rational terms make no Scalar"):
        Scalar(terms)


def test_a_scalar_from_unit_terms():
    # the public constructor keeps the nonzero terms, in a dict of its own
    (e1, _), = unit_terms(sexp(Fraction(1)))
    (e2, _), = unit_terms(sexp(Fraction(2)))
    terms = {0: Fraction(1, 2), e1: Fraction(-3), e2: Fraction(0)}
    v = Scalar(terms)
    terms[e2] = Fraction(5)
    assert v._terms == {0: Fraction(1, 2), e1: Fraction(-3)}
    assert v == Fraction(1, 2) - 3 * sexp(Fraction(1))
    assert str(v) == "(1/2) + -3*exp(1)"
    assert Scalar({e2: Fraction(2)}) == 2 * sexp(Fraction(2))


_MADE_RATS = st.fractions(min_value=-5, max_value=5, max_denominator=6)
# exact values whose units come from sexp and sln of rationals: exp(r)
# times prime powers, and ln(p)
_POSITIVE = st.fractions(min_value=Fraction(1, 30), max_value=30,
                         max_denominator=30)
_MADE = st.one_of(
    st.builds(lambda r, c, q: sexp(r + c * sln(q)), _MADE_RATS, _MADE_RATS,
              _POSITIVE),
    st.builds(sln, _POSITIVE))


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(_MADE, _MADE, _MADE)
def test_unit_products_are_integer_multiples(a, b, c):
    """A unit's prime exponents lie in [0, 1), so a product of two units
    folds out a positive integer: u * v == m * w with m an int >= 1."""
    one = Fraction(1)
    for u, _ in unit_terms(a * b):
        for v, _ in [*unit_terms(a), *unit_terms(c)]:
            w, m = scalars._unit_product(u, v)
            assert type(w) is type(m) is int and m >= 1
            assert 0 <= w < len(scalars._UNITS)
            left, right = exact({u: one}), exact({v: one})
            assert left * right == exact({w: Fraction(m)})
            assert math.isclose(float(left) * float(right),
                                m * float(exact({w: one})), rel_tol=1e-12)


def _exp_sum(n):
    """exp(1) + ... + exp(n): a value of n units."""
    return exact({u: c for k in range(1, n + 1)
                  for u, c in unit_terms(sexp(Fraction(k)))})


def test_an_exact_value_holds_at_most_max_units():
    from zcurv.jets import Jet

    most = _exp_sum(MAX_UNITS - 1) + 1
    assert len(most._terms) == MAX_UNITS
    assert most - 1 == _exp_sum(MAX_UNITS - 1)
    past = f"of {MAX_UNITS + 1} units is past the limit of {MAX_UNITS}"
    with pytest.raises(ValueError, match=f"^an exact value {past}$"):
        most + sexp(Fraction(MAX_UNITS))
    # exp(k) and exp(k + 1/2) are distinct units
    twice = f"of {2 * MAX_UNITS} units is past the limit of {MAX_UNITS}"
    with pytest.raises(ValueError, match=f"^an exact value {twice}$"):
        most * (1 + sexp(Fraction(1, 2)))
    # a jet's rows: x's row on the trivial unit and one row per exp(k)
    x = Jet.variable("x", (0, 0), 2)
    jet = x + _exp_sum(MAX_UNITS - 1)
    assert len(jet.rows) == MAX_UNITS
    assert (jet * 2).rows.keys() == jet.rows.keys()
    with pytest.raises(ValueError, match=f"^a jet {past}$"):
        jet + sexp(Fraction(MAX_UNITS))
    with pytest.raises(ValueError, match=f"^a jet {twice}$"):
        jet * (1 + sexp(Fraction(1, 2)))


def test_a_refusal_cuts_a_scalar_past_eight_terms():
    # str() prints every term; a refusal prints at most six and the count
    eight, nine = _exp_sum(7) + 1, _exp_sum(8) + 1
    head = "1 + exp(1) + exp(2) + exp(3) + exp(4) + exp(5)"
    assert str(eight) == head + " + exp(6) + exp(7)"
    assert str(nine) == str(eight) + " + exp(8)"
    for fn, text in [(sinv, "cannot invert multi-term scalar "),
                     (sln, "ln not defined on multi-term scalar "),
                     (sexp, "exp not defined on scalar term ")]:
        with pytest.raises(ValueError) as err:
            fn(eight)
        assert str(err.value) == text + str(eight)
        with pytest.raises(ValueError) as err:
            fn(nine)
        assert str(err.value) == text + head + " + ... (9 terms)"
