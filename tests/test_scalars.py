import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from zcurv import scalars
from zcurv.scalars import (_MR_EXACT_BELOW, Scalar, _factor, as_scalar, sadd,
                           sexp, sinv, sln, smul)


def test_ln_expands_over_primes():
    assert sln(Fraction(12)) == sadd(smul(Fraction(2), sln(Fraction(2))),
                                     sln(Fraction(3)))
    assert sln(Fraction(1)) == Fraction(0)
    assert sln(Fraction(1, 2)) == smul(Fraction(-1), sln(Fraction(2)))


def test_ln_is_additive_on_products():
    a, b = Fraction(6), Fraction(35, 4)
    assert sadd(sln(a), sln(b)) == sln(a * b)


def test_exp_inverts_ln():
    for q in (Fraction(2), Fraction(3, 7), Fraction(12), Fraction(1)):
        assert sexp(sln(q)) == q


def test_exp_of_rational_is_symbolic_and_exact():
    e3 = sexp(Fraction(3))
    assert isinstance(e3, Scalar)
    assert not e3.is_rational()
    assert smul(e3, sexp(Fraction(-3))) == Fraction(1)


def test_fractional_prime_powers_fold():
    root2 = sexp(smul(Fraction(1, 2), sln(Fraction(2))))
    assert smul(root2, root2) == Fraction(2)
    # integer part of the exponent moves into the coefficient
    assert smul(Fraction(2), root2) == sexp(smul(Fraction(3, 2),
                                                 sln(Fraction(2))))


def test_inverse():
    e2 = sexp(Fraction(2))
    assert smul(sinv(e2), e2) == Fraction(1)
    assert sinv(Fraction(3, 4)) == Fraction(4, 3)
    with pytest.raises(ValueError):
        sinv(sln(Fraction(2)))  # 1/ln(2) is outside the ring
    with pytest.raises(ValueError):
        sinv(sadd(Fraction(1), sln(Fraction(2))))


def test_ln_rejects_nonpositive_and_multi_term():
    with pytest.raises(ValueError):
        sln(Fraction(0))
    with pytest.raises(ValueError):
        sln(Fraction(-2))
    with pytest.raises(ValueError):
        sln(sadd(Fraction(1), sln(Fraction(2))))


def test_exp_rejects_nonlinear_log_terms():
    ln2 = as_scalar(sln(Fraction(2)))
    with pytest.raises(ValueError):
        (ln2 * ln2).exp()


def test_float_conversion():
    import math
    assert float(sexp(Fraction(1))) == pytest.approx(math.e)
    v = sadd(Fraction(1, 2), sln(Fraction(3)))
    assert float(v) == pytest.approx(0.5 + math.log(3.0))


def test_rational_downcast():
    # helpers hand back plain Fractions whenever the value is rational
    assert isinstance(sexp(Fraction(0)), Fraction)
    assert isinstance(sln(Fraction(8)), Scalar)
    assert isinstance(smul(sexp(Fraction(1)), sexp(Fraction(-1))), Fraction)


def test_equality_and_hash():
    a = sadd(sln(Fraction(2)), sln(Fraction(3)))
    b = sln(Fraction(6))
    assert a == b and hash(a) == hash(b)
    assert as_scalar(Fraction(2)) == Fraction(2)


def test_rational_scalar_hashes_as_its_fraction():
    for q in (Fraction(1, 2), Fraction(-7, 3), Fraction(0), Fraction(5)):
        s = Scalar.from_rational(q)
        assert s == q and hash(s) == hash(q)
        assert len({s, q}) == 1
    assert hash(Scalar.from_rational(3)) == hash(3)


def test_rational_factor_matches_the_ring_product():
    values = [sln(Fraction(12)), sexp(Fraction(2, 3)),
              sadd(sexp(Fraction(1)), sln(Fraction(5, 2))),
              sexp(smul(Fraction(1, 2), sln(Fraction(3))))]
    for s in values:
        for q in (Fraction(0), Fraction(-3, 4), Fraction(7)):
            ring = as_scalar(s) * as_scalar(q)
            for got in (smul(s, q), smul(q, s)):
                assert got == ring
                if isinstance(got, Scalar):
                    assert list(got._terms.items()) == \
                        list(ring._terms.items())
                else:
                    assert ring.is_zero() and got == 0


_UNITS = (lambda q: q, lambda q: smul(q, sexp(Fraction(1, 3))),
          lambda q: smul(q, sexp(Fraction(-2))),
          lambda q: smul(q, sln(Fraction(2))),
          lambda q: smul(q, sln(Fraction(5))),
          lambda q: smul(q, sexp(sln(Fraction(3)) * Fraction(1, 2))))


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
        forward = sadd(forward, p)
    shuffler.shuffle(parts)
    backward = Fraction(0)
    for p in reversed(parts):
        backward = sadd(backward, p)
    assert forward == backward
    assert float(forward) == float(backward)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(st.integers(min_value=1, max_value=10**24 - 1))
def test_factor_matches_sympy(n):
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


ROOT3 = sexp(smul(Fraction(1, 2), sln(Fraction(3))))
CBRT2 = sexp(smul(Fraction(1, 3), sln(Fraction(2))))
# units without ln factors, then units with them
_PLAIN = [Fraction(1), sexp(Fraction(1, 3)), sexp(Fraction(-2)), ROOT3,
          CBRT2, smul(sexp(Fraction(1, 2)), CBRT2)]
_ORACLE_UNITS = _PLAIN + [sln(Fraction(2)), sln(Fraction(5)),
                          smul(ROOT3, sln(Fraction(3)))]
_RATS = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def _combination(pairs):
    out = Fraction(0)
    for u, q in pairs:
        out = sadd(out, smul(q, _ORACLE_UNITS[u]))
    return out


_SUMS = st.lists(st.tuples(st.integers(0, len(_ORACLE_UNITS) - 1), _RATS),
                 min_size=1, max_size=4).map(_combination)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(_SUMS, _SUMS, st.integers(0, len(_PLAIN) - 1),
       _RATS.filter(bool), st.lists(_RATS, min_size=4, max_size=4))
def test_scalar_ring_matches_sympy(a, b, plain, q, exponent):
    """Products, inverse, exp, ln and float against sympy's own rules."""
    product = smul(a, b)
    assert _same(_sympy(product), _sympy(a) * _sympy(b))
    single = smul(q, _PLAIN[plain])
    assert _same(_sympy(sinv(single)) * _sympy(single), 1)
    positive = smul(abs(q), _PLAIN[plain])
    assert _same(_sympy(sln(positive)), sympy.expand_log(
        sympy.log(_sympy(positive)), force=True, factor=True))
    r, *logs = exponent
    arg = r
    for p, c in zip((2, 3, 5), logs):
        arg = sadd(arg, smul(c, sln(Fraction(p))))
    assert _same(_sympy(sexp(arg)), sympy.exp(_sympy(arg)))
    for v in (a, b, product, sinv(single), sln(positive), sexp(arg)):
        terms = _sympy_terms(v)
        scale = sum(abs(float(sympy.N(t, 30))) for t in terms)
        want = float(sympy.N(sympy.Add(*terms), 30))
        assert abs(float(v) - want) <= 1e-14 * scale
