from fractions import Fraction

import pytest

from zcurv.scalars import Scalar, as_scalar, sadd, sexp, sinv, sln, smul


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
