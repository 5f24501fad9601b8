from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zcurv.symexpr import Atom, Expr, exp_linear, fn


def test_operator_word_normalisation():
    f = fn("f")
    assert f.d_plus().d_plus() == f.deriv_x()
    assert f.d_minus().d_minus() == f.deriv_y()
    assert (f.d_plus().d_minus() + f.d_minus().d_plus()).is_zero()
    # D+ D+ D- f = dx D- f
    assert f.d_minus().d_plus().d_plus() == f.d_minus().deriv_x()


def test_partial_derivatives_commute_with_everything():
    f = fn("f")
    assert f.deriv_x().deriv_y() == f.deriv_y().deriv_x()
    assert f.d_plus().deriv_x() == f.deriv_x().d_plus()


def test_odd_atoms_anticommute_and_square_to_zero():
    a, b = fn("alpha", 1), fn("beta", 1)
    assert (a * b + b * a).is_zero()
    assert (a * a).is_zero()
    c = fn("c")
    assert a * c == c * a


def test_parity_of_derivatives():
    a = fn("alpha", 1)
    assert a.parity() == 1
    assert a.d_plus().parity() == 0
    assert a.d_plus().d_minus().parity() == 1
    assert a.deriv_x().parity() == 1


def test_super_leibniz_in_the_symbolic_ring():
    a, b = fn("alpha", 1), fn("b")
    # D+(alpha*b) = D+(alpha)*b - alpha*D+(b)
    lhs = (a * b).d_plus()
    rhs = a.d_plus() * b - a * b.d_plus()
    assert lhs == rhs


def test_even_leibniz():
    u, v = fn("u"), fn("v")
    assert (u * v).deriv_x() == u.deriv_x() * v + u * v.deriv_x()


def test_substitution_applies_derivative_words():
    lnb = fn("lnb")
    expr = fn("alpha", 1).d_minus()
    out = expr.substitute({"alpha": lnb.d_plus()})
    assert out == lnb.d_plus().d_minus()
    assert out == -(lnb.d_minus().d_plus())


def test_substitution_in_products():
    a, b = fn("alpha", 1), fn("beta", 1)
    out = (a * b).substitute({"alpha": fn("u", 1), "beta": fn("v", 1)})
    assert out == fn("u", 1) * fn("v", 1)


def test_render_canonical():
    a, b = fn("a"), fn("B")
    assert (a.deriv_x() - b.deriv_y() * 2).render() == "a_x - 2*B_y"
    assert (a * b * 2).render() == "2*a*B"
    assert (a * a).render() == "a^2"
    assert fn("F").d_minus().d_plus().render() == "D+(D-(F))"
    # names equal but for case past their first letter still print in one order
    assert (fn("ab") + fn("aB")).render() == (fn("aB") + fn("ab")).render() \
        == "aB + ab"
    assert Expr().render() == "0"
    assert (exp_linear([(2, "F1"), (-1, "F2")]) * Fraction(1, 2)).render() \
        == "(1/2)*exp(2*F1 - F2)"


def test_one_name_with_both_parities_renders_in_canonical_order():
    even, odd = fn("a") * 2, fn("a", 1) * 3
    assert Expr.sum([even, odd]).render() == Expr.sum([odd, even]).render()
    assert (fn("a") * fn("a", 1)) == (fn("a", 1) * fn("a"))


def test_exp_linear_merges_repeated_names():
    assert exp_linear([(1, "F"), (2, "F")]) == exp_linear([(3, "F")])
    assert (exp_linear([(1, "G"), (1, "F"), (-1, "G")])
            - exp_linear([(1, "F")])).is_zero()
    assert exp_linear([(1, "F"), (-1, "F")]) == Expr.rational(1)
    assert exp_linear([]).render() == "1"


def test_rational_constants():
    one = Expr.rational(1)
    assert (one * Fraction(3, 2)).render() == "3/2"
    assert (fn("a") - fn("a")).is_zero()


@pytest.mark.parametrize("product", [lambda a: a * 0.5, lambda a: 0.5 * a])
def test_a_float_factor_is_a_type_error(product):
    with pytest.raises(TypeError, match="unsupported operand"):
        product(fn("a"))


def test_exp_atoms_cannot_be_differentiated():
    with pytest.raises(ValueError):
        exp_linear([(1, "G")]).deriv_x()


def test_atom_render_with_mixed_word():
    atom = Atom("a", dx=1, dp=1)
    assert atom.render() == "D+(a)_x"


_NAMES = {"a": 0, "B": 0, "alpha": 1, "beta": 1}


@st.composite
def _exprs(draw):
    """Small sums of products of even and odd atoms, some of them with an
    exp(...) factor."""
    out = Expr()
    for _ in range(draw(st.integers(0, 3))):
        term = Expr.rational(Fraction(draw(st.integers(-3, 3)),
                                      draw(st.integers(1, 3))))
        for name in draw(st.lists(st.sampled_from(sorted(_NAMES)),
                                  max_size=2)):
            term = term * Expr.atom(Atom(name, dx=draw(st.integers(0, 1)),
                                         dp=draw(st.integers(0, 1)),
                                         base_parity=_NAMES[name]))
        if draw(st.booleans()):
            term = term * exp_linear(
                [(draw(st.integers(-2, 2)), draw(st.sampled_from("FG")))])
        out = out + term
    return out


def _graded_parts(e):
    """The even and odd parts of e, each homogeneous."""
    parts = ({}, {})
    for mono, c in e.terms.items():
        parts[sum(a.parity for a in mono) % 2][mono] = c
    return [(p, Expr(terms)) for p, terms in enumerate(parts)]


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.lists(_exprs(), max_size=5), st.data())
def test_sum_equals_folding_with_add(parts, data):
    # append negatives of some parts, so that whole terms cancel to zero
    picks = data.draw(st.lists(st.sampled_from(parts), max_size=3)) \
        if parts else []
    parts = parts + [-p for p in picks]
    folded = Expr()
    for p in parts:
        folded = folded + p
    total = Expr.sum(parts)
    assert total == folded
    assert all(total.terms.values())
    assert total.render() == folded.render()


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(_exprs(), _exprs(), _exprs())
def test_products_associate_and_commute_up_to_grading(a, b, c):
    assert (a * b) * c == a * (b * c)
    for pa, a_part in _graded_parts(a):
        for pb, b_part in _graded_parts(b):
            assert a_part * b_part == (-1) ** (pa * pb) * (b_part * a_part)


def test_sum_of_nothing_is_zero():
    assert Expr.sum([]) == Expr()
    assert Expr.sum([]).is_zero()
    a = fn("a")
    assert Expr.sum([a, -a]).terms == {}
