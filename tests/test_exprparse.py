import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zcurv.exprparse import (ExprSyntaxError, Program, eval_float, eval_jet,
                             parse_expression, used_variables)
from zcurv.jets import Jet


def build(text, base=(0, 0), order=6):
    node = parse_expression(text)
    return eval_jet(node, Jet.variable("x", base, order),
                    Jet.variable("y", base, order))


def test_polynomials():
    assert build("x^2 - 2*x*y + 1") == Jet((0, 0), 6, {
        (2, 0): 1, (1, 1): -2, (0, 0): 1})


def test_rational_constants_are_exact():
    jet = build("2/3 + x/2")
    assert jet.coefficient(0, 0) == Fraction(2, 3)
    assert jet.coefficient(1, 0) == Fraction(1, 2)


def test_exp_ln_and_negative_powers():
    assert build("ln(exp(x))") == Jet.variable("x", (0, 0), 6)
    inv = build("(1+x)^-1")
    assert inv * build("1+x") == Jet.constant(1, order=6)


def test_a_constant_power_is_repeated_multiplication():
    # 2*exp(1) folds to an exact scalar that carries an exp unit
    for n in range(-4, 18):
        product = "*".join(["(2*exp(1))"] * abs(n)) or "1"
        want = build(product if n >= 0 else f"1/({product})")
        assert build(f"(2*exp(1))^{n}") == want


def test_unary_signs():
    assert build("-x + +y") == build("y - x")


def test_precedence():
    assert build("2*x^2") == build("2*(x^2)")
    assert build("-x^2") == -(build("x^2"))
    assert build("6/2/3") == Jet.constant(1, order=6)


def test_float_evaluation():
    node = parse_expression("exp(x) * ln(y) + 3/4")
    got = eval_float(node, 0.5, 2.0)
    assert got == pytest.approx(math.exp(0.5) * math.log(2.0) + 0.75)


def test_used_variables():
    assert used_variables(parse_expression("x^2 + 1")) == {"x"}
    assert used_variables(parse_expression("x*y")) == {"x", "y"}
    assert used_variables(parse_expression("3/2")) == set()


def test_a_plan_is_built_once_per_root_and_table():
    program = Program()
    expression = parse_expression("x*(2+3) + exp(1)", program)
    constant = parse_expression("2+3", program).root  # the shared subtree
    two, three = (parse_expression(t, program).root for t in "23")
    folded = program.plan(expression.root, True)
    jet = program.plan(expression.root, False)
    assert program.plan(expression.root, True) is folded
    assert program.plan(expression.root, False) is jet
    # the float and array tables take the constant's float and visit none
    # of its operands; the jet table folds it step by step
    consts, steps = folded
    assert consts[constant] == 5.0
    assert {s for s, *_ in steps}.isdisjoint({constant, two, three})
    consts, steps = jet
    assert consts == {}
    assert (constant, "add", two, three) in steps
    assert {two, three} <= {s for s, *_ in steps}


def test_an_exponent_leaves_no_slots_behind():
    # the exponent's signs and number fold into the pow's integer
    program = parse_expression("x^" + "-" * 100001 + "2").program
    assert program.code == [("var", "x", None), ("pow", 0, -2)]
    assert len(program.masks) == len(program.floats) == len(program.slots) == 2
    # a slot the exponent shares with an earlier factor is kept
    program = parse_expression("2*x^2").program
    assert program.code == [("num", 2, None), ("var", "x", None),
                            ("pow", 1, 2), ("mul", 0, 2)]
    assert program.slots == {key: s for s, key in enumerate(program.code)}


@pytest.mark.parametrize("text", [
    "x +", "(x", "x)", "2 **, x", "foo(x)", "x^y", "x^(1/2)", "@", "exp x",
    "x+²", "٣", pytest.param("1" * 5000, id="5000-digit-integer"),
])
def test_syntax_errors(text):
    with pytest.raises(ExprSyntaxError):
        parse_expression(text)


def test_error_positions_are_one_based():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("x + @")
    assert "position 5" in str(err.value)


def test_evaluation_errors_surface():
    with pytest.raises(ValueError):
        build("ln(x)")  # zero body at the default base point
    with pytest.raises(ValueError):
        build("1/x")


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.one_of(st.text(max_size=16),
                 st.text("xy()+-*/^0123456789 expln²٣_", max_size=16)))
def test_parse_raises_only_syntax_errors(text):
    try:
        parse_expression(text)
    except ExprSyntaxError:
        pass
