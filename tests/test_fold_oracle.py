"""Expression programs against the recursive fold they replaced.

``reference_fold`` is the tree walk that evaluated expressions before each
expression was parsed into a program, kept here, with its own copies of
the float, array and jet tables, as the reference.  It folds the plain
tuple tree: a hand-built one, or the tree of a parsed expression that
``tree_of`` rebuilds from its slots.  Every fold of a program must equal it
bit for bit and raise the same error with the same text.
Programs hash-cons their slots in dicts keyed by tuples of strings and
numbers, so CI runs this file under two hash seeds.
"""

import functools
import math
import operator
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from test_parse_oracle import tree_of
from test_properties import (PROPERTY, _extend, coordinates, fractions,
                             outcome, render, trees, trees_in)
from zcurv.exprparse import (eval_float, eval_jet, parse_expression,
                             used_variables)
from zcurv.jets import Jet

# -- the reference: one recursive fold over the tuple -------------------------


def reference_fold(node, x, y, ops, fold):
    """Evaluate the tree; ``ops`` holds the domain's num/div/pow/exp/ln, and
    ``fold`` evaluates a child: ``reference_fold`` itself, or a memo's."""
    kind = node[0]
    if kind == "num":
        return ops["num"](node[1])
    if kind == "var":
        return x if node[1] == "x" else y
    if kind == "neg":
        return -fold(node[1], x, y, ops, fold)
    if kind == "add":
        return fold(node[1], x, y, ops, fold) + fold(node[2], x, y, ops, fold)
    if kind == "sub":
        return fold(node[1], x, y, ops, fold) - fold(node[2], x, y, ops, fold)
    if kind == "mul":
        return fold(node[1], x, y, ops, fold) * fold(node[2], x, y, ops, fold)
    if kind == "div":
        return ops["div"](fold(node[1], x, y, ops, fold),
                          fold(node[2], x, y, ops, fold))
    if kind == "pow":
        return ops["pow"](fold(node[1], x, y, ops, fold), node[2])
    if kind in ("exp", "ln"):
        return ops[kind](fold(node[1], x, y, ops, fold))
    raise ValueError(f"unknown node {kind!r}")


def reference_memo_fold(node, x, y, ops, memo):
    """``reference_fold`` that reuses and fills ``memo``."""
    def fold(node, x, y, ops, _):
        value = memo.get(node)
        if value is None:
            value = memo[node] = reference_fold(node, x, y, ops, fold)
        return value
    return fold(node, x, y, ops, fold)


FLOAT_OPS = {"num": float, "div": operator.truediv, "pow": operator.pow,
             "exp": math.exp, "ln": math.log}


@functools.cache
def array_ops():
    def elementwise(f, nin):
        ufunc = np.frompyfunc(f, nin, 1)

        def apply(*args):
            out = ufunc(*args)
            return out.astype(float) if isinstance(out, np.ndarray) else out
        return apply

    def div(a, b):
        if np.any(np.equal(b, 0)):
            raise ZeroDivisionError("float division by zero")
        return a / b

    return {"num": float, "div": div, "pow": elementwise(operator.pow, 2),
            "exp": elementwise(math.exp, 1), "ln": elementwise(math.log, 1)}


def reference_float(node, x, y):
    return reference_fold(node, x, y, FLOAT_OPS, reference_fold)


def reference_array(node, xs, ys):
    with np.errstate(over="ignore", invalid="ignore"):
        return reference_memo_fold(node, xs, ys, array_ops(), {})


def reference_jet(node, x, y):
    return reference_memo_fold(node, x, y, {
        "num": lambda q: Jet.constant(q, x.base, x.order),
        "div": operator.truediv, "pow": Jet.pow_int, "exp": Jet.exp,
        "ln": Jet.ln}, {})


def reference_variables(node):
    kind = node[0]
    if kind == "var":
        return {node[1]}
    if kind == "num":
        return set()
    return set().union(*(reference_variables(c) for c in node[1:]
                         if isinstance(c, tuple)))


# -- comparing outcomes bit for bit -------------------------------------------


def float_key(result):
    """A float as its bytes (NaN payloads and zero signs included), or an
    error as its type and text."""
    if isinstance(result, tuple):
        return result
    return type(result), struct.pack("<d", result)


def array_key(result):
    if isinstance(result, tuple):
        return result
    return type(result), np.asarray(result, dtype=float).tobytes()


def jet_key(result):
    if isinstance(result, tuple):
        return result
    return result.base, result.order, result.rows


def folds(expression, x0, y0, xs):
    """The keyed float, array and jet outcomes of ``expression`` at one
    point."""
    ys = xs[::-1].copy()
    jx, jy = (Jet.variable(v, (x0, y0), 2) for v in "xy")
    return (float_key(outcome(lambda: eval_float(expression, float(x0),
                                                 float(y0)))),
            array_key(outcome(lambda: eval_float(expression, xs, ys))),
            jet_key(outcome(lambda: eval_jet(expression, jx, jy))))


def reference_folds(node, x0, y0, xs):
    ys = xs[::-1].copy()
    jx, jy = (Jet.variable(v, (x0, y0), 2) for v in "xy")
    return (float_key(outcome(lambda: reference_float(node, float(x0),
                                                      float(y0)))),
            array_key(outcome(lambda: reference_array(node, xs, ys))),
            jet_key(outcome(lambda: reference_jet(node, jx, jy))))


# -- properties ---------------------------------------------------------------


@PROPERTY
@given(trees, fractions, fractions, coordinates)
def test_compiled_folds_match_the_reference(node, x0, y0, xs):
    # the rendered text spells each fraction as a quotient of integers,
    # which folds to the same float and the same exact jet
    parsed = parse_expression(render(node))
    result = folds(parsed, x0, y0, xs)
    assert result == reference_folds(node, x0, y0, xs), render(node)
    assert result == reference_folds(tree_of(parsed), x0, y0,
                                     xs), render(node)


def _cancelling(node):
    """Zeros made from node: node - node, 0 * node and 0 / node, and zeros
    that are no syntactic difference, ln of node squared less twice its ln
    and exp(ln(node)) less node."""
    zero = ("num", Fraction(0))
    return st.sampled_from([
        ("sub", node, node), ("mul", zero, node), ("div", zero, node),
        ("sub", ("ln", ("pow", node, 2)), ("mul", ("num", Fraction(2)),
                                          ("ln", node))),
        ("sub", ("exp", ("ln", node)), node)])


def _extend_constants(children):
    return st.one_of(_extend(children), children.flatmap(_cancelling))


# Constant subtrees: ln, exp, powers and quotients of constants, and
# differences that cancel to zero, so that divisions by, ln of and negative
# powers of an exact zero reach the fold.
constants = st.recursive(st.tuples(st.just("num"), fractions),
                         _extend_constants, max_leaves=4)
constant_trees = st.recursive(
    st.one_of(constants, st.tuples(st.just("var"), st.sampled_from("xy"))),
    _extend, max_leaves=4)


@PROPERTY
@given(constant_trees, fractions, fractions, coordinates)
def test_constant_subtrees_fold_like_constant_jets(node, x0, y0, xs):
    # the jet fold takes a constant subtree's exact scalar; the reference
    # builds it as a constant jet, so the jets and refusals must agree
    parsed = parse_expression(render(node))
    assert folds(parsed, x0, y0, xs) == reference_folds(node, x0, y0,
                                                        xs), render(node)


@PROPERTY
@given(trees, st.lists(st.tuples(fractions, fractions), min_size=2,
                       max_size=5), coordinates)
def test_a_warm_program_folds_like_a_fresh_one(node, points, xs):
    # one parsed tree has run its program at the earlier points, and under
    # every table in turn; a fresh parse of it has run nothing
    text = render(node)
    warm = parse_expression(text)
    for x0, y0 in points:
        result = folds(warm, x0, y0, xs)
        assert result == folds(parse_expression(text), x0, y0, xs), text
        assert result == reference_folds(tree_of(warm), x0, y0, xs), text


@pytest.mark.parametrize("text", [
    "y+ln(0)", "ln(0)+y", "x*(1/0)", "exp(1000)*x+y", "(0^-1)-x",
    "x+ln(1-1)*y", "y-(10^200)^2", "x*(ln(0)+1)",
    # two raising operands: the left one raises first
    "ln(0)*x+(1/0)*y", "(1/0)*y-ln(0)*x",
    # an exact zero made of a unit: refused as zero, not as a scalar
    "x+1/(0/exp(1))", "x+1/(0*exp(1))", "ln(0*exp(1))+y", "x+(0/exp(1))^-1",
])
def test_a_raising_constant_raises_on_every_call(text):
    expression = parse_expression(text)
    node = tree_of(expression)
    xs = np.array([0.5, 1.0, 2.0])
    jx, jy = (Jet.variable(v, (1, 1), 2) for v in "xy")
    want = outcome(lambda: reference_float(node, 0.5, 0.5))
    assert isinstance(want, tuple), want
    for x in (0.5, 1.5, 0.5, -2.0):
        assert outcome(lambda: eval_float(expression, x, 0.5)) == want
        assert outcome(lambda: eval_float(expression, xs, xs)) == want
        assert (outcome(lambda: eval_jet(expression, jx, jy))
                == outcome(lambda: reference_jet(node, jx, jy)))


@PROPERTY
@given(st.sampled_from(["x", "y", "xy"]).flatmap(trees_in))
def test_recorded_variables_match_the_walk(node):
    parsed = parse_expression(render(node))
    assert used_variables(parsed) == reference_variables(node)
    assert used_variables(parsed) == reference_variables(tree_of(parsed))
    mask = parsed.program.masks[parsed.root]
    assert {v for bit, v in ((1, "x"), (2, "y")) if mask & bit} \
        == reference_variables(node)


# -- the parsed tree ----------------------------------------------------------


def test_a_long_chain_has_one_slot_a_node_and_folds():
    # far past the recursion limit: the parse and the fold nest no frames,
    # and x+x+...+x has one slot for x and one for each partial sum
    tree = parse_expression("+".join(["x"] * 100_000))
    assert len(tree.program.code) == 100_000
    assert eval_float(tree, 1.0, 0.0) == 100_000
    assert eval_float(tree, np.array([1.0, 0.5]), 0.0).tolist() == [
        100_000, 50_000]


def test_deep_negations_and_parentheses_fold():
    chain = "+".join(["x"] * 1000)
    assert eval_float(parse_expression("-" * 100_001 + f"({chain})"), 1.0,
                      0.0) == -1000
    nested = parse_expression("(" * 10_000 + "x" + ")+1" * 10_000)
    assert eval_float(nested, 1.0, 0.0) == 10_001
    jx, jy = (Jet.variable(v, (1, 0), 2) for v in "xy")
    assert eval_jet(nested, jx, jy) == jx + 10_000
    # an exponent under 100,001 signs is still an integer
    power = parse_expression("x^" + "-" * 100_001 + "2")
    assert power.program.code[power.root] == ("pow", 0, -2)
    assert eval_float(power, 2.0, 0.0) == 0.25
