"""Property tests: the CLI exit contract and the domains of the fold.

Both are derandomized, so a run is repeatable.  Exponents stay at most 8
and jet orders at most 6: coefficient sizes grow with the exponent and
series cost with the order, and neither bears on an exit code.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA
from zcurv.cli import main
from zcurv.exprparse import Program, eval_float, eval_jet, parse_expression
from zcurv.jets import Jet

PROPERTY = settings(derandomize=True, deadline=None, database=None)

fractions = st.builds(Fraction, st.integers(-6, 9), st.integers(1, 4))


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from(["neg", "exp", "ln"]), children),
        st.tuples(st.sampled_from(["add", "sub", "mul", "div"]),
                  children, children),
        st.tuples(st.just("pow"), children, st.integers(-8, 8)))


def trees_in(names: str):
    """Random trees over all nine node kinds in the variables ``names``."""
    leaves = st.one_of(st.tuples(st.just("num"), fractions),
                       st.tuples(st.just("var"), st.sampled_from(names)))
    return st.recursive(leaves, _extend, max_leaves=6)


trees = trees_in("xy")


def render(node) -> str:
    """Fully parenthesised text that parses back to ``node``'s value."""
    kind = node[0]
    if kind == "num":
        q = node[1]
        text = str(abs(q.numerator)) + (
            f"/{q.denominator}" if q.denominator != 1 else "")
        return f"(-{text})" if q < 0 else f"({text})"
    if kind == "var":
        return node[1]
    if kind == "neg":
        return f"(-{render(node[1])})"
    if kind in ("exp", "ln"):
        return f"{kind}({render(node[1])})"
    if kind == "pow":
        return f"({render(node[1])})^{node[2]}"
    op = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[kind]
    return f"({render(node[1])}{op}{render(node[2])})"


# -- CLI fuzz -----------------------------------------------------------------


def expressions(names: str = "xy"):
    v = names[0]
    return st.one_of(
        st.sampled_from([f"{v}+1", f"exp({v})", f"2*{v}^3+{v}+5"]),
        trees_in(names).map(render),
        # no '^' here: a drawn exponent could be as large as 10^13
        st.text(alphabet="xy()+-*/0123456789 expln²٣", max_size=16),
        st.sampled_from(["", "x^y", "exp(", "1/0", "ln(0)", "((x)"]))


json_values = st.one_of(st.integers(-3, 3), st.none(), st.booleans(),
                        st.floats(allow_nan=True), expressions())


def expression_lists(names: str = "xy"):
    return st.one_of(st.lists(expressions(names), max_size=3),
                     st.lists(json_values, max_size=3), json_values)


ends = st.one_of(st.sampled_from(["0", "1/2", "1", "2", "-1", "1/0", "a"]),
                 st.integers(-1, 2), st.floats(-1, 2), st.none())
cartan_files = st.one_of(
    st.sampled_from([(DATA / f).read_bytes()
                     for f in ("sl2.cm", "sl3.cm", "osp12.cm", "null1.cm")]
                    + ['{"matrix":[[2²]]}'.encode()]),
    st.binary(max_size=24),
    st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=2),
             min_size=1, max_size=2).map(
        lambda m: json.dumps({"matrix": m}).encode()))
solution_files = st.one_of(
    st.just('{"components": ["-2*ln(x+y)"]}'),
    st.fixed_dictionaries({"components": expression_lists()}).map(json.dumps),
    json_values.map(json.dumps), st.binary(max_size=16))
boundary_files = st.one_of(
    st.just('{"x0": "0", "x1": "1", "y0": "0", "y1": "1", '
            '"x_edge": ["-2*ln(y+2)"], "y_edge": ["-2*ln(x+2)"]}'),
    st.fixed_dictionaries({"x0": ends, "x1": ends, "y0": ends, "y1": ends,
                           "x_edge": expression_lists("y"),
                           "y_edge": expression_lists("x")}).map(json.dumps),
    st.lists(st.integers(), max_size=2).map(json.dumps),
    st.binary(max_size=16))
RARELY = st.sampled_from([False] * 19 + [True])
FLAGS = {
    "--cartan": st.sampled_from(["a.cm"] * 9 + ["missing.cm"]),
    "--form": st.sampled_from(["ls", "lsbis"] * 4 + ["x"]),
    "--scheme": st.sampled_from(["lse1", "lse2"]),
    "--algebra": st.sampled_from(["sl2", "osp12"]),
    "--f": expressions("x"),
    "--g": expressions("y"),
    "--solution": st.just("s.json"),
    "--boundary": st.just("b.json"),
    "--order": st.sampled_from(["2", "3", "4", "6"] * 2 + ["0", "1", "x"]),
    "--base": st.sampled_from(["0,0", "1,1", "1/2,3"] * 2
                              + ["0", "a,b", "1,1/0"]),
    "--tol": st.sampled_from(["0", "1e-9", "1"] * 3 + ["nan", "-1"]),
    "--h": st.sampled_from(["1/2", "1/4", "1/3"] * 3
                           + ["0", "-1/2", "a", "1/0"]),
    "--out": st.sampled_from(["g.csv"] * 4 + ["no/g.csv", "."]),
}
VERBS = {
    "derive": ["--cartan", "--form"],
    "derive-super": [],
    "obstruction": [],
    "admissible": ["--cartan", "--scheme"],
    "verify-liouville": ["--f", "--g", "--order", "--base", "--tol"],
    "verify-lse": ["--cartan", "--solution", "--form", "--order", "--base",
                   "--tol"],
    "solve": ["--cartan", "--boundary", "--h", "--out"],
    "bracket-table": ["--algebra"],
    "frobnicate": [],
}


@st.composite
def invocations(draw):
    """An argument vector and the files it names, keyed by file name."""
    verb = draw(st.sampled_from(sorted(VERBS)))
    files = {"a.cm": draw(cartan_files), "s.json": draw(solution_files),
             "b.json": draw(boundary_files)}
    argv = [verb]
    for flag in VERBS[verb]:
        if draw(RARELY) is False:  # now and then a required flag is missing
            argv.append(f"{flag}={draw(FLAGS[flag])}")
    if draw(RARELY):  # now and then a flag the verb lacks
        argv.append(f"{draw(st.sampled_from(sorted(FLAGS)))}=1")
    return argv, files


@settings(PROPERTY, max_examples=200)
@given(invocations(), st.sampled_from(["2", "4", "0"]))
def test_cli_exit_contract(invocation, env_order):
    argv, files = invocation
    cwd = os.getcwd()
    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            data = content if isinstance(content, bytes) else content.encode()
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(data)
        os.chdir(tmp)
        try:
            with mock.patch.dict(os.environ, {"ZCURV_ORDER": env_order}), \
                    contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 2, (argv, sink.getvalue())
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2, 3), (argv, sink.getvalue())


# -- one fold, two domains ----------------------------------------------------


@PROPERTY
@given(trees, fractions, fractions)
def test_float_fold_matches_jet_body(node, x0, y0):
    jet_order = 2
    parsed = parse_expression(render(node))
    try:
        value = eval_float(parsed, float(x0), float(y0))
        body = float(eval_jet(parsed, Jet.variable("x", (x0, y0), jet_order),
                              Jet.variable("y", (x0, y0), jet_order)).body)
    except (ValueError, ArithmeticError):
        return  # a domain error in either evaluation
    if math.isfinite(value) and math.isfinite(body):
        assert math.isclose(value, body, rel_tol=1e-9, abs_tol=1e-12), \
            (render(node), x0, y0)


# -- the array fold against the float fold at each point ----------------------


def assert_array_fold_is_pointwise(text, xs, ys):
    """eval_float over the arrays gives, bit for bit, the float fold at each
    point (x, y), and raises exactly when the float fold raises at a point."""
    expression = parse_expression(text)
    values, failed = [], False
    for x, y in zip(xs.tolist(), ys.tolist()):
        try:
            values.append(eval_float(expression, x, y))
        except (ValueError, ArithmeticError):
            failed = True
    try:
        out = eval_float(expression, xs, ys)
    except (ValueError, ArithmeticError):
        assert failed, text
        return None
    assert not failed, text
    out = np.broadcast_to(out, xs.shape)
    assert out.dtype == np.float64
    assert out.tobytes() == np.array(values, dtype=float).tobytes(), text
    return out


# 0, negative points and points outside the domains of ln and of 1/t
coordinates = st.lists(fractions, max_size=6).map(
    lambda qs: np.array([0.0, -1.0, 0.5] + [float(q) for q in qs]))


@PROPERTY
@given(trees, coordinates)
def test_array_fold_matches_float_fold(node, xs):
    assert_array_fold_is_pointwise(render(node), xs, xs[::-1].copy())
    assert_array_fold_is_pointwise(render(node), xs, np.zeros_like(xs))


# -- one memo across trees ---------------------------------------------------


def outcome(fold):
    """The value of ``fold()``, or the type and text of the error it raises."""
    try:
        return fold()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


@PROPERTY
@given(st.lists(trees, min_size=1, max_size=3), fractions, fractions,
       coordinates)
def test_one_memo_folds_like_each_tree_alone(parts, x0, y0, xs):
    # later trees reuse earlier ones, so the program and the memo hold
    # their subtrees; alone, each text is parsed into a program of its own
    nodes = parts + [("mul", a, ("exp", b)) for a, b in zip(parts, parts[1:])]
    x, y = (Jet.variable(v, (x0, y0), 2) for v in "xy")
    ys, jet_memo, array_memo, program = xs[::-1].copy(), {}, {}, Program()
    for text in map(render, nodes):
        node, own = parse_expression(text, program), parse_expression(text)
        alone = outcome(lambda: eval_jet(own, x, y))
        shared = outcome(lambda: eval_jet(node, x, y, jet_memo))
        assert shared == alone, text
        if isinstance(alone, Jet):
            assert shared.rows == alone.rows, text
        alone = outcome(lambda: eval_float(own, xs, ys))
        shared = outcome(lambda: eval_float(node, xs, ys, array_memo))
        assert type(shared) is type(alone), text
        if isinstance(alone, tuple):
            assert shared == alone, text
        else:
            assert np.asarray(shared).tobytes() == np.asarray(alone).tobytes()


XS = np.array([-2.0, -0.5, -0.0, 0.0, 0.25, 1.0, 3.0])


@pytest.mark.parametrize("text", [
    "-x", "x+y", "x-y", "x*y", "x/(y+5)", "x/y", "(x+5)/(x-1/4)",
    "x^3", "x^-3", "(y-1/4)^-2", "(x*0)^-1", "exp(x*y)", "exp(1000*x)",
    "ln(x+5)", "ln(x)", "ln(y-1)+1/(y-1/4)", "10^300*10^300*y",
    "10^300*10^300*y-10^300*10^300*y",
])
def test_array_fold_matches_float_fold_on_every_node_kind(text):
    assert_array_fold_is_pointwise(text, XS, XS[::-1])


def test_array_fold_raises_like_the_float_fold():
    for text, error in [("0^-1", ZeroDivisionError),
                        ("x^-1", ZeroDivisionError),
                        ("(10^300*10^300-10^300*10^300)/0", ZeroDivisionError),
                        ("x/(y*0)", ZeroDivisionError),
                        ("ln(x)", ValueError), ("exp(1000*y)", OverflowError),
                        ("(10^200*y)^2", OverflowError)]:
        node = parse_expression(text)
        with pytest.raises(error) as scalar:
            for x, y in zip(XS.tolist(), XS[::-1].tolist()):
                eval_float(node, x, y)
        with pytest.raises(error) as array:
            eval_float(node, XS, XS[::-1])
        assert str(array.value) == str(scalar.value), text


def test_array_fold_of_a_constant_broadcasts():
    text = "3*exp(1)-2^-2"
    node = parse_expression(text)
    assert eval_float(node, XS, 0.0) == eval_float(node, 0.0, 0.0)
    out = assert_array_fold_is_pointwise(text, XS, XS)
    assert out.tobytes() == np.full(XS.shape, 3 * math.exp(1) - 0.25).tobytes()
