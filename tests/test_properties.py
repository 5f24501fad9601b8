"""Property tests: the CLI exit contract and the two domains of the fold.

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

from hypothesis import given, settings, strategies as st

from conftest import DATA
from zcurv.cli import main
from zcurv.exprparse import eval_float, eval_jet
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
        st.text(alphabet="xy()+-*/0123456789 expln", max_size=16),
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
                     for f in ("sl2.cm", "sl3.cm", "osp12.cm", "null1.cm")]),
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
    try:
        value = eval_float(node, float(x0), float(y0))
        body = float(eval_jet(node, Jet.variable("x", (x0, y0), jet_order),
                              Jet.variable("y", (x0, y0), jet_order)).body)
    except (ValueError, ArithmeticError):
        return  # a domain error in either evaluation
    if math.isfinite(value) and math.isfinite(body):
        assert math.isclose(value, body, rel_tol=1e-9, abs_tol=1e-12), \
            (render(node), x0, y0)
