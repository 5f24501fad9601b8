"""Command-line front end.

Exit codes: 0 success, 1 verification failure (or inadmissible matrix),
2 usage errors, 3 file/parse/input errors.  ``main`` alone maps input
faults to exit 3: any ``ValueError`` or ``ArithmeticError`` of a verb ends as
one ``error: ...`` line.  An ``InputError`` (a ``ValueError``) only adds the
file, expression or flag at fault.  Output is byte-deterministic for
identical inputs.  The environment variable ZCURV_ORDER overrides the
default jet order 8 where no --order flag is given; either way the order
is at least 2 (3 for verify-liouville, whose solution takes f' and g'
before its residual takes F_xy) and at most MAX_ORDER.  ``_rational``
alone reads a rational input (--base, --h, a boundary's x0..y1): a string
or a number, with at most MAX_RATIONAL_BITS bits in its numerator and
denominator.  An expression has at most MAX_EXPRESSION_CHARS characters.
``main`` builds the argparse parser on its first call and reuses it for
every later call in the process.  A value that begins with '-' may follow
its option after a space (``--f -x-2``): each verb's parser reads a word
that names none of its options, exactly or abbreviated, as a value, by
argparse's rule for negative numbers.  A value ``-h...`` reads as ``-h``;
write it ``--opt=-h...``.

Importing this module loads no other zcurv module: each verb imports what
it uses when it runs.  ``verify-liouville`` loads ``exprparse``, ``jets``,
``scalars`` and ``solutions`` only; ``derive``, ``derive-super`` and
``obstruction`` load ``cartan``, ``superalg``, ``symexpr`` and
``zerocurv``, and no series module; only ``solve`` loads numpy.
"""

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import _clip

DEFAULT_ORDER = 8
# The largest jet order accepted.  A jet of order K holds (K+1)(K+2)/2
# coefficients and a product costs about K^4/24 coefficient products, so
# verify-liouville on x+1, y+1 takes 1.6 s at order 128 and 34 s at 256.
MAX_ORDER = 128
# The most bits in the numerator or denominator of a rational input (--base,
# --h, a boundary's x0..y1), and the largest decimal exponent: Fraction
# builds 10^e before it reduces, and Fraction("1e-9999999") alone takes 9 s.
MAX_RATIONAL_BITS = 1024
_DECIMAL_EXPONENT = r"\s*[-+]?[\d._]*[eE][-+]?([\d_]+)\s*"
# The longest expression accepted: parse and fold take time and memory
# linear in its length while its terms share units (about 2 s for a
# 100,000-term sum of jets), and scalars.MAX_UNITS bounds the distinct ones.
MAX_EXPRESSION_CHARS = 2 ** 18


class InputError(ValueError):
    """File or input-data problem that names its input: exit code 3."""


class VerificationFailure(Exception):
    """Residual beyond tolerance: exit code 1."""


def _jet_order(args, least: int = 2) -> int:
    """--order, else ZCURV_ORDER, else DEFAULT_ORDER; from the verb's
    ``least`` order to MAX_ORDER."""
    order = args.order
    if order is None:
        raw = os.environ.get("ZCURV_ORDER", str(DEFAULT_ORDER))
        try:
            order = int(raw)
        except ValueError:
            order = -1
        if order < least:
            raise InputError(
                f"ZCURV_ORDER must be an integer >= {least}, got {_clip(raw)}")
    if order < least:
        raise InputError(f"--order must be >= {least}")
    if order > MAX_ORDER:
        raise InputError(
            f"jet order {_clip(order)} is past the limit of {MAX_ORDER}")
    return order


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite float >= 0."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not math.isfinite(tol) or tol < 0:
        raise argparse.ArgumentTypeError(
            f"expected a finite number >= 0, got {_clip(text)}")
    return tol


def _check_residuals(residuals, mags, tol: float) -> None:
    """At tol 0 only exactly zero residuals pass; otherwise mags <= tol."""
    if tol == 0 and not all(res.is_zero() for res in residuals):
        raise VerificationFailure(f"residual {max(mags)!r} is not exactly zero")
    if max(mags) > tol:
        raise VerificationFailure(f"residual {max(mags)!r} exceeds {tol!r}")


def _rational(value, what: str) -> Fraction:
    """``Fraction(value)`` for the input ``what``, a string or a number (not
    a bool).  Any refusal is an InputError that names ``what``; a decimal
    exponent past MAX_RATIONAL_BITS is refused before Fraction builds the
    power of ten, a run of digits past Python's int-string limit before
    Fraction refuses it, and a numerator or denominator of more bits after."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise InputError(f"{what} must be a rational, got {_clip(value)}")
    exponent = isinstance(value, str) and re.fullmatch(_DECIMAL_EXPONENT,
                                                       value)
    digits = exponent and exponent[1].replace("_", "").lstrip("0")
    if digits and (len(digits) > len(str(MAX_RATIONAL_BITS))
                   or int(digits) > MAX_RATIONAL_BITS):
        raise InputError(f"{what} {_clip(value)} has a decimal exponent past "
                         f"the limit of {MAX_RATIONAL_BITS}")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if isinstance(value, str) and limit and len(value) > limit and any(
            len(run) - run.count("_") > limit
            for run in re.findall(r"[\d_]+", value)):
        raise InputError(f"{what} {_clip(value)} has a run of more than "
                         f"{limit} digits, past the limit of "
                         f"{MAX_RATIONAL_BITS} bits")
    try:
        q = Fraction(value)
    except (ValueError, ArithmeticError):
        raise InputError(f"{what} must be a rational, got "
                         f"{_clip(value)}") from None
    if max(q.numerator.bit_length(),
           q.denominator.bit_length()) > MAX_RATIONAL_BITS:
        raise InputError(f"{what} {_clip(value)} has a numerator or "
                         f"denominator past the limit of {MAX_RATIONAL_BITS} "
                         "bits")
    return q


def _parse_base(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"--base expects 'x0,y0', got {_clip(text)}")
    return _rational(parts[0], "--base"), _rational(parts[1], "--base")


def _read(path: str, parse):
    """``parse`` of the text of a UTF-8 file, with errors that name it."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        return parse(text)
    except (ValueError, RecursionError) as exc:  # bad document, deep nesting
        raise InputError(f"{path}: {exc}") from None


def _parse_checked(text, allow: set[str], program):
    """The expression of ``text``, parsed into ``program``; it may only use
    the variables in ``allow``.  An error echoes the text through ``_clip``,
    or gives its length if it is past MAX_EXPRESSION_CHARS."""
    from .exprparse import ExprSyntaxError, parse_expression, used_variables
    if not isinstance(text, str):
        raise InputError(f"expected an expression string, got {_clip(text)}")
    if len(text) > MAX_EXPRESSION_CHARS:
        raise InputError(f"expression of {len(text)} characters is past "
                         f"the limit of {MAX_EXPRESSION_CHARS}")
    try:
        expression = parse_expression(text, program)
    except ExprSyntaxError as exc:
        raise InputError(f"bad expression {_clip(text)}: {exc}") from None
    if used_variables(expression) - allow:
        raise InputError(
            f"expression {_clip(text)} may only use {sorted(allow)}")
    return expression


def _evaluate(text: str, where: str, evaluate, *args):
    """``evaluate(*args)``, the fold of ``text``, whose errors echo the text
    through ``_clip``."""
    try:
        return evaluate(*args)
    except OverflowError:  # ** and math.exp each word it their own way
        raise InputError(f"cannot evaluate {_clip(text)} {where}: float "
                         "overflow") from None
    except (ValueError, ArithmeticError) as exc:
        raise InputError(f"cannot evaluate {_clip(text)} {where}: "
                         f"{exc}") from None


def _build_jets(texts, x: "Jet", y: "Jet") -> tuple:
    """The jets of ``texts``, pairs of a text and the variables it may use,
    parsed into one program and folded with one memo, so a subtree they
    share is folded once."""
    from .exprparse import Program, eval_jet
    program, memo = Program(), {}
    return tuple(_evaluate(text, "as a jet", eval_jet,
                           _parse_checked(text, allow, program), x, y, memo)
                 for text, allow in texts)


def _read_json(path: str) -> dict:
    doc = _read(path, json.loads)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object")
    return doc


# -- verbs ------------------------------------------------------------------


def _cmd_derive(args) -> int:
    from .cartan import parse_cartan
    from .zerocurv import derive_toda
    matrix = _read(args.cartan, parse_cartan)
    print(derive_toda(matrix, form=args.form).render())
    return 0


def _cmd_derive_super(args) -> int:
    from .zerocurv import derive_super_liouville
    print(derive_super_liouville().render())
    return 0


def _cmd_obstruction(args) -> int:
    from .zerocurv import nonreduced_obstruction
    print(nonreduced_obstruction().render())
    return 0


def _cmd_admissible(args) -> int:
    from .cartan import check_admissible, parse_cartan
    matrix = _read(args.cartan, parse_cartan)
    report = check_admissible(matrix, args.scheme)
    print(f"scheme: {report.scheme}")
    print(f"admissible: {'yes' if report.admissible else 'no'}")
    if not report.admissible:
        offs = ", ".join(str(i) for i in report.offending_indices)
        print(f"offending diagonal indices: {offs}")
    return 0 if report.admissible else 1


def _cmd_verify_liouville(args) -> int:
    from .jets import Jet
    from .solutions import liouville_residual, liouville_solution
    # f' and g' cost the solution one order, the residual's F_xy two more
    order, base = _jet_order(args, 3), _parse_base(args.base)
    x, y = (Jet.variable(v, base, order) for v in "xy")
    f, g = _build_jets([(args.f, {"x"}), (args.g, {"y"})], x, y)
    residual = liouville_residual(liouville_solution(f, g))
    mag = residual.max_abs_coeff()
    print(f"residual order: {residual.order}")
    print(f"max residual coefficient magnitude: {mag!r}")
    _check_residuals([residual], [mag], args.tol)
    return 0


def _cmd_verify_lse(args) -> int:
    from .cartan import parse_cartan
    from .jets import Jet
    from .solutions import SolutionVector, lse_residual
    order, base = _jet_order(args), _parse_base(args.base)
    x, y = (Jet.variable(v, base, order) for v in "xy")
    matrix = _read(args.cartan, parse_cartan)
    doc = _read_json(args.solution)
    comps = doc.get("components")
    if not isinstance(comps, list) or len(comps) != matrix.rank:
        raise InputError(
            f"{args.solution}: 'components' must list {matrix.rank} "
            "expressions")
    jets = _build_jets([(text, {"x", "y"}) for text in comps], x, y)
    residuals = lse_residual(SolutionVector(jets, matrix), args.form)
    mags = [res.max_abs_coeff() for res in residuals]
    for i, (res, mag) in enumerate(zip(residuals, mags)):
        print(f"component {i + 1}: max residual coefficient {mag!r} "
              f"(order {res.order})")
    _check_residuals(residuals, mags, args.tol)
    return 0


def _sampled_edge(edge: str, texts, nodes, x, y):
    """Edge callable that looks up, by coordinate, the traces evaluated once
    over the one array among ``x`` and ``y``, with one memo: ``nodes`` are
    the traces parsed into one program."""
    import numpy as np

    from .exprparse import eval_float
    coords, memo = (x if isinstance(x, np.ndarray) else y), {}
    traces = [_evaluate(text, f"on {edge}", eval_float, node, x, y, memo)
              for text, node in zip(texts, nodes)]
    rows = np.column_stack([np.broadcast_to(t, coords.shape) for t in traces])
    return dict(zip(coords.tolist(), rows.tolist())).__getitem__


def _cmd_solve(args) -> int:
    import numpy as np

    from .cartan import parse_cartan
    from .exprparse import Program
    from .numerics import GoursatData, grid_points, solve_goursat, \
        square_steps, write_csv
    matrix = _read(args.cartan, parse_cartan)
    doc = _read_json(args.boundary)
    try:
        ends = {key: doc[key] for key in ("x0", "x1", "y0", "y1")}
        x0, x1, y0, y1 = (_rational(value, f"{args.boundary}: {key}")
                          for key, value in ends.items())
        x_exprs, y_exprs = doc["x_edge"], doc["y_edge"]
    except KeyError as exc:
        raise InputError(f"{args.boundary}: bad boundary document "
                         f"({exc})") from None
    n = matrix.rank
    if not (isinstance(x_exprs, list) and isinstance(y_exprs, list)
            and len(x_exprs) == n and len(y_exprs) == n):
        raise InputError(
            f"{args.boundary}: x_edge and y_edge must list {n} expressions")
    x_program, y_program = Program(), Program()
    x_nodes = [_parse_checked(text, {"y"}, x_program) for text in x_exprs]
    y_nodes = [_parse_checked(text, {"x"}, y_program) for text in y_exprs]
    h = _rational(args.h, "--h")
    if h <= 0:
        raise InputError(f"--h must be positive, got {_clip(args.h)}")
    # the points solve_goursat samples: m steps from x0 and from y0
    m = square_steps(x0, x1, y0, y1, h, n)
    xs, ys = (np.array(grid_points(lo, h, m)) for lo in (x0, y0))
    data = GoursatData(
        x0, x1, y0, y1,
        x_edge=_sampled_edge("x_edge", x_exprs, x_nodes, 0.0, ys),
        y_edge=_sampled_edge("y_edge", y_exprs, y_nodes, xs, 0.0))
    grid = solve_goursat(matrix, data, h)
    try:
        write_csv(grid, args.out)
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc}") from None
    print(f"grid: {grid.steps + 1} x {grid.steps + 1} points, "
          f"rank {grid.rank}")
    print(f"corrector sweep residual: {grid.sweep_residual:.17g}")
    print(f"wrote {args.out}")
    return 0


def _cmd_bracket_table(args) -> int:
    from .superalg import fixture_table
    from .symexpr import _linear_str
    table = fixture_table(args.algebra)
    for a in table.names:
        for b in table.names:
            braces = table.parity(a) and table.parity(b)
            lhs = f"{{{a}, {b}}}" if braces else f"[{a}, {b}]"
            print(f"{lhs} = {_linear_str(table.bracket(a, b))}")
    return 0


@functools.cache  # the parser depends on no input: build it once
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zcurv",
        description="Derive and verify Toda-type zero-curvature systems")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("derive", help="derive the classical system")
    p.add_argument("--cartan", required=True)
    p.add_argument("--form", choices=["ls", "lsbis"], default="lsbis")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("derive-super", help="derive the reduced super system")
    p.set_defaults(func=_cmd_derive_super)

    p = sub.add_parser("obstruction",
                       help="show the non-reduced flatness obstruction")
    p.set_defaults(func=_cmd_obstruction)

    p = sub.add_parser("admissible", help="check a diagonal condition")
    p.add_argument("--cartan", required=True)
    p.add_argument("--scheme", choices=["lse1", "lse2"], required=True)
    p.set_defaults(func=_cmd_admissible)

    p = sub.add_parser("verify-liouville",
                       help="check the two-function solution formula")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--base", default="0,0")
    p.add_argument("--tol", type=_tolerance, default=0.0)
    p.set_defaults(func=_cmd_verify_liouville)

    p = sub.add_parser("verify-lse", help="check a solution vector")
    p.add_argument("--cartan", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--form", choices=["ls", "lsbis"], required=True)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--base", default="0,0")
    p.add_argument("--tol", type=_tolerance, default=0.0)
    p.set_defaults(func=_cmd_verify_lse)

    p = sub.add_parser("solve", help="integrate a Goursat problem")
    p.add_argument("--cartan", required=True)
    p.add_argument("--boundary", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bracket-table", help="print an oracle bracket table")
    p.add_argument("--algebra", choices=["sl2", "osp12"], required=True)
    p.set_defaults(func=_cmd_bracket_table)

    # A word that begins with '-' and is no option of the verb (exact, as
    # --opt=value or abbreviated) is a value, as argparse reads a negative
    # number.  Set after add_argument, which would count -h as a
    # negative-number option and switch the rule off.
    for verb in sub.choices.values():
        verb._negative_number_matcher = re.compile("-")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:  # InputError included
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
