"""Command-line front end.

Exit codes: 0 success, 1 verification failure (or inadmissible matrix),
2 usage errors, 3 file/parse/input errors.  Output is byte-deterministic
for identical inputs.  The environment variable ZCURV_ORDER (integer >= 2)
overrides the default jet order 8 where no --order flag is given.
"""

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .cartan import CartanFormatError, parse_cartan
from .exprparse import ExprSyntaxError, eval_float, eval_jet, \
    parse_expression, used_variables
from .jets import Jet
from .numerics import GoursatData, solve_goursat, write_csv
from .solutions import SolutionVector, liouville_residual, liouville_solution, \
    lse_residual
from .superalg import bracket_table, osp12_basis, sl2_basis
from .zerocurv import derive_super_liouville, derive_toda, \
    nonreduced_obstruction

DEFAULT_ORDER = 8


class InputError(Exception):
    """File or input-data problem: exit code 3."""


class VerificationFailure(Exception):
    """Residual beyond tolerance: exit code 1."""


def _jet_order(args) -> int:
    """--order, else ZCURV_ORDER, else DEFAULT_ORDER; at least 2."""
    if args.order is not None:
        if args.order < 2:
            raise InputError("--order must be >= 2")
        return args.order
    raw = os.environ.get("ZCURV_ORDER", str(DEFAULT_ORDER))
    try:
        order = int(raw)
    except ValueError:
        order = -1
    if order < 2:
        raise InputError(f"ZCURV_ORDER must be an integer >= 2, got {raw!r}")
    return order


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite float >= 0."""
    tol = float(text)  # a ValueError becomes argparse's usage error
    if not math.isfinite(tol) or tol < 0:
        raise argparse.ArgumentTypeError(
            f"expected a finite number >= 0, got {text!r}")
    return tol


def _check_residuals(residuals, mags, tol: float) -> None:
    """At tol 0 only exactly zero residuals pass; otherwise mags <= tol."""
    if tol == 0 and not all(res.is_zero() for res in residuals):
        raise VerificationFailure(f"residual {max(mags)!r} is not exactly zero")
    if max(mags) > tol:
        raise VerificationFailure(f"residual {max(mags)!r} exceeds {tol!r}")


def _parse_base(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"--base expects 'x0,y0', got {text!r}")
    try:
        return Fraction(parts[0]), Fraction(parts[1])
    except (ValueError, ZeroDivisionError):
        raise InputError(f"--base expects rationals, got {text!r}") from None


def _read_cartan(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        return parse_cartan(text)
    except CartanFormatError as exc:
        raise InputError(f"{path}: {exc}") from None


def _parse_checked(text, allow: set[str]):
    """Parse an expression that may only use the variables in ``allow``."""
    if not isinstance(text, str):
        raise InputError(f"expected an expression string, got {text!r}")
    try:
        node = parse_expression(text)
        # recurses deeper per level than the evaluators, so they cannot
        # overflow the stack on a tree that passes here
        extra = used_variables(node) - allow
    except ExprSyntaxError as exc:
        raise InputError(f"bad expression {text!r}: {exc}") from None
    except RecursionError:
        raise InputError(f"expression of {len(text)} characters is nested "
                         "too deeply") from None
    if extra:
        raise InputError(
            f"expression {text!r} may only use {sorted(allow)}")
    return node


def _build_jet(text, base, order: int, allow: set[str]) -> Jet:
    node = _parse_checked(text, allow)
    x = Jet.variable("x", base, order)
    y = Jet.variable("y", base, order)
    try:
        return eval_jet(node, x, y)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot evaluate {text!r} as a jet: {exc}") from None


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, nesting
        raise InputError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object")
    return doc


# -- verbs ------------------------------------------------------------------


def _cmd_derive(args) -> int:
    matrix = _read_cartan(args.cartan)
    try:
        system = derive_toda(matrix, form=args.form)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    print(system.render())
    return 0


def _cmd_derive_super(args) -> int:
    print(derive_super_liouville().render())
    return 0


def _cmd_obstruction(args) -> int:
    print(nonreduced_obstruction().render())
    return 0


def _cmd_admissible(args) -> int:
    from .cartan import check_admissible

    matrix = _read_cartan(args.cartan)
    report = check_admissible(matrix, args.scheme)
    print(f"scheme: {report.scheme}")
    print(f"admissible: {'yes' if report.admissible else 'no'}")
    if not report.admissible:
        offs = ", ".join(str(i) for i in report.offending_indices)
        print(f"offending diagonal indices: {offs}")
    return 0 if report.admissible else 1


def _cmd_verify_liouville(args) -> int:
    order = _jet_order(args)
    base = _parse_base(args.base)
    f = _build_jet(args.f, base, order, {"x"})
    g = _build_jet(args.g, base, order, {"y"})
    try:
        solution = liouville_solution(f, g)
        residual = liouville_residual(solution)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    mag = residual.max_abs_coeff()
    print(f"residual order: {residual.order}")
    print(f"max residual coefficient magnitude: {mag!r}")
    _check_residuals([residual], [mag], args.tol)
    return 0


def _cmd_verify_lse(args) -> int:
    order = _jet_order(args)
    base = _parse_base(args.base)
    matrix = _read_cartan(args.cartan)
    doc = _read_json(args.solution)
    comps = doc.get("components")
    if not isinstance(comps, list) or len(comps) != matrix.rank:
        raise InputError(
            f"{args.solution}: 'components' must list {matrix.rank} "
            "expressions")
    jets = tuple(_build_jet(text, base, order, {"x", "y"}) for text in comps)
    try:
        residuals = lse_residual(SolutionVector(jets, matrix), args.form)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    mags = [res.max_abs_coeff() for res in residuals]
    for i, (res, mag) in enumerate(zip(residuals, mags)):
        print(f"component {i + 1}: max residual coefficient {mag!r} "
              f"(order {res.order})")
    _check_residuals(residuals, mags, args.tol)
    return 0


def _cmd_solve(args) -> int:
    matrix = _read_cartan(args.cartan)
    doc = _read_json(args.boundary)
    try:
        x0, x1 = Fraction(doc["x0"]), Fraction(doc["x1"])
        y0, y1 = Fraction(doc["y0"]), Fraction(doc["y1"])
        x_exprs = doc["x_edge"]
        y_exprs = doc["y_edge"]
    except (KeyError, ValueError, TypeError, ArithmeticError) as exc:
        raise InputError(f"{args.boundary}: bad boundary document "
                         f"({exc})") from None
    n = matrix.rank
    if not (isinstance(x_exprs, list) and isinstance(y_exprs, list)
            and len(x_exprs) == n and len(y_exprs) == n):
        raise InputError(
            f"{args.boundary}: x_edge and y_edge must list {n} expressions")
    x_nodes = [_parse_checked(text, {"y"}) for text in x_exprs]
    y_nodes = [_parse_checked(text, {"x"}) for text in y_exprs]
    data = GoursatData(
        x0, x1, y0, y1,
        x_edge=lambda y: [eval_float(nd, 0.0, y) for nd in x_nodes],
        y_edge=lambda x: [eval_float(nd, x, 0.0) for nd in y_nodes])
    try:
        h = Fraction(args.h)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"--h expects a rational step, got {args.h!r}") \
            from None
    if h <= 0:
        raise InputError(f"--h must be positive, got {args.h!r}")
    try:
        grid = solve_goursat(matrix, data, h)
    except (ValueError, ArithmeticError) as exc:
        raise InputError(str(exc)) from None
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
    basis = sl2_basis() if args.algebra == "sl2" else osp12_basis()
    table = bracket_table(basis)
    odd = {"d+", "d-"}
    for a in table.names:
        for b in table.names:
            value = table.bracket(a, b)
            if not value:
                text = "0"
            else:
                parts = []
                for coeff, name in value:
                    if coeff == 1:
                        piece = name
                    elif coeff == -1:
                        piece = f"-{name}"
                    else:
                        piece = f"{coeff}*{name}"
                    parts.append(piece)
                text = " + ".join(parts).replace("+ -", "- ")
            braces = a in odd and b in odd
            lhs = f"{{{a}, {b}}}" if braces else f"[{a}, {b}]"
            print(f"{lhs} = {text}")
    return 0


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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
