"""Span and count wrappers around zcurv's layer boundaries.

``install`` replaces public functions and methods of the zcurv modules
with wrappers that record, per span name, the number of outermost calls
and their self time (span time minus the time of child spans).  A call
made while a span of the same name is innermost is passed straight
through, so recursion (``eval_jet``) and methods built on their siblings
(``Scalar.__sub__`` on ``__add__``) count once.  Spans are recorded on the
main thread only; the wavefront schedule's pool threads run the cell
kernel, which calls nothing wrapped.

Only the traced run of the benchmark installs these wrappers.
"""

import os
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.stack = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.main = threading.get_ident()

    def span(self, name, hook=None):
        """Decorator factory: ``name`` is a string or f(args, kwargs)."""
        stack, self_s, calls = self.stack, self.self_s, self.calls
        main, get_ident, clock = self.main, threading.get_ident, \
            time.perf_counter

        def wrap(fn):
            def wrapper(*args, **kwargs):
                if get_ident() != main:
                    return fn(*args, **kwargs)
                label = name(args, kwargs) if callable(name) else name
                if stack and stack[-1][0] == label:
                    return fn(*args, **kwargs)
                frame = [label, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    self_s[label] += dt - frame[1]
                    calls[label] += 1
                    if stack:
                        stack[-1][1] += dt
                if hook is not None:
                    t1 = clock()
                    hook(args, kwargs, result)
                    if stack:  # keep the hook out of every self time
                        stack[-1][1] += clock() - t1
                return result
            return wrapper
        return wrap

    def count(self, name):
        counts = self.counts

        def wrap(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return wrap


def _zcurv_modules():
    return [m for n, m in list(sys.modules.items())
            if n == "zcurv" or n.startswith("zcurv.")]


def install(tracer: Tracer):
    """Wrap the layer boundaries; returns a function that unwraps them."""
    undo = []

    def _patch_function(module, attr, wrap):
        """Replace every reference to module.attr held by a zcurv module."""
        orig = getattr(module, attr)
        new = wrap(orig)
        for mod in _zcurv_modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)
                    undo.append((mod, key, orig))

    def _patch_methods(cls, names, wrap):
        done = {}
        for meth in names:
            orig = cls.__dict__[meth]
            if orig not in done:
                done[orig] = wrap(orig)
        for key, value in list(cls.__dict__.items()):
            if value in done:
                setattr(cls, key, done[value])
                undo.append((cls, key, value))

    from zcurv import (cartan, cli, exprparse, jets, numerics, scalars,
                       solutions, superalg, superfield, symexpr, zerocurv)

    span, count = tracer.span, tracer.count
    counts = tracer.counts

    def coeff_products(args, kwargs, result):
        a, b = args
        if not isinstance(b, jets.Jet):
            counts["jets.coeff_products"] += len(a.coeffs)
            return
        k = a.order
        hist = [0] * (k + 1)
        for i, j in b.coeffs:
            hist[i + j] += 1
        cum = [0] * (k + 1)
        run = 0
        for d in range(k + 1):
            run += hist[d]
            cum[d] = run
        counts["jets.coeff_products"] += sum(cum[k - i - j]
                                             for i, j in a.coeffs)

    _patch_methods(jets.Jet, ["__mul__"],
                   span("jets.mul", hook=coeff_products))
    for meth in ("exp", "ln", "inverse"):
        _patch_methods(jets.Jet, [meth], span(f"jets.{meth}"))

    _patch_methods(scalars.Scalar,
                   ["__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
                    "inverse", "exp", "ln", "__float__"], span("scalars"))
    for fn in ("sexp", "sln", "sinv"):
        _patch_function(scalars, fn, span("scalars"))

    for fn in ("liouville_solution", "liouville_residual", "lse_residual",
               "super_liouville_residual"):
        _patch_function(solutions, fn, span(f"solutions.{fn}"))

    _patch_function(exprparse, "parse_expression", span("exprparse.parse"))
    for fn in ("eval_jet", "eval_float"):
        _patch_function(exprparse, fn, span(f"exprparse.{fn}"))

    _patch_methods(superfield.SuperField, ["__mul__", "__rmul__"],
                   span("superfield.mul"))
    for meth in ("exp", "ln"):
        _patch_methods(superfield.SuperField, [meth],
                       span(f"superfield.{meth}"))
    _patch_methods(superfield.SuperField,
                   ["d_plus", "d_minus", "deriv_x", "deriv_y"],
                   span("superfield.deriv"))

    _patch_methods(symexpr.Expr,
                   ["__add__", "__neg__", "__sub__", "__mul__", "_derive",
                    "deriv_x", "deriv_y", "d_plus", "d_minus", "substitute",
                    "render"], span("symexpr"))
    for fn in ("fn", "exp_linear"):
        _patch_function(symexpr, fn, span("symexpr"))

    for fn in ("derive_toda", "derive_super_liouville",
               "nonreduced_obstruction", "curvature"):
        _patch_function(zerocurv, fn, span(f"zerocurv.{fn}"))

    _patch_function(superalg, "bracket_table",
                    span("superalg.bracket_table"))
    _patch_function(superalg, "supercommutator",
                    count("superalg.supercommutator_calls"))
    for fn in ("parse_cartan", "check_admissible"):
        _patch_function(cartan, fn, span(f"cartan.{fn}"))

    def schedule(args, kwargs):
        sched = args[3] if len(args) > 3 else kwargs.get("schedule",
                                                          "sequential")
        return f"numerics.{sched}"

    def cells(args, kwargs, grid):
        counts["numerics.cells"] += grid.steps * grid.steps

    def csv_bytes(args, kwargs, result):
        counts["numerics.csv_bytes"] += os.path.getsize(args[1])

    _patch_function(numerics, "solve_goursat", span(schedule, hook=cells))
    _patch_function(numerics, "residual_grid",
                    span("numerics.residual_grid"))
    _patch_function(numerics, "write_csv",
                    span("numerics.write_csv", hook=csv_bytes))
    _patch_function(cli, "main", span("cli.main"))

    def uninstall():
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)
    return uninstall


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values, keyed as in BENCHMARK.json."""
    s, c, n = tracer.self_s, tracer.calls, tracer.counts
    kernel_s = s["numerics.sequential"] + s["numerics.wavefront"]
    return {
        "jets.mul_calls": c["jets.mul"],
        "jets.coeff_products": n["jets.coeff_products"],
        "jets.mul_s": s["jets.mul"],
        "jets.exp_s": s["jets.exp"],
        "jets.ln_s": s["jets.ln"],
        "jets.inverse_s": s["jets.inverse"],
        "scalars.scalar_ops": c["scalars"],
        "scalars.self_s": s["scalars"],
        "solutions.liouville_solution_s": s["solutions.liouville_solution"],
        "solutions.liouville_residual_s": s["solutions.liouville_residual"],
        "solutions.lse_residual_s": s["solutions.lse_residual"],
        "solutions.super_liouville_residual_s":
            s["solutions.super_liouville_residual"],
        "exprparse.parse_s": s["exprparse.parse"],
        "exprparse.eval_jet_s": s["exprparse.eval_jet"],
        "exprparse.eval_float_calls": c["exprparse.eval_float"],
        "exprparse.eval_float_s": s["exprparse.eval_float"],
        "superfield.mul_calls": c["superfield.mul"],
        "superfield.mul_s": s["superfield.mul"],
        "superfield.exp_s": s["superfield.exp"],
        "superfield.ln_s": s["superfield.ln"],
        "superfield.deriv_s": s["superfield.deriv"],
        "symexpr.self_s": s["symexpr"],
        "zerocurv.derive_toda_s": s["zerocurv.derive_toda"],
        "zerocurv.derive_super_liouville_s":
            s["zerocurv.derive_super_liouville"],
        "zerocurv.nonreduced_obstruction_s":
            s["zerocurv.nonreduced_obstruction"],
        "zerocurv.curvature_s": s["zerocurv.curvature"],
        "superalg.bracket_table_s": s["superalg.bracket_table"],
        "superalg.supercommutator_calls": n["superalg.supercommutator_calls"],
        "cartan.parse_cartan_s": s["cartan.parse_cartan"],
        "cartan.check_admissible_s": s["cartan.check_admissible"],
        "numerics.cells": n["numerics.cells"],
        "numerics.cells_per_s": n["numerics.cells"] / kernel_s
        if kernel_s else 0.0,
        "numerics.sequential_s": s["numerics.sequential"],
        "numerics.wavefront_s": s["numerics.wavefront"],
        "numerics.residual_grid_s": s["numerics.residual_grid"],
        "numerics.write_csv_s": s["numerics.write_csv"],
        "numerics.csv_bytes": n["numerics.csv_bytes"],
        "cli.main_calls": c["cli.main"],
        "cli.self_s": s["cli.main"],
    }
