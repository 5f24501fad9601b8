"""Run one workload's jobs in a closed loop and check every output.

Usage: python3 bench/worker.py JOBS_JSON SECONDS TRACE

JOBS_JSON holds the generated cycles.  One client runs one job at a time.
Untraced, whole cycles of jobs (all but the last cycle) run until SECONDS
of job time have passed.  Traced, a fixed number of cycles runs once with the
trace wrappers installed and once without, so counts repeat exactly for a
seed.  The last cycle's first jobs warm up the process first.  Prints one
JSON object.
"""

import contextlib
import io
import json
import math
import resource
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from zcurv import (cartan, cli, exprparse, numerics,  # noqa: E402
                   solutions, zerocurv)
from zcurv.cartan import CartanMatrix  # noqa: E402
from zcurv.jets import Jet  # noqa: E402
from zcurv.superfield import SuperField, standard_gens  # noqa: E402

# Largest |computed - closed form| on a solve grid, in units of h^2.  The
# scheme is second order; over these families the constant stays below
# 0.5, and a first-order error would exceed it by orders of magnitude.
ERROR_PER_H2 = 2.0
WARMUP_JOBS = 3
# at least ten jobs beyond the 90th percentile
MIN_JOBS = 100


# -- jobs --------------------------------------------------------------------


def run_cli(job):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(job["argv"])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _grid_error(prob, grid):
    f, g = gen.Fn.from_spec(prob["f"]), gen.Fn.from_spec(prob["g"])
    m = grid.steps
    xs = np.array([grid.x_at(i) for i in range(m + 1)])
    ys = np.array([grid.y_at(j) for j in range(m + 1)])
    exact = gen.toda_np(prob["n"], f, g, xs[:, None], ys[None, :])
    return float(np.max(np.abs(grid.values - exact)))


def run_study(job):
    """Wavefront solves at h and h/2, discrete residuals, observed order."""
    prob, bd = job["problem"], job["boundary"]
    a = CartanMatrix.from_rows(gen.sl_matrix(prob["n"]))
    xn = [exprparse.parse_expression(t) for t in bd["x_edge"]]
    yn = [exprparse.parse_expression(t) for t in bd["y_edge"]]
    data = numerics.GoursatData(
        Fraction(bd["x0"]), Fraction(bd["x1"]), Fraction(bd["y0"]),
        Fraction(bd["y1"]),
        x_edge=lambda y: [exprparse.eval_float(nd, 0.0, y) for nd in xn],
        y_edge=lambda x: [exprparse.eval_float(nd, x, 0.0) for nd in yn])
    h = Fraction(job["h"])
    errors, residuals = [], []
    for step in (h, h / 2):
        grid = numerics.solve_goursat(a, data, step, schedule="wavefront")
        residuals.append(numerics.residual_grid(a, grid))
        errors.append((float(step), _grid_error(prob, grid)))
    return {"order": numerics.convergence_order(errors), "errors": errors,
            "residuals": residuals}


def _poly_jet(spec, var, base, order):
    fn = gen.Fn.from_spec(spec)
    t = Jet.variable(var, base, order)
    return t * t * fn.p[2] + t * fn.p[1] + fn.p[0]


def run_super(job):
    """Residual of the closed-form super Liouville solution."""
    k = job["order"]
    base = tuple(Fraction(v) for v in job["base"])
    f = _poly_jet(job["f"], "x", base, k)
    g = _poly_jet(job["g"], "y", base, k)
    d = (f - g).truncate(k - 1)
    f0 = ((f.deriv_x() * g.deriv_y()) / (d * d)).ln() * Fraction(1, 2)
    gens = ("xi", "eta")
    xi = SuperField.coordinate("xi", gens, base, k - 1)
    eta = SuperField.coordinate("eta", gens, base, k - 1)
    field = SuperField.from_jet(f0, gens) + xi * eta * SuperField.from_jet(
        f0.exp() * (-job["sign"]), gens)
    return solutions.super_liouville_residual(field).is_zero()


def _superfield(spec, gens, order):
    gens = standard_gens(gens - 2)
    comps = {int(m): Jet((0, 0), order, {(i, j): Fraction(c)
                                         for i, j, c in terms})
             for m, terms in spec.items()}
    return SuperField(gens, (0, 0), order, comps)


def run_lnexp(job):
    field = _superfield(job["field"], job["gens"], job["order"])
    return field.exp().ln() == field


def run_dplus2(job):
    k = job["order"]
    field = _superfield(job["field"], job["gens"], k)
    return field.d_plus().d_plus() == field.deriv_x().truncate(k - 2)


def run_curvature(job):
    k = job["order"]
    even = _superfield(job["field"], job["gens"], k)
    odd = _superfield(job["odd_field"], job["gens"], k)
    value = zerocurv.LieValuedField(zerocurv.Osp12Relations(),
                                    {("H", 0): odd, ("d+", 0): even})
    conn = zerocurv.Connection("D+", value)
    return zerocurv.curvature(conn, conn).operator == {"dx": Fraction(2)}


def probe(work: Path):
    """One small call into every layer.

    It runs at the end of each traced pass, so every per-layer metric is
    measured on every workload; for a layer the workload itself does not
    call, the metric measures this probe alone.
    """
    a = CartanMatrix.from_rows(gen.sl_matrix(3))
    x, y = Jet.variable("x", (0, 0), 4), Jet.variable("y", (0, 0), 4)
    f, g = x * 2 + 1, y + 1
    (f * g).exp(), (f * g).ln(), f.inverse()
    sol = solutions.liouville_solution(f, g)
    solutions.liouville_residual(sol)
    solutions.lse_residual(solutions.SolutionVector(
        (sol * 2,), CartanMatrix.from_rows([[2]])), "lsbis")
    field = SuperField.from_jet(f, ("xi", "eta"))
    solutions.super_liouville_residual(field)
    field.ln()
    node = exprparse.parse_expression("x+y")
    exprparse.eval_jet(node, x, y)
    exprparse.eval_float(node, 0.5, 0.5)
    zerocurv.derive_toda(a)
    zerocurv.derive_super_liouville()
    zerocurv.nonreduced_obstruction()
    run_curvature({"order": 3, "gens": 2, "field": {"0": [[1, 0, "1"]]},
                   "odd_field": {"1": [[0, 1, "1"]]}})
    cartan.check_admissible(cartan.parse_cartan(gen.cartan_doc(
        gen.sl_matrix(3))), "lse1")
    data = numerics.GoursatData(0, 1, 0, 1, x_edge=lambda t: [-2.0] * 2,
                                y_edge=lambda t: [-2.0] * 2)
    for schedule in ("sequential", "wavefront"):
        grid = numerics.solve_goursat(a, data, Fraction(1, 4), schedule)
    numerics.residual_grid(a, grid)
    path = work / "probe.csv"
    numerics.write_csv(grid, path)
    path.unlink()
    run_cli({"argv": ["bracket-table", "--algebra", "sl2"]})


RUNNERS = {"cli": run_cli, "study": run_study, "super": run_super,
           "lnexp": run_lnexp, "dplus2": run_dplus2,
           "curvature": run_curvature}


# -- checks ------------------------------------------------------------------


def _check_solve(job, result):
    exp = job["expect"]
    path = Path(job["argv"][-1])
    try:
        return _check_grid(exp, path, result)
    finally:
        path.unlink(missing_ok=True)


def _check_grid(exp, path, result):
    code, out, err = result
    if code != 0 or err:
        return f"exit {code}: {err.strip()[:200]}"
    h = Fraction(exp["h"])
    x0, y0 = Fraction(exp["x0"]), Fraction(exp["y0"])
    m = int((Fraction(exp["x1"]) - x0) / h)
    r = exp["n"] - 1
    lines = out.splitlines()
    if (len(lines) != 3 or lines[0] != f"grid: {m + 1} x {m + 1} "
            f"points, rank {r}"
            or not lines[1].startswith("corrector sweep residual: ")
            or not math.isfinite(float(lines[1].split(": ")[1]))
            or lines[2] != f"wrote {path}"):
        return f"unexpected stdout {out[:200]!r}"
    text = path.read_text(encoding="utf-8")
    header, _, body = text.partition("\n")
    if header != "x,y," + ",".join(f"G_{k + 1}" for k in range(r)):
        return f"bad header {header!r}"
    vals = np.array(body.replace(",", " ").split(), dtype=float)
    if vals.size != (m + 1) ** 2 * (r + 2):
        return f"CSV has {vals.size} numbers"
    vals = vals.reshape(m + 1, m + 1, r + 2)
    xs = np.array([float(x0 + i * h) for i in range(m + 1)])
    ys = np.array([float(y0 + j * h) for j in range(m + 1)])
    if not (np.array_equal(vals[:, :, 0], np.repeat(xs[:, None], m + 1, 1))
            and np.array_equal(vals[:, :, 1],
                               np.repeat(ys[None, :], m + 1, 0))):
        return "grid coordinates differ from x0 + i*h, y0 + j*h"
    f, g = gen.Fn.from_spec(exp["f"]), gen.Fn.from_spec(exp["g"])
    exact = gen.toda_np(exp["n"], f, g, xs[:, None], ys[None, :])
    worst = float(np.max(np.abs(vals[:, :, 2:] - exact)))
    if not worst <= ERROR_PER_H2 * float(h) ** 2:
        return f"max error {worst:.3e} exceeds {ERROR_PER_H2}*h^2"
    return None


def check(job, result):
    """None when the output matches the known answer, else the reason."""
    exp = job["expect"]
    kind = exp.get("type")
    if kind == "liouville":
        want = (0, f"residual order: {exp['order'] - 3}\n"
                   "max residual coefficient magnitude: 0.0\n", "")
        return None if result == want else f"got {result!r}"
    if kind == "lse":
        code, out, err = result
        k, bad = exp["order"], exp["bad"]
        if bad is None:
            want = "".join(f"component {i + 1}: max residual coefficient 0.0 "
                           f"(order {k - 2})\n" for i in range(exp["rank"]))
            ok = code == 0 and out == want and not err
            return None if ok else f"got {result!r}"
        lines = out.splitlines()
        prefix = f"component {bad + 1}: max residual coefficient "
        if (code != 1 or not err.startswith("verification failed: residual ")
                or len(lines) != exp["rank"]
                or not lines[bad].startswith(prefix)
                or not float(lines[bad][len(prefix):].split(" ")[0]) > 0):
            return f"perturbed solution not rejected: {result!r}"
        return None
    if kind == "solve":
        return _check_solve(job, result)
    if kind == "study":
        (_, e1), (_, e2) = result["errors"]
        r1, r2 = result["residuals"]
        ok = (1.8 <= result["order"] <= 2.2 and 0 < e2 < e1
              and math.isfinite(r1) and 0 < r2 < r1)
        return None if ok else f"study {result!r}"
    if kind == "exact":
        code, out, err = result
        ok = code == exp["code"] and out == exp["stdout"] and not err
        return None if ok else f"got {result!r}"[:300]
    if "zero" in exp:
        return None if result == exp["zero"] else f"residual zero={result}"
    return None if result is True else "identity does not hold"


# -- loop --------------------------------------------------------------------


def run_jobs(jobs, seconds=None, cycle=1):
    """Closed loop: the next job starts when the previous one returns.

    With ``seconds``, whole cycles of ``cycle`` jobs run until that much job
    time has passed and at least MIN_JOBS jobs ran, so every run times the
    same mix.  The reference slice of bench/speed.py runs before each job,
    outside its time, and the latencies are also reported scaled to the
    reference's nominal speed.  Outputs are checked after the loop, so
    neither the latencies nor the peak resident memory taken here include
    the benchmark's own checks.
    """
    latencies, refs, done = [], [], []
    spent = 0.0
    for i, job in enumerate(jobs):
        if (seconds is not None and spent >= seconds and i % cycle == 0
                and i >= MIN_JOBS):
            break
        refs.append(speed.reference())
        t0 = time.perf_counter()
        try:
            result, error = RUNNERS[job["kind"]](job), None
        except Exception:  # a crash is a failed job, not a dead benchmark
            result, error = None, traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        spent += dt
        latencies.append(dt)
        done.append((job, result, error))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures = []
    for job, result, error in done:
        reason = error or check(job, result)
        if reason:
            failures.append(f"{job['tag']}: {reason}"[:400])
    kinds = Counter(job["tag"] for job, _, _ in done)
    scaled = speed.scale(latencies, refs)
    rates = [cycle / sum(scaled[i:i + cycle])
             for i in range(0, len(scaled) - cycle + 1, cycle)]
    return {"latencies": latencies, "scaled": scaled, "kinds": dict(kinds),
            "failures": failures, "spent": spent, "peak_rss_kb": peak_kb,
            "attempted": len(done), "cycle_rates": rates}


def main():
    jobs_path, seconds, traced = sys.argv[1], float(sys.argv[2]), \
        sys.argv[3] == "1"
    doc = json.loads(Path(jobs_path).read_text(encoding="utf-8"))
    cycles = doc["cycles"]
    run_jobs(cycles[-1][:WARMUP_JOBS])
    if not traced:
        out = run_jobs([job for cyc in cycles[:-1] for job in cyc], seconds,
                       len(cycles[0]))
    else:
        # The traced pass sees fresh inputs; the untraced pass then repeats
        # them, so the overhead ratio compares identical work.
        jobs = [job for cyc in cycles[:doc["trace_cycles"]] for job in cyc]
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        out = run_jobs(jobs)
        probe(Path(jobs_path).parent)
        uninstall()
        plain = run_jobs(jobs)
        out["layers"] = spans.layer_metrics(tracer)
        out["overhead"] = sum(out["scaled"]) / sum(plain["scaled"])
        out["failures"] += plain["failures"]
        out["attempted"] += plain["attempted"]
    print(json.dumps(out))


if __name__ == "__main__":
    main()
