"""Check the benchmark's closed forms with sympy, independently of zcurv.

Usage: python3 bench/oracle.py SAMPLES_JSON GOLDEN_DIR

SAMPLES_JSON lists one generated instance per family.  Each closed form
is differentiated symbolically and its residual evaluated to 60 digits at
the base point and two further points; the float closed form that checks
solve grids is compared with sympy too.  The expected `derive` renderer is
compared with the goldens.  Prints one JSON object.
"""

import json
import sys
from pathlib import Path

import sympy as sp

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gen  # noqa: E402

X, Y = sp.symbols("x y")
NAMES = {"x": X, "y": Y, "ln": sp.log, "exp": sp.exp}


def sym(text):
    return sp.sympify(text.replace("^", "**"), locals=NAMES)


def _points(x0, y0):
    x0, y0 = sp.Rational(x0), sp.Rational(y0)
    return [(x0, y0), (x0 + sp.Rational(1, 97), y0 + sp.Rational(1, 89)),
            (x0 + sp.Rational(2, 83), y0 + sp.Rational(3, 79))]


def _vanishes(expr, points):
    for a, b in points:
        v = expr.subs({X: a, Y: b}).evalf(60)
        if not (v.is_number and abs(v) < sp.Float("1e-40")):
            return False
    return True


def _fg(sample):
    f, g = gen.Fn.from_spec(sample["f"]), gen.Fn.from_spec(sample["g"])
    fs, gs = sym(f.text("x")), sym(g.text("y"))
    ok = (sp.simplify(sym(f.dtext("x")) - sp.diff(fs, X)) == 0
          and sp.simplify(sym(g.dtext("y")) - sp.diff(gs, Y)) == 0)
    return f, g, fs, gs, ok


def check_liouville(s):
    _, _, f, g, ok = _fg(s)
    big_f = sp.log(sp.diff(f, X) * sp.diff(g, Y) / (f + g) ** 2) / 2
    res = sp.diff(big_f, X, Y) - sp.exp(2 * big_f)
    return ok and _vanishes(res, _points(*s["base"]))


def check_toda(s):
    f, g, _, _, ok = _fg(s)
    n = s["n"]
    a = gen.sl_matrix(n)
    inv = gen.invert(a)
    gt, ft = gen.toda_texts(n, f, g)
    gsym, fsym = [sym(t) for t in gt], [sym(t) for t in ft]
    pts = _points(*s["base"])
    r = n - 1
    for i in range(r):
        res_g = sp.diff(gsym[i], X, Y) - sum(
            int(a[i][j]) * sp.exp(gsym[j]) for j in range(r))
        res_f = sp.diff(fsym[i], X, Y) - sp.exp(sum(
            int(a[i][j]) * fsym[j] for j in range(r)))
        link = fsym[i] - sum(sp.Rational(str(inv[i][j])) * gsym[j]
                             for j in range(r))
        if not (_vanishes(res_g, pts) and _vanishes(res_f, pts)
                and _vanishes(link, pts)):
            return False
    return ok


def check_boundary(s):
    f, g, _, _, ok = _fg(s)
    n = s["n"]
    gt, _ = gen.toda_texts(n, f, g)
    x0, y0 = sp.Rational(s["x0"]), sp.Rational(s["y0"])
    pts = _points(s["x0"], s["y0"])
    for i in range(n - 1):
        gi = sym(gt[i])
        if not (_vanishes(gi.subs(X, x0) - sym(s["x_edge"][i]), pts)
                and _vanishes(gi.subs(Y, y0) - sym(s["y_edge"][i]), pts)):
            return False
        # the float closed form used to check solve grids
        for a, b in pts:
            approx = gen.toda_np(n, f, g, float(a), float(b))[i]
            if abs(float(gi.subs({X: a, Y: b}).evalf(30)) - approx) > 1e-12:
                return False
    return ok


def check_super(s):
    _, _, f, g, ok = _fg(s)
    f0 = sp.log(sp.diff(f, X) * sp.diff(g, Y) / (f - g) ** 2) / 2
    # F = F0 - xi*eta*exp(F0) solves D+D-F = exp(F) iff F0_xy = -exp(2 F0)
    res = sp.diff(f0, X, Y) + sp.exp(2 * f0)
    return ok and _vanishes(res, _points(*s["base"]))


CHECKS = {"liouville": check_liouville, "toda": check_toda,
          "boundary": check_boundary, "super": check_super}


def main():
    samples = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    golden = Path(sys.argv[2])
    failures = [f"{s['check']} {s.get('f')} {s.get('g')}"
                for s in samples if not CHECKS[s["check"]](s)]
    for name, n, form in (("derive_sl2_lsbis.txt", 2, "lsbis"),
                          ("derive_sl2_ls.txt", 2, "ls"),
                          ("derive_sl3_lsbis.txt", 3, "lsbis")):
        if gen.derive_text(gen.sl_matrix(n), form) != \
                (golden / name).read_text(encoding="utf-8"):
            failures.append(f"derive renderer differs from {name}")
    print(json.dumps({"checked": len(samples) + 3, "failures": failures}))


if __name__ == "__main__":
    main()
