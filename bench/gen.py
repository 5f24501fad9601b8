"""Seeded job generators with answers known from mathematics.

Nothing here imports zcurv: every expected verdict, equation and value is
built from closed forms, so a defect in zcurv cannot also hide in the
expectation it is checked against.

Known answers used:

* Liouville: for any f(x), g(y) with f'g' > 0 and f + g != 0,
  F = (1/2) ln(f' g' / (f + g)^2) solves F_xy = exp(2F).
* Toda (slN, G-form): G_i = ln(w_i) + ln(f'(x) g'(y)) - 2 ln(f + g) with
  w_i = i (N - i) solves G_i_xy = sum_j A_ij exp(G_j), because
  sum_j A_ij w_j = 2 for the slN Cartan matrix.  F = inverse(A) G solves
  the F-form F_i_xy = exp(sum_j A_ij F_j).
* Super Liouville: F = F0 - xi*eta*exp(F0) with
  F0 = (1/2) ln(f' g' / (f - g)^2) solves D+(D-(F)) = exp(F); flipping the
  sign of the xi*eta part does not.
* Derivation: the zero-curvature system of a Cartan matrix A and its
  rendering, rebuilt term by term from A.
"""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

WORKLOADS = ("series-verify", "goursat", "zerocurv")

GOLDEN_NOTE = ("# index convention: [H_i, X_j+] = A_ji*X_j+ and "
               "[X_i+, X_j-] = delta_ij*H_i; pinned by the eliminated "
               "G-form system")


# -- seeded functions of one variable ------------------------------------


def _join_terms(terms):
    """Render [(coeff, monomial)] as an expression with explicit signs."""
    out = ""
    for c, mono in terms:
        if c == 0:
            continue
        mag = abs(c)
        piece = str(mag) if mono is None else (
            mono if mag == 1 else f"{mag}*{mono}")
        if not out:
            out = piece if c > 0 else f"-{piece}"
        else:
            out += f"+{piece}" if c > 0 else f"-{piece}"
    return out or "0"


class Fn:
    """A closed-form function of one variable with its derivative.

    kind 'poly': c0 + c1 v + c2 v^2;  'rat': (a v + b) / (v + d);
    'exp': c0 + exp(a v).  The parameters keep f' > 0 and f > 0 for v >= 0
    (b > 0 and a d > b), so f + g never vanishes at a base point.
    """

    def __init__(self, kind, params):
        self.kind = kind
        self.p = tuple(Fraction(v) for v in params)

    def spec(self):
        return [self.kind, [str(v) for v in self.p]]

    @staticmethod
    def from_spec(spec):
        return Fn(spec[0], [Fraction(v) for v in spec[1]])

    def text(self, v):
        p = self.p
        if self.kind == "poly":
            return _join_terms([(p[0], None), (p[1], v), (p[2], f"{v}^2")])
        if self.kind == "rat":
            return f"({_join_terms([(p[0], v), (p[1], None)])})/({v}+{p[2]})"
        return _join_terms([(p[0], None), (1, f"exp({p[1]}*{v})")])

    def dtext(self, v):
        p = self.p
        if self.kind == "poly":
            return _join_terms([(p[1], None), (2 * p[2], v)])
        if self.kind == "rat":
            return f"{p[0] * p[2] - p[1]}/({v}+{p[2]})^2"
        return f"{p[1]}*exp({p[1]}*{v})"

    def value(self, t):
        """Exact value of a polynomial at a rational point."""
        p = self.p
        return p[0] + p[1] * t + p[2] * t * t

    def np(self, t):
        p = [float(v) for v in self.p]
        if self.kind == "poly":
            return p[0] + p[1] * t + p[2] * t * t
        if self.kind == "rat":
            return (p[0] * t + p[1]) / (t + p[2])
        return p[0] + np.exp(p[1] * t)

    def dnp(self, t):
        p = [float(v) for v in self.p]
        if self.kind == "poly":
            return p[1] + 2.0 * p[2] * t
        if self.kind == "rat":
            return (p[0] * p[2] - p[1]) / (t + p[2]) ** 2
        return p[1] * np.exp(p[1] * t)


def _frac(rng, nums, dens=(1, 2, 3), shape=None):
    """num/den with num drawn from ``rng`` and den from ``shape`` (or rng);
    denominators set the size of the exact arithmetic, so a slot fixes
    them through its shape."""
    return Fraction(rng.choice(nums), (shape or rng).choice(dens))


def random_fn(rng, kind, curved=False, shape=None):
    """A seeded Fn; ``curved`` forbids the linear polynomial."""
    if kind == "poly":
        c2 = _frac(rng, (1, 2) if curved else (0, 1, 2), shape=shape)
        return Fn("poly", [_frac(rng, (1, 2), shape=shape),
                           _frac(rng, (1, 2, 3), shape=shape), c2])
    if kind == "rat":
        a, d = rng.choice((1, 2, 3)), rng.choice((1, 2, 3))
        b = rng.choice((1, 2)) if a * d > 2 else Fraction(1, 2)
        return Fn("rat", [a, b, d])
    return Fn("exp", [_frac(rng, (1, 2), shape=shape),
                      _frac(rng, (1, 2), (1, 2), shape=shape)])


# -- Cartan matrices -----------------------------------------------------


def sl_matrix(n):
    r = n - 1
    return [[Fraction(2 if i == j else -1 if abs(i - j) == 1 else 0)
             for j in range(r)] for i in range(r)]


def invert(rows):
    """Exact inverse by Gauss-Jordan, or None when singular."""
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j))
                                         for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def cartan_doc(rows, parities=None, name=None):
    doc = {"matrix": [[int(v) if v.denominator == 1 else str(v) for v in row]
                      for row in rows]}
    if parities is not None:
        doc["parities"] = list(parities)
    if name is not None:
        doc["name"] = name
    return json.dumps(doc)


def random_gcm(rng, r):
    """Generalized Cartan matrix: 2 on the diagonal, a_ij = 0 iff a_ji = 0."""
    rows = [[Fraction(2 if i == j else 0) for j in range(r)] for i in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            if j == i + 1 or rng.random() < 0.3:
                rows[i][j] = Fraction(-rng.choice((1, 1, 2, 3)))
                rows[j][i] = Fraction(-rng.choice((1, 1, 2, 3)))
    return rows


# -- expected renderings ---------------------------------------------------


def _coeff_term(c, mono):
    if c == 1:
        return mono
    if c == -1:
        return f"-{mono}"
    cs = str(c) if c.denominator == 1 else f"({c})"
    return f"{cs}*{mono}"


def _sum_text(terms):
    if not terms:
        return "0"
    text = terms[0]
    for t in terms[1:]:
        text += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return text


def _linear_text(pairs):
    text = ""
    for c, name in pairs:
        mag = abs(c)
        piece = name if mag == 1 else (
            f"{mag}*{name}" if mag.denominator == 1 else f"({mag})*{name}")
        if not text:
            text = piece if c > 0 else f"-{piece}"
        else:
            text += f" + {piece}" if c > 0 else f" - {piece}"
    return text or "0"


def derive_text(rows, form):
    """The `zcurv derive` output for Cartan matrix ``rows``, from A alone.

    Connection d_x + sum a_i H_i + b_i X_i+, d_y + sum A_i H_i + B_i X_i-:
    the H_i, X_j- and X_j+ components of the curvature give
    A_i_x - a_i_y = -b_i B_i,  B_j_x = sum_i A_ji a_i B_j,
    b_j_y = -sum_i A_ji b_j A_i, and G_i = ln(b_i B_i) eliminates to
    G_i_xy = sum_j A_ij exp(G_j).  Terms are listed by their lowercase
    unknown name, as the renderer orders them.
    """
    n = len(rows)
    sfx = [""] if n == 1 else [str(i + 1) for i in range(n)]
    lines = [f"A{s}_x - a{s}_y = -b{s}*B{s}" for s in sfx]
    for j in range(n):
        terms = sorted((f"a{sfx[i]}", _coeff_term(rows[j][i],
                                                 f"a{sfx[i]}*B{sfx[j]}"))
                       for i in range(n) if rows[j][i])
        lines.append(f"B{sfx[j]}_x = " + _sum_text([t for _, t in terms]))
    for j in range(n):
        terms = sorted((f"a{sfx[i]}", _coeff_term(-rows[j][i],
                                                 f"b{sfx[j]}*A{sfx[i]}"))
                       for i in range(n) if rows[j][i])
        lines.append(f"b{sfx[j]}_y = " + _sum_text([t for _, t in terms]))
    defs = [f"G{s} = ln(b{s}*B{s})" for s in sfx]
    if form == "ls":
        defs.append("F = inverse(A)*G")
    lines.append("# " + "; ".join(defs))
    for i in range(n):
        if form == "lsbis":
            terms = sorted((f"G{sfx[j]}", _coeff_term(rows[i][j],
                                                     f"exp(G{sfx[j]})"))
                           for j in range(n) if rows[i][j])
            rhs = _sum_text([t for _, t in terms])
            lines.append(f"G{sfx[i]}_xy = {rhs}")
        else:
            pairs = sorted(((f"F{sfx[j]}", rows[i][j]) for j in range(n)
                            if rows[i][j]))
            rhs = _linear_text([(c, name) for name, c in pairs])
            lines.append(f"F{sfx[i]}_xy = exp({rhs})")
    lines.append(GOLDEN_NOTE)
    return "\n".join(lines) + "\n"


def admissible_text(diag, scheme):
    allowed = {"lse1": (0, 1), "lse2": (2, 1)}[scheme]
    bad = [i for i, d in enumerate(diag) if d not in allowed]
    text = f"scheme: {scheme}\nadmissible: {'no' if bad else 'yes'}\n"
    if bad:
        text += "offending diagonal indices: " + ", ".join(map(str, bad)) + "\n"
    return text, (1 if bad else 0)


# -- Toda closed forms ---------------------------------------------------


def toda_texts(n, f, g, xv="x", yv="y"):
    """G-form and F-form component expressions for slN from f(x), g(y)."""
    r = n - 1
    w = [i * (n - i) for i in range(1, n)]
    inv = invert(sl_matrix(n))
    core = (f"ln({f.dtext(xv)})+ln({g.dtext(yv)})"
            f"-2*ln({f.text(xv)}+{g.text(yv)})")
    gs = [f"ln({w[i]})+{core}" for i in range(r)]
    fs = []
    for i in range(r):
        logs = "+".join(f"{inv[i][j]}*ln({w[j]})" for j in range(r))
        fs.append(f"{logs}+{Fraction(w[i], 2)}*({core})")
    return gs, fs


def toda_np(n, f, g, x, y):
    """G_i(x, y) as float arrays, stacked on the last axis."""
    w = [i * (n - i) for i in range(1, n)]
    core = np.log(f.dnp(x)) + np.log(g.dnp(y)) - 2.0 * np.log(f.np(x) + g.np(y))
    return np.stack([math.log(wi) + core for wi in w], axis=-1)


# -- job generation --------------------------------------------------------


class Pool:
    """Writes input files into ``work`` and keeps inputs unique."""

    def __init__(self, work: Path, rng):
        self.work = work
        self.rng = rng
        self.count = 0
        self.seen = set()
        self.pending = []

    def write(self, suffix, text):
        """Name an input file; it is written once its draw is accepted."""
        self.count += 1
        path = self.work / f"in{self.count:05d}{suffix}"
        self.pending.append((path, text))
        return str(path)

    def fresh(self, draw, tries=50):
        """Call ``draw`` until it returns an unseen key; returns its job.

        Inputs with only a few possible values (sl4 has three node
        labellings) may repeat once every value has been used.
        """
        for attempt in range(tries):
            self.pending = []
            self.last_try = attempt == tries - 1
            key, job = draw()
            if key not in self.seen:
                break
        self.seen.add(key)
        for path, text in self.pending:
            path.write_text(text, encoding="utf-8")
        return job


def _base(rng, zero_x=False, zero_y=False):
    pts = (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1),
           Fraction(2, 3))
    x0 = Fraction(0) if zero_x else rng.choice(pts)
    y0 = Fraction(0) if zero_y else rng.choice(pts)
    return x0, y0


# Cycles are fixed lists of job slots.  A slot fixes what sets a job's
# cost (kind, order or step, rank, function families, base point); the
# seed draws the rest (coefficients, node labellings, perturbations), so
# every seed runs the same mix of job sizes in the same order.  Runs time
# whole cycles, and a cycle holds a number of slots that ends in 5, so the
# median and the 90th percentile fall in the middle of one slot's jobs
# rather than on the edge between two slots of different size.
FAMILIES = ("poly", "rat", "exp")

# series-verify: 22 verify-liouville slots (orders 8..16 over the three
# families, plus the exp family off the origin, whose coefficients leave
# the rationals) and 23 verify-lse slots (sl2..sl5, both forms, orders
# 6..12); every fifth verify-lse slot carries a perturbation.  Middle
# orders come more often than the ends, which keeps the slots near the
# median close in cost.
SERIES_SLOTS = (
    [("liouville", FAMILIES[i % 3], k) for i, k in enumerate(
        (8, 8, 9, 9, 10, 10, 10, 11, 11, 11, 12, 12, 12, 13, 13, 14, 15, 16))]
    + [("liouville", "expS", k) for k in (8, 9, 10, 11)]
    + [("lse", (2 + c % 8 // 2, ("lsbis", "ls")[c % 2]), k)
       for c, k in enumerate((8, 9, 10, 7, 9, 11, 6, 8, 10, 9, 12, 8, 9, 10,
                              7, 9, 11, 8, 10, 9, 12, 6, 9))])


def interleave(slots):
    """Spread each kind of slot evenly over the cycle, so that any prefix
    of a cycle keeps roughly the cycle's mix."""
    count = {}
    keyed = []
    for slot in slots:
        i = count.get(slot[0], 0)
        count[slot[0]] = i + 1
        keyed.append((i, slot))
    return [slot for _, slot in
            sorted(keyed, key=lambda t: (t[0] + 0.5) / count[t[1][0]])]


def _shape(idx):
    """Per-slot choices that set a job's cost (the g family, the base
    point); fixed across seeds so that every seed times the same sizes."""
    return random.Random(f"slot:{idx}")


def _series_cycle(pool):
    jobs = []
    lse_idx = 0
    for idx, (kind, fam, k) in enumerate(interleave(SERIES_SLOTS)):
        if kind == "liouville":
            jobs.append(pool.fresh(
                lambda: _liouville_job(pool, _shape(idx), fam, k)))
        else:
            jobs.append(pool.fresh(lambda: _lse_job(
                pool, _shape(idx), fam[0], fam[1], k, FAMILIES[lse_idx % 3],
                perturb=lse_idx % 5 == 0)))
            lse_idx += 1
    return jobs


def _liouville_job(pool, shape, fam, k):
    rng = pool.rng
    if fam == "expS":
        # f = exp(a x), g = b (y - y0): bodies stay single-term scalars
        a = _frac(rng, (1, 2, 3, 4, 5), (1, 2), shape=shape)
        b = _frac(rng, (1, 2, 3, 4, 5), shape=shape)
        x0 = shape.choice((Fraction(1, 2), Fraction(1), Fraction(1, 3)))
        y0 = shape.choice((Fraction(1), Fraction(1, 2)))
        f = Fn("exp", [0, a])
        g = Fn("poly", [-b * y0, b, 0])
    else:
        f = random_fn(rng, fam, shape=shape)
        g = random_fn(rng, shape.choice(FAMILIES), shape=shape)
        x0, y0 = _base(shape, f.kind == "exp", g.kind == "exp")
    argv = ["verify-liouville", f"--f={f.text('x')}", f"--g={g.text('y')}",
            "--order", str(k), "--base", f"{x0},{y0}"]
    job = {"kind": "cli", "tag": f"verify-liouville/{fam}", "argv": argv,
           "expect": {"type": "liouville", "order": k},
           "oracle": {"check": "liouville", "f": f.spec(), "g": g.spec(),
                      "base": [str(x0), str(y0)]}}
    return tuple(argv), job


def _lse_job(pool, shape, n, form, k, fam, perturb):
    rng = pool.rng
    f = random_fn(rng, fam, shape=shape)
    g = random_fn(rng, shape.choice(FAMILIES), shape=shape)
    x0, y0 = _base(shape, f.kind == "exp", g.kind == "exp")
    gs, fs = toda_texts(n, f, g)
    comps = list(gs if form == "lsbis" else fs)
    bad = None
    if perturb:
        bad = rng.randrange(n - 1)
        comps[bad] += rng.choice(("+x*y/7", "+x^2*y/5", "-x*y^2/3", "+y/9"))
    key = (n, form, k, f.spec().__repr__(), g.spec().__repr__(), x0, y0, bad,
           comps[bad] if bad is not None else None)
    cm = pool.write(".cm", cartan_doc(sl_matrix(n), name=f"sl{n}"))
    sol = pool.write(".json", json.dumps({"components": comps}))
    argv = ["verify-lse", "--cartan", cm, "--solution", sol, "--form", form,
            "--order", str(k), "--base", f"{x0},{y0}"]
    job = {"kind": "cli", "tag": f"verify-lse/{form}" + ("/bad" if perturb
                                                         else ""),
           "argv": argv,
           "expect": {"type": "lse", "rank": n - 1, "order": k,
                      "bad": bad},
           "oracle": {"check": "toda", "n": n, "f": f.spec(), "g": g.spec(),
                      "base": [str(x0), str(y0)]}}
    return key, job


# goursat: 19 CLI solve slots over rank 1..3, h in {1/64, 1/128, 1/256}
# and square domains of side 1/8..5/16, and 6 wavefront convergence
# studies.  The domains keep a grid and its CSV within a core's L2 cache:
# larger ones made whole runs slower by a third whenever the machine's
# shared cache was busy, which no reference slice tracked.
GOURSAT_SLOTS = (
    [("solve", 1 + i % 3, Fraction(1, (64, 128, 256)[(i // 3) % 3]),
      Fraction((2, 3, 4, 5)[i % 4], 16)) for i in range(19)]
    + [("study", 1 + j % 3, Fraction(1, (32, 64)[j % 2])) for j in range(6)])


def _goursat_cycle(pool):
    jobs = []
    for slot in interleave(GOURSAT_SLOTS):
        if slot[0] == "solve":
            jobs.append(pool.fresh(lambda: _solve_job(pool, *slot[1:])))
        else:
            jobs.append(pool.fresh(lambda: _study_job(pool, *slot[1:])))
    return jobs


def _goursat_problem(rng, r, side):
    n = r + 1
    # When f and g are both Moebius maps (rat, or a linear polynomial),
    # exp(G) is a constant over the square of a bilinear form and the
    # scheme's h^2 error term vanishes; a curved f keeps the error O(h^2).
    f = random_fn(rng, rng.choice(("poly", "exp")), curved=True)
    g = random_fn(rng, rng.choice(FAMILIES))
    x0 = rng.choice((Fraction(0), Fraction(1, 4), Fraction(1, 2)))
    y0 = rng.choice((Fraction(0), Fraction(1, 4), Fraction(1, 2)))
    x_edge, _ = toda_texts(n, f, g, xv=f"({x0})", yv="y")
    y_edge, _ = toda_texts(n, f, g, xv="x", yv=f"({y0})")
    prob = {"n": n, "f": f.spec(), "g": g.spec(), "x0": str(x0),
            "x1": str(x0 + side), "y0": str(y0), "y1": str(y0 + side)}
    boundary = {"x0": str(x0), "x1": str(x0 + side), "y0": str(y0),
                "y1": str(y0 + side), "x_edge": x_edge, "y_edge": y_edge}
    key = (n, side, repr(f.spec()), repr(g.spec()), x0, y0)
    return key, prob, boundary


def _solve_job(pool, r, h, side):
    key, prob, boundary = _goursat_problem(pool.rng, r, side)
    cm = pool.write(".cm", cartan_doc(sl_matrix(r + 1), name=f"sl{r + 1}"))
    bd = pool.write(".json", json.dumps(boundary))
    out = str(pool.work / f"grid{pool.count:05d}.csv")
    argv = ["solve", "--cartan", cm, "--boundary", bd, "--h", str(h),
            "--out", out]
    job = {"kind": "cli", "tag": "solve", "argv": argv,
           "expect": {"type": "solve", "h": str(h), **prob},
           "oracle": {"check": "boundary", **prob, **boundary}}
    return key + (h, "solve"), job


def _study_job(pool, r, h):
    key, prob, boundary = _goursat_problem(pool.rng, r, Fraction(1, 2))
    job = {"kind": "study", "tag": "study", "h": str(h), "problem": prob,
           "boundary": boundary, "expect": {"type": "study"}}
    return key + (h, "study"), job


# zerocurv: derive on slN (N = 2..17, nodes relabelled by a seeded
# permutation) and on seeded generalized Cartan matrices, the input-free
# verbs against the goldens, admissibility on seeded diagonals, and the
# library super-Liouville and superfield identities.  The seven costliest
# slots are super residuals (three at K = 7), so the 90th percentile falls
# among slots of one size.
ZEROCURV_SLOTS = (
    [("derive-sl", n, "ls" if n > 3 and n % 2 == 0 else "lsbis")
       for n in range(2, 18)]
    + [("golden", "derive_sl2_ls.txt", None),
       ("golden", "derive_super.txt", None),
       ("golden", "obstruction.txt", None),
       ("golden", "bracket_sl2.txt", None),
       ("golden", "bracket_osp12.txt", None)]
    + [("derive-gcm", r, ("lsbis", "ls")[r % 2]) for r in (3, 4, 5, 6, 8)]
    + [("admissible", r, ("lse1", "lse2")[r % 2]) for r in (1, 2, 3, 4)]
    + [("super", k, 1) for k in (6, 7, 7, 7, 8, 8, 9, 10)] + [("super", 6, -1)]
    + [("lnexp", k, None) for k in (3, 5)]
    + [("dplus2", k, None) for k in (4, 6)]
    + [("curvature", k, None) for k in (3, 4)])

GOLDEN_ARGV = {
    "derive_sl2_ls.txt": None,
    "derive_super.txt": ["derive-super"],
    "obstruction.txt": ["obstruction"],
    "bracket_sl2.txt": ["bracket-table", "--algebra", "sl2"],
    "bracket_osp12.txt": ["bracket-table", "--algebra", "osp12"],
}


def _zerocurv_cycle(pool, golden_dir: Path):
    return [pool.fresh(lambda: _zerocurv_job(pool, _shape(idx), slot,
                                             golden_dir))
            for idx, slot in enumerate(interleave(ZEROCURV_SLOTS))]


def _permuted(rows, perm):
    return [[rows[perm[i]][perm[j]] for j in range(len(rows))]
            for i in range(len(rows))]


def _zerocurv_job(pool, shape, slot, golden_dir):
    rng = pool.rng
    kind, a, b = slot
    if kind in ("derive-sl", "derive-gcm"):
        if kind == "derive-sl":
            perm = list(range(a - 1))
            if a > 3:
                rng.shuffle(perm)
            rows = _permuted(sl_matrix(a), perm)
        else:
            rows = random_gcm(rng, a)
        if (kind, b, str(rows)) in pool.seen and not pool.last_try:
            return (kind, b, str(rows)), None  # redrawn: skip rendering
        # slN is invertible; a generalized Cartan matrix may be singular
        singular = kind == "derive-gcm" and invert(rows) is None
        form = "lsbis" if singular else b
        cm = pool.write(".cm", cartan_doc(rows))
        argv = ["derive", "--cartan", cm, "--form", form]
        if kind == "derive-sl" and a <= 3:
            # sl2 and sl3 have a single labelling: compare with the golden
            text = (golden_dir / f"derive_sl{a}_lsbis.txt").read_text(
                encoding="utf-8")
            key = (kind, a, pool.count)
        else:
            text = derive_text(rows, form)
            key = (kind, b, str(rows))
        job = {"kind": "cli", "tag": kind, "argv": argv,
               "expect": {"type": "exact", "code": 0, "stdout": text}}
        return key, job
    if kind == "golden":
        argv = GOLDEN_ARGV[a]
        if argv is None:
            argv = ["derive", "--cartan",
                    pool.write(".cm", cartan_doc(sl_matrix(2), name="sl2")),
                    "--form", "ls"]
        text = (golden_dir / a).read_text(encoding="utf-8")
        job = {"kind": "cli", "tag": f"golden/{a}", "argv": argv,
               "expect": {"type": "exact", "code": 0, "stdout": text}}
        return (kind, a, pool.count, rng.random()), job
    if kind == "admissible":
        diag = [rng.choice((Fraction(0), Fraction(1), Fraction(2),
                            Fraction(1), Fraction(1, 2), Fraction(3)))
                for _ in range(a)]
        rows = [[diag[i] if i == j else Fraction(-rng.randint(0, 2))
                 for j in range(a)] for i in range(a)]
        pars = [rng.choice(("even", "odd")) for _ in range(a)]
        text, code = admissible_text(diag, b)
        cm = pool.write(".cm", cartan_doc(rows, pars, f"m{pool.count}"))
        argv = ["admissible", "--cartan", cm, "--scheme", b]
        job = {"kind": "cli", "tag": "admissible", "argv": argv,
               "expect": {"type": "exact", "code": code, "stdout": text}}
        return (kind, b, str(rows), str(pars)), job
    if kind == "super":
        while True:
            f = random_fn(rng, "poly", shape=shape)
            g = Fn("poly", [-_frac(rng, (1, 2, 3), shape=shape),
                            _frac(rng, (1, 2, 3, 4), shape=shape),
                            _frac(rng, (0, 1, 2), shape=shape)])
            x0, y0 = _base(shape)
            if f.value(x0) != g.value(y0):
                break
        job = {"kind": "super", "tag": "super-liouville", "order": a,
               "sign": b, "f": f.spec(), "g": g.spec(),
               "base": [str(x0), str(y0)], "expect": {"zero": b == 1},
               "oracle": {"check": "super", "f": f.spec(), "g": g.spec(),
                          "base": [str(x0), str(y0)]}}
        return (kind, a, b, repr(f.spec()), repr(g.spec()), x0, y0), job
    gens = 3 if kind != "curvature" else 2
    field = _random_superfield(rng, gens, a,
                               even=kind in ("lnexp", "curvature"))
    job = {"kind": kind, "tag": kind, "order": a, "gens": gens,
           "field": field, "expect": {}}
    if kind == "curvature":
        job["odd_field"] = _random_superfield(rng, gens, a, odd=True)
    return (kind, a, json.dumps(job["field"]),
            json.dumps(job.get("odd_field"))), job


def _random_superfield(rng, gens, order, even=False, odd=False):
    """Component masks mapped to sparse jets [[i, j, 'p/q'], ...]."""
    masks = [m for m in range(1 << gens)
             if not (even and m.bit_count() % 2) and
             not (odd and m.bit_count() % 2 == 0)]
    comps = {}
    for m in masks:
        if rng.random() < 0.6 or m == masks[0]:
            terms = []
            for _ in range(3):
                i = rng.randint(0, min(2, order))
                j = rng.randint(0, min(2, order - i))
                if m == 0 and (i, j) == (0, 0):
                    continue  # zero body: exp and ln stay rational
                terms.append([i, j, str(_frac(rng, (-2, -1, 1, 2, 3)))])
            if terms:
                comps[str(m)] = terms
    return comps


CYCLE_SECONDS = {"series-verify": 5.5, "goursat": 1.0, "zerocurv": 2.0}
TRACE_CYCLES = {"series-verify": 2, "goursat": 3, "zerocurv": 3}


def generate(workload, seed, work: Path, golden_dir: Path, cycles: int):
    """Return ``cycles`` cycles of jobs; the last is kept for warm-up."""
    rng = random.Random(f"{workload}:{seed}")
    pool = Pool(work, rng)
    out = []
    for _ in range(cycles):
        if workload == "series-verify":
            out.append(_series_cycle(pool))
        elif workload == "goursat":
            out.append(_goursat_cycle(pool))
        else:
            out.append(_zerocurv_cycle(pool, golden_dir))
    return out
