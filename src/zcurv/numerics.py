"""Finite-difference integration of the G-form system on characteristic grids.

The Goursat problem for  G_i_xy = sum_j A_ij exp(G_j)  takes boundary data
on the two characteristic lines x = x0 and y = y0 and marches the
second-order four-point scheme

    G(x+h, y+h) = G(x+h, y) + G(x, y+h) - G(x, y) + h^2 * RHS(midpoint)

where the midpoint value is the average of the four cell corners.  One
predictor (unknown corner from the three known ones) plus exactly one
corrector sweep refines the midpoint; the final sweep update magnitude is
reported on the grid, not iterated to tolerance.

Cell (i, j) depends on (i-1, j), (i, j-1) and (i-1, j-1) only, so the
solver marches whole anti-diagonals as numpy slices, in the per-cell
operation order of a scalar loop and with ``math.exp`` throughout.  The
march and ``residual_grid`` each build the right-hand side ``_rhs_kernel``
once.  ``write_csv`` formats a grid with one ``%`` a block of rows.
``square_steps`` refuses a grid of over MAX_GRID_VALUES values before
anything is sampled or allocated; each boundary trace is then sampled once
per grid point, and the corner check reuses the two samples at (x0, y0).
Grids and their data are named tuples.
"""

import math
from collections import namedtuple
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .cartan import CartanMatrix


class Grid(namedtuple("Grid", "x0 x1 y0 y1 h values sweep_residual")):
    """``values`` is (M+1, M+1, n), [i, j] at (x0 + i h, y0 + j h)."""

    __slots__ = ()

    def __new__(cls, x0: Fraction, x1: Fraction, y0: Fraction, y1: Fraction,
                h: Fraction, values: np.ndarray, sweep_residual: float = 0.0):
        m = square_steps(x0, x1, y0, y1, h)
        if values.shape[:2] != (m + 1, m + 1):
            raise ValueError(f"values shape {values.shape} does not "
                             f"match {m + 1} grid points per side")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid contains non-finite values")
        return super().__new__(cls, x0, x1, y0, y1, h, values, sweep_residual)

    @property
    def steps(self) -> int:
        return self.values.shape[0] - 1

    @property
    def rank(self) -> int:
        return self.values.shape[2]

    def x_at(self, i: int) -> float:
        return float(self.x0 + i * self.h)

    def y_at(self, j: int) -> float:
        return float(self.y0 + j * self.h)


class GoursatData(NamedTuple):
    """Boundary traces on x = x0 (a function of y) and y = y0 (of x)."""

    x0: Fraction
    x1: Fraction
    y0: Fraction
    y1: Fraction
    x_edge: Callable[[float], Sequence[float]]
    y_edge: Callable[[float], Sequence[float]]


CORNER_TOL = 1e-12
MAX_GRID_VALUES = 2 ** 25  # float64 values in one grid: 256 MiB
# Values that write_csv formats at once: a whole grid of up to 128 x 128
# points of rank 2, or 104 x 104 of rank 3.
_CSV_BLOCK = 2 ** 15


class CornerMismatchError(ValueError):
    pass


class GridOverflowError(FloatingPointError):
    def __init__(self, i: int, j: int):
        super().__init__(f"exp overflow while updating grid cell ({i}, {j})")
        self.cell = (i, j)


def _steps(lo: Fraction, hi: Fraction, h: Fraction) -> int:
    m = (Fraction(hi) - Fraction(lo)) / Fraction(h)
    if m.denominator != 1 or m <= 0:
        raise ValueError(f"step {h} does not evenly divide [{lo}, {hi}]")
    return int(m)


def square_steps(x0, x1, y0, y1, h, rank: int = 1) -> int:
    """The number m of steps of ``h`` per side; both ranges must have it,
    and a rank-``rank`` grid of (m + 1)^2 points must fit MAX_GRID_VALUES."""
    m = _steps(x0, x1, h)
    if _steps(y0, y1, h) != m:
        raise ValueError("x and y ranges must contain the same number "
                         "of steps")
    if (size := (m + 1) ** 2 * rank) > MAX_GRID_VALUES:
        raise ValueError(f"a rank-{rank} grid of {m + 1} x {m + 1} points "
                         f"holds {size} values, over the limit of "
                         f"{MAX_GRID_VALUES}")
    return m


def grid_points(lo, h, m: int) -> list[float]:
    """float(lo + i*h) for i = 0..m.  Each point is one correctly rounded
    int true division (n0 + i*dn) / d, as ``Fraction.__float__`` is, so it is
    the same float, and it overflows with the same OverflowError."""
    lo, h = Fraction(lo), Fraction(h)
    d = math.lcm(lo.denominator, h.denominator)
    n0 = lo.numerator * (d // lo.denominator)
    dn = h.numerator * (d // h.denominator)
    return [(n0 + i * dn) / d for i in range(m + 1)]


def _rhs_kernel(a: CartanMatrix) -> Callable[[np.ndarray], np.ndarray]:
    """rhs(g) = sum_l A_kl exp(g_l) for a block of cells, one cell per row of
    ``g`` (0.0 when no entry is nonzero), bitwise equal to a scalar loop that
    sums from 0.0 over ascending l and skips zero entries.  math.exp (np.exp
    differs from it in the last bit on a few percent of arguments) maps one
    flat list of the live columns, those some entry uses.  A zero entry in a
    live column adds +-0.0, which leaves a sum started at +0.0 unchanged
    while the exps are finite; when one is not, the scalar loop's final
    value for that cell is not finite either."""
    af = np.array(a.entries, dtype=float)
    live = np.flatnonzero(af.any(axis=0))
    cols = live if len(live) < len(af) else slice(None)
    at = af[:, live].T[:, None, :]  # [l, 0, k] = A_k,live[l]

    def rhs(g: np.ndarray) -> np.ndarray:
        src = g[:, cols].T.ravel().tolist()  # live column by live column
        e = np.fromiter(map(math.exp, src), float, len(src))
        # one (cells, n) block of products per live column, added in order
        return sum(e.reshape(len(live), len(g), 1) * at, 0.0)

    return rhs


def _update(rhs, h2, va, vb, vc):
    """(first, final) corrector values of cells whose (i-1, j), (i, j-1) and
    (i-1, j-1) corners are the rows of ``va``, ``vb``, ``vc``; None when an
    exp overflows or a final value is not finite."""
    ab = va + vb
    pred, abc = ab - vc, ab + vc
    try:
        first = pred + h2 * rhs((abc + pred) * 0.25)
        final = pred + h2 * rhs((abc + first) * 0.25)
    except OverflowError:
        return None
    return (first, final) if np.isfinite(final).all() else None


def _check_finite(edge: str, var: str, coords, edge_values) -> None:
    """Reject the first point of an edge with a non-finite trace value."""
    bad = ~np.isfinite(edge_values).all(axis=1)
    if bad.any():
        raise ValueError(f"boundary trace {edge} is not finite at "
                         f"{var} = {coords[int(bad.argmax())]!r}")


def solve_goursat(a: CartanMatrix, data: GoursatData, h,
                  schedule: str = "sequential") -> Grid:
    """March the characteristic scheme over the rectangle in ``data``.

    Both ``schedule`` values run the same anti-diagonal march.  Each edge
    is called once per grid point, in order, and the two first rows, both
    at the corner (x0, y0), must agree within CORNER_TOL.  A non-finite
    boundary value raises ValueError before the march starts.  An exp
    overflow or a non-finite value raises GridOverflowError for the first
    such cell in anti-diagonal order (lowest i on the lowest diagonal)."""
    if not a.is_all_even():
        raise ValueError("the Goursat solver handles all-even matrices")
    if schedule not in ("sequential", "wavefront"):
        raise ValueError(f"unknown schedule {schedule!r}")
    h, n = Fraction(h), a.rank
    m = square_steps(data.x0, data.x1, data.y0, data.y1, h, n)
    xs, ys = grid_points(data.x0, h, m), grid_points(data.y0, h, m)
    y_rows = [data.y_edge(x) for x in xs]
    x_rows = [data.x_edge(y) for y in ys]
    for edge, rows in (("y_edge", y_rows), ("x_edge", x_rows)):
        if wrong := [len(r) for r in rows if len(r) != n]:
            raise ValueError(f"boundary trace {edge} gives {wrong[0]} "
                             f"values for a rank-{n} matrix")
    # ys[0] is float(y0) and xs[0] is float(x0): both rows hold the corner
    gap = max(abs(u - v) for u, v in zip(x_rows[0], y_rows[0]))
    if gap > CORNER_TOL:
        raise CornerMismatchError(
            f"boundary traces disagree at the corner by {gap:.3e}")
    values = np.empty((m + 1, m + 1, n), dtype=np.float64)
    values[:, 0] = y_rows
    _check_finite("y_edge", "x", xs, values[:, 0])
    values[0, :] = x_rows
    _check_finite("x_edge", "y", ys, values[0, :])
    rhs = _rhs_kernel(a)
    h2 = float(h) * float(h)
    # cell (i, d - i) is row i*m + d of the flat view, so a diagonal and
    # its three known corners are slices of step m
    flat, sweep, steps = values.reshape(-1, n), 0.0, []
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(2, 2 * m + 1):
            lo, hi = max(1, d - m), min(m, d - 1)
            start, stop = lo * m + d, hi * m + d + 1
            corners = [flat[start - k:stop - k:m] for k in (m + 1, 1, m + 2)]
            step = _update(rhs, h2, *corners)
            if step is None:
                i = next(i for i in range(lo, hi + 1) if _update(
                    rhs, h2, *(c[i - lo:i - lo + 1] for c in corners)) is None)
                raise GridOverflowError(i, d - i)
            flat[start:stop:m] = step[1]
            steps.append(step[1] - step[0])
            if len(steps) == 16 or d == 2 * m:  # one reduce per 16 diagonals
                diff, steps = np.abs(np.concatenate(steps)), []
                top = diff.max()
                if math.isnan(top):  # as in max(), drop cells whose first
                    # component differs by NaN, and skip later NaNs
                    top = np.nanmax(diff[~np.isnan(diff[:, 0])], initial=0.0)
                sweep = max(sweep, top)
    return Grid(Fraction(data.x0), Fraction(data.x1), Fraction(data.y0),
                Fraction(data.y1), h, values, float(sweep))


def residual_grid(a: CartanMatrix, grid: Grid) -> float:
    """Max over interior cells of |central mixed derivative - RHS|."""
    v = grid.values
    hh = 4.0 * float(grid.h) * float(grid.h)
    with np.errstate(over="ignore", invalid="ignore"):
        mixed = (v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]) / hh
        rhs = _rhs_kernel(a)(v[1:-1, 1:-1].reshape(-1, grid.rank))
        gap = np.abs(mixed.reshape(-1, grid.rank) - rhs)
    return float(np.fmax.reduce(gap, axis=None, initial=0.0))


def convergence_order(samples: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(error) against log(h)."""
    if len(samples) < 2:
        raise ValueError("need at least two (h, error) samples")
    for h, e in samples:
        if not (float(h) > 0 and float(e) > 0):
            raise ValueError(f"non-positive step or error in ({h}, {e})")
    xs = [math.log(float(h)) for h, _ in samples]
    ys = [math.log(float(e)) for _, e in samples]
    mx = sum(xs) / len(xs)
    num = sum((x - mx) * y for x, y in zip(xs, ys))  # sum(x - mx) is 0
    den = sum((x - mx) ** 2 for x in xs)
    if den == 0:
        raise ValueError("the steps h are not distinct")
    return num / den


def write_csv(grid: Grid, path) -> None:
    """Row-major CSV export with 17-significant-digit floats.  Each block of
    rows of about _CSV_BLOCK values is formatted by one ``%`` on a template
    that holds every line's x and y (which contain no %), so the text of at
    most one block is held at a time."""
    head = "x,y," + ",".join(f"G_{k + 1}" for k in range(grid.rank))
    fields = ",".join(["%.17g"] * grid.rank)
    xs, ys = ([f"{v:.17g}" for v in grid_points(lo, grid.h, grid.steps)]
              for lo in (grid.x0, grid.y0))
    rows = max(1, _CSV_BLOCK // (len(ys) * grid.rank))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + "\n")
        for i in range(0, len(xs), rows):
            template = "".join([f"{x},{y},{fields}\n" for x in xs[i:i + rows]
                                for y in ys])
            fh.write(template % tuple(grid.values[i:i + rows].ravel()
                                      .tolist()))
