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
operation order of a scalar loop and with ``math.exp`` throughout.
``residual_grid`` shares the right-hand side ``_rhs`` with the march.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .cartan import CartanMatrix


@dataclass(frozen=True)
class Grid:
    x0: Fraction
    x1: Fraction
    y0: Fraction
    y1: Fraction
    h: Fraction
    values: np.ndarray  # (M+1, M+1, n), [i, j] at (x0 + i h, y0 + j h)
    sweep_residual: float = 0.0

    def __post_init__(self):
        m = _steps(self.x0, self.x1, self.h)
        if _steps(self.y0, self.y1, self.h) != m:
            raise ValueError("x and y ranges must contain the same number "
                             "of steps")
        if self.values.shape[:2] != (m + 1, m + 1):
            raise ValueError(f"values shape {self.values.shape} does not "
                             f"match {m + 1} grid points per side")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid contains non-finite values")

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


@dataclass(frozen=True)
class GoursatData:
    """Boundary traces on x = x0 (a function of y) and y = y0 (of x)."""

    x0: Fraction
    x1: Fraction
    y0: Fraction
    y1: Fraction
    x_edge: Callable[[float], Sequence[float]]
    y_edge: Callable[[float], Sequence[float]]

    def corner_gap(self) -> float:
        a = self.x_edge(float(self.y0))
        b = self.y_edge(float(self.x0))
        return max(abs(u - v) for u, v in zip(a, b))


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


def _float_matrix(a: CartanMatrix) -> list[list[float]]:
    return [[float(v) for v in row] for row in a.entries]


# math.exp, not np.exp: the two differ in the last bit on a few percent of
# arguments, and the committed grids were made with math.exp.
_EXP = np.frompyfunc(math.exp, 1, 1)


def _rhs(af: list[list[float]], g: np.ndarray) -> np.ndarray:
    """sum_l A_kl exp(g_l) for a block of cells, one cell per row of ``g``,
    summed from 0.0 over ascending l with zero entries skipped; columns no
    entry uses are not exponentiated."""
    live = [any(row[l] for row in af) for l in range(len(af))]
    e = _EXP(g if all(live) else np.where(live, g, 0.0)).astype(float).T
    out = np.empty_like(g)
    for k, row in enumerate(af):
        acc = 0.0
        for l, a in enumerate(row):
            if a:
                acc = acc + a * e[l]
        out[:, k] = acc
    return out


def _update(af, h2, va, vb, vc):
    """(first, final) corrector values of cells whose (i-1, j), (i, j-1) and
    (i-1, j-1) corners are the rows of ``va``, ``vb``, ``vc``; None when an
    exp overflows or a final value is not finite."""
    ab = va + vb
    pred, abc = ab - vc, ab + vc
    try:
        first = pred + h2 * _rhs(af, (abc + pred) * 0.25)
        final = pred + h2 * _rhs(af, (abc + first) * 0.25)
    except OverflowError:
        return None
    return (first, final) if np.isfinite(final).all() else None


def solve_goursat(a: CartanMatrix, data: GoursatData, h,
                  schedule: str = "sequential",
                  corner_tol: float = 1e-12) -> Grid:
    """March the characteristic scheme over the rectangle in ``data``.

    Both ``schedule`` values run the same anti-diagonal march.  An exp
    overflow or a non-finite value raises GridOverflowError for the first
    such cell in anti-diagonal order (lowest i on the lowest diagonal)."""
    if not a.is_all_even():
        raise ValueError("the Goursat solver handles all-even matrices")
    if schedule not in ("sequential", "wavefront"):
        raise ValueError(f"unknown schedule {schedule!r}")
    h = Fraction(h)
    m = _steps(data.x0, data.x1, h)
    _steps(data.y0, data.y1, h)
    gap = data.corner_gap()
    if gap > corner_tol:
        raise CornerMismatchError(
            f"boundary traces disagree at the corner by {gap:.3e}")
    n = a.rank
    values = np.empty((m + 1, m + 1, n), dtype=np.float64)
    for i in range(m + 1):
        values[i, 0] = data.y_edge(float(data.x0 + i * h))
    for j in range(m + 1):
        values[0, j] = data.x_edge(float(data.y0 + j * h))
    af = _float_matrix(a)
    h2 = float(h) * float(h)
    firsts = np.empty_like(values)
    # cell (i, d - i) is row i*m + d of the flat views, so a diagonal and
    # its three known corners are slices of step m
    flat, flat_firsts = values.reshape(-1, n), firsts.reshape(-1, n)
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(2, 2 * m + 1):
            lo, hi = max(1, d - m), min(m, d - 1)
            start, stop = lo * m + d, hi * m + d + 1
            corners = [flat[start - k:stop - k:m] for k in (m + 1, 1, m + 2)]
            step = _update(af, h2, *corners)
            if step is None:
                i = next(i for i in range(lo, hi + 1) if _update(
                    af, h2, *(c[i - lo:i - lo + 1] for c in corners)) is None)
                raise GridOverflowError(i, d - i)
            flat_firsts[start:stop:m], flat[start:stop:m] = step
        diff = np.abs(values[1:, 1:] - firsts[1:, 1:]).reshape(-1, n)
    # as in a running max(): a cell whose first component differs by NaN
    # drops out, and later NaN components are skipped
    sweep = float(np.fmax.reduce(diff[~np.isnan(diff[:, 0])], axis=None,
                                 initial=0.0))
    return Grid(Fraction(data.x0), Fraction(data.x1), Fraction(data.y0),
                Fraction(data.y1), h, values, sweep)


def residual_grid(a: CartanMatrix, grid: Grid) -> float:
    """Max over interior cells of |central mixed derivative - RHS|."""
    v = grid.values
    hh = 4.0 * float(grid.h) * float(grid.h)
    with np.errstate(over="ignore", invalid="ignore"):
        mixed = (v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]) / hh
        rhs = _rhs(_float_matrix(a), v[1:-1, 1:-1].reshape(-1, grid.rank))
        gap = np.abs(mixed.reshape(rhs.shape) - rhs)
    return float(np.fmax.reduce(gap, axis=None, initial=0.0))


def convergence_order(samples: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(error) against log(h)."""
    if len(samples) < 2:
        raise ValueError("need at least two (h, error) samples")
    xs = [math.log(float(h)) for h, _ in samples]
    ys = [math.log(float(e)) for _, e in samples]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def write_csv(grid: Grid, path) -> None:
    """Row-major CSV export with 17-significant-digit floats."""
    lines = ["x,y," + ",".join(f"G_{k + 1}" for k in range(grid.rank))]
    ys = [f"{grid.y_at(j):.17g}" for j in range(grid.steps + 1)]
    for i, row in enumerate(grid.values.tolist()):
        x = f"{grid.x_at(i):.17g}"
        for y, g in zip(ys, row):
            lines.append(",".join([x, y, *(f"{v:.17g}" for v in g)]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
