"""Finite-difference integration of the G-form system on characteristic grids.

The Goursat problem for  G_i_xy = sum_j A_ij exp(G_j)  takes boundary data
on the two characteristic lines x = x0 and y = y0 and marches the
second-order four-point scheme

    G(x+h, y+h) = G(x+h, y) + G(x, y+h) - G(x, y) + h^2 * RHS(midpoint)

where the midpoint value is the average of the four cell corners.  One
predictor (unknown corner from the three known ones) plus exactly one
corrector sweep refines the midpoint; the final sweep update magnitude is
reported on the grid, not iterated to tolerance.

Cell (i, j) depends on (i-1, j), (i, j-1) and (i-1, j-1) only, so cells on
a common anti-diagonal are independent.  Both schedules ('sequential', row
by row, and 'wavefront', one anti-diagonal after another) run the identical
per-cell kernel in the calling thread in the identical per-cell operation
order, so their results are bitwise identical.
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


def _make_cell_kernel(af: list[list[float]], h2: float):
    n = len(af)
    rng = range(n)

    def rhs(g):
        out = []
        for i in rng:
            acc = 0.0
            row = af[i]
            for j in rng:
                if row[j]:
                    acc += row[j] * math.exp(g[j])
            out.append(acc)
        return out

    def cell(values, i, j):
        va = values[i - 1, j]
        vb = values[i, j - 1]
        vc = values[i - 1, j - 1]
        pred = [va[k] + vb[k] - vc[k] for k in rng]
        mid = [(va[k] + vb[k] + vc[k] + pred[k]) * 0.25 for k in rng]
        try:
            first = [pred[k] + h2 * r for k, r in enumerate(rhs(mid))]
            mid2 = [(va[k] + vb[k] + vc[k] + first[k]) * 0.25 for k in rng]
            final = [pred[k] + h2 * r for k, r in enumerate(rhs(mid2))]
        except OverflowError:
            raise GridOverflowError(i, j) from None
        sweep = max(abs(final[k] - first[k]) for k in rng)
        for k in rng:
            if not math.isfinite(final[k]):
                raise GridOverflowError(i, j)
            values[i, j, k] = final[k]
        return sweep

    return cell


def solve_goursat(a: CartanMatrix, data: GoursatData, h,
                  schedule: str = "sequential",
                  corner_tol: float = 1e-12) -> Grid:
    """March the characteristic scheme over the rectangle in ``data``."""
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
    cell = _make_cell_kernel(_float_matrix(a), float(h) * float(h))
    sweep = 0.0
    if schedule == "sequential":
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                sweep = max(sweep, cell(values, i, j))
    else:
        for d in range(2, 2 * m + 1):
            for i in range(max(1, d - m), min(m, d - 1) + 1):
                sweep = max(sweep, cell(values, i, d - i))
    return Grid(Fraction(data.x0), Fraction(data.x1), Fraction(data.y0),
                Fraction(data.y1), h, values, sweep)


def residual_grid(a: CartanMatrix, grid: Grid) -> float:
    """Max over interior cells of |central mixed derivative - RHS|."""
    af = _float_matrix(a)
    n = len(af)
    v = grid.values
    m = grid.steps
    hh = 4.0 * float(grid.h) * float(grid.h)
    worst = 0.0
    for i in range(1, m):
        for j in range(1, m):
            g = v[i, j]
            for k in range(n):
                mixed = (v[i + 1, j + 1, k] - v[i + 1, j - 1, k]
                         - v[i - 1, j + 1, k] + v[i - 1, j - 1, k]) / hh
                rhs = 0.0
                for l in range(n):
                    if af[k][l]:
                        rhs += af[k][l] * math.exp(g[l])
                worst = max(worst, abs(mixed - rhs))
    return worst


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
    n = grid.rank
    header = "x,y," + ",".join(f"G_{k + 1}" for k in range(n))
    lines = [header]
    for i in range(grid.steps + 1):
        x = grid.x_at(i)
        for j in range(grid.steps + 1):
            y = grid.y_at(j)
            cells = [f"{x:.17g}", f"{y:.17g}"]
            cells += [f"{grid.values[i, j, k]:.17g}" for k in range(n)]
            lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
