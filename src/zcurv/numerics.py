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
operation order of a scalar loop and with ``math.exp`` throughout.  It
marches a component-major (n, M+1, M+1) array, so a diagonal and its three
corners are (n, cells) blocks and every elementwise op runs along the
diagonal, and it returns the transposed view of that array as the grid,
not a copy.  The march and ``residual_grid`` each build the right-hand side
``_rhs_kernel`` once; it adds the products of the live columns with one
reduce.  The march checks finiteness once per batch of 16 diagonals: a
finite largest |final - first| proves every final value of the batch
finite, and only when it is not, or when an exp overflows, are the batch's
diagonals redone in order to name the first failing cell.  ``write_csv``
formats a grid with one ``%`` a block of rows; the template takes one
``str.join`` a row, of the row's x and the grid's line tails
",y,%.17g,...\n".  ``square_steps`` refuses a
grid of over MAX_GRID_VALUES values before anything is sampled or
allocated; each boundary trace is then sampled once per grid point, and the
corner check reuses the two samples at (x0, y0).  Grids and their data are
named tuples.
"""

import math
from collections import namedtuple
from collections.abc import Callable, Sequence
from fractions import Fraction

import numpy as np

from .cartan import CartanMatrix


class Grid(namedtuple("Grid", "x0 x1 y0 y1 h values sweep_residual")):
    """``values`` is (M+1, M+1, n), [i, j] at (x0 + i h, y0 + j h); the march
    returns the transposed view of its component-major (n, M+1, M+1) array.
    ``x_at`` and ``y_at`` take float(x0 + i h) and float(y0 + j h) by the
    rule of ``_lattice``."""

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
        n0, dn, d = _lattice(self.x0, self.h)
        return (n0 + i * dn) / d

    def y_at(self, j: int) -> float:
        n0, dn, d = _lattice(self.y0, self.h)
        return (n0 + j * dn) / d


class GoursatData(namedtuple("GoursatData", "x0 x1 y0 y1 x_edge y_edge")):
    """Boundary traces on x = x0 (a function of y) and y = y0 (of x): each
    edge maps a float to the sequence of its n component floats."""

    __slots__ = ()


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


def _lattice(lo: Fraction, h: Fraction) -> tuple[int, int, int]:
    """(n0, dn, d) with lo = n0 / d and h = dn / d.  float(lo + i*h) is the
    one correctly rounded int true division (n0 + i*dn) / d, as
    ``Fraction.__float__`` is, so it is the same float, and it overflows
    with the same OverflowError."""
    (n0, d0), (dn, d1) = lo.as_integer_ratio(), h.as_integer_ratio()
    d = math.lcm(d0, d1)
    return n0 * (d // d0), dn * (d // d1), d


def grid_points(lo, h, m: int) -> list[float]:
    """float(lo + i*h) for i = 0..m, by the rule of ``_lattice``."""
    n0, dn, d = _lattice(Fraction(lo), Fraction(h))
    return [(n0 + i * dn) / d for i in range(m + 1)]


def _rhs_kernel(a: CartanMatrix) -> Callable[[np.ndarray], np.ndarray]:
    """rhs(g) = sum_l A_kl exp(g_l) for an (n, cells) block ``g``, component
    by component (0.0 when no entry is nonzero), bitwise equal to a scalar
    loop that sums from 0.0 over ascending l and skips zero entries.
    math.exp (np.exp differs from it in the last bit on a few percent of
    arguments) maps the flat list of the live rows, those some entry uses,
    and one reduce from +0.0 over them adds their (n, cells) products in
    order.  A zero entry in a live column adds +-0.0, which leaves a sum
    started at +0.0 unchanged while the exps are finite; when one is not,
    the scalar loop's final value for that cell is not finite either.  The
    callables and the live count are bound once, as closure locals."""
    af = np.array(a.entries, dtype=float)
    live = np.flatnonzero(af.any(axis=0))
    rows = live if len(live) < len(af) else slice(None)
    at = af[:, live].T[:, :, None]  # [l, k, 0] = A_k,live[l]
    exp, fromiter, reduce, k = math.exp, np.fromiter, np.add.reduce, len(live)

    def rhs(g: np.ndarray) -> np.ndarray:
        cells = g.shape[1]  # a zero matrix leaves no live row to count
        src = g[rows].ravel().tolist()  # live row by live row
        e = fromiter(map(exp, src), float, len(src))
        return reduce(e.reshape(k, 1, cells) * at, axis=0, initial=0.0)

    return rhs


def _diagonal(flat: np.ndarray, m: int, d: int):
    """The lowest i of anti-diagonal ``d``, the columns of its cells in the
    component-major ``flat`` and the (n, cells) blocks of their (i-1, j),
    (i, j-1) and (i-1, j-1) corners, as a tuple: cell (i, d - i) is column
    i*m + d, so a diagonal is a slice of step m and its corners are the
    slices m + 1, 1 and m + 2 columns before it."""
    lo, hi = max(1, d - m), min(m, d - 1)
    start, stop = lo * m + d, hi * m + d + 1
    up, end = start - m - 1, stop - m - 1  # the (i-1, j) corners
    return lo, slice(start, stop, m), (flat[:, up:end:m],
                                       flat[:, start - 1:stop - 1:m],
                                       flat[:, up - 1:end - 1:m])


def _corrector(rhs, h2, va, vb, vc):
    """(first, final) corrector values of cells whose (i-1, j), (i, j-1) and
    (i-1, j-1) corners are the columns of ``va``, ``vb``, ``vc``; math.exp
    raises OverflowError past the float range."""
    ab = va + vb
    pred, abc = ab - vc, ab + vc
    first = pred + h2 * rhs((abc + pred) * 0.25)
    return first, pred + h2 * rhs((abc + first) * 0.25)


def _fails(rhs, h2, corners) -> bool:
    """Whether an exp overflows or a final value is not finite."""
    try:
        _, final = _corrector(rhs, h2, *corners)
    except OverflowError:
        return True
    return not np.isfinite(final).all()


def _check_diagonals(rhs, h2, flat, m: int, diagonals) -> None:
    """Raise GridOverflowError for the first cell of ``diagonals``, taken
    in order, that fails; every earlier diagonal holds its final values, so
    each cell reads what the march read."""
    for d in diagonals:
        lo, _, corners = _diagonal(flat, m, d)
        if _fails(rhs, h2, corners):
            i = next(i for i in range(lo, d) if _fails(
                rhs, h2, [c[:, i - lo:i - lo + 1] for c in corners]))
            raise GridOverflowError(i, d - i)


def _check_finite(edge: str, var: str, coords, edge_values) -> None:
    """Reject the first point of an edge with a non-finite trace value."""
    bad = ~np.isfinite(edge_values).all(axis=0)
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
    # component-major: [k, i, j] is component k at (x0 + i h, y0 + j h)
    work = np.empty((n, m + 1, m + 1), dtype=np.float64)
    work[:, :, 0] = np.array(y_rows, dtype=np.float64).T
    _check_finite("y_edge", "x", xs, work[:, :, 0])
    work[:, 0, :] = np.array(x_rows, dtype=np.float64).T
    _check_finite("x_edge", "y", ys, work[:, 0, :])
    rhs = _rhs_kernel(a)
    h2 = float(h) * float(h)
    flat, sweep, steps = work.reshape(n, -1), 0.0, []
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(2, 2 * m + 1):
            _, cells, corners = _diagonal(flat, m, d)
            try:
                first, final = _corrector(rhs, h2, *corners)
            except OverflowError:  # in this diagonal or a pending one
                _check_diagonals(rhs, h2, flat, m,
                                 range(d - len(steps), d + 1))
                raise  # not reached: diagonal d overflows again
            flat[:, cells] = final
            steps.append(final - first)
            if len(steps) == 16 or d == 2 * m:  # one reduce per 16 diagonals
                diff = np.abs(np.concatenate(steps, axis=1))
                top = diff.max()
                if not math.isfinite(top):
                    # a finite maximum proves every final value finite;
                    # an infinite or NaN one may come from a first value
                    _check_diagonals(rhs, h2, flat, m,
                                     range(d - len(steps) + 1, d + 1))
                if math.isnan(top):  # as in max(), drop cells whose first
                    # component differs by NaN, and skip later NaNs
                    top = np.nanmax(diff[:, ~np.isnan(diff[0])], initial=0.0)
                sweep, steps = max(sweep, top), []
    return Grid(Fraction(data.x0), Fraction(data.x1), Fraction(data.y0),
                Fraction(data.y1), h, work.transpose(1, 2, 0), float(sweep))


def residual_grid(a: CartanMatrix, grid: Grid) -> float:
    """Max over interior cells of |central mixed derivative - RHS|."""
    w = grid.values.transpose(2, 0, 1)  # component-major, as marched
    hh = 4.0 * float(grid.h) * float(grid.h)
    with np.errstate(over="ignore", invalid="ignore"):
        mixed = (w[:, 2:, 2:] - w[:, 2:, :-2] - w[:, :-2, 2:]
                 + w[:, :-2, :-2]) / hh
        rhs = _rhs_kernel(a)(w[:, 1:-1, 1:-1].reshape(grid.rank, -1))
        gap = np.abs(mixed.reshape(grid.rank, -1) - rhs)
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
    most one block is held at a time.  The lines of row x are
    ``x + x.join(tails)``, where the tails ",y,%.17g,...\n" are built once
    a grid: ``str.join`` puts x before every tail after the first."""
    head = "x,y," + ",".join(f"G_{k + 1}" for k in range(grid.rank))
    fields = ",".join(["%.17g"] * grid.rank)
    xs, ys = ([f"{v:.17g}" for v in grid_points(lo, grid.h, grid.steps)]
              for lo in (grid.x0, grid.y0))
    tails = [f",{y},{fields}\n" for y in ys]
    rows = max(1, _CSV_BLOCK // (len(ys) * grid.rank))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + "\n")
        for i in range(0, len(xs), rows):
            template = "".join([x + x.join(tails) for x in xs[i:i + rows]])
            fh.write(template % tuple(grid.values[i:i + rows].ravel()
                                      .tolist()))
