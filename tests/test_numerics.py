import math
from fractions import Fraction

import numpy as np
import pytest

from zcurv.cartan import CartanMatrix, standard_cartan
from zcurv.numerics import (CornerMismatchError, GoursatData, Grid,
                            GridOverflowError, convergence_order,
                            residual_grid, solve_goursat, write_csv)

SL2 = standard_cartan("sl2")


def exact_symmetric(x, y):
    return -2.0 * math.log(x + y + 2.0)


def symmetric_data():
    return GoursatData(Fraction(0), Fraction(1), Fraction(0), Fraction(1),
                       x_edge=lambda y: [exact_symmetric(0.0, y)],
                       y_edge=lambda x: [exact_symmetric(x, 0.0)])


def exact_generic(x, y):
    # G-form solution from f = x + 1, g = y^2 + y + 1
    return math.log(2.0 * y + 1.0) - 2.0 * math.log(x + y * y + y + 2.0)


def generic_data():
    return GoursatData(Fraction(0), Fraction(1), Fraction(0), Fraction(1),
                       x_edge=lambda y: [exact_generic(0.0, y)],
                       y_edge=lambda x: [exact_generic(x, 0.0)])


def max_error(grid, exact):
    m = grid.steps
    return max(abs(grid.values[i, j, 0] - exact(grid.x_at(i), grid.y_at(j)))
               for i in range(m + 1) for j in range(m + 1))


def test_zero_matrix_zero_boundary_gives_zero_grid():
    null1 = CartanMatrix.from_rows([[0]])
    data = GoursatData(Fraction(0), Fraction(1), Fraction(0), Fraction(1),
                       x_edge=lambda y: [0.0], y_edge=lambda x: [0.0])
    grid = solve_goursat(null1, data, Fraction(1, 8))
    assert np.all(grid.values == 0.0)


def test_constant_grid_residual():
    values = np.zeros((9, 9, 1))
    grid = Grid(Fraction(0), Fraction(1), Fraction(0), Fraction(1),
                Fraction(1, 8), values)
    assert residual_grid(SL2, grid) == pytest.approx(2.0)


def test_sampled_exact_solution_residual_is_second_order():
    results = []
    for k in (8, 16):
        h = Fraction(1, k)
        values = np.empty((k + 1, k + 1, 1))
        for i in range(k + 1):
            for j in range(k + 1):
                values[i, j, 0] = exact_symmetric(float(i * h), float(j * h))
        grid = Grid(Fraction(0), Fraction(1), Fraction(0), Fraction(1), h,
                    values)
        results.append(residual_grid(SL2, grid))
    assert results[0] < 0.01
    assert results[0] / results[1] == pytest.approx(4.0, rel=0.2)


def test_solver_error_bound_and_monotone_refinement():
    errors = []
    for k in (8, 16, 32):
        grid = solve_goursat(SL2, generic_data(), Fraction(1, k))
        errors.append(max_error(grid, exact_generic))
    assert errors[0] < 2e-3
    assert errors[0] > errors[1] > errors[2]


def test_solver_residual_below_regression_threshold():
    h = Fraction(1, 32)
    grid = solve_goursat(SL2, generic_data(), h)
    assert residual_grid(SL2, grid) <= 10.0 * float(h) ** 2


def test_four_point_identity_holds_cellwise():
    h = Fraction(1, 16)
    grid = solve_goursat(SL2, generic_data(), h)
    v = grid.values
    hf = float(h)
    worst = 0.0
    for i in range(1, grid.steps + 1):
        for j in range(1, grid.steps + 1):
            mid = 0.25 * (v[i, j, 0] + v[i - 1, j, 0] + v[i, j - 1, 0]
                          + v[i - 1, j - 1, 0])
            lhs = v[i, j, 0] - v[i - 1, j, 0] - v[i, j - 1, 0] \
                + v[i - 1, j - 1, 0]
            worst = max(worst, abs(lhs - hf * hf * 2.0 * math.exp(mid)))
    assert worst <= max(10.0 * grid.sweep_residual, 1e-12)


def test_schedules_are_bitwise_identical():
    seq = solve_goursat(SL2, generic_data(), Fraction(1, 32))
    wave = solve_goursat(SL2, generic_data(), Fraction(1, 32),
                         schedule="wavefront")
    assert np.array_equal(seq.values, wave.values)
    assert seq.sweep_residual == wave.sweep_residual


def test_corner_mismatch_detected():
    data = GoursatData(Fraction(0), Fraction(1), Fraction(0), Fraction(1),
                       x_edge=lambda y: [1.0], y_edge=lambda x: [0.0])
    with pytest.raises(CornerMismatchError):
        solve_goursat(SL2, data, Fraction(1, 8))


def test_exp_overflow_reported_with_location():
    data = GoursatData(Fraction(0), Fraction(1), Fraction(0), Fraction(1),
                       x_edge=lambda y: [400.0 + y],
                       y_edge=lambda x: [400.0 + x])
    with pytest.raises(GridOverflowError) as err:
        solve_goursat(SL2, data, Fraction(1, 8))
    assert err.value.cell == (1, 1)


def test_step_must_divide_interval():
    with pytest.raises(ValueError):
        solve_goursat(SL2, symmetric_data(), Fraction(2, 7))
    with pytest.raises(ValueError):
        solve_goursat(SL2, symmetric_data(), Fraction(3, 2))


def test_odd_matrix_rejected():
    with pytest.raises(ValueError):
        solve_goursat(standard_cartan("osp12"), symmetric_data(),
                      Fraction(1, 8))


def test_jet_solution_sampled_onto_grid_agrees():
    # sample an exact jet solution of the G-form system near its base point
    # and measure the discrete residual: O(h^2) plus truncation error
    from zcurv.jets import Jet

    x = Jet.variable("x", (0, 0), 10)
    y = Jet.variable("y", (0, 0), 10)
    g_jet = -((x + y + 2).ln()) * 2
    h = Fraction(1, 32)
    k = 8  # stay within [0, 1/4]^2 where the truncated jet is accurate
    values = np.empty((k + 1, k + 1, 1))
    for i in range(k + 1):
        for j in range(k + 1):
            values[i, j, 0] = g_jet.evaluate(float(i * h), float(j * h))
    grid = Grid(Fraction(0), Fraction(1, 4), Fraction(0), Fraction(1, 4), h,
                values)
    assert residual_grid(SL2, grid) < 5e-4


def test_convergence_order_synthetic():
    quadratic = [(1 / k, 3.0 / k ** 2) for k in (4, 8, 16, 32)]
    assert convergence_order(quadratic) == pytest.approx(2.0)
    linear = [(1 / k, 0.5 / k) for k in (4, 8, 16)]
    assert convergence_order(linear) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        convergence_order([(0.1, 1e-3)])


def test_csv_export(tmp_path):
    grid = solve_goursat(SL2, symmetric_data(), Fraction(1, 4))
    out = tmp_path / "grid.csv"
    write_csv(grid, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,G_1"
    assert len(lines) == 1 + 5 * 5
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert float(first[2]) == pytest.approx(exact_symmetric(0.0, 0.0))
    # row-major: the second row advances y
    assert lines[2].split(",")[1] == "0.25"


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(Fraction(0), Fraction(1), Fraction(0), Fraction(2),
             Fraction(1, 4), np.zeros((5, 5, 1)))
    with pytest.raises(ValueError):
        Grid(Fraction(0), Fraction(1), Fraction(0), Fraction(1),
             Fraction(1, 4), np.full((5, 5, 1), np.nan))


# -- scalar reference oracle -------------------------------------------------
# A per-cell kernel on Python lists, its two loop orders and a scalar
# residual loop.  The array march in zcurv.numerics must reproduce them bit
# for bit.

def _float_matrix(a):
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


def reference_solve(a, data, h, schedule="sequential"):
    h = Fraction(h)
    m = int((data.x1 - data.x0) / h)
    n = a.rank
    values = np.empty((m + 1, m + 1, n), dtype=np.float64)
    for i in range(m + 1):
        values[i, 0] = data.y_edge(float(data.x0 + i * h))
    for j in range(m + 1):
        values[0, j] = data.x_edge(float(data.y0 + j * h))
    cell = _make_cell_kernel(_float_matrix(a), float(h) * float(h))
    sweep = 0.0
    # numpy scalars warn on inf - inf, which the test settings make an error
    with np.errstate(over="ignore", invalid="ignore"):
        if schedule == "sequential":
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    sweep = max(sweep, cell(values, i, j))
        else:
            for d in range(2, 2 * m + 1):
                for i in range(max(1, d - m), min(m, d - 1) + 1):
                    sweep = max(sweep, cell(values, i, d - i))
    return values, sweep


def reference_residual_grid(a, grid):
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


def smooth_data(rank, x0, y0, side):
    # corner-consistent traces of a smooth rank-component field
    def f(x, y):
        return [0.4 * math.sin((k + 1) * x - y) - 0.3 * k * math.cos(x * y)
                + 0.1 * (x + y) - 2.0 for k in range(rank)]
    x0, y0 = Fraction(x0), Fraction(y0)
    return GoursatData(x0, x0 + side, y0, y0 + side,
                       x_edge=lambda y: f(float(x0), y),
                       y_edge=lambda x: f(x, float(y0)))


ORACLE_MATRICES = {
    "null2": CartanMatrix.from_rows([[0, 0], [0, 0]]),
    "diag2": CartanMatrix.from_rows([[2, 0], [0, 2]]),
    "affine": CartanMatrix.from_rows([[2, -2], [-2, 2]]),
    "sl2": SL2,
    "sl3": standard_cartan("sl3"),
    "sl4": standard_cartan("sl4"),
    "sl5": standard_cartan("sl5"),
}
ORACLE_STEPS = [(Fraction(1, 4), Fraction(1, 4)),    # m = 1
                (Fraction(1), Fraction(1, 2)),       # m = 2
                (Fraction(1, 2), Fraction(1, 14)),   # m = 7
                (Fraction(1), Fraction(1, 16)),
                (Fraction(5, 16), Fraction(1, 128)),
                (Fraction(3, 2), Fraction(1, 40))]


@pytest.mark.parametrize("name", sorted(ORACLE_MATRICES))
@pytest.mark.parametrize("base", [(0, 0), (Fraction(-1, 2), Fraction(3, 4))])
@pytest.mark.parametrize("side,h", ORACLE_STEPS)
def test_march_matches_scalar_reference(name, base, side, h):
    a = ORACLE_MATRICES[name]
    data = smooth_data(a.rank, base[0], base[1], side)
    grid = solve_goursat(a, data, h)
    values, sweep = reference_solve(a, data, h)
    assert np.array_equal(grid.values, values)
    assert grid.sweep_residual == sweep
    assert residual_grid(a, grid) == reference_residual_grid(a, grid)


def test_residual_grid_matches_reference_on_rough_grid():
    rng = np.random.default_rng(5)
    for a in ORACLE_MATRICES.values():
        for m in (1, 2, 9):
            grid = Grid(Fraction(0), Fraction(1), Fraction(0), Fraction(1),
                        Fraction(1, m), rng.normal(size=(m + 1, m + 1, a.rank)))
            assert residual_grid(a, grid) == reference_residual_grid(a, grid)


BIG = 10 ** 308


@pytest.mark.parametrize("rows,edge", [
    # entries near the float limit: a first corrector component is NaN
    # (inf - inf) while the final values stay finite, so the sweep must
    # drop that cell exactly as the scalar running max does
    ([[0, BIG, -BIG], [0, 0, -BIG], [0, -BIG, 0]], [5.0, 5.0, 5.0]),
    # no entry uses the second component, so its exp is never taken and
    # 800 does not overflow
    ([[2, 0], [0, 0]], [-3.0, 800.0]),
], ids=["nan-corrector", "unused-column"])
def test_march_matches_reference_at_float_limits(rows, edge):
    a = CartanMatrix.from_rows(rows)
    data = GoursatData(Fraction(0), Fraction(1), Fraction(0), Fraction(1),
                       x_edge=lambda y: edge, y_edge=lambda x: edge)
    grid = solve_goursat(a, data, Fraction(1, 4))
    values, sweep = reference_solve(a, data, Fraction(1, 4))
    assert np.array_equal(grid.values, values)
    assert grid.sweep_residual == sweep
    assert residual_grid(a, grid) == reference_residual_grid(a, grid)


def staggered_overflow_data():
    return GoursatData(Fraction(0), Fraction(1), Fraction(0), Fraction(1),
                       x_edge=lambda y: [800.0 if y >= 0.375 else 0.0],
                       y_edge=lambda x: [800.0 if x >= 0.25 else 0.0])


@pytest.mark.parametrize("schedule", ["sequential", "wavefront"])
def test_overflow_names_first_cell_in_antidiagonal_order(schedule):
    with pytest.raises(GridOverflowError) as err:
        solve_goursat(SL2, staggered_overflow_data(), Fraction(1, 8),
                      schedule=schedule)
    assert err.value.cell == (2, 1)
    with pytest.raises(GridOverflowError) as ref:
        reference_solve(SL2, staggered_overflow_data(), Fraction(1, 8),
                        schedule="wavefront")
    assert ref.value.cell == (2, 1)


def test_unknown_schedule_rejected():
    with pytest.raises(ValueError):
        solve_goursat(SL2, symmetric_data(), Fraction(1, 8),
                      schedule="threads")
