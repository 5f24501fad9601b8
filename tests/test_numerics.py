import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zcurv.cartan import CartanMatrix, standard_cartan
from zcurv.numerics import (_CSV_BLOCK, MAX_GRID_VALUES,
                            CornerMismatchError, GoursatData, Grid,
                            GridOverflowError, convergence_order,
                            grid_points, residual_grid, solve_goursat,
                            square_steps, write_csv)

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


def test_each_edge_is_sampled_once_per_grid_point():
    # the corner check reads the two samples at (x0, y0) that it already has
    x0, y0, h = Fraction(1, 3), Fraction(-1, 7), Fraction(1, 8)
    calls = {"x_edge": [], "y_edge": []}

    def trace(edge):
        def sample(t):
            calls[edge].append(t)
            return [0.0]
        return sample

    data = GoursatData(x0, x0 + 1, y0, y0 + 1, x_edge=trace("x_edge"),
                       y_edge=trace("y_edge"))
    solve_goursat(SL2, data, h)
    assert calls == {"x_edge": [float(y0 + j * h) for j in range(9)],
                     "y_edge": [float(x0 + i * h) for i in range(9)]}


@pytest.mark.parametrize("x_edge,y_edge,message", [
    (lambda y: [1.0, 0.0], lambda x: [0.0], "y_edge gives 1 values"),
    (lambda y: [0.0, 0.0, 0.0], lambda x: [0.0, 0.0],
     "x_edge gives 3 values"),
    (lambda y: [0.0, 0.0], lambda x: [0.0, 0.0] if x < 0.5 else [],
     "y_edge gives 0 values"),
])
def test_trace_length_checked_before_the_corner(x_edge, y_edge, message):
    # the corner check zips the traces, so it would not see a short one
    data = GoursatData(Fraction(0), Fraction(1), Fraction(0), Fraction(1),
                       x_edge=x_edge, y_edge=y_edge)
    with pytest.raises(ValueError, match=message + " for a rank-2 matrix"):
        solve_goursat(standard_cartan("sl3"), data, Fraction(1, 8))


def test_range_mismatch_rejected_before_sampling():
    def edge(t):
        raise AssertionError("sampled a trace")

    data = GoursatData(Fraction(0), Fraction(1), Fraction(0), Fraction(1, 2),
                       x_edge=edge, y_edge=edge)
    with pytest.raises(ValueError, match="same number of steps"):
        solve_goursat(SL2, data, Fraction(1, 8))


@pytest.mark.parametrize("x_edge,y_edge,message", [
    (lambda y: [math.nan], lambda x: [0.0], "x_edge is not finite at y = 0.0"),
    (lambda y: [0.0], lambda x: [math.inf if x > 0.3 else 0.0],
     "y_edge is not finite at x = 0.375"),
    (lambda y: [math.inf], lambda x: [math.inf],
     "y_edge is not finite at x = 0.0"),
])
def test_non_finite_trace_named_before_the_march(x_edge, y_edge, message):
    data = GoursatData(Fraction(0), Fraction(1), Fraction(0), Fraction(1),
                       x_edge=x_edge, y_edge=y_edge)
    with pytest.raises(ValueError, match=message):
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


@pytest.mark.parametrize("samples,message", [
    ([(0.25, 1e-3), (0.125, 0.0)], "non-positive step or error"),
    ([(0.25, 1e-3), (0.125, -2e-4)], "non-positive step or error"),
    ([(0.25, 1e-3), (0.125, math.nan)], "non-positive step or error"),
    ([(0.0, 1e-3), (0.125, 2e-4)], "non-positive step or error"),
    ([(0.25, 1e-3), (0.25, 2e-4)], "not distinct"),
    ([(0.125, 1e-3)] * 3, "not distinct"),
])
def test_convergence_order_names_bad_samples(samples, message):
    with pytest.raises(ValueError, match=message):
        convergence_order(samples)


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


def test_grid_points_are_the_fraction_floats():
    rng = random.Random(20261018)
    cases = [(Fraction(-5, 7), Fraction(1, 7), 10)]  # passes exactly 0
    for _ in range(300):
        lo = Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 9))
        h = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 9))
        cases.append((lo, h, rng.randint(0, 40)))
    for lo, h, m in cases:
        expected = [float(lo + i * h) for i in range(m + 1)]
        assert (np.array(grid_points(lo, h, m)).tobytes()
                == np.array(expected).tobytes()), (lo, h, m)


@pytest.mark.parametrize("lo,h,m", [(Fraction(10 ** 400, 3), Fraction(1), 2),
                                    (Fraction(10 ** 308), Fraction(10 ** 308),
                                     1)])
def test_grid_points_overflow_like_fraction(lo, h, m):
    with pytest.raises(OverflowError) as direct:
        [float(lo + i * h) for i in range(m + 1)]
    with pytest.raises(OverflowError) as helper:
        grid_points(lo, h, m)
    assert str(helper.value) == str(direct.value)
    grid = Grid(lo, lo + m * h, lo, lo + m * h, h, np.zeros((m + 1, m + 1, 1)))
    for at in (grid.x_at, grid.y_at):
        with pytest.raises(OverflowError) as helper:
            at(m)
        assert str(helper.value) == str(direct.value)


SIGNED_FRACTIONS = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                             st.integers(1, 10 ** 12))
STEPS = st.builds(Fraction, st.integers(1, 10 ** 9), st.integers(1, 10 ** 12))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(x0=SIGNED_FRACTIONS, y0=SIGNED_FRACTIONS, h=STEPS,
       m=st.integers(1, 12))
def test_grid_coordinates_are_the_fraction_floats(x0, y0, h, m):
    grid = Grid(x0, x0 + m * h, y0, y0 + m * h, h, np.zeros((m + 1, m + 1, 1)))
    for i in range(-1, m + 2):
        assert repr(grid.x_at(i)) == repr(float(x0 + i * h))
        assert repr(grid.y_at(i)) == repr(float(y0 + i * h))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(Fraction(0), Fraction(1), Fraction(0), Fraction(2),
             Fraction(1, 4), np.zeros((5, 5, 1)))
    with pytest.raises(ValueError):
        Grid(Fraction(0), Fraction(1), Fraction(0), Fraction(1),
             Fraction(1, 4), np.full((5, 5, 1), np.nan))


def test_grid_size_is_bounded_before_sampling_or_allocation():
    side = 5792  # the most points per side of a rank-1 grid in the bound
    assert side ** 2 <= MAX_GRID_VALUES < (side + 1) ** 2
    assert square_steps(0, side - 1, 0, side - 1, 1) == side - 1
    with pytest.raises(ValueError) as info:
        square_steps(0, side - 1, 0, side - 1, 1, 2)
    assert str(info.value) == (
        f"a rank-2 grid of {side} x {side} points holds {2 * side ** 2} "
        f"values, over the limit of {MAX_GRID_VALUES}")

    def unsampled(t):
        raise AssertionError("a trace was sampled")

    data = GoursatData(Fraction(0), Fraction(1), Fraction(0), Fraction(1),
                       x_edge=unsampled, y_edge=unsampled)
    with pytest.raises(ValueError, match=f"limit of {MAX_GRID_VALUES}$"):
        solve_goursat(SL2, data, Fraction(1, 10 ** 9))


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
    # exp(-800) underflows, so every product of the last row is -0.0; the
    # sum starts at +0.0 and gives +0.0, whose sign the last component's
    # -0.0 predictor keeps
    ([[2, -1, 0], [-1, 2, 0], [-1, -2, 0]],
     lambda t: [-800.0 + t, -801.0 + t, 0.0 if t == 0.0 else -0.0]),
    # the unused column sits between two used ones
    ([[2, 0, -1], [-1, 0, 2], [0, 0, 2]], [-3.0, 800.0, -2.0]),
    # the largest update shares its anti-diagonals with cells whose first
    # corrector component is NaN, and the sweep must still count it
    ([[0, BIG, -BIG], [0, 0, -BIG], [0, -BIG, 0]],
     lambda t: [[-6.0, 0.0, 6.0], [6.0, 6.0, 6.0], [-6.0, -6.0, 0.0],
                [6.0, 6.0, 6.0], [0.0, 0.0, 6.0]][round(4 * t)]),
], ids=["nan-corrector", "unused-column", "underflow-signed-zero",
        "unused-middle-column", "nan-beside-largest-update"])
def test_march_matches_reference_at_float_limits(rows, edge):
    a = CartanMatrix.from_rows(rows)
    trace = edge if callable(edge) else lambda t: edge
    data = GoursatData(Fraction(0), Fraction(1), Fraction(0), Fraction(1),
                       x_edge=trace, y_edge=trace)
    grid = solve_goursat(a, data, Fraction(1, 4))
    values, sweep = reference_solve(a, data, Fraction(1, 4))
    assert np.array_equal(grid.values, values)
    assert grid.values.tobytes() == values.tobytes()  # signs of zeros too
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


def spiked_data(m, spikes):
    """Rank-1 traces on [0, 1] with h = 1/m, at -720 except at the grid
    points in ``spikes``: ("x", j) is y = j/m on the x = 0 edge and
    ("y", i) is x = i/m on the y = 0 edge.  With A = [[BIG]], BIG *
    exp(-720) is about 2e-5, so the grid stays near -720 until a spike."""
    def trace(edge):
        return lambda t: [spikes.get((edge, round(t * m)), -720.0)]
    return GoursatData(Fraction(0), Fraction(1), Fraction(0), Fraction(1),
                       x_edge=trace("x"), y_edge=trace("y"))


# A spike of 800 at ("x", j) gives cell (1, j) a midpoint of 40: exp(40) is
# finite, BIG * exp(40) is not, so the cell's final value is inf on
# diagonal j + 1 and no exp raises.  A spike of 2200 at ("y", i) gives cell
# (i, 1) a midpoint of 740, whose math.exp raises OverflowError on diagonal
# i + 1.  The march checks finiteness once per 16 diagonals, 2..17, 18..33,
# ..., so these put the first failure inside a batch, on its last diagonal
# and on the first diagonal of the next one.
@pytest.mark.parametrize("spikes,cell", [
    # non-finite on diagonal 5, exp overflow on diagonal 6 of the same batch
    ({("x", 4): 800.0, ("y", 5): 2200.0}, (1, 4)),
    ({("y", 4): 2200.0, ("x", 5): 800.0}, (4, 1)),
    # the same pair on the last two diagonals of the first batch
    ({("x", 15): 800.0, ("y", 16): 2200.0}, (1, 15)),
    # non-finite on the last diagonal of a batch, overflow just past it
    ({("x", 16): 800.0, ("y", 17): 2200.0}, (1, 16)),
    # one failure on diagonal 17, 18, 33 or 34, of each kind
    ({("x", 16): 800.0}, (1, 16)), ({("y", 16): 2200.0}, (16, 1)),
    ({("x", 17): 800.0}, (1, 17)), ({("y", 17): 2200.0}, (17, 1)),
    ({("x", 32): 800.0}, (1, 32)), ({("y", 32): 2200.0}, (32, 1)),
    ({("x", 33): 800.0}, (1, 33)), ({("y", 33): 2200.0}, (33, 1)),
], ids=["inf-5-exp-6", "exp-5-inf-6", "inf-16-exp-17", "inf-17-exp-18",
        "inf-17", "exp-17", "inf-18", "exp-18", "inf-33", "exp-33", "inf-34",
        "exp-34"])
@pytest.mark.parametrize("schedule", ["sequential", "wavefront"])
def test_batched_finiteness_names_the_reference_cell(spikes, cell, schedule):
    a = CartanMatrix.from_rows([[BIG]])
    data = spiked_data(40, spikes)
    with pytest.raises(GridOverflowError) as ref:
        reference_solve(a, data, Fraction(1, 40), schedule="wavefront")
    assert ref.value.cell == cell
    with pytest.raises(GridOverflowError) as err:
        solve_goursat(a, data, Fraction(1, 40), schedule=schedule)
    assert err.value.cell == cell
    assert str(err.value) == f"exp overflow while updating grid cell {cell}"


@pytest.mark.parametrize("name", ["sl2", "sl4", "sl5"])  # ranks 1, 3 and 4
def test_results_do_not_depend_on_the_grid_layout(tmp_path, name):
    a = ORACLE_MATRICES[name]
    grid = solve_goursat(a, smooth_data(a.rank, Fraction(-1, 2),
                                        Fraction(3, 4), Fraction(1, 2)),
                         Fraction(1, 14))
    dense = grid._replace(values=np.ascontiguousarray(grid.values))
    assert np.array_equal(dense.values, grid.values)
    assert a.rank == 1 or not grid.values.flags.c_contiguous  # the view
    assert residual_grid(a, dense) == residual_grid(a, grid)
    write_csv(grid, tmp_path / "march.csv")
    write_csv(dense, tmp_path / "dense.csv")
    assert ((tmp_path / "march.csv").read_bytes()
            == (tmp_path / "dense.csv").read_bytes())


def test_unknown_schedule_rejected():
    with pytest.raises(ValueError):
        solve_goursat(SL2, symmetric_data(), Fraction(1, 8),
                      schedule="threads")


def test_march_keeps_no_second_grid():
    # the sweep residual is folded in diagonal by diagonal, so the march
    # holds the grid and one diagonal's temporaries, not a grid of first
    # corrector values
    a = standard_cartan("sl4")
    data = smooth_data(a.rank, 0, 0, 1)
    tracemalloc.start()
    try:
        grid = solve_goursat(a, data, Fraction(1, 256))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * grid.values.nbytes


def test_write_csv_keeps_no_copy_of_the_grid(tmp_path):
    # the text of one block of rows at a time, not of the whole grid
    values = np.random.default_rng(7).standard_normal((513, 513, 3))
    grid = Grid(Fraction(0), Fraction(1), Fraction(0), Fraction(1),
                Fraction(1, 512), values)
    tracemalloc.start()
    try:
        write_csv(grid, tmp_path / "grid.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < grid.values.nbytes
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert len(lines) == 1 + 513 * 513
    assert lines[-1] == "1,1," + ",".join(f"{v:.17g}" for v in values[-1, -1])


# -- CSV and march fingerprint -----------------------------------------------
# The per-line formatter that write_csv replaced, kept as the byte reference,
# and one hash over the CSV bytes, sweep residuals and discrete residuals of
# seeded solves and of grids holding -0.0, subnormals and values near the
# float limits.  The constant was recorded with the per-line writer and the
# per-row right-hand side sum, before the one-template writer and the
# broadcast kernel replaced them.

def reference_csv_text(grid):
    lines = ["x,y," + ",".join(f"G_{k + 1}" for k in range(grid.rank))]
    xs = [f"{float(grid.x0 + i * grid.h):.17g}" for i in range(grid.steps + 1)]
    ys = [f"{float(grid.y0 + j * grid.h):.17g}" for j in range(grid.steps + 1)]
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            lines.append(",".join([x, y] + [f"{v:.17g}" for v in
                                            grid.values[i, j].tolist()]))
    return "\n".join(lines) + "\n"


FINGERPRINT_MATRICES = [
    CartanMatrix.from_rows([[2]]),
    CartanMatrix.from_rows([[-1]]),
    standard_cartan("sl3"),
    CartanMatrix.from_rows([[2, 0, -1], [-1, 2, 0], [0, 0, 2]]),
    standard_cartan("sl4"),
    CartanMatrix.from_rows([[2, 0, -1, 0], [-1, 0, 0, 0], [0, 0, 2, -3],
                            [0, 0, -1, 2]]),
]
FINGERPRINT_STEPS = [1, 2, 3, 5, 8, 13, 21, 34, 55, 80]
EXTREME_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                  1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308,
                  -1.7976931348623157e308, 0.1, -2.5, 1 / 3]
CSV_FINGERPRINT = "72c7b977b0d47449"


def fingerprint_cases():
    rng = random.Random(1414)
    for a in FINGERPRINT_MATRICES:
        for m in FINGERPRINT_STEPS:
            x0 = Fraction(rng.randint(-20, 20), rng.choice([3, 7, 10]))
            y0 = Fraction(rng.randint(-20, 20), rng.choice([3, 7, 10]))
            h = Fraction(1, rng.choice([64, 96, 100]))
            yield a, solve_goursat(a, smooth_data(a.rank, x0, y0, m * h), h)
    for rank, m in [(1, 1), (2, 4), (3, 6), (4, 9)]:
        values = np.array([rng.choice(EXTREME_VALUES)
                           for _ in range((m + 1) ** 2 * rank)])
        x0 = Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 999))
        yield None, Grid(x0, x0 + 1, -x0, 1 - x0, Fraction(1, m),
                         values.reshape(m + 1, m + 1, rank))


def test_csv_and_march_fingerprint(tmp_path):
    digest = hashlib.sha256()
    out = tmp_path / "grid.csv"
    for a, grid in fingerprint_cases():
        write_csv(grid, out)
        data = out.read_bytes()
        assert data == reference_csv_text(grid).encode("utf-8")
        digest.update(data)
        digest.update(repr(grid.sweep_residual).encode())
        if a is not None:
            digest.update(repr(residual_grid(a, grid)).encode())
    assert digest.hexdigest()[:16] == CSV_FINGERPRINT


@pytest.mark.parametrize("rank,points,block", [(1, 201, 163), (3, 120, 91)])
def test_csv_across_block_boundaries(tmp_path, rank, points, block):
    # two blocks of rows, the second short: the template of each block is
    # built from its own rows only
    assert _CSV_BLOCK // (points * rank) == block
    rng = random.Random(points)
    values = np.array([rng.choice(EXTREME_VALUES)
                       for _ in range(points * points * rank)])
    grid = Grid(Fraction(-7, 3), Fraction(-7, 3) + 1, Fraction(5, 11),
                Fraction(5, 11) + 1, Fraction(1, points - 1),
                values.reshape(points, points, rank))
    write_csv(grid, tmp_path / "grid.csv")
    assert ((tmp_path / "grid.csv").read_bytes()
            == reference_csv_text(grid).encode("utf-8"))
