import itertools
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otmesh import (
    PointCloud,
    SolverError,
    TimeGrid,
    brute_force_assignment,
    cosine_potential,
    cost_matrix,
    double_well,
    free_particle,
    harmonic_oscillator,
    solve_assignment,
    solve_bvp,
    solve_discrete_otm,
)
from otmesh import _native, integrators, transport
from otmesh.measures import EmpiricalPathMeasure, bl_distance_bound
from otmesh.paths import Path
from otmesh.integrators import solve_bvp_pairs
from otmesh.transport import AssignmentPlan, solve_transport


# -- cost matrices -------------------------------------------------------------


def test_cost_matrix_free_particle_bvp():
    grid = TimeGrid.uniform(0, 1, 8)
    clouds = PointCloud([0.0, 1.0])
    costs = cost_matrix(free_particle(), clouds, clouds, grid, cost_kind="bvp")
    assert costs == pytest.approx(np.array([[0.0, 0.5], [0.5, 0.0]]), abs=1e-12)


def test_cost_matrix_single_pair():
    grid = TimeGrid.uniform(0, 1, 4)
    costs = cost_matrix(
        free_particle(), PointCloud([1.0]), PointCloud([3.0]), grid, cost_kind="bvp"
    )
    assert costs.shape == (1, 1)
    assert costs[0, 0] == pytest.approx(2.0)


def test_cost_matrix_closed_form_matches_bvp():
    grid = TimeGrid.uniform(0, np.pi / 2, 400)
    model = harmonic_oscillator()
    source = PointCloud([0.0, 0.5])
    target = PointCloud([1.0, -0.25])
    exact = cost_matrix(model, source, target, grid, cost_kind="closed_form")
    solved = cost_matrix(model, source, target, grid, cost_kind="bvp")
    assert solved == pytest.approx(exact, abs=1e-4)
    # entry (0, 0) connects 0 to 1 over a quarter period: cost 0
    assert exact[0, 0] == pytest.approx(0.0, abs=1e-14)


# the batched per-row solve against a per-pair solve_bvp loop

BATCH_MODELS = {
    "free_particle": (free_particle(), 1),
    "harmonic": (harmonic_oscillator(), 1),
    "double_well": (double_well(), 1),
    "cosine": (cosine_potential(amplitude=2.0, dim=2), 2),
    # without an analytic Hessian the solvers difference the gradient
    "double_well_fd": (replace(double_well(), hess_potential=None), 2),
    "cosine_fd": (replace(cosine_potential(dim=2), hess_potential=None), 2),
}
BATCH_GRIDS = {
    "uniform": TimeGrid.uniform(0.0, 0.3, 24),
    "nonuniform": TimeGrid([0.0, 0.01, 0.05, 0.08, 0.15, 0.16, 0.22, 0.3]),
}


def per_pair_solves(model, source, target, grid, **options):
    return [[solve_bvp(model, x, y, grid, **options) for y in target] for x in source]


@pytest.mark.parametrize("grid_name", sorted(BATCH_GRIDS))
@pytest.mark.parametrize("model_name", sorted(BATCH_MODELS))
def test_cost_matrix_bvp_matches_per_pair_solves(model_name, grid_name):
    model, dim = BATCH_MODELS[model_name]
    grid = BATCH_GRIDS[grid_name]
    rng = np.random.default_rng(len(model_name) + 10 * dim)
    source = PointCloud(rng.uniform(-1.2, 1.2, (4, dim)))
    target = PointCloud(rng.uniform(-0.5, 1.5, (4, dim)))
    oracle = per_pair_solves(model, source.points, target.points, grid)
    assert all(r.converged for row in oracle for r in row)
    expected = np.array([[r.cost for r in row] for row in oracle])
    costs = cost_matrix(model, source, target, grid, cost_kind="bvp")
    np.testing.assert_array_equal(costs, expected)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cost_matrix_bvp_converges_where_the_jacobian_is_indefinite():
    # past the conjugate span pi/sqrt(2) the Jacobian near the potential's minimum
    # is indefinite; the pivoted banded step converges on (2.9 -> 2.4) with no
    # per-pair re-solve
    model = cosine_potential(amplitude=2.0)
    grid = TimeGrid.uniform(0.0, 2.5, 40)
    source, target = PointCloud([2.9, 0.0]), PointCloud([2.4, 1.0])
    oracle = per_pair_solves(model, source.points, target.points, grid)
    assert all(r.converged for row in oracle for r in row)
    batch = solve_bvp_pairs(model, source.points[:1], target.points[:1], grid)
    assert batch.converged[0]
    expected = np.array([[r.cost for r in row] for row in oracle])
    costs = cost_matrix(model, source, target, grid, cost_kind="bvp")
    np.testing.assert_array_equal(costs, expected)


@pytest.mark.parametrize(
    "model, points, grid, reason",
    [
        # past the conjugate span the Jacobian is indefinite: every pair is a saddle
        (harmonic_oscillator(), [0.0, 0.5], TimeGrid.uniform(0, 1.5 * np.pi, 60), "saddle"),
        # only pairs near the potential's minimum at pi reach a conjugate point
        (cosine_potential(), [0.1, 3.0, 3.3], TimeGrid.uniform(0, 4.0, 40), "saddle"),
        # m/dt = k dt/2 at dt = 2: the Jacobian is exactly singular, in 1-D and 2-D
        (harmonic_oscillator(), [0.3, -0.2], TimeGrid.uniform(0, 4.0, 2), "Newton"),
        (
            harmonic_oscillator(),
            [[0.0, 0.5], [1.0, -0.5]],
            TimeGrid.uniform(0, 4.0, 2),
            "Newton",
        ),
    ],
    ids=["harmonic", "cosine", "singular_1d", "singular_2d"],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cost_matrix_reports_first_failure_like_per_pair_loop(model, points, grid, reason):
    cloud = PointCloud(points)
    oracle = per_pair_solves(model, cloud.points, cloud.points, grid)
    i, j = next(
        (i, j) for i, row in enumerate(oracle) for j, r in enumerate(row) if not r.converged
    )
    assert reason in oracle[i][j].message
    with pytest.raises(SolverError) as raised:
        cost_matrix(model, cloud, cloud, grid, cost_kind="bvp")
    assert str(raised.value) == (
        f"boundary-value solve failed for pair ({i}, {j}): {oracle[i][j].message}"
    )


# the cost matrix in chunks of source rows against one solve_bvp_pairs call per row


def per_row_cost_matrix(model, source, target, grid):
    """Costs row by row, or the first failing pair (i, j) with its reason."""
    costs = np.empty((source.size, target.size))
    for i, x in enumerate(source.points):
        row = solve_bvp_pairs(model, np.broadcast_to(x, target.points.shape), target.points, grid)
        failed = np.flatnonzero(~row.converged)
        if failed.size:
            return (i, failed[0]), row.message(failed[0])
        costs[i] = row.costs
    return costs


def chunk_rows(monkeypatch, source, grid, rows):
    """Set the batch budget to `rows` source rows; return the pair count of each call."""
    per_row = source.size * (grid.n_intervals - 1) * source.dim**2
    if rows is not None:
        monkeypatch.setattr(transport, "_BVP_BATCH_BUDGET", rows * per_row)
    calls = []

    def counted(model, x, y, grid):
        calls.append(x.shape[0])
        return solve_bvp_pairs(model, x, y, grid)

    monkeypatch.setattr(transport, "solve_bvp_pairs", counted)
    return calls


@pytest.mark.parametrize("rows, calls", [(None, [25]), (1, [5] * 5), (2, [10, 10, 5])])
@pytest.mark.parametrize("model_name", sorted(BATCH_MODELS))
def test_cost_matrix_bvp_in_chunks_equals_the_per_row_loop_bitwise(
    model_name, rows, calls, monkeypatch
):
    model, dim = BATCH_MODELS[model_name]
    grid = BATCH_GRIDS["uniform"]
    rng = np.random.default_rng(len(model_name) + dim)
    source = PointCloud(rng.uniform(-1.2, 1.2, (5, dim)))
    target = PointCloud(rng.uniform(-0.5, 1.5, (5, dim)))
    expected = per_row_cost_matrix(model, source, target, grid)
    made = chunk_rows(monkeypatch, source, grid, rows)
    costs = cost_matrix(model, source, target, grid, cost_kind="bvp")
    assert np.array_equal(costs, expected) and made == calls


@pytest.mark.parametrize("rows, calls", [(None, [16]), (1, [4] * 3), (2, [8, 8])])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cost_matrix_bvp_in_chunks_names_the_first_failure_of_a_later_chunk(
    rows, calls, monkeypatch
):
    # only pairs near the cosine's minimum at pi reach a conjugate point: rows
    # 0 and 1 converge, and rows 2 and 3 hold saddles from column 2 on
    model, grid = cosine_potential(), TimeGrid.uniform(0, 4.0, 40)
    cloud = PointCloud([0.1, 0.2, 3.0, 3.3])
    (i, j), reason = per_row_cost_matrix(model, cloud, cloud, grid)
    assert (i, j) == (2, 2) and reason.startswith("saddle-point check failed")
    made = chunk_rows(monkeypatch, cloud, grid, rows)
    with pytest.raises(SolverError) as raised:
        cost_matrix(model, cloud, cloud, grid, cost_kind="bvp")
    assert str(raised.value) == f"boundary-value solve failed for pair ({i}, {j}): {reason}"
    # no chunk after the failing one is solved
    assert made == calls


def test_cost_matrix_rejects_bad_input():
    grid = TimeGrid.uniform(0, 1, 4)
    with pytest.raises(ValueError):
        cost_matrix(free_particle(), PointCloud([0.0]), PointCloud([0.0, 1.0]), grid)
    with pytest.raises(ValueError):
        cost_matrix(
            free_particle(), PointCloud([0.0]), PointCloud([1.0]), grid, cost_kind="magic"
        )
    with pytest.raises(ValueError, match="at least one coordinate"):
        PointCloud([[]])


# -- assignment solvers -----------------------------------------------------------


def test_assignment_examples():
    plan = solve_assignment(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert plan.perm.tolist() == [0, 1]
    assert plan.total_cost == 0.0

    plan = solve_assignment(np.array([[1.0, 2.0], [3.0, 1.0]]))
    assert plan.perm.tolist() == [0, 1]
    assert plan.total_cost == pytest.approx(2.0)
    assert plan.average_cost == pytest.approx(1.0)

    plan = solve_assignment(np.array([[0.0, 9, 9], [9, 9, 0.0], [9, 0.0, 9]]))
    assert plan.perm.tolist() == [0, 2, 1]
    assert plan.total_cost == 0.0


def test_assignment_rejects_bad_matrices():
    with pytest.raises(ValueError):
        solve_assignment(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        solve_assignment(np.array([[np.inf, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("solve", [solve_assignment, brute_force_assignment])
def test_assignment_rejects_an_empty_matrix_and_keeps_one_by_one(solve):
    with pytest.raises(ValueError, match="at least one row"):
        solve(np.zeros((0, 0)))
    plan = solve(np.array([[-3.5]]))
    assert plan.perm.tolist() == [0] and plan.total_cost == plan.average_cost == -3.5


def test_brute_force_examples():
    assert brute_force_assignment(np.array([[4.2]])).perm.tolist() == [0]
    plan = brute_force_assignment(np.array([[1.0, 2.0], [3.0, 1.0]]))
    assert plan.perm.tolist() == [0, 1] and plan.total_cost == pytest.approx(2.0)
    with pytest.raises(ValueError):
        brute_force_assignment(np.zeros((10, 10)))


def test_brute_force_lexicographic_tie_break():
    plan = brute_force_assignment(np.ones((3, 3)))
    assert plan.perm.tolist() == [0, 1, 2]


@pytest.mark.parametrize("N", range(2, 8))
def test_assignment_agrees_with_brute_force(N):
    rng = np.random.default_rng(100 + N)
    for _ in range(200):
        costs = rng.uniform(-1.0, 1.0, (N, N))
        fast = solve_assignment(costs)
        slow = brute_force_assignment(costs)
        assert abs(fast.total_cost - slow.total_cost) <= 1e-12


def test_constant_shift_moves_total_by_n_times_constant():
    rng = np.random.default_rng(7)
    for _ in range(20):
        N = rng.integers(2, 7)
        costs = rng.uniform(-2, 2, (N, N))
        shift = rng.uniform(-5, 5)
        base = solve_assignment(costs)
        shifted = solve_assignment(costs + shift)
        assert shifted.total_cost == pytest.approx(base.total_cost + N * shift, abs=1e-10)


def test_row_permutation_permutes_the_assignment():
    rng = np.random.default_rng(13)
    costs = rng.uniform(-1, 1, (6, 6))
    base = solve_assignment(costs)
    row_perm = rng.permutation(6)
    permuted = solve_assignment(costs[row_perm])
    assert permuted.total_cost == pytest.approx(base.total_cost, abs=1e-12)


def assert_solves_as_brute_force(costs):
    """The LAP's total is brute force's, and so is its permutation unless
    the least total is tied; every total is summed in row order."""
    index = np.arange(len(costs))
    with np.errstate(over="ignore"):
        slow = brute_force_assignment(costs)
        totals = sorted(costs[index, p].sum() for p in itertools.permutations(index))
    fast = solve_assignment(costs)
    assert fast.total_cost == slow.total_cost
    if totals[:1] != totals[1:2]:
        assert fast.perm.tolist() == slow.perm.tolist()


@pytest.mark.parametrize("N", range(1, 8))
def test_assignment_of_negative_matrices_is_brute_force(N):
    rng = np.random.default_rng(200 + N)
    for _ in range(20):
        assert_solves_as_brute_force(rng.uniform(-10.0, -1.0, (N, N)))


@pytest.mark.parametrize("N", range(2, 8))
def test_assignment_of_matrices_spanning_the_float_range_is_brute_force(N):
    # these entries span more than the float range: shifted by the least
    # entry some would be infinite, and unhalved they overflow the LAP's
    # potentials
    rng = np.random.default_rng(300 + N)
    solved = 0
    for _ in range(20):
        # rows offset alternately by +1e308 and -1e308, so every row-order
        # total is finite
        offsets = 1e308 * (-1.0) ** np.arange(N)[:, None]
        costs = rng.uniform(-1e306, 1e306, (N, N)) + offsets
        assert float(costs.max()) - float(costs.min()) == np.inf
        assert_solves_as_brute_force(costs)
        # entries within +-1e307, a third of them 1e308 and one -1e308; the
        # least total overflows for some of them, which brute force reports
        costs = rng.uniform(-1e307, 1e307, (N, N))
        costs[rng.random((N, N)) < 1 / 3] = 1e308
        costs.flat[rng.choice(N * N, 2, replace=False)] = -1e308, 1e308
        try:
            with np.errstate(over="ignore"):
                brute_force_assignment(costs)
        except SolverError:
            continue
        assert_solves_as_brute_force(costs)
        solved += 1
    assert solved >= 10


def test_assignment_of_the_full_float_range_needs_no_shift():
    # shifted by its least entry, this matrix would be infeasible: every
    # permutation would meet an entry of 1e308 + 1e308 = inf
    plan = solve_assignment(np.array([[-1e308, 1e308], [1e308, 1e308]]))
    assert plan.perm.tolist() == [0, 1] and plan.total_cost == 0.0


def test_assignment_solve_holds_no_copy_of_its_matrix():
    N = 1024
    costs = np.random.default_rng(0).uniform(-1.0, 1.0, (N, N))
    tracemalloc.start()
    try:
        plan = solve_assignment(costs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the perm and the matched costs; a copy of costs is 8 MB
    assert peak < 2**20
    assert plan.total_cost == costs[np.arange(N), plan.perm].sum()


@pytest.mark.parametrize("solve", [solve_assignment, brute_force_assignment])
@pytest.mark.parametrize(
    "costs, total",
    [([[-1e308, 1e308], [1e308, -1e308]], "-inf"), ([[1e308, 1e308], [1e308, 1e308]], "inf")],
)
def test_a_matched_total_that_overflows_is_a_solver_error(solve, costs, total):
    with np.errstate(over="ignore"):  # brute force sums every permutation
        with pytest.raises(SolverError, match=f"^the matched costs sum to {total}$"):
            solve(np.array(costs))


def test_a_monotone_plan_whose_total_overflows_is_a_solver_error():
    # each cost is 1.3e154^2 / 2 = 8.45e307, and three of them overflow
    source, target = PointCloud([0.0] * 3), PointCloud([1.3e154] * 3)
    grid = TimeGrid.uniform(0.0, 1.0, 1)
    with counting_lap() as calls:
        with pytest.raises(SolverError, match="^the matched costs sum to inf$"):
            solve_transport(free_particle(), source, target, grid, "closed_form")
    assert calls == []


def test_brute_force_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match=r"^cost matrix must be square, got shape \(2, 3\)$"):
        brute_force_assignment(np.zeros((2, 3)))


@pytest.mark.parametrize("perm", [[0, 0], [1, 2], [-1, 0]])
def test_assignment_plan_rejects_a_perm_that_is_not_a_permutation(perm):
    with pytest.raises(ValueError, match=r"^perm is not a permutation of 0\.\.N-1$"):
        AssignmentPlan(np.array(perm), 0.0, 0.0)


def test_one_dimensional_quadratic_cost_is_monotone():
    # sorted-to-sorted matching is optimal for the free-particle cost in 1-D
    rng = np.random.default_rng(21)
    grid = TimeGrid.uniform(0, 1, 2)
    for N in range(2, 8):
        source = PointCloud(np.sort(rng.uniform(-1, 1, N)))
        target = PointCloud(np.sort(rng.uniform(2, 4, N)))
        costs = cost_matrix(free_particle(), source, target, grid, cost_kind="closed_form")
        monotone_total = float(np.sum(np.diag(costs)))
        assert brute_force_assignment(costs).total_cost == pytest.approx(
            monotone_total, abs=1e-12
        )
        with counting_lap() as calls:
            plan, _ = solve_transport(free_particle(), source, target, grid, "closed_form")
        assert calls == []
        assert plan.perm.tolist() == list(range(N))
        assert plan.total_cost == pytest.approx(monotone_total, abs=1e-12)


# -- sorted assignment for 1-D Monge costs ----------------------------------------


def test_native_linear_sum_assignment_is_scipys_public_one():
    from scipy.optimize import linear_sum_assignment

    assert _native.linear_sum_assignment is linear_sum_assignment
    assert transport.linear_sum_assignment is linear_sum_assignment


def test_native_linear_sum_assignment_rejects_an_infeasible_matrix_as_scipy_does():
    from scipy.optimize import linear_sum_assignment

    infeasible = np.array([[np.inf, 1.0], [np.inf, 2.0]])
    with pytest.raises(ValueError) as native:
        _native.linear_sum_assignment(infeasible)
    with pytest.raises(ValueError) as public:
        linear_sum_assignment(infeasible)
    assert str(native.value) == str(public.value) == "cost matrix is infeasible"


@contextmanager
def counting_lap():
    """Record the shape of every matrix handed to linear_sum_assignment."""
    calls = []
    original = transport.linear_sum_assignment

    def counted(M):
        calls.append(M.shape)
        return original(M)

    transport.linear_sum_assignment = counted
    try:
        yield calls
    finally:
        transport.linear_sum_assignment = original


def held_matrix_plan(costs, source, target):
    """The plan solve_transport gives BVP costs held in costs: the monotone
    plan if the sorted matrix passes the Monge check, else the LAP's."""
    if source.dim == 1:
        x, y = source.points[:, 0], target.points[:, 0]
        plan = transport._monotone_plan(x, y, transport._held(costs))
        if plan is not None:
            return plan
    return solve_assignment(costs)


@st.composite
def monge_cases(draw):
    """Closed-form 1-D costs below the conjugate span on a 1/16 lattice.

    Lattice points keep the Monge differences far above rounding, and a
    small lattice range makes duplicate points common.
    """
    N = draw(st.integers(1, 64))
    width = draw(st.sampled_from([4, 48]))
    points = st.lists(st.integers(-width, width), min_size=N, max_size=N)
    x = np.array(draw(points)) / 16.0
    y = np.array(draw(points)) / 16.0 + draw(st.sampled_from([0.0, 1.5]))
    model = draw(st.sampled_from([free_particle(), harmonic_oscillator()]))
    # the harmonic model (omega = 1) is conjugate at span pi
    span = draw(st.floats(0.2, 3.0))
    source, target = PointCloud(x), PointCloud(y)
    grid = TimeGrid.uniform(0.0, span, 2)
    return model, source, target, grid, cost_matrix(model, source, target, grid, "closed_form")


@settings(max_examples=120, deadline=None)
@given(case=monge_cases())
def test_sorted_assignment_matches_lap_and_brute_force(case):
    model, source, target, grid, costs = case
    N = source.size
    with counting_lap() as calls:
        fast, _ = solve_transport(model, source, target, grid, "closed_form")
    assert calls == []
    lap = solve_assignment(costs)
    scale = 1e-12 * N * np.abs(costs).max()
    assert fast.total_cost == pytest.approx(lap.total_cost, rel=1e-12, abs=scale)
    if N <= 9:
        slow = brute_force_assignment(costs)
        assert fast.total_cost == pytest.approx(slow.total_cost, rel=1e-12, abs=scale)
    distinct = np.unique(source.points).size == N and np.unique(target.points).size == N
    if distinct:
        # strict Monge inequalities make the optimum unique
        assert np.array_equal(fast.perm, lap.perm)
        assert fast.total_cost == lap.total_cost


def test_sorted_assignment_takes_the_transport_benchmark_shape():
    # harmonic closed-form costs of iid uniform clouds, as `otmesh transport`
    rng = np.random.default_rng(4)
    source = PointCloud(rng.uniform(0.0, 1.0, 300))
    target = PointCloud(rng.uniform(0.5, 2.5, 300))
    grid = TimeGrid.uniform(0.0, 1.0, 1)
    costs = cost_matrix(harmonic_oscillator(), source, target, grid, "closed_form")
    with counting_lap() as calls:
        fast, _ = solve_transport(harmonic_oscillator(), source, target, grid, "closed_form")
    assert calls == []
    lap = solve_assignment(costs)
    assert np.array_equal(fast.perm, lap.perm)
    assert fast.total_cost == lap.total_cost


def test_non_monge_matrices_take_the_assignment_solve():
    rng = np.random.default_rng(8)
    grid = TimeGrid.uniform(0.0, 1.0, 2)
    line = PointCloud(rng.uniform(-1, 1, 7))
    plane_a = PointCloud(rng.uniform(-1, 1, (7, 2)))
    plane_b = PointCloud(rng.uniform(-1, 1, (7, 2)))
    # min(|x - y|, 2), the bounded-Lipschitz ground cost of constant paths:
    # sorted, S[0, 0] + S[1, 1] = 4 exceeds S[0, 1] + S[1, 0] = 2.5
    bl_x, bl_y = PointCloud([0.0, 3.0]), PointCloud([2.5, 5.5])
    bl_ground = np.minimum(np.abs(bl_x.points - bl_y.points.T), 2.0)
    plane = cost_matrix(free_particle(), plane_a, plane_b, grid, cost_kind="closed_form")
    cases = [
        (rng.uniform(-1, 1, (7, 7)), line, line),
        (plane, plane_a, plane_b),
        (bl_ground, bl_x, bl_y),
    ]
    for costs, source, target in cases:
        with counting_lap() as calls:
            plan = held_matrix_plan(costs, source, target)
        assert calls == [costs.shape]
        assert plan.total_cost == pytest.approx(
            brute_force_assignment(costs).total_cost, abs=1e-12
        )
    assert held_matrix_plan(bl_ground, bl_x, bl_y).perm.tolist() == [1, 0]
    with counting_lap() as calls:
        plan, _ = solve_transport(free_particle(), plane_a, plane_b, grid, "closed_form")
    assert calls == [plane.shape]
    assert plan.total_cost == held_matrix_plan(plane, plane_a, plane_b).total_cost


def test_bl_bound_takes_the_assignment_solve():
    grid = TimeGrid.uniform(0.0, 1.0, 2)
    p = EmpiricalPathMeasure(tuple(Path.line(grid, x, x) for x in (0.0, 3.0)))
    q = EmpiricalPathMeasure(tuple(Path.line(grid, y, y) for y in (2.5, 5.5)))
    with counting_lap() as calls:
        assert bl_distance_bound(p, q) == pytest.approx(1.25)
    assert calls == [(2, 2)]


@pytest.mark.parametrize(
    "model, cost_kind, sizes, dim",
    [
        (free_particle(), "closed_form", (3, 2), 1),
        (free_particle(), "closed_form", (2, 3), 2),
        (cosine_potential(), "bvp", (3, 2), 1),
    ],
)
def test_mismatched_clouds_are_rejected_before_any_match(model, cost_kind, sizes, dim):
    rng = np.random.default_rng(dim)
    source, target = (PointCloud(rng.uniform(-1, 1, (n, dim))) for n in sizes)
    grid = TimeGrid.uniform(0.0, 0.5, 4)
    message = f"cloud sizes differ: {sizes[0]} vs {sizes[1]}"
    with pytest.raises(ValueError, match=message):
        solve_transport(model, source, target, grid, cost_kind)
    with pytest.raises(ValueError, match=message):
        solve_discrete_otm(model, source, target, grid, cost_kind)


# -- bounded temporaries -----------------------------------------------------------


def planted_monge_case(N, mixed, rng):
    """Shuffled 1-D clouds and a matrix whose sorted form S has the integer
    adjacent mixed differences np.diff(np.diff(S, axis=0), axis=1) == mixed."""
    S = np.zeros((N, N))
    S[1:, 1:] = np.cumsum(np.cumsum(mixed, axis=0), axis=1)
    S += rng.integers(-5, 5, N)[:, None] + rng.integers(-5, 5, N)[None, :]
    source = PointCloud(rng.permutation(N).astype(float))
    target = PointCloud(rng.permutation(N).astype(float))
    rows = np.argsort(source.points[:, 0], kind="stable")
    cols = np.argsort(target.points[:, 0], kind="stable")
    M = np.empty((N, N))
    M[np.ix_(rows, cols)] = S
    return M, S, source, target


@pytest.mark.parametrize("block_rows", [1, 2, 3])
def test_row_blocked_monge_check_decides_as_the_whole_matrix(monkeypatch, block_rows):
    N = 7
    monkeypatch.setattr(transport, "_MONGE_BLOCK_BUDGET", block_rows * N)
    rng = np.random.default_rng(block_rows)
    base = -np.ones((N - 1, N - 1))
    base[rng.random(base.shape) < 0.3] = 0.0  # equalities pass
    cases = [base]
    for i in range(N - 1):
        for j in range(N - 1):
            for violation in (1.0, 0.5):
                mixed = base.copy()
                mixed[i, j] = violation
                cases.append(mixed)
    for mixed in cases:
        M, S, source, target = planted_monge_case(N, mixed, rng)
        whole = bool(np.all(np.diff(np.diff(S, axis=0), axis=1) <= 0))
        assert whole == bool(np.all(mixed <= 0))
        plan = transport._monotone_plan(
            source.points[:, 0], target.points[:, 0], transport._held(M)
        )
        assert (plan is not None) == whole
        if plan is not None:
            rows = np.argsort(source.points[:, 0], kind="stable")
            assert np.array_equal(M[np.ix_(rows, plan.perm[rows])], S)
            assert plan.total_cost == M[np.arange(N), plan.perm].sum()


def test_assignment_of_one_dimensional_clouds_holds_no_n_squared_temporary():
    N = 1024
    rng = np.random.default_rng(0)
    source = PointCloud(rng.uniform(0.0, 1.0, N))
    target = PointCloud(rng.uniform(0.5, 2.5, N))
    grid = TimeGrid.uniform(0.0, 1.0, 1)
    costs = cost_matrix(harmonic_oscillator(), source, target, grid, "closed_form")
    tracemalloc.start()
    try:
        with counting_lap() as calls:
            plan = held_matrix_plan(costs, source, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < costs.nbytes
    assert plan.total_cost == solve_assignment(costs).total_cost


def test_closed_form_cost_matrix_holds_one_row_block_beside_the_matrix():
    N = 1024
    rng = np.random.default_rng(0)
    source = PointCloud(rng.uniform(0.0, 1.0, N))
    target = PointCloud(rng.uniform(0.5, 2.5, N))
    grid = TimeGrid.uniform(0.0, 1.0, 1)
    model = harmonic_oscillator()
    tracemalloc.start()
    try:
        costs = cost_matrix(model, source, target, grid, "closed_form")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # beside the matrix: one block of |x|^2 + |y|^2, the 64 KB operand buffer
    # of one broadcasting ufunc and the two norm vectors; a cross-product
    # temporary would make the peak about twice the matrix
    block = transport._COST_BLOCK_BUDGET * costs.itemsize
    assert peak < costs.nbytes + block + 2**17


@pytest.mark.parametrize(
    "model, span",
    [
        (free_particle(mass=2.5), 0.75),
        (harmonic_oscillator(), 1.0),
        # omega T = 4: anti-Monge harmonic costs, which the rows do not depend on
        (harmonic_oscillator(stiffness=4.0), 2.0),
    ],
)
def test_closed_form_cost_rows_are_the_held_matrix_rows_bitwise(model, span):
    rng = np.random.default_rng(5)
    spread = rng.standard_normal(46) * 10.0 ** rng.integers(-3, 4, 46)
    source = np.concatenate([[-0.0, 0.0, 0.5, 0.5], spread])
    target = np.concatenate([[0.0, -0.0], rng.uniform(-4.0, 4.0, 35)])
    costs = transport.ClosedFormCosts(model, PointCloud(source), PointCloud(target), span)
    held = costs.matrix()
    assert costs.shape == held.shape == (50, 37)
    # an empty slice, one row, a middle block, the last partial block, a short
    # slice after a long one (in the long one's buffer), and a strided slice
    for first, last, step in ((3, 3, None), (0, 1, None), (10, 30, None), (45, 60, None),
                              (0, 50, None), (20, 24, None), (-5, None, None), (1, None, 7)):
        rows = costs[first:last:step]
        want = held[first:last:step]
        assert rows.shape == (len(want), 37)
        assert rows.tobytes() == want.tobytes()


@pytest.mark.parametrize("source_dim, target_dim", [(2, 2), (3, 3), (1, 2), (2, 1)])
def test_closed_form_cost_rows_need_one_dimensional_clouds(source_dim, target_dim):
    # a row slice reads coordinate 0 of each point only, so of n-D clouds it
    # would give costs other than the matrix rows
    rng = np.random.default_rng(4)
    source, target = rng.uniform(0.0, 1.0, (4, source_dim)), rng.uniform(0.0, 1.0, (4, target_dim))
    costs = transport.ClosedFormCosts(free_particle(), PointCloud(source), PointCloud(target), 1.0)
    with pytest.raises(ValueError, match="row slices of closed-form costs need 1-D clouds"):
        costs[0:2]


def test_bvp_cost_matrix_of_1024_pairs_stays_below_8_mib():
    # one solve_bvp_pairs batch of 1024 2-D pairs over 40 intervals: one
    # Newton band of every pair took 6.1 MiB and the batch peaked at 10.8 MiB;
    # with the band filled a chunk of pairs at a time it peaks at 6.5 MiB
    rng = np.random.default_rng(0)
    source = PointCloud(rng.uniform(-1.0, 1.0, (32, 2)))
    target = PointCloud(rng.uniform(0.0, 2.0, (32, 2)))
    model, grid = cosine_potential(amplitude=2.0, dim=2), TimeGrid.uniform(0.0, 0.5, 40)
    tracemalloc.start()
    try:
        costs = cost_matrix(model, source, target, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(costs).all()
    assert peak < 8 * 2**20
