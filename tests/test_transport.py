import numpy as np
import pytest

from otmesh import (
    PointCloud,
    TimeGrid,
    brute_force_assignment,
    cost_matrix,
    free_particle,
    harmonic_oscillator,
    solve_assignment,
)


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


def test_cost_matrix_rejects_bad_input():
    grid = TimeGrid.uniform(0, 1, 4)
    with pytest.raises(ValueError):
        cost_matrix(free_particle(), PointCloud([0.0]), PointCloud([0.0, 1.0]), grid)
    with pytest.raises(ValueError):
        cost_matrix(
            free_particle(), PointCloud([0.0]), PointCloud([1.0]), grid, cost_kind="magic"
        )


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


def test_one_dimensional_quadratic_cost_is_monotone():
    # sorted-to-sorted matching is optimal for the free-particle cost in 1-D
    rng = np.random.default_rng(21)
    grid = TimeGrid.uniform(0, 1, 2)
    for N in range(2, 8):
        x = np.sort(rng.uniform(-1, 1, N))
        y = np.sort(rng.uniform(2, 4, N))
        costs = cost_matrix(
            free_particle(), PointCloud(x), PointCloud(y), grid, cost_kind="closed_form"
        )
        monotone_total = float(np.sum(np.diag(costs)))
        assert brute_force_assignment(costs).total_cost == pytest.approx(
            monotone_total, abs=1e-12
        )
        assert solve_assignment(costs).total_cost == pytest.approx(
            monotone_total, abs=1e-12
        )
