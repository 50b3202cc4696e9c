from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from otmesh import (
    BlowUpError,
    Path,
    PhasePoint,
    TimeGrid,
    closed_form_cost,
    continuous_action,
    cosine_potential,
    discrete_el_step,
    discrete_flow,
    double_well,
    el_residual,
    free_particle,
    harmonic_oscillator,
    midpoint_action,
    reference_flow,
    solve_bvp,
    uniform_distance,
)
from otmesh import integrators
from otmesh.integrators import reference_flow_batch

FREE = free_particle()
HARMONIC = harmonic_oscillator()


# -- reference flow ------------------------------------------------------------


def test_reference_flow_free_particle_line():
    result = reference_flow(FREE, PhasePoint(0.0, 1.0), TimeGrid.uniform(0, 1, 10))
    assert result.path.nodes[:, 0] == pytest.approx(result.path.grid.nodes)
    assert result.final_state.position == pytest.approx([1.0])
    assert result.final_state.velocity == pytest.approx([1.0])


def test_reference_flow_harmonic_quarter_period():
    grid = TimeGrid.uniform(0, np.pi / 2, 50)
    result = reference_flow(HARMONIC, PhasePoint(1.0, 0.0), grid)
    assert abs(result.final_state.position[0]) <= 1e-8
    assert result.final_state.velocity[0] == pytest.approx(-1.0, abs=1e-8)


@pytest.mark.parametrize("amplitude", [1.0, 10.0, 100.0])
def test_reference_flow_oscillator_family_returns_to_origin(amplitude):
    # the family amplitude*sin(t) connects the origin to itself over a half
    # period at every amplitude; its action evaluates to zero
    grid = TimeGrid.uniform(0.0, np.pi, 200)
    result = reference_flow(HARMONIC, PhasePoint(0.0, amplitude), grid)
    assert abs(result.final_state.position[0]) <= 1e-6 * amplitude
    sampled = Path.from_function(
        TimeGrid.uniform(0.0, np.pi, 2500), lambda t: amplitude * np.sin(t)
    )
    assert continuous_action(HARMONIC, sampled) == pytest.approx(
        0.0, abs=1e-6 * amplitude**2
    )


def test_reference_flow_guard_radius():
    # a launch at 4e6 leaves the guard radius 1e6 before t = 1
    with pytest.raises(BlowUpError):
        reference_flow(FREE, PhasePoint(0.0, 4e6), TimeGrid.uniform(0, 1, 4))


def scalar_rk4(model, x, v, grid, substeps=16):
    """One-start RK4 loop: the oracle the batched reference flow must match."""
    m = model.mass
    x = np.array(x, dtype=float)
    v = np.array(v, dtype=float)
    nodes = [x]
    for dt in grid.spacings:
        sub = dt / substeps
        for _ in range(substeps):
            k1x = v
            k1v = -np.asarray(model.grad_potential(x), dtype=float) / m
            x2 = x + 0.5 * sub * k1x
            k2x = v + 0.5 * sub * k1v
            k2v = -np.asarray(model.grad_potential(x2), dtype=float) / m
            x3 = x + 0.5 * sub * k2x
            k3x = v + 0.5 * sub * k2v
            k3v = -np.asarray(model.grad_potential(x3), dtype=float) / m
            x4 = x + sub * k3x
            k4x = v + sub * k3v
            k4v = -np.asarray(model.grad_potential(x4), dtype=float) / m
            x = x + (sub / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            v = v + (sub / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        nodes.append(x)
    return np.array(nodes), x, v


@pytest.mark.parametrize(
    "model, dim",
    [
        (free_particle(), 2),
        (harmonic_oscillator(mass=0.7, stiffness=2.0), 1),
        (double_well(), 2),
        (cosine_potential(amplitude=2.0, dim=2), 2),
    ],
    ids=["free_particle", "harmonic", "double_well", "cosine"],
)
@pytest.mark.parametrize(
    "grid",
    [
        TimeGrid.uniform(0.0, 1.0, 7),
        TimeGrid(np.array([0.0, 0.05, 0.2, 0.31, 0.55, 0.6])),
    ],
    ids=["uniform", "nonuniform"],
)
def test_reference_flow_batch_matches_scalar_loop_bitwise(model, dim, grid):
    rng = np.random.default_rng(17)
    starts = rng.uniform(-1.2, 1.2, (9, dim))
    launches = rng.uniform(-1.0, 1.0, (9, dim))
    nodes, x_end, v_end = reference_flow_batch(model, starts, launches, grid)
    assert nodes.shape == (9, grid.n_intervals + 1, dim)
    for i in range(9):
        want_nodes, want_x, want_v = scalar_rk4(model, starts[i], launches[i], grid)
        assert np.array_equal(nodes[i], want_nodes)
        assert np.array_equal(x_end[i], want_x)
        assert np.array_equal(v_end[i], want_v)
        single = reference_flow(model, PhasePoint(starts[i], launches[i]), grid)
        assert np.array_equal(single.path.nodes, want_nodes)
        assert np.array_equal(single.final_state.position, want_x)
        assert np.array_equal(single.final_state.velocity, want_v)


def test_reference_flow_batch_blow_up_of_one_path_raises():
    # only path 5 leaves the radius 1e6, at t = 1/3, inside interval 3
    launches = np.zeros((8, 1))
    launches[5] = 3e6
    with pytest.raises(BlowUpError, match="within grid interval 3$"):
        reference_flow_batch(FREE, np.zeros((8, 1)), launches, TimeGrid.uniform(0, 1, 10))


# -- single implicit step --------------------------------------------------------


def test_el_step_free_particle_extrapolates():
    nxt = discrete_el_step(FREE, 1.0, 2.0, 0.5, 0.25)
    assert nxt == pytest.approx([2.5])


def test_el_step_hand_solved_value():
    # linear update for the quadratic potential: -10(z - 1) = 0.05 + 0.05(1+z)/2
    nxt = discrete_el_step(HARMONIC, 1.0, 1.0, 0.1, 0.1)
    assert nxt == pytest.approx([9.925 / 10.025], rel=1e-12)


def test_el_step_equilibrium_is_fixed_point():
    nxt = discrete_el_step(HARMONIC, 0.0, 0.0, 0.1, 0.1)
    assert nxt == pytest.approx([0.0], abs=1e-14)


def test_el_step_rejects_bad_steps():
    with pytest.raises(ValueError):
        discrete_el_step(FREE, 0.0, 1.0, -0.1, 0.1)
    with pytest.raises(ValueError):
        discrete_el_step(FREE, [0.0, 1.0], [1.0], 0.1, 0.1)


# -- discrete flow -----------------------------------------------------------------


def test_discrete_flow_free_particle():
    grid = TimeGrid.uniform(0, 1, 10)
    result = discrete_flow(FREE, PhasePoint(0.0, 1.0), grid)
    assert result.path.nodes[:, 0] == pytest.approx(grid.nodes)
    assert result.final_state.velocity == pytest.approx([1.0])


def test_discrete_flow_harmonic_endpoint():
    grid = TimeGrid.from_step(0, np.pi / 2, 0.01)
    result = discrete_flow(HARMONIC, PhasePoint(1.0, 0.0), grid)
    assert abs(result.final_state.position[0]) <= 5e-3


def test_discrete_flow_error_halves_with_h():
    errors = []
    for h in (0.04, 0.02, 0.01):
        grid = TimeGrid.from_step(0, np.pi / 2, h)
        disc = discrete_flow(HARMONIC, PhasePoint(1.0, 0.0), grid)
        ref = reference_flow(HARMONIC, PhasePoint(1.0, 0.0), grid)
        errors.append(uniform_distance(disc.path, ref.path))
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 1.8


def test_discrete_flow_second_order_from_force_free_launch():
    # launched where the force vanishes, the first-order initialization is
    # harmless and the scheme's quadratic rate is visible
    errors = []
    for h in (0.04, 0.02, 0.01):
        grid = TimeGrid.from_step(0, np.pi / 2, h)
        disc = discrete_flow(HARMONIC, PhasePoint(0.0, 1.0), grid)
        ref = reference_flow(HARMONIC, PhasePoint(0.0, 1.0), grid)
        errors.append(uniform_distance(disc.path, ref.path))
    for coarse, fine in zip(errors, errors[1:]):
        assert np.log2(coarse / fine) >= 1.8


def test_discrete_flow_time_reversal_palindrome():
    grid = TimeGrid.uniform(0.0, 5.0, 100)
    forward = discrete_flow(HARMONIC, PhasePoint(0.3, 0.8), grid)
    end = forward.final_state
    backward = discrete_flow(HARMONIC, PhasePoint(end.position, -end.velocity), grid)
    assert np.max(np.abs(backward.path.nodes - forward.path.nodes[::-1])) <= 1e-10


def test_discrete_flow_energy_stays_bounded():
    h = 0.01
    steps = 20000
    grid = TimeGrid.uniform(0.0, h * steps, steps)
    result = discrete_flow(HARMONIC, PhasePoint(1.0, 0.0), grid)
    nodes = result.path.nodes[:, 0]
    velocity = np.diff(nodes) / h
    energy = 0.5 * velocity**2 + 0.5 * nodes[:-1] ** 2
    deviation = np.abs(energy - energy[0])
    fitted = deviation[:100].max()
    assert deviation.max() <= 2.0 * fitted
    assert fitted <= 2.0 * h  # O(h) oscillation for difference-quotient energy


# -- stationarity residual ----------------------------------------------------------


def test_el_residual_of_discrete_flow_is_tiny():
    grid = TimeGrid.uniform(0, 1, 50)
    result = discrete_flow(HARMONIC, PhasePoint(1.0, 0.5), grid)
    assert el_residual(HARMONIC, result.path) <= 1e-10


def test_el_residual_collinear_free():
    grid = TimeGrid.uniform(0, 1, 5)
    assert el_residual(FREE, Path.line(grid, 0.0, 1.0)) == 0.0


def test_el_residual_kink():
    grid = TimeGrid.uniform(0, 1, 2)
    path = Path(grid, np.array([[0.0], [0.0], [1.0]]))
    assert el_residual(FREE, path) == pytest.approx(2.0)


def test_el_residual_needs_interior_nodes():
    with pytest.raises(ValueError):
        el_residual(FREE, Path.line(TimeGrid.uniform(0, 1, 1), 0.0, 1.0))


# -- boundary-value solves -------------------------------------------------------------


def test_bvp_free_particle_straight_line():
    grid = TimeGrid.uniform(0, 1, 16)
    result = solve_bvp(FREE, 0.0, 2.0, grid)
    assert result.converged
    assert result.cost == pytest.approx(2.0, rel=1e-12)
    assert result.residual <= 1e-12
    assert np.max(np.abs(result.path.nodes[:, 0] - grid.nodes * 2.0)) <= 1e-9


def test_bvp_free_particle_from_random_warm_starts():
    grid = TimeGrid.uniform(0, 1, 16)
    rng = np.random.default_rng(17)
    line = Path.line(grid, 0.0, 2.0)
    for _ in range(10):
        warm = Path(grid, line.nodes + rng.uniform(-3, 3, line.nodes.shape))
        warm = Path(grid, np.vstack([[0.0], warm.nodes[1:-1], [2.0]]))
        result = solve_bvp(FREE, 0.0, 2.0, grid, init=warm)
        assert result.converged
        assert result.residual <= 1e-12
        assert np.max(np.abs(result.path.nodes[:, 0] - grid.nodes * 2.0)) <= 1e-9


@pytest.mark.parametrize(
    "x,y,expected",
    [(0.0, 1.0, 0.0), (1.0, 1.0, -1.0)],
    ids=["zero-to-one", "one-to-one"],
)
def test_bvp_harmonic_quarter_period_costs(x, y, expected):
    grid = TimeGrid.uniform(0, np.pi / 2, 1000)
    result = solve_bvp(HARMONIC, x, y, grid)
    assert result.converged
    assert result.cost == pytest.approx(expected, abs=1e-4)


def test_bvp_endpoints_pinned_exactly():
    grid = TimeGrid.uniform(0, 0.7, 33)
    x = np.array([0.123456789, -1.5])
    y = np.array([2.718281828, 0.25])
    result = solve_bvp(HARMONIC, x, y, grid)
    assert np.array_equal(result.path.nodes[0], x)
    assert np.array_equal(result.path.nodes[-1], y)


def test_bvp_cost_converges_quadratically_to_continuum():
    x, y, span = 0.2, 0.9, 1.0
    exact = closed_form_cost(HARMONIC, x, y, span)
    errors = []
    for n in (25, 50, 100):
        cost = solve_bvp(HARMONIC, x, y, TimeGrid.uniform(0, span, n)).cost
        errors.append(abs(cost - exact))
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.0 <= coarse / fine <= 5.0


def test_bvp_saddle_detected_beyond_conjugate_time():
    # past the conjugate span the stationary trajectory is not a minimum
    grid = TimeGrid.uniform(0, 1.5 * np.pi, 60)
    flagged = solve_bvp(HARMONIC, 0.0, 1.0, grid)
    assert not flagged.converged
    assert "saddle" in flagged.message
    stationary = solve_bvp(HARMONIC, 0.0, 1.0, grid, check_minimum=False)
    assert stationary.converged
    assert stationary.residual <= 1e-10


def inverted_ring_ridge():
    # V has a ridge of maxima on the unit circle; minimizers hug the ridge,
    # giving two mirror trajectories between antipodal points
    from otmesh import LagrangianModel

    return LagrangianModel(
        mass=1.0,
        potential=lambda x: -np.square(np.sum(np.square(x), axis=-1) - 1.0),
        grad_potential=lambda x: (
            -4.0 * (np.sum(np.square(x), axis=-1) - 1.0)[..., None]
            * np.asarray(x, dtype=float)
        ),
        hess_bound=lambda r: 12.0 * r**2 + 4.0,
        quadratic_growth=6.4,
    )


def test_bvp_multistart_clusters_mirror_minimizers():
    model = inverted_ring_ridge()
    grid = TimeGrid.uniform(0, 3.0, 40)
    result = solve_bvp(
        model,
        np.array([-1.0, 0.0]),
        np.array([1.0, 0.0]),
        grid,
        n_restarts=5,
    )
    assert result.converged
    assert result.multiplicity >= 2
    # the winner bends away from the symmetric straight line
    assert np.max(np.abs(result.path.nodes[:, 1])) > 0.5


def test_bvp_single_interval_is_the_segment():
    grid = TimeGrid.uniform(0, 1, 1)
    result = solve_bvp(HARMONIC, 0.5, 1.5, grid)
    assert result.converged and result.residual == 0.0
    assert result.cost == pytest.approx(midpoint_action(HARMONIC, result.path))


def test_bvp_jacobian_matches_finite_differences():
    from otmesh.integrators import _bvp_blocks, _bvp_jacobian, _interior_defects
    from otmesh import double_well

    rng = np.random.default_rng(31)
    for model in (HARMONIC, double_well()):
        grid = TimeGrid(np.sort(np.concatenate(([0.0, 0.7], rng.uniform(0.05, 0.65, 4)))))
        nodes = rng.uniform(-1.5, 1.5, (grid.n_intervals + 1, 2))
        dt = grid.spacings
        jac = _bvp_jacobian(*_bvp_blocks(model, nodes, dt)).toarray()
        step = 1e-6
        fd = np.zeros_like(jac)
        base = _interior_defects(model, nodes, dt).ravel()
        for col in range(jac.shape[1]):
            bumped = nodes.copy()
            flat = bumped[1:-1].ravel()
            flat[col] += step
            bumped[1:-1] = flat.reshape(bumped[1:-1].shape)
            fd[:, col] = (_interior_defects(model, bumped, dt).ravel() - base) / step
        assert np.max(np.abs(jac - fd)) <= 1e-5 * max(1.0, np.max(np.abs(jac)))


# -- the one-pair Newton core against a written-out sparse Newton loop ---------------------


def sparse_newton_loop(model, nodes, dt, tol, max_iter, scale):
    """Damped Newton on one stacked system with a sparse LU step, written out."""
    defects = integrators._interior_defects(model, nodes, dt)
    err = float(np.max(np.abs(defects)))
    for it in range(max_iter):
        if err <= tol * scale:
            return nodes, err, it, True
        jac = integrators._bvp_jacobian(*integrators._bvp_blocks(model, nodes, dt))
        step = spsolve(jac, -defects.ravel())
        step = step.reshape(defects.shape)
        phi = 0.5 * float(np.sum(defects * defects))
        t = 1.0
        while True:  # Armijo backtracking on the squared residual
            trial = nodes.copy()
            trial[1:-1] += t * step
            trial_defects = integrators._interior_defects(model, trial, dt)
            trial_phi = 0.5 * float(np.sum(trial_defects * trial_defects))
            if trial_phi <= phi * (1.0 - 1e-4 * t) or t < 1e-12:
                break
            t *= 0.5
        if t < 1e-12:
            return nodes, err, it, False
        nodes, defects = trial, trial_defects
        err = float(np.max(np.abs(defects)))
    return nodes, err, max_iter, err <= tol * scale


def screen_finds_saddle(model, grid, nodes, cost, rng):
    """The minimality screen for one path, written out: True if it is a saddle."""
    slack = 1e-10 * max(1.0, abs(cost))
    count = integrators._N_PERTURBATIONS
    for bump in integrators._perturbations(grid, nodes.shape[1], count, rng):
        pert = nodes.copy()
        pert[1:-1] += bump
        if midpoint_action(model, Path(grid, pert)) < cost - slack:
            return True
    return False


def assert_core_matches_sparse_loop(model, grid, starts):
    # one generator serves all starts, as it serves the restarts of solve_bvp
    tol, max_iter = integrators._BVP_TOL, integrators._BVP_MAX_ITER
    core_rng, loop_rng = np.random.default_rng(0), np.random.default_rng(0)
    for start in starts:
        x, y = start[0], start[-1]
        scale = float(integrators._residual_scale(model, x, y, grid, tol))
        nodes, resid, iters, ok = sparse_newton_loop(
            model, start.copy(), grid.spacings, tol, max_iter, scale
        )
        cost = midpoint_action(model, Path(grid, nodes))
        saddle = ok and screen_finds_saddle(model, grid, nodes, cost, loop_rng)
        got = integrators._bvp_core(
            model, grid, start[None].copy(), integrators._sparse_step, True, core_rng
        )
        assert np.array_equal(got.nodes[0], nodes)
        fields = (got.costs, got.residuals, got.newton_iterations, got.converged, got.saddle)
        assert tuple(a[0] for a in fields) == (cost, resid, iters, ok and not saddle, saddle)
    assert core_rng.bit_generator.state == loop_rng.bit_generator.state


def bvp_starts(grid, dim, seed, warm):
    rng = np.random.default_rng(seed)
    starts = []
    for _ in range(6):
        x, y = rng.uniform(-1.2, 1.2, dim), rng.uniform(-0.8, 1.5, dim)
        nodes = Path.line(grid, x, y).nodes.copy()
        if warm:
            nodes[1:-1] += rng.uniform(-0.5, 0.5, nodes[1:-1].shape)
        starts.append(nodes)
    return starts


CORE_MODELS = {
    "free_particle": (FREE, 1),
    "harmonic": (HARMONIC, 1),
    "double_well": (double_well(), 2),
    "cosine": (cosine_potential(amplitude=2.0, dim=2), 2),
    # without an analytic Hessian the Jacobian differences the gradient
    "double_well_fd": (replace(double_well(), hess_potential=None), 2),
    "cosine_fd": (replace(cosine_potential(dim=2), hess_potential=None), 2),
}
CORE_GRIDS = {
    "uniform": TimeGrid.uniform(0.0, 0.6, 24),
    "nonuniform": TimeGrid([0.0, 0.01, 0.05, 0.08, 0.15, 0.16, 0.22, 0.3]),
    # past the conjugate span of the cosine's minimum: indefinite Jacobians
    "long": TimeGrid.uniform(0.0, 2.5, 40),
}


@pytest.mark.parametrize("max_iter", [50, 2])
@pytest.mark.parametrize("warm", [False, True], ids=["line", "warm"])
@pytest.mark.parametrize("grid_name", sorted(CORE_GRIDS))
@pytest.mark.parametrize("model_name", sorted(CORE_MODELS))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bvp_core_one_pair_equals_the_sparse_newton_loop(
    model_name, grid_name, warm, max_iter, monkeypatch
):
    monkeypatch.setattr(integrators, "_BVP_MAX_ITER", max_iter)
    model, dim = CORE_MODELS[model_name]
    grid = CORE_GRIDS[grid_name]
    assert_core_matches_sparse_loop(model, grid, bvp_starts(grid, dim, len(model_name), warm))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
def test_bvp_core_one_pair_equals_the_sparse_newton_loop_when_damped_or_stalled():
    # one of these pairs takes 19 Armijo-damped steps and then stalls
    rng = np.random.default_rng(9)
    grid = TimeGrid.uniform(0.0, 0.3, 24)
    x, y = rng.uniform(-1.5, 1.5, (9, 2)), rng.uniform(-1.0, 2.0, (9, 2))
    starts = [Path.line(grid, a, b).nodes.copy() for a, b in zip(x, y)]
    assert_core_matches_sparse_loop(double_well(), grid, starts)
    # an exactly singular Jacobian (m/dt = k dt/2) stalls at once
    grid = TimeGrid.uniform(0.0, 4.0, 2)
    assert_core_matches_sparse_loop(HARMONIC, grid, [Path.line(grid, 0.3, -0.2).nodes.copy()])


def test_bvp_core_one_pair_equals_the_sparse_newton_loop_on_saddles():
    # past the conjugate span pi every stationary path is a saddle
    grid = TimeGrid.uniform(0.0, 1.5 * np.pi, 60)
    starts = bvp_starts(grid, 1, 3, warm=False)
    assert_core_matches_sparse_loop(HARMONIC, grid, starts)


# -- P pairs in one batch against one solve_bvp per pair -------------------------


def assert_pairs_match_solve_bvp(model, x, y, grid, init=None, check_minimum=True):
    got = integrators.solve_bvp_pairs(model, x, y, grid, init, check_minimum)
    for p in range(x.shape[0]):
        want = solve_bvp(
            model, x[p], y[p], grid, None if init is None else init[p], check_minimum
        )
        assert np.array_equal(got.nodes[p], want.path.nodes)
        assert got.costs[p] == want.cost
        assert got.residuals[p] == want.residual
        assert got.newton_iterations[p] == want.newton_iterations
        assert got.converged[p] == want.converged
        assert got.message(p) == want.message
    return got


# each case lies within its model's admissible horizon
PAIR_CASES = {
    "free_particle": (FREE, 1, TimeGrid.uniform(0.0, 1.0, 12)),
    "harmonic": (HARMONIC, 1, TimeGrid.uniform(0.0, 0.2, 10)),
    "cosine_2d": (cosine_potential(amplitude=2.0, dim=2), 2, TimeGrid.uniform(0.0, 1.0, 16)),
    "double_well": (double_well(), 2, TimeGrid([0.0, 0.01, 0.025, 0.04, 0.06])),
    "single_interval": (cosine_potential(dim=2), 2, TimeGrid.uniform(0.0, 0.5, 1)),
}


@pytest.mark.parametrize("case", sorted(PAIR_CASES))
def test_bvp_pairs_connect_equals_solve_bvp_per_pair_bitwise(case):
    model, dim, grid = PAIR_CASES[case]
    rng = np.random.default_rng(len(case))
    x, y = rng.uniform(-1.5, 1.5, (7, dim)), rng.uniform(-1.0, 2.0, (7, dim))
    got = assert_pairs_match_solve_bvp(model, x, y, grid)
    assert np.all(got.converged)


@pytest.mark.parametrize("case", sorted(PAIR_CASES))
def test_bvp_pairs_warm_started_level_equals_solve_bvp_per_pair_bitwise(case):
    # warm starts on another grid, as one level of the stationarity study gets them
    model, dim, grid = PAIR_CASES[case]
    rng = np.random.default_rng(len(case) + 1)
    coarse = TimeGrid(grid.start + grid.span * np.array([0.0, 0.3, 0.45, 0.8, 1.0]))
    interior = np.array([[0], [1], [1], [1], [0]])
    warm = []
    for _ in range(5):
        nodes = Path.line(coarse, rng.uniform(-1, 1, dim), rng.uniform(-1, 1, dim)).nodes
        warm.append(Path(coarse, nodes + interior * rng.uniform(-0.3, 0.3, nodes.shape)))
    x = np.stack([path.start_point for path in warm])
    y = np.stack([path.end_point for path in warm])
    got = assert_pairs_match_solve_bvp(model, x, y, grid, init=warm, check_minimum=False)
    assert np.all(got.converged)
    if grid.n_intervals > 1:
        assert np.any(got.newton_iterations > 0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
def test_bvp_pairs_failures_equal_solve_bvp_per_pair():
    # past the conjugate span of the cosine's minimum at pi: minimizers near 0,
    # a saddle and stalled pairs in one batch
    model, grid = cosine_potential(amplitude=2.0, dim=2), TimeGrid.uniform(0.0, 2.5, 40)
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.5, 0.5, (8, 2)) + np.pi * rng.integers(0, 2, (8, 1))
    y = rng.uniform(-0.5, 0.5, (8, 2)) + np.pi * rng.integers(0, 2, (8, 1))
    got = assert_pairs_match_solve_bvp(model, x, y, grid)
    assert np.any(got.saddle) and np.any(got.converged)
    assert np.any(~got.converged & ~got.saddle)
    # an exactly singular Jacobian (m/dt = k dt/2) stalls at once unless the
    # straight line is already stationary, as it is from 0.5 to -0.5
    x, y = np.array([[0.3], [0.5]]), np.array([[-0.2], [-0.5]])
    got = assert_pairs_match_solve_bvp(HARMONIC, x, y, TimeGrid.uniform(0.0, 4.0, 2))
    assert list(got.converged) == [False, True]


def test_bvp_pairs_rejects_mismatched_inputs():
    grid = TimeGrid.uniform(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="same shape"):
        integrators.solve_bvp_pairs(FREE, np.zeros((2, 1)), np.zeros((3, 1)), grid)
    with pytest.raises(ValueError, match="warm-start paths"):
        integrators.solve_bvp_pairs(
            FREE, np.zeros((2, 1)), np.zeros((2, 1)), grid, init=[Path.line(grid, 0.0, 0.0)]
        )
