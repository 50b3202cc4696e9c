import ast
import inspect
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path as FilePath

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from otmesh import (
    BlowUpError,
    NewtonError,
    Path,
    PhasePoint,
    TimeGrid,
    closed_form_cost,
    continuous_action,
    cosine_potential,
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
from otmesh import _native, integrators
from otmesh.integrators import _el_step
from otmesh.models import MODEL_CATALOG, LagrangianModel

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
def test_rk4_march_one_group_matches_scalar_loop_bitwise(model, dim, grid):
    rng = np.random.default_rng(17)
    starts = rng.uniform(-1.2, 1.2, (9, dim))
    launches = rng.uniform(-1.0, 1.0, (9, dim))
    ((nodes, x_end, v_end),) = integrators._rk4_march(model, [(starts, launches, grid)])
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


MARCH_GRIDS = [
    TimeGrid.uniform(0.0, 1.0, 7),
    TimeGrid.uniform(0.0, 1.0, 1),
    TimeGrid(np.array([0.0, 0.02, 0.1, 0.13, 0.3, 0.32, 0.5, 0.61, 0.7, 0.8, 0.85, 0.93, 1.0])),
    TimeGrid.uniform(0.0, 1.0, 12),
]
# interval counts 3, 6, 1, 4, 2, 4 (a tie) and 5, uniform and non-uniform: the
# rows still marching change at every interval
STAIR_GRIDS = [
    TimeGrid(np.array([0.0, 0.5, 0.6, 1.0])),
    TimeGrid(np.array([0.0, 0.1, 0.25, 0.3, 0.6, 0.8, 1.0])),
    TimeGrid.uniform(0.0, 1.0, 1),
    TimeGrid.uniform(0.0, 1.0, 4),
    TimeGrid.uniform(0.0, 1.0, 2),
    TimeGrid(np.array([0.0, 0.3, 0.35, 0.7, 1.0])),
    TimeGrid.uniform(0.0, 1.0, 5),
]


@pytest.mark.parametrize(
    "model, dim",
    [(factory(), 2) for factory in MODEL_CATALOG.values()]
    + [(harmonic_oscillator(mass=0.7), 1), (cosine_potential(amplitude=2.0, dim=3), 3)],
    ids=list(MODEL_CATALOG) + ["harmonic_mass_0.7", "cosine_dim_3"],
)
def test_rk4_march_matches_scalar_loop_per_group(model, dim):
    # interval counts 7, 1, 12 (non-uniform, one path) and 12 (uniform), out of
    # length order and with a tie, all in one march; then the STAIR_GRIDS
    rng = np.random.default_rng(31)
    for sizes, grids in (([4, 3, 1, 5], MARCH_GRIDS), ([2, 3, 1, 2, 4, 1, 2], STAIR_GRIDS)):
        groups = [
            (rng.uniform(-1.2, 1.2, (size, dim)), rng.uniform(-1.0, 1.0, (size, dim)), grid)
            for size, grid in zip(sizes, grids)
        ]
        flows = integrators._rk4_march(model, groups)
        assert len(flows) == len(groups)
        for (starts, launches, grid), (nodes, x_end, v_end) in zip(groups, flows):
            assert nodes.shape == (starts.shape[0], grid.n_intervals + 1, dim)
            for i in range(starts.shape[0]):
                want_nodes, want_x, want_v = scalar_rk4(model, starts[i], launches[i], grid)
                assert np.array_equal(nodes[i], want_nodes)
                assert np.array_equal(x_end[i], want_x)
                assert np.array_equal(v_end[i], want_v)


def test_rk4_march_blow_up_in_a_shorter_group_names_its_interval():
    # the 4-interval group's launch 3e6 leaves the radius 1e6 at t = 1/3, inside
    # its interval 1; the 12-interval group stays at the origin
    launches = np.zeros((3, 1))
    launches[2] = 3e6
    groups = [
        (np.zeros((2, 1)), np.zeros((2, 1)), TimeGrid.uniform(0, 1, 12)),
        (np.zeros((3, 1)), launches, TimeGrid.uniform(0, 1, 4)),
    ]
    with pytest.raises(BlowUpError, match="within grid interval 1$"):
        integrators._rk4_march(FREE, groups)
    with pytest.raises(BlowUpError, match="within grid interval 1$"):
        integrators._rk4_march(FREE, [groups[1]])


def test_rk4_march_blow_up_is_not_hidden_by_a_nan_row():
    # a NaN start never compares greater than the radius, and must not mask
    # the launch 3e6 that leaves it in interval 1 of the 4-interval group
    starts = np.zeros((3, 1))
    starts[0] = np.nan
    launches = np.zeros((3, 1))
    launches[2] = 3e6
    groups = [
        (starts[:2], np.zeros((2, 1)), TimeGrid.uniform(0, 1, 12)),
        (starts, launches, TimeGrid.uniform(0, 1, 4)),
    ]
    with pytest.raises(BlowUpError, match="within grid interval 1$"):
        integrators._rk4_march(FREE, groups)
    with pytest.raises(BlowUpError, match="within grid interval 1$"):
        integrators._rk4_march(FREE, [groups[1]])


def test_rk4_march_keeps_empty_groups():
    groups = [
        (np.zeros((0, 2)), np.zeros((0, 2)), TimeGrid.uniform(0, 1, 6)),
        (np.ones((2, 2)), np.ones((2, 2)), TimeGrid.uniform(0, 1, 3)),
    ]
    (nodes, x_end, v_end), flow = integrators._rk4_march(HARMONIC, groups)
    assert nodes.shape == (0, 7, 2) and x_end.shape == v_end.shape == (0, 2)
    assert np.array_equal(flow[0], integrators._rk4_march(HARMONIC, [groups[1]])[0][0])


def test_integrators_hold_one_rk4_substep_loop():
    tree = ast.parse(inspect.getsource(integrators))
    loops = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.For)
        and isinstance(node.iter, ast.Call)
        and "_RK4_SUBSTEPS" in ast.unparse(node.iter)
    ]
    assert len(loops) == 1


def test_rk4_march_blow_up_of_one_path_raises():
    # only path 5 leaves the radius 1e6, at t = 1/3, inside interval 3
    launches = np.zeros((8, 1))
    launches[5] = 3e6
    with pytest.raises(BlowUpError, match="within grid interval 3$"):
        integrators._rk4_march(FREE, [(np.zeros((8, 1)), launches, TimeGrid.uniform(0, 1, 10))])


# -- single implicit step --------------------------------------------------------


def test_el_step_free_particle_extrapolates():
    nxt = _el_step(FREE, np.array([1.0]), np.array([2.0]), 0.5, 0.25)[0]
    assert nxt == pytest.approx([2.5])


def test_el_step_hand_solved_value():
    # linear update for the quadratic potential: -10(z - 1) = 0.05 + 0.05(1+z)/2
    nxt = _el_step(HARMONIC, np.array([1.0]), np.array([1.0]), 0.1, 0.1)[0]
    assert nxt == pytest.approx([9.925 / 10.025], rel=1e-12)


def test_el_step_equilibrium_is_fixed_point():
    nxt = _el_step(HARMONIC, np.array([0.0]), np.array([0.0]), 0.1, 0.1)[0]
    assert nxt == pytest.approx([0.0], abs=1e-14)


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


def test_discrete_flow_with_an_infinite_force_raises():
    # the force at 1.25e199 overflows, so the outgoing momentum is infinite
    grid = TimeGrid.from_step(0.0, 1.0, 0.25)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NewtonError, match="residual inf at iteration 0"):
            discrete_flow(double_well(), PhasePoint(0.0, 1e200), grid)


def test_discrete_flow_whose_tolerance_floor_overflows_raises():
    # the tolerance floor 64 eps m |x| / dt is finite, but scaled by 1 / tol
    # it overflows; the same launch at x = 1 resolves each step in one
    # Newton iteration
    grid = TimeGrid.uniform(0.0, 4e-6, 4)
    assert discrete_flow(HARMONIC, PhasePoint([1.0], [0.0]), grid).newton_iterations_max == 1
    with pytest.raises(NewtonError, match="no finite tolerance"):
        discrete_flow(HARMONIC, PhasePoint([1e306], [0.0]), grid)


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
    # interior nodes 1..40 span [0, t_41], the first leading block to pass
    # the discrete conjugate time 2 * 40 tan(pi / 80), a little above pi
    assert flagged.message == (
        "saddle-point check failed: the second variation of the action "
        "turns indefinite at interior node 40"
    )
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


# -- the sparse LU oracle of the Newton step ----------------------------------------------


def sparse_jacobian(diag, off):
    """Sparse Jacobian of one problem from its blocks (l-1, n, n), (l-2, n, n)."""
    k = np.arange(diag.shape[0])
    n = diag.shape[-1]
    block_row = np.concatenate([k, k[:-1], k[1:]])
    block_col = np.concatenate([k, k[1:], k[:-1]])
    within = np.arange(n)
    rows, cols = np.broadcast_arrays(
        block_row[:, None, None] * n + within[:, None],
        block_col[:, None, None] * n + within,
    )
    size = k.size * n
    return sp.csc_matrix(
        (np.concatenate([diag, off, off]).ravel(), (rows.ravel(), cols.ravel())),
        shape=(size, size),
    )


def sparse_step(model, nodes, dt, rhs):
    """Newton step of one problem (l+1, n) by a pivoted sparse LU."""
    jac = sparse_jacobian(*integrators._bvp_blocks(model, nodes, dt))
    return spsolve(jac, rhs.ravel()).reshape(rhs.shape)


def banded_step(model, nodes, dt, rhs):
    """Newton step of one problem (l+1, n) by the solver's banded LU."""
    return integrators._banded_step(model, nodes[None], dt, rhs[None])[0]


def test_bvp_jacobian_matches_finite_differences():
    from otmesh.integrators import _bvp_blocks, _interior_defects

    rng = np.random.default_rng(31)
    for model in (HARMONIC, double_well()):
        grid = TimeGrid(np.sort(np.concatenate(([0.0, 0.7], rng.uniform(0.05, 0.65, 4)))))
        nodes = rng.uniform(-1.5, 1.5, (grid.n_intervals + 1, 2))
        dt = grid.spacings
        jac = sparse_jacobian(*_bvp_blocks(model, nodes, dt)).toarray()
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


def test_no_solver_module_imports_scipy_sparse():
    # every Newton step is the banded LU; the sparse LU lives on only in these tests
    src = FilePath(integrators.__file__).parent
    imports = []
    for module in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            imports += [
                f"{module.name}: {name}"
                for name in names
                if name == "scipy.sparse" or name.startswith("scipy.sparse.")
            ]
    assert imports == []


# -- dgbsv loaded from scipy.linalg._flapack alone -----------------------------------------


def test_native_dgbsv_is_scipys_public_dgbsv():
    from scipy.linalg.lapack import dgbsv

    assert _native.dgbsv is dgbsv
    assert integrators.dgbsv is dgbsv


def test_native_dgbsv_reports_a_singular_band_as_scipy_does():
    from scipy.linalg.lapack import dgbsv

    # tridiagonal, kl = ku = 1, with a zero third column: singular
    A = np.diag([2.0, 3.0, 0.0, 5.0]) + np.diag([1.0, 0.0, 1.0], 1) + np.diag([1.0, 1.0, 0.0], -1)
    kl = ku = 1
    ab = np.zeros((2 * kl + ku + 1, 4))
    for j in range(4):
        for i in range(max(0, j - ku), min(4, j + kl + 1)):
            ab[kl + ku + i - j, j] = A[i, j]
    rhs = np.ones((4, 1))
    native = _native.dgbsv(kl, ku, ab.copy(), rhs.copy())
    public = dgbsv(kl, ku, ab.copy(), rhs.copy())
    assert native[3] == public[3] == 3
    for got, want in zip(native[:3], public[:3]):
        assert np.array_equal(got, want, equal_nan=True)


def test_native_extension_loader_raises_import_error_for_a_missing_module():
    with pytest.raises(ImportError, match="_no_such_module"):
        _native._extension("scipy.linalg._no_such_module")


FALLBACK_SCRIPT = """
import importlib.machinery, sys
if sys.argv[1] == "fallback":
    importlib.machinery.EXTENSION_SUFFIXES = []  # _extension finds no file
from otmesh import _native
public = "scipy.optimize" in sys.modules
import scipy.linalg.lapack, scipy.optimize
from otmesh.cli import main
print(public, _native.dgbsv is scipy.linalg.lapack.dgbsv,
      _native.linear_sum_assignment is scipy.optimize.linear_sum_assignment)
sys.exit(main(sys.argv[2:]))
"""


def test_native_falls_back_to_scipys_public_names_with_the_same_artifacts(tmp_path):
    # a 2-D cosine study: banded Newton steps for the costs, assignment solves
    config = {
        "model": {"name": "cosine"},
        "marginal_a": {"kind": "uniform_box", "low": [0, 0], "high": [0.5, 0.5], "sampler": "iid"},
        "marginal_b": {"kind": "uniform_box", "low": [0.5, 0.5], "high": [1, 1], "sampler": "iid"},
        "span": [0.0, 0.5],
        "Ns": [3, 6],
        "hs": [0.125, 0.0625],
        "seed": 5,
    }
    cfg = tmp_path / "converge.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    src = FilePath(integrators.__file__).parents[1]
    flags = {}
    for mode in ("extension", "fallback"):
        proc = subprocess.run(
            [sys.executable, "-c", FALLBACK_SCRIPT, mode, "converge", "--config", str(cfg),
             "--out", str(tmp_path / mode)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        flags[mode] = proc.stdout.splitlines()[0]
    assert flags == {"extension": "False True True", "fallback": "True True True"}
    csv = [(tmp_path / mode / "convergence.csv").read_bytes() for mode in flags]
    assert csv[0] == csv[1] and b",ok," in csv[0]


# -- the one-pair Newton core against a written-out Newton loop ----------------------------


def newton_loop(model, nodes, dt, tol, max_iter, scale, linear_step, lengths=None):
    """Damped Newton on one stacked system with the given linear step, written out.

    The Armijo step length of every iteration is appended to ``lengths`` if given.
    """
    defects = integrators._interior_defects(model, nodes, dt)
    err = float(np.max(np.abs(defects)))
    for it in range(max_iter):
        if err <= tol * scale:
            return nodes, err, it, True
        step = linear_step(model, nodes, dt, -defects)
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
        if lengths is not None:
            lengths.append(t)
        if t < 1e-12:
            return nodes, err, it, False
        nodes, defects = trial, trial_defects
        err = float(np.max(np.abs(defects)))
    return nodes, err, max_iter, err <= tol * scale


def dense_hessian(model, grid, nodes):
    """Hessian of the midpoint action in the interior nodes of one path, dense."""
    return sparse_jacobian(*integrators._bvp_blocks(model, nodes, grid.spacings)).toarray()


def pivot_floor(model, grid, nodes):
    """The noise floor below which the pivot test calls an eigenvalue negative."""
    diag, _ = integrators._bvp_blocks(model, nodes, grid.spacings)
    return -64.0 * np.finfo(float).eps * np.max(np.abs(diag))


def leading_block_saddle_node(model, grid, nodes):
    """The second-variation test of one path, written out on the dense Hessian.

    By Sylvester's law of inertia the k-th block LDL^T pivot is the first to
    fail iff the leading k x k block minor is the first with a negative
    eigenvalue.  Returns that interior node (1..l-1), or 0.
    """
    hess = dense_hessian(model, grid, nodes)
    n, floor = nodes.shape[1], pivot_floor(model, grid, nodes)
    for k in range(1, grid.n_intervals):
        minor = hess[: k * n, : k * n]
        if not np.linalg.eigvalsh(0.5 * (minor + minor.T))[0] >= floor:
            return k
    return 0


def written_out_solve(model, grid, start, linear_step):
    """Newton loop and second-variation test of one start (l+1, n), written out.

    Returns the nodes, cost, residual, iterations, converged flag and saddle node.
    """
    tol, max_iter = integrators._BVP_TOL, integrators._BVP_MAX_ITER
    scale = float(integrators._residual_scale(model, start[0], start[-1], grid, tol))
    nodes, resid, iters, ok = newton_loop(
        model, start.copy(), grid.spacings, tol, max_iter, scale, linear_step
    )
    cost = midpoint_action(model, Path(grid, nodes))
    node = leading_block_saddle_node(model, grid, nodes) if ok else 0
    return nodes, cost, resid, iters, ok and not node, node


def assert_core_matches_written_out_loop(model, grid, starts):
    for start in starts:
        nodes, *want = written_out_solve(model, grid, start, banded_step)
        got = integrators._bvp_core(model, grid, start[None].copy(), True)
        assert np.array_equal(got.nodes[0], nodes)
        fields = (got.costs, got.residuals, got.newton_iterations, got.converged, got.saddle_node)
        assert [a[0] for a in fields] == want


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
def test_bvp_core_one_pair_equals_the_written_out_newton_loop(
    model_name, grid_name, warm, max_iter, monkeypatch
):
    monkeypatch.setattr(integrators, "_BVP_MAX_ITER", max_iter)
    model, dim = CORE_MODELS[model_name]
    grid = CORE_GRIDS[grid_name]
    assert_core_matches_written_out_loop(model, grid, bvp_starts(grid, dim, len(model_name), warm))


def damped_starts():
    # one of these pairs takes 19 Armijo-damped steps and then stalls
    rng = np.random.default_rng(9)
    grid = TimeGrid.uniform(0.0, 0.3, 24)
    x, y = rng.uniform(-1.5, 1.5, (9, 2)), rng.uniform(-1.0, 2.0, (9, 2))
    return grid, [Path.line(grid, a, b).nodes.copy() for a, b in zip(x, y)]


def singular_starts():
    # an exactly singular Jacobian (m/dt = k dt/2) stalls at once unless the
    # straight line is already stationary, as it is from 0.5 to -0.5
    grid = TimeGrid.uniform(0.0, 4.0, 2)
    return grid, [Path.line(grid, a, b).nodes.copy() for a, b in [(0.3, -0.2), (0.5, -0.5)]]


def saddle_starts():
    # past the conjugate span pi every stationary path is a saddle
    grid = TimeGrid.uniform(0.0, 1.5 * np.pi, 60)
    return grid, bvp_starts(grid, 1, 3, warm=False)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bvp_core_one_pair_equals_the_written_out_newton_loop_when_damped_or_stalled():
    assert_core_matches_written_out_loop(double_well(), *damped_starts())
    assert_core_matches_written_out_loop(HARMONIC, *singular_starts())


def test_bvp_core_one_pair_equals_the_written_out_newton_loop_on_saddles():
    assert_core_matches_written_out_loop(HARMONIC, *saddle_starts())


def armijo_lengths(model, grid, start):
    """The step lengths of the written-out Newton loop of one start."""
    tol, lengths = integrators._BVP_TOL, []
    scale = float(integrators._residual_scale(model, start[0], start[-1], grid, tol))
    newton_loop(model, start.copy(), grid.spacings, tol, integrators._BVP_MAX_ITER, scale,
                banded_step, lengths)
    return lengths


@pytest.mark.parametrize("batch", ["damped", "damped_and_converged", "stall_and_long"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bvp_core_batch_equals_the_written_out_newton_loop_per_pair(batch):
    # the batch first steps every pair (no pair gathered), then pairs converge
    # or stall at different iterations and the rest go on indexed
    model = double_well()
    grid, starts = damped_starts()
    if batch == "damped_and_converged":
        # constant paths at equilibria of the double well are stationary
        starts = starts + [np.zeros_like(starts[0]), np.tile([0.0, 1.0], (25, 1))]
    elif batch == "stall_and_long":
        # every pair iterates while one backtracks, until the other converges
        starts = starts[2:4]
    lengths = [armijo_lengths(model, grid, start) for start in starts]
    assert any(t == 1.0 for ts in lengths for t in ts)
    assert any(1e-12 <= t < 1.0 for ts in lengths for t in ts)
    assert any(ts and ts[-1] < 1e-12 for ts in lengths)
    assert (batch == "damped_and_converged") == any(not ts for ts in lengths)
    got = integrators._bvp_core(model, grid, np.stack(starts), True)
    for p, start in enumerate(starts):
        nodes, *want = written_out_solve(model, grid, start, banded_step)
        assert np.array_equal(got.nodes[p], nodes)
        fields = (got.costs, got.residuals, got.newton_iterations, got.converged, got.saddle_node)
        assert [a[p] for a in fields] == want


# -- every solve against the sparse LU Newton loop ----------------------------------------
# The banded and the sparse LU order their arithmetic differently, so paths agree
# to rounding: flags must be equal, and on converged pairs the iteration counts,
# with costs and nodes to 1e-12 relative.  A stalled pair may stall one step
# sooner or later.


def assert_converged_close(cost, nodes, want_cost, want_nodes):
    assert abs(cost - want_cost) <= 1e-12 * abs(want_cost)
    assert np.max(np.abs(nodes - want_nodes)) <= 1e-12 * np.max(np.abs(want_nodes))


def assert_solves_match_sparse_loop(model, grid, starts):
    starts = np.stack(starts)
    x, y = starts[:, 0], starts[:, -1]
    init = [Path(grid, nodes) for nodes in starts]
    got = integrators._bvp_core(model, grid, starts.copy(), True)
    for p, start in enumerate(starts):
        nodes, cost, _, iters, ok, node = written_out_solve(model, grid, start, sparse_step)
        single = solve_bvp(model, x[p], y[p], grid, init[p])
        assert (got.converged[p], got.saddle_node[p]) == (ok, node)
        assert (single.converged, single.message.startswith("saddle")) == (ok, node > 0)
        if ok:
            assert got.newton_iterations[p] == single.newton_iterations == iters
            assert_converged_close(got.costs[p], got.nodes[p], cost, nodes)
            assert_converged_close(single.cost, single.path.nodes, cost, nodes)


@pytest.mark.parametrize("warm", [False, True], ids=["line", "warm"])
@pytest.mark.parametrize("grid_name", sorted(CORE_GRIDS))
@pytest.mark.parametrize("model_name", sorted(CORE_MODELS))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bvp_solves_match_the_sparse_newton_loop(model_name, grid_name, warm):
    model, dim = CORE_MODELS[model_name]
    grid = CORE_GRIDS[grid_name]
    assert_solves_match_sparse_loop(model, grid, bvp_starts(grid, dim, len(model_name), warm))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
def test_bvp_solves_match_the_sparse_newton_loop_when_damped_stalled_or_saddle():
    assert_solves_match_sparse_loop(double_well(), *damped_starts())
    assert_solves_match_sparse_loop(HARMONIC, *singular_starts())
    assert_solves_match_sparse_loop(HARMONIC, *saddle_starts())


@pytest.mark.parametrize(
    "model, x, y, grid",
    [
        (inverted_ring_ridge(), [-1.0, 0.0], [1.0, 0.0], TimeGrid.uniform(0, 3.0, 40)),
        # past the conjugate span of the cosine's minimum
        (cosine_potential(amplitude=2.0, dim=2), [0.2, -0.1], [3.0, 2.9], CORE_GRIDS["long"]),
    ],
    ids=["ridge", "cosine"],
)
def test_bvp_restarts_match_the_sparse_newton_loop(model, x, y, grid):
    x, y = np.array(x), np.array(y)
    got = solve_bvp(model, x, y, grid, n_restarts=2)
    # the restarts of solve_bvp written out, with the sparse LU step; the
    # generator draws restart noise and nothing else
    rng = np.random.default_rng(0)
    start = integrators._pair_starts(grid, x[None], y[None])[0]
    bump = np.sin(np.pi * (grid.nodes[1:-1] - grid.start) / grid.span)
    noise = 0.5 * (float(np.max(np.abs(y - x))) + 1.0)
    attempts = []
    for k in range(3):
        nodes = start.copy()
        if k:
            nodes[1:-1] += noise * bump[:, None] * rng.standard_normal(nodes[1:-1].shape)
        attempts.append(written_out_solve(model, grid, nodes, sparse_step))
    converged = [a for a in attempts if a[4]]
    assert got.converged and converged
    clusters = integrators._cluster_paths(
        [Path(grid, a[0]) for a in converged], integrators._CLUSTER_RADIUS
    )
    assert got.multiplicity == len(clusters)
    # the ridge's mirror minimizers tie to rounding, so the winner is the
    # attempt whose path it is, and its cost ties the cheapest to 1e-12
    nodes, cost, _, iters, _, _ = next(
        a for a in converged if np.max(np.abs(got.path.nodes - a[0])) <= 1e-6
    )
    assert got.newton_iterations == iters
    assert_converged_close(got.cost, got.path.nodes, cost, nodes)
    cheapest = min(a[1] for a in converged)
    assert abs(got.cost - cheapest) <= 1e-12 * abs(cheapest)


# -- the retired random minimality screen against the second-variation test -------------
# Minimality used to be screened by 20 random low-mode nodal perturbations of size
# h^2.  A perturbation that lowers the action proves a saddle, so wherever the
# screen finds one the pivot test must find one too.  Where only the pivot test
# does, the action must fall along the negative direction of the failed pivot.

N_PERTURBATIONS = 20


def perturbations(grid, dim, count, rng):
    """Interior-node displacements (l-1, n) of size h^2 for the minimality screen.

    Random amplitudes on low-frequency modes: minimality fails in the lowest
    modes first (conjugate points), which white noise on the nodes would
    almost never probe.  Drawn lazily, so a screen that stops early leaves
    the generator's later draws untaken.
    """
    l = grid.n_intervals
    h2 = grid.max_spacing**2
    phase = np.pi * (grid.nodes[1:-1] - grid.start) / grid.span
    for k in range(count):
        mode = np.sin((k % max(1, min(l - 1, count)) + 1) * phase)
        direction = rng.standard_normal(dim)
        direction /= max(1e-300, float(np.linalg.norm(direction)))
        amp = h2 * rng.uniform(0.5, 1.5)
        yield amp * mode[:, None] * direction[None, :]


def screen_finds_saddle(model, grid, nodes, cost, rng):
    """The minimality screen for one path, written out: True if it is a saddle."""
    slack = 1e-10 * max(1.0, abs(cost))
    for bump in perturbations(grid, nodes.shape[1], N_PERTURBATIONS, rng):
        pert = nodes.copy()
        pert[1:-1] += bump
        if midpoint_action(model, Path(grid, pert)) < cost - slack:
            return True
    return False


def negative_direction(model, grid, nodes, node):
    """Unit-max-norm interior displacement (l-1, n) and its second variation.

    The pivots up to the failed one at ``node`` are recomputed with dense
    solves.  With v the unit eigenvector of that pivot's smallest eigenvalue
    lam, z = v at ``node``, z_k = -D_k^{-1} B_k z_{k+1} before it and 0 after
    it gives z^T H z = v^T D v = lam.
    """
    diag, off = integrators._bvp_blocks(model, nodes, grid.spacings)
    pivots = [diag[0]]
    for k in range(1, node):
        pivots.append(diag[k] - off[k - 1].T @ np.linalg.solve(pivots[-1], off[k - 1]))
    lam, v = np.linalg.eigh(0.5 * (pivots[-1] + pivots[-1].T))
    z = np.zeros((grid.n_intervals - 1, nodes.shape[1]))
    z[node - 1] = v[:, 0]
    for k in range(node - 2, -1, -1):
        z[k] = -np.linalg.solve(pivots[k], off[k] @ z[k + 1])
    size = np.max(np.abs(z))
    return z / size, lam[0] / size**2


def assert_action_falls_along_failed_pivot(model, grid, nodes, cost, node):
    z, curvature = negative_direction(model, grid, nodes, node)
    assert curvature < 0
    assert np.isclose(z.ravel() @ dense_hessian(model, grid, nodes) @ z.ravel(), curvature)
    # a step that the quadratic model says lowers the action by 1e-6 (relative)
    drop = -1e-6 * max(1.0, abs(cost))
    t = np.sqrt(2.0 * drop / curvature)
    moved = nodes.copy()
    moved[1:-1] += t * z
    fell = midpoint_action(model, Path(grid, moved)) - cost
    assert fell == pytest.approx(drop, rel=0.1)


def assert_screen_agrees_with_pivot_test(model, grid, starts):
    """Solve every start; return the result and how many saddles the screen missed."""
    starts = np.stack(starts)
    got = integrators._bvp_core(model, grid, starts, True)
    missed = 0
    for p in np.flatnonzero(got.converged | (got.saddle_node > 0)):
        rng = np.random.default_rng(0)  # the screen's draw in every solve
        screened = screen_finds_saddle(model, grid, got.nodes[p], got.costs[p], rng)
        if screened != (got.saddle_node[p] > 0):
            assert got.saddle_node[p] and not screened
            assert_action_falls_along_failed_pivot(
                model, grid, got.nodes[p], got.costs[p], got.saddle_node[p]
            )
            missed += 1
    return got, missed


@pytest.mark.parametrize("analytic", [True, False], ids=["hessian", "fd"])
@pytest.mark.parametrize("model_name", sorted(MODEL_CATALOG))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pivot_test_agrees_with_the_random_screen_on_catalog_models(model_name, analytic):
    model = MODEL_CATALOG[model_name]()
    if not analytic:
        model = replace(model, hess_potential=None)
    missed = 0
    for dim in (1, 2):
        for grid_name, grid in sorted(CORE_GRIDS.items()):
            starts = bvp_starts(grid, dim, 5, False) + bvp_starts(grid, dim, 6, True)
            missed += assert_screen_agrees_with_pivot_test(model, grid, starts)[1]
    # one 2-D double-well path on the long grid has Hessian eigenvalue -0.53,
    # which no perturbation of the screen probes
    assert missed == (1 if model_name == "double_well" else 0)


def ridge_starts():
    # the straight line is the symmetric saddle between the mirror minimizers,
    # which starts bent to either side reach
    grid = TimeGrid.uniform(0, 3.0, 40)
    line = Path.line(grid, np.array([-1.0, 0.0]), np.array([1.0, 0.0])).nodes
    bump = np.sin(np.pi * (grid.nodes - grid.start) / grid.span)
    return grid, [line + np.outer(side * bump, [0.0, 1.0]) for side in (0.0, 0.8, -0.8)]


def harmonic_span_3_5_starts():
    # past the conjugate span pi, short of 1.5 pi
    grid = TimeGrid.uniform(0, 3.5, 60)
    return grid, bvp_starts(grid, 1, 3, warm=False)


def cosine_span_4_starts():
    # only pairs near the potential's minimum at pi reach a conjugate point
    grid = TimeGrid.uniform(0, 4.0, 40)
    points = (0.1, 3.0, 3.3)
    return grid, [Path.line(grid, a, b).nodes.copy() for a in points for b in points]


SCREEN_CASES = {
    # model, starts and the saddle flags of the pivot test
    "saddle": (HARMONIC, saddle_starts, [True] * 6),
    "harmonic_3.5": (HARMONIC, harmonic_span_3_5_starts, [True] * 6),
    "ridge": (inverted_ring_ridge(), ridge_starts, [True, False, False]),
    "cosine_span_4": (
        cosine_potential(),
        cosine_span_4_starts,
        [False, False, False, False, True, True, False, True, True],
    ),
    "damped": (double_well(), damped_starts, [False] * 9),
    "singular": (HARMONIC, singular_starts, [False, False]),
}


@pytest.mark.parametrize("case", sorted(SCREEN_CASES))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pivot_test_agrees_with_the_random_screen_on_saddles_and_stalls(case):
    model, starts, saddles = SCREEN_CASES[case]
    got, missed = assert_screen_agrees_with_pivot_test(model, *starts())
    assert (got.saddle_node > 0).tolist() == saddles and missed == 0


@pytest.mark.parametrize("l", [10, 40])
def test_pivot_test_at_an_exactly_conjugate_span(l):
    # on l uniform intervals the discrete harmonic oscillator is conjugate at
    # span 2 l tan(pi / 2l): there the Hessian at the rest path is singular,
    # a weak minimum that both tests pass; a shade longer it is a saddle whose
    # pivots fail at the last interior node
    conjugate = 2 * l * np.tan(np.pi / (2 * l))
    rest = np.zeros((1, 1))
    for factor, node in [(1 - 1e-6, 0), (1.0, 0), (1 + 1e-6, l - 1)]:
        grid = TimeGrid.uniform(0.0, conjugate * factor, l)
        got = integrators.solve_bvp_pairs(HARMONIC, rest, rest, grid)
        assert got.saddle_node[0] == node and got.converged[0] == (node == 0)
        nodes = got.nodes[0]
        lowest = np.linalg.eigvalsh(dense_hessian(HARMONIC, grid, nodes))[0]
        if factor == 1.0:
            assert abs(lowest) <= -pivot_floor(HARMONIC, grid, nodes)
        if node:
            assert_action_falls_along_failed_pivot(HARMONIC, grid, nodes, got.costs[0], node)
        else:
            rng = np.random.default_rng(0)
            assert not screen_finds_saddle(HARMONIC, grid, nodes, got.costs[0], rng)


# -- convexity certificate against the pivot test ---------------------------------


SWEEP_MODELS = {
    "free_particle": lambda dim: FREE,
    "harmonic": lambda dim: HARMONIC,
    "stiff_harmonic": lambda dim: harmonic_oscillator(mass=0.5, stiffness=9.0),
    "double_well": lambda dim: double_well(),
    "cosine": lambda dim: cosine_potential(dim=dim),
    "cosine_2": lambda dim: cosine_potential(amplitude=2.0, dim=dim),
    "ridge": lambda dim: inverted_ring_ridge(),
}


def sweep_grids(rng):
    # spans on both sides of the bound's limit, uniform and random spacings
    for span in (0.1, 1.0, 2.5):
        for l in (2, 9, 60):
            yield TimeGrid.uniform(0.0, span, l)
            yield TimeGrid(np.concatenate([[0.0], np.sort(rng.uniform(0, span, l - 1)), [span]]))


def certificate_and_pivot_test(model, grid, nodes):
    dt = grid.spacings
    certified = integrators._convex_pairs(model, integrators._midpoint_hessians(model, nodes), dt)
    return certified, integrators._saddle_nodes(*integrators._bvp_blocks(model, nodes, dt))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_convexity_certificate_certifies_no_pair_the_pivot_test_rejects():
    # stationary paths from straight-line starts and random perturbations of
    # them, with analytic and finite-difference Hessians
    rng = np.random.default_rng(18)
    certified_total = rejected_total = open_passed_total = 0
    for make in SWEEP_MODELS.values():
        for dim in (1, 2, 3):
            analytic = make(dim)
            for model in (analytic, replace(analytic, hess_potential=None)):
                for grid in sweep_grids(rng):
                    x, y = rng.uniform(-1.5, 1.5, (2, 4, dim))
                    starts = integrators._pair_starts(grid, x, y)
                    solved = integrators._bvp_core(model, grid, starts, False).nodes
                    moved = solved.copy()
                    moved[:, 1:-1] += rng.normal(0.0, 0.3, moved[:, 1:-1].shape)
                    nodes = np.concatenate([solved, moved])
                    certified, node = certificate_and_pivot_test(model, grid, nodes)
                    assert not np.any(node[certified])
                    certified_total += np.count_nonzero(certified)
                    rejected_total += np.count_nonzero(node)
                    open_passed_total += np.count_nonzero(~certified & (node == 0))
    # of 6048 pairs the bound certifies about half (3066 on x86-64) and leaves
    # to the pivot test both saddles (798) and pairs that pass it (2184)
    assert certified_total > 2500 and rejected_total > 500 and open_passed_total > 1500


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bvp_core_gives_the_same_results_when_the_certificate_certifies_nothing(monkeypatch):
    cases = [
        (model, grid, np.stack(bvp_starts(grid, dim, seed, seed == 6)))
        for model, dim in CORE_MODELS.values()
        for grid in CORE_GRIDS.values()
        for seed in (5, 6)
    ]
    for model, starts, _ in SCREEN_CASES.values():
        grid, paths = starts()
        cases.append((model, grid, np.stack(paths)))
    fields = ("nodes", "costs", "residuals", "newton_iterations", "converged", "saddle_node")
    with_bound = [integrators._bvp_core(model, grid, s.copy(), True) for model, grid, s in cases]
    certified = sum(
        np.count_nonzero(
            integrators._convex_pairs(model, integrators._midpoint_hessians(model, got.nodes),
                                      grid.spacings) & got.converged
        )
        for (model, grid, _), got in zip(cases, with_bound)
    )
    assert certified > 100
    monkeypatch.setattr(
        integrators, "_convex_pairs", lambda model, hessians, dt: np.zeros(len(hessians), bool)
    )
    for (model, grid, s), want in zip(cases, with_bound):
        got = integrators._bvp_core(model, grid, s.copy(), True)
        for name in fields:
            assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True)
        assert [got.message(p) for p in range(len(s))] == [
            want.message(p) for p in range(len(s))
        ]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_certificate_leaves_saddles_and_conjugate_endpoints_to_the_pivot_test():
    # the 2-D double-well saddle on the long grid, whose Hessian eigenvalue
    # -0.53 no perturbation of the random screen probes
    grid = CORE_GRIDS["long"]
    got = integrators._bvp_core(double_well(), grid, np.stack(bvp_starts(grid, 2, 5, False)), True)
    certified, node = certificate_and_pivot_test(double_well(), grid, got.nodes)
    assert got.saddle_node[1] == node[1] == 11 and not certified[1]
    assert got.message(1) == (
        "saddle-point check failed: the second variation of the action "
        "turns indefinite at interior node 11"
    )
    # the 2-D cosine of amplitude 2 over span 2.5: minima and saddles, none certified
    model, grid = cosine_potential(amplitude=2.0, dim=2), TimeGrid.uniform(0.0, 2.5, 40)
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.5, 0.5, (8, 2)) + np.pi * rng.integers(0, 2, (8, 1))
    y = rng.uniform(-0.5, 0.5, (8, 2)) + np.pi * rng.integers(0, 2, (8, 1))
    got = integrators.solve_bvp_pairs(model, x, y, grid)
    certified, node = certificate_and_pivot_test(model, grid, got.nodes)
    assert not np.any(certified) and np.any(got.saddle_node) and np.any(got.converged)
    assert np.array_equal(got.saddle_node[got.saddle_node > 0], node[got.saddle_node > 0])
    # the weak minimizer at an exactly conjugate span passes the pivot test only
    for l in (10, 40):
        grid = TimeGrid.uniform(0.0, 2 * l * np.tan(np.pi / (2 * l)), l)
        got = integrators.solve_bvp_pairs(HARMONIC, np.zeros((1, 1)), np.zeros((1, 1)), grid)
        certified, node = certificate_and_pivot_test(HARMONIC, grid, got.nodes)
        assert got.converged[0] and node[0] == 0 and not certified[0]
        assert got.message(0) == ""


def test_bvp_core_and_pairs_draw_no_random_numbers():
    # restart noise in solve_bvp is the only draw left in the module
    for solver in (integrators._bvp_core, integrators.solve_bvp_pairs):
        for param in inspect.signature(solver).parameters.values():
            assert "Generator" not in str(param.annotation) and param.name != "rng"
    draws = {
        "Generator", "default_rng", "random", "standard_normal", "normal", "uniform",
        "integers", "choice", "permutation", "shuffle",
    }
    tree = ast.parse(FilePath(integrators.__file__).read_text())
    drawing = set()
    for func in tree.body:
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) and node.attr in draws:
                drawing.add(getattr(func, "name", None))
    assert drawing == {"solve_bvp"}


# -- the banded step against the sparse step ----------------------------------------------

BANDED_MODELS = {
    "free_particle": FREE,
    "harmonic": HARMONIC,
    "double_well": double_well(),
    "cosine": cosine_potential(amplitude=2.0),
    "double_well_fd": replace(double_well(), hess_potential=None),
    "cosine_fd": replace(cosine_potential(), hess_potential=None),
}
BANDED_GRIDS = {name: CORE_GRIDS[name] for name in ("uniform", "nonuniform")}


def banded_steps(model, grid, nodes):
    """One Newton step of every pair (P, l+1, n) by one banded LU."""
    dt = grid.spacings
    return integrators._banded_step(
        model, nodes, dt, -integrators._interior_defects(model, nodes, dt)
    )


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("grid_name", sorted(BANDED_GRIDS))
@pytest.mark.parametrize("model_name", sorted(BANDED_MODELS))
def test_banded_step_matches_the_sparse_step(model_name, grid_name, dim):
    model, grid = BANDED_MODELS[model_name], BANDED_GRIDS[grid_name]
    rng = np.random.default_rng(10 * dim + len(model_name))
    x, y = rng.uniform(-1.2, 1.2, (6, dim)), rng.uniform(-0.8, 1.5, (6, dim))
    nodes = integrators._pair_starts(grid, x, y)
    nodes[:, 1:-1] += rng.uniform(-0.3, 0.3, nodes[:, 1:-1].shape)
    banded = banded_steps(model, grid, nodes)
    for p, pair in enumerate(nodes):
        rhs = -integrators._interior_defects(model, pair, grid.spacings)
        sparse = sparse_step(model, pair, grid.spacings, rhs)
        assert np.max(np.abs(banded[p] - sparse)) <= 1e-12 * np.max(np.abs(sparse))


def assert_broken_pairs_isolated(model, grid, nodes, broken):
    steps = banded_steps(model, grid, nodes)
    assert np.isnan(steps[broken]).all()
    for p in sorted(set(range(nodes.shape[0])) - set(broken)):
        alone = banded_steps(model, grid, nodes[p : p + 1])
        assert np.isfinite(steps[p]).all() and np.array_equal(steps[p], alone[0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_banded_step_isolates_singular_and_non_finite_pairs():
    # harmonic at dt = 2 (m/dt = k dt/2) makes every pair of a batch singular, so
    # the singular pair comes from the 2-D double well: at mid = (1, 0.5) and
    # dt = 2 its Jacobian I - Hess V = [[-8, -4], [-4, -2]] is exactly singular
    rng = np.random.default_rng(5)
    nodes = rng.uniform(-0.4, 0.4, (5, 3, 2))
    nodes[1] = [1.0, 0.5]
    nodes[3, 1, 0] = np.inf
    assert_broken_pairs_isolated(double_well(), TimeGrid.uniform(0.0, 4.0, 2), nodes, [1, 3])
    # a non-finite node between pairs of a longer grid
    grid = TimeGrid.uniform(0.0, 0.6, 24)
    x, y = rng.uniform(-1, 1, (4, 2)), rng.uniform(-1, 1, (4, 2))
    nodes = integrators._pair_starts(grid, x, y)
    nodes[2, 7, 1] = np.inf
    assert_broken_pairs_isolated(double_well(), grid, nodes, [2])


# -- the band the banded step factors against the band filled from the blocks -------------


def block_loop_band(diag, off, bad):
    """LAPACK band of P stacked systems filled from their blocks (P, K, n, n) and
    (P, K-1, n, n) by the slice loop, one slice per block entry and slot; the
    pairs ``bad`` hold identity systems."""
    P, K, n = diag.shape[:3]
    w = 2 * n - 1
    band = np.zeros((P, K, n, 3 * w + 1))
    for a in range(n):
        for b in range(n):
            band[:, :, b, 2 * w + a - b] = diag[:, :, a, b]
            band[:, 1:, b, 2 * w + a - b - n] = off[:, :, a, b]  # block (k, k+1)
            band[:, :-1, b, 2 * w + a - b + n] = off[:, :, a, b]  # block (k+1, k)
    band[bad] = 0.0
    band[bad, :, :, 2 * w] = 1.0
    return band.reshape(P * K * n, 3 * w + 1).T


def factored_bands(monkeypatch, model, nodes, dt):
    """One Newton step of the pairs (P, l+1, n), with the band and right-hand
    side of every dgbsv call as passed to it."""
    calls = []

    def recording_dgbsv(kl, ku, ab, b, overwrite_ab=False):
        calls.append((ab.copy(), b.copy()))
        return _native.dgbsv(kl, ku, ab, b, overwrite_ab=overwrite_ab)

    monkeypatch.setattr(integrators, "dgbsv", recording_dgbsv)
    rhs = -integrators._interior_defects(model, nodes, dt)
    return integrators._banded_step(model, nodes, dt, rhs), rhs, calls


def assert_bands_equal_the_block_loop(monkeypatch, model, nodes, dt, broken):
    """Every band and right-hand side dgbsv gets, bitwise, and the step; the
    pairs broken[i] turn bad before the i-th call."""
    step, rhs, calls = factored_bands(monkeypatch, model, nodes, dt)
    diag, off = integrators._bvp_blocks(model, nodes, dt)
    bad = np.zeros(nodes.shape[0], dtype=bool)
    assert len(calls) == len(broken)
    for (ab, b), newly_bad in zip(calls, broken):
        bad[newly_bad] = True
        want_rhs = rhs.copy()
        want_rhs[bad] = 0.0
        assert np.array_equal(ab, block_loop_band(diag, off, bad))
        assert np.array_equal(b, want_rhs.reshape(-1, 1))
    w = 2 * nodes.shape[-1] - 1
    _, _, want, _ = _native.dgbsv(w, w, ab.copy(), b)
    want = want.reshape(rhs.shape)
    want[bad] = np.nan
    assert np.array_equal(step, want, equal_nan=True)


def coupled_model():
    """A custom potential coupling every coordinate, with no analytic Hessian."""
    return LagrangianModel(
        mass=1.5,
        potential=lambda x: np.sin(np.sum(x, axis=-1)) + 0.5 * np.sum(x * x, axis=-1),
        grad_potential=lambda x: np.cos(np.sum(x, axis=-1))[..., None] + x,
        quadratic_growth=2.0,
    )


BAND_MODELS = {
    **{name: factory for name, factory in MODEL_CATALOG.items() if name != "cosine"},
    "cosine": lambda dim: cosine_potential(amplitude=2.0, dim=dim),
    "custom_fd": coupled_model,
}
BAND_GRIDS = {
    "uniform": TimeGrid.uniform(0.0, 0.6, 12),
    "random": TimeGrid(np.sort(np.random.default_rng(4).uniform(0.0, 0.6, 13))),
}


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("grid_name", sorted(BAND_GRIDS))
@pytest.mark.parametrize("model_name", sorted(BAND_MODELS))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_banded_step_factors_the_band_filled_from_the_blocks(
    model_name, grid_name, dim, monkeypatch
):
    factory, grid = BAND_MODELS[model_name], BAND_GRIDS[grid_name]
    model = factory(dim=dim) if model_name == "cosine" else factory()
    rng = np.random.default_rng(dim + len(model_name))
    x, y = rng.uniform(-1.2, 1.2, (5, dim)), rng.uniform(-0.8, 1.5, (5, dim))
    nodes = integrators._pair_starts(grid, x, y)
    nodes[:, 1:-1] += rng.uniform(-0.3, 0.3, nodes[:, 1:-1].shape)
    nodes[3, 4, dim - 1] = np.nan  # a non-finite block or right-hand side
    assert_bands_equal_the_block_loop(monkeypatch, model, nodes, grid.spacings, [[3]])


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("model_name", sorted(BAND_MODELS))
def test_bvp_blocks_entry_by_entry_equal_the_broadcast_formulas(model_name, dim):
    factory, grid = BAND_MODELS[model_name], BAND_GRIDS["random"]
    model = factory(dim=dim) if model_name == "cosine" else factory()
    rng = np.random.default_rng(dim)
    nodes = rng.uniform(-1.5, 1.5, (3, grid.n_intervals + 1, dim))
    dt, m = grid.spacings, model.mass
    hess = 0.25 * dt[:, None, None] * integrators._midpoint_hessians(model, nodes)
    eye = np.eye(dim)
    kinetic = (m / dt[:-1] + m / dt[1:])[:, None, None] * eye
    diag = kinetic - hess[..., :-1, :, :] - hess[..., 1:, :, :]
    off = -(m / dt[1:-1])[:, None, None] * eye - hess[..., 1:-1, :, :]
    for got, want in zip(integrators._bvp_blocks(model, nodes, dt), (diag, off)):
        assert np.array_equal(got, want)
    for got, want in zip(integrators._bvp_blocks(model, nodes[0], dt), (diag[0], off[0])):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_banded_step_refills_the_band_after_a_singular_pair(dim, monkeypatch):
    # at dt = 2 the cosine's path through pi has the Jacobian of every
    # coordinate tridiagonal with zero diagonal, singular with five interior nodes
    grid = TimeGrid.uniform(0.0, 12.0, 6)
    rng = np.random.default_rng(dim)
    x, y = rng.uniform(-1, 1, (4, dim)), rng.uniform(-1, 1, (4, dim))
    nodes = integrators._pair_starts(grid, x, y)
    nodes[2] = np.pi
    nodes[0, 2] = np.nan
    # near pi the LU of pair 1 pivots, so the first solve leaves fill-in in
    # its band that the second fill must clear
    nodes[1] = np.pi + rng.uniform(-0.2, 0.2, nodes[1].shape)
    assert_bands_equal_the_block_loop(
        monkeypatch, cosine_potential(dim=dim), nodes, grid.spacings, [[0], [2]]
    )


# -- P pairs in one batch against one solve_bvp per pair -------------------------


def assert_pairs_match_solve_bvp(model, x, y, grid, check_minimum=True):
    got = integrators.solve_bvp_pairs(model, x, y, grid, check_minimum)
    return assert_batch_matches_solve_bvp(got, model, x, y, grid, None, check_minimum)


def assert_batch_matches_solve_bvp(got, model, x, y, grid, init, check_minimum):
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
    "single_interval_1d": (HARMONIC, 1, TimeGrid.uniform(0.0, 1.0, 1)),
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
    # warm starts on another grid fed to the Newton core, as one level of the
    # stationarity study feeds them
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
    starts = np.stack([path.evaluate(grid.nodes) for path in warm])
    starts[:, 0], starts[:, -1] = x, y
    got = integrators._bvp_core(model, grid, starts, False)
    assert_batch_matches_solve_bvp(got, model, x, y, grid, warm, False)
    assert np.all(got.converged)
    if grid.n_intervals > 1:
        assert np.any(got.newton_iterations > 0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bvp_pairs_failures_equal_solve_bvp_per_pair():
    # past the conjugate span of the cosine's minimum at pi: minimizers near 0,
    # a saddle and stalled pairs in one batch
    model, grid = cosine_potential(amplitude=2.0, dim=2), TimeGrid.uniform(0.0, 2.5, 40)
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.5, 0.5, (8, 2)) + np.pi * rng.integers(0, 2, (8, 1))
    y = rng.uniform(-0.5, 0.5, (8, 2)) + np.pi * rng.integers(0, 2, (8, 1))
    got = assert_pairs_match_solve_bvp(model, x, y, grid)
    assert np.any(got.saddle_node) and np.any(got.converged)
    assert np.any(~got.converged & (got.saddle_node == 0))
    # an exactly singular Jacobian (m/dt = k dt/2) stalls at once unless the
    # straight line is already stationary, as it is from 0.5 to -0.5
    x, y = np.array([[0.3], [0.5]]), np.array([[-0.2], [-0.5]])
    got = assert_pairs_match_solve_bvp(HARMONIC, x, y, TimeGrid.uniform(0.0, 4.0, 2))
    assert list(got.converged) == [False, True]
    # Armijo-damped pairs far up the quartic, one of which stalls
    grid, starts = damped_starts()
    x, y = np.array([s[0] for s in starts]), np.array([s[-1] for s in starts])
    got = assert_pairs_match_solve_bvp(double_well(), x, y, grid)
    assert not got.converged.all()


@pytest.mark.parametrize("max_iter", [50, 2])
@pytest.mark.parametrize("grid_name", sorted(CORE_GRIDS))
@pytest.mark.parametrize("model_name", sorted(CORE_MODELS))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bvp_pairs_equal_solve_bvp_per_pair_on_core_cases(
    model_name, grid_name, max_iter, monkeypatch
):
    # max_iter=2 stops nonlinear pairs early: per-pair masks and flags must agree
    monkeypatch.setattr(integrators, "_BVP_MAX_ITER", max_iter)
    model, dim = CORE_MODELS[model_name]
    rng = np.random.default_rng(7 + dim)
    x, y = rng.uniform(-1.2, 1.2, (9, dim)), rng.uniform(-0.8, 1.5, (9, dim))
    assert_pairs_match_solve_bvp(model, x, y, CORE_GRIDS[grid_name])


def test_bvp_pairs_rejects_mismatched_inputs():
    grid = TimeGrid.uniform(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="same shape"):
        integrators.solve_bvp_pairs(FREE, np.zeros((2, 1)), np.zeros((3, 1)), grid)


def test_bvp_rejects_a_warm_start_that_does_not_cover_the_grid():
    grid = TimeGrid.uniform(0.0, 1.0, 4)
    for span in ((0.0, 0.9), (0.1, 1.0)):
        warm = Path.line(TimeGrid.uniform(*span, 4), 0.0, 1.0)
        with pytest.raises(ValueError, match="outside the path's span"):
            solve_bvp(FREE, 0.0, 1.0, grid, init=warm)
