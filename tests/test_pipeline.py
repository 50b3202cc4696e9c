import math
import tracemalloc

import numpy as np
import pytest

from otmesh import (
    EmpiricalPathMeasure,
    HorizonError,
    MarginalSpec,
    Path,
    PointCloud,
    SolverError,
    TimeGrid,
    bl_distance_bound,
    brute_force_assignment,
    build_recovery_measure,
    cosine_potential,
    double_well,
    free_particle,
    harmonic_oscillator,
    many_particle_action,
    marginal_at_time,
    midpoint_action,
    run_convergence_study,
    run_stationarity_study,
    sample_marginal,
    solve_bvp,
    solve_discrete_otm,
)
from otmesh import pipeline, transport
from otmesh.integrators import solve_bvp_pairs
from otmesh.transport import cost_matrix, solve_assignment

FREE = free_particle()

UNIT_A = MarginalSpec("uniform_box", low=0.0, high=1.0, sampler="quantile")
UNIT_B = MarginalSpec("uniform_box", low=2.0, high=3.0, sampler="quantile")


# -- marginal sampling -----------------------------------------------------------


def test_quantile_sampling_values():
    assert sample_marginal(UNIT_A, 4).points[:, 0] == pytest.approx(
        [0.125, 0.375, 0.625, 0.875]
    )
    assert sample_marginal(UNIT_A, 2).points[:, 0] == pytest.approx([0.25, 0.75])


def test_sampling_is_deterministic_per_seed():
    spec = MarginalSpec("uniform_box", low=[0.0, 0.0], high=[1.0, 2.0], sampler="iid", seed=9)
    first = sample_marginal(spec, 50).points
    second = sample_marginal(spec, 50).points
    assert np.array_equal(first, second)
    other = MarginalSpec(
        "uniform_box", low=[0.0, 0.0], high=[1.0, 2.0], sampler="iid", seed=10
    )
    assert not np.array_equal(first, sample_marginal(other, 50).points)


def test_grid_sampler_partitions_box():
    spec = MarginalSpec("uniform_box", low=[0.0, 0.0], high=[1.0, 1.0], sampler="grid")
    cloud = sample_marginal(spec, 8)
    assert cloud.size == 8 and cloud.dim == 2
    assert np.all(cloud.points > 0.0) and np.all(cloud.points < 1.0)
    # 1-D grid sampling coincides with quantiles
    spec1 = MarginalSpec("uniform_box", low=0.0, high=1.0, sampler="grid")
    assert sample_marginal(spec1, 4).points[:, 0] == pytest.approx(
        [0.125, 0.375, 0.625, 0.875]
    )


def test_gaussian_sampling_stays_in_support():
    spec = MarginalSpec("gaussian", mean=[1.0], cov=4.0, radius=3.0, sampler="iid", seed=3)
    cloud = sample_marginal(spec, 200)
    assert np.all(np.abs(cloud.points - 1.0) <= 3.0)
    quant = MarginalSpec("gaussian", mean=[1.0], cov=4.0, radius=3.0, sampler="quantile")
    pts = sample_marginal(quant, 9).points[:, 0]
    assert np.all(np.diff(pts) > 0)
    assert pts[4] == pytest.approx(1.0)  # median of the symmetric truncation


@pytest.mark.parametrize("sampler", ["quantile", "grid"])
def test_gaussian_grid_samplers_equal_the_truncated_normal_quantiles_bitwise(sampler):
    # scipy.stats is imported inside the sampler; the points must not change
    from scipy.stats import truncnorm

    spec = MarginalSpec("gaussian", mean=[1.0], cov=4.0, radius=3.0, sampler=sampler)
    mid_quantiles = (np.arange(17) + 0.5) / 17
    want = truncnorm.ppf(mid_quantiles, -1.5, 1.5, loc=1.0, scale=2.0)
    assert np.array_equal(sample_marginal(spec, 17).points[:, 0], want)


def test_custom_points_and_validation_errors():
    spec = MarginalSpec("custom_points", points=[[0.0, 1.0], [2.0, 3.0]])
    assert sample_marginal(spec, 2).size == 2
    with pytest.raises(ValueError):
        sample_marginal(spec, 3)
    with pytest.raises(ValueError):
        MarginalSpec("uniform_box", low=[0.0, 0.0], high=[1.0, 1.0], sampler="quantile")
    with pytest.raises(ValueError):
        MarginalSpec("gaussian", mean=[0.0], cov=1.0, sampler="iid")  # no radius
    with pytest.raises(ValueError, match="only supported in dimension 1"):
        MarginalSpec("gaussian", mean=[0.0, 0.0], radius=1.0, sampler="grid")
    with pytest.raises(ValueError):
        MarginalSpec("uniform_box", low=1.0, high=0.0)


def test_custom_points_read_a_number_or_a_flat_list_as_1d_points():
    # as PointCloud reads them: three 1-D points, not one 3-D point
    flat = MarginalSpec("custom_points", points=[0.0, 0.5, 1.0])
    assert flat.points.shape == (3, 1) and flat.dim == 1
    assert np.array_equal(sample_marginal(flat, 3).points, PointCloud([0.0, 0.5, 1.0]).points)
    assert MarginalSpec("custom_points", points=2.5).points.shape == (1, 1)
    for points in ([], [[]], [[[0.1]], [[0.2]]], [0.0, math.nan]):
        with pytest.raises(ValueError, match="custom_points 'points' must be"):
            MarginalSpec("custom_points", points=points)


@pytest.mark.parametrize("sampler", ["quantile", "grid", "iid"])
def test_a_box_whose_width_overflows_is_rejected(sampler):
    # each sampler scales by high - low, which is inf here
    with pytest.raises(ValueError, match="finite width"):
        MarginalSpec("uniform_box", low=-1e308, high=1e308, sampler=sampler)


# -- one transport solve ------------------------------------------------------------


def test_otm_single_pair():
    result = solve_discrete_otm(
        FREE, PointCloud([0.0]), PointCloud([2.0]), TimeGrid.uniform(0, 1, 8)
    )
    assert result.min_action == pytest.approx(2.0, abs=1e-12)
    assert result.measure.size == 1
    path = result.measure.paths[0]
    velocities = np.diff(path.nodes, axis=0) / path.grid.spacings[:, None]
    assert np.max(np.abs(velocities - 2.0)) <= 1e-9


@pytest.mark.parametrize("N", [1, 4, 16])
def test_otm_uniform_shift_costs_two(N):
    grid = TimeGrid.uniform(0, 1, 8)
    result = solve_discrete_otm(
        FREE, sample_marginal(UNIT_A, N), sample_marginal(UNIT_B, N), grid
    )
    assert result.min_action == pytest.approx(2.0, abs=1e-10)


def test_otm_swap_symmetry_free_particle():
    grid = TimeGrid.uniform(0, 1, 6)
    rng = np.random.default_rng(12)
    src = PointCloud(rng.uniform(-1, 1, (5, 1)))
    tgt = PointCloud(rng.uniform(1, 2, (5, 1)))
    forward = solve_discrete_otm(FREE, src, tgt, grid)
    backward = solve_discrete_otm(FREE, tgt, src, grid)
    assert forward.min_action == pytest.approx(backward.min_action, rel=1e-12)


def test_otm_marginals_exact_bitwise():
    grid = TimeGrid.uniform(0, 1, 5)
    rng = np.random.default_rng(8)
    src = PointCloud(rng.uniform(-1, 1, (6, 2)))
    tgt = PointCloud(rng.uniform(2, 3, (6, 2)))
    result = solve_discrete_otm(FREE, src, tgt, grid)
    start = marginal_at_time(result.measure, 0.0).points
    end = marginal_at_time(result.measure, 1.0).points
    assert np.array_equal(start, src.points)
    assert np.array_equal(end, tgt.points[result.plan.perm])


def test_otm_min_action_invariant_under_relabeling():
    grid = TimeGrid.uniform(0, 0.2, 5)
    model = harmonic_oscillator()
    rng = np.random.default_rng(14)
    src = rng.uniform(-1, 1, (6, 1))
    tgt = rng.uniform(-1, 1, (6, 1))
    base = solve_discrete_otm(model, PointCloud(src), PointCloud(tgt), grid)
    shuffled = solve_discrete_otm(
        model,
        PointCloud(src[rng.permutation(6)]),
        PointCloud(tgt[rng.permutation(6)]),
        grid,
    )
    assert shuffled.min_action == pytest.approx(base.min_action, abs=1e-12)


def test_otm_horizon_guard():
    model = harmonic_oscillator(stiffness=2.0)  # growth constant exactly 1
    clouds = PointCloud([0.0, 0.5])
    with pytest.raises(HorizonError):
        solve_discrete_otm(model, clouds, clouds, TimeGrid.uniform(0, 0.2, 8))
    # within the bound, and beyond it with the explicit override
    solve_discrete_otm(model, clouds, clouds, TimeGrid.uniform(0, 0.17, 8))
    solve_discrete_otm(
        model, clouds, clouds, TimeGrid.uniform(0, 0.2, 8), allow_long_horizon=True
    )


def connect_pair_by_pair(model, source, target, grid, cost_kind):
    """The connect step with one solve_bvp per matched pair, written out."""
    plan = solve_assignment(cost_matrix(model, source, target, grid, cost_kind))
    results = [
        solve_bvp(model, source.points[i], target.points[plan.perm[i]], grid)
        for i in range(source.size)
    ]
    return plan, results



def held_matrix_otm(model, source, target, grid):
    """solve_discrete_otm of 1-D clouds under closed-form costs as the held
    cost matrix gives it: cost_matrix, then the monotone plan of the held
    matrix or else solve_assignment, then the connect."""
    costs = cost_matrix(model, source, target, grid, "closed_form")
    x, y = source.points[:, 0], target.points[:, 0]
    plan = transport._monotone_plan(x, y, transport._held(costs)) or solve_assignment(costs)
    pairs = solve_bvp_pairs(model, source.points, target.points[plan.perm], grid)
    return plan, pairs.nodes, float(np.mean(pairs.costs))


def study_clouds(N, rng, ties):
    """Shuffled 1-D clouds; with ties, repeated half-integers in [-2, 2],
    -0.0 among them."""
    if not ties:
        return PointCloud(rng.uniform(-1.0, 1.0, N)), PointCloud(rng.uniform(-0.5, 2.5, N))
    source, target = (rng.integers(-4, 5, N) * 0.5 for _ in range(2))
    source[source == 0] = source[0] = source[-1] = -0.0
    return PointCloud(source), PointCloud(target)


@pytest.mark.parametrize("N", [1, 2, 3, 60])
@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize(
    "model, span",
    [
        (FREE, 0.75),
        (harmonic_oscillator(), 1.0),
        # omega T = 2.47: cos < 0 < sin, so the costs are still Monge
        (harmonic_oscillator(mass=0.7, stiffness=1.9), 1.5),
    ],
)
def test_otm_of_1d_closed_form_costs_is_the_held_matrix_route_bitwise(model, span, ties, N):
    source, target = study_clouds(N, np.random.default_rng(N), ties)
    grid = TimeGrid.uniform(0.0, span, 4)
    result = solve_discrete_otm(model, source, target, grid, allow_long_horizon=True)
    plan, nodes, min_action = held_matrix_otm(model, source, target, grid)
    assert result.plan.perm.tobytes() == plan.perm.tobytes()
    assert result.plan.total_cost.hex() == plan.total_cost.hex()
    assert result.min_action.hex() == min_action.hex()
    assert np.stack([path.nodes for path in result.measure.paths]).tobytes() == nodes.tobytes()


def test_anti_monge_transport_takes_the_assignment_solve_of_the_matrix(monkeypatch):
    # omega T = 4 is past pi, where sin < 0 turns the 1-D costs anti-Monge
    model, grid = harmonic_oscillator(stiffness=4.0), TimeGrid.uniform(0.0, 2.0, 1)
    rng = np.random.default_rng(5)
    source, target = PointCloud(rng.uniform(-1.0, 1.0, 9)), PointCloud(rng.uniform(0.0, 2.0, 9))
    held = cost_matrix(model, source, target, grid, "closed_form")
    want = solve_assignment(held)
    solves, lap = [], transport.linear_sum_assignment
    monkeypatch.setattr(transport, "linear_sum_assignment", lambda M: solves.append(1) or lap(M))
    plan, costs = transport.solve_transport(model, source, target, grid, "closed_form")
    assert solves == [1]
    assert costs.tobytes() == held.tobytes()
    assert plan.perm.tobytes() == want.perm.tobytes()
    assert plan.total_cost.hex() == want.total_cost.hex()
    assert plan.total_cost == pytest.approx(brute_force_assignment(costs).total_cost, abs=1e-12)


@pytest.mark.parametrize("far", [1e200, -1e300, 1e160])
def test_study_level_whose_closed_form_costs_overflow_keeps_its_error_row(far):
    points = [[0.0], [0.1], [far], [0.3]]
    source = MarginalSpec("custom_points", points=points)
    target = MarginalSpec("custom_points", points=[[1.0], [1.1], [1.2], [1.3]])
    grid = TimeGrid.uniform(0.0, 1.0, 10)
    with np.errstate(all="ignore"):
        with pytest.raises(SolverError) as expected:
            cost_matrix(FREE, PointCloud(points), sample_marginal(target, 4), grid, "closed_form")
        report = run_convergence_study(FREE, source, target, [4], [0.1], (0.0, 1.0))
    (row,) = report.rows
    assert (row.status, row.error) == ("error", str(expected.value))


def test_otm_of_1d_closed_form_costs_holds_no_n_by_n_matrix():
    N = 1024
    rng = np.random.default_rng(0)
    source = PointCloud(rng.uniform(0.0, 1.0, N))
    target = PointCloud(rng.uniform(2.0, 3.0, N))
    grid = TimeGrid.uniform(0.0, 1.0, 1)
    tracemalloc.start()
    try:
        result = solve_discrete_otm(FREE, source, target, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < N * N * 8  # one N x N matrix of doubles, 8 MiB
    held = cost_matrix(FREE, source, target, grid, "closed_form")
    assert np.array_equal(result.plan.perm, solve_assignment(held).perm)

# each case lies within its model's admissible horizon
CONNECT_CASES = {
    "free_particle": (FREE, 1, TimeGrid.uniform(0.0, 1.0, 10), "closed_form"),
    "harmonic": (harmonic_oscillator(), 2, TimeGrid.uniform(0.0, 0.2, 8), "closed_form"),
    "cosine_2d": (
        cosine_potential(amplitude=2.0, dim=2), 2, TimeGrid.uniform(0.0, 1.0, 12), "bvp"
    ),
    "double_well": (double_well(), 2, TimeGrid.uniform(0.0, 0.06, 6), "bvp"),
}


@pytest.mark.parametrize("case", sorted(CONNECT_CASES))
def test_otm_connect_equals_solve_bvp_per_matched_pair_bitwise(case):
    model, dim, grid, cost_kind = CONNECT_CASES[case]
    rng = np.random.default_rng(len(case))
    source = PointCloud(rng.uniform(-1.5, 1.5, (6, dim)))
    target = PointCloud(rng.uniform(-1.0, 2.0, (6, dim)))
    result = solve_discrete_otm(model, source, target, grid, cost_kind)
    plan, want = connect_pair_by_pair(model, source, target, grid, cost_kind)
    assert np.array_equal(result.plan.perm, plan.perm)
    for path, single in zip(result.measure.paths, want):
        assert np.array_equal(path.nodes, single.path.nodes)
    assert result.min_action == float(np.mean([single.cost for single in want]))


@pytest.mark.parametrize("case", sorted(CONNECT_CASES))
def test_otm_connect_tests_minimality_only_without_bvp_costs(case, monkeypatch):
    # a BVP cost matrix already tested every pair, so its connect runs neither
    # the convexity certificate nor the pivot test; closed-form costs keep both
    from otmesh import integrators

    model, dim, grid, cost_kind = CONNECT_CASES[case]
    rng = np.random.default_rng(len(case))
    source = PointCloud(rng.uniform(-1.5, 1.5, (6, dim)))
    target = PointCloud(rng.uniform(-1.0, 2.0, (6, dim)))
    calls, reference, connecting = [], [], []

    def spy(name):
        real = getattr(integrators, name)

        def wrapped(*args):
            calls.append((name, bool(connecting)))
            return real(*args)

        monkeypatch.setattr(integrators, name, wrapped)

    def connect_spy(model, x, y, grid, check_minimum=True):
        # the connect as it was, with the minimality test, for reference
        reference.append(integrators.solve_bvp_pairs(model, x, y, grid, True))
        connecting.append(True)
        return integrators.solve_bvp_pairs(model, x, y, grid, check_minimum)

    spy("_convex_pairs")
    spy("_saddle_nodes")
    monkeypatch.setattr(pipeline, "solve_bvp_pairs", connect_spy)
    result = solve_discrete_otm(model, source, target, grid, cost_kind)
    in_connect = [name for name, during in calls if during]
    if cost_kind == "bvp":
        assert in_connect == [] and ("_convex_pairs", False) in calls
    else:
        assert "_convex_pairs" in in_connect
    (want,) = reference
    assert np.all(want.converged)
    assert np.array_equal(result.measure._nodes[0], want.nodes)
    assert result.min_action == float(np.mean(want.costs))


@pytest.mark.parametrize(
    "grid, source, target, failing, reason",
    [
        # past the conjugate span pi every stationary path is a saddle
        (TimeGrid.uniform(0.0, 1.5 * np.pi, 30), [0.3, 0.5, -0.9], [-0.5, 0.1, 0.7], (0, 1),
         "saddle-point check failed"),
        # m/dt = k dt/2 makes the Jacobian exactly singular: only the pair
        # (0.5, -0.5), whose straight line is stationary, converges
        (TimeGrid.uniform(0.0, 4.0, 2), [0.5, 0.2, -0.1], [0.1, -0.5, 0.7], (1, 0),
         "Newton did not reach the residual tolerance"),
    ],
    ids=["saddle", "stalled"],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_otm_connect_failure_names_the_first_failing_matched_pair(
    grid, source, target, failing, reason
):
    model, source, target = harmonic_oscillator(), PointCloud(source), PointCloud(target)
    plan, want = connect_pair_by_pair(model, source, target, grid, "closed_form")
    i = next(i for i, single in enumerate(want) if not single.converged)
    assert (i, plan.perm[i]) == failing
    assert want[i].message.startswith(reason)
    with pytest.raises(SolverError) as err:
        solve_discrete_otm(model, source, target, grid, allow_long_horizon=True)
    assert str(err.value) == (
        f"boundary-value solve failed for matched pair ({i}, {plan.perm[i]}): "
        f"{want[i].message}"
    )


def test_otm_refinement_stays_within_quadrature_bound():
    # successive minima differ at most by the summed midpoint quadrature gaps
    model = harmonic_oscillator()
    grid_coarse = TimeGrid.from_step(0, 0.2, 0.02)
    grid_fine = TimeGrid.from_step(0, 0.2, 0.01)
    src = sample_marginal(MarginalSpec("uniform_box", low=0.0, high=1.0), 8)
    tgt = sample_marginal(MarginalSpec("uniform_box", low=0.5, high=1.5), 8)
    coarse = solve_discrete_otm(model, src, tgt, grid_coarse, cost_kind="bvp")
    fine = solve_discrete_otm(model, src, tgt, grid_fine, cost_kind="bvp")

    def quadrature_gap(result, h):
        # sup |Hess V| = k = 1 for the unit harmonic oscillator
        gaps = [h**2 * 1.0 * p.velocity_sq_integral() for p in result.measure.paths]
        return float(np.mean(gaps))

    bound = quadrature_gap(coarse, grid_coarse.max_spacing) + quadrature_gap(
        fine, grid_fine.max_spacing
    )
    assert abs(coarse.min_action - fine.min_action) <= bound


# -- recovery construction --------------------------------------------------------------


def template_measure():
    grid = TimeGrid.uniform(0.0, 1.0, 4)
    return EmpiricalPathMeasure(
        (
            Path.line(grid, 0.0, 1.0),
            Path.line(grid, 2.0, 1.5),
            Path(grid, np.array([[4.0], [4.5], [4.2], [4.8], [5.0]])),
        )
    )


def test_recovery_spliced_line_action_closed_form():
    grid = TimeGrid.uniform(0.0, 1.0, 1)
    templates = EmpiricalPathMeasure((Path.line(grid, 0.0, 1.0),))
    out = build_recovery_measure(
        templates, PointCloud([0.1]), PointCloud([0.9]), eps=0.1
    )
    spliced = out.paths[0]
    # three affine pieces: 0.1 -> 0 over eps, 0 -> 1 over 1-2eps, 1 -> 0.9 over eps
    expected = 0.05 + 0.625 + 0.05
    assert midpoint_action(FREE, spliced) == pytest.approx(expected, rel=1e-12)
    assert spliced.evaluate(0.0) == pytest.approx([0.1])
    assert spliced.evaluate(1.0) == pytest.approx([0.9])


def test_recovery_with_matching_marginals_adds_only_the_squeeze():
    templates = template_measure()
    sources = PointCloud(np.stack([p.start_point for p in templates.paths]))
    targets = PointCloud(np.stack([p.end_point for p in templates.paths]))
    base = many_particle_action(FREE, list(templates.paths), scheme="continuous")
    increases = []
    for eps in (0.1, 0.01, 0.001):
        out = build_recovery_measure(templates, sources, targets, eps)
        action = many_particle_action(FREE, list(out.paths), scheme="continuous")
        # zero-length splices: the only change is the time squeeze of the core
        assert action == pytest.approx(base / (1.0 - 2.0 * eps), rel=1e-12)
        increases.append(action - base)
    assert increases[0] > increases[1] > increases[2]


def test_recovery_output_close_to_templates_in_bl():
    templates = template_measure()
    sources = PointCloud(np.stack([p.start_point for p in templates.paths]))
    targets = PointCloud(np.stack([p.end_point for p in templates.paths]))
    rate = None
    for eps in (0.1, 0.05, 0.025):
        out = build_recovery_measure(templates, sources, targets, eps)
        dist = bl_distance_bound(out, templates)
        if rate is None:
            rate = dist / eps
        assert dist <= 1.5 * rate * eps + 1e-12


def test_recovery_marginals_exact_for_random_instances():
    rng = np.random.default_rng(0)
    grid = TimeGrid.uniform(0.0, 1.0, 3)
    for trial in range(50):
        n_templates = int(rng.integers(1, 4))
        templates = EmpiricalPathMeasure(
            tuple(Path(grid, rng.uniform(-2, 2, (4, 2))) for _ in range(n_templates))
        )
        N = int(rng.integers(1, 6))
        src = PointCloud(rng.uniform(-2, 2, (N, 2)))
        tgt = PointCloud(rng.uniform(-2, 2, (N, 2)))
        out = build_recovery_measure(templates, src, tgt, eps=0.2)
        start = marginal_at_time(out, 0.0).points
        end = marginal_at_time(out, 1.0).points
        assert np.array_equal(start, src.points)
        assert np.array_equal(np.sort(end, axis=0), np.sort(tgt.points, axis=0))


def test_recovery_eps_validation():
    templates = template_measure()
    clouds = PointCloud([[0.0], [1.0], [2.0]])
    with pytest.raises(ValueError):
        build_recovery_measure(templates, clouds, clouds, eps=0.5)
    with pytest.raises(ValueError):
        build_recovery_measure(templates, clouds, clouds, eps=0.0)


def test_recovery_eps_defaults_to_two_cells():
    grid = TimeGrid.uniform(0.0, 1.0, 10)
    templates = EmpiricalPathMeasure((Path.line(grid, 0.0, 1.0),))
    out = build_recovery_measure(templates, PointCloud([0.1]), PointCloud([0.9]))
    # splices occupy [0, 0.2] and [0.8, 1.0]: two cells of the template grid
    assert out.paths[0].grid.nodes[1] == pytest.approx(0.2)
    assert out.paths[0].grid.nodes[-2] == pytest.approx(0.8)


# -- convergence study --------------------------------------------------------------------


def test_convergence_study_free_particle_exact_rows():
    report = run_convergence_study(
        FREE,
        UNIT_A,
        UNIT_B,
        Ns=(4, 8, 16),
        hs=(0.25, 0.125, 0.0625),
        span=(0.0, 1.0),
        reference_action=2.0,
    )
    assert report.all_ok
    assert [r.N for r in report.rows] == [4, 8, 16]
    for row in report.rows:
        assert row.min_action == pytest.approx(2.0, abs=1e-10)
        assert row.max_el_residual <= 1e-10
    # replication makes the distance to the finest level available
    assert all(np.isfinite(r.d_bl_to_finest) for r in report.rows)
    assert report.rows[-1].d_bl_to_finest == 0.0


def test_convergence_study_horizon_failures_are_recorded():
    model = harmonic_oscillator(stiffness=2.0)
    report = run_convergence_study(
        model,
        UNIT_A,
        MarginalSpec("uniform_box", low=0.5, high=1.5, sampler="quantile"),
        Ns=(2, 4),
        hs=(0.05, 0.05),
        span=(0.0, 0.2),  # beyond sqrt(1/32)
    )
    assert not report.all_ok
    assert all(r.status == "error" for r in report.rows)
    assert all("horizon" in r.error for r in report.rows)


def test_convergence_study_mismatched_schedules_rejected():
    with pytest.raises(ValueError):
        run_convergence_study(FREE, UNIT_A, UNIT_B, Ns=(2,), hs=(0.1, 0.2), span=(0, 1))


def test_convergence_study_nondivisible_sizes_leave_nan():
    report = run_convergence_study(
        FREE, UNIT_A, UNIT_B, Ns=(3, 4), hs=(0.25, 0.25), span=(0.0, 1.0)
    )
    assert math.isnan(report.rows[0].d_bl_to_finest)
    assert report.rows[1].d_bl_to_finest == 0.0


def test_convergence_study_fits_action_order_for_harmonic():
    model = harmonic_oscillator()
    spec_a = MarginalSpec("uniform_box", low=0.0, high=1.0, sampler="quantile")
    spec_b = MarginalSpec("uniform_box", low=0.5, high=1.5, sampler="quantile")
    report = run_convergence_study(
        model,
        spec_a,
        spec_b,
        Ns=(6, 6, 6),
        hs=(0.04, 0.02, 0.01),
        span=(0.0, 0.2),
        cost_kind="bvp",
        reference_action=None,
    )
    assert report.all_ok
    assert report.trajectory_order is not None
    assert report.trajectory_order >= 0.8  # at least linear in h
    # equal N: the reference action is the smallest h's, and the midpoint
    # action error is second order
    assert 1.8 <= report.action_order <= 2.6


@pytest.mark.parametrize("points", [2, 3, 4, 7])
def test_fit_order_equals_polyfit_slope(points):
    # the closed-form least-squares slope against np.polyfit's lstsq, with
    # masked-out levels (non-finite, noise-level or non-positive) mixed in
    rng = np.random.default_rng(points)
    for _ in range(50):
        hs = np.sort(rng.uniform(1e-3, 0.2, points))
        errs = rng.uniform(0.1, 10.0) * hs ** rng.uniform(0.5, 3.0)
        errs *= np.exp(rng.normal(0.0, 0.3, points))
        mask = np.ones(points + 3, dtype=bool)
        mask[:3] = False
        order = rng.permutation(points + 3)
        hs_all = np.concatenate([[0.05, 0.02, -0.01], hs])[order]
        errs_all = np.concatenate([[np.nan, 1e-15, 0.3], errs])[order]
        want = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        got = pipeline._fit_order(hs_all, errs_all)
        assert isinstance(got, float)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_fit_order_is_none_without_two_distinct_steps():
    assert pipeline._fit_order(np.array([0.1, 0.05]), np.array([1e-3, np.inf])) is None
    assert pipeline._fit_order(np.array([0.1, 0.1]), np.array([1e-3, 2e-3])) is None
    assert pipeline._fit_order(np.array([0.1, 0.05]), np.array([1e-15, 2e-3])) is None


# -- stationarity study ------------------------------------------------------------------


def test_stationarity_study_free_lines():
    grid = TimeGrid.uniform(0.0, 1.0, 2)
    pi0 = EmpiricalPathMeasure(
        (Path.line(grid, 0.0, 1.0), Path.line(grid, 1.0, -0.5))
    )
    report = run_stationarity_study(FREE, pi0, hs=(0.2, 0.1, 0.05))
    assert report.all_scaling_ok
    for level in report.levels:
        assert level.max_reconstruction_dist == pytest.approx(0.0, abs=1e-12)
        assert level.max_el_residual <= 1e-12


def test_stationarity_study_harmonic_rates():
    model = harmonic_oscillator()
    grid = TimeGrid.uniform(0.0, np.pi / 2, 2)
    pi0 = EmpiricalPathMeasure(
        (Path.line(grid, 1.0, 0.0), Path.line(grid, 0.5, -0.2))
    )
    report = run_stationarity_study(model, pi0, hs=(0.04, 0.02, 0.01))
    assert report.all_scaling_ok
    dists = [lv.max_reconstruction_dist for lv in report.levels]
    for coarse, fine in zip(dists, dists[1:]):
        assert coarse / fine >= 1.8
    # warm-started Newton needs very few iterations after the first level
    assert all(lv.max_newton_iterations <= 5 for lv in report.levels[1:])


@pytest.mark.parametrize(
    "model, dim, span",
    [
        (harmonic_oscillator(), 1, 0.2),
        (cosine_potential(amplitude=2.0, dim=2), 2, 1.0),
        (double_well(), 2, 0.06),
    ],
    ids=["harmonic", "cosine_2d", "double_well"],
)
def test_stationarity_levels_equal_solve_bvp_per_path_bitwise(model, dim, span, monkeypatch):
    rng = np.random.default_rng(dim)
    grid = TimeGrid([0.0, 0.3 * span, 0.45 * span, span])
    interior = np.array([[0], [1], [1], [0]])
    paths = []
    for _ in range(4):
        nodes = Path.line(grid, rng.uniform(-1, 1, dim), rng.uniform(-1, 1, dim)).nodes
        paths.append(Path(grid, nodes + interior * rng.uniform(-0.3, 0.3, nodes.shape)))
    levels = []  # the measure of every level, as the diagnostics receive it

    def record(model, measure):
        levels.append(measure)
        return diagnostics(model, measure)

    diagnostics = pipeline.concentration_diagnostics
    monkeypatch.setattr(pipeline, "concentration_diagnostics", record)
    hs = (span / 5, span / 10, span / 15)
    report = run_stationarity_study(model, EmpiricalPathMeasure(tuple(paths)), hs)
    assert len(levels) == len(hs) and report.levels[0].max_newton_iterations > 0
    warm = paths
    for h, measure, level in zip(hs, levels, report.levels):
        level_grid = TimeGrid.from_step(0.0, span, h)
        want = [
            solve_bvp(model, p.start_point, p.end_point, level_grid, p, check_minimum=False)
            for p in warm
        ]
        for path, single in zip(measure.paths, want):
            assert np.array_equal(path.nodes, single.path.nodes)
        assert level.max_newton_iterations == max(single.newton_iterations for single in want)
        warm = [single.path for single in want]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stationarity_failure_names_the_level_and_reason():
    # at h = 2 on [0, 4] the harmonic Jacobian is exactly singular
    grid = TimeGrid.uniform(0.0, 4.0, 2)
    pi0 = EmpiricalPathMeasure((Path.line(grid, 0.5, -0.5), Path.line(grid, 0.3, 0.2)))
    with pytest.raises(SolverError) as err:
        run_stationarity_study(harmonic_oscillator(), pi0, hs=(2.0,))
    assert str(err.value) == (
        "stationarity solve failed at h=2: Newton did not reach the residual tolerance"
    )


def test_convergence_study_reports_blow_up_of_one_path_as_error_row():
    # one matched pair travels 3e6 in unit time, past the reference flow's
    # guard radius 1e6; the other three stay near the origin
    source = MarginalSpec("custom_points", points=[[0.0], [0.1], [0.2], [0.3]])
    target = MarginalSpec("custom_points", points=[[1.0], [1.1], [1.2], [3e6]])
    report = run_convergence_study(FREE, source, target, [4], [0.1], (0.0, 1.0))
    (row,) = report.rows
    assert row.status == "error"
    assert "guard radius" in row.error


COSINE = cosine_potential(amplitude=0.8)


def test_convergence_study_rows_are_the_per_level_diagnostics():
    # two levels on one grid and one on a finer grid, diagnosed in one call
    Ns, hs = (4, 8, 16), (0.1, 0.1, 0.05)
    report = run_convergence_study(
        COSINE, UNIT_A, UNIT_B, Ns, hs, (0.0, 1.0), cost_kind="bvp"
    )
    assert report.all_ok
    for row, N, h in zip(report.rows, Ns, hs):
        grid = TimeGrid.from_step(0.0, 1.0, h)
        result = solve_discrete_otm(
            COSINE, sample_marginal(UNIT_A, N), sample_marginal(UNIT_B, N), grid,
            cost_kind="bvp",
        )
        diag = pipeline.concentration_diagnostics(COSINE, result.measure)
        assert (row.N, row.h) == (N, grid.max_spacing)
        assert row.min_action == result.min_action
        assert row.max_el_residual == float(np.max(diag.el_residuals))
        assert row.max_reconstruction_dist == float(np.max(diag.reconstruction_distances))


def test_convergence_study_marches_the_reference_flow_once(monkeypatch):
    from otmesh import measures

    calls = []
    march = measures._rk4_march

    def counted(model, groups):
        calls.append(len(groups))
        return march(model, groups)

    monkeypatch.setattr(measures, "_rk4_march", counted)
    report = run_convergence_study(
        FREE, UNIT_A, UNIT_B, (4, 8, 16), (0.25, 0.125, 0.0625), (0.0, 1.0)
    )
    assert report.all_ok
    assert calls == [3]


def test_convergence_study_blow_up_level_leaves_other_levels_bitwise():
    # the N = 4 level's last pair ends at 1.3125e6, past the guard radius 1e6;
    # the N = 1 level's only pair ends at 7.5e5 and stays inside it
    target = MarginalSpec("uniform_box", low=0.0, high=1.5e6, sampler="quantile")
    report = run_convergence_study(FREE, UNIT_A, target, [4, 1], [0.1, 0.1], (0.0, 1.0))
    ok, failed = report.rows[0], report.rows[1]
    (alone_failed,) = run_convergence_study(FREE, UNIT_A, target, [4], [0.1], (0.0, 1.0)).rows
    (alone_ok,) = run_convergence_study(FREE, UNIT_A, target, [1], [0.1], (0.0, 1.0)).rows
    assert (failed.N, failed.status) == (4, "error")
    assert "guard radius" in failed.error
    assert failed.error == alone_failed.error
    assert ok.status == "ok"
    assert ok == alone_ok


def test_studies_build_no_path_per_atom(monkeypatch):
    # the study hot paths keep their measures as node arrays
    built = []
    post_init = Path.__post_init__
    monkeypatch.setattr(Path, "__post_init__", lambda self: built.append(1) or post_init(self))
    spec_a = MarginalSpec("uniform_box", low=0.0, high=1.0, sampler="iid", seed=0)
    spec_b = MarginalSpec("uniform_box", low=2.0, high=3.0, sampler="iid", seed=1)
    report = run_convergence_study(FREE, spec_a, spec_b, [32, 128], [0.1, 0.05], (0.0, 1.0))
    assert report.all_ok and np.isfinite(report.rows[0].d_bl_to_finest)
    assert built == []
    grid = TimeGrid.uniform(0.0, 1.0, 1)
    pi0 = EmpiricalPathMeasure(Path.line(grid, x, -x) for x in (0.25, 0.5, 1.0))
    assert len(built) == 3
    report = run_stationarity_study(harmonic_oscillator(), pi0, hs=(0.1, 0.05))
    assert len(report.levels) == 2
    assert len(built) == 3  # the input paths alone
