import numpy as np
import pytest

from otmesh import (
    EmpiricalPathMeasure,
    Path,
    PhaseMeasure,
    PhasePoint,
    TimeGrid,
    bl_distance_bound,
    concentration_diagnostics,
    el_residual,
    free_particle,
    harmonic_oscillator,
    marginal_at_time,
    midpoint_action,
    push_forward_flow,
    reference_flow,
    uniform_distance,
)
from otmesh.measures import _pairwise_sup_distances

FREE = free_particle()
HARMONIC = harmonic_oscillator()


def line_measure(grid, pairs):
    return EmpiricalPathMeasure(tuple(Path.line(grid, x, y) for x, y in pairs))


def random_measure(rng, grid, size, dim):
    return EmpiricalPathMeasure(
        tuple(Path(grid, rng.uniform(-2, 2, (grid.n_intervals + 1, dim))) for _ in range(size))
    )


def per_pair_distances(p, q):
    """The per-pair oracle for the batched sup-distance matrix."""
    return np.array([[uniform_distance(a, b) for b in q.paths] for a in p.paths])


# -- measures as containers -------------------------------------------------------


def test_measure_invariants():
    grid = TimeGrid.uniform(0, 1, 2)
    with pytest.raises(ValueError):
        EmpiricalPathMeasure(())
    with pytest.raises(ValueError):
        EmpiricalPathMeasure(
            (Path.line(grid, 0.0, 1.0), Path.line(TimeGrid.uniform(0, 2, 2), 0.0, 1.0))
        )
    measure = line_measure(grid, [(0.0, 1.0), (1.0, 0.0)])
    assert measure.size == 2 and measure.dim == 1
    assert measure.replicate(3).size == 6


def test_phase_measure_round_trip():
    states = [PhasePoint([0.0, 1.0], [1.0, 0.0]), PhasePoint([2.0, 0.0], [0.0, 1.0])]
    eta = PhaseMeasure.from_states(states)
    assert eta.size == 2 and eta.dim == 2
    back = list(eta.states())
    assert np.array_equal(back[1].position, states[1].position)


# -- flow pushforward ----------------------------------------------------------------


def test_push_forward_single_free_atom():
    eta = PhaseMeasure([[0.0]], [[1.0]])
    grid = TimeGrid.uniform(0, 1, 5)
    pi = push_forward_flow(FREE, eta, grid, kind="discrete")
    assert pi.paths[0].nodes[:, 0] == pytest.approx(grid.nodes)


def test_push_forward_initial_marginal_is_exact():
    rng = np.random.default_rng(4)
    eta = PhaseMeasure(rng.uniform(-1, 1, (6, 2)), rng.uniform(-1, 1, (6, 2)))
    grid = TimeGrid.uniform(0, 0.5, 8)
    for kind in ("discrete", "reference"):
        pi = push_forward_flow(HARMONIC, eta, grid, kind=kind)
        cloud = marginal_at_time(pi, 0.0)
        assert np.array_equal(cloud.points, eta.positions)  # order-preserving


def test_push_forward_discrete_tracks_reference():
    eta = PhaseMeasure([[1.0]], [[0.0]])
    grid = TimeGrid.from_step(0, np.pi / 2, 0.01)
    disc = push_forward_flow(HARMONIC, eta, grid, kind="discrete")
    ref = push_forward_flow(HARMONIC, eta, grid, kind="reference")
    assert uniform_distance(disc.paths[0], ref.paths[0]) <= 5e-3


# -- time marginals ---------------------------------------------------------------------


def test_marginal_at_endpoints_and_interior():
    grid = TimeGrid.uniform(0, 1, 4)
    measure = line_measure(grid, [(0.0, 1.0), (2.0, 3.0)])
    assert marginal_at_time(measure, 0.0).points[:, 0] == pytest.approx([0.0, 2.0])
    assert marginal_at_time(measure, 1.0).points[:, 0] == pytest.approx([1.0, 3.0])
    assert marginal_at_time(measure, 0.25).points[0, 0] == pytest.approx(0.25)
    with pytest.raises(ValueError):
        marginal_at_time(measure, 1.5)


# -- bounded-Lipschitz upper bound ----------------------------------------------------


def test_bl_bound_examples():
    grid = TimeGrid.uniform(0, 1, 4)
    p = line_measure(grid, [(0.0, 1.0)])
    q_near = line_measure(grid, [(0.5, 1.5)])
    q_far = line_measure(grid, [(5.0, 6.0)])
    assert bl_distance_bound(p, p) == 0.0
    assert bl_distance_bound(p, q_near) == pytest.approx(0.5)
    assert bl_distance_bound(p, q_far) == pytest.approx(2.0)  # truncated
    for q in (p, q_near, q_far):
        assert np.array_equal(_pairwise_sup_distances(p, q), per_pair_distances(p, q))


def test_bl_bound_requires_equal_sizes():
    grid = TimeGrid.uniform(0, 1, 2)
    with pytest.raises(ValueError):
        bl_distance_bound(
            line_measure(grid, [(0.0, 1.0)]),
            line_measure(grid, [(0.0, 1.0), (1.0, 2.0)]),
        )


def test_bl_bound_is_bounded_by_cutoff_and_metric_on_samples():
    rng = np.random.default_rng(3)
    grid = TimeGrid.uniform(0, 1, 3)
    measures = [
        EmpiricalPathMeasure(
            tuple(Path(grid, rng.uniform(-4, 4, (4, 1))) for _ in range(3))
        )
        for _ in range(4)
    ]
    for p in measures:
        for q in measures:
            assert np.array_equal(
                _pairwise_sup_distances(p, q), per_pair_distances(p, q)
            )
            d_pq = bl_distance_bound(p, q)
            assert d_pq <= 2.0 + 1e-15
            assert d_pq == pytest.approx(bl_distance_bound(q, p), abs=1e-12)
            for r in measures:
                assert d_pq <= (
                    bl_distance_bound(p, r) + bl_distance_bound(r, q) + 1e-12
                )


def test_bl_bound_mixed_grids_falls_back_to_pairwise():
    g1 = TimeGrid.uniform(0, 1, 2)
    g2 = TimeGrid.uniform(0, 1, 4)
    p = EmpiricalPathMeasure((Path.line(g1, 0.0, 1.0), Path.line(g2, 1.0, 0.0)))
    q = EmpiricalPathMeasure((Path.line(g2, 0.0, 1.0), Path.line(g1, 1.0, 0.0)))
    assert bl_distance_bound(p, q) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize(
    "coarse, fine",
    [
        (TimeGrid.uniform(0, 1, 10), TimeGrid.uniform(0, 1, 20)),
        (TimeGrid.uniform(0, 1, 7), TimeGrid(np.array([0.0, 0.1, 0.45, 0.5, 0.9, 1.0]))),
    ],
    ids=["nested", "non_nested"],
)
def test_bl_bound_on_two_common_grids_matches_per_pair_distances(coarse, fine):
    # the convergence-study shape: a replicated coarse level against a fine one
    rng = np.random.default_rng(8)
    p = random_measure(rng, coarse, 8, 2).replicate(4)
    q = random_measure(rng, fine, 32, 2)
    assert np.array_equal(_pairwise_sup_distances(p, q), per_pair_distances(p, q))
    assert np.array_equal(_pairwise_sup_distances(q, p), per_pair_distances(q, p))


def test_bl_bound_rejects_measures_on_different_spans():
    rng = np.random.default_rng(9)
    p = random_measure(rng, TimeGrid.uniform(0, 1, 4), 3, 1)
    q = random_measure(rng, TimeGrid.uniform(0, 2, 4), 3, 1)
    with pytest.raises(ValueError, match="time spans"):
        bl_distance_bound(p, q)


def test_bl_bound_between_template_samples_decreases_in_n():
    # two independent empirical draws from a fixed 3-template distribution
    grid = TimeGrid.uniform(0, 1, 4)
    templates = [
        Path.line(grid, 0.0, 1.0),
        Path.line(grid, 1.0, 0.0),
        Path(grid, np.array([[0.0], [0.8], [0.3], [0.9], [0.2]])),
    ]
    weights = np.array([0.5, 0.3, 0.2])

    def draw(rng, n):
        idx = rng.choice(3, size=n, p=weights)
        return EmpiricalPathMeasure(tuple(templates[i] for i in idx))

    medians = []
    for n in (8, 64, 512):
        dists = []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            dists.append(bl_distance_bound(draw(rng, n), draw(rng, n)))
        medians.append(float(np.median(dists)))
    assert medians[0] > medians[1] > medians[2]


# -- concentration diagnostics ----------------------------------------------------------


def test_diagnostics_on_discrete_flow_output():
    rng = np.random.default_rng(6)
    eta = PhaseMeasure(rng.uniform(-1, 1, (5, 1)), rng.uniform(-1, 1, (5, 1)))
    grid = TimeGrid.uniform(0, 1, 40)
    pi = push_forward_flow(HARMONIC, eta, grid, kind="discrete")
    report = concentration_diagnostics(HARMONIC, pi)
    assert np.max(report.el_residuals) <= 1e-10
    summary = report.summary()
    assert summary["n_paths"] == 5
    assert summary["el_residual"]["max"] <= 1e-10


def test_diagnostics_straight_lines_free_particle():
    grid = TimeGrid.uniform(0, 1, 8)
    pi = line_measure(grid, [(0.0, 1.0), (1.0, -1.0), (0.5, 0.5)])
    report = concentration_diagnostics(FREE, pi)
    assert np.max(report.reconstruction_distances) == pytest.approx(0.0, abs=1e-12)
    assert np.max(report.el_residuals) == 0.0


def test_diagnostics_reconstruction_distance_shrinks_with_h():
    eta = PhaseMeasure([[1.0], [0.5]], [[0.0], [0.3]])
    maxima = []
    for h in (0.02, 0.01):
        grid = TimeGrid.from_step(0, np.pi / 2, h)
        pi = push_forward_flow(HARMONIC, eta, grid, kind="discrete")
        report = concentration_diagnostics(HARMONIC, pi)
        maxima.append(float(np.max(report.reconstruction_distances)))
    assert maxima[0] / maxima[1] >= 1.8


def test_diagnostics_threaded_matches_serial():
    rng = np.random.default_rng(2)
    eta = PhaseMeasure(rng.uniform(-1, 1, (4, 1)), rng.uniform(-1, 1, (4, 1)))
    grid = TimeGrid.uniform(0, 1, 20)
    pi = push_forward_flow(HARMONIC, eta, grid, kind="discrete")
    one = concentration_diagnostics(HARMONIC, pi, threads=1)
    many = concentration_diagnostics(HARMONIC, pi, threads=4)
    assert np.array_equal(one.reconstruction_distances, many.reconstruction_distances)
    assert np.array_equal(one.el_residuals, many.el_residuals)


def test_diagnostics_match_per_path_oracle_on_mixed_grids():
    # three grids in one measure: each group is batched, results stay in order
    rng = np.random.default_rng(12)
    grids = [TimeGrid.uniform(0, 1, 12), TimeGrid.uniform(0, 1, 1), TimeGrid.uniform(0, 1, 5)]
    paths = tuple(
        Path(grids[i % 3], rng.uniform(-1, 1, (grids[i % 3].n_intervals + 1, 2)))
        for i in range(10)
    )
    report = concentration_diagnostics(HARMONIC, EmpiricalPathMeasure(paths))
    for i, path in enumerate(paths):
        v0 = (path.nodes[1] - path.nodes[0]) / path.grid.spacings[0]
        orbit = reference_flow(HARMONIC, PhasePoint(path.nodes[0], v0), path.grid).path
        resid = el_residual(HARMONIC, path) if path.grid.n_intervals >= 2 else 0.0
        assert report.el_residuals[i] == resid
        assert report.reconstruction_distances[i] == uniform_distance(path, orbit)
        assert report.midpoint_actions[i] == midpoint_action(HARMONIC, path)


def test_push_forward_reference_matches_per_atom_flow():
    rng = np.random.default_rng(13)
    eta = PhaseMeasure(rng.uniform(-1, 1, (9, 2)), rng.uniform(-1, 1, (9, 2)))
    grid = TimeGrid.uniform(0, 0.8, 6)
    pi = push_forward_flow(HARMONIC, eta, grid, kind="reference")
    for path, state in zip(pi.paths, eta.states()):
        assert np.array_equal(path.nodes, reference_flow(HARMONIC, state, grid).path.nodes)
