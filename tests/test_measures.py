import numpy as np
import pytest

from otmesh import (
    DimensionMismatchError,
    EmpiricalPathMeasure,
    Path,
    PhasePoint,
    TimeGrid,
    bl_distance_bound,
    concentration_diagnostics,
    cosine_potential,
    discrete_flow,
    double_well,
    el_residual,
    free_particle,
    harmonic_oscillator,
    marginal_at_time,
    midpoint_action,
    reference_flow,
    uniform_distance,
)
from otmesh import measures
from otmesh.integrators import _rk4_march
from otmesh.measures import _pairwise_sup_distances
from otmesh.serialize import measure_from_csv, measure_to_csv
from otmesh.transport import solve_assignment

FREE = free_particle()
HARMONIC = harmonic_oscillator()


def line_measure(grid, pairs):
    return EmpiricalPathMeasure(tuple(Path.line(grid, x, y) for x, y in pairs))


def random_measure(rng, grid, size, dim):
    return EmpiricalPathMeasure(
        tuple(Path(grid, rng.uniform(-2, 2, (grid.n_intervals + 1, dim))) for _ in range(size))
    )


def discrete_flow_measure(model, positions, velocities, grid):
    """The measure of the discrete flows launched from the states (x_i, v_i)."""
    return EmpiricalPathMeasure(
        discrete_flow(model, PhasePoint(x, v), grid).path for x, v in zip(positions, velocities)
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


# -- flow pushforward ----------------------------------------------------------------


def test_push_forward_initial_marginal_is_exact():
    rng = np.random.default_rng(4)
    positions, velocities = rng.uniform(-1, 1, (6, 2)), rng.uniform(-1, 1, (6, 2))
    grid = TimeGrid.uniform(0, 0.5, 8)
    for pi in (
        discrete_flow_measure(HARMONIC, positions, velocities, grid),
        EmpiricalPathMeasure._from_nodes(
            grid, _rk4_march(HARMONIC, [(positions, velocities, grid)])[0][0]
        ),
    ):
        cloud = marginal_at_time(pi, 0.0)
        assert np.array_equal(cloud.points, positions)  # order-preserving


def test_push_forward_discrete_tracks_reference():
    grid = TimeGrid.from_step(0, np.pi / 2, 0.01)
    start = PhasePoint([1.0], [0.0])
    disc = discrete_flow(HARMONIC, start, grid).path
    ref = reference_flow(HARMONIC, start, grid).path
    assert uniform_distance(disc, ref) <= 5e-3


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


def test_bl_bound_rejects_measures_of_different_dimension():
    rng = np.random.default_rng(9)
    grid = TimeGrid.uniform(0, 1, 4)
    p, q = random_measure(rng, grid, 3, 1), random_measure(rng, grid, 3, 2)
    with pytest.raises(DimensionMismatchError, match="^measures have different space dimensions$"):
        bl_distance_bound(p, q)


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
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bl_bound_on_two_common_grids_matches_per_pair_distances(coarse, fine, dim):
    # the convergence-study shape: a replicated coarse level against a fine one
    rng = np.random.default_rng(8)
    p = random_measure(rng, coarse, 8, dim).replicate(4)
    q = random_measure(rng, fine, 32, dim)
    assert np.array_equal(_pairwise_sup_distances(p, q), per_pair_distances(p, q))
    assert np.array_equal(_pairwise_sup_distances(q, p), per_pair_distances(q, p))


@pytest.mark.parametrize("factor", [1, 2, 4])
@pytest.mark.parametrize("mixed", [False, True], ids=["common_grid", "mixed_grids"])
def test_bl_bound_measures_each_distinct_atom_once(monkeypatch, factor, mixed):
    # two replicated levels, their copies shuffled: every pair of distinct
    # paths is measured once, and the ground matrix is bitwise the per-pair one
    rng = np.random.default_rng(12)
    coarse, fine = TimeGrid.uniform(0, 1, 5), TimeGrid.uniform(0, 1, 10)

    def shuffled_copies(grid):
        atoms = random_measure(rng, grid, 6, 2)
        if mixed:
            atoms = EmpiricalPathMeasure(atoms.paths[:3] + random_measure(rng, fine, 3, 2).paths)
        copies = atoms.replicate(factor).paths
        return EmpiricalPathMeasure(tuple(copies[i] for i in rng.permutation(len(copies))))

    p, q = shuffled_copies(coarse), shuffled_copies(fine)
    sup_distances = measures._sup_distances
    measured, grounds = [], []
    monkeypatch.setattr(
        measures,
        "_sup_distances",
        lambda a, b: measured.append((a.shape[0], b.shape[0])) or sup_distances(a, b),
    )
    monkeypatch.setattr(
        measures, "solve_assignment", lambda g: grounds.append(g) or solve_assignment(g)
    )
    bound = bl_distance_bound(p, q)
    assert len(measured) == len(p._grids) * len(q._grids)
    assert sum(a for a, _ in measured) == 6 * len(q._grids)
    assert sum(b for _, b in measured) == 6 * len(p._grids)
    assert sum(a * b for a, b in measured) == 6 * 6
    want = np.minimum(per_pair_distances(p, q), 2.0)
    assert np.array_equal(grounds[0], want)
    assert bound == solve_assignment(want).average_cost


MIXED_GRIDS = [
    TimeGrid.uniform(0, 1, 4),
    TimeGrid.uniform(0, 1, 7),
    TimeGrid(np.array([0.0, 0.15, 0.5, 0.8, 1.0])),
]


def measure_on_grids(rng, n_grids, size, dim, copies=1):
    """Atoms spread over the first n_grids MIXED_GRIDS, replicated, copies shuffled."""
    grids = MIXED_GRIDS[:n_grids]
    paths = [
        Path(grids[i % n_grids], rng.uniform(-2, 2, (grids[i % n_grids].n_intervals + 1, dim)))
        for i in range(size)
    ]
    atoms = [paths[i % size] for i in range(size * copies)]
    return EmpiricalPathMeasure(atoms[i] for i in rng.permutation(len(atoms)))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("grids_p, grids_q", [(2, 3), (3, 2), (3, 1), (1, 2)])
def test_sup_distances_on_several_grids_per_measure_match_per_pair_distances(
    dim, grids_p, grids_q
):
    # one common-grid block per pair of stored grids, scattered to its atoms
    rng = np.random.default_rng(20 + dim)
    p = measure_on_grids(rng, grids_p, 6, dim, copies=2)
    q = measure_on_grids(rng, grids_q, 12, dim)
    assert (len(p._grids), len(q._grids)) == (grids_p, grids_q)
    assert np.array_equal(_pairwise_sup_distances(p, q), per_pair_distances(p, q))
    assert np.array_equal(_pairwise_sup_distances(q, p), per_pair_distances(q, p))
    assert np.array_equal(_pairwise_sup_distances(p, p), per_pair_distances(p, p))
    want = np.minimum(per_pair_distances(p, q), 2.0)
    assert bl_distance_bound(p, q) == solve_assignment(want).average_cost


def test_bl_bound_of_a_two_grid_paths_csv_makes_no_per_pair_call(monkeypatch):
    rng = np.random.default_rng(21)
    text = measure_to_csv(measure_on_grids(rng, 2, 8, 2, copies=2))
    p = measure_from_csv(text)
    q = measure_on_grids(rng, 3, 16, 2)
    assert len(p._grids) == 2
    want = np.minimum(per_pair_distances(p, q), 2.0)

    def per_pair_call(a, b):
        raise AssertionError("the bound measured one pair of paths at a time")

    monkeypatch.setattr(measures, "uniform_distance", per_pair_call)
    assert bl_distance_bound(p, q) == solve_assignment(want).average_cost


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sup_distances_of_duplicate_paths_are_zero(dim):
    rng = np.random.default_rng(10)
    p = random_measure(rng, TimeGrid.uniform(0, 1, 6), 5, dim)
    q = EmpiricalPathMeasure(p.paths[::-1]).replicate(2)
    got = _pairwise_sup_distances(p, q)
    assert np.array_equal(got, per_pair_distances(p, q))
    assert np.count_nonzero(got == 0.0) == 10
    assert np.array_equal(_pairwise_sup_distances(q, q), per_pair_distances(q, q))


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
    positions, velocities = rng.uniform(-1, 1, (5, 1)), rng.uniform(-1, 1, (5, 1))
    grid = TimeGrid.uniform(0, 1, 40)
    pi = discrete_flow_measure(HARMONIC, positions, velocities, grid)
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
    maxima = []
    for h in (0.02, 0.01):
        grid = TimeGrid.from_step(0, np.pi / 2, h)
        pi = discrete_flow_measure(HARMONIC, [[1.0], [0.5]], [[0.0], [0.3]], grid)
        report = concentration_diagnostics(HARMONIC, pi)
        maxima.append(float(np.max(report.reconstruction_distances)))
    assert maxima[0] / maxima[1] >= 1.8


@pytest.mark.parametrize(
    "model",
    [HARMONIC, cosine_potential(amplitude=1.5, dim=2), double_well()],
    ids=["harmonic", "cosine", "double_well"],
)
def test_diagnostics_match_per_path_oracle_on_mixed_grids(model):
    # three grids in one measure: each group is batched, all share one RK4
    # march, results stay in order
    rng = np.random.default_rng(12)
    grids = [TimeGrid.uniform(0, 1, 12), TimeGrid.uniform(0, 1, 1), TimeGrid.uniform(0, 1, 5)]
    paths = tuple(
        Path(grids[i % 3], rng.uniform(-1, 1, (grids[i % 3].n_intervals + 1, 2)))
        for i in range(10)
    )
    report = concentration_diagnostics(model, EmpiricalPathMeasure(paths))
    for i, path in enumerate(paths):
        v0 = (path.nodes[1] - path.nodes[0]) / path.grid.spacings[0]
        orbit = reference_flow(model, PhasePoint(path.nodes[0], v0), path.grid).path
        resid = el_residual(model, path) if path.grid.n_intervals >= 2 else 0.0
        assert report.el_residuals[i] == resid
        assert report.reconstruction_distances[i] == uniform_distance(path, orbit)
        assert report.midpoint_actions[i] == midpoint_action(model, path)


# -- the array-backed representation ------------------------------------------------------

GRIDS = {
    "common": [TimeGrid.uniform(0, 1, 6)],
    "mixed": [
        TimeGrid.uniform(0, 1, 6),
        TimeGrid(np.array([0.0, 0.1, 0.45, 0.5, 0.9, 1.0])),
        TimeGrid.uniform(0, 1, 1),
    ],
}


def per_path_diagnostics(model, measure):
    """The per-path oracles of concentration_diagnostics, as rows of a (3, N) array."""
    rows = []
    for path in measure.paths:
        v0 = (path.nodes[1] - path.nodes[0]) / path.grid.spacings[0]
        orbit = reference_flow(model, PhasePoint(path.nodes[0], v0), path.grid).path
        resid = el_residual(model, path) if path.grid.n_intervals >= 2 else 0.0
        rows.append((resid, uniform_distance(path, orbit), midpoint_action(model, path)))
    return np.array(rows).T


def diagnostics_arrays(model, measure):
    report = concentration_diagnostics(model, measure)
    return np.array(
        [report.el_residuals, report.reconstruction_distances, report.midpoint_actions]
    )


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("grids", sorted(GRIDS))
def test_every_construction_gives_the_per_path_oracle_values(grids, dim):
    # _from_nodes, the public constructor, replicate (also shuffled) and
    # joined levels: diagnostics, ground matrices and bounds are bitwise the
    # per-path oracles' values
    rng = np.random.default_rng(dim)
    grids = GRIDS[grids]
    blocks = [rng.uniform(-1, 1, (3, g.n_intervals + 1, dim)) for g in grids]
    public = EmpiricalPathMeasure(Path(g, x) for g, X in zip(grids, blocks) for x in X)
    from_nodes = measures._join(
        [EmpiricalPathMeasure._from_nodes(g, X) for g, X in zip(grids, blocks)]
    )
    # two levels per grid: the second level's grids equal the first's by value
    joined = measures._join(
        [EmpiricalPathMeasure._from_nodes(g, X[:1]) for g, X in zip(grids, blocks)]
        + [EmpiricalPathMeasure._from_nodes(TimeGrid(g.nodes), X[1:]) for g, X in zip(grids, blocks)]
    )
    assert len(joined._grids) == len(grids)
    n = len(grids)
    joined_atoms = [3 * g for g in range(n)] + [3 * g + k for g in range(n) for k in (1, 2)]
    want = per_path_diagnostics(HARMONIC, public)
    q = random_measure(rng, TimeGrid.uniform(0, 1, 9), public.size, dim)
    want_sup = per_pair_distances(public, q)
    for factor in (1, 2, 4):
        cases = [
            (from_nodes.replicate(factor), range(public.size)),
            (public.replicate(factor), range(public.size)),
            (joined.replicate(factor), joined_atoms),
        ]
        perm = rng.permutation(public.size * factor)
        copies = public.replicate(factor).paths
        cases.append((EmpiricalPathMeasure(copies[i] for i in perm), perm % public.size))
        for m, atoms in cases:
            atoms = np.resize(np.asarray(atoms), m.size)
            assert np.array_equal(diagnostics_arrays(HARMONIC, m), want[:, atoms])
            assert np.array_equal(_pairwise_sup_distances(m, q), want_sup[atoms])
        q_f = q.replicate(factor)
        want_bound = solve_assignment(
            np.minimum(per_pair_distances(public.replicate(factor), q_f), 2.0)
        ).average_cost
        for m, _ in cases[:2]:
            assert bl_distance_bound(m, q_f) == want_bound


@pytest.mark.parametrize("factor", [0, -1])
def test_replicate_rejects_a_factor_below_one(factor):
    m = line_measure(TimeGrid.uniform(0, 1, 2), [(0.0, 1.0)])
    with pytest.raises(ValueError, match="^replication factor must be >= 1$"):
        m.replicate(factor)


def test_replicate_shares_read_only_node_arrays():
    rng = np.random.default_rng(21)
    grid = TimeGrid.uniform(0, 1, 4)
    nodes = rng.uniform(-1, 1, (3, 5, 2))
    m = EmpiricalPathMeasure._from_nodes(grid, nodes)
    nodes[0, 0, 0] = 7.0  # _from_nodes keeps a copy of its own
    assert m._nodes[0][0, 0, 0] != 7.0
    copies = m.replicate(4)
    assert copies.size == 12 and copies._grids[0].nodes is grid.nodes
    assert all(np.shares_memory(a, b) for a, b in zip(m._nodes, copies._nodes))
    for arr in (*m._nodes, *copies._nodes, copies._atom):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        copies._nodes[0][0, 0, 0] = 1.0
    paths = copies.paths
    assert copies.paths is paths  # built once
    assert all(paths[i] is paths[i % 3] for i in range(12))
    assert all(np.array_equal(p.nodes, x) for p, x in zip(paths, m._nodes[0]))


def test_public_constructor_merges_equal_grids_and_repeated_paths():
    grid = TimeGrid.uniform(0, 1, 4)
    a = Path.line(grid, 0.0, 1.0)
    b = Path.line(TimeGrid.uniform(0, 1, 4), 1.0, 0.0)
    m = EmpiricalPathMeasure([a, b, a])
    assert m.size == 3 and len(m._grids) == 1 and m._nodes[0].shape[0] == 2
    assert m._grids[0].nodes is grid.nodes
    assert m.paths[0] is a and m.paths[1] is b and m.paths[2] is a
    assert list(m._atom) == [0, 1, 0]


def _path_error(grid, nodes) -> str:
    with pytest.raises(ValueError) as err:
        Path(grid, nodes)
    return str(err.value)


@pytest.mark.parametrize(
    "bad", ["nan", "inf", "too_few", "too_many"]
)
def test_from_nodes_rejects_what_path_rejects_with_its_message(bad):
    grid = TimeGrid.uniform(0, 1, 4)
    nodes = np.zeros((3, 5, 2))
    if bad == "nan":
        nodes[2, 3, 1] = np.nan
    elif bad == "inf":
        nodes[1, 0, 0] = -np.inf
    else:
        nodes = np.zeros((3, 4 if bad == "too_few" else 6, 2))
    message = _path_error(grid, nodes[-1] if bad != "inf" else nodes[1])
    with pytest.raises(ValueError) as err:
        EmpiricalPathMeasure._from_nodes(grid, nodes)
    assert str(err.value) == message
    with pytest.raises(ValueError, match="at least one path"):
        EmpiricalPathMeasure._from_nodes(grid, np.zeros((0, 5, 2)))


def test_marginal_at_time_equals_path_evaluate_on_mixed_grids():
    rng = np.random.default_rng(22)
    grids = GRIDS["mixed"]
    m = EmpiricalPathMeasure(
        Path(g, rng.uniform(-1, 1, (g.n_intervals + 1, 2))) for g in grids for _ in range(2)
    ).replicate(2)
    for t in (0.0, 0.07, 0.1, 0.45, 0.5, 0.99, 1.0):
        want = np.stack([p.evaluate(t) for p in m.paths])
        assert np.array_equal(marginal_at_time(m, t).points, want)
