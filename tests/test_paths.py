import numpy as np
import pytest

from otmesh import (
    DimensionMismatchError,
    Path,
    TimeGrid,
    continuous_action,
    free_particle,
    harmonic_oscillator,
    many_particle_action,
    midpoint_action,
    uniform_distance,
)


def linear_potential(mass=1.0):
    from otmesh import LagrangianModel

    return LagrangianModel(
        mass=mass,
        potential=lambda x: np.sum(x, axis=-1),
        grad_potential=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        quadratic_growth=1.0,
    )


# -- grid and path invariants -------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid([0.0])
    with pytest.raises(ValueError):
        TimeGrid([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        TimeGrid([1.0, 0.5])
    grid = TimeGrid([0.0, 0.25, 1.0])
    assert grid.max_spacing == pytest.approx(0.75)
    assert grid.n_intervals == 2
    assert grid.span == pytest.approx(1.0)


def test_from_step_respects_max_spacing():
    for h in (0.3, 0.1, 0.07, 1.5):
        grid = TimeGrid.from_step(0.0, 1.0, h)
        assert grid.max_spacing <= h + 1e-12
        assert grid.start == 0.0 and grid.end == 1.0


def test_path_validation_and_evaluation():
    grid = TimeGrid.uniform(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        Path(grid, np.zeros((3, 1)))
    path = Path.line(grid, 0.0, 1.0)
    assert path.evaluate(0.25) == pytest.approx([0.25])
    # nodal evaluations are bitwise
    assert path.evaluate(grid.nodes[2])[0] == path.nodes[2][0]
    assert path.evaluate(1.0)[0] == path.nodes[-1][0]
    with pytest.raises(ValueError):
        path.evaluate(1.5)
    with pytest.raises(ValueError, match="at least one coordinate"):
        Path.line(grid, [], [])


def test_velocities_are_difference_quotients():
    grid = TimeGrid([0.0, 0.5, 2.0])
    path = Path(grid, np.array([[0.0], [1.0], [1.0]]))
    assert path.velocity_sq_integral() == pytest.approx(0.5 * 4.0)


# -- continuous action ---------------------------------------------------------


def test_continuous_action_free_line():
    grid = TimeGrid.uniform(0.0, 1.0, 1)
    path = Path.line(grid, 0.0, 1.0)
    assert continuous_action(free_particle(), path) == pytest.approx(0.5)


def test_continuous_action_linear_potential():
    grid = TimeGrid.uniform(0.0, 1.0, 1)
    path = Path.line(grid, 0.0, 1.0)
    assert continuous_action(linear_potential(), path) == pytest.approx(0.0, abs=1e-14)


def test_continuous_action_sine_half_period():
    # action of the oscillator extremal over a half period vanishes
    grid = TimeGrid.uniform(0.0, np.pi, 1000)
    path = Path.from_function(grid, np.sin)
    assert continuous_action(harmonic_oscillator(), path) == pytest.approx(0.0, abs=1e-5)


def test_gauss_legendre_constants_are_numpy_order_five():
    from otmesh.paths import _GL_NODES, _GL_WEIGHTS

    nodes, weights = np.polynomial.legendre.leggauss(5)
    assert np.array_equal(_GL_NODES, nodes)
    assert np.array_equal(_GL_WEIGHTS, weights)


def test_continuous_action_matches_adaptive_quadrature():
    # non-polynomial potential: referee the composite Gauss-Legendre rule
    # against scipy's adaptive quadrature along the same affine path
    from scipy.integrate import quad
    from otmesh import cosine_potential

    model = cosine_potential(amplitude=1.3)
    rng = np.random.default_rng(19)
    grid = TimeGrid(np.sort(np.concatenate(([0.0, 2.0], rng.uniform(0.1, 1.9, 3)))))
    path = Path(grid, rng.uniform(-3, 3, (grid.n_intervals + 1, 1)))
    kinetic = 0.5 * model.mass * path.velocity_sq_integral()
    potential = sum(
        quad(lambda t: float(model.potential(path.evaluate(t))), a, b, epsabs=1e-13)[0]
        for a, b in zip(grid.nodes[:-1], grid.nodes[1:])
    )
    assert continuous_action(model, path) == pytest.approx(
        kinetic - potential, abs=1e-9
    )


# -- midpoint action ------------------------------------------------------------


def test_midpoint_action_free_affine_any_grid():
    m = 2.5
    grid = TimeGrid(np.array([0.0, 0.3, 0.45, 1.0]))
    path = Path.line(grid, np.array([1.0, -1.0]), np.array([2.0, 3.0]))
    expected = 0.5 * m * (1.0 + 16.0) / 1.0
    assert midpoint_action(free_particle(mass=m), path) == pytest.approx(expected)


def test_midpoint_action_single_interval_linear_potential():
    grid = TimeGrid.uniform(0.0, 1.0, 1)
    path = Path.line(grid, 0.0, 1.0)
    assert midpoint_action(linear_potential(), path) == pytest.approx(0.0, abs=1e-14)


def test_midpoint_equals_continuous_for_affine_potential():
    # the midpoint rule integrates affine integrands exactly
    model = linear_potential()
    rng = np.random.default_rng(5)
    for _ in range(10):
        nodes = np.sort(rng.uniform(0.0, 1.0, 5))
        nodes[0], nodes[-1] = 0.0, 1.0
        grid = TimeGrid(np.unique(nodes))
        path = Path(grid, rng.uniform(-2, 2, (grid.n_intervals + 1, 2)))
        assert midpoint_action(model, path) == pytest.approx(
            continuous_action(model, path), rel=1e-12, abs=1e-12
        )


def test_midpoint_quadrature_error_bound():
    # |midpoint - continuous| <= h^2 sup|hess V| int |v|^2 for bounded ranges
    model = harmonic_oscillator()
    rng = np.random.default_rng(9)
    for n_intervals in (8, 16, 64):
        grid = TimeGrid.uniform(0.0, np.pi, n_intervals)
        path = Path(grid, np.cumsum(rng.uniform(-0.3, 0.3, (n_intervals + 1, 1)), axis=0))
        gap = abs(midpoint_action(model, path) - continuous_action(model, path))
        # sup |Hess V| = k = 1 for the unit harmonic oscillator
        bound = grid.max_spacing**2 * 1.0 * path.velocity_sq_integral()
        assert gap <= bound


def test_midpoint_matches_continuous_on_sine_within_bound():
    model = harmonic_oscillator()
    grid = TimeGrid.uniform(0.0, np.pi, 64)
    path = Path.from_function(grid, np.sin)
    gap = abs(midpoint_action(model, path) - continuous_action(model, path))
    assert gap <= grid.max_spacing**2 * 1.0 * path.velocity_sq_integral()


def test_collinear_refinement_leaves_free_action_unchanged():
    m = 1.7
    grid = TimeGrid(np.array([0.0, 0.5, 2.0]))
    path = Path(grid, np.array([[0.0], [2.0], [1.0]]))
    # insert the midpoint of every interval; nodal values stay collinear
    fine_nodes = []
    for j in range(grid.n_intervals):
        fine_nodes.append(path.nodes[j])
        fine_nodes.append(0.5 * (path.nodes[j] + path.nodes[j + 1]))
    fine_nodes.append(path.nodes[-1])
    fine = Path(TimeGrid([0.0, 0.25, 0.5, 1.25, 2.0]), np.array(fine_nodes))
    model = free_particle(mass=m)
    assert midpoint_action(model, fine) == pytest.approx(
        midpoint_action(model, path), rel=1e-12
    )


def test_mass_scaling_scales_kinetic_part():
    grid = TimeGrid.uniform(0.0, 1.0, 7)
    rng = np.random.default_rng(2)
    path = Path(grid, rng.uniform(-1, 1, (8, 3)))
    lam = 3.2
    base_mid = midpoint_action(free_particle(), path)
    base_cont = continuous_action(free_particle(), path)
    assert midpoint_action(free_particle(mass=lam), path) == pytest.approx(lam * base_mid)
    assert continuous_action(free_particle(mass=lam), path) == pytest.approx(lam * base_cont)


# -- many-particle action ---------------------------------------------------------


def test_many_particle_action_basics():
    model = free_particle()
    grid = TimeGrid.uniform(0.0, 1.0, 4)
    one = Path.line(grid, 0.0, 1.0)
    two = Path.line(grid, 0.0, 2.0)
    assert many_particle_action(model, [one]) == pytest.approx(midpoint_action(model, one))
    assert many_particle_action(model, [one, one]) == pytest.approx(
        midpoint_action(model, one)
    )
    assert many_particle_action(model, [one, two]) == pytest.approx((0.5 + 2.0) / 2)


def test_many_particle_action_rejects_mixed_inputs():
    model = free_particle()
    grid = TimeGrid.uniform(0.0, 1.0, 4)
    other = TimeGrid.uniform(0.0, 1.0, 5)
    with pytest.raises(DimensionMismatchError):
        many_particle_action(
            model,
            [Path.line(grid, 0.0, 1.0), Path.line(grid, [0.0, 0.0], [1.0, 1.0])],
        )
    with pytest.raises(ValueError):
        many_particle_action(
            model, [Path.line(grid, 0.0, 1.0), Path.line(other, 0.0, 1.0)]
        )
    # a common grid is only required for the midpoint scheme
    value = many_particle_action(
        model,
        [Path.line(grid, 0.0, 1.0), Path.line(other, 0.0, 1.0)],
        scheme="continuous",
    )
    assert value == pytest.approx(0.5)


# -- uniform distance ---------------------------------------------------------------


def test_uniform_distance_examples():
    grid = TimeGrid.uniform(0.0, 1.0, 4)
    p = Path.line(grid, 0.0, 1.0)
    q = Path.line(grid, 0.0, 2.0)
    assert uniform_distance(p, p) == 0.0
    assert uniform_distance(p, q) == pytest.approx(1.0)
    p2 = Path.line(grid, [0.0, 0.0], [1.0, 0.0])
    q2 = Path.line(grid, [0.0, 1.0], [1.0, 1.0])
    assert uniform_distance(p2, q2) == pytest.approx(1.0)


def test_uniform_distance_merges_unequal_grids():
    # peak of the coarse-fine disagreement sits at an off-node time
    coarse = TimeGrid.uniform(0.0, 1.0, 1)
    fine = TimeGrid.uniform(0.0, 1.0, 2)
    p = Path.line(coarse, 0.0, 0.0)
    q = Path(fine, np.array([[0.0], [1.0], [0.0]]))
    assert uniform_distance(p, q) == pytest.approx(1.0)


def test_uniform_distance_rejects_mismatched_spans():
    p = Path.line(TimeGrid.uniform(0.0, 1.0, 2), 0.0, 1.0)
    q = Path.line(TimeGrid.uniform(0.0, 2.0, 2), 0.0, 1.0)
    with pytest.raises(ValueError):
        uniform_distance(p, q)


def test_uniform_distance_is_a_metric_on_samples():
    rng = np.random.default_rng(8)
    grid = TimeGrid.uniform(0.0, 1.0, 6)
    paths = [Path(grid, rng.uniform(-1, 1, (7, 2))) for _ in range(6)]
    for p in paths:
        for q in paths:
            assert uniform_distance(p, q) == pytest.approx(
                uniform_distance(q, p), abs=1e-15
            )
            for r in paths:
                assert uniform_distance(p, r) <= (
                    uniform_distance(p, q) + uniform_distance(q, r) + 1e-12
                )
