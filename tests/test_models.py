import math

import numpy as np
import pytest

from otmesh import (
    DimensionMismatchError,
    PointCloud,
    TimeGrid,
    cosine_potential,
    closed_form_cost,
    double_well,
    free_particle,
    harmonic_oscillator,
    make_model,
    solve_bvp,
)
from otmesh import transport


def quadratic_well(mass=1.0):
    """V(x) = |x|^2 / 2 as a plain catalog-free model."""
    from otmesh import LagrangianModel

    return LagrangianModel(
        mass=mass,
        potential=lambda x: 0.5 * np.sum(np.square(x), axis=-1),
        grad_potential=lambda x: np.asarray(x, dtype=float),
        quadratic_growth=0.5,
    )


def test_a_custom_model_needs_only_mass_potential_gradient_and_growth():
    # the custom-model contract: no Hessian and no bound on it are required
    model = quadratic_well()
    result = solve_bvp(model, 0.0, 1.0, TimeGrid.uniform(0.0, 0.8, 200))
    assert result.converged
    exact = closed_form_cost(harmonic_oscillator(), 0.0, 1.0, 0.8)
    assert result.cost == pytest.approx(exact, rel=1e-4)


def test_lagrangian_values():
    assert free_particle().lagrangian([0.0, 0.0], [3.0, 4.0]) == pytest.approx(12.5)
    assert quadratic_well().lagrangian(2.0, 0.0) == pytest.approx(-2.0)
    assert harmonic_oscillator(mass=2.0, stiffness=2.0).lagrangian(1.0, 1.0) == pytest.approx(0.0)


def test_hamiltonian_values():
    # H(x, p) = |p|^2 / (2m) + V(x) is the energy at the velocity v = p / m
    assert harmonic_oscillator(mass=2.0, stiffness=2.0).energy(1.0, 4.0 / 2.0) == pytest.approx(5.0)
    assert free_particle().energy(0.0, 0.0) == 0.0
    assert quadratic_well().energy(0.0, 1.0) == pytest.approx(0.5)


def test_energy_values():
    assert quadratic_well().energy(1.0, 0.0) == pytest.approx(0.5)
    assert free_particle().energy([0.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0)
    assert harmonic_oscillator(mass=3.0, stiffness=2.0).energy(2.0, 1.0) == pytest.approx(5.5)


@pytest.mark.parametrize(
    "x",
    [np.array([0.5, -2.0]), np.ones((160, 1)), np.arange(6).reshape(3, 2), [[1, 2, 3]]],
    ids=["point", "batch", "int_batch", "list"],
)
def test_free_particle_gradient_is_float_zeros_of_input_shape(x):
    grad = free_particle().grad_potential(x)
    assert isinstance(grad, np.ndarray)
    assert grad.dtype == np.float64
    assert grad.shape == np.shape(x)
    assert not grad.any()


@pytest.mark.parametrize(
    "x",
    [
        np.array([0.5, -2.0]),
        np.ones((160, 1)),
        np.arange(6).reshape(3, 2),
        np.ones((4, 5, 3), dtype=np.float32),
        [[1, 2, 3]],
        [0.5, 1.5],
        np.array([[0.0]])[0],
    ],
    ids=["point", "batch", "int_batch", "float32_stack", "list", "flat_list", "view"],
)
def test_free_particle_zeros_match_np_shape_of_the_input(x):
    # the shapes np.shape gives: values, dtype and shape of potential,
    # gradient and Hessian stay what np.zeros(np.shape(x)...) makes
    model = free_particle()
    shape = np.shape(x)
    for got, want in (
        (model.potential(x), np.zeros(shape[:-1])),
        (model.grad_potential(x), np.zeros(shape)),
        (model.hess_potential(x), np.zeros(shape + (shape[-1],))),
    ):
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype == np.float64
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("x", [2.5, np.float64(-1.0), np.array(3.0)], ids=["float", "np_float", "0d"])
def test_free_particle_gradient_of_a_scalar_is_a_float_zero(x):
    grad = free_particle().grad_potential(x)
    assert isinstance(grad, np.ndarray)
    assert grad.dtype == np.float64 and grad.shape == () and grad == 0.0


def test_dimension_mismatch_raises():
    model = free_particle()
    with pytest.raises(DimensionMismatchError):
        model.lagrangian([1.0, 2.0], [1.0])
    with pytest.raises(DimensionMismatchError):
        model.energy([1.0, 2.0, 3.0], [1.0])


def test_derived_constants():
    model = harmonic_oscillator(mass=2.5)
    assert model.admissible_horizon() < math.inf
    assert cosine_potential(amplitude=1.0, dim=2).potential_sup == 2.0


def test_admissible_horizon_values():
    # harmonic with stiffness 2 has growth constant exactly 1
    model = harmonic_oscillator(stiffness=2.0)
    assert model.quadratic_growth == pytest.approx(1.0)
    assert model.admissible_horizon() == pytest.approx(math.sqrt(1 / 32))
    # bounded potentials have no horizon restriction
    assert cosine_potential().admissible_horizon() == math.inf
    assert free_particle().admissible_horizon() == math.inf


@pytest.mark.parametrize(
    "model",
    [
        free_particle(mass=0.7),
        harmonic_oscillator(mass=1.3, stiffness=2.5),
        double_well(),
        cosine_potential(amplitude=0.8, dim=3),
    ],
    ids=["free", "harmonic", "double_well", "cosine"],
)
def test_kinetic_doubling_and_legendre_duality(model):
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = rng.integers(1, 4)
        x = rng.uniform(-2, 2, n)
        v = rng.uniform(-3, 3, n)
        # L + E doubles the kinetic term
        assert model.lagrangian(x, v) + model.energy(x, v) == pytest.approx(
            model.mass * float(v @ v), rel=1e-12, abs=1e-12
        )


@pytest.mark.parametrize(
    "model",
    [harmonic_oscillator(stiffness=1.7), double_well(), cosine_potential(amplitude=1.2, dim=2)],
    ids=["harmonic", "double_well", "cosine"],
)
def test_gradient_matches_finite_differences(model):
    rng = np.random.default_rng(3)
    points = rng.uniform(-2, 2, (20, 2))
    assert model.check_gradient(points) <= 1e-6


@pytest.mark.parametrize(
    "model",
    [
        free_particle(),
        harmonic_oscillator(stiffness=3.0),
        double_well(validation_radius=3.0),
        cosine_potential(amplitude=2.0, dim=2),
    ],
    ids=["free", "harmonic", "double_well", "cosine"],
)
def test_quadratic_growth_on_sample_grid(model):
    # sample inside the ball where the growth constant was validated
    rng = np.random.default_rng(11)
    directions = rng.standard_normal((500, 2))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    points = directions * (3.0 * rng.uniform(0, 1, (500, 1)))
    assert model.check_quadratic_growth(points) <= 1e-12


def test_catalog_lookup():
    model = make_model("harmonic", mass=2.0, stiffness=0.5)
    assert model.name == "harmonic"
    assert model.params["stiffness"] == 0.5
    with pytest.raises(ValueError):
        make_model("anharmonic")


def test_invalid_constants_rejected():
    with pytest.raises(ValueError):
        free_particle(mass=-1.0)
    with pytest.raises(ValueError):
        harmonic_oscillator(stiffness=0.0)


def one_line_cost_matrix(model, X, Y, span):
    """ClosedFormCosts.matrix as one expression per model, kept as its oracle."""
    sq_x = np.sum(X * X, axis=1)[:, None]
    sq_y = np.sum(Y * Y, axis=1)[None, :]
    cross = X @ Y.T
    if model.name == "free_particle":
        return 0.5 * model.mass * (sq_x + sq_y - 2.0 * cross) / span
    omega = math.sqrt(model.params["stiffness"] / model.mass)
    s = math.sin(omega * span)
    return 0.5 * model.mass * omega * ((sq_x + sq_y) * math.cos(omega * span) - 2.0 * cross) / s


@pytest.mark.parametrize("dim", [1, 2])
def test_in_place_closed_form_cost_matrix_is_bitwise_the_expression(dim):
    rng = np.random.default_rng(dim)
    models = [
        free_particle(),
        free_particle(mass=0.3),
        harmonic_oscillator(),
        harmonic_oscillator(mass=2.5, stiffness=0.7),
    ]
    for model in models:
        for span in (0.1, 1.0, 2.9, 7.3):
            X = rng.standard_normal((9, dim)) * 10.0 ** rng.integers(-3, 4, (9, 1))
            Y = rng.uniform(-4.0, 4.0, (6, dim))
            costs = transport.ClosedFormCosts(model, PointCloud(X), PointCloud(Y), span).matrix()
            assert costs.shape == (9, 6)
            assert np.array_equal(costs, one_line_cost_matrix(model, X, Y, span))


@pytest.mark.parametrize("budget", [1, 5, 7, 64, None])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_in_place_closed_form_cost_matrix_is_bitwise_over_row_blocks(
    monkeypatch, budget, dim
):
    # a budget below one row still takes a row per block; 5 and 7 leave the
    # last block of a 1-column matrix short; the default budget splits the
    # 300 x 250 matrix into three blocks
    if budget is not None:
        monkeypatch.setattr(transport, "_COST_BLOCK_BUDGET", budget)
    rng = np.random.default_rng(dim)
    for model in (free_particle(mass=0.3), harmonic_oscillator(mass=2.5, stiffness=0.7)):
        for N, M in ((1, 6), (1, 1), (9, 1), (13, 4), (300, 250)):
            X = rng.standard_normal((N, dim)) * 10.0 ** rng.integers(-3, 4, (N, 1))
            Y = rng.uniform(-4.0, 4.0, (M, dim))
            costs = transport.ClosedFormCosts(model, PointCloud(X), PointCloud(Y), 2.9).matrix()
            assert costs.shape == (N, M)
            assert np.array_equal(costs, one_line_cost_matrix(model, X, Y, 2.9))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_closed_form_cost_is_the_one_entry_of_its_matrix(dim):
    rng = np.random.default_rng(dim)
    for model in (free_particle(mass=0.3), harmonic_oscillator(mass=2.5, stiffness=0.7)):
        for span in (0.1, 1.0, 2.9):
            X = rng.standard_normal((1, dim)) * 10.0 ** rng.integers(-3, 4)
            Y = rng.uniform(-4.0, 4.0, (1, dim))
            cost = closed_form_cost(model, X[0], Y[0], span)
            held = transport.ClosedFormCosts(model, PointCloud(X), PointCloud(Y), span).matrix()
            assert np.float64(cost).tobytes() == held.tobytes()
            assert np.float64(cost).tobytes() == one_line_cost_matrix(model, X, Y, span).tobytes()


def test_closed_form_costs():
    free = free_particle(mass=2.0)
    assert closed_form_cost(free, 0.0, 2.0, 1.0) == pytest.approx(4.0)
    harm = harmonic_oscillator()
    T = math.pi / 2
    assert closed_form_cost(harm, 0.0, 1.0, T) == pytest.approx(0.0, abs=1e-14)
    assert closed_form_cost(harm, 1.0, 1.0, T) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        closed_form_cost(harm, 0.0, 1.0, math.pi)  # conjugate span
    with pytest.raises(ValueError):
        closed_form_cost(double_well(), 0.0, 1.0, 0.1)
