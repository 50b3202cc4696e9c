"""Acceptance suite: one test per shipping criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import functools
import json
import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from otmesh import (
    MarginalSpec,
    Path,
    PhasePoint,
    TimeGrid,
    brute_force_assignment,
    closed_form_cost,
    concentration_diagnostics,
    continuous_action,
    discrete_flow,
    free_particle,
    harmonic_oscillator,
    midpoint_action,
    reference_flow,
    run_convergence_study,
    sample_marginal,
    solve_assignment,
    solve_bvp,
    solve_discrete_otm,
    uniform_distance,
)
from otmesh.cli import main as cli_main

HARMONIC = harmonic_oscillator()


def criterion(number: int, title: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except AssertionError:
                print(f"[criterion {number:02d}] FAIL {title}")
                raise
            print(f"[criterion {number:02d}] PASS {title}" + (f" ({detail})" if detail else ""))

        return run

    return wrap


@criterion(1, "free-particle cost matches m|y-x|^2/(2(b-a)) to 1e-10 relative")
def test_c01_free_particle_cost():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        mass = float(rng.uniform(0.5, 3.0))
        x = rng.uniform(-2, 2, n)
        y = rng.uniform(-2, 2, n)
        a = float(rng.uniform(-1, 1))
        span = float(rng.uniform(0.3, 2.0))
        model = free_particle(mass=mass)
        result = solve_bvp(model, x, y, TimeGrid.uniform(a, a + span, 16))
        exact = 0.5 * mass * float((y - x) @ (y - x)) / span
        assert result.converged
        rel = abs(result.cost - exact) / max(1e-30, abs(exact))
        worst = max(worst, rel)
        assert rel <= 1e-10
    return f"max rel err {worst:.2e}"


@criterion(2, "harmonic cost matches the closed form; closed form cross-validated")
def test_c02_harmonic_cost():
    worst = 0.0
    for span in (0.3, 0.8, math.pi / 2):
        for x, y in ((0.0, 1.0), (1.0, 1.0), (-0.5, 0.7)):
            exact = closed_form_cost(HARMONIC, x, y, span)
            result = solve_bvp(HARMONIC, x, y, TimeGrid.uniform(0.0, span, 1000))
            assert result.converged
            gap = abs(result.cost - exact)
            worst = max(worst, gap)
            assert gap <= 1e-4

    # cross-validate the closed form once against dense direct minimization:
    # fresh inline action/gradient, generic descent, 5000 nodes
    span, x, y, l = 0.8, 0.3, 1.1, 5000
    dt = span / l
    times = np.linspace(0.0, span, l + 1)

    def action_and_grad(u):
        g = np.concatenate(([x], u, [y]))
        d = np.diff(g)
        mids = 0.5 * (g[1:] + g[:-1])
        value = 0.5 * np.sum(d * d) / dt - np.sum(0.5 * mids**2) * dt
        grad = d[:-1] / dt - d[1:] / dt - 0.5 * dt * mids[:-1] - 0.5 * dt * mids[1:]
        return value, grad

    start = x + (y - x) * times[1:-1] / span
    opt = minimize(
        action_and_grad,
        start,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 40000, "maxfun": 100000, "ftol": 1e-16, "gtol": 1e-10},
    )
    assert opt.success
    assert abs(opt.fun - closed_form_cost(HARMONIC, x, y, span)) <= 1e-6
    return f"max |cost - closed form| {worst:.2e}"


@criterion(3, "midpoint quadrature error bounded by h^2 sup|hess V| int|v|^2, order ~2")
def test_c03_midpoint_quadrature_error():
    span = math.pi / 2
    orders = []
    for x0, v0 in ((1.0, 0.0), (0.0, 1.0), (0.4, -0.8)):
        errors = []
        for h in (0.1, 0.05, 0.025):
            grid = TimeGrid.from_step(0.0, span, h)
            path = Path.from_function(
                grid, lambda t: x0 * math.cos(t) + v0 * math.sin(t)
            )
            gap = abs(midpoint_action(HARMONIC, path) - continuous_action(HARMONIC, path))
            # sup |Hess V| = k = 1 for the unit harmonic oscillator
            bound = grid.max_spacing**2 * 1.0 * path.velocity_sq_integral()
            assert gap <= bound
            errors.append(gap)
        for coarse, fine in zip(errors, errors[1:]):
            order = math.log2(coarse / fine)
            orders.append(order)
            assert 1.8 <= order <= 2.2
    return f"orders {min(orders):.2f}..{max(orders):.2f}"


@criterion(4, "discrete flow converges to the reference extremal at order >= 1.8")
def test_c04_trajectory_convergence_order():
    # launched where the force vanishes so the first-difference initialization
    # does not cap the scheme's quadratic rate
    span = math.pi / 2
    orders = []
    for start in (PhasePoint(0.0, 1.0), PhasePoint(0.0, 0.6)):
        errors = []
        for h in (0.04, 0.02, 0.01, 0.005):
            grid = TimeGrid.from_step(0.0, span, h)
            disc = discrete_flow(HARMONIC, start, grid)
            ref = reference_flow(HARMONIC, start, grid)
            errors.append(uniform_distance(disc.path, ref.path))
        for coarse, fine in zip(errors, errors[1:]):
            order = math.log2(coarse / fine)
            orders.append(order)
            assert order >= 1.8
    return f"orders {min(orders):.2f}..{max(orders):.2f}"


@criterion(5, "energy deviation over 1e5 steps bounded by its first-100-step fit, no drift")
def test_c05_energy_near_conservation():
    tic = time.perf_counter()
    h, steps = 0.01, 100_000
    grid = TimeGrid.uniform(0.0, h * steps, steps)
    result = discrete_flow(HARMONIC, PhasePoint(1.0, 0.0), grid)
    positions = result.path.nodes[:, 0]
    velocity = np.diff(positions) / h
    energy = 0.5 * velocity**2 + 0.5 * positions[:-1] ** 2
    deviation = np.abs(energy - energy[0])
    fitted = deviation[:100].max()
    assert deviation.max() <= 2.0 * fitted

    times = np.arange(energy.size) * h
    design = np.vstack([times, np.ones_like(times)]).T
    coef, *_ = np.linalg.lstsq(design, energy, rcond=None)
    residual = energy - design @ coef
    slope_se = math.sqrt(
        float(np.sum(residual**2))
        / (energy.size - 2)
        / float(np.sum((times - times.mean()) ** 2))
    )
    assert abs(coef[0]) <= 3.0 * slope_se
    runtime = time.perf_counter() - tic
    assert runtime <= 60.0
    return f"max dev {deviation.max():.2e}, slope/se {abs(coef[0]) / slope_se:.2f}, {runtime:.1f}s"


@criterion(6, "minimal average action converges to the continuum value 2")
def test_c06_minimum_convergence():
    free = free_particle()
    grid = TimeGrid.uniform(0.0, 1.0, 4)
    quant_a = MarginalSpec("uniform_box", low=0.0, high=1.0, sampler="quantile")
    quant_b = MarginalSpec("uniform_box", low=2.0, high=3.0, sampler="quantile")
    for N in (4, 16, 64, 256):
        result = solve_discrete_otm(
            free, sample_marginal(quant_a, N), sample_marginal(quant_b, N), grid
        )
        assert abs(result.min_action - 2.0) <= 1e-10

    medians = []
    for N in (64, 256, 1024):
        deviations = []
        for seed in range(10):
            spec_a = MarginalSpec("uniform_box", low=0.0, high=1.0, sampler="iid", seed=seed)
            spec_b = MarginalSpec(
                "uniform_box", low=2.0, high=3.0, sampler="iid", seed=seed + 1000
            )
            result = solve_discrete_otm(
                free, sample_marginal(spec_a, N), sample_marginal(spec_b, N), grid
            )
            deviations.append(abs(result.min_action - 2.0))
        medians.append(float(np.median(deviations)))
    assert medians[0] > medians[1] > medians[2]
    return f"iid medians {medians[0]:.3g} > {medians[1]:.3g} > {medians[2]:.3g}"


@criterion(7, "transport trajectories are stationary and track reference orbits at rate h")
def test_c07_flow_concentration():
    spec_a = MarginalSpec("uniform_box", low=0.0, high=1.0, sampler="quantile")
    spec_b = MarginalSpec("uniform_box", low=0.5, high=1.5, sampler="quantile")
    N = 32
    source, target = sample_marginal(spec_a, N), sample_marginal(spec_b, N)
    levels = []
    for h in (0.02, 0.01, 0.005):
        grid = TimeGrid.from_step(0.0, 0.2, h)
        result = solve_discrete_otm(
            HARMONIC, source, target, grid, cost_kind="bvp"
        )
        diag = concentration_diagnostics(HARMONIC, result.measure)
        assert np.max(diag.el_residuals) <= 1e-8
        levels.append((grid.max_spacing, float(np.max(diag.reconstruction_distances))))
    rate = levels[0][1] / levels[0][0]
    for h, dist in levels[1:]:
        assert dist <= 2.0 * rate * h
    return f"fitted rate {rate:.3g}, dists {[f'{d:.2e}' for _, d in levels]}"


@criterion(8, "assignment totals equal brute force exactly, 200 instances per size")
def test_c08_assignment_exactness():
    worst = 0.0
    for N in range(2, 8):
        rng = np.random.default_rng(5000 + N)
        for _ in range(200):
            costs = rng.uniform(-1.0, 1.0, (N, N))
            gap = abs(
                solve_assignment(costs).total_cost
                - brute_force_assignment(costs).total_cost
            )
            worst = max(worst, gap)
            assert gap <= 1e-12
    return f"max |total gap| {worst:.1e}"


@criterion(9, "horizon guard rejects span 0.2 and accepts span 0.17 at unit constants")
def test_c09_horizon_guard():
    model = harmonic_oscillator(stiffness=2.0)  # mass 1, growth constant 1
    assert model.admissible_horizon() == pytest.approx(math.sqrt(1 / 32))
    spec_a = MarginalSpec("uniform_box", low=0.0, high=1.0, sampler="quantile")
    spec_b = MarginalSpec("uniform_box", low=0.5, high=1.5, sampler="quantile")
    failing = run_convergence_study(
        model, spec_a, spec_b, Ns=(4,), hs=(0.02,), span=(0.0, 0.2)
    )
    assert not failing.all_ok
    assert all("horizon" in row.error for row in failing.rows)
    passing = run_convergence_study(
        model, spec_a, spec_b, Ns=(4,), hs=(0.02,), span=(0.0, 0.17), cost_kind="bvp"
    )
    assert passing.all_ok
    return "span 0.2 rejected, span 0.17 accepted"


@criterion(10, "amplitude family returns to the origin with vanishing action")
def test_c10_amplitude_family():
    # the oscillator admits extremals of every amplitude joining the origin to
    # itself over a half period; each evaluates to zero action, so minimizing
    # sequences need not stay bounded on long spans
    grid = TimeGrid.uniform(0.0, math.pi, 200)
    fine = TimeGrid.uniform(0.0, math.pi, 2500)
    for amplitude in (1.0, 10.0, 100.0):
        flow = reference_flow(HARMONIC, PhasePoint(0.0, amplitude), grid)
        assert abs(flow.final_state.position[0]) <= 1e-6 * amplitude
        sampled = Path.from_function(fine, lambda t: amplitude * math.sin(t))
        action = continuous_action(HARMONIC, sampled)
        assert abs(action) <= 1e-6 * amplitude**2
    return "endpoint and action checks at amplitudes 1, 10, 100"


@criterion(11, "repeated runs are byte-identical")
def test_c11_determinism(tmp_path):
    config = {
        "model": {"name": "free_particle"},
        "marginal_a": {"kind": "uniform_box", "low": 0.0, "high": 1.0, "sampler": "iid"},
        "marginal_b": {"kind": "uniform_box", "low": 2.0, "high": 3.0, "sampler": "iid"},
        "span": [0.0, 1.0],
        "Ns": [8, 16],
        "hs": [0.2, 0.1],
        "seed": 421,
        "reference_action": 2.0,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    artifacts = []
    for tag in ("a", "b", "c", "d"):
        out = tmp_path / tag
        code = cli_main(["converge", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        artifacts.append((out / "convergence.csv").read_bytes())
    assert all(a == artifacts[0] for a in artifacts)
    return "4 runs byte-identical"
