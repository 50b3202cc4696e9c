"""Connection costs from minimizing trajectories.

The cost of moving a particle from x to y over a time window is the least
action among all curves joining them.  For the free particle and the harmonic
oscillator the value is known in closed form; the boundary-value solver
reproduces it from the discretized action, and multistart clustering reveals
non-unique minimizers when a potential ridge offers two equally good detours.
"""

import numpy as np

from otmesh import (
    LagrangianModel,
    TimeGrid,
    closed_form_cost,
    free_particle,
    harmonic_oscillator,
    solve_bvp,
)

print("=== free particle: straight lines ===")
model = free_particle()
grid = TimeGrid.uniform(0.0, 1.0, 64)
result = solve_bvp(model, 0.0, 2.0, grid)
print(f"cost 0 -> 2 over [0, 1]: {result.cost:.12f}  (closed form: 2)")
print(f"residual {result.residual:.2e}, Newton iterations {result.newton_iterations}")

print()
print("=== harmonic oscillator: closed form vs discrete minimizer ===")
model = harmonic_oscillator()
for span in (0.3, 0.8, np.pi / 2):
    grid = TimeGrid.uniform(0.0, span, 400)
    for x, y in ((0.0, 1.0), (1.0, 1.0)):
        solved = solve_bvp(model, x, y, grid)
        exact = closed_form_cost(model, x, y, span)
        print(
            f"span {span:.4f}  c({x}, {y}) = {solved.cost:+.8f}"
            f"   closed form {exact:+.8f}   gap {abs(solved.cost - exact):.2e}"
        )

print()
print("=== a ridge potential with two mirror minimizers ===")
# V is maximal on the unit circle; action minimizers hug the ridge, so two
# symmetric trajectories join (-1, 0) to (1, 0)
ridge = LagrangianModel(
    mass=1.0,
    potential=lambda x: -np.square(np.sum(np.square(x), axis=-1) - 1.0),
    grad_potential=lambda x: (
        -4.0 * (np.sum(np.square(x), axis=-1) - 1.0)[..., None] * np.asarray(x, float)
    ),
    hess_bound=lambda r: 12.0 * r**2 + 4.0,
    quadratic_growth=6.4,
)
grid = TimeGrid.uniform(0.0, 3.0, 48)
result = solve_bvp(
    ridge,
    np.array([-1.0, 0.0]),
    np.array([1.0, 0.0]),
    grid,
    n_restarts=5,
)
# rounded first and then shifted by +0.0, so that a rounding-noise -0.000 cannot show
midway = np.round(result.path.evaluate(1.5), 3) + 0.0
print(f"converged: {result.converged},  distinct minimizer clusters: {result.multiplicity}")
print(f"winning trajectory passes through ({midway[0]:+.3f}, {midway[1]:+.3f}) at mid-time")
print(f"cost {result.cost:.6f}")
