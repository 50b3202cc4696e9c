"""Refinement studies: minima converge as N grows and h shrinks.

For the unit-box-to-shifted-box free-particle problem the continuum minimum
is exactly 2 (pair each mass quantile with its shift by two), so quantile
sampling reproduces it at every resolution, while iid sampling fluctuates
around it with shrinking error.  For unbounded potentials the study enforces
the admissible-horizon bound unless explicitly overridden.
"""

import numpy as np

from otmesh import (
    MarginalSpec,
    free_particle,
    harmonic_oscillator,
    run_convergence_study,
)
from otmesh.serialize import convergence_report_to_csv

quant_a = MarginalSpec("uniform_box", low=0.0, high=1.0, sampler="quantile")
quant_b = MarginalSpec("uniform_box", low=2.0, high=3.0, sampler="quantile")

print("=== free particle, quantile sampling: exact at every level ===")
report = run_convergence_study(
    free_particle(),
    quant_a,
    quant_b,
    Ns=(4, 16, 64),
    hs=(0.25, 0.125, 0.0625),
    span=(0.0, 1.0),
    reference_action=2.0,
)
print(convergence_report_to_csv(report))

print("=== free particle, iid sampling: Monte-Carlo fluctuation shrinks ===")
for N in (64, 256, 1024):
    deviations = []
    for seed in range(5):
        iid_a = MarginalSpec("uniform_box", low=0.0, high=1.0, sampler="iid", seed=seed)
        iid_b = MarginalSpec("uniform_box", low=2.0, high=3.0, sampler="iid", seed=seed + 100)
        rep = run_convergence_study(
            free_particle(), iid_a, iid_b, Ns=(N,), hs=(0.25,), span=(0.0, 1.0),
            reference_action=2.0,
        )
        deviations.append(abs(rep.rows[0].min_action - 2.0))
    print(f"N = {N:5d}   median |min_action - 2| over 5 seeds = {np.median(deviations):.4f}")

print()
print("=== harmonic oscillator: the horizon guard ===")
model = harmonic_oscillator(stiffness=2.0)  # unit mass and growth constant
bound = model.admissible_horizon()
print(f"admissible midpoint horizon: {bound:.6f}")
spec_b = MarginalSpec("uniform_box", low=0.5, high=1.5, sampler="quantile")
failing = run_convergence_study(
    model, quant_a, spec_b, Ns=(4,), hs=(0.02,), span=(0.0, 0.2)
)
print(f"span 0.2  -> status {failing.rows[0].status}: {failing.rows[0].error[:72]}...")
passing = run_convergence_study(
    model, quant_a, spec_b, Ns=(4,), hs=(0.02,), span=(0.0, 0.17), cost_kind="bvp"
)
print(f"span 0.17 -> status {passing.rows[0].status}, min_action {passing.rows[0].min_action:.6f}")
