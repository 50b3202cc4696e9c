"""Seeded inputs and correctness oracles for the benchmark workloads.

Every workload is one otmesh CLI study.  The benchmark draws the study's
inputs from the workload seed and hands the program only the generated config
and ``--seed`` (read by the iid marginal samplers of the converge studies,
ignored by ``transport``); the seed moves sample points, never the problem
sizes.

The sizes are about a quarter of the README-shaped studies so that several
fresh-process studies fit in one measured run, while each workload keeps the
layer that dominates it:

- converge_closed: bounded-Lipschitz bound on mixed grids plus RK4 diagnostics
- converge_bvp2d: per-pair cost-matrix boundary solves, n = 2, nonlinear
- transport_1d: the assignment solve plus the cost-matrix CSV
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# max_el_residual of every converge row must stay below this; the solvers
# converge to about 1e-12
EL_TOL = 1e-9
# |finest min_action - 2| for 128 iid points per marginal has a standard
# deviation of about 0.07 over seeds; 0.35 is five of them
REFERENCE_TOL = 0.35
# min_action and transport totals against the monotone matching, relative
TOTAL_RTOL = 1e-9

TRANSPORT_N = 1024
TRANSPORT_SPAN = 1.0

Check = tuple[str, bool]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    make_config: Callable[[int], dict]
    artifacts: tuple[str, ...]
    check: Callable[[Path, dict, int], list[Check]]

    def argv(self, config: Path, out: Path, seed: int) -> list[str]:
        return [self.command, "--config", str(config), "--out", str(out), "--seed", str(seed)]


def _iid_box(low, high) -> dict:
    return {"kind": "uniform_box", "low": low, "high": high, "sampler": "iid"}


def _converge_closed_config(seed: int) -> dict:
    return {
        "model": {"name": "free_particle"},
        "marginal_a": _iid_box(0.0, 1.0),
        "marginal_b": _iid_box(2.0, 3.0),
        "span": [0.0, 1.0],
        "Ns": [32, 128],
        "hs": [0.1, 0.05],
        "reference_action": 2.0,
    }


def _converge_bvp2d_config(seed: int) -> dict:
    return {
        "model": {"name": "cosine", "params": {"dim": 2, "amplitude": 2.0}},
        "marginal_a": _iid_box([-1.0, -1.0], [1.0, 1.0]),
        "marginal_b": _iid_box([0.0, 0.0], [2.0, 2.0]),
        "span": [0.0, 0.5],
        "Ns": [4, 8, 16],
        "hs": [0.05, 0.025, 0.0125],
    }


def _transport_1d_config(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "model": {"name": "harmonic"},
        "cost_kind": "closed_form",
        "span": [0.0, TRANSPORT_SPAN],
        "intervals": 1,
        "source_points": [rng.uniform(0.0, 1.0) for _ in range(TRANSPORT_N)],
        "target_points": [rng.uniform(0.5, 2.5) for _ in range(TRANSPORT_N)],
    }


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _converge_rows(out: Path) -> tuple[list[dict], list[Check]]:
    rows = _read_rows(out / "convergence.csv")
    checks = [
        (
            f"row N={row['N']} ok, residual {row['max_el_residual']}",
            row["status"] == "ok" and float(row["max_el_residual"]) < EL_TOL,
        )
        for row in rows
    ]
    return rows, checks


def _iid_points(marginal: dict, seed: int, n: int) -> np.ndarray:
    """The points otmesh's iid uniform_box sampler draws for this seed."""
    low, high = np.atleast_1d(marginal["low"]), np.atleast_1d(marginal["high"])
    return np.random.default_rng(seed).uniform(low, high, size=(n, low.size))


def _check_converge_closed(out: Path, config: dict, seed: int) -> list[Check]:
    rows, checks = _converge_rows(out)
    finest = max(rows, key=lambda row: int(row["N"]))
    n, action = int(finest["N"]), float(finest["min_action"])
    checks.append(
        (f"finest min_action {action} near 2.0", abs(action - 2.0) <= REFERENCE_TOL)
    )
    # the free-particle action over span 1 is (y - x)^2 / 2, exact on straight
    # lines, and quadratic costs in 1-D are Monge, so the optimal matching
    # pairs the sorted clouds; marginal_b is drawn with seed + 1
    x = np.sort(_iid_points(config["marginal_a"], seed, n)[:, 0])
    y = np.sort(_iid_points(config["marginal_b"], seed + 1, n)[:, 0])
    monotone = float(np.mean(0.5 * (y - x) ** 2))
    checks.append(
        (
            f"finest min_action {action} equals monotone mean {monotone}",
            abs(action - monotone) <= TOTAL_RTOL * abs(monotone),
        )
    )
    return checks


def _check_converge_bvp2d(out: Path, config: dict, seed: int) -> list[Check]:
    return _converge_rows(out)[1]


def _harmonic_cost(x: float, y: float) -> float:
    """Closed-form action of the unit harmonic oscillator from x to y."""
    c, s = math.cos(TRANSPORT_SPAN), math.sin(TRANSPORT_SPAN)
    return 0.5 * ((x * x + y * y) * c - 2.0 * x * y) / s


def _check_transport_1d(out: Path, config: dict, seed: int) -> list[Check]:
    result = json.loads((out / "transport_result.json").read_text(encoding="utf-8"))
    # the harmonic cost is Monge in 1-D below the conjugate span, so the
    # monotone (sorted) matching is optimal
    monotone = sum(
        _harmonic_cost(x, y)
        for x, y in zip(sorted(config["source_points"]), sorted(config["target_points"]))
    )
    total = result["total_cost"]
    ok = abs(total - monotone) <= TOTAL_RTOL * max(1.0, abs(monotone))
    return [(f"total_cost {total} equals monotone total {monotone}", ok)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "converge_closed", "converge", _converge_closed_config,
            ("convergence.csv",), _check_converge_closed,
        ),
        Workload(
            "converge_bvp2d", "converge", _converge_bvp2d_config,
            ("convergence.csv",), _check_converge_bvp2d,
        ),
        Workload(
            "transport_1d", "transport", _transport_1d_config,
            ("cost_matrix.csv",), _check_transport_1d,
        ),
    )
}
