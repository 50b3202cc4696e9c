"""Empirical measures on path space and phase space, and their diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DimensionMismatchError
from .integrators import _interior_defects, reference_flow_batch
# unused here, but bench/tracing.py wraps these names in this module
from .integrators import el_residual, reference_flow  # noqa: F401
from .models import LagrangianModel
from .paths import Path, PhasePoint, TimeGrid, midpoint_action, uniform_distance
from .transport import PointCloud, solve_assignment


@dataclass(frozen=True)
class EmpiricalPathMeasure:
    """Uniform-weight sum of path masses (1/N) sum delta_{gamma_i}."""

    paths: tuple[Path, ...]

    def __post_init__(self):
        paths = tuple(self.paths)
        if not paths:
            raise ValueError("a path measure needs at least one path")
        dims = {p.dim for p in paths}
        if len(dims) != 1:
            raise DimensionMismatchError(f"paths mix dimensions {sorted(dims)}")
        spans = {(p.grid.start, p.grid.end) for p in paths}
        if len(spans) != 1:
            raise ValueError(f"paths cover different time spans: {sorted(spans)}")
        object.__setattr__(self, "paths", paths)

    @property
    def size(self) -> int:
        return len(self.paths)

    @property
    def dim(self) -> int:
        return self.paths[0].dim

    @property
    def time_span(self) -> tuple[float, float]:
        g = self.paths[0].grid
        return g.start, g.end

    def common_grid_nodes(self) -> np.ndarray | None:
        """Shared node vector when every path lives on the same grid."""
        ref = self.paths[0].grid.nodes
        for p in self.paths[1:]:
            if not np.array_equal(p.grid.nodes, ref):
                return None
        return ref

    def replicate(self, factor: int) -> "EmpiricalPathMeasure":
        """Duplicate every atom; represents the same measure as a multiset."""
        if factor < 1:
            raise ValueError("replication factor must be >= 1")
        return EmpiricalPathMeasure(self.paths * factor)


@dataclass(frozen=True)
class PhaseMeasure:
    """Uniform-weight empirical measure on phase space R^n x R^n."""

    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        vel = np.atleast_2d(np.asarray(self.velocities, dtype=float))
        if pos.shape != vel.shape:
            raise DimensionMismatchError("positions and velocities shapes differ")
        if pos.shape[0] == 0:
            raise ValueError("a phase measure needs at least one state")
        pos, vel = pos.copy(), vel.copy()
        pos.setflags(write=False)
        vel.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "velocities", vel)

    @classmethod
    def from_states(cls, states) -> "PhaseMeasure":
        return cls(
            np.stack([s.position for s in states]),
            np.stack([s.velocity for s in states]),
        )

    @property
    def size(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def states(self) -> Iterator[PhasePoint]:
        for x, v in zip(self.positions, self.velocities):
            yield PhasePoint(x, v)


def push_forward_flow(
    model: LagrangianModel,
    eta: PhaseMeasure,
    grid: TimeGrid,
    kind: str = "discrete",
    threads: int = 1,
    substeps_per_interval: int = 16,
    guard_radius: float = 1e6,
) -> EmpiricalPathMeasure:
    """Launch every phase-space atom along a flow; path i comes from state i.

    ``kind="reference"`` integrates all atoms in one batched RK4 reference
    flow, ``kind="discrete"`` marches the midpoint recurrence atom by atom.
    ``threads`` is accepted and ignored.  For unbounded potentials the caller
    is responsible for keeping the span within the admissible horizon when
    the resulting measure feeds a minimization; pure flow studies remain
    valid beyond it.
    """
    from .integrators import discrete_flow  # local import keeps module load light

    if kind == "reference":
        nodes, _, _ = reference_flow_batch(
            model,
            eta.positions,
            eta.velocities,
            grid,
            substeps_per_interval,
            guard_radius,
        )
        paths = tuple(Path(grid, path_nodes) for path_nodes in nodes)
    elif kind == "discrete":
        paths = tuple(discrete_flow(model, s, grid).path for s in eta.states())
    else:
        raise ValueError(f"unknown flow kind {kind!r}")
    return EmpiricalPathMeasure(paths)


def marginal_at_time(pi: EmpiricalPathMeasure, t: float) -> PointCloud:
    """Push the path measure through evaluation at time t."""
    a, b = pi.time_span
    if not (a <= t <= b):
        raise ValueError(f"time {t} outside the measure's span [{a}, {b}]")
    return PointCloud(np.stack([p.evaluate(t) for p in pi.paths]))


def _atoms_at(measure: EmpiricalPathMeasure, times: np.ndarray) -> np.ndarray:
    """Every atom of a common-grid measure evaluated at the times, (N, T, n)."""
    idx, u = measure.paths[0].grid.locate(times)
    u = u[:, None]
    nodes = np.stack([path.nodes for path in measure.paths])
    # the formula of Path.evaluate, so values agree with it bitwise
    return (1.0 - u) * nodes[:, idx] + u * nodes[:, idx + 1]


def _pairwise_sup_distances(
    p: EmpiricalPathMeasure, q: EmpiricalPathMeasure
) -> np.ndarray:
    """Matrix of sup-over-time distances between the atoms of two measures.

    When each measure has a common grid (the two grids may differ), all atoms
    are evaluated at the merged nodes, where the supremum is attained, and a
    running maximum over those times keeps temporaries at (N_p, N_q, n).  The
    result equals ``uniform_distance`` pair by pair, bitwise; the per-pair
    call is only made for measures without a common grid.
    """
    if p.time_span != q.time_span:
        raise ValueError(
            f"measures cover different time spans {p.time_span} vs {q.time_span}"
        )
    nodes_p = p.common_grid_nodes()
    nodes_q = q.common_grid_nodes()
    if nodes_p is None or nodes_q is None:
        return np.array(
            [[uniform_distance(pi, qj) for qj in q.paths] for pi in p.paths]
        )
    times = np.union1d(nodes_p, nodes_q)
    A = _atoms_at(p, times)
    B = _atoms_at(q, times)
    out = np.linalg.norm(A[:, None, 0] - B[None, :, 0], axis=-1)
    for k in range(1, times.size):
        np.maximum(out, np.linalg.norm(A[:, None, k] - B[None, :, k], axis=-1), out=out)
    return out


def bl_distance_bound(
    p: EmpiricalPathMeasure, q: EmpiricalPathMeasure, cutoff: float = 2.0
) -> float:
    """Assignment upper bound for the bounded-Lipschitz distance.

    Computes the optimal-matching average of min(sup-distance, cutoff).  Any
    test function with sup-norm plus Lipschitz constant at most one changes by
    at most min(d, 2) between paths at sup-distance d, so with cutoff 2 this
    is an upper bound for the bounded-Lipschitz distance.  It is itself a
    transport metric on equal-size multisets and vanishes iff the multisets
    coincide; it is used as a convergence diagnostic, not as the exact value.
    """
    if p.size != q.size:
        raise ValueError(f"measures have different sizes: {p.size} vs {q.size}")
    if p.dim != q.dim:
        raise DimensionMismatchError("measures have different space dimensions")
    ground = np.minimum(_pairwise_sup_distances(p, q), cutoff)
    return solve_assignment(ground).average_cost


@dataclass(frozen=True)
class ConcentrationReport:
    """Per-path stationarity and flow-reconstruction diagnostics.

    ``reconstruction_distances[i]`` is the sup-distance between path i and the
    reference orbit launched from its own initial phase point (position at the
    start, first difference quotient as velocity); small values certify that
    the measure is carried by orbits of the reference flow at the grid's
    resolution.
    """

    el_residuals: np.ndarray
    reconstruction_distances: np.ndarray
    midpoint_actions: np.ndarray

    def summary(self) -> dict:
        def agg(arr: np.ndarray) -> dict:
            return {
                "max": float(np.max(arr)),
                "mean": float(np.mean(arr)),
                "median": float(np.median(arr)),
                "q90": float(np.quantile(arr, 0.9)),
            }

        return {
            "n_paths": int(self.el_residuals.size),
            "el_residual": agg(self.el_residuals),
            "reconstruction_distance": agg(self.reconstruction_distances),
            "midpoint_action": agg(self.midpoint_actions),
        }


def concentration_diagnostics(
    model: LagrangianModel,
    pi: EmpiricalPathMeasure,
    threads: int = 1,
    substeps_per_interval: int = 16,
    guard_radius: float = 1e6,
) -> ConcentrationReport:
    """Quantify how close a path measure is to flow-concentrated stationarity.

    Paths are grouped by grid and every group is diagnosed at once: one
    batched RK4 reference flow from the first nodes and first difference
    quotients, sup-distances over the shared nodes, and EL residuals from the
    batched interior defects.  The values are bitwise those of ``el_residual``
    and ``uniform_distance`` applied path by path.  ``threads`` is accepted
    and ignored.
    """
    resids = np.zeros(pi.size)
    dists = np.empty(pi.size)
    groups: dict[bytes, list[int]] = {}
    for i, path in enumerate(pi.paths):
        groups.setdefault(path.grid.nodes.tobytes(), []).append(i)
    for members in groups.values():
        grid = pi.paths[members[0]].grid
        dt = grid.spacings
        X = np.stack([pi.paths[i].nodes for i in members])  # (P, l+1, n)
        if grid.n_intervals >= 2:
            defects = _interior_defects(model, X, dt)
            resids[members] = np.max(np.linalg.norm(defects, axis=-1), axis=-1)
        v0 = (X[:, 1] - X[:, 0]) / dt[0]
        orbits, _, _ = reference_flow_batch(
            model, X[:, 0], v0, grid, substeps_per_interval, guard_radius
        )
        dists[members] = np.max(np.linalg.norm(X - orbits, axis=-1), axis=-1)
    actions = np.array([midpoint_action(model, path) for path in pi.paths])
    return ConcentrationReport(resids, dists, actions)
