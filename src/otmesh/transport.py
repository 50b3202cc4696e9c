"""Discrete mass transport: cost matrices, optimal assignment, brute oracle."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DimensionMismatchError, SolverError
from .integrators import solve_bvp, solve_bvp_batch
from .models import LagrangianModel, closed_form_cost_matrix, has_closed_form_cost
from .paths import TimeGrid

# largest N the brute-force oracle enumerates (9! = 362880 permutations)
_BRUTE_FORCE_MAX = 9


@dataclass(frozen=True)
class PointCloud:
    """Uniform-weight point set representing the empirical measure (1/N) sum delta."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("a point cloud needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class AssignmentPlan:
    """Permutation matching row i to column perm[i], with its cost totals."""

    perm: np.ndarray
    total_cost: float
    average_cost: float

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=int)
        if sorted(perm.tolist()) != list(range(perm.size)):
            raise ValueError("perm is not a permutation of 0..N-1")
        perm = perm.copy()
        perm.setflags(write=False)
        object.__setattr__(self, "perm", perm)


def cost_matrix(
    model: LagrangianModel,
    source: PointCloud,
    target: PointCloud,
    grid: TimeGrid,
    cost_kind: str = "bvp",
) -> np.ndarray:
    """Matrix of connection costs c(x_i, y_j) over the grid's time span.

    ``cost_kind="bvp"`` solves one boundary-value problem per pair with the
    Newton core of ``solve_bvp``, a whole source row at once: its steps come
    from one block-tridiagonal elimination over the N targets
    (``solve_bvp_batch``), so memory stays O(N l n^2).  The elimination does
    not pivot between blocks, so on an indefinite Jacobian a pair can stall
    where the pivoted sparse LU of ``solve_bvp`` does not; each pair the
    batch fails is solved again by ``solve_bvp``, and SolverError names the
    first pair in row-major order that fails there too, with its reason.
    ``cost_kind="closed_form"`` uses the catalog formula (free particle or
    harmonic oscillator) and ignores the grid resolution; SolverError reports
    costs that overflow.
    """
    if source.size != target.size:
        raise ValueError(f"cloud sizes differ: {source.size} vs {target.size}")
    if source.dim != target.dim:
        raise DimensionMismatchError("source and target dimensions differ")
    if cost_kind == "closed_form":
        if not has_closed_form_cost(model):
            raise ValueError(f"model {model.name!r} has no closed-form cost")
        costs = closed_form_cost_matrix(model, source.points, target.points, grid.span)
        # min and max are NaN or infinite if any entry is; no N x N temporary
        if not (np.isfinite(costs.min()) and np.isfinite(costs.max())):
            raise SolverError("closed-form costs overflow: the clouds lie too far apart")
        return costs
    if cost_kind != "bvp":
        raise ValueError(f"unknown cost kind {cost_kind!r}")

    N = source.size
    costs = np.empty((N, N))
    for i in range(N):
        x = np.broadcast_to(source.points[i], target.points.shape)
        row = solve_bvp_batch(model, x, target.points, grid)
        costs[i] = row.costs
        for j in np.flatnonzero(~row.converged):
            result = solve_bvp(model, source.points[i], target.points[j], grid)
            if not result.converged:
                raise SolverError(
                    f"boundary-value solve failed for pair ({i}, {j}): {result.message}"
                )
            costs[i, j] = result.cost
    return costs


def solve_assignment(costs: np.ndarray) -> AssignmentPlan:
    """Minimum-total-cost perfect matching of rows to columns.

    Negative entries are allowed (Lagrangian costs can be negative); the
    matrix is shifted by its minimum before the assignment solve, which does
    not change the minimizing permutation, and the reported totals are in the
    original scale.  Ties are broken by the solver's deterministic scan
    order, so only totals are stable under ties.
    """
    M = np.asarray(costs, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("cost matrix entries must be finite")
    rows, cols = linear_sum_assignment(M - M.min())
    perm = np.empty(M.shape[0], dtype=int)
    perm[rows] = cols
    total = float(M[np.arange(M.shape[0]), perm].sum())
    return AssignmentPlan(perm, total, total / M.shape[0])


def brute_force_assignment(costs: np.ndarray) -> AssignmentPlan:
    """Exhaustive minimum over all permutations; oracle for solve_assignment.

    Ties are broken toward the lexicographically smallest permutation.
    """
    M = np.asarray(costs, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {M.shape}")
    N = M.shape[0]
    if N > _BRUTE_FORCE_MAX:
        raise ValueError(f"brute force limited to N <= {_BRUTE_FORCE_MAX}, got {N}")
    index = np.arange(N)
    best_perm = None
    best_total = np.inf
    for perm in itertools.permutations(range(N)):
        total = float(M[index, perm].sum())
        if total < best_total:
            best_total = total
            best_perm = perm
    return AssignmentPlan(np.array(best_perm), best_total, best_total / N)
