"""Discrete mass transport: cost matrices, optimal assignment, brute oracle."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._native import linear_sum_assignment
from .errors import DimensionMismatchError, SolverError
from .integrators import solve_bvp_pairs
# unused here, but bench/tracing.py wraps this name in this module
from .integrators import solve_bvp  # noqa: F401
from .models import (
    LagrangianModel,
    _closed_form_coefficients,
    _costs_from_products,
    has_closed_form_cost,
)
from .paths import TimeGrid

# largest N the brute-force oracle enumerates (9! = 362880 permutations)
_BRUTE_FORCE_MAX = 9

# pairs x interior nodes x n^2 of one solve_bvp_pairs call in a BVP cost
# matrix: 2 MB of midpoint Hessians, and never less than one source row
_BVP_BATCH_BUDGET = 2**18

# entries of one row block of a closed-form cost matrix, built in place: the
# block's |x|^2 + |y|^2 take 256 KB, and 32 rows at N = 1024
_COST_BLOCK_BUDGET = 2**15

# entries of one row block of the sorted matrix in the 1-D Monge check: 1 MB
# in each of its two block buffers, and 128 rows at N = 1024
_MONGE_BLOCK_BUDGET = 2**17


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
        if pts.shape[1] == 0:
            raise ValueError("points need at least one coordinate")
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

    ``cost_kind="bvp"`` solves one boundary-value problem per pair with
    ``solve_bvp_pairs``, whole source rows per call, as many as keep pairs x
    interior nodes x n^2 within ``_BVP_BATCH_BUDGET`` (at least one row).  A
    pair's solve does not depend on its batch, so each entry is bitwise the
    cost ``solve_bvp`` gives.  SolverError names the first pair in row-major
    order that fails, with its reason; no pair is solved again.
    ``cost_kind="closed_form"`` is ``ClosedFormCosts(...).matrix()``, the
    catalog formula over the grid's span at any resolution.  ``solve_transport``,
    which every match of two clouds goes through, builds no such matrix for
    1-D closed-form costs that pass its Monge check.
    """
    if source.size != target.size:
        raise ValueError(f"cloud sizes differ: {source.size} vs {target.size}")
    if source.dim != target.dim:
        raise DimensionMismatchError("source and target dimensions differ")
    if cost_kind == "closed_form":
        return ClosedFormCosts(model, source, target, grid.span).matrix()
    if cost_kind != "bvp":
        raise ValueError(f"unknown cost kind {cost_kind!r}")

    N = source.size
    per_row = N * max(1, grid.n_intervals - 1) * source.dim**2
    rows = max(1, _BVP_BATCH_BUDGET // per_row)
    costs = np.empty((N, N))
    for first in range(0, N, rows):
        last = min(N, first + rows)
        x = np.repeat(source.points[first:last], N, axis=0)
        y = np.tile(target.points, (last - first, 1))
        batch = solve_bvp_pairs(model, x, y, grid)
        failed = np.flatnonzero(~batch.converged)
        if failed.size:
            i, j = divmod(int(failed[0]), N)
            raise SolverError(
                f"boundary-value solve failed for pair ({first + i}, {j}): "
                f"{batch.message(failed[0])}"
            )
        costs[first:last] = batch.costs.reshape(last - first, N)
    return costs


def _finite(costs: np.ndarray) -> np.ndarray:
    # min and max are NaN or infinite if any entry is; no temporary of costs' size
    if not (np.isfinite(costs.min()) and np.isfinite(costs.max())):
        raise SolverError("closed-form costs overflow: the clouds lie too far apart")
    return costs


def solve_transport(
    model: LagrangianModel,
    source: PointCloud,
    target: PointCloud,
    grid: TimeGrid,
    cost_kind: str = "bvp",
) -> tuple[AssignmentPlan, np.ndarray | ClosedFormCosts]:
    """Minimum-total-cost matching of the two clouds under ``cost_matrix``'s
    costs, as (plan, costs), with ``cost_matrix``'s errors.

    For 1-D clouds the rows and columns are ordered by a stable sort of their
    points, and the sorted matrix S is checked for the adjacent Monge
    inequalities S[i, j] + S[i+1, j+1] <= S[i, j+1] + S[i+1, j], exactly,
    with no tolerance.  Where they hold the monotone matching (i-th smallest
    source to i-th smallest target) is optimal, as for the free particle and
    the harmonic model below its conjugate span, and no assignment solve
    runs.  Closed-form costs are then never held: the check runs on row
    blocks of a ``ClosedFormCosts``, which is returned as costs.
    Every other case (dimension two or more, a failed check) goes to
    ``solve_assignment`` on the matrix, without a second check.  Under ties
    the stable sort or the solver's scan order picks the permutation.
    """
    if cost_kind == "closed_form" and source.dim == target.dim == 1 and source.size == target.size:
        costs = ClosedFormCosts(model, source, target, grid.span)
        plan = _monotone_plan(source.points[:, 0], target.points[:, 0], costs._pairs)
        if plan is not None:
            return plan, costs
    matrix = cost_matrix(model, source, target, grid, cost_kind)
    if cost_kind == "bvp" and source.dim == 1:
        plan = _monotone_plan(source.points[:, 0], target.points[:, 0], _held(matrix))
        if plan is not None:
            return plan, matrix
    return solve_assignment(matrix), matrix


class ClosedFormCosts:
    """The closed-form costs of two clouds: ``matrix()`` holds them, and for
    1-D clouds ``[first:last]`` gives those rows as a (k, N) array in a buffer
    the next slice reuses.  SolverError reports a conjugate span, where the
    formula has no value, and costs that overflow."""

    def __init__(self, model: LagrangianModel, source: PointCloud, target: PointCloud, span):
        if not has_closed_form_cost(model):
            raise ValueError(f"model {model.name!r} has no closed-form cost")
        try:
            self.coefficients = _closed_form_coefficients(model, span)
        except ValueError as exc:  # a span conjugate for the harmonic model
            raise SolverError(f"closed-form costs fail: {exc}") from None
        self.X, self.Y = source.points, target.points
        self.shape = (source.size, target.size)
        self._rows = np.empty((2, 0, target.size))

    def matrix(self) -> np.ndarray:
        X, Y = self.X, self.Y
        sq_x, sq_y = np.sum(X * X, axis=1)[:, None], np.sum(Y * Y, axis=1)
        costs = X @ Y.T  # whole: a row block's own product can differ in the last bit
        N, M = costs.shape
        rows = max(1, _COST_BLOCK_BUDGET // M)
        block = np.empty((min(rows, N), M))
        for first in range(0, N, rows):
            cross = costs[first : first + rows]
            sums = block[: len(cross)]
            _costs_from_products(cross, sq_x[first : first + rows], sq_y, self.coefficients, sums)
        return _finite(costs)

    def __getitem__(self, rows: slice) -> np.ndarray:
        x = self.X[rows, 0, None]
        if len(x) > self._rows.shape[1]:
            self._rows = np.empty((2, len(x), self.shape[1]))
        return self._fill(x, self.Y[None, :, 0], *self._rows[:, : len(x)])

    def _fill(self, x, y, out, sums) -> np.ndarray:
        """Costs of the 1-D points x (..., k, 1) against y (..., 1, N), into out."""
        # one product per entry, by matmul as matrix()'s X @ Y.T forms it
        # (a -0 product reads +0: a BLAS sum starts at +0)
        np.matmul(x, y, out=out)
        return _costs_from_products(out, x * x, y * y, self.coefficients, sums)

    def _pairs(self, i, j, out, sums) -> np.ndarray:
        """Row source of ``_monotone_plan``: the costs of x[i] against y[j]."""
        return _finite(self._fill(self.X[i, 0], self.Y[j, 0], out, sums))


def _held(M: np.ndarray):
    """Row source of ``_monotone_plan`` that reads the held matrix M."""
    # take with mode="clip" writes straight into out; "raise" buffers it
    return lambda i, j, out, spare: np.take(M, i * M.shape[1] + j, out=out, mode="clip")


def solve_assignment(costs: np.ndarray) -> AssignmentPlan:
    """Minimum-total-cost perfect matching of rows to columns, by scipy's
    ``linear_sum_assignment``.

    Negative entries are allowed (Lagrangian costs can be negative); the
    matrix is shifted by its minimum before the assignment solve, which does
    not change the minimizing permutation, and the reported totals are in the
    original scale.  Ties are broken by the solver's deterministic scan
    order, so only totals are stable under ties.
    """
    M = np.asarray(costs, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {M.shape}")
    if not M.size:
        raise ValueError("cost matrix needs at least one row")
    # min and max are NaN or infinite if any entry is; no N x N temporary
    if not (np.isfinite(M.min()) and np.isfinite(M.max())):
        raise ValueError("cost matrix entries must be finite")
    rows, cols = linear_sum_assignment(M - M.min())
    perm = np.empty(M.shape[0], dtype=int)
    perm[rows] = cols
    total = float(M[np.arange(M.shape[0]), perm].sum())
    return AssignmentPlan(perm, total, total / M.shape[0])


def _monotone_plan(x: np.ndarray, y: np.ndarray, costs) -> AssignmentPlan | None:
    """The monotone plan of the 1-D points x and y (N,) if their sorted cost
    matrix passes the Monge check, else None.

    ``costs(i, j, out, spare)`` writes the costs of x[i] against y[j] into
    out, for index arrays that broadcast to its shape, with spare as scratch
    of that shape: ``ClosedFormCosts._pairs`` or ``_held(M)``.
    """
    N = x.size
    rows = np.argsort(x, kind="stable")
    cols = np.argsort(y, kind="stable")

    def sorted_rows(first, block, spare):
        costs(rows[first : first + len(block), None], cols[None], block, spare)

    if not _is_monge(N, sorted_rows):
        return None
    perm = np.empty(N, dtype=int)
    perm[rows] = cols
    # the matched costs in row order, as solve_assignment sums them; for
    # N = 1 this is the one entry, which no Monge block has checked
    pairs = np.empty((2, N))
    costs(np.arange(N)[:, None, None], perm[:, None, None], *pairs[:, :, None, None])
    total = float(pairs[0].sum())
    return AssignmentPlan(perm, total, total / N)


def _is_monge(N: int, sorted_rows) -> bool:
    """Whether the sorted N x N matrix S passes the adjacent Monge check.

    ``sorted_rows(first, block, spare)`` writes rows first, first + 1, ... of
    S into the (k, N) block, with spare as scratch of its shape.  The blocks
    share their edge rows and are differenced inside the two block buffers,
    so no N x N temporary is built; each inequality is tested as on the
    whole S (a NaN difference makes the max NaN, and fails "<= 0").
    """
    step = max(1, _MONGE_BLOCK_BUDGET // N)
    spare, S = np.empty((2, min(step, N - 1) + 1, N))
    for first in range(0, N - 1, step):
        k = min(step, N - 1 - first) + 1
        sorted_rows(first, S[:k], spare[:k])
        down = np.subtract(S[1:k], S[: k - 1], out=spare[: k - 1])
        mixed = np.subtract(down[:, 1:], down[:, :-1], out=S[: k - 1, :-1])
        if not mixed.max() <= 0:
            return False
    return True


def brute_force_assignment(costs: np.ndarray) -> AssignmentPlan:
    """Exhaustive minimum over all permutations; oracle for solve_assignment.

    Ties are broken toward the lexicographically smallest permutation.
    """
    M = np.asarray(costs, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {M.shape}")
    if not M.size:
        raise ValueError("cost matrix needs at least one row")
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
