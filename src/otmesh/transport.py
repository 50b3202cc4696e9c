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
    closed_form_cost_matrix,
    has_closed_form_cost,
)
from .paths import TimeGrid

# largest N the brute-force oracle enumerates (9! = 362880 permutations)
_BRUTE_FORCE_MAX = 9

# pairs x interior nodes x n^2 of one solve_bvp_pairs call in a BVP cost
# matrix: about 10 MB of band matrix, and never less than one source row
_BVP_BATCH_BUDGET = 2**18

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
    ``cost_kind="closed_form"`` uses the catalog formula (free particle or
    harmonic oscillator) and ignores the grid resolution; SolverError reports
    a conjugate span, where the formula has no value, and costs that overflow.
    ``solve_transport`` needs no such matrix for 1-D Monge costs.
    """
    if source.size != target.size:
        raise ValueError(f"cloud sizes differ: {source.size} vs {target.size}")
    if source.dim != target.dim:
        raise DimensionMismatchError("source and target dimensions differ")
    if cost_kind == "closed_form":
        if not has_closed_form_cost(model):
            raise ValueError(f"model {model.name!r} has no closed-form cost")
        try:
            costs = closed_form_cost_matrix(model, source.points, target.points, grid.span)
        except ValueError as exc:  # a span conjugate for the harmonic model
            raise SolverError(f"closed-form costs fail: {exc}") from None
        return _finite(costs)
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
    """(plan, costs) of ``solve_assignment(cost_matrix(...), source=source,
    target=target)``, bitwise, with the same errors.

    Closed-form costs of 1-D clouds that pass the Monge check are never held:
    costs is then a ``ClosedFormCosts``.  A failed check goes to the
    assignment solve on the matrix without a second check.
    """
    if cost_kind == "closed_form" and source.dim == target.dim == 1:
        if has_closed_form_cost(model) and source.size == target.size:
            costs = ClosedFormCosts(model, source, target, grid.span)
            plan = costs.monotone_plan()
            if plan is not None:
                return plan, costs
            matrix = cost_matrix(model, source, target, grid, cost_kind)
            return solve_assignment(matrix), matrix
    matrix = cost_matrix(model, source, target, grid, cost_kind)
    return solve_assignment(matrix, source=source, target=target), matrix


class ClosedFormCosts:
    """The closed-form cost matrix of two 1-D clouds, computed a row block at
    a time.  ``serialize.write_matrix_csv`` reads it as the matrix: it has a
    ``shape``, ``ravel()`` is itself, and ``[start:stop]`` gives those cells of
    the row-major matrix in a buffer that the next slice reuses."""

    def __init__(self, model: LagrangianModel, source: PointCloud, target: PointCloud, span):
        try:
            self.coefficients = _closed_form_coefficients(model, span)
        except ValueError as exc:  # a span conjugate for the harmonic model
            raise SolverError(f"closed-form costs fail: {exc}") from None
        self.x, self.y = source.points[:, 0], target.points[:, 0]
        self.shape = (source.size, target.size)
        self.size = source.size * target.size
        self._rows = np.empty((2, 0, target.size))

    def ravel(self) -> ClosedFormCosts:
        return self

    def __getitem__(self, cells: slice) -> np.ndarray:
        N = self.shape[1]
        start, stop, _ = cells.indices(self.size)
        first, last = start // N, -(-stop // N)
        if last - first > self._rows.shape[1]:
            # a later slice of the same length may reach into one row more
            self._rows = np.empty((2, last - first + 1, N))
        rows = self._rows[:, : last - first]
        self._fill(self.x[first:last], self.y, *rows)
        return rows[0].ravel()[start - first * N : stop - first * N]

    def _fill(self, x, y, out, sums) -> np.ndarray:
        """Costs of the points x (k,) against y (N,), into out (k, N)."""
        # one product per entry, by matmul as closed_form_cost_matrix's X @ Y.T
        # forms it (a -0 product reads +0: a BLAS sum starts at +0)
        np.matmul(x[:, None], y[None, :], out=out)
        return _costs_from_products(out, (x * x)[:, None], y * y, self.coefficients, sums)

    def monotone_plan(self) -> AssignmentPlan | None:
        """The plan of ``solve_assignment`` if the Monge check passes; the check
        runs on row blocks of the sorted matrix, computed from sorted points."""
        N = self.shape[0]
        rows = np.argsort(self.x, kind="stable")
        cols = np.argsort(self.y, kind="stable")
        x, y = self.x[rows], self.y[cols]

        def sorted_rows(first, block, sums):
            _finite(self._fill(x[first : first + len(block)], y, block, sums))

        if not _is_monge(N, sorted_rows):
            return None
        perm = np.empty(N, dtype=int)
        perm[rows] = cols
        # the matched costs in row order, as solve_assignment sums them; for
        # N = 1 this is the one entry, which no Monge block has checked
        matched = self.y[perm]
        pairs, sums = np.empty((2, N))
        np.matmul(self.x[:, None, None], matched[:, None, None], out=pairs[:, None, None])
        _costs_from_products(pairs, self.x * self.x, matched * matched, self.coefficients, sums)
        total = float(_finite(pairs).sum())
        return AssignmentPlan(perm, total, total / N)


def solve_assignment(
    costs: np.ndarray,
    *,
    source: PointCloud | None = None,
    target: PointCloud | None = None,
) -> AssignmentPlan:
    """Minimum-total-cost perfect matching of rows to columns.

    When both clouds are given and both are one-dimensional, rows and columns
    are ordered by a stable sort of their points and the sorted matrix S is
    checked for the adjacent Monge inequalities
    S[i, j] + S[i+1, j+1] <= S[i, j+1] + S[i+1, j], exactly, with no
    tolerance.  Where they hold the monotone matching (i-th smallest source
    to i-th smallest target) is optimal, as for the free particle and the
    harmonic model below its conjugate span, and is returned without an
    assignment solve.  Every other matrix (no clouds, clouds of dimension
    two or more, or a failed check) goes to scipy's ``linear_sum_assignment``.
    ``solve_transport`` runs this check on closed-form costs computed from
    1-D clouds a row block at a time, and builds their matrix only if it fails.

    Negative entries are allowed (Lagrangian costs can be negative); the
    matrix is shifted by its minimum before the assignment solve, which does
    not change the minimizing permutation, and the reported totals are in the
    original scale.  Ties are broken by the stable sort or by the solver's
    deterministic scan order, so only totals are stable under ties.
    """
    M = np.asarray(costs, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {M.shape}")
    # min and max are NaN or infinite if any entry is; no N x N temporary
    if M.size and not (np.isfinite(M.min()) and np.isfinite(M.max())):
        raise ValueError("cost matrix entries must be finite")
    matching = _monotone_matching(M, source, target)
    if matching is None:
        matching = linear_sum_assignment(M - M.min())
    rows, cols = matching
    perm = np.empty(M.shape[0], dtype=int)
    perm[rows] = cols
    total = float(M[np.arange(M.shape[0]), perm].sum())
    return AssignmentPlan(perm, total, total / M.shape[0])


def _monotone_matching(
    M: np.ndarray, source: PointCloud | None, target: PointCloud | None
) -> tuple[np.ndarray, np.ndarray] | None:
    """Sorting orders (rows, cols) of 1-D clouds if M passes the Monge check."""
    if source is None or target is None:
        return None
    N = M.shape[0]
    if source.size != N or target.size != N:
        raise ValueError(
            f"cloud sizes {source.size} and {target.size} do not match "
            f"the {N} x {N} cost matrix"
        )
    if source.dim != 1 or target.dim != 1:
        return None
    rows = np.argsort(source.points[:, 0], kind="stable")
    cols = np.argsort(target.points[:, 0], kind="stable")

    def sorted_rows(first, block, spare):
        # take with mode="clip" writes straight into out; "raise" buffers it
        np.take(M, rows[first : first + len(block)], axis=0, out=spare, mode="clip")
        np.take(spare, cols, axis=1, out=block, mode="clip")

    return (rows, cols) if _is_monge(N, sorted_rows) else None


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
