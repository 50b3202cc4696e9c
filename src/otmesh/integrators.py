"""Flows and boundary-value solvers for the midpoint variational integrator.

The continuous reference flow integrates Newton's equation m x'' = -grad V(x)
with fixed-substep RK4 and serves as the oracle.  The discrete flow marches
the three-term midpoint stationarity recurrence

    m (x_j - x_{j-1})/dt- - m (x_{j+1} - x_j)/dt+
        = (dt-/2) grad V((x_{j-1}+x_j)/2) + (dt+/2) grad V((x_j+x_{j+1})/2)

and the boundary-value solver finds stationary (and, by default, minimizing)
nodal trajectories of the midpoint action with pinned endpoints.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import BlowUpError, NewtonError
from .models import LagrangianModel, as_point
from .paths import Path, PhasePoint, TimeGrid, _midpoint_actions, uniform_distance
# unused here, but bench/tracing.py wraps this name in this module
from .paths import midpoint_action  # noqa: F401


@dataclass(frozen=True)
class FlowResult:
    """Trajectory produced by a flow map, with its terminal phase point."""

    path: Path
    final_state: PhasePoint
    newton_iterations_max: int


@dataclass(frozen=True)
class BvpResult:
    """Two-point boundary solve: trajectory, its midpoint action, residual."""

    path: Path
    cost: float
    residual: float
    converged: bool
    newton_iterations: int
    multiplicity: int = 1
    message: str = ""


@dataclass(frozen=True)
class BvpBatchResult:
    """P two-point solves on one grid, pair p in entry p of every field.

    ``nodes`` is (P, l+1, n); ``costs``, ``residuals``, ``newton_iterations``,
    ``converged`` and ``saddle`` are (P,).  A saddle is not converged.
    """

    nodes: np.ndarray
    costs: np.ndarray
    residuals: np.ndarray
    newton_iterations: np.ndarray
    converged: np.ndarray
    saddle: np.ndarray

    def message(self, p: int) -> str:
        """Why pair p failed, or "" if it converged."""
        if self.saddle[p]:
            return (
                "saddle-point check failed: a nodal perturbation of "
                "size h^2 decreased the action"
            )
        if not self.converged[p]:
            return "Newton did not reach the residual tolerance"
        return ""


# Newton tolerance and iteration cap of every boundary-value solve, the size
# of its minimality screen and the sup-distance that clusters restarts
_BVP_TOL = 1e-12
_BVP_MAX_ITER = 50
_N_PERTURBATIONS = 20
_CLUSTER_RADIUS = 1e-3

# RK4 substeps per grid interval of the reference flow: they keep its O(dt^4)
# error negligible against the O(h) / O(h^2) effects it referees.  A
# trajectory leaving the guard radius raises BlowUpError instead of being
# clamped; the quadratic-growth models have complete flows, so blow-up means
# a modelling or usage error.
_RK4_SUBSTEPS = 16
_GUARD_RADIUS = 1e6

# Newton tolerance and iteration cap of the implicit midpoint step
_EL_TOL = 1e-12
_EL_MAX_ITER = 50


def _hessian_at(model: LagrangianModel, x: np.ndarray) -> np.ndarray:
    """Analytic Hessian when available, else forward differences of the gradient.

    ``x`` is one point (n,) or a batch (..., n); the result is (..., n, n).
    The difference step is set per point.
    """
    n = x.shape[-1]
    if model.hess_potential is not None:
        return np.asarray(model.hess_potential(x), dtype=float).reshape(x.shape + (n,))
    step = 1e-7 * np.maximum(1.0, np.max(np.abs(x), axis=-1))
    g0 = np.asarray(model.grad_potential(x), dtype=float)
    H = np.empty(x.shape + (n,))
    for i in range(n):
        xi = x.copy()
        xi[..., i] += step
        grad = np.asarray(model.grad_potential(xi), dtype=float)
        H[..., :, i] = (grad - g0) / step[..., None]
    return H


def reference_flow(
    model: LagrangianModel, start: PhasePoint, grid: TimeGrid
) -> FlowResult:
    """Integrate m x'' = -grad V(x) with classical RK4, sampled on the grid.

    This is the one-start case of ``reference_flow_batch`` and returns
    bitwise the same trajectory.
    """
    nodes, x, v = reference_flow_batch(
        model, start.position[None, :], start.velocity[None, :], grid
    )
    return FlowResult(Path(grid, nodes[0]), PhasePoint(x[0], v[0]), 0)


def reference_flow_batch(
    model: LagrangianModel,
    positions: np.ndarray,
    velocities: np.ndarray,
    grid: TimeGrid,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RK4 reference flow from P starts (P, n) at once on one grid.

    Returns the nodes (P, l+1, n) and the final positions and velocities
    (P, n).  Every stage is elementwise, so each path is bitwise what a
    one-start integration gives.  If any path leaves the guard radius,
    BlowUpError names the earliest grid interval where one did.
    """
    m = model.mass
    x = np.array(positions, dtype=float)
    v = np.array(velocities, dtype=float)
    nodes = np.empty((x.shape[0], grid.n_intervals + 1, x.shape[1]))
    nodes[:, 0] = x
    for j, dt in enumerate(grid.spacings):
        sub = dt / _RK4_SUBSTEPS
        for _ in range(_RK4_SUBSTEPS):
            k1x = v
            k1v = -np.asarray(model.grad_potential(x), dtype=float) / m
            x2 = x + 0.5 * sub * k1x
            k2x = v + 0.5 * sub * k1v
            k2v = -np.asarray(model.grad_potential(x2), dtype=float) / m
            x3 = x + 0.5 * sub * k2x
            k3x = v + 0.5 * sub * k2v
            k3v = -np.asarray(model.grad_potential(x3), dtype=float) / m
            x4 = x + sub * k3x
            k4x = v + sub * k3v
            k4v = -np.asarray(model.grad_potential(x4), dtype=float) / m
            x = x + (sub / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            v = v + (sub / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            if np.any(np.max(np.abs(x), axis=1) > _GUARD_RADIUS):
                raise BlowUpError(
                    f"trajectory left the guard radius {_GUARD_RADIUS:g} "
                    f"within grid interval {j}"
                )
        nodes[:, j + 1] = x
    return nodes, x, v


def _el_step(
    model: LagrangianModel,
    prev: np.ndarray,
    curr: np.ndarray,
    dt_prev: float,
    dt_next: float,
) -> tuple[np.ndarray, int]:
    """Newton solve of the implicit midpoint step; returns (next, iterations)."""
    tol, max_iter = _EL_TOL, _EL_MAX_ITER
    m = model.mass
    outgoing = m * (curr - prev) / dt_prev - 0.5 * dt_prev * np.asarray(
        model.grad_potential(0.5 * (prev + curr)), dtype=float
    )
    # evaluating the residual costs eps * m |x| / dt of noise per momentum
    # term; the tolerance cannot be tighter than that floor
    noise = (
        64.0
        * np.finfo(float).eps
        * m
        / min(dt_prev, dt_next)
        * max(1.0, float(np.max(np.abs(prev))), float(np.max(np.abs(curr))))
    )
    scale = max(1.0, float(np.max(np.abs(outgoing))), noise / tol)
    z = curr + (curr - prev) * (dt_next / dt_prev)
    eye = np.eye(curr.size)
    for it in range(max_iter + 1):
        mid = 0.5 * (curr + z)
        resid = (
            m * (z - curr) / dt_next
            + 0.5 * dt_next * np.asarray(model.grad_potential(mid), dtype=float)
            - outgoing
        )
        err = float(np.max(np.abs(resid)))
        if err <= tol * scale:
            return z, it
        if it == max_iter:
            raise NewtonError(
                f"implicit midpoint step did not converge in {max_iter} iterations "
                f"(residual {err:.3e})",
                residual=err,
            )
        jac = (m / dt_next) * eye + 0.25 * dt_next * _hessian_at(model, mid)
        if curr.size == 1:
            z = z - resid / jac[0, 0]
        else:
            z = z - np.linalg.solve(jac, resid)
    raise AssertionError("unreachable")


def discrete_el_step(
    model: LagrangianModel,
    prev,
    curr,
    dt_prev: float,
    dt_next: float,
) -> np.ndarray:
    """Advance the midpoint three-term recurrence by one node."""
    prev, curr = as_point(prev), as_point(curr)
    if prev.shape != curr.shape:
        raise ValueError("prev and curr have different dimensions")
    if dt_prev <= 0 or dt_next <= 0:
        raise ValueError("time steps must be positive")
    nxt, _ = _el_step(model, prev, curr, dt_prev, dt_next)
    return nxt


def discrete_flow(
    model: LagrangianModel,
    start: PhasePoint,
    grid: TimeGrid,
) -> FlowResult:
    """March the discrete stationarity recurrence from (x, v).

    Initialization pins the first difference quotient to the launch velocity:
    x_1 = x + v (t_1 - t_0).  The terminal velocity is the last difference
    quotient.
    """
    dt = grid.spacings
    nodes = np.empty((grid.n_intervals + 1, start.dim))
    nodes[0] = start.position
    nodes[1] = start.position + start.velocity * dt[0]
    iters_max = 0
    for j in range(1, grid.n_intervals):
        nodes[j + 1], iters = _el_step(model, nodes[j - 1], nodes[j], dt[j - 1], dt[j])
        iters_max = max(iters_max, iters)
    v_final = (nodes[-1] - nodes[-2]) / dt[-1]
    return FlowResult(Path(grid, nodes), PhasePoint(nodes[-1], v_final), iters_max)


def _interior_defects(
    model: LagrangianModel, nodes: np.ndarray, dt: np.ndarray
) -> np.ndarray:
    """Stationarity defect of the midpoint action at every interior node.

    ``nodes`` is (l+1, n) or a batch (P, l+1, n) of paths on one grid.
    """
    m = model.mass
    momenta = m * np.diff(nodes, axis=-2) / dt[:, None]
    mids = 0.5 * (nodes[..., 1:, :] + nodes[..., :-1, :])
    grads = np.asarray(model.grad_potential(mids), dtype=float)
    forces = 0.5 * dt[:, None] * grads
    return (
        momenta[..., :-1, :]
        - momenta[..., 1:, :]
        - forces[..., :-1, :]
        - forces[..., 1:, :]
    )


def el_residual(model: LagrangianModel, path: Path) -> float:
    """Max interior-node norm of the discrete stationarity defect."""
    if path.grid.n_intervals < 2:
        raise ValueError("residual needs at least two intervals")
    defects = _interior_defects(model, path.nodes, path.grid.spacings)
    return float(np.max(np.linalg.norm(defects, axis=1)))


def _bvp_blocks(
    model: LagrangianModel, nodes: np.ndarray, dt: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Blocks of the Jacobian of the stacked interior defects.

    ``nodes`` is (l+1, n) or a batch (P, l+1, n) on one grid.  Returns the
    diagonal blocks (..., l-1, n, n) and the blocks (..., l-2, n, n) that
    couple interior nodes j and j+1; each one is both the upper block of row
    j and the lower block of row j+1.
    """
    m = model.mass
    mids = 0.5 * (nodes[..., 1:, :] + nodes[..., :-1, :])
    # d(force term)/d(node) on interval j contributes (dt_j/4) Hess V(mid_j)
    hess = 0.25 * dt[:, None, None] * _hessian_at(model, mids)
    eye = np.eye(nodes.shape[-1])
    diag = (
        (m / dt[:-1] + m / dt[1:])[:, None, None] * eye
        - hess[..., :-1, :, :]
        - hess[..., 1:, :, :]
    )
    off = -(m / dt[1:-1])[:, None, None] * eye - hess[..., 1:-1, :, :]
    return diag, off


def _bvp_jacobian(diag: np.ndarray, off: np.ndarray) -> sp.csc_matrix:
    """Sparse Jacobian of one problem from its blocks (l-1, n, n), (l-2, n, n)."""
    k = np.arange(diag.shape[0])
    n = diag.shape[-1]
    block_row = np.concatenate([k, k[:-1], k[1:]])
    block_col = np.concatenate([k, k[1:], k[:-1]])
    within = np.arange(n)
    rows, cols = np.broadcast_arrays(
        block_row[:, None, None] * n + within[:, None],
        block_col[:, None, None] * n + within,
    )
    size = k.size * n
    return sp.csc_matrix(
        (np.concatenate([diag, off, off]).ravel(), (rows.ravel(), cols.ravel())),
        shape=(size, size),
    )


def _solve_blocks(M: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve M X = B for a stack of small blocks (P, n, n) and (P, n, k).

    An exactly singular block gives a non-finite solution, as a sparse LU
    does, so the line search rejects the step instead of the batch failing.
    """
    if M.shape[-1] == 1:
        with np.errstate(divide="ignore", invalid="ignore"):
            return B / M
    try:
        return np.linalg.solve(M, B)
    except np.linalg.LinAlgError:
        out = np.full(B.shape, np.nan)
        for p in range(M.shape[0]):
            try:
                out[p] = np.linalg.solve(M[p], B[p])
            except np.linalg.LinAlgError:
                pass
        return out


def _block_tridiagonal_solve(
    diag: np.ndarray, off: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve P block-tridiagonal systems by block elimination.

    ``diag`` (P, K, n, n) and ``off`` (P, K-1, n, n) are the blocks returned
    by ``_bvp_blocks`` and ``rhs`` is (P, K, n).  The forward sweep keeps one
    gain block and one reduced right-hand side per unknown: O(P K n^3) work
    and O(P K n^2) memory.
    """
    K = diag.shape[1]
    gains = np.empty_like(off)
    z = np.empty(rhs.shape + (1,))
    for k in range(K):
        M = diag[:, k]
        b = rhs[:, k, :, None]
        if k:
            M = M - off[:, k - 1] @ gains[:, k - 1]
            b = b - off[:, k - 1] @ z[:, k - 1]
        if k < K - 1:
            sol = _solve_blocks(M, np.concatenate([off[:, k], b], axis=-1))
            gains[:, k], z[:, k] = sol[..., :-1], sol[..., -1:]
        else:
            z[:, k] = _solve_blocks(M, b)
    for k in range(K - 2, -1, -1):
        z[:, k] -= gains[:, k] @ z[:, k + 1]
    return z[..., 0]


def _sparse_step(
    model: LagrangianModel, nodes: np.ndarray, dt: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Newton steps of P problems (P, l+1, n), one pivoted sparse LU each."""
    diag, off = _bvp_blocks(model, nodes, dt)
    step = np.empty_like(rhs)
    for p in range(rhs.shape[0]):
        jac = _bvp_jacobian(diag[p], off[p])
        step[p] = spla.spsolve(jac, rhs[p].ravel()).reshape(rhs.shape[1:])
    return step


def _block_step(
    model: LagrangianModel, nodes: np.ndarray, dt: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Newton steps of P problems (P, l+1, n) by one unpivoted block elimination."""
    return _block_tridiagonal_solve(*_bvp_blocks(model, nodes, dt), rhs)


def _residual_scale(
    model: LagrangianModel, x: np.ndarray, y: np.ndarray, grid: TimeGrid, tol: float
) -> np.ndarray:
    """Newton residual scale of the pairs x -> y, points (n,) or (P, n).

    Momenta of size m |y - x| / span set the scale, which never drops below
    the evaluation-noise floor of the single step: residual components are
    differences of momenta of size m |x| / dt known only to eps relative.
    """
    size = np.maximum(
        1.0, np.maximum(np.max(np.abs(x), axis=-1), np.max(np.abs(y), axis=-1))
    )
    noise = 64.0 * np.finfo(float).eps * model.mass / float(np.min(grid.spacings)) * size
    return np.maximum(
        np.maximum(1.0, model.mass * np.max(np.abs(y - x), axis=-1) / grid.span),
        noise / tol,
    )


def _perturbations(grid: TimeGrid, dim: int, count: int, rng: np.random.Generator):
    """Interior-node displacements (l-1, n) of size h^2 for the minimality screen.

    Random amplitudes on low-frequency modes: minimality fails in the lowest
    modes first (conjugate points), which white noise on the nodes would
    almost never probe.  Drawn lazily, so a screen that stops early leaves
    the generator's later draws untaken.
    """
    l = grid.n_intervals
    h2 = grid.max_spacing**2
    phase = np.pi * (grid.nodes[1:-1] - grid.start) / grid.span
    for k in range(count):
        mode = np.sin((k % max(1, min(l - 1, count)) + 1) * phase)
        direction = rng.standard_normal(dim)
        direction /= max(1e-300, float(np.linalg.norm(direction)))
        amp = h2 * rng.uniform(0.5, 1.5)
        yield amp * mode[:, None] * direction[None, :]


def _bvp_core(
    model: LagrangianModel,
    grid: TimeGrid,
    nodes: np.ndarray,
    linear_step,
    check_minimum: bool,
    rng: np.random.Generator,
) -> BvpBatchResult:
    """Damped Newton and minimality screen for P stacked problems (P, l+1, n).

    ``nodes`` holds the starts, endpoints pinned, and is overwritten.  Every
    pair takes its own Newton steps and Armijo step lengths on the squared
    residual and stops on its own test; the pairs still iterating share one
    ``linear_step(model, nodes, dt, rhs)`` per iteration.  If
    ``check_minimum``, the converged pairs then share one lazy draw of
    perturbations from ``rng``, and a pair whose action one of them lowers is
    a saddle.
    """
    P, _, n = nodes.shape
    dt = grid.spacings
    if grid.n_intervals == 1:  # no interior nodes: the segment is the solution
        ok = np.ones(P, dtype=bool)
        costs = _midpoint_actions(model, nodes, dt)
        zeros = np.zeros(P, dtype=int)
        return BvpBatchResult(nodes, costs, np.zeros(P), zeros, ok, ~ok)
    tol, max_iter = _BVP_TOL, _BVP_MAX_ITER
    scale = _residual_scale(model, nodes[:, 0], nodes[:, -1], grid, tol)
    defects = _interior_defects(model, nodes, dt)
    err = np.max(np.abs(defects), axis=(1, 2))
    iters = np.full(P, max_iter)
    active = np.arange(P)
    for it in range(max_iter):
        done = err[active] <= tol * scale[active]
        iters[active[done]] = it
        active = active[~done]
        if active.size == 0:
            break
        base, base_defects = nodes[active], defects[active]
        step = linear_step(model, base, dt, -base_defects)
        phi = 0.5 * np.sum(base_defects * base_defects, axis=(1, 2))
        t = np.ones(active.size)
        trial, trial_defects = np.empty_like(base), np.empty_like(base_defects)
        searching = np.arange(active.size)
        while searching.size:  # Armijo backtracking on the squared residual
            cand = base[searching]
            cand[:, 1:-1] += t[searching, None, None] * step[searching]
            cand_defects = _interior_defects(model, cand, dt)
            cand_phi = 0.5 * np.sum(cand_defects * cand_defects, axis=(1, 2))
            ts = t[searching]
            stop = (cand_phi <= phi[searching] * (1.0 - 1e-4 * ts)) | (ts < 1e-12)
            trial[searching[stop]] = cand[stop]
            trial_defects[searching[stop]] = cand_defects[stop]
            t[searching[~stop]] *= 0.5
            searching = searching[~stop]
        stalled = t < 1e-12
        iters[active[stalled]] = it
        moved = active[~stalled]
        nodes[moved] = trial[~stalled]
        defects[moved] = trial_defects[~stalled]
        err[moved] = np.max(np.abs(trial_defects[~stalled]), axis=(1, 2))
        active = moved
    # a stalled pair stopped above the tolerance, so this test fails it too
    converged = err <= tol * scale
    costs = _midpoint_actions(model, nodes, dt)
    saddle = np.zeros(P, dtype=bool)
    screened = np.flatnonzero(converged)
    if check_minimum and screened.size:
        floor = costs - 1e-10 * np.maximum(1.0, np.abs(costs))
        for bump in _perturbations(grid, n, _N_PERTURBATIONS, rng):
            pert = nodes[screened]
            pert[:, 1:-1] += bump
            lower = _midpoint_actions(model, pert, dt) < floor[screened]
            saddle[screened[lower]] = True
            screened = screened[~lower]
            if screened.size == 0:  # leave the later perturbations undrawn
                break
    return BvpBatchResult(nodes, costs, err, iters, converged & ~saddle, saddle)


def _cluster_paths(paths: list[Path], threshold: float) -> list[list[int]]:
    """Greedy clustering of paths by sup-distance below the threshold."""
    clusters: list[list[int]] = []
    for i, p in enumerate(paths):
        for members in clusters:
            if uniform_distance(p, paths[members[0]]) <= threshold:
                members.append(i)
                break
        else:
            clusters.append([i])
    return clusters


def _pair_starts(grid: TimeGrid, x, y, init: Sequence[Path] | None) -> np.ndarray:
    """Start nodes (P, l+1, n) of the pairs x[p] -> y[p], endpoints pinned.

    Pair p starts from ``init[p]`` resampled onto the grid, or by default
    from the straight line.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape != y.shape:
        raise ValueError("endpoints must be two arrays of the same shape (P, n)")
    if init is None:
        u = ((grid.nodes - grid.start) / grid.span)[:, None]
        nodes = (1.0 - u) * x[:, None, :] + u * y[:, None, :]
    elif len(init) != x.shape[0]:
        raise ValueError(f"{len(init)} warm-start paths for {x.shape[0]} pairs")
    else:
        nodes = np.stack([path.evaluate(grid.nodes) for path in init])
    nodes[:, 0], nodes[:, -1] = x, y
    return nodes


def solve_bvp(
    model: LagrangianModel,
    x,
    y,
    grid: TimeGrid,
    init: Path | None = None,
    check_minimum: bool = True,
    n_restarts: int = 0,
) -> BvpResult:
    """Connect x to y by a stationary trajectory of the midpoint action.

    Parameters
    ----------
    init
        Warm-start path (resampled onto the grid); default is the straight
        line from x to y.
    check_minimum
        Reject saddle points by verifying the action does not decrease under
        20 random nodal perturbations of size h^2.  Failure is reported
        through ``converged=False`` with a diagnostic message, not by raising.
    n_restarts
        Additional solves from randomized warm starts.  Solutions are
        clustered by sup-distance at 1e-3; the lowest-cost cluster is
        returned and the cluster count reported as multiplicity.  Useful near
        conjugate spans where minimizers are non-unique.

    The solve works on the full stacked interior system (not shooting), with
    Armijo-damped Newton steps.  It is the one-pair case of the Newton core
    that ``solve_bvp_pairs`` and ``solve_bvp_batch`` run on P pairs, with a
    pivoted sparse LU of the block-tridiagonal Jacobian for each step:
    unlike the batch's unpivoted block elimination, it converges on
    indefinite Jacobians past a conjugate span.  Restart noise and the
    perturbations come from one ``default_rng(0)`` per call, so equal inputs
    give equal results.

    Returns
    -------
    BvpResult
        Path with endpoints pinned exactly to the inputs, its midpoint action
        as cost, and the terminal max-norm residual.
    """
    x, y = as_point(x), as_point(y)
    if x.shape != y.shape:
        raise ValueError("endpoints have different dimensions")
    rng = np.random.default_rng(0)
    start = _pair_starts(grid, x[None], y[None], None if init is None else [init])

    def attempt(noise: float) -> BvpResult:
        nodes = start.copy()
        if noise > 0.0:
            bump = np.sin(np.pi * (grid.nodes[1:-1] - grid.start) / grid.span)
            interior = nodes[0, 1:-1]
            interior += noise * bump[:, None] * rng.standard_normal(interior.shape)
        res = _bvp_core(model, grid, nodes, _sparse_step, check_minimum, rng)
        return BvpResult(
            Path(grid, res.nodes[0]),
            float(res.costs[0]),
            float(res.residuals[0]),
            bool(res.converged[0]),
            int(res.newton_iterations[0]),
            1,
            res.message(0),
        )

    best = attempt(0.0)
    if n_restarts <= 0:
        return best

    noise = 0.5 * (float(np.max(np.abs(y - x))) + 1.0)
    results = [best] + [attempt(noise) for _ in range(n_restarts)]
    converged = [r for r in results if r.converged]
    if not converged:
        return best
    clusters = _cluster_paths([r.path for r in converged], _CLUSTER_RADIUS)
    cluster_costs = [min(converged[i].cost for i in members) for members in clusters]
    winner_cluster = clusters[int(np.argmin(cluster_costs))]
    winner = min((converged[i] for i in winner_cluster), key=lambda r: r.cost)
    return replace(winner, multiplicity=len(clusters))


def solve_bvp_pairs(
    model: LagrangianModel,
    x: np.ndarray,
    y: np.ndarray,
    grid: TimeGrid,
    init: Sequence[Path] | None = None,
    check_minimum: bool = True,
) -> BvpBatchResult:
    """Connect x[p] to y[p] for P pairs of points (P, n) on one grid at once.

    Pair p is bitwise ``solve_bvp(model, x[p], y[p], grid, init[p],
    check_minimum)`` without restarts: the same start, Newton core and
    pivoted sparse LU, one per pair still iterating.  Every ``solve_bvp``
    draws its perturbations from a fresh ``default_rng(0)`` and nothing
    before them, so all pairs share one draw.  Failures are reported per
    pair through ``converged`` and ``message``, not by raising.
    """
    nodes = _pair_starts(grid, x, y, init)
    return _bvp_core(
        model, grid, nodes, _sparse_step, check_minimum, np.random.default_rng(0)
    )


def solve_bvp_batch(
    model: LagrangianModel,
    x: np.ndarray,
    y: np.ndarray,
    grid: TimeGrid,
) -> BvpBatchResult:
    """Connect x[p] to y[p] for P pairs of points (P, n) on one grid at once.

    This is ``solve_bvp_pairs`` with its defaults except for the linear
    step: one block-tridiagonal elimination over the pairs still iterating,
    which costs O(P l n^3) per Newton iteration but does not pivot between
    blocks, so costs agree with ``solve_bvp`` to rounding and a pair can
    stall on an indefinite Jacobian where ``solve_bvp`` converges.
    """
    nodes = _pair_starts(grid, x, y, None)
    return _bvp_core(model, grid, nodes, _block_step, True, np.random.default_rng(0))
