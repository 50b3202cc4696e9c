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

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import BlowUpError, NewtonError
from .models import LagrangianModel, as_point
from .paths import (
    Path,
    PhasePoint,
    TimeGrid,
    _midpoint_actions,
    midpoint_action,
    uniform_distance,
)


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

    ``nodes`` is (P, l+1, n); ``costs``, ``residuals``, ``converged`` and
    ``newton_iterations`` are (P,).
    """

    nodes: np.ndarray
    costs: np.ndarray
    residuals: np.ndarray
    converged: np.ndarray
    newton_iterations: np.ndarray


# Newton tolerance, iteration cap and minimality-screen size unless
# solve_bvp is told otherwise; solve_bvp_batch always uses them
_BVP_TOL = 1e-12
_BVP_MAX_ITER = 50
_N_PERTURBATIONS = 20


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
    model: LagrangianModel,
    start: PhasePoint,
    grid: TimeGrid,
    substeps_per_interval: int = 16,
    guard_radius: float = 1e6,
) -> FlowResult:
    """Integrate m x'' = -grad V(x) with classical RK4, sampled on the grid.

    At least 16 substeps per grid interval keep the O(dt^4) integrator error
    negligible against the O(h) / O(h^2) effects it is used to referee.  A
    trajectory leaving the guard radius raises BlowUpError instead of being
    clamped; for the quadratic-growth model family the flow is complete, so
    blow-up indicates a modelling or usage error.  This is the one-start case
    of ``reference_flow_batch`` and returns bitwise the same trajectory.
    """
    nodes, x, v = reference_flow_batch(
        model,
        start.position[None, :],
        start.velocity[None, :],
        grid,
        substeps_per_interval,
        guard_radius,
    )
    return FlowResult(Path(grid, nodes[0]), PhasePoint(x[0], v[0]), 0)


def reference_flow_batch(
    model: LagrangianModel,
    positions: np.ndarray,
    velocities: np.ndarray,
    grid: TimeGrid,
    substeps_per_interval: int = 16,
    guard_radius: float = 1e6,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RK4 reference flow from P starts (P, n) at once on one grid.

    Returns the nodes (P, l+1, n) and the final positions and velocities
    (P, n).  Every stage is elementwise, so each path is bitwise what a
    one-start integration gives.  If any path leaves the guard radius,
    BlowUpError names the earliest grid interval where one did.
    """
    if substeps_per_interval < 16:
        raise ValueError("reference flow requires at least 16 substeps per interval")
    m = model.mass
    x = np.array(positions, dtype=float)
    v = np.array(velocities, dtype=float)
    nodes = np.empty((x.shape[0], grid.n_intervals + 1, x.shape[1]))
    nodes[:, 0] = x
    for j, dt in enumerate(grid.spacings):
        sub = dt / substeps_per_interval
        for _ in range(substeps_per_interval):
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
            if np.any(np.max(np.abs(x), axis=1) > guard_radius):
                raise BlowUpError(
                    f"trajectory left the guard radius {guard_radius:g} "
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
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, int]:
    """Newton solve of the implicit midpoint step; returns (next, iterations)."""
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
    tol: float = 1e-12,
    max_iter: int = 50,
) -> np.ndarray:
    """Advance the midpoint three-term recurrence by one node."""
    prev, curr = as_point(prev), as_point(curr)
    if prev.shape != curr.shape:
        raise ValueError("prev and curr have different dimensions")
    if dt_prev <= 0 or dt_next <= 0:
        raise ValueError("time steps must be positive")
    nxt, _ = _el_step(model, prev, curr, dt_prev, dt_next, tol, max_iter)
    return nxt


def discrete_flow(
    model: LagrangianModel,
    start: PhasePoint,
    grid: TimeGrid,
    tol: float = 1e-12,
    max_iter: int = 50,
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
        nodes[j + 1], iters = _el_step(
            model, nodes[j - 1], nodes[j], dt[j - 1], dt[j], tol, max_iter
        )
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


def _bvp_jacobian(
    model: LagrangianModel, nodes: np.ndarray, dt: np.ndarray
) -> sp.csc_matrix:
    """Block-tridiagonal Jacobian of the stacked interior defects, sparse."""
    diag, off = _bvp_blocks(model, nodes, dt)
    k = np.arange(diag.shape[0])
    n = nodes.shape[1]
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


def _bvp_newton(
    model: LagrangianModel,
    nodes: np.ndarray,
    dt: np.ndarray,
    tol: float,
    max_iter: int,
    scale: float,
) -> tuple[np.ndarray, float, int, bool]:
    """Damped Newton on the stacked system; returns (nodes, residual, iters, ok)."""
    l = dt.size
    n = nodes.shape[1]
    defects = _interior_defects(model, nodes, dt)
    err = float(np.max(np.abs(defects)))
    for it in range(max_iter):
        if err <= tol * scale:
            return nodes, err, it, True
        jac = _bvp_jacobian(model, nodes, dt)
        step = spla.spsolve(jac, -defects.ravel()).reshape(l - 1, n)
        phi = 0.5 * float(np.sum(defects * defects))
        t = 1.0
        while True:  # Armijo backtracking on the squared residual
            trial = nodes.copy()
            trial[1:-1] += t * step
            trial_defects = _interior_defects(model, trial, dt)
            trial_phi = 0.5 * float(np.sum(trial_defects * trial_defects))
            if trial_phi <= phi * (1.0 - 1e-4 * t) or t < 1e-12:
                break
            t *= 0.5
        if t < 1e-12:
            return nodes, err, it, False
        nodes, defects = trial, trial_defects
        err = float(np.max(np.abs(defects)))
    return nodes, err, max_iter, err <= tol * scale


def _bvp_newton_batch(
    model: LagrangianModel,
    nodes: np.ndarray,
    dt: np.ndarray,
    tol: float,
    max_iter: int,
    scale: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``_bvp_newton`` for P stacked problems (P, l+1, n) with per-pair masks.

    Every pair takes its own Newton steps and Armijo step lengths and stops
    on its own test; the pairs still iterating share one block elimination
    per iteration.  Returns (nodes, residuals, iterations, converged).
    """
    nodes = nodes.copy()
    defects = _interior_defects(model, nodes, dt)
    err = np.max(np.abs(defects), axis=(1, 2))
    iters = np.full(nodes.shape[0], max_iter)
    active = np.arange(nodes.shape[0])
    for it in range(max_iter):
        done = err[active] <= tol * scale[active]
        iters[active[done]] = it
        active = active[~done]
        if active.size == 0:
            break
        base, base_defects = nodes[active], defects[active]
        step = _block_tridiagonal_solve(*_bvp_blocks(model, base, dt), -base_defects)
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
    return nodes, err, iters, err <= tol * scale


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


def solve_bvp(
    model: LagrangianModel,
    x,
    y,
    grid: TimeGrid,
    init: Path | None = None,
    tol: float = _BVP_TOL,
    max_iter: int = _BVP_MAX_ITER,
    check_minimum: bool = True,
    n_perturbations: int = _N_PERTURBATIONS,
    n_restarts: int = 0,
    cluster_threshold: float = 1e-3,
    rng: np.random.Generator | None = None,
) -> BvpResult:
    """Connect x to y by a stationary trajectory of the midpoint action.

    Parameters
    ----------
    init
        Warm-start path (resampled onto the grid); default is the straight
        line from x to y.
    check_minimum
        Reject saddle points by verifying the action does not decrease under
        ``n_perturbations`` random nodal perturbations of size h^2.  Failure
        is reported through ``converged=False`` with a diagnostic message,
        not by raising.
    n_restarts
        Additional solves from randomized warm starts.  Solutions are
        clustered by sup-distance at ``cluster_threshold``; the lowest-cost
        cluster is returned and the cluster count reported as multiplicity.
        Useful near conjugate spans where minimizers are non-unique.

    The solve works on the full stacked interior system (not shooting), with
    Armijo-damped Newton steps; the Jacobian is assembled sparse and
    block-tridiagonal.

    Returns
    -------
    BvpResult
        Path with endpoints pinned exactly to the inputs, its midpoint action
        as cost, and the terminal max-norm residual.
    """
    x, y = as_point(x), as_point(y)
    if x.shape != y.shape:
        raise ValueError("endpoints have different dimensions")
    rng = rng if rng is not None else np.random.default_rng(0)
    dt = grid.spacings
    l = grid.n_intervals
    scale = float(_residual_scale(model, x, y, grid, tol))

    line = Path.line(grid, x, y)
    if l == 1:
        return BvpResult(line, midpoint_action(model, line), 0.0, True, 0)

    def initial_nodes(path: Path | None, noise: float) -> np.ndarray:
        base = line.nodes if path is None else path.evaluate(grid.nodes)
        nodes = np.array(base, dtype=float)
        nodes[0], nodes[-1] = x, y
        if noise > 0.0:
            bump = np.sin(np.pi * (grid.nodes[1:-1] - grid.start) / grid.span)
            nodes[1:-1] += noise * bump[:, None] * rng.standard_normal((l - 1, x.size))
        return nodes

    def attempt(path: Path | None, noise: float) -> tuple[BvpResult, Path]:
        nodes, resid, iters, ok = _bvp_newton(
            model, initial_nodes(path, noise), dt, tol, max_iter, scale
        )
        solved = Path(grid, nodes)
        cost = midpoint_action(model, solved)
        message = "" if ok else "Newton did not reach the residual tolerance"
        if ok and check_minimum:
            slack = 1e-10 * max(1.0, abs(cost))
            for bump in _perturbations(grid, x.size, n_perturbations, rng):
                pert = nodes.copy()
                pert[1:-1] += bump
                if midpoint_action(model, Path(grid, pert)) < cost - slack:
                    ok = False
                    message = (
                        "saddle-point check failed: a nodal perturbation of "
                        "size h^2 decreased the action"
                    )
                    break
        return BvpResult(solved, cost, resid, ok, iters, 1, message), solved

    best, best_path = attempt(init, 0.0)
    if n_restarts <= 0:
        return best

    results = [best]
    paths = [best_path]
    noise = 0.5 * (float(np.max(np.abs(y - x))) + 1.0)
    for _ in range(n_restarts):
        res, p = attempt(init, noise)
        results.append(res)
        paths.append(p)
    converged = [i for i, r in enumerate(results) if r.converged]
    if not converged:
        return results[0]
    clusters = _cluster_paths([paths[i] for i in converged], cluster_threshold)
    cluster_costs = [
        min(results[converged[i]].cost for i in members) for members in clusters
    ]
    winner_cluster = clusters[int(np.argmin(cluster_costs))]
    winner = min(
        (results[converged[i]] for i in winner_cluster), key=lambda r: r.cost
    )
    return BvpResult(
        winner.path,
        winner.cost,
        winner.residual,
        winner.converged,
        winner.newton_iterations,
        multiplicity=len(clusters),
        message=winner.message,
    )


def solve_bvp_batch(
    model: LagrangianModel,
    x: np.ndarray,
    y: np.ndarray,
    grid: TimeGrid,
) -> BvpBatchResult:
    """Connect x[p] to y[p] for P pairs of points (P, n) on one grid at once.

    Pair by pair this is ``solve_bvp`` with its defaults: the straight-line
    start, the residual scale, Armijo-damped Newton and the minimality
    screen.  Every scalar solve draws its 20 perturbations from a fresh
    ``default_rng(0)`` and nothing before them, so all pairs share one draw.
    Only the linear algebra differs: each Newton step comes from one
    block-tridiagonal elimination over the pairs still iterating, so costs
    agree with ``solve_bvp`` to rounding.  Failures are reported per pair
    through ``converged``, not by raising.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape != y.shape:
        raise ValueError("endpoints must be two arrays of the same shape (P, n)")
    P, n = x.shape
    dt = grid.spacings
    u = ((grid.nodes - grid.start) / grid.span)[:, None]
    nodes = (1.0 - u) * x[:, None, :] + u * y[:, None, :]
    if grid.n_intervals == 1:
        return BvpBatchResult(
            nodes,
            _midpoint_actions(model, nodes, dt),
            np.zeros(P),
            np.ones(P, dtype=bool),
            np.zeros(P, dtype=int),
        )
    scale = _residual_scale(model, x, y, grid, _BVP_TOL)
    nodes, residuals, iters, converged = _bvp_newton_batch(
        model, nodes, dt, _BVP_TOL, _BVP_MAX_ITER, scale
    )
    costs = _midpoint_actions(model, nodes, dt)
    slack = 1e-10 * np.maximum(1.0, np.abs(costs))
    screened = np.flatnonzero(converged)
    for bump in _perturbations(grid, n, _N_PERTURBATIONS, np.random.default_rng(0)):
        if screened.size == 0:
            break
        pert = nodes[screened]
        pert[:, 1:-1] += bump
        lower = _midpoint_actions(model, pert, dt) < costs[screened] - slack[screened]
        converged[screened[lower]] = False
        screened = screened[~lower]
    return BvpBatchResult(nodes, costs, residuals, converged, iters)
