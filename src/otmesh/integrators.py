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

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided
# numpy 2 imports numpy.random on first use: import it here, not inside a solve
from numpy.random import default_rng

from ._native import dgbsv
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
    ``converged`` and ``saddle_node`` are (P,).  A saddle, a pair whose
    minimality test failed at interior node ``saddle_node`` (0 if none or
    untested), is not converged.
    """

    nodes: np.ndarray
    costs: np.ndarray
    residuals: np.ndarray
    newton_iterations: np.ndarray
    converged: np.ndarray
    saddle_node: np.ndarray

    def message(self, p: int) -> str:
        """Why pair p failed, or "" if it converged."""
        if not np.isfinite(self.costs[p]):
            return "the midpoint action is not finite"
        if self.saddle_node[p]:
            return (
                "saddle-point check failed: the second variation of the action "
                f"turns indefinite at interior node {self.saddle_node[p]}"
            )
        if not self.converged[p]:
            return "Newton did not reach the residual tolerance"
        return ""


# Newton tolerance and iteration cap of every Newton solve (the boundary-value
# solves and the implicit midpoint step), and the sup-distance that clusters
# restarts
_BVP_TOL = 1e-12
_BVP_MAX_ITER = 50
_CLUSTER_RADIUS = 1e-3

# RK4 substeps per grid interval of the reference flow: they keep its O(dt^4)
# error negligible against the O(h) / O(h^2) effects it referees.  A
# trajectory leaving the guard radius raises BlowUpError instead of being
# clamped; the quadratic-growth models have complete flows, so blow-up means
# a modelling or usage error.
_RK4_SUBSTEPS = 16
_GUARD_RADIUS = 1e6


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

    This is the one-start case of ``_rk4_march`` and returns bitwise the
    same trajectory.
    """
    nodes, x, v = _rk4_march(model, [(start.position[None, :], start.velocity[None, :], grid)])[0]
    return FlowResult(Path(grid, nodes[0]), PhasePoint(x[0], v[0]), 0)


def _rk4_march(
    model: LagrangianModel,
    groups: Sequence[tuple[np.ndarray, np.ndarray, TimeGrid]],
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """RK4 reference flow of groups of starts, each group on its own grid.

    ``groups`` holds (positions (P_g, n), velocities (P_g, n), grid); the
    result holds (nodes (P_g, l_g+1, n), final positions, final velocities)
    per group, in the same order.  All rows march together: they are sorted
    by interval count, largest first, so the rows still marching at grid
    interval j are a prefix, and every grid takes ``_RK4_SUBSTEPS`` substeps
    per interval.  The intervals split into phases, maximal runs with the
    same rows marching; each phase copies its rows into a stage buffer of
    its own, so every call of a substep is elementwise on C-contiguous
    operands of one shape.  Step sizes are per-row values taken from each
    grid's own spacings, and every stage is elementwise in the order of the
    one-start loop

        slope(x, v) = (v, -grad V(x) / m),  k1 = slope((x, v)),
        k2 = slope((x, v) + (sub/2) k1),  k3 = slope((x, v) + (sub/2) k2),
        k4 = slope((x, v) + sub k3),  (x, v) += (sub/6) (((k1 + 2 k2) + 2 k3) + k4),

    so every path is bitwise what integrating it alone gives.  If a path
    leaves the guard radius, BlowUpError names the earliest grid interval
    where one did.
    """
    m = model.mass
    grad, divide, multiply, add = model.grad_potential, np.divide, np.multiply, np.add
    abs_, fmax = np.abs, np.fmax.reduce
    order = sorted(range(len(groups)), key=lambda g: -groups[g][2].n_intervals)
    starts, launches, grids = zip(*(groups[g] for g in order))
    counts = [grid.n_intervals for grid in grids]
    subs = [grid.spacings / _RK4_SUBSTEPS for grid in grids]
    sizes = [len(x0) for x0 in starts]
    rows = np.cumsum([0] + sizes)
    P, n = rows[-1], np.shape(starts[0])[1]
    state = np.empty((2, P, n))  # (x, v) of every row between phases
    state[0] = np.concatenate(starts)
    state[1] = np.concatenate(launches)
    nodes = np.empty((P, counts[0] + 1, n))
    nodes[:, 0] = state[0]
    first = 0
    for live in range(len(counts), 0, -1):
        last = counts[live - 1]
        if last <= first:
            continue
        # intervals first..last-1 march the rows of the first `live` groups
        p = rows[live]
        # stage k is stage[k] (3, p, n): rows 0-1 hold its point (x, v) and
        # rows 1-2 its slope (v, a), so the slope's position part is the
        # point's velocity
        stage = np.empty((4, 3, p, n))
        stage[0, :2] = state[:, :p]
        pt0, pt1, pt2, pt3 = stage[:, :2]
        sl0, sl1, sl2, sl3 = stage[:, 1:]
        x0, x1, x2, x3 = stage[:, 0]
        a0, a1, a2, a3 = stage[:, 2]
        half, whole, sixth = np.empty((3, 2, p, n))  # sub/2, sub, sub/6
        d2, d3, total = np.empty((3, 2, p, n))  # 2 k2, 2 k3 and the k sum
        size, neg_m = np.empty((p, n)), np.full((p, n), -m)
        phase_subs = np.repeat([sub[first:last] for sub in subs[:live]], sizes[:live], axis=0)
        for j, s in enumerate(phase_subs.T[:, :, None], start=first):
            multiply(0.5, s, out=half)
            whole[...] = s
            divide(s, 6.0, out=sixth)
            # positional out, an array of -m and k + k for 2 k: exact and cheaper
            for _ in range(_RK4_SUBSTEPS):
                divide(grad(x0), neg_m, a0)
                multiply(half, sl0, pt1)
                add(pt0, pt1, pt1)
                divide(grad(x1), neg_m, a1)
                multiply(half, sl1, pt2)
                add(pt0, pt2, pt2)
                divide(grad(x2), neg_m, a2)
                multiply(whole, sl2, pt3)
                add(pt0, pt3, pt3)
                divide(grad(x3), neg_m, a3)
                add(sl1, sl1, d2)
                add(sl2, sl2, d3)
                add(sl0, d2, total)
                add(total, d3, total)
                add(total, sl3, total)
                multiply(sixth, total, total)
                add(pt0, total, pt0)
                # fmax skips NaN as `>` does, so this tests any |x| > R; the
                # initial 0 covers a phase of empty groups
                if fmax(abs_(x0, size), axis=None, initial=0.0) > _GUARD_RADIUS:
                    raise BlowUpError(
                        f"trajectory left the guard radius {_GUARD_RADIUS:g} "
                        f"within grid interval {j}"
                    )
            nodes[:p, j + 1] = x0
        state[:, :p] = pt0
        first = last
    out = [None] * len(groups)
    for r, g in enumerate(order):
        block = slice(rows[r], rows[r + 1])
        out[g] = (nodes[block, : counts[r] + 1], state[0, block], state[1, block])
    return out


def _el_step(
    model: LagrangianModel,
    prev: np.ndarray,
    curr: np.ndarray,
    dt_prev: float,
    dt_next: float,
) -> tuple[np.ndarray, int]:
    """Newton solve of the implicit midpoint step; returns (next, iterations)."""
    tol, max_iter = _BVP_TOL, _BVP_MAX_ITER
    m = model.mass
    outgoing = m * (curr - prev) / dt_prev - 0.5 * dt_prev * np.asarray(
        model.grad_potential(0.5 * (prev + curr)), dtype=float
    )
    # evaluating the residual costs eps * m |x| / dt of noise per momentum
    # term; the tolerance cannot be tighter than that floor.  Taken in Python
    # floats, which overflow to inf without a warning: a floor that overflows
    # once scaled by 1 / tol would make the tolerance pass any residual
    size = max(1.0, float(np.max(np.abs(prev))), float(np.max(np.abs(curr))))
    dt = float(min(dt_prev, dt_next))
    noise = 64.0 * sys.float_info.epsilon * float(m) / dt * size
    if not math.isfinite(noise / tol):
        raise NewtonError(
            f"implicit midpoint step has no finite tolerance for positions of "
            f"size {size:.3e} and a step of {dt:.3e}"
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
        # checked before the tolerance: an infinite outgoing momentum makes
        # the residual non-finite and the tolerance tol * scale infinite
        if not math.isfinite(err):
            raise NewtonError(
                f"implicit midpoint step has residual {err:.3e} at iteration {it}"
            )
        if err <= tol * scale:
            return z, it
        if it == max_iter:
            raise NewtonError(
                f"implicit midpoint step did not converge in {max_iter} iterations "
                f"(residual {err:.3e})"
            )
        jac = (m / dt_next) * eye + 0.25 * dt_next * _hessian_at(model, mid)
        if curr.size == 1:
            z = z - resid / jac[0, 0]
        else:
            z = z - np.linalg.solve(jac, resid)
    raise AssertionError("unreachable")


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
    return momenta[..., :-1, :] - momenta[..., 1:, :] - forces[..., :-1, :] - forces[..., 1:, :]


def el_residual(model: LagrangianModel, path: Path) -> float:
    """Max interior-node norm of the discrete stationarity defect."""
    if path.grid.n_intervals < 2:
        raise ValueError("residual needs at least two intervals")
    defects = _interior_defects(model, path.nodes, path.grid.spacings)
    return float(np.max(np.linalg.norm(defects, axis=1)))


def _midpoint_hessians(model: LagrangianModel, nodes: np.ndarray) -> np.ndarray:
    """Potential Hessians (..., l, n, n) at the interval midpoints of paths
    (..., l+1, n), pointwise as ``_hessian_at`` gives them."""
    return _hessian_at(model, 0.5 * (nodes[..., 1:, :] + nodes[..., :-1, :]))


def _bvp_blocks(
    model: LagrangianModel,
    nodes: np.ndarray,
    dt: np.ndarray,
    hessians: np.ndarray | None = None,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Blocks of the Jacobian of the stacked interior defects, which is the
    Hessian of the midpoint action in the interior nodes.

    ``nodes`` is (l+1, n) or a batch (P, l+1, n) on one grid, and
    ``hessians`` their ``_midpoint_hessians``, evaluated here if not given.
    Returns the diagonal blocks (..., l-1, n, n) and the blocks
    (..., l-2, n, n) that couple interior nodes j and j+1; each one is both
    the upper block of row j and the lower block of row j+1.  They are
    written into ``out`` if given, a pair of arrays of those shapes, one
    entry (a, b) of every block at a time, so it may be a strided view.
    """
    m = model.mass
    if hessians is None:
        hessians = _midpoint_hessians(model, nodes)
    n = nodes.shape[-1]
    if out is None:
        batch = nodes.shape[:-2]
        out = (np.empty(batch + (dt.size - 1, n, n)),
               np.empty(batch + (max(dt.size - 2, 0), n, n)))
    diag, off = out
    # d(force term)/d(node) on interval j contributes (dt_j/4) Hess V(mid_j)
    quarter_dt = 0.25 * dt
    kinetic, coupling = m / dt[:-1] + m / dt[1:], -(m / dt[1:-1])
    eye = np.eye(n)
    # out= keeps the temporaries to one (..., l) array per entry: expression
    # temporaries raised converge_bvp2d's peak RSS by 1.3 MB at seed 1 (2-core
    # x86-64 box)
    for a in range(n):
        for b in range(n):
            hess = quarter_dt * hessians[..., a, b]
            entry = diag[..., a, b]
            np.subtract(kinetic * eye[a, b], hess[..., :-1], out=entry)
            np.subtract(entry, hess[..., 1:], out=entry)
            np.subtract(coupling * eye[a, b], hess[..., 1:-1], out=off[..., a, b])
    return diag, off


def _banded_step(
    model: LagrangianModel, nodes: np.ndarray, dt: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Newton steps of P problems (P, l+1, n) by one pivoted banded LU.

    The P Jacobians sit block-diagonally in one LAPACK band matrix of
    half-bandwidth w = 2n-1, solved by one ``dgbsv`` call; partial pivoting
    never leaves a pair's own rows, since every entry coupling two pairs is
    zero.  A pair with a non-finite block or right-hand side is replaced by
    an identity system with zero right-hand side before the solve (0 * NaN
    in the substitutions would reach its neighbours), and so is every pair
    the LU finds singular, after which the solve is repeated once.  Those
    pairs get a NaN step, which the line search rejects.

    ``_bvp_blocks`` writes the blocks straight into the band.  Entry (i, j)
    of the stacked matrix is ab[2w + i - j, j], and column j = (p K + k) n + b
    is band[p, k, b]; so entry (a, b) of node k's diagonal block is
    band[p, k, b, 2w + a - b], and the block coupling nodes k and k+1 sits n
    slots above that in column node k+1 and n slots below it in column node k.
    """
    P, K, n = rhs.shape
    w = 2 * n - 1
    hessians = _midpoint_hessians(model, nodes)
    band = np.zeros((P, K, n, 3 * w + 1))
    # those entries as views (P, K, n, n) and (P, K-1, n, n), indexed like the blocks
    strides = band.strides[:2] + (band.strides[3], band.strides[2] - band.strides[3])
    diag = as_strided(band[..., 2 * w:], (P, K, n, n), strides)
    upper = as_strided(band[:, 1:, :, 2 * w - n:], (P, K - 1, n, n), strides)
    lower = as_strided(band[:, :-1, :, 2 * w + n:], (P, K - 1, n, n), strides)

    def fill() -> None:
        _bvp_blocks(model, nodes, dt, hessians, out=(diag, upper))
        for a in range(n):
            for b in range(n):
                lower[..., a, b] = upper[..., a, b]

    fill()
    bad = ~(np.isfinite(band).all(axis=(1, 2, 3)) & np.isfinite(rhs).all(axis=(1, 2)))
    while True:
        if bad.any():
            band[bad] = 0.0
            band[bad, :, :, 2 * w] = 1.0
            rhs = rhs.copy()
            rhs[bad] = 0.0
        # dgbsv factors the band in place
        ab = band.reshape(P * K * n, 3 * w + 1).T
        _, _, step, info = dgbsv(w, w, ab, rhs.reshape(-1, 1), overwrite_ab=True)
        if info <= 0:
            break
        # the LU went on past every zero pivot and left each on U's diagonal
        bad |= (band[..., 2 * w] == 0.0).any(axis=(1, 2))
        band[...] = 0.0
        fill()
    step = step.reshape(P, K, n)
    if bad.any():
        step[bad] = np.nan
    return step


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


def _lowest_and_inverse(pivot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest eigenvalue (P,) and inverse (P, n, n) of the symmetric parts of
    P blocks (P, n, n): closed forms for n <= 2, ``eigh`` beyond.  A non-finite
    block has a NaN eigenvalue, a singular one a non-finite inverse."""
    n = pivot.shape[-1]
    if n == 1:
        return pivot[:, 0, 0], 1.0 / pivot
    if n == 2:
        a, b, c = pivot[:, 0, 0], 0.5 * (pivot[:, 0, 1] + pivot[:, 1, 0]), pivot[:, 1, 1]
        adjugate = np.stack([c, -b, -b, a], axis=-1).reshape(-1, 2, 2)
        lowest = 0.5 * (a + c) - np.hypot(0.5 * (a - c), b)
        return lowest, adjugate / (a * c - b * b)[:, None, None]
    finite = np.isfinite(pivot).all(axis=(1, 2))
    sym = np.where(finite[:, None, None], 0.5 * (pivot + np.swapaxes(pivot, 1, 2)), np.eye(n))
    w, v = np.linalg.eigh(sym)  # one NaN block would fail the whole call
    return np.where(finite, w[:, 0], np.nan), (v / w[:, None, :]) @ np.swapaxes(v, 1, 2)


def _saddle_nodes(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """First interior node (1..K) where the action's Hessian fails to be
    positive definite, per pair, or 0 where it is.

    ``diag`` (P, K, n, n) and ``off`` (P, K-1, n, n) are its blocks from
    ``_bvp_blocks``.  The block LDL^T pivots follow the discrete Riccati
    recursion D_1 = A_1, D_{k+1} = A_{k+1} - B_k^T D_k^{-1} B_k, and by
    Sylvester's law of inertia the Hessian is positive definite iff every
    pivot is.  A pivot fails unless its smallest eigenvalue is at least -64
    eps times the pair's largest diagonal-block entry, the rounding noise of
    differences of terms that size.  A singular pivot fails the next one;
    the last one, singular at a conjugate endpoint, passes.  A failed pair
    goes on from an identity pivot, which keeps its arithmetic finite.
    """
    floor = -64.0 * np.finfo(float).eps * np.max(np.abs(diag), axis=(1, 2, 3), initial=0.0)
    node = np.zeros(diag.shape[0], dtype=int)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(diag.shape[1]):
            pivot = diag[:, k]
            if k:
                b = off[:, k - 1]
                pivot = pivot - np.swapaxes(b, 1, 2) @ inverse @ b
            lowest, inverse = _lowest_and_inverse(pivot)
            failed = ~(lowest >= floor)
            node[failed & (node == 0)] = k + 1
            inverse[failed] = np.eye(diag.shape[-1])
    return node


def _convex_pairs(model: LagrangianModel, hessians: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Pairs (P,) whose midpoint action is uniformly convex in the interior
    nodes by a bound on their midpoint Hessians ``hessians`` (P, l, n, n).

    The kinetic part of the action's Hessian is the path Laplacian with
    weights m/dt_j, at least m/dt_max times the Dirichlet Laplacian of l unit
    intervals, so its smallest eigenvalue is at least
    kappa = (m/dt_max) 4 sin^2(pi/(2l)).  The potential part,
    -sum_j (dt_j/4) (u_j + u_{j+1})^T H_j (u_j + u_{j+1}), is at most
    dt_max max_j ||H_j||_2 |u|^2 in size, since every node lies in two
    intervals, and the spectral norm is at most the Frobenius norm.  A pair
    with 2 dt_max max_j ||H_j||_F < kappa thus has a Hessian whose smallest
    eigenvalue exceeds kappa/2, and so has every block LDL^T pivot, each a
    Schur complement of it: ``_saddle_nodes`` finds no saddle node.  A
    non-finite Hessian certifies nothing.
    """
    dt_max = float(np.max(dt))
    kappa = model.mass / dt_max * 4.0 * math.sin(0.5 * math.pi / dt.size) ** 2
    frobenius = np.sqrt(np.max(np.einsum("pjab,pjab->pj", hessians, hessians), axis=1))
    return 2.0 * dt_max * frobenius < kappa


def _bvp_core(
    model: LagrangianModel,
    grid: TimeGrid,
    nodes: np.ndarray,
    check_minimum: bool,
) -> BvpBatchResult:
    """Damped Newton and minimality test for P stacked problems (P, l+1, n).

    ``nodes`` holds the starts, endpoints pinned, and may be overwritten; the
    result holds the solved nodes.  Every pair takes its own Newton steps
    and Armijo step lengths on the squared residual and stops on its own
    test; the pairs still iterating share one ``_banded_step`` per
    iteration, and since a pair's step is bitwise the same alone or in a
    batch, so is its whole solve.  A pair converges
    if its residual meets the tolerance and its midpoint action is finite,
    and, if ``check_minimum``, is a minimum.  The potential Hessians at the
    converged pairs' midpoints are evaluated once; ``_convex_pairs`` proves
    minimality from them for the pairs whose span is short against their
    curvature, and only the rest take the exact pivot test of
    ``_saddle_nodes``, which they share, on blocks built from the same
    Hessians.  The bound proves only what that test would find, so each
    pair's result is the same as if every pair took the test.  No random
    number is drawn.
    """
    P = nodes.shape[0]
    dt = grid.spacings
    tol, max_iter = _BVP_TOL, _BVP_MAX_ITER
    scale = _residual_scale(model, nodes[:, 0], nodes[:, -1], grid, tol)
    defects = _interior_defects(model, nodes, dt)
    # with no interior node (one interval) the segment is the solution
    err = np.max(np.abs(defects), axis=(1, 2), initial=0.0)
    iters = np.full(P, max_iter)
    active = np.arange(P)
    for it in range(max_iter):
        done = err[active] <= tol * scale[active]
        iters[active[done]] = it
        active = active[~done]
        if active.size == 0:
            break
        # while every pair iterates, no pair is gathered or scattered
        whole = active.size == P
        base, base_defects = (nodes, defects) if whole else (nodes[active], defects[active])
        step = _banded_step(model, base, dt, -base_defects)
        phi = 0.5 * np.sum(base_defects * base_defects, axis=(1, 2))
        # the full step of every pair is the first trial (1.0 * step is step)
        trial = base.copy()
        trial[:, 1:-1] += step
        trial_defects = _interior_defects(model, trial, dt)
        trial_phi = 0.5 * np.sum(trial_defects * trial_defects, axis=(1, 2))
        t = np.ones(active.size)
        searching = np.flatnonzero(~(trial_phi <= phi * (1.0 - 1e-4)))
        t[searching] *= 0.5
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
        if whole and not stalled.any():
            nodes, defects = trial, trial_defects
            err = np.max(np.abs(defects), axis=(1, 2))
            continue
        moved = active[~stalled]
        nodes[moved] = trial[~stalled]
        defects[moved] = trial_defects[~stalled]
        err[moved] = np.max(np.abs(trial_defects[~stalled]), axis=(1, 2))
        active = moved
    # a stalled pair stopped above the tolerance, so this test fails it too;
    # an action that overflowed fails however small the scaled residual
    costs = _midpoint_actions(model, nodes, dt)
    converged = (err <= tol * scale) & np.isfinite(costs)
    saddle_node = np.zeros(P, dtype=int)
    checked = np.flatnonzero(converged)
    if check_minimum and checked.size:
        hessians = _midpoint_hessians(model, nodes[checked])
        # only the pairs the convexity bound leaves open take the pivot test
        uncertified = ~_convex_pairs(model, hessians, dt)
        if uncertified.any():
            tested = checked[uncertified]
            saddle_node[tested] = _saddle_nodes(
                *_bvp_blocks(model, nodes[tested], dt, hessians[uncertified])
            )
    return BvpBatchResult(nodes, costs, err, iters, converged & (saddle_node == 0), saddle_node)


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


def _pair_starts(grid: TimeGrid, x, y) -> np.ndarray:
    """Straight-line start nodes (P, l+1, n) of the pairs x[p] -> y[p], endpoints pinned."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape != y.shape:
        raise ValueError("endpoints must be two arrays of the same shape (P, n)")
    u = ((grid.nodes - grid.start) / grid.span)[:, None]
    nodes = (1.0 - u) * x[:, None, :] + u * y[:, None, :]
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
        Warm-start path, evaluated at the grid's interior nodes, so its span
        must cover the grid's; default is the straight line from x to y.
    check_minimum
        Reject saddle points: the Hessian of the midpoint action in the
        interior nodes must be positive definite.  A convexity bound on the
        potential's Hessian proves it for short spans; otherwise the block
        LDL^T pivot test of ``_saddle_nodes`` decides it exactly, up to
        rounding.
        Failure is reported through ``converged=False`` with a message
        naming the interior node where the test fails, not by raising.
    n_restarts
        Additional solves from randomized warm starts.  Solutions are
        clustered by sup-distance at 1e-3; the lowest-cost cluster is
        returned and the cluster count reported as multiplicity.  Useful near
        conjugate spans where minimizers are non-unique.

    The solve works on the full stacked interior system (not shooting), with
    Armijo-damped Newton steps, each from a pivoted banded LU of the
    block-tridiagonal Jacobian.  The attempts are solved in one batch by
    the core of ``solve_bvp_pairs``, so each is bitwise what it gives alone.
    Restart noise comes from one ``default_rng(0)`` per call, so equal
    inputs give equal results; nothing else is random.

    Returns
    -------
    BvpResult
        Path with endpoints pinned exactly to the inputs, its midpoint action
        as cost, and the terminal max-norm residual.
    """
    x, y = as_point(x), as_point(y)
    if x.shape != y.shape:
        raise ValueError("endpoints have different dimensions")
    start = _pair_starts(grid, x[None], y[None])
    if init is not None:
        start[0, 1:-1] = init.evaluate(grid.nodes)[1:-1]
    nodes = np.repeat(start, 1 + max(0, n_restarts), axis=0)
    if n_restarts > 0:
        noise = 0.5 * (float(np.max(np.abs(y - x))) + 1.0)
        bump = np.sin(np.pi * (grid.nodes[1:-1] - grid.start) / grid.span)
        draws = default_rng(0).standard_normal(nodes[1:, 1:-1].shape)
        nodes[1:, 1:-1] += noise * bump[:, None] * draws
    res = _bvp_core(model, grid, nodes, check_minimum)
    results = [
        BvpResult(Path(grid, res.nodes[k]), float(res.costs[k]), float(res.residuals[k]),
                  bool(res.converged[k]), int(res.newton_iterations[k]), message=res.message(k))
        for k in range(nodes.shape[0])
    ]
    best = results[0]
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
    check_minimum: bool = True,
) -> BvpBatchResult:
    """Connect x[p] to y[p] for P pairs of points (P, n) on one grid at once.

    This is the cost-matrix and connect solve of the transport; every pair
    starts from the straight line.  Pair p is bitwise ``solve_bvp(model,
    x[p], y[p], grid, check_minimum=check_minimum)``: the same start and
    Newton core, whose steps come from one pivoted banded LU (LAPACK
    ``dgbsv``) over the pairs still iterating, O(P l n^3) work per Newton
    iteration.  With ``check_minimum``, a convexity bound on the converged
    pairs' midpoint Hessians certifies the pairs whose span is short against
    their curvature, and one block LDL^T recursion over the other converged
    pairs tests minimality exactly.  All of it acts on each pair alone, so
    its result does not depend on the batch, and no random number is drawn.
    Failures are reported per pair through ``converged`` and ``message``,
    not by raising.
    """
    return _bvp_core(model, grid, _pair_starts(grid, x, y), check_minimum)
