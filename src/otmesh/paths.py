"""Time grids, piecewise-affine paths, and the action functionals on them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatchError
from .models import LagrangianModel, as_point

# 5-point Gauss-Legendre nodes on [-1, 1] and weights for continuous_action,
# bitwise as numpy.polynomial.legendre.leggauss(5) returns them; written out
# so that importing otmesh does not import numpy.polynomial
_GL_NODES = np.array(
    [-0.906179845938664, -0.5384693101056831, 0.0, 0.5384693101056831, 0.906179845938664]
)
_GL_WEIGHTS = np.array(
    [0.23692688505618928, 0.4786286704993663, 0.5688888888888887,
     0.4786286704993663, 0.23692688505618928]
)


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing partition a = t_0 < t_1 < ... < t_l = b."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = _frozen_array(self.nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("a time grid needs at least two nodes")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("grid nodes must be finite")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("grid nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def uniform(cls, start: float, end: float, n_intervals: int) -> "TimeGrid":
        if n_intervals < 1:
            raise ValueError("need at least one interval")
        return cls(np.linspace(start, end, n_intervals + 1))

    @classmethod
    def from_step(cls, start: float, end: float, max_step: float) -> "TimeGrid":
        """Uniform grid with as few intervals as possible and spacing <= max_step."""
        if max_step <= 0:
            raise ValueError("max_step must be positive")
        n = max(1, int(np.ceil((end - start) / max_step - 1e-12)))
        return cls.uniform(start, end, n)

    @property
    def start(self) -> float:
        return float(self.nodes[0])

    @property
    def end(self) -> float:
        return float(self.nodes[-1])

    @property
    def span(self) -> float:
        return float(self.nodes[-1] - self.nodes[0])

    @property
    def n_intervals(self) -> int:
        return self.nodes.size - 1

    @property
    def spacings(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def max_spacing(self) -> float:
        # recomputed on access so it can never go stale
        return float(np.max(np.diff(self.nodes)))

    def locate(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Interval index and affine coordinate u in [0, 1] of every time.

        Times must lie in the span; u is exactly 0 at a node and exactly 1 at
        the grid's end, so affine interpolation returns nodal values bitwise.
        """
        idx = np.clip(
            np.searchsorted(self.nodes, times, side="right") - 1,
            0,
            self.n_intervals - 1,
        )
        return idx, (times - self.nodes[idx]) / self.spacings[idx]

    def refine(self, factor: int = 2) -> "TimeGrid":
        """Split every interval into `factor` equal pieces."""
        if factor < 1:
            raise ValueError("factor must be >= 1")
        if factor == 1:
            return self
        left = self.nodes[:-1]
        steps = np.diff(self.nodes)
        inner = left[:, None] + steps[:, None] * (np.arange(factor) / factor)[None, :]
        return TimeGrid(np.append(inner.ravel(), self.nodes[-1]))


@dataclass(frozen=True)
class Path:
    """Piecewise-affine curve: nodal positions on a time grid.

    The velocity on each interval is the constant difference quotient of the
    neighbouring nodes; no higher-order interpolation is attached.
    """

    grid: TimeGrid
    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim == 1:
            nodes = nodes[:, None]
        nodes = _frozen_array(nodes)
        if nodes.shape[0] != self.grid.nodes.size:
            raise ValueError(
                f"path has {nodes.shape[0]} nodal points for a grid with "
                f"{self.grid.nodes.size} nodes"
            )
        if not np.all(np.isfinite(nodes)):
            raise ValueError("nodal positions must be finite")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def line(cls, grid: TimeGrid, x, y) -> "Path":
        """Straight line from x at grid start to y at grid end."""
        x, y = as_point(x), as_point(y)
        if x.shape != y.shape:
            raise DimensionMismatchError("endpoints have different dimensions")
        u = ((grid.nodes - grid.start) / grid.span)[:, None]
        return cls(grid, (1.0 - u) * x[None, :] + u * y[None, :])

    @classmethod
    def from_function(cls, grid: TimeGrid, fn: Callable[[np.ndarray], np.ndarray]) -> "Path":
        """Sample a trajectory t -> point onto the grid nodes."""
        values = np.stack([as_point(fn(t)) for t in grid.nodes])
        return cls(grid, values)

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    @property
    def start_point(self) -> np.ndarray:
        return self.nodes[0]

    @property
    def end_point(self) -> np.ndarray:
        return self.nodes[-1]

    @property
    def velocities(self) -> np.ndarray:
        """Per-interval constant velocities, shape (l, n)."""
        return np.diff(self.nodes, axis=0) / self.grid.spacings[:, None]

    def velocity_sq_integral(self) -> float:
        """Integral of |velocity|^2 over the whole span."""
        d = np.diff(self.nodes, axis=0)
        return float(np.sum(np.sum(d * d, axis=1) / self.grid.spacings))

    def evaluate(self, times) -> np.ndarray:
        """Piecewise-affine evaluation; exact nodal values at grid nodes."""
        t = np.atleast_1d(np.asarray(times, dtype=float))
        if np.any(t < self.grid.start) or np.any(t > self.grid.end):
            raise ValueError("evaluation time outside the path's span")
        idx, u = self.grid.locate(t)
        u = u[:, None]
        # (1-u) x + u y returns the nodal values bitwise at u in {0, 1}
        out = (1.0 - u) * self.nodes[idx] + u * self.nodes[idx + 1]
        return out if np.ndim(times) else out[0]


@dataclass(frozen=True)
class PhasePoint:
    """A point (x, v) of phase space R^n x R^n."""

    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        pos = _frozen_array(as_point(self.position))
        vel = _frozen_array(as_point(self.velocity))
        if pos.shape != vel.shape:
            raise DimensionMismatchError("position and velocity dimensions differ")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "velocity", vel)

    @property
    def dim(self) -> int:
        return self.position.size


# ---------------------------------------------------------------------------
# Action functionals
# ---------------------------------------------------------------------------


def continuous_action(model: LagrangianModel, path: Path) -> float:
    """Action integral of L along a piecewise-affine path.

    The kinetic part is exact per interval, (m/2)|dx|^2/dt; the potential part
    is integrated with composite 5-point Gauss-Legendre quadrature per
    interval, which keeps the quadrature error of smooth potentials far below
    the midpoint-rule effects this value is used to referee.
    """
    dt = path.grid.spacings
    d = np.diff(path.nodes, axis=0)
    kinetic = 0.5 * model.mass * float(np.sum(np.sum(d * d, axis=1) / dt))
    u = 0.5 * (_GL_NODES + 1.0)  # quadrature abscissae mapped to [0, 1]
    pos = path.nodes[:-1, None, :] + u[None, :, None] * d[:, None, :]
    vals = np.asarray(model.potential(pos), dtype=float)
    potential = float(np.sum(0.5 * dt * (vals @ _GL_WEIGHTS)))
    return kinetic - potential


def midpoint_action(model: LagrangianModel, path: Path) -> float:
    """Midpoint-rule discretization of the action; exact kinetic part.

    sum_j (m/2)|x_j - x_{j-1}|^2 / dt_j - V((x_j + x_{j-1}) / 2) dt_j.
    """
    return float(_midpoint_actions(model, path.nodes, path.grid.spacings))


def _midpoint_actions(model: LagrangianModel, nodes: np.ndarray, dt: np.ndarray):
    """Midpoint action of nodes (l+1, n), or of each path of a batch (P, l+1, n)."""
    d = np.diff(nodes, axis=-2)
    kinetic = 0.5 * model.mass * np.sum(np.sum(d * d, axis=-1) / dt, axis=-1)
    mids = 0.5 * (nodes[..., 1:, :] + nodes[..., :-1, :])
    potential = np.sum(np.asarray(model.potential(mids), dtype=float) * dt, axis=-1)
    return kinetic - potential


def many_particle_action(
    model: LagrangianModel, paths: Sequence[Path], scheme: str = "midpoint"
) -> float:
    """Average per-particle action over a family of paths."""
    if len(paths) == 0:
        raise ValueError("need at least one path")
    dims = {p.dim for p in paths}
    if len(dims) != 1:
        raise DimensionMismatchError(f"paths mix dimensions {sorted(dims)}")
    if scheme == "midpoint":
        ref = paths[0].grid.nodes
        for p in paths[1:]:
            if not np.array_equal(p.grid.nodes, ref):
                raise ValueError("midpoint scheme requires a common grid")
        values = [midpoint_action(model, p) for p in paths]
    elif scheme == "continuous":
        values = [continuous_action(model, p) for p in paths]
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return float(np.mean(values))


def _merged_nodes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted distinct values of two 1-D arrays.

    The sort and the dedupe of ``np.union1d``, bitwise its result, without
    its lookup of ``np.ma``, which numpy 2 imports on first use.
    """
    merged = np.concatenate((a, b))
    merged.sort()
    keep = np.empty(merged.size, dtype=bool)
    keep[:1] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def uniform_distance(p: Path, q: Path) -> float:
    """Supremum over time of the Euclidean distance between two paths.

    Both paths must cover the same time span.  For piecewise-affine pairs the
    pointwise distance is convex on every interval of the merged node set, so
    the supremum over merged nodes is exact.
    """
    if p.dim != q.dim:
        raise DimensionMismatchError("paths have different space dimensions")
    if p.grid.start != q.grid.start or p.grid.end != q.grid.end:
        raise ValueError(
            f"paths cover different time spans [{p.grid.start}, {p.grid.end}] "
            f"vs [{q.grid.start}, {q.grid.end}]"
        )
    times = _merged_nodes(p.grid.nodes, q.grid.nodes)
    diff = p.evaluate(times) - q.evaluate(times)
    return float(np.max(np.linalg.norm(diff, axis=1)))
