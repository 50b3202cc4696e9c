"""Empirical measures on path space and phase space, and their diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DimensionMismatchError
from .integrators import _interior_defects, _rk4_march, reference_flow_batch
from .models import LagrangianModel
from .paths import Path, PhasePoint, TimeGrid, _merged_nodes, _midpoint_actions
# unused here, but bench/tracing.py wraps these names in this module
from .integrators import el_residual, reference_flow  # noqa: F401
from .paths import midpoint_action, uniform_distance  # noqa: F401
from .transport import PointCloud, solve_assignment


class EmpiricalPathMeasure:
    """Uniform-weight sum of path masses (1/N) sum delta_{gamma_i}.

    The atoms are stored as arrays: one read-only node array (N_g, l+1, n)
    per distinct grid (grids equal by value are one), and for every atom the
    index of its grid and its row in that grid's array.  Atoms that share a
    (grid, row) are copies of one path, as ``replicate`` makes them, and
    every stored row belongs to at least one atom.  ``paths`` builds one
    ``Path`` per stored row on first access and keeps them.
    """

    __slots__ = ("_grids", "_nodes", "_group", "_row", "_paths")

    def __init__(self, paths):
        paths = tuple(paths)
        # a repeated Path object is one atom with copies
        atom: dict[int, int] = {}
        block = np.array([atom.setdefault(id(p), len(atom)) for p in paths], dtype=np.intp)
        distinct = list({id(p): p for p in paths}.values())
        _assemble(
            self,
            [p.grid for p in distinct],
            [p.nodes[None] for p in distinct],
            block,
            np.zeros(block.size, dtype=np.intp),
        )
        self._paths = paths

    @classmethod
    def _from_nodes(cls, grid: TimeGrid, nodes) -> "EmpiricalPathMeasure":
        """The measure of the paths nodes[i] on one grid, for nodes (N, l+1, n).

        Checks the whole array once for what ``Path`` checks path by path,
        with its messages, and keeps one read-only copy.
        """
        nodes = np.asarray(nodes, dtype=float)
        if nodes.shape[1] != grid.nodes.size:
            raise ValueError(
                f"path has {nodes.shape[1]} nodal points for a grid with "
                f"{grid.nodes.size} nodes"
            )
        if not np.all(np.isfinite(nodes)):
            raise ValueError("nodal positions must be finite")
        size = nodes.shape[0]
        return _assemble(
            object.__new__(cls), [grid], [nodes], np.zeros(size, dtype=np.intp), np.arange(size)
        )

    def _store(self, grids, nodes, group, row, paths=None) -> "EmpiricalPathMeasure":
        group.setflags(write=False)
        row.setflags(write=False)
        self._grids, self._nodes = tuple(grids), tuple(nodes)
        self._group, self._row, self._paths = group, row, paths
        return self

    @property
    def paths(self) -> tuple[Path, ...]:
        if self._paths is None:
            stored = [[Path(grid, x) for x in X] for grid, X in zip(self._grids, self._nodes)]
            self._paths = tuple(
                stored[g][r] for g, r in zip(self._group.tolist(), self._row.tolist())
            )
        return self._paths

    @property
    def size(self) -> int:
        return self._group.size

    @property
    def dim(self) -> int:
        return self._nodes[0].shape[2]

    @property
    def time_span(self) -> tuple[float, float]:
        g = self._grids[0]
        return g.start, g.end

    def common_grid_nodes(self) -> np.ndarray | None:
        """Shared node vector when every path lives on the same grid."""
        return self._grids[0].nodes if len(self._grids) == 1 else None

    def replicate(self, factor: int) -> "EmpiricalPathMeasure":
        """Duplicate every atom; represents the same measure as a multiset.

        The copies share the node arrays of this measure.
        """
        if factor < 1:
            raise ValueError("replication factor must be >= 1")
        return object.__new__(EmpiricalPathMeasure)._store(
            self._grids,
            self._nodes,
            np.tile(self._group, factor),
            np.tile(self._row, factor),
            None if self._paths is None else self._paths * factor,
        )


def _assemble(measure, grids, blocks, block, row) -> EmpiricalPathMeasure:
    """Fill measure with the atoms row[i] of blocks[block[i]], return it.

    ``blocks[k]`` is a node array (k_rows, l+1, n) on ``grids[k]``.  Checks
    that there is an atom and that all share one dimension and one time span,
    with the messages of the public constructor, then copies the blocks of
    grids equal by value into one read-only array.
    """
    if block.size == 0:
        raise ValueError("a path measure needs at least one path")
    dims = {X.shape[2] for X in blocks}
    if len(dims) != 1:
        raise DimensionMismatchError(f"paths mix dimensions {sorted(dims)}")
    group_of: dict[bytes, int] = {}
    distinct: list[TimeGrid] = []
    members: list[list[int]] = []
    group = np.empty(len(blocks), dtype=np.intp)
    for k, grid in enumerate(grids):
        g = group[k] = group_of.setdefault(grid.nodes.tobytes(), len(distinct))
        if g == len(distinct):
            distinct.append(grid)
            members.append([])
        members[g].append(k)
    spans = {(grid.start, grid.end) for grid in distinct}
    if len(spans) != 1:
        raise ValueError(f"paths cover different time spans: {sorted(spans)}")
    offset = np.empty(len(blocks), dtype=np.intp)
    nodes = []
    for ks in members:
        sizes = [blocks[k].shape[0] for k in ks]
        offset[ks] = np.cumsum(sizes) - sizes
        X = np.concatenate([blocks[k] for k in ks])
        X.setflags(write=False)
        nodes.append(X)
    return measure._store(distinct, nodes, group[block], offset[block] + row)


def _join(measures) -> EmpiricalPathMeasure:
    """The atoms of all the measures, in order, as one measure."""
    grids = [grid for m in measures for grid in m._grids]
    blocks = [X for m in measures for X in m._nodes]
    base = np.cumsum([0] + [len(m._grids) for m in measures])
    return _assemble(
        object.__new__(EmpiricalPathMeasure),
        grids,
        blocks,
        np.concatenate([b + m._group for b, m in zip(base, measures)]),
        np.concatenate([m._row for m in measures]),
    )


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
) -> EmpiricalPathMeasure:
    """Launch every phase-space atom along a flow; path i comes from state i.

    ``kind="reference"`` integrates all atoms in one batched RK4 reference
    flow, ``kind="discrete"`` marches the midpoint recurrence atom by atom.
    For unbounded potentials the caller is responsible for keeping the span
    within the admissible horizon when the resulting measure feeds a
    minimization; pure flow studies remain valid beyond it.
    """
    from .integrators import discrete_flow  # local import keeps module load light

    if kind == "reference":
        nodes, _, _ = reference_flow_batch(model, eta.positions, eta.velocities, grid)
        return EmpiricalPathMeasure._from_nodes(grid, nodes)
    if kind == "discrete":
        return EmpiricalPathMeasure(discrete_flow(model, s, grid).path for s in eta.states())
    raise ValueError(f"unknown flow kind {kind!r}")


def marginal_at_time(pi: EmpiricalPathMeasure, t: float) -> PointCloud:
    """Push the path measure through evaluation at time t."""
    a, b = pi.time_span
    if not (a <= t <= b):
        raise ValueError(f"time {t} outside the measure's span [{a}, {b}]")
    return PointCloud(_atoms_at(pi, np.atleast_1d(np.asarray(t, dtype=float)))[:, 0])


def _per_atom(measure: EmpiricalPathMeasure, values) -> np.ndarray:
    """The value of every atom, given one array of values per stored row and grid."""
    out = np.empty((measure.size,) + values[0].shape[1:], dtype=values[0].dtype)
    for g, v in enumerate(values):
        members = measure._group == g
        out[members] = v[measure._row[members]]
    return out


def _rows_at(grid: TimeGrid, X: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The paths X (N, l+1, n) on grid evaluated at the times (inside the span), (N, T, n)."""
    idx, u = grid.locate(times)
    u = u[:, None]
    # the formula of Path.evaluate, so values agree with it bitwise
    return (1.0 - u) * X[:, idx] + u * X[:, idx + 1]


def _atoms_at(measure: EmpiricalPathMeasure, times: np.ndarray) -> np.ndarray:
    """Every atom evaluated at the times (inside the span), (N, T, n)."""
    return _per_atom(
        measure, [_rows_at(grid, X, times) for grid, X in zip(measure._grids, measure._nodes)]
    )


def _endpoints(measure: EmpiricalPathMeasure) -> tuple[np.ndarray, np.ndarray]:
    """First and last node of every atom, each (N, n)."""
    return (
        _per_atom(measure, [X[:, 0] for X in measure._nodes]),
        _per_atom(measure, [X[:, -1] for X in measure._nodes]),
    )


def _pairwise_sup_distances(
    p: EmpiricalPathMeasure, q: EmpiricalPathMeasure
) -> np.ndarray:
    """Matrix of sup-over-time distances between the atoms of two measures.

    For every pair of stored grids, one of each measure, the atoms on them
    are evaluated at the merged nodes of the two grids, where the supremum
    is attained, and a running maximum of squared distances over those times
    keeps temporaries at (N_p, N_q, n); one square root follows.  Each block
    goes to the rows and columns of its atoms.  ``np.linalg.norm`` of real
    input is the square root of the same sum of squares, and the square root
    is monotone and correctly rounded, so the result equals
    ``uniform_distance`` pair by pair, bitwise.
    """
    if p.time_span != q.time_span:
        raise ValueError(
            f"measures cover different time spans {p.time_span} vs {q.time_span}"
        )
    out = np.empty((p.size, q.size))
    for grid_p, X_p, at_p in _grid_atoms(p):
        for grid_q, X_q, at_q in _grid_atoms(q):
            times = _merged_nodes(grid_p.nodes, grid_q.nodes)
            block = _sup_distances(_rows_at(grid_p, X_p, times), _rows_at(grid_q, X_q, times))
            if at_p.size == p.size and at_q.size == q.size:
                return block
            out[np.ix_(at_p, at_q)] = block
    return out


def _grid_atoms(measure: EmpiricalPathMeasure):
    """(grid, node array of its atoms, atom indices) for every stored grid."""
    for g, (grid, X) in enumerate(zip(measure._grids, measure._nodes)):
        atoms = np.flatnonzero(measure._group == g)
        yield grid, X[measure._row[atoms]], atoms


def _sup_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """max over k of |A[i, k] - B[j, k]| for A (N_A, T, n) and B (N_B, T, n)."""
    d = A[:, None, 0] - B[None, :, 0]
    out = np.sum(d * d, axis=-1)
    for k in range(1, A.shape[1]):
        d = A[:, None, k] - B[None, :, k]
        np.maximum(out, np.sum(d * d, axis=-1), out=out)
    return np.sqrt(out, out=out)


def bl_distance_bound(p: EmpiricalPathMeasure, q: EmpiricalPathMeasure) -> float:
    """Assignment upper bound for the bounded-Lipschitz distance.

    Computes the optimal-matching average of min(sup-distance, 2).  Any test
    function with sup-norm plus Lipschitz constant at most one changes by at
    most min(d, 2) between paths at sup-distance d, so this is an upper bound
    for the bounded-Lipschitz distance.  It is itself a transport metric on
    equal-size multisets and vanishes iff the multisets coincide; it is used
    as a convergence diagnostic, not as the exact value.
    """
    if p.size != q.size:
        raise ValueError(f"measures have different sizes: {p.size} vs {q.size}")
    if p.dim != q.dim:
        raise DimensionMismatchError("measures have different space dimensions")
    # replicate() makes atoms share a stored row: measure each distinct atom
    # once, in first-occurrence order, and give every copy its row
    offsets = np.cumsum([0] + [X.shape[0] for X in p._nodes])
    _, first, inverse = np.unique(
        offsets[p._group] + p._row, return_index=True, return_inverse=True
    )
    if first.size < p.size:
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        atoms = first[order]
        distinct = object.__new__(EmpiricalPathMeasure)._store(
            p._grids, p._nodes, p._group[atoms], p._row[atoms]
        )
        ground = np.minimum(_pairwise_sup_distances(distinct, q), 2.0)[rank[inverse]]
    else:
        ground = np.minimum(_pairwise_sup_distances(p, q), 2.0)
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
) -> ConcentrationReport:
    """Quantify how close a path measure is to flow-concentrated stationarity.

    Every stored node array of the measure, one per grid, gets its EL
    residuals from the batched interior defects and its midpoint actions in
    one batch, and all grids share one RK4 march (``_rk4_march``) of the
    reference flow from the first nodes and first difference quotients;
    sup-distances are taken over each grid's nodes, and copies of an atom
    share its values.  The values are bitwise those of ``el_residual``,
    ``midpoint_action`` and ``uniform_distance`` applied path by path.  If a
    reference orbit leaves the guard radius, BlowUpError names the earliest
    grid interval where one did, over all grids.
    """
    resids, actions, starts = [], [], []
    for grid, X in zip(pi._grids, pi._nodes):
        dt = grid.spacings
        if grid.n_intervals >= 2:
            defects = _interior_defects(model, X, dt)
            resids.append(np.max(np.linalg.norm(defects, axis=-1), axis=-1))
        else:
            resids.append(np.zeros(X.shape[0]))
        actions.append(_midpoint_actions(model, X, dt))
        starts.append((X[:, 0], (X[:, 1] - X[:, 0]) / dt[0], grid))
    flows = _rk4_march(model, starts)
    dists = [
        np.max(np.linalg.norm(X - orbits, axis=-1), axis=-1)
        for X, (orbits, _, _) in zip(pi._nodes, flows)
    ]
    return ConcentrationReport(
        _per_atom(pi, resids), _per_atom(pi, dists), _per_atom(pi, actions)
    )
