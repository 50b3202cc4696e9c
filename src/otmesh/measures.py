"""Empirical measures on path space and their diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .integrators import _interior_defects, _rk4_march
from .models import LagrangianModel
from .paths import Path, TimeGrid, _merged_nodes, _midpoint_actions
# unused here, but bench/tracing.py wraps these names in this module
from .integrators import el_residual, reference_flow  # noqa: F401
from .paths import midpoint_action, uniform_distance  # noqa: F401
from .transport import PointCloud, solve_assignment


class EmpiricalPathMeasure:
    """Uniform-weight sum of path masses (1/N) sum delta_{gamma_i}.

    The atoms are stored as arrays: one read-only node array (N_g, l+1, n)
    per distinct grid (grids equal by value are one), and for every atom its
    row in those arrays stacked in grid order.  Atoms that share a row are
    copies of one path, as ``replicate`` makes them, and every stored row
    belongs to at least one atom.  ``paths`` builds one ``Path`` per stored
    row on first access and keeps them.
    """

    __slots__ = ("_grids", "_nodes", "_atom", "_paths")

    def __init__(self, paths):
        paths = tuple(paths)
        # a repeated Path object is one atom with copies
        row: dict[int, int] = {}
        rows = np.array([row.setdefault(id(p), len(row)) for p in paths], dtype=np.intp)
        distinct = list({id(p): p for p in paths}.values())
        _assemble(self, [p.grid for p in distinct], [p.nodes[None] for p in distinct], rows)
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
        return _assemble(object.__new__(cls), [grid], [nodes], np.arange(nodes.shape[0]))

    def _store(self, grids, nodes, atom, paths=None) -> "EmpiricalPathMeasure":
        atom.setflags(write=False)
        self._grids, self._nodes = tuple(grids), tuple(nodes)
        self._atom, self._paths = atom, paths
        return self

    @property
    def paths(self) -> tuple[Path, ...]:
        if self._paths is None:
            stored = [Path(grid, x) for grid, X in zip(self._grids, self._nodes) for x in X]
            self._paths = tuple(stored[i] for i in self._atom.tolist())
        return self._paths

    @property
    def size(self) -> int:
        return self._atom.size

    @property
    def dim(self) -> int:
        return self._nodes[0].shape[2]

    @property
    def time_span(self) -> tuple[float, float]:
        g = self._grids[0]
        return g.start, g.end

    def replicate(self, factor: int) -> "EmpiricalPathMeasure":
        """Duplicate every atom; represents the same measure as a multiset.

        The copies share the node arrays of this measure.
        """
        if factor < 1:
            raise ValueError("replication factor must be >= 1")
        return object.__new__(EmpiricalPathMeasure)._store(
            self._grids,
            self._nodes,
            np.tile(self._atom, factor),
            None if self._paths is None else self._paths * factor,
        )


def _assemble(measure, grids, blocks, rows) -> EmpiricalPathMeasure:
    """Fill measure with the atoms rows[i] of the blocks stacked in order, return it.

    ``blocks[k]`` is a node array (k_rows, l+1, n) on ``grids[k]``.  Checks
    that there is an atom and that all share one dimension and one time span,
    with the messages of the public constructor, then copies the blocks of
    grids equal by value into one read-only array.
    """
    if rows.size == 0:
        raise ValueError("a path measure needs at least one path")
    dims = {X.shape[2] for X in blocks}
    if len(dims) != 1:
        raise DimensionMismatchError(f"paths mix dimensions {sorted(dims)}")
    group_of: dict[bytes, int] = {}
    distinct: list[TimeGrid] = []
    members: list[list[int]] = []
    for k, grid in enumerate(grids):
        g = group_of.setdefault(grid.nodes.tobytes(), len(distinct))
        if g == len(distinct):
            distinct.append(grid)
            members.append([])
        members[g].append(k)
    spans = {(grid.start, grid.end) for grid in distinct}
    if len(spans) != 1:
        raise ValueError(f"paths cover different time spans: {sorted(spans)}")
    nodes = []
    for ks in members:
        X = np.concatenate([blocks[k] for k in ks])
        X.setflags(write=False)
        nodes.append(X)
    # the given row of every stored row, and its inverse
    start = np.cumsum([0] + [X.shape[0] for X in blocks])
    given = np.concatenate([np.arange(start[k], start[k + 1]) for ks in members for k in ks])
    stored = np.empty_like(given)
    stored[given] = np.arange(given.size)
    return measure._store(distinct, nodes, stored[rows])


def _join(measures) -> EmpiricalPathMeasure:
    """The atoms of all the measures, in order, as one measure."""
    base = np.cumsum([0] + [sum(X.shape[0] for X in m._nodes) for m in measures])
    return _assemble(
        object.__new__(EmpiricalPathMeasure),
        [grid for m in measures for grid in m._grids],
        [X for m in measures for X in m._nodes],
        np.concatenate([b + m._atom for b, m in zip(base, measures)]),
    )


def marginal_at_time(pi: EmpiricalPathMeasure, t: float) -> PointCloud:
    """Push the path measure through evaluation at time t."""
    a, b = pi.time_span
    if not (a <= t <= b):
        raise ValueError(f"time {t} outside the measure's span [{a}, {b}]")
    return PointCloud(_atoms_at(pi, np.atleast_1d(np.asarray(t, dtype=float)))[:, 0])


def _per_atom(measure: EmpiricalPathMeasure, values) -> np.ndarray:
    """The value of every atom, given one array of values per stored row and grid."""
    return np.concatenate(values)[measure._atom]


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

    For every pair of stored grids, one of each measure, the stored rows on
    them are evaluated at the merged nodes of the two grids, where the
    supremum is attained, and a running maximum of squared distances over
    those times keeps temporaries at (N_p, N_q, n); one square root follows.
    The blocks form one stored-rows matrix whose rows and columns go to the
    atoms, so each copied path is measured once.  ``np.linalg.norm`` of real
    input is the square root of the same sum of squares, and the square root
    is monotone and correctly rounded, so the result equals
    ``uniform_distance`` pair by pair, bitwise.
    """
    if p.time_span != q.time_span:
        raise ValueError(
            f"measures cover different time spans {p.time_span} vs {q.time_span}"
        )
    out = np.block([
        [_grid_sup_distances(grid_p, X_p, grid_q, X_q) for grid_q, X_q in zip(q._grids, q._nodes)]
        for grid_p, X_p in zip(p._grids, p._nodes)
    ])
    if not np.array_equal(p._atom, np.arange(out.shape[0])):
        out = out[p._atom]
    if not np.array_equal(q._atom, np.arange(out.shape[1])):
        out = out[:, q._atom]
    return out


def _grid_sup_distances(grid_p, X_p, grid_q, X_q) -> np.ndarray:
    """Sup-distances of the paths X_p on grid_p to X_q on grid_q, over the merged nodes."""
    times = _merged_nodes(grid_p.nodes, grid_q.nodes)
    return _sup_distances(_rows_at(grid_p, X_p, times), _rows_at(grid_q, X_q, times))


def _grid_atoms(measure: EmpiricalPathMeasure):
    """(grid, node rows of its atoms, atom indices) for every stored grid."""
    row = measure._atom
    for grid, X in zip(measure._grids, measure._nodes):
        atoms = np.flatnonzero((row >= 0) & (row < X.shape[0]))
        yield grid, X[row[atoms]], atoms
        row = row - X.shape[0]


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
    ground = _pairwise_sup_distances(p, q)
    np.minimum(ground, 2.0, out=ground)
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
