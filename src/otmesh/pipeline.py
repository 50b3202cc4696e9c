"""End-to-end meshfree transport pipeline and convergence-study harness.

The core step matches two sampled marginal clouds by optimal assignment under
the Lagrangian connection cost and joins every matched pair by a discrete
minimizing trajectory, producing an empirical measure on path space together
with its average action.  Around it sit the marginal samplers, the
recovery-measure construction (template splicing that realizes prescribed
marginals at an O(eps) action premium), and the refinement studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
# numpy 2 imports numpy.random on first use: import it here, not inside a study
from numpy.random import default_rng

from .errors import DimensionMismatchError, HorizonError, OtmeshError, SolverError
from .integrators import _bvp_core, solve_bvp_pairs
# unused here, but bench/tracing.py wraps these names in this module
from .integrators import solve_bvp  # noqa: F401
from .transport import cost_matrix  # noqa: F401
from .measures import (
    EmpiricalPathMeasure,
    _atoms_at,
    _endpoints,
    _join,
    bl_distance_bound,
    concentration_diagnostics,
)
from .models import LagrangianModel, has_closed_form_cost
from .paths import Path, TimeGrid
from .transport import AssignmentPlan, PointCloud, solve_assignment, solve_transport


# ---------------------------------------------------------------------------
# Marginal sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarginalSpec:
    """Recipe for sampling one marginal distribution with compact support.

    kind
        "uniform_box" (low/high bounds), "gaussian" (mean, cov, truncation
        radius), or "custom_points" (explicit cloud).
    sampler
        "quantile" (mid-quantile points, dimension 1 only), "grid" (centers
        of an equal-mass partition; dimension 1 only for gaussians), or
        "iid" (seeded pseudo-random draws, rejected onto the compact support).
    seed
        Seed for the iid sampler; the same spec always produces the same
        cloud.
    """

    kind: str
    sampler: str = "quantile"
    seed: int | None = 0
    low: np.ndarray | None = None
    high: np.ndarray | None = None
    mean: np.ndarray | None = None
    cov: np.ndarray | None = None
    radius: float | None = None
    points: np.ndarray | None = None

    def __post_init__(self):
        if self.sampler not in ("quantile", "grid", "iid"):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.kind == "uniform_box":
            low = _finite_array(self.low, 1, "uniform_box 'low'")
            high = _finite_array(self.high, 1, "uniform_box 'high'")
            if low.shape != high.shape or np.any(low >= high):
                raise ValueError("uniform_box needs low < high componentwise")
            with np.errstate(over="ignore"):
                width = high - low
            if not np.all(np.isfinite(width)):  # the samplers scale by it
                raise ValueError("uniform_box needs a finite width high - low")
            object.__setattr__(self, "low", low)
            object.__setattr__(self, "high", high)
        elif self.kind == "gaussian":
            mean = _finite_array(self.mean, 1, "gaussian 'mean'")
            cov = np.asarray(self.cov if self.cov is not None else 1.0, dtype=float)
            if cov.ndim == 0:
                cov = np.diag(np.full(mean.size, float(cov)))
            elif cov.ndim == 1:
                cov = np.diag(cov)
            if cov.shape != (mean.size, mean.size):
                raise ValueError("covariance shape does not match the mean")
            try:  # the iid sampler draws through this factor
                factor = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                factor = None
            if factor is None or not np.all(np.isfinite(factor)):
                raise ValueError("gaussian 'cov' must be finite and positive definite")
            if self.radius is None or not self.radius > 0:
                raise ValueError("gaussian marginals need a truncation radius > 0")
            object.__setattr__(self, "mean", mean)
            object.__setattr__(self, "cov", cov)
        elif self.kind == "custom_points":
            pts = _finite_array(self.points, 2, "custom_points 'points'")
            object.__setattr__(self, "points", pts)
        else:
            raise ValueError(f"unknown marginal kind {self.kind!r}")
        if self.kind != "custom_points" and self.sampler == "quantile" and self.dim != 1:
            raise ValueError("the quantile sampler is only defined in dimension 1")
        if self.kind == "gaussian" and self.sampler == "grid" and self.dim != 1:
            raise ValueError("gaussian grid sampling is only supported in dimension 1")

    @property
    def dim(self) -> int:
        if self.kind == "uniform_box":
            return self.low.size
        if self.kind == "gaussian":
            return self.mean.size
        return self.points.shape[1]


# Rounds of max(N, 64) draws the iid gaussian sampler makes before it gives
# up; they run out when the truncation ball holds under about 1e-4 of the mass.
_MAX_REJECTION_ROUNDS = 10_000


def _finite_array(value, ndim: int, what: str) -> np.ndarray:
    """A nonempty finite array of ndim axes; scalars and vectors are promoted."""
    arr = np.asarray(value, dtype=float)
    # a number or a flat list is 1-D points, as PointCloud reads it
    arr = np.atleast_1d(arr) if ndim == 1 else np.atleast_2d(arr.T).T
    if arr.ndim != ndim or arr.size == 0 or not np.all(np.isfinite(arr)):
        axes = "a vector" if ndim == 1 else "a list of points"
        raise ValueError(f"{what} must be a number or {axes}, finite and nonempty")
    return arr


def _equal_mass_boxes(low: np.ndarray, high: np.ndarray, count: int) -> np.ndarray:
    """Centers of a recursive equal-volume bisection of a box into N cells."""
    if count == 1:
        return 0.5 * (low + high)[None, :]
    axis = int(np.argmax(high - low))
    left_count = count // 2
    split = low[axis] + (high[axis] - low[axis]) * (left_count / count)
    lo2, hi1 = low.copy(), high.copy()
    hi1[axis] = split
    lo2[axis] = split
    return np.vstack(
        [_equal_mass_boxes(low, hi1, left_count), _equal_mass_boxes(lo2, high, count - left_count)]
    )


def sample_marginal(spec: MarginalSpec, N: int) -> PointCloud:
    """Draw an N-point cloud following the marginal recipe; deterministic per (spec, N)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if spec.kind == "custom_points":
        if N != spec.points.shape[0]:
            raise ValueError(
                f"custom_points has {spec.points.shape[0]} points, requested {N}"
            )
        return PointCloud(spec.points)

    mid_quantiles = (np.arange(N) + 0.5) / N
    if spec.kind == "uniform_box":
        if spec.sampler == "quantile":
            return PointCloud(spec.low[0] + (spec.high[0] - spec.low[0]) * mid_quantiles)
        if spec.sampler == "grid":
            return PointCloud(_equal_mass_boxes(spec.low, spec.high, N))
        rng = default_rng(spec.seed)
        return PointCloud(rng.uniform(spec.low, spec.high, size=(N, spec.dim)))

    # gaussian
    sd = np.sqrt(np.diag(spec.cov))
    if spec.sampler in ("quantile", "grid"):
        # scipy.stats is slow to import and only this branch needs it
        from scipy.stats import truncnorm

        a, b = -spec.radius / sd[0], spec.radius / sd[0]
        return PointCloud(
            truncnorm.ppf(mid_quantiles, a, b, loc=spec.mean[0], scale=sd[0])
        )
    rng = default_rng(spec.seed)
    chol = np.linalg.cholesky(spec.cov)
    out = np.empty((N, spec.dim))
    filled = 0
    for _ in range(_MAX_REJECTION_ROUNDS):
        draw = spec.mean + rng.standard_normal((max(N, 64), spec.dim)) @ chol.T
        keep = draw[np.linalg.norm(draw - spec.mean, axis=1) <= spec.radius]
        take = min(N - filled, keep.shape[0])
        out[filled : filled + take] = keep[:take]
        filled += take
        if filled == N:
            return PointCloud(out)
    raise SolverError(
        f"iid gaussian sampling kept {filled} of {N} points after "
        f"{_MAX_REJECTION_ROUNDS} rounds of draws; the truncation radius "
        f"{spec.radius:g} holds too little of the distribution's mass"
    )


# ---------------------------------------------------------------------------
# One meshfree transport solve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OtmResult:
    """Output of one discrete transport solve."""

    measure: EmpiricalPathMeasure
    plan: AssignmentPlan
    min_action: float


def check_horizon(model: LagrangianModel, span: float, allow_long_horizon: bool = False):
    """Raise HorizonError when the span exceeds the midpoint coercivity bound."""
    bound = model.admissible_horizon()
    if span > bound and not allow_long_horizon:
        raise HorizonError(
            f"time span {span:.6g} exceeds the admissible horizon {bound:.6g} "
            "for the midpoint scheme with this unbounded potential; "
            "pass allow_long_horizon=True to override"
        )


def solve_discrete_otm(
    model: LagrangianModel,
    source: PointCloud,
    target: PointCloud,
    grid: TimeGrid,
    cost_kind: str = "auto",
    allow_long_horizon: bool = False,
) -> OtmResult:
    """Match two clouds at minimal average action and join the matched pairs.

    Matches the clouds with ``solve_transport`` (by sorting 1-D clouds whose
    costs pass its Monge check, with no N x N matrix for closed-form costs),
    then connects all matched pairs in one ``solve_bvp_pairs`` batch, each
    pair exactly as its own ``solve_bvp`` would, so the returned measure
    consists of discrete minimizing trajectories at the grid's resolution.
    With BVP costs the cost matrix already tested every pair for minimality,
    and each matched pair's connect solve is bitwise its cost solve, so the
    connect skips that test.  The first pair that fails raises SolverError
    naming it.  The reported minimum is the average midpoint action of those
    trajectories.
    The measure's time-a marginal equals the source cloud and its time-b
    marginal the permuted target cloud, exactly.

    ``cost_kind="auto"`` picks the closed-form cost when the model has one
    (the assignment then uses the continuum cost while the reported action is
    still the discrete one) and per-pair boundary-value solves otherwise.
    """
    check_horizon(model, grid.span, allow_long_horizon)
    if cost_kind == "auto":
        cost_kind = "closed_form" if has_closed_form_cost(model) else "bvp"
    plan, _ = solve_transport(model, source, target, grid, cost_kind)
    pairs = solve_bvp_pairs(
        model, source.points, target.points[plan.perm], grid,
        check_minimum=cost_kind != "bvp",
    )
    pairs.raise_failure(
        lambda i: f"boundary-value solve failed for matched pair ({i}, {plan.perm[i]})"
    )
    min_action = float(np.mean(pairs.costs))
    return OtmResult(EmpiricalPathMeasure._from_nodes(grid, pairs.nodes), plan, min_action)


# ---------------------------------------------------------------------------
# Recovery construction
# ---------------------------------------------------------------------------


def build_recovery_measure(
    target_pi: EmpiricalPathMeasure,
    source: PointCloud,
    target: PointCloud,
    eps: float | None = None,
) -> EmpiricalPathMeasure:
    """Realize prescribed marginals by splicing template paths.

    Every source point adopts its nearest template (by distance to the
    template's initial point), the template is reparametrized onto
    [a+eps, b-eps], and straight segments connect the source point to the
    template start and the template end to an assigned target point (targets
    are matched to template ends by squared-distance assignment).  The output
    satisfies the marginal constraints exactly; its action exceeds the
    template measure's action by O(eps) plus the kinetic cost of the splices.

    ``eps`` defaults to two grid cells of the coarsest template so that the
    splices stay representable at the templates' resolution.
    """
    a, b = target_pi.time_span
    span = b - a
    if eps is None:
        eps = 2.0 * max(p.grid.max_spacing for p in target_pi.paths)
    if not (0 < eps < span / 2):
        raise ValueError(f"eps must lie in (0, {span / 2}), got {eps}")
    if source.size != target.size:
        raise ValueError("source and target clouds must have equal size")
    if source.dim != target_pi.dim or target.dim != target_pi.dim:
        raise DimensionMismatchError("cloud dimension differs from the templates")

    starts = np.stack([p.start_point for p in target_pi.paths])
    ends = np.stack([p.end_point for p in target_pi.paths])
    diffs = source.points[:, None, :] - starts[None, :, :]
    template_of = np.argmin(np.linalg.norm(diffs, axis=2), axis=1)

    chosen_ends = ends[template_of]
    end_costs = np.sum(
        (chosen_ends[:, None, :] - target.points[None, :, :]) ** 2, axis=2
    )
    sigma = solve_assignment(end_costs).perm

    squeeze = (span - 2.0 * eps) / span
    inner_grid_cache: dict[int, TimeGrid] = {}
    spliced = []
    for i in range(source.size):
        tpl = target_pi.paths[template_of[i]]
        key = int(template_of[i])
        if key not in inner_grid_cache:
            inner_times = a + eps + (tpl.grid.nodes - a) * squeeze
            inner_grid_cache[key] = TimeGrid(
                np.concatenate(([a], inner_times, [b]))
            )
        grid = inner_grid_cache[key]
        nodes = np.vstack(
            [source.points[i][None, :], tpl.nodes, target.points[sigma[i]][None, :]]
        )
        spliced.append(Path(grid, nodes))
    return EmpiricalPathMeasure(tuple(spliced))


# ---------------------------------------------------------------------------
# Convergence study over (N, h) schedules
# ---------------------------------------------------------------------------


@dataclass
class ConvergenceRow:
    """One study level.  Every field is a column of ``convergence.csv`` and a
    row key of the summary JSON, so in-memory data must not be a field."""

    N: int
    h: float
    min_action: float = np.nan
    d_bl_to_finest: float = np.nan
    max_el_residual: float = np.nan
    max_reconstruction_dist: float = np.nan
    status: str = "ok"
    error: str = ""


@dataclass
class ConvergenceReport:
    """Per-level results of a refinement study, sorted by particle count.

    ``action_order`` and ``trajectory_order`` are log-log slopes fitted
    against the step size; they are None when fewer than two usable error
    values exist.  Every field but ``rows`` is a key of the summary JSON, so
    in-memory data must not be a field.
    """

    rows: list[ConvergenceRow] = field(default_factory=list)
    reference_action: float | None = None
    action_order: float | None = None
    trajectory_order: float | None = None

    @property
    def all_ok(self) -> bool:
        return all(row.status == "ok" for row in self.rows)


def _fit_order(hs: np.ndarray, errs: np.ndarray) -> float | None:
    mask = np.isfinite(errs) & (errs > 1e-14) & np.isfinite(hs) & (hs > 0)
    if np.count_nonzero(mask) < 2 or np.all(hs[mask] == hs[mask][0]):
        return None
    # the least-squares slope in closed form: np.polyfit's LAPACK lstsq call
    # mapped about 1 MB of OpenBLAS buffers, the peak of a whole study
    x, y = np.log(hs[mask]), np.log(errs[mask])
    dx = x - np.mean(x)
    return float(np.dot(dx, y - np.mean(y)) / np.dot(dx, dx))


def _diagnose_levels(
    model: LagrangianModel, solved: list[tuple[ConvergenceRow, OtmResult]]
) -> None:
    """Diagnose the solved levels of a study together, or else one by one.

    One ``concentration_diagnostics`` call covers the joined measures of
    all levels.  If it fails, each level is diagnosed on its own and a level
    that fails again becomes an error row with that call's message.  One
    loop writes each level's row from its slice of its batch's report.
    """
    if not solved:
        return
    try:
        joined = _join([result.measure for _, result in solved])
        batches = [(solved, concentration_diagnostics(model, joined))]
    except OtmeshError:
        batches = []
        for row, result in solved:
            try:
                batches.append(([(row, result)], concentration_diagnostics(model, result.measure)))
            except OtmeshError as exc:
                row.status = "error"
                row.error = str(exc)
    for levels, diag in batches:
        start = 0
        for row, result in levels:
            level = slice(start, start + result.measure.size)
            start = level.stop
            row.min_action = result.min_action
            row.max_el_residual = float(np.max(diag.el_residuals[level]))
            row.max_reconstruction_dist = float(np.max(diag.reconstruction_distances[level]))


def run_convergence_study(
    model: LagrangianModel,
    spec_a: MarginalSpec,
    spec_b: MarginalSpec,
    Ns,
    hs,
    span: tuple[float, float],
    cost_kind: str = "auto",
    reference_action: float | None = None,
    allow_long_horizon: bool = False,
) -> ConvergenceReport:
    """Minimal average actions and diagnostics along an (N, h) schedule.

    Every level samples both marginals, builds a uniform grid with spacing at
    most h and runs the transport solve; a solved level is one (row, result)
    record.  All solved levels then get their stationarity and
    flow-reconstruction diagnostics from one ``concentration_diagnostics``
    call on their joined paths, so the reference flow marches the finest
    level's substeps once; the values are bitwise those of one call per
    level.  Failures are recorded per level and the study continues: if the
    joined call fails, each level is diagnosed on its own, so only the
    failing levels get error rows.  Of the levels still ok, the finest has
    the largest N and, among those, the smallest h; it gives the reference
    action when none is passed, and then stays out of the action-order fit.
    Distances to the finest level use atom replication when its N
    is a multiple of each level's N;
    else they stay NaN.
    """
    Ns, hs = list(Ns), list(hs)
    if len(Ns) != len(hs) or not Ns:
        raise ValueError("Ns and hs must be nonempty schedules of equal length")
    a, b = span
    rows: list[ConvergenceRow] = []
    solved: list[tuple[ConvergenceRow, OtmResult]] = []
    for N, h in zip(Ns, hs):
        row = ConvergenceRow(N=int(N), h=float(h))
        rows.append(row)
        try:
            grid = TimeGrid.from_step(a, b, h)
            row.h = grid.max_spacing
            source = sample_marginal(spec_a, int(N))
            target = sample_marginal(spec_b, int(N))
            result = solve_discrete_otm(
                model,
                source,
                target,
                grid,
                cost_kind=cost_kind,
                allow_long_horizon=allow_long_horizon,
            )
        except OtmeshError as exc:
            row.status = "error"
            row.error = str(exc)
        else:
            solved.append((row, result))
    _diagnose_levels(model, solved)

    report = ConvergenceReport(rows=rows, reference_action=reference_action)
    ok = [(row, result.measure) for row, result in solved if row.status == "ok"]
    if ok:
        finest_row, finest = max(ok, key=lambda level: (level[0].N, -level[0].h))
        for row, measure in ok:
            if row is finest_row:
                row.d_bl_to_finest = 0.0
            elif finest.size % measure.size == 0:
                row.d_bl_to_finest = bl_distance_bound(
                    measure.replicate(finest.size // measure.size), finest
                )
        ref = reference_action if reference_action is not None else finest_row.min_action
        fit_rows = [row for row, _ in ok if reference_action is not None or row is not finest_row]
        report.action_order = _fit_order(
            np.array([r.h for r in fit_rows]),
            np.array([abs(r.min_action - ref) for r in fit_rows]),
        )
        report.trajectory_order = _fit_order(
            np.array([row.h for row, _ in ok]),
            np.array([row.max_reconstruction_dist for row, _ in ok]),
        )
    report.rows.sort(key=lambda r: r.N)
    return report


# ---------------------------------------------------------------------------
# Stationarity refinement study
# ---------------------------------------------------------------------------


@dataclass
class StationarityLevel:
    """One study level.  Every field is a column of ``stationarity.csv`` and a
    level key of the summary JSON, so in-memory data must not be a field."""

    h: float
    max_el_residual: float
    max_reconstruction_dist: float
    mean_reconstruction_dist: float
    max_newton_iterations: int
    scaling_ok: bool = True


@dataclass
class StationarityReport:
    """Residuals and flow-reconstruction distances across resolutions.

    ``fitted_rate`` is the coarsest level's max reconstruction distance per
    unit step; subsequent levels are flagged ``scaling_ok`` when their
    distance stays within twice that linear rate, certifying at-least-linear
    convergence of stationary points toward reference-flow orbits.  Every
    field but ``levels`` is a key of the summary JSON, so in-memory data must
    not be a field.
    """

    levels: list[StationarityLevel] = field(default_factory=list)
    fitted_rate: float = 0.0

    @property
    def all_scaling_ok(self) -> bool:
        return all(level.scaling_ok for level in self.levels)


def run_stationarity_study(
    model: LagrangianModel,
    pi0: EmpiricalPathMeasure,
    hs,
) -> StationarityReport:
    """Solve every path's boundary problem again at each resolution.

    Each level solves the stationarity systems of all paths (no minimality
    check) at spacing h in one batch of the Newton core ``_bvp_core``,
    warm-starting each path's Newton from its trajectory at the previous
    level (first level: from the input path itself), then measures
    stationarity residuals and distances to the reference orbit launched
    from each path's own initial phase point.  The warm starts are the
    previous level's atoms evaluated at the new grid's nodes, endpoints
    pinned, bitwise the start ``solve_bvp`` makes of each as its ``init``
    path.
    """
    hs = list(hs)
    if not hs:
        raise ValueError("need at least one step size")
    a, b = pi0.time_span
    report = StationarityReport()
    warm = pi0
    for h in hs:
        grid = TimeGrid.from_step(a, b, h)
        starts = _atoms_at(warm, grid.nodes)
        starts[:, 0], starts[:, -1] = _endpoints(warm)
        pairs = _bvp_core(model, grid, starts, check_minimum=False)
        pairs.raise_failure(
            lambda p: f"stationarity solve failed for path {p} at h={grid.max_spacing:g}"
        )
        warm = EmpiricalPathMeasure._from_nodes(grid, pairs.nodes)
        iters = int(np.max(pairs.newton_iterations))
        diag = concentration_diagnostics(model, warm)
        report.levels.append(
            StationarityLevel(
                h=grid.max_spacing,
                max_el_residual=float(np.max(diag.el_residuals)),
                max_reconstruction_dist=float(np.max(diag.reconstruction_distances)),
                mean_reconstruction_dist=float(np.mean(diag.reconstruction_distances)),
                max_newton_iterations=iters,
            )
        )
    first = report.levels[0]
    report.fitted_rate = first.max_reconstruction_dist / first.h
    for level in report.levels:
        level.scaling_ok = (
            level.max_reconstruction_dist
            <= 2.0 * report.fitted_rate * level.h + 1e-12
        )
    return report
