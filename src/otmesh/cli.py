"""Command-line front end.

Commands: ``bvp``, ``flow``, ``transport``, ``converge``, ``stationary``.
Each reads a single JSON config (the experiment record), writes JSON/CSV
artifacts to the output directory, and exits with 0 on success, 1 on config
errors, 2 on solver failures, and 3 on partial per-row failures.  Identical
config and seed produce byte-identical CSV artifacts.  A time grid may have
at most ``MAX_INTERVALS`` intervals, a run at most ``MAX_PARTICLES``
particles and a batched solve at most ``MAX_BATCH`` entries; a config asking
for more is a config error, raised before anything is allocated.
"""

from __future__ import annotations

import argparse
import functools
import json
# argparse's gettext imports locale on the first parser build: import it
# here, not inside main
import locale  # noqa: F401
import os
import re
import sys
from pathlib import Path as FsPath

import numpy as np

from .errors import ConfigError, HorizonError, OtmeshError, SolverError
from .integrators import discrete_flow, reference_flow, solve_bvp
from .measures import EmpiricalPathMeasure
from .models import LagrangianModel, MODEL_CATALOG, as_point, has_closed_form_cost, make_model
from .paths import Path, PhasePoint, TimeGrid
from .pipeline import (
    MarginalSpec,
    check_horizon,
    run_convergence_study,
    run_stationarity_study,
)
from .serialize import (
    convergence_report_to_csv,
    convergence_report_to_json,
    dumps_json,
    matrix_from_csv,
    measure_from_csv,
    path_to_csv,
    record_fields,
    stationarity_report_to_csv,
    stationarity_report_to_json,
    write_matrix_csv,
)
# unused here, but bench/tracing.py wraps this name
from .serialize import matrix_to_csv  # noqa: F401
from .transport import PointCloud, solve_assignment, solve_transport

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_PARTIAL = 3

# Most intervals a config may ask of one time grid.  Nodes, paths and
# Jacobians grow linearly with it (cost matrices by N^2 times it); the README
# examples use at most 1000.
MAX_INTERVALS = 1_000_000
# Most particles a run may ask for: each 'Ns' entry, each 'transport' cloud,
# the 'stationary' paths and the attempts of a 'bvp' with 'restarts'.  Cost
# and sup-distance matrices hold N^2 entries, 134 MB each at the cap, which
# is the largest study of the paper (N = 4096); a 1-D closed-form match of a
# transport or a study level that passes the Monge check holds no cost matrix.
MAX_PARTICLES = 4096
# Most entries N * l * n^2 of one batched solve of N paths over l intervals
# in dimension n, the size of its Newton Jacobian blocks.  A 1-D study at
# N = 4096, h = 0.005 over a unit span needs 819200.  The dgbsv band of a
# Newton step is filled a chunk of pairs at a time, in 512 KB or one pair's
# band, so the largest arrays of every batched solve (a BVP cost-matrix row,
# the connect step, a stationarity level) are the N l n^2 midpoint Hessians
# of its minimality test and its N l n Newton iterates (read from the code).
MAX_BATCH = 10_000_000


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="otmesh",
        description="Meshfree particle transport with variational time integration",
        epilog="""commands:
  bvp         solve one two-point boundary problem
  flow        integrate the reference or discrete flow from a phase point
  transport   solve an assignment problem from a cost matrix or clouds
  converge    run a convergence study over an (N, h) schedule
  stationary  run a stationarity refinement study""",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=list(_HANDLERS), metavar="command")
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument(
        "--allow-long-horizon",
        action="store_true",
        help="permit spans beyond the admissible horizon",
    )
    return parser


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_booleans(dict(cfg, allow_long_horizon=None), "config")
    return cfg


def _reject_booleans(value, where: str) -> None:
    """A JSON boolean is a flag, never a number (Python and NumPy would read
    it as 1 or 0): one anywhere in value is a config error.  The one flag,
    'allow_long_horizon', is not passed in."""
    if isinstance(value, bool):
        raise ConfigError(f"'{where}' is {json.dumps(value)}, and only flags take one")
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            if isinstance(item, (bool, dict, list)):
                _reject_booleans(item, f"{where}.{key}")


def _require(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{where} is missing required field {key!r}")
    return cfg[key]


def _model_from(cfg: dict) -> LagrangianModel:
    spec = _require(cfg, "model")
    if not isinstance(spec, dict):
        raise ConfigError("'model' must be an object with 'name' and optional 'params'")
    name = _require(spec, "name", "'model'")
    if not isinstance(name, str) or name not in MODEL_CATALOG:
        raise ConfigError(f"unknown model {name!r}; available: {sorted(MODEL_CATALOG)}")
    unknown = sorted(set(spec) - {"name", "params"})
    if unknown:
        raise ConfigError(f"'model' has unknown keys {unknown}; parameters go in 'model.params'")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("'model.params' must be an object")
    for key, value in params.items():
        _number(value, f"'model.params.{key}'")
    try:
        return make_model(name, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid parameters for model {name!r}: {exc}") from None


def _is_number(value) -> bool:
    """A finite JSON number (a boolean is rejected when the config is read)."""
    return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max


def _number(value, what: str, positive: bool = False) -> float:
    if not _is_number(value) or (positive and value <= 0):
        kind = "finite positive number" if positive else "finite number"
        raise ConfigError(f"{what} must be a {kind}, got {value!r}")
    return float(value)


def _int_from(value, what: str, minimum: int = 1) -> int:
    """An integer >= minimum; integral floats such as 32.0 are accepted."""
    if not _is_number(value) or value < minimum or value != int(value):
        raise ConfigError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _check_intervals(count: float, what: str) -> None:
    """Reject a grid of more than MAX_INTERVALS intervals before it is built."""
    if count > MAX_INTERVALS:
        raise ConfigError(
            f"{what} asks for {count:.6g} intervals per time grid; "
            f"at most {MAX_INTERVALS} are allowed"
        )


def _check_size(paths: int, intervals: float, dim: int, what: str) -> None:
    """Reject more than MAX_PARTICLES paths or MAX_BATCH batch entries."""
    if paths > MAX_PARTICLES:
        raise ConfigError(
            f"{what} asks for {paths} paths; at most {MAX_PARTICLES} are allowed"
        )
    if paths * intervals * dim * dim > MAX_BATCH:
        raise ConfigError(
            f"{what} asks for a batch of {paths} paths x {intervals:.6g} intervals "
            f"x dimension {dim} squared; at most {MAX_BATCH} entries are allowed"
        )


def _allow_long_horizon(args, cfg: dict) -> bool:
    """--allow-long-horizon or the config's 'allow_long_horizon', a JSON boolean."""
    allow = cfg.get("allow_long_horizon", False)
    if not isinstance(allow, bool):
        raise ConfigError(f"'allow_long_horizon' must be true or false, got {allow!r}")
    return args.allow_long_horizon or allow


def _cost_kind_from(cfg: dict, model: LagrangianModel, kinds: tuple[str, ...]) -> str:
    """The config's 'cost_kind', one of kinds; the first one is the default."""
    kind = cfg.get("cost_kind", kinds[0])
    if kind not in kinds:
        raise ConfigError(f"'cost_kind' must be one of {list(kinds)}, got {kind!r}")
    if kind == "closed_form" and not has_closed_form_cost(model):
        raise ConfigError(f"model {model.name!r} has no closed-form cost")
    return kind


def _span_from(cfg: dict) -> tuple[float, float]:
    span = _require(cfg, "span")
    try:
        a, b = float(span[0]), float(span[1])
    except (TypeError, ValueError, OverflowError, IndexError, KeyError):
        raise ConfigError("'span' must be a pair [a, b]") from None
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ConfigError("'span' must be finite")
    if not b > a:
        raise ConfigError("'span' must satisfy a < b")
    # the solvers square time steps, so the width's square must be finite
    if not b - a < sys.float_info.max**0.5:
        raise ConfigError("'span' must have a width b - a whose square is finite")
    return a, b


def _grid_from(cfg: dict) -> TimeGrid:
    a, b = _span_from(cfg)
    if "h" in cfg:
        h = _number(cfg["h"], "'h'", positive=True)
        _check_intervals((b - a) / h, "'h'")
        return TimeGrid.from_step(a, b, h)
    if "intervals" in cfg:
        intervals = _int_from(cfg["intervals"], "'intervals'")
        _check_intervals(intervals, "'intervals'")
        return TimeGrid.uniform(a, b, intervals)
    raise ConfigError("config needs either 'h' or 'intervals' next to 'span'")


def _marginal_from(cfg: dict, key: str, seed: int) -> MarginalSpec:
    spec = _require(cfg, key)
    if not isinstance(spec, dict):
        raise ConfigError(f"'{key}' must be an object")
    kind = _require(spec, "kind", f"'{key}'")
    sampler = spec.get("sampler", "quantile")
    if sampler == "iid" and seed is None:
        raise ConfigError("iid sampling requires a seed")
    names = ("low", "high", "mean", "cov", "radius", "points")
    fields = {name: spec[name] for name in names if name in spec}
    try:
        return MarginalSpec(kind=kind, sampler=sampler, seed=seed, **fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid marginal '{key}': {exc}") from None


def _points_from(cfg: dict, *keys: str) -> list[np.ndarray]:
    """Points of one common dimension."""
    points = []
    for key in keys:
        try:
            points.append(as_point(_require(cfg, key)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid '{key}': {exc}") from None
    if len({p.size for p in points}) != 1:
        dims = ", ".join(f"'{k}' {p.size}" for k, p in zip(keys, points))
        raise ConfigError(f"points must have the same dimension, got {dims}")
    return points


def _cloud_from(cfg: dict, key: str) -> PointCloud:
    try:
        return PointCloud(_require(cfg, key))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid '{key}': {exc}") from None


def _file_text(cfg: dict, key: str) -> str:
    """Contents of the file that the config's field names."""
    name = cfg[key]
    if not isinstance(name, str):
        raise ConfigError(f"'{key}' must be a file path, got {name!r}")
    try:
        return FsPath(name).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read '{key}': {exc}") from None


def _out_dir(args, cfg: dict) -> FsPath:
    # the only environment override allowed; checked before the solve, made by _write
    out = args.out or os.environ.get("OTMESH_OUT") or cfg.get("out", ".")
    if not isinstance(out, str):
        raise ConfigError(f"'out' must name an output directory, got {out!r}")
    if os.path.exists(out) and not os.path.isdir(out):
        raise ConfigError(f"cannot make output directory {out!r}: it names a file")
    return FsPath(out)


def _write(path: FsPath, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory: {exc}") from None
    path.write_text(text, encoding="utf-8", newline="")
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_bvp(args, cfg: dict) -> int:
    out = _out_dir(args, cfg)
    model = _model_from(cfg)
    grid = _grid_from(cfg)
    x, y = _points_from(cfg, "x", "y")
    restarts = _int_from(cfg.get("restarts", 0), "'restarts'", minimum=0)
    _check_size(restarts + 1, grid.n_intervals, x.size, "'bvp' with its 'restarts'")
    result = solve_bvp(model, x, y, grid, n_restarts=restarts)
    payload = {
        "kind": "bvp_result",
        "schema_version": 1,
        "model": {"name": model.name, "params": model.params},
        "x": x,
        "y": y,
        "span": [grid.start, grid.end],
        "intervals": grid.n_intervals,
        **record_fields(result, "path"),
        "path_csv": path_to_csv(result.path),
    }
    _write(out / "bvp_result.json", dumps_json(payload))
    _write(out / "bvp_path.csv", payload["path_csv"])
    return EXIT_OK if result.converged else EXIT_SOLVER


def cmd_flow(args, cfg: dict) -> int:
    out = _out_dir(args, cfg)
    model = _model_from(cfg)
    grid = _grid_from(cfg)
    start = PhasePoint(*_points_from(cfg, "x", "v"))
    _check_size(1, grid.n_intervals, start.dim, "'flow'")
    kind = cfg.get("flow", "discrete")
    if kind == "reference":
        result = reference_flow(model, start, grid)
    elif kind == "discrete":
        result = discrete_flow(model, start, grid)
    else:
        raise ConfigError(f"unknown flow kind {kind!r}")
    payload = {
        "kind": "flow_result",
        "schema_version": 1,
        "model": {"name": model.name, "params": model.params},
        "flow": kind,
        "span": [grid.start, grid.end],
        "intervals": grid.n_intervals,
        "final_position": result.final_state.position,
        "final_velocity": result.final_state.velocity,
        "newton_iterations_max": result.newton_iterations_max,
        "path_csv": path_to_csv(result.path),
    }
    _write(out / "flow_result.json", dumps_json(payload))
    _write(out / "flow_path.csv", payload["path_csv"])
    return EXIT_OK


def cmd_transport(args, cfg: dict) -> int:
    out = _out_dir(args, cfg)
    if "costs_csv" in cfg:
        text = _file_text(cfg, "costs_csv")
        # a square matrix has as many rows as its first line has cells, so the
        # particle cap is checked before any cell is parsed
        first_line = re.search(r"\S[^\n]*", text)
        if first_line is not None:
            _check_size(first_line.group().count(",") + 1, 0, 1, "'costs_csv'")
        try:
            costs = matrix_from_csv(text)
        except ValueError as exc:
            raise ConfigError(f"cannot load 'costs_csv': {exc}") from None
        # its rows are the particles of the O(N^3) assignment solve
        _check_size(costs.shape[0], 0, 1, "'costs_csv'")
        try:
            plan = solve_assignment(costs)
        except ValueError as exc:
            raise ConfigError(f"invalid 'costs_csv': {exc}") from None
    else:
        model = _model_from(cfg)
        grid = _grid_from(cfg)
        source = _cloud_from(cfg, "source_points")
        target = _cloud_from(cfg, "target_points")
        if (source.size, source.dim) != (target.size, target.dim):
            raise ConfigError(
                f"'source_points' and 'target_points' must have the same size and "
                f"dimension, got {source.size}x{source.dim} and {target.size}x{target.dim}"
            )
        cost_kind = _cost_kind_from(cfg, model, ("bvp", "closed_form"))
        # a bvp cost matrix solves one batch of N paths per source point
        intervals = grid.n_intervals if cost_kind == "bvp" else 0
        _check_size(source.size, intervals, source.dim, "'source_points'")
        allow = _allow_long_horizon(args, cfg)
        if cost_kind == "bvp":
            # the horizon bounds the midpoint action, which closed-form costs skip
            check_horizon(model, grid.span, allow)
        # costs may be computed as the CSV writer reads them
        plan, costs = solve_transport(model, source, target, grid, cost_kind)
    payload = {
        "kind": "transport_result",
        "schema_version": 1,
        "size": int(plan.perm.size),
        **record_fields(plan),
    }
    _write(out / "transport_result.json", dumps_json(payload))
    # streamed: the CSV text of an N x N matrix is never held whole
    path = out / "cost_matrix.csv"
    write_matrix_csv(path, costs)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_converge(args, cfg: dict) -> int:
    out = _out_dir(args, cfg)
    model = _model_from(cfg)
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is not None:
        seed = _int_from(seed, "'seed'", minimum=0)
    spec_a = _marginal_from(cfg, "marginal_a", seed)
    spec_b = _marginal_from(
        cfg, "marginal_b", seed + 1 if seed is not None else None
    )
    if spec_a.dim != spec_b.dim:
        raise ConfigError(
            f"'marginal_a' and 'marginal_b' must have the same dimension, "
            f"got {spec_a.dim} and {spec_b.dim}"
        )
    span = _span_from(cfg)
    Ns = _require(cfg, "Ns")
    hs = _require(cfg, "hs")
    if not isinstance(Ns, list) or not isinstance(hs, list) or len(Ns) != len(hs) or not Ns:
        raise ConfigError("'Ns' and 'hs' must be nonempty lists of equal length")
    Ns = [_int_from(n, "an 'Ns' entry") for n in Ns]
    for key, spec in (("marginal_a", spec_a), ("marginal_b", spec_b)):
        if spec.kind == "custom_points" and any(n != spec.points.shape[0] for n in Ns):
            raise ConfigError(
                f"'{key}' has {spec.points.shape[0]} custom points, "
                f"but 'Ns' asks for {Ns}"
            )
    hs = [_number(h, "an 'hs' entry", positive=True) for h in hs]
    for N, h in zip(Ns, hs):
        intervals = (span[1] - span[0]) / h
        _check_intervals(intervals, "an 'hs' entry")
        _check_size(N, intervals, spec_a.dim, "an 'Ns' entry")
    cost_kind = _cost_kind_from(cfg, model, ("auto", "bvp", "closed_form"))
    allow = _allow_long_horizon(args, cfg)
    reference = cfg.get("reference_action")
    if reference is not None:
        reference = _number(reference, "'reference_action'")
    report = run_convergence_study(
        model,
        spec_a,
        spec_b,
        Ns,
        hs,
        span,
        cost_kind=cost_kind,
        reference_action=reference,
        allow_long_horizon=allow,
    )
    _write(out / "convergence.csv", convergence_report_to_csv(report))
    _write(out / "convergence_summary.json", dumps_json(convergence_report_to_json(report)))
    return EXIT_OK if report.all_ok else EXIT_PARTIAL


def cmd_stationary(args, cfg: dict) -> int:
    out = _out_dir(args, cfg)
    model = _model_from(cfg)
    hs = _require(cfg, "hs")
    if not isinstance(hs, list) or not hs:
        raise ConfigError("'hs' must be a nonempty list")
    hs = [_number(h, "an 'hs' entry", positive=True) for h in hs]
    if "paths_csv" in cfg:
        try:
            pi0 = measure_from_csv(_file_text(cfg, "paths_csv"))
        except ValueError as exc:
            raise ConfigError(f"cannot load 'paths_csv': {exc}") from None
    elif "lines" in cfg:
        grid = TimeGrid.uniform(*_span_from(cfg), 1)
        try:
            pi0 = EmpiricalPathMeasure(
                tuple(Path.line(grid, seg["x"], seg["y"]) for seg in cfg["lines"])
            )
        except (TypeError, ValueError, KeyError, IndexError) as exc:
            raise ConfigError(f"invalid 'lines': {exc}") from None
    else:
        raise ConfigError("stationary runs need 'paths_csv' or 'lines'")
    a, b = pi0.time_span
    for h in hs:
        _check_intervals((b - a) / h, "an 'hs' entry")
        _check_size(pi0.size, (b - a) / h, pi0.dim, "the paths with an 'hs' entry")
    report = run_stationarity_study(model, pi0, hs)
    _write(out / "stationarity.csv", stationarity_report_to_csv(report))
    _write(out / "stationarity_summary.json", dumps_json(stationarity_report_to_json(report)))
    return EXIT_OK if report.all_scaling_ok else EXIT_PARTIAL


_HANDLERS = {
    "bvp": cmd_bvp,
    "flow": cmd_flow,
    "transport": cmd_transport,
    "converge": cmd_converge,
    "stationary": cmd_stationary,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        # overflowing inputs are reported as errors below, not as numpy warnings
        with np.errstate(all="ignore"):
            return _HANDLERS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, HorizonError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OtmeshError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
