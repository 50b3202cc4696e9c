"""Command-line front end.

Subcommands: ``bvp``, ``flow``, ``transport``, ``converge``, ``stationary``.
Each reads a single JSON config (the experiment record), writes JSON/CSV
artifacts to the output directory, and exits with 0 on success, 1 on config
errors, 2 on solver failures, and 3 on partial per-row failures.  Identical
config and seed produce byte-identical CSV artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path as FsPath

import numpy as np

from .errors import ConfigError, HorizonError, OtmeshError, SolverError
from .integrators import discrete_flow, reference_flow, solve_bvp
from .measures import EmpiricalPathMeasure
from .models import LagrangianModel, MODEL_CATALOG, has_closed_form_cost, make_model
from .paths import Path, PhasePoint, TimeGrid
from .pipeline import (
    MarginalSpec,
    run_convergence_study,
    run_stationarity_study,
)
from .serialize import (
    convergence_report_to_csv,
    convergence_report_to_json,
    dumps_json,
    matrix_from_csv,
    matrix_to_csv,
    measure_from_csv,
    path_to_csv,
    stationarity_report_to_csv,
    stationarity_report_to_json,
)
from .transport import PointCloud, solve_assignment

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_PARTIAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otmesh",
        description="Meshfree particle transport with variational time integration",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("bvp", "solve one two-point boundary problem"),
        ("flow", "integrate the reference or discrete flow from a phase point"),
        ("transport", "solve an assignment problem from a cost matrix or clouds"),
        ("converge", "run a convergence study over an (N, h) schedule"),
        ("stationary", "run a stationarity refinement study"),
    ]:
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override config seed")
        cmd.add_argument("--threads", type=int, default=None, help="accepted and ignored")
        cmd.add_argument(
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
    return cfg


def _require(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{where} is missing required field {key!r}")
    return cfg[key]


def _model_from(cfg: dict) -> LagrangianModel:
    spec = _require(cfg, "model")
    if not isinstance(spec, dict):
        raise ConfigError("'model' must be an object with 'name' and optional 'params'")
    name = _require(spec, "name", "'model'")
    if name not in MODEL_CATALOG:
        raise ConfigError(f"unknown model {name!r}; available: {sorted(MODEL_CATALOG)}")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("'model.params' must be an object")
    try:
        return make_model(name, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid parameters for model {name!r}: {exc}") from None


def _is_number(value) -> bool:
    """A finite JSON number; booleans do not count."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


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


def _check_threads(cfg: dict) -> None:
    """Validate the config's 'threads'; like --threads it is then ignored."""
    _int_from(cfg.get("threads", 1), "'threads'")


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
    return a, b


def _grid_from(cfg: dict) -> TimeGrid:
    a, b = _span_from(cfg)
    if "h" in cfg:
        try:
            return TimeGrid.from_step(a, b, float(cfg["h"]))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid 'h': {exc}") from None
    if "intervals" in cfg:
        try:
            return TimeGrid.uniform(a, b, int(cfg["intervals"]))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid 'intervals': {exc}") from None
    raise ConfigError("config needs either 'h' or 'intervals' next to 'span'")


def _marginal_from(cfg: dict, key: str, seed: int) -> MarginalSpec:
    spec = _require(cfg, key)
    if not isinstance(spec, dict):
        raise ConfigError(f"'{key}' must be an object")
    kind = _require(spec, "kind", f"'{key}'")
    sampler = spec.get("sampler", "quantile")
    if sampler == "iid" and seed is None:
        raise ConfigError("iid sampling requires a seed")
    fields = {}
    for name in ("low", "high", "mean", "cov", "radius", "points"):
        if name in spec:
            fields[name] = spec[name]
    try:
        return MarginalSpec(kind=kind, sampler=sampler, seed=seed, **fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid marginal '{key}': {exc}") from None


def _point_from(cfg: dict, key: str) -> np.ndarray:
    value = _require(cfg, key)
    try:
        point = np.atleast_1d(np.asarray(value, dtype=float))
    except (TypeError, ValueError):
        raise ConfigError(f"'{key}' must be a number or vector") from None
    if point.ndim != 1 or point.size == 0:
        raise ConfigError(f"'{key}' must be a number or vector")
    if not np.all(np.isfinite(point)):
        raise ConfigError(f"'{key}' must be finite")
    return point


def _points_from(cfg: dict, *keys: str) -> list[np.ndarray]:
    """Points of one common dimension."""
    points = [_point_from(cfg, key) for key in keys]
    if len({p.size for p in points}) != 1:
        dims = ", ".join(f"'{k}' {p.size}" for k, p in zip(keys, points))
        raise ConfigError(f"points must have the same dimension, got {dims}")
    return points


def _cloud_from(cfg: dict, key: str) -> PointCloud:
    try:
        return PointCloud(np.asarray(_require(cfg, key), dtype=float))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid '{key}': {exc}") from None


def _out_dir(args, cfg: dict) -> FsPath:
    # the only environment override allowed: output directory
    out = args.out or os.environ.get("OTMESH_OUT") or cfg.get("out", ".")
    path = FsPath(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write(path: FsPath, text: str) -> None:
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_bvp(args, cfg: dict) -> int:
    model = _model_from(cfg)
    grid = _grid_from(cfg)
    x, y = _points_from(cfg, "x", "y")
    restarts = _int_from(cfg.get("restarts", 0), "'restarts'", minimum=0)
    result = solve_bvp(model, x, y, grid, n_restarts=restarts)
    out = _out_dir(args, cfg)
    payload = {
        "kind": "bvp_result",
        "schema_version": 1,
        "model": {"name": model.name, "params": model.params},
        "x": x,
        "y": y,
        "span": [grid.start, grid.end],
        "intervals": grid.n_intervals,
        "cost": result.cost,
        "residual": result.residual,
        "converged": result.converged,
        "newton_iterations": result.newton_iterations,
        "multiplicity": result.multiplicity,
        "message": result.message,
        "path_csv": path_to_csv(result.path),
    }
    _write(out / "bvp_result.json", dumps_json(payload))
    _write(out / "bvp_path.csv", path_to_csv(result.path))
    return EXIT_OK if result.converged else EXIT_SOLVER


def cmd_flow(args, cfg: dict) -> int:
    model = _model_from(cfg)
    grid = _grid_from(cfg)
    start = PhasePoint(*_points_from(cfg, "x", "v"))
    kind = cfg.get("flow", "discrete")
    if kind == "reference":
        result = reference_flow(model, start, grid)
    elif kind == "discrete":
        result = discrete_flow(model, start, grid)
    else:
        raise ConfigError(f"unknown flow kind {kind!r}")
    out = _out_dir(args, cfg)
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
    _write(out / "flow_path.csv", path_to_csv(result.path))
    return EXIT_OK


def cmd_transport(args, cfg: dict) -> int:
    _check_threads(cfg)
    if "costs_csv" in cfg:
        try:
            costs = matrix_from_csv(FsPath(cfg["costs_csv"]).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load cost matrix: {exc}") from None
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
        from .transport import cost_matrix as build_costs

        costs = build_costs(model, source, target, grid, cost_kind)
    plan = solve_assignment(costs)
    out = _out_dir(args, cfg)
    payload = {
        "kind": "transport_result",
        "schema_version": 1,
        "size": int(plan.perm.size),
        "perm": [int(v) for v in plan.perm],
        "total_cost": plan.total_cost,
        "average_cost": plan.average_cost,
    }
    _write(out / "transport_result.json", dumps_json(payload))
    _write(out / "cost_matrix.csv", matrix_to_csv(costs))
    return EXIT_OK


def cmd_converge(args, cfg: dict) -> int:
    model = _model_from(cfg)
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is not None:
        seed = _int_from(seed, "'seed'", minimum=0)
    spec_a = _marginal_from(cfg, "marginal_a", seed)
    spec_b = _marginal_from(
        cfg, "marginal_b", seed + 1 if seed is not None else None
    )
    span = _span_from(cfg)
    Ns = _require(cfg, "Ns")
    hs = _require(cfg, "hs")
    if not isinstance(Ns, list) or not isinstance(hs, list) or len(Ns) != len(hs) or not Ns:
        raise ConfigError("'Ns' and 'hs' must be nonempty lists of equal length")
    Ns = [_int_from(n, "an 'Ns' entry") for n in Ns]
    hs = [_number(h, "an 'hs' entry", positive=True) for h in hs]
    _check_threads(cfg)
    cost_kind = _cost_kind_from(cfg, model, ("auto", "bvp", "closed_form"))
    allow = cfg.get("allow_long_horizon", False)
    if not isinstance(allow, bool):
        raise ConfigError(f"'allow_long_horizon' must be true or false, got {allow!r}")
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
        allow_long_horizon=args.allow_long_horizon or allow,
    )
    out = _out_dir(args, cfg)
    _write(out / "convergence.csv", convergence_report_to_csv(report))
    _write(out / "convergence_summary.json", dumps_json(convergence_report_to_json(report)))
    return EXIT_OK if report.all_ok else EXIT_PARTIAL


def cmd_stationary(args, cfg: dict) -> int:
    model = _model_from(cfg)
    hs = _require(cfg, "hs")
    if not isinstance(hs, list) or not hs:
        raise ConfigError("'hs' must be a nonempty list")
    hs = [_number(h, "an 'hs' entry", positive=True) for h in hs]
    _check_threads(cfg)
    if "paths_csv" in cfg:
        try:
            pi0 = measure_from_csv(FsPath(cfg["paths_csv"]).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load initial paths: {exc}") from None
    elif "lines" in cfg:
        lines = cfg["lines"]
        grid = TimeGrid.uniform(*_span_from(cfg), 1)
        try:
            pi0 = EmpiricalPathMeasure(
                tuple(
                    Path.line(
                        grid,
                        np.atleast_1d(np.asarray(seg["x"], dtype=float)),
                        np.atleast_1d(np.asarray(seg["y"], dtype=float)),
                    )
                    for seg in lines
                )
            )
        except (TypeError, ValueError, KeyError, IndexError) as exc:
            raise ConfigError(f"invalid 'lines': {exc}") from None
    else:
        raise ConfigError("stationary runs need 'paths_csv' or 'lines'")
    report = run_stationarity_study(model, pi0, hs)
    out = _out_dir(args, cfg)
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
