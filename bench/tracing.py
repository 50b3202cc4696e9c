"""Outside-in layer tracing for one otmesh CLI run.

A Tracer replaces the module-level names through which otmesh modules call
each other with wrappers that record a span (name, start, end, parent) and a
few counters read from the call's arguments and result.  A name is wrapped
where it is looked up: ``otmesh.transport.solve_bvp`` is the cost-matrix
solve and ``otmesh.pipeline.solve_bvp`` the matched-pair solve, although
both are ``integrators.solve_bvp``.  Spans stay in memory until the run
ends; ``remove`` puts every original function back.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

# per-layer metrics that are times; the others are counts and must repeat exactly
TIMED_SUFFIXES = (".s", ".self_s", ".us_per_node_iter", ".ns_per_rk4_step")


def _arg(args, kwargs, index: int, name: str, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _bvp_counters(args, kwargs, result) -> dict:
    grid = _arg(args, kwargs, 3, "grid")
    iters = result.newton_iterations
    return {
        "newton_iters": iters,
        "failed": int(not result.converged),
        "node_iters": (grid.n_intervals - 1) * iters,
    }


def _rk4_counters(args, kwargs, result) -> dict:
    grid = _arg(args, kwargs, 2, "grid")
    return {"rk4_steps": grid.n_intervals * _arg(args, kwargs, 3, "substeps_per_interval", 16)}


def _assignment_counters(args, kwargs, result) -> dict:
    return {"n_max": len(args[0])}


def _cost_matrix_counters(args, kwargs, result) -> dict:
    return {"entries": int(result.size)}


def _diagnostics_counters(args, kwargs, result) -> dict:
    return {"paths": args[1].size}


def _bl_counters(args, kwargs, result) -> dict:
    return {"pairs": args[0].size * args[1].size}


def _text_counters(args, kwargs, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


def layer_wraps():
    """(module, attribute, span name, counter function) for every traced call site."""
    # imported here: the benchmark's parent process must not import otmesh
    import otmesh.cli as cli
    import otmesh.integrators as integrators
    import otmesh.measures as measures
    import otmesh.pipeline as pipeline
    import otmesh.transport as transport

    return [
        (cli, "run_convergence_study", "pipeline.run_convergence_study", None),
        (cli, "solve_assignment", "transport.solve_assignment.cli", _assignment_counters),
        (cli, "matrix_to_csv", "serialize.matrix_to_csv", _text_counters),
        (cli, "convergence_report_to_csv", "serialize.convergence_report_to_csv", _text_counters),
        (cli, "dumps_json", "serialize.dumps_json", _text_counters),
        # cmd_transport imports cost_matrix from the module at call time
        (transport, "cost_matrix", "transport.cost_matrix", _cost_matrix_counters),
        (transport, "solve_bvp", "integrators.solve_bvp.cost", _bvp_counters),
        (pipeline, "sample_marginal", "pipeline.sample_marginal", None),
        (pipeline, "solve_discrete_otm", "pipeline.solve_discrete_otm", None),
        (pipeline, "cost_matrix", "transport.cost_matrix", _cost_matrix_counters),
        (pipeline, "solve_assignment", "transport.solve_assignment.otm", _assignment_counters),
        (pipeline, "solve_bvp", "integrators.solve_bvp.connect", _bvp_counters),
        (pipeline, "concentration_diagnostics", "measures.concentration_diagnostics", _diagnostics_counters),
        (pipeline, "bl_distance_bound", "measures.bl_distance_bound", _bl_counters),
        (measures, "solve_assignment", "transport.solve_assignment.bl", _assignment_counters),
        (measures, "reference_flow", "integrators.reference_flow", _rk4_counters),
        (measures, "el_residual", "integrators.el_residual", None),
        (measures, "uniform_distance", "paths.uniform_distance", None),
        (measures, "midpoint_action", "paths.midpoint_action", None),
        (integrators, "uniform_distance", "paths.uniform_distance", None),
        (integrators, "midpoint_action", "paths.midpoint_action", None),
    ]


class Tracer:
    """Spans of one single-threaded run; each span is [name, start, end, parent, counters]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, counters=None) -> None:
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            span = self._open(name)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counters is not None:
                span[4] = counters(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def install(self) -> None:
        for module, attr, name, counters in layer_wraps():
            self.wrap(module, attr, name, counters)

    def remove(self) -> None:
        """Restore every wrapped name."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def inclusive_seconds(spans: list[list]) -> dict[str, float]:
    """Total span duration per name."""
    seconds: dict[str, float] = defaultdict(float)
    for name, start, end, _, _ in spans:
        seconds[name] += end - start
    return dict(seconds)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer calls, inclusive and self seconds and counter totals from spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    seconds = defaultdict(float, inclusive_seconds(spans))
    self_seconds: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for i, (name, start, end, parent, counters) in enumerate(spans):
        calls[name] += 1
        self_seconds[name] += end - start - child_time[i]
        for key, value in (counters or {}).items():
            if key == "n_max":
                counts[f"{name}.n_max"] = max(counts[f"{name}.n_max"], value)
            else:
                counts[f"{name}.{key}"] += value
        # the uniform_distance calls made by the bound are its mixed-grid pairs
        if name == "paths.uniform_distance" and parent >= 0:
            if spans[parent][0] == "measures.bl_distance_bound":
                counts["measures.bl_distance_bound.mixed_grid_pairs"] += 1

    def per(name: str, scale: float, denom_key: str) -> float:
        denom = counts[denom_key]
        return seconds[name] * scale / denom if denom else 0.0

    out: dict[str, float] = {}
    for site in ("cost", "connect"):
        name = f"integrators.solve_bvp.{site}"
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = seconds[name]
        out[f"{name}.newton_iters"] = counts[f"{name}.newton_iters"]
        out[f"{name}.failed"] = counts[f"{name}.failed"]
    out["integrators.solve_bvp.us_per_node_iter"] = per(
        "integrators.solve_bvp.cost", 1e6, "integrators.solve_bvp.cost.node_iters"
    )
    for name in ("paths.midpoint_action", "integrators.el_residual", "paths.uniform_distance"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = seconds[name]
    name = "integrators.reference_flow"
    out[f"{name}.calls"] = calls[name]
    out[f"{name}.s"] = seconds[name]
    out[f"{name}.rk4_steps"] = counts[f"{name}.rk4_steps"]
    out[f"{name}.ns_per_rk4_step"] = per(name, 1e9, f"{name}.rk4_steps")
    name = "measures.concentration_diagnostics"
    out[f"{name}.s"] = seconds[name]
    out[f"{name}.paths"] = counts[f"{name}.paths"]
    name = "measures.bl_distance_bound"
    out[f"{name}.calls"] = calls[name]
    out[f"{name}.s"] = seconds[name]
    out[f"{name}.pairs"] = counts[f"{name}.pairs"]
    out[f"{name}.mixed_grid_pairs"] = counts[f"{name}.mixed_grid_pairs"]
    for site in ("otm", "bl", "cli"):
        name = f"transport.solve_assignment.{site}"
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = seconds[name]
        out[f"{name}.n_max"] = counts[f"{name}.n_max"]
    out["transport.cost_matrix.s"] = seconds["transport.cost_matrix"]
    out["transport.cost_matrix.entries"] = counts["transport.cost_matrix.entries"]
    out["pipeline.sample_marginal.s"] = seconds["pipeline.sample_marginal"]
    out["pipeline.solve_discrete_otm.self_s"] = self_seconds["pipeline.solve_discrete_otm"]
    for fn in ("matrix_to_csv", "convergence_report_to_csv", "dumps_json"):
        name = f"serialize.{fn}"
        out[f"{name}.s"] = seconds[name]
        out[f"{name}.bytes"] = counts[f"{name}.bytes"]
    out["cli.main.self_s"] = self_seconds["cli.main"]
    return out
