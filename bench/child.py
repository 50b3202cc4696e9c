"""Run one otmesh CLI study in this fresh interpreter and report it as JSON.

Usage: python3 child.py '<job JSON>'

The job names the source tree to import otmesh from, the CLI argv, whether
to trace layers, and where to write the report.  The report holds the
monotonic time at which the subcommand handler was entered (the parent
subtracts its spawn time to get set-up time), the time spent in
``otmesh.cli.main``, its exit code, this process's peak resident memory and
the times of a fixed calibration loop run right before and right after
``main``, and whether every otmesh module namespace and the CLI handler table
hold the same objects after the run as before it (so that no timing hook or
layer wrapper was left behind); traced runs add the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def calibrate() -> float:
    """Seconds taken by a fixed loop of small-array NumPy calls.

    The studies spend their time in the same kind of call, so the ratio of a
    study's time to this loop's cancels most of the machine's speed swings.
    It runs no otmesh code and must stay unchanged to keep ratios comparable.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 8)
    total = 0.0
    start = time.perf_counter()
    for _ in range(30000):
        y = np.sin(x) * 0.5 + x
        total += float(np.max(np.abs(y - x)))
    return time.perf_counter() - start


def namespaces() -> dict[str, dict]:
    """A copy of every imported otmesh module's namespace."""
    return {
        name: dict(vars(module))
        for name, module in list(sys.modules.items())
        if name == "otmesh" or name.startswith("otmesh.")
    }


def unchanged(before: dict[str, dict], handlers: dict) -> bool:
    """True when every name recorded before the run is bound to the same object."""
    import otmesh.cli as cli

    missing = object()
    return cli._HANDLERS == handlers and all(
        all(vars(sys.modules[name]).get(attr, missing) is obj for attr, obj in names.items())
        for name, names in before.items()
    )


def main() -> int:
    job = json.loads(sys.argv[1])
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import otmesh
    import otmesh.cli as cli

    if src not in Path(otmesh.__file__).resolve().parents:
        print(f"otmesh was imported from {otmesh.__file__}, not {src}", file=sys.stderr)
        return 2

    before, handlers = namespaces(), dict(cli._HANDLERS)
    command = job["argv"][0]
    handler = cli._HANDLERS[command]
    entered: list[float] = []

    def timed_handler(args, cfg):
        entered.append(time.monotonic())
        return handler(args, cfg)

    cli._HANDLERS[command] = timed_handler
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    calibration_before = calibrate()
    try:
        start = time.perf_counter()
        with tracer.span("cli.main") if tracer else nullcontext():
            code = cli.main(job["argv"])
        wall = time.perf_counter() - start
    finally:
        cli._HANDLERS[command] = handler
        if tracer:
            tracer.remove()

    report = {
        "calibration_s": [calibration_before, calibrate()],
        "exit_code": code,
        "handler_entered": entered[0] if entered else None,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unwrapped": unchanged(before, handlers),
    }
    if tracer:
        from tracing import layer_metrics

        report["layers"] = layer_metrics(tracer.spans)
        Path(job["spans"]).write_text(
            json.dumps([s[:4] for s in tracer.spans], separators=(",", ":")),
            encoding="utf-8",
        )
    Path(job["report"]).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
