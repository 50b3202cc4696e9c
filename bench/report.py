"""Print the benchmark's latest records for every workload.

Usage (from the repository root):

    python3 bench/report.py [--seed N]

It reads the records that ``bench/run.py`` wrote to ``bench/results/`` for
every workload of BENCHMARK.json.  For each workload it prints every
end-to-end metric with its unit, the failed ratio of the correctness checks,
the number of CSV artifacts that differ from ``bench/digests.json`` and, from
the traced record, the share of the traced studies' median wall time spent
in each layer.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# the layers whose inclusive time each share line reports
SHARE_LAYERS = (
    "integrators.solve_bvp.cost",
    "integrators.solve_bvp.connect",
    "integrators.reference_flow",
    "measures.bl_distance_bound",
    "transport.solve_assignment.cli",
    "serialize.matrix_to_csv",
)


def latest(workload: str, seed: int, trace: int) -> dict | None:
    path = BENCH / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]

    status = 0
    for name in names:
        plain, traced = latest(name, args.seed, 0), latest(name, args.seed, 1)
        if plain is None:
            print(f"{name}: no untraced record for seed {args.seed}")
            status = 1
            continue
        env = plain["environment"]
        print(
            f"{name} (seed {args.seed}, {len(plain['studies'])} studies, "
            f"git {env['git_sha']}, nproc {env['nproc']}, correct {plain['correct']})"
        )
        print(f"  {'wall_s':<20} {plain['wall_s']:>12.6g} s")
        for metric in spec["end_to_end"]:
            value = plain["metrics"][metric["name"]]["value"]
            print(f"  {metric['name']:<20} {value:>12.6g} {metric['unit']}")
        print(f"  {'failed_ratio':<20} {plain['failed_ratio']:>12.6g} 1")
        changed = plain["artifacts_changed"]
        print(f"  {'artifacts_changed':<20} {'n/a' if changed is None else changed:>12} count")
        if traced is not None:
            main_s = statistics.median(
                s["wall_s"] for s in traced["studies"] if s["traced"] and "wall_s" in s
            )
            shares = ", ".join(
                f"{layer} {traced['metrics'][layer + '.s']['value'] / main_s:.0%}"
                for layer in SHARE_LAYERS
            )
            print(f"  layer shares of cli.main: {shares}")
        status |= not plain["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
