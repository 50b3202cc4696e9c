"""otmesh benchmark: measure one workload for a fixed time.

Usage (from the repository root):

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads are defined in ``workloads.py``.  The load is a closed loop with
one caller: each study runs in a fresh single-threaded Python process (BLAS
and OpenMP pinned to one thread, ``--threads`` unset) that calls
``otmesh.cli.main`` on a config generated from ``--seed``; the next study
starts when the previous one has ended, and the run stops at the study
boundary nearest to ``--seconds``.

With ``--trace 0`` the end-to-end metrics are medians over the studies of
the run: ``wall_cal`` is the time spent in ``otmesh.cli.main`` divided by the
mean time of a fixed NumPy calibration loop that the same process runs right
before and right after it.  On a shared host the CPU speed can swing by 1.5x and more over seconds
to minutes, which moves both times alike; the plain median ``wall_s`` is kept
in the record.  With ``--trace 1`` untraced and traced studies alternate; the
per-layer metrics come from the traced ones, ``trace.overhead_s`` is the
difference of the two median wall times, and the run also checks that both
kinds wrote byte-identical artifacts.

Every study's exit code, the workload's oracles and, in every study process,
that the otmesh module namespaces hold after the run what they held before it
(no timing hook or layer wrapper left behind) are checked.  At the seed that
``digests.json`` records, each CSV artifact must also match its recorded
sha256; at other seeds ``artifacts_changed`` is null.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record (environment, every study,
every check) is written to ``bench/results/``; ``bench/report.py`` prints
the records of all workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracing import TIMED_SUFFIXES
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
RESULTS = BENCH / "results"
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
MIN_STUDIES = 3
MIN_TRACED_PAIRS = 2
# a run must end within 180 s; no study starts that could not finish by then
DEADLINE_S = 170.0


def units(spec: dict, kind: str) -> dict[str, str]:
    """Unit of every metric BENCHMARK.json declares under ``kind``."""
    return {m["name"]: m["unit"] for m in spec[kind]}


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def git_sha() -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "otmesh").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src_digest.update(str(path.relative_to(SRC)).encode())
            src_digest.update(path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
        "thread_env": THREAD_ENV,
    }


def study(workload, config: dict, config_path: Path, seed: int, traced: bool,
          timeout: float) -> dict:
    """One fresh-process CLI study: its report, artifact digests and checks."""
    out = OUT / workload.name / ("traced" if traced else "plain")
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    report_path = out.parent / f"report-{'traced' if traced else 'plain'}.json"
    report_path.unlink(missing_ok=True)
    job = {
        "src": str(SRC),
        "argv": workload.argv(config_path, out, seed),
        "trace": traced,
        "report": str(report_path),
        "spans": str(out.parent / "spans.json"),
    }
    env = {k: v for k, v in os.environ.items() if k != "OTMESH_OUT"}
    env.update(THREAD_ENV, PYTHONPATH=str(SRC))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-s", str(BENCH / "child.py"), json.dumps(job)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=timeout,
        )
        stderr = proc.stderr
    except subprocess.TimeoutExpired:
        stderr = f"study exceeded {timeout:.0f} s"
    elapsed = time.monotonic() - spawned
    report = None
    if report_path.is_file():
        report = json.loads(report_path.read_text(encoding="utf-8"))
    ran = report is not None and report["exit_code"] == 0
    checks = [("exit code 0", ran)]
    if ran:
        try:
            checks += workload.check(out, config, seed)
        except (OSError, KeyError, ValueError) as exc:
            checks.append((f"artifacts readable: {exc}", False))
    else:
        print(stderr.strip()[-2000:], file=sys.stderr)
    checks.append(("otmesh namespaces restored", bool(report and report["unwrapped"])))
    digests = {
        name: sha256_file(out / name)
        for name in workload.artifacts
        if (out / name).is_file()
    }
    record = {"traced": traced, "elapsed_s": elapsed, "checks": checks, "digests": digests}
    if report is not None and report["handler_entered"] is not None:
        # the calibration before main runs between spawn and handler entry
        record.update(
            report,
            setup_s=report["handler_entered"] - spawned - report["calibration_s"][0],
        )
    return record


def digest_checks(workload, seed: int, digests: dict) -> list[tuple[str, bool]]:
    """One check per CSV artifact recorded in digests.json; none for other seeds."""
    recorded = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    if seed != recorded["seed"]:
        return []
    return [
        (f"{name} matches seed {seed} digest", digests.get(name) == sha)
        for name, sha in recorded["workloads"][workload.name].items()
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "otmesh" / "cli.py").is_file():
        print(f"no otmesh sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workload = WORKLOADS[args.workload]
    config = workload.make_config(args.seed)
    config_path = OUT / workload.name / "config.json"
    config_path.parent.mkdir(parents=True, exist_ok=True)
    config_path.write_text(json.dumps(config), encoding="utf-8")

    modes = (False, True) if args.trace else (False,)
    needed = MIN_TRACED_PAIRS if args.trace else MIN_STUDIES
    studies: list[dict] = []
    begin = time.monotonic()
    longest = 0.0
    while True:
        round_start = time.monotonic()
        for traced in modes:
            timeout = max(1.0, DEADLINE_S - (time.monotonic() - begin))
            studies.append(study(workload, config, config_path, args.seed, traced, timeout))
        longest = max(longest, time.monotonic() - round_start)
        elapsed = time.monotonic() - begin
        rounds = len(studies) // len(modes)
        mean_round = elapsed / rounds
        # stop at the round boundary nearest to --seconds
        if rounds >= needed and elapsed + mean_round / 2 >= seconds:
            break
        if elapsed + longest > DEADLINE_S:
            break

    measured = [s for s in studies if "wall_s" in s]
    plain = [s for s in measured if not s["traced"]]
    traced_runs = [s for s in measured if s["traced"]]
    if not plain or (args.trace and not traced_runs):
        print(f"{workload.name}: no study produced a report", file=sys.stderr)
        return 1

    checks = [c for s in studies for c in s["checks"]]
    first_digests = studies[0]["digests"]
    checks += [
        ("artifacts identical to the first study", s["digests"] == first_digests)
        for s in studies[1:]
    ]
    recorded = digest_checks(workload, args.seed, first_digests)
    checks += recorded
    if args.trace:
        layers = [s["layers"] for s in traced_runs]
        counts = {k: v for k, v in layers[0].items() if not k.endswith(TIMED_SUFFIXES)}
        checks += [
            ("layer counts repeat exactly", {k: l[k] for k in counts} == counts)
            for l in layers[1:]
        ]
        values = {
            k: statistics.median(l[k] for l in layers) if k.endswith(TIMED_SUFFIXES) else v
            for k, v in layers[0].items()
        }
        values["trace.overhead_s"] = statistics.median(
            s["wall_s"] for s in traced_runs
        ) - statistics.median(s["wall_s"] for s in plain)
        declared = units(spec, "per_layer")
    else:
        values = {
            "wall_cal": statistics.median(
                s["wall_s"] / statistics.fmean(s["calibration_s"]) for s in plain
            ),
            "setup_s": statistics.median(s["setup_s"] for s in plain),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
        }
        declared = units(spec, "end_to_end")
    if set(values) != set(declared):
        raise SystemExit(f"computed metrics {sorted(values)} differ from BENCHMARK.json")

    failed = sum(not ok for _, ok in checks)
    changed = sum(not ok for _, ok in recorded) if recorded else None
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "environment": environment(),
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "failed_ratio": failed / len(checks),
        "artifacts_changed": changed,
        "wall_s": statistics.median(s["wall_s"] for s in plain),
        "digests": first_digests,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
        "failed_checks": [name for name, ok in checks if not ok],
        "studies": [
            {k: v for k, v in s.items() if k not in ("layers", "checks")} for s in studies
        ],
    }
    RESULTS.mkdir(exist_ok=True)
    result_path = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(
        f"{workload.name} seed={args.seed} studies={len(studies)} "
        f"failed_ratio={record['failed_ratio']:.6g} artifacts_changed={changed} "
        f"record={result_path.relative_to(ROOT)}"
    )
    for name in record["failed_checks"]:
        print(f"failed check: {name}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
