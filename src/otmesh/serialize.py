"""Deterministic CSV and JSON emission for paths, measures, and reports.

All floating-point values are written with 17 significant digits so that
files round-trip exactly and identical runs produce byte-identical artifacts.
"""

from __future__ import annotations

import io
import json
from typing import Iterable

import numpy as np

from .measures import EmpiricalPathMeasure
from .paths import Path, TimeGrid


def format_float(value: float) -> str:
    return "%.17g" % float(value)


def dumps_json(obj) -> str:
    """Pretty-printed JSON, two spaces per level; 17-digit floats, NaN as null."""
    out = io.StringIO()
    _emit_json(obj, out, 0)
    out.write("\n")
    return out.getvalue()


def _emit_json(obj, out: io.StringIO, level: int) -> None:
    pad = "  " * (level + 1)
    closing_pad = "  " * level
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.write(pad + json.dumps(str(key)) + ": ")
            _emit_json(value, out, level + 1)
            out.write(",\n" if i < len(obj) - 1 else "\n")
        out.write(closing_pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            out.write("[]")
            return
        out.write("[\n")
        for i, value in enumerate(items):
            out.write(pad)
            _emit_json(value, out, level + 1)
            out.write(",\n" if i < len(items) - 1 else "\n")
        out.write(closing_pad + "]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.write("true" if obj else "false")
    elif obj is None:
        out.write("null")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        value = float(obj)
        out.write(format_float(value) if np.isfinite(value) else "null")
    elif isinstance(obj, str):
        out.write(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj)!r} to JSON")


# ---------------------------------------------------------------------------
# Paths and path measures as CSV
# ---------------------------------------------------------------------------


def _coordinate_header(dim: int) -> list[str]:
    return [f"x_{i + 1}" for i in range(dim)]


def path_to_csv(path: Path) -> str:
    """One nodal row per line with columns t, x_1..x_n."""
    lines = [",".join(["t"] + _coordinate_header(path.dim))]
    for t, row in zip(path.grid.nodes, path.nodes):
        lines.append(",".join([format_float(t)] + [format_float(v) for v in row]))
    return "\n".join(lines) + "\n"


def path_from_csv(text: str) -> Path:
    rows = _numeric_rows(text)
    data = np.asarray(rows, dtype=float)
    if data.ndim != 2 or data.shape[1] < 2:
        raise ValueError("path CSV needs columns t, x_1..x_n")
    return Path(TimeGrid(data[:, 0]), data[:, 1:])


def measure_to_csv(measure: EmpiricalPathMeasure) -> str:
    """Long format with columns path_id, t, x_1..x_n."""
    lines = [",".join(["path_id", "t"] + _coordinate_header(measure.dim))]
    for pid, path in enumerate(measure.paths):
        for t, row in zip(path.grid.nodes, path.nodes):
            lines.append(
                ",".join([str(pid), format_float(t)] + [format_float(v) for v in row])
            )
    return "\n".join(lines) + "\n"


def measure_from_csv(text: str) -> EmpiricalPathMeasure:
    rows = _numeric_rows(text)
    data = np.asarray(rows, dtype=float)
    if data.ndim != 2 or data.shape[1] < 3:
        raise ValueError("measure CSV needs columns path_id, t, x_1..x_n")
    paths = []
    for pid in sorted(set(int(v) for v in data[:, 0])):
        block = data[data[:, 0] == pid]
        paths.append(Path(TimeGrid(block[:, 1]), block[:, 2:]))
    return EmpiricalPathMeasure(tuple(paths))


def matrix_to_csv(matrix: np.ndarray) -> str:
    """Header c_1..c_m, then one row of the matrix per line."""
    M = np.atleast_2d(np.asarray(matrix, dtype=float))
    lines = [",".join(f"c_{j + 1}" for j in range(M.shape[1]))]
    for row in M:
        lines.append(",".join(format_float(v) for v in row))
    return "\n".join(lines) + "\n"


def matrix_from_csv(text: str) -> np.ndarray:
    return np.asarray(_numeric_rows(text), dtype=float)


def _numeric_rows(text: str) -> list[list[float]]:
    """Parse comma-separated numeric rows, skipping a header row if present."""
    rows = []
    for lineno, line in enumerate(text.splitlines()):
        line = line.strip()
        if not line:
            continue
        cells = [c.strip() for c in line.split(",")]
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            if lineno == 0 or not rows:
                continue  # header row
            raise ValueError(f"non-numeric CSV row: {line!r}") from None
    if not rows:
        raise ValueError("CSV contains no numeric rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("CSV rows have inconsistent column counts")
    return rows


# ---------------------------------------------------------------------------
# Study reports
# ---------------------------------------------------------------------------

CONVERGENCE_CSV_COLUMNS = [
    "N",
    "h",
    "min_action",
    "d_bl_to_finest",
    "max_el_residual",
    "max_reconstruction_dist",
    "status",
    "error",
]

STATIONARITY_CSV_COLUMNS = [
    "h",
    "max_el_residual",
    "max_reconstruction_dist",
    "mean_reconstruction_dist",
    "max_newton_iterations",
    "scaling_ok",
]


def _csv_cell(value) -> str:
    if isinstance(value, str):
        if any(ch in value for ch in ",\"\n"):
            return '"' + value.replace('"', '""') + '"'
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_float(value)


def rows_to_csv(columns: list[str], rows: Iterable[Iterable]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def convergence_report_to_csv(report) -> str:
    return rows_to_csv(
        CONVERGENCE_CSV_COLUMNS,
        ([getattr(r, c) for c in CONVERGENCE_CSV_COLUMNS] for r in report.rows),
    )


def convergence_report_to_json(report) -> dict:
    return {
        "kind": "convergence_report",
        "schema_version": 1,
        "reference_action": report.reference_action,
        "action_order": report.action_order,
        "trajectory_order": report.trajectory_order,
        "all_ok": report.all_ok,
        "rows": [{c: getattr(r, c) for c in CONVERGENCE_CSV_COLUMNS} for r in report.rows],
    }


def stationarity_report_to_csv(report) -> str:
    return rows_to_csv(
        STATIONARITY_CSV_COLUMNS,
        ([getattr(lv, c) for c in STATIONARITY_CSV_COLUMNS] for lv in report.levels),
    )


def stationarity_report_to_json(report) -> dict:
    return {
        "kind": "stationarity_report",
        "schema_version": 1,
        "fitted_rate": report.fitted_rate,
        "all_scaling_ok": report.all_scaling_ok,
        "levels": [
            {c: getattr(lv, c) for c in STATIONARITY_CSV_COLUMNS} for lv in report.levels
        ],
    }
