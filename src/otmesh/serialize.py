"""Deterministic CSV and JSON emission for paths, measures, and reports.

All floating-point values are written with 17 significant digits so that
files round-trip exactly and identical runs produce byte-identical artifacts.
"""

from __future__ import annotations

import dataclasses
import io
import json
from typing import Iterable, Iterator

import numpy as np

from ._csvformat import format_cells, workspace
from .measures import EmpiricalPathMeasure, _grid_atoms, _join
from .paths import Path, TimeGrid
from .pipeline import ConvergenceRow, StationarityLevel
from .transport import ClosedFormCosts


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
    header = ",".join(["t"] + _coordinate_header(path.dim))
    rows = np.column_stack((path.grid.nodes, path.nodes))
    return b"".join(_rows_to_csv(header, rows)).decode("ascii")


def measure_to_csv(measure: EmpiricalPathMeasure) -> str:
    """Long format with columns path_id, t, x_1..x_n."""
    header = ",".join(["path_id", "t"] + _coordinate_header(measure.dim))
    grids = list(_grid_atoms(measure))
    lengths = np.empty(measure.size, dtype=np.intp)
    for grid, _, atoms in grids:
        lengths[atoms] = grid.nodes.size
    first = np.cumsum(lengths) - lengths  # the first CSV row of every atom
    rows = np.empty((int(lengths.sum()), 2 + measure.dim))
    # ids below 2^53 print as "%.17g" of the float exactly as str() of the int
    rows[:, 0] = np.repeat(np.arange(measure.size, dtype=float), lengths)
    for grid, X, atoms in grids:
        at = first[atoms][:, None] + np.arange(grid.nodes.size)
        rows[at, 1] = grid.nodes
        rows[at, 2:] = X
    return b"".join(_rows_to_csv(header, rows)).decode("ascii")


def measure_from_csv(text: str) -> EmpiricalPathMeasure:
    """Read measure_to_csv's format; path_id orders the paths, not row order.

    The rows of one path_id are that path's nodes in file order.
    """
    rows = _numeric_rows(text)
    data = np.asarray(rows, dtype=float)
    if data.ndim != 2 or data.shape[1] < 3:
        raise ValueError("measure CSV needs columns path_id, t, x_1..x_n")
    ids = data[:, 0]
    bad = np.flatnonzero(~np.isfinite(ids) | (ids != np.floor(ids)))
    if bad.size:
        raise ValueError(f"path_id {format_float(ids[bad[0]])} is not an integer")
    data = data[np.argsort(ids, kind="stable")]
    blocks = np.split(data, np.flatnonzero(np.diff(data[:, 0])) + 1)
    return _join(
        [EmpiricalPathMeasure._from_nodes(TimeGrid(b[:, 1]), b[None, :, 2:]) for b in blocks]
    )


def matrix_to_csv(matrix: np.ndarray) -> str:
    """Header c_1..c_m, then one row of the matrix per line."""
    return b"".join(_matrix_csv_chunks(matrix)).decode("ascii")


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    """Write matrix_to_csv(matrix), ASCII-encoded, to the file at path.

    The text is never held whole: chunks of whole rows (see _rows_to_csv)
    are formatted in scratch arrays allocated once per call, and written as
    they are made, in binary mode, so line endings are "\n" everywhere.  A
    ``ClosedFormCosts`` is read by row slices.
    """
    with open(path, "wb") as fh:
        fh.writelines(_matrix_csv_chunks(matrix))


def _matrix_csv_chunks(matrix: np.ndarray) -> Iterator[bytes]:
    M = matrix if isinstance(matrix, ClosedFormCosts) else np.atleast_2d(np.asarray(matrix, float))
    return _rows_to_csv(",".join(f"c_{j + 1}" for j in range(M.shape[1])), M)


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
# Rows of floats as CSV text, in chunks formatted by _csvformat
# ---------------------------------------------------------------------------

# cells formatted per chunk of whole rows: the chunk's scratch arrays take
# about 160 bytes per cell, some 2.7 MB, and 16 rows at N = 1024; a row
# wider than this is one chunk, with scratch arrays of its size
_CSV_CELL_BUDGET = 2**14


def _rows_to_csv(header: str, M: np.ndarray) -> Iterator[bytes]:
    """The header line, then each row of M as format_float of its cells joined
    by ",", one row per line, as a sequence of ASCII chunks.

    Joined, byte-identical to the per-cell join.  A chunk is as many rows as
    hold _CSV_CELL_BUDGET cells, or one, in a workspace all chunks reuse.
    """
    rows, cols = M.shape
    if cols == 0:
        yield (header + "\n" * (rows + 1)).encode()
        return
    yield (header + "\n").encode()
    step = max(1, _CSV_CELL_BUDGET // cols)
    scratch = workspace(min(step, rows) * cols)
    for first in range(0, rows, step):
        yield format_cells(M[first : first + step].ravel(), slice(cols - 1, None, cols), scratch)


# ---------------------------------------------------------------------------
# Study reports
# ---------------------------------------------------------------------------

# the CSV and JSON columns are the fields of the report rows, in their order
CONVERGENCE_CSV_COLUMNS = [f.name for f in dataclasses.fields(ConvergenceRow)]
STATIONARITY_CSV_COLUMNS = [f.name for f in dataclasses.fields(StationarityLevel)]


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
