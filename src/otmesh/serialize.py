"""Deterministic CSV and JSON emission for paths, measures, and reports.

All floating-point values are written with 17 significant digits so that
files round-trip exactly and identical runs produce byte-identical artifacts.
"""

from __future__ import annotations

import functools
import io
import json
from typing import Iterable, Iterator

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
    header = ",".join(["t"] + _coordinate_header(path.dim))
    return "".join(_rows_to_csv(header, np.column_stack((path.grid.nodes, path.nodes))))


def path_from_csv(text: str) -> Path:
    rows = _numeric_rows(text)
    data = np.asarray(rows, dtype=float)
    if data.ndim != 2 or data.shape[1] < 2:
        raise ValueError("path CSV needs columns t, x_1..x_n")
    return Path(TimeGrid(data[:, 0]), data[:, 1:])


def measure_to_csv(measure: EmpiricalPathMeasure) -> str:
    """Long format with columns path_id, t, x_1..x_n."""
    header = ",".join(["path_id", "t"] + _coordinate_header(measure.dim))
    # ids below 2^53 print as "%.17g" of the float exactly as str() of the int
    rows = np.vstack(
        [
            np.column_stack((np.full(p.grid.nodes.size, float(pid)), p.grid.nodes, p.nodes))
            for pid, p in enumerate(measure.paths)
        ]
    )
    return "".join(_rows_to_csv(header, rows))


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
    return "".join(_matrix_csv_chunks(matrix))


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    """Write matrix_to_csv(matrix) to the file at path, one chunk at a time.

    The text is never held whole: at most one chunk of _CSV_CELL_BUDGET
    cells is in memory.  Line endings are "\n" on every platform.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for chunk in _matrix_csv_chunks(matrix):
            fh.write(chunk)


def _matrix_csv_chunks(matrix: np.ndarray) -> Iterator[str]:
    M = np.atleast_2d(np.asarray(matrix, dtype=float))
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
# Vectorized "%.17g": rows of floats as CSV text
# ---------------------------------------------------------------------------

# cells formatted per chunk: the chunk's temporaries take about 290 bytes per
# cell, some 4.7 MB, and 16 rows at N = 1024
_CSV_CELL_BUDGET = 2**14

# One cell's 48 byte slots, six 8-byte words: the sign, the "0.000" prefix,
# the 17 digits each followed by a ".", "e-0" and one exponent digit, the
# separator, and three unused bytes.  A keep-mask chosen by (sign, decimal
# exponent, trailing zeros) zeroes the bytes that are not in the "%.17g" text,
# and bytes.translate deletes them.
_SLOT_WIDTH = 48
_SLOT_LEAD = 6
_SLOT_EXP = 43
_SLOT_SEP = 44
# mask classes: decimal exponents -6..16 of the rounded value, and last the
# cells left to "%.17g" itself, which keep only their separator
_MIN_EXP = -6
_FALLBACK = 16 - _MIN_EXP + 1


@functools.cache
def _csv_tables():
    """Byte templates, keep-masks and lookup tables of the "%.17g" kernel.

    Built on first use, so that importing the package stays cheap.
    """
    masks = np.zeros((2, _FALLBACK + 1, 17, _SLOT_WIDTH), dtype=bool)
    masks[..., _SLOT_SEP] = True
    masks[1, :_FALLBACK, :, 0] = True
    digit = [_SLOT_LEAD + 2 * j for j in range(17)]
    for cls in range(_FALLBACK):
        exp = cls + _MIN_EXP
        for zeros in range(17):
            m = masks[:, cls, zeros]
            last = 16 - zeros  # index of the last nonzero digit
            if exp < -4:  # d.ddde-0X
                m[:, digit[0]] = True
                m[:, _SLOT_EXP - 3 : _SLOT_EXP + 1] = True
                point = 0
            elif exp < 0:  # 0.000ddd
                m[:, 1 : 2 - exp] = True  # "0." and -exp - 1 zeros
                m[:, digit[0] : digit[last] + 1 : 2] = True
                continue
            else:  # ddd.ddd
                m[:, digit[0] : digit[exp] + 1 : 2] = True
                point = exp
            if last > point:
                m[:, digit[point] + 1] = True
                m[:, digit[point + 1] : digit[last] + 1 : 2] = True
    masks = masks.reshape(-1, _SLOT_WIDTH)
    quads = np.arange(10**4)
    # "d.d.d.d." of 0..9999, read as one 8-byte word each
    quad_digits = np.full((10**4, 8), ord("."), dtype=np.uint8)
    quad_digits[:, ::2] = (quads[:, None] // 10 ** np.arange(3, -1, -1)) % 10 + ord("0")
    quad_zeros = np.zeros(10**4, dtype=np.intp)  # trailing zeros of "dddd"
    for j in (1, 2, 3, 4):
        quad_zeros += quads % 10**j == 0
    pow10 = 10.0 ** np.arange(23)  # exact doubles
    pow10_hi, pow10_lo = _split(pow10)
    tables = {
        # the first and the last word of the slots
        "ends": np.frombuffer(b"-0.0000." + b"e-00,\0\0\0", dtype=np.uint64).copy(),
        "masks": (masks * np.uint8(255)).view(np.uint64),
        "lengths": masks.sum(axis=1),
        "quad_digits": quad_digits.view(np.uint64).ravel(),
        "quad_zeros": quad_zeros,
        "pow10": pow10,
        "pow10_hi": pow10_hi,
        "pow10_lo": pow10_lo,
    }
    for table in tables.values():
        table.flags.writeable = False
    return tables


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split: a = hi + lo exactly, each with at most 26 significant bits."""
    c = a * 134217729.0  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _scaled_exactly(a: np.ndarray, p: np.ndarray, tables) -> tuple[np.ndarray, np.ndarray]:
    """a * 10^p as hi + lo exactly (Dekker's two-product, 0 <= p <= 22)."""
    hi = a * tables["pow10"][p]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = tables["pow10_hi"][p], tables["pow10_lo"][p]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _out_of_decade(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """-1 where hi + lo < 10^16, +1 where it is >= 10^17, else 0."""
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    return above.astype(np.intp) - below


def _format_cells(x: np.ndarray, last_in_row: np.ndarray) -> str:
    """Each cell as "%.17g" followed by "," or, where last_in_row, a newline."""
    t = _csv_tables()
    n = x.size
    a = np.abs(x)
    fast = (a >= 1e-6) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    # the 17-digit integer: a * 10^p = hi + lo in [10^16, 10^17), p = 16 - exp
    p = 16 - np.clip(np.floor(np.log10(a)), _MIN_EXP, 16).astype(np.intp)
    hi, lo = _scaled_exactly(a, p, t)
    # near a power of ten log10 can miss the decade: move p by one, and leave
    # the cells still outside it to "%.17g" (their digits are masked out)
    step = _out_of_decade(hi, lo)
    moved = np.flatnonzero(step)
    if moved.size:
        p[moved] = np.clip(p[moved] - step[moved], 0, 22)
        hi[moved], lo[moved] = _scaled_exactly(a[moved], p[moved], t)
        fast[moved[_out_of_decade(hi[moved], lo[moved]) != 0]] = False
    # hi >= 2^53 is an even integer, so rounding lo half-to-even rounds hi + lo
    N = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    exp = 16 - p
    # a carry to 10^17 would need a double within 5e-18 (relative) below a
    # power of ten, closer than any is in this range; "%.17g" would get it
    fast &= N < 10**17
    # the lead digit and four groups of four digits; numpy divides by a
    # constant much faster than np.divmod does
    high = N // 10**8
    lead = high // 10**8
    quads = np.empty((4, n), dtype=np.int64)
    quads[0] = high - lead * 10**8
    quads[2] = N - high * 10**8
    quads[1::2] = quads[::2] % 10**4
    quads[::2] //= 10**4
    # trailing zeros of the 17 digits (the lead digit is never 0)
    zeros = t["quad_zeros"][quads[3]]
    for j in (2, 1, 0):
        zeros += (zeros == 12 - 4 * j) * t["quad_zeros"][quads[j]]

    cls = np.where(fast, exp - _MIN_EXP, _FALLBACK)
    key = (np.signbit(x) * (_FALLBACK + 1) + cls) * 17 + zeros
    words = np.empty((n, _SLOT_WIDTH // 8), dtype=np.uint64)
    words[:, 0], words[:, 5] = t["ends"]
    words[:, 1:5] = np.take(t["quad_digits"], quads).T
    slots = words.view(np.uint8)
    slots[:, _SLOT_LEAD] = lead + ord("0")
    slots[:, _SLOT_EXP] = ord("0") - exp
    slots[:, _SLOT_SEP] = np.where(last_in_row, ord("\n"), ord(","))
    words &= np.take(t["masks"], key, axis=0)
    text = words.tobytes().translate(None, b"\0").decode("ascii")

    fallback = np.flatnonzero(cls == _FALLBACK)
    if not fallback.size:
        return text
    # a fallback cell's slots hold its separator alone: put its text in front
    seps = np.cumsum(t["lengths"][key])[fallback] - 1
    pieces, start = [], 0
    for sep, value in zip(seps.tolist(), x[fallback].tolist()):
        pieces += (text[start:sep], "%.17g" % value)
        start = sep
    pieces.append(text[start:])
    return "".join(pieces)


def _rows_to_csv(header: str, M: np.ndarray) -> Iterator[str]:
    """The header line, then each row of M as format_float of its cells joined
    by ",", one row per line, as a sequence of chunks.

    Joined, byte-identical to the per-cell join.  Formats _CSV_CELL_BUDGET
    cells per chunk, so a chunk may end inside a row.
    """
    rows, cols = M.shape
    if cols == 0:
        yield header + "\n" * (rows + 1)
        return
    yield header + "\n"
    flat = np.ravel(M)
    for start in range(0, flat.size, _CSV_CELL_BUDGET):
        stop = min(start + _CSV_CELL_BUDGET, flat.size)
        last_in_row = np.arange(start + 1, stop + 1) % cols == 0
        yield _format_cells(flat[start:stop], last_in_row)


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
