"""Differential tests of the vectorized "%.17g" kernel behind the CSV writers."""

import functools
import math
import random

import numpy as np
import pytest

from otmesh import serialize
from otmesh._csvformat import format_cells, workspace
from otmesh.serialize import write_matrix_csv


def exponent_and_zeros(value: float) -> tuple[int, int]:
    """The decimal exponent of "%.17g" % value and the trailing zeros of its
    17 significant digits: the keep-mask row the kernel picks, with the sign."""
    mantissa, exp = ("%.16e" % value).split("e")
    digits = mantissa.lstrip("-").replace(".", "")
    return int(exp), len(digits) - len(digits.rstrip("0"))


@functools.cache
def mask_row_values() -> tuple[tuple[float, ...], frozenset]:
    """One positive value per (decimal exponent -6..16, trailing zeros 0..16),
    and the rows that no double reaches.

    A value of s = 17 - zeros significant digits is the double nearest to
    such a decimal; only a double nearest to it can print as it.  For s = 1
    all nine decimals are tried, so a row none of them reaches is reached by
    no double.
    """
    values, unreached = [], set()
    for exp in range(-6, 17):
        for zeros in range(17):
            s = 17 - zeros
            rng = random.Random(100 * exp + zeros)
            if s == 1:
                candidates = range(1, 10)
            else:
                candidates = (rng.randrange(10 ** (s - 2), 10 ** (s - 1)) * 10 + rng.randrange(1, 10)
                              for _ in range(2000))
            hit = next((v for D in candidates
                        if exponent_and_zeros(v := float(f"{D}e{exp - s + 1}")) == (exp, zeros)),
                       None)
            if hit is None:
                unreached.add((exp, zeros))
            else:
                values.append(hit)
    return tuple(values), frozenset(unreached)


FALLBACK_CELLS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.5e-310,
                  -1e-308, 1e-7, -1e-7, 1e17, -1e17]


def per_cell_csv(M: np.ndarray) -> bytes:
    header = ",".join(f"c_{j + 1}" for j in range(M.shape[1])).encode()
    rows = [b",".join(b"%.17g" % v for v in row) for row in M.tolist()]
    return b"\n".join([header] + rows) + b"\n"


def test_the_mask_row_values_cover_every_exponent_and_zero_count():
    values, unreached = mask_row_values()
    # no double prints as a single digit times 1e-6 or 1e-5
    assert unreached == {(-6, 16), (-5, 16)}
    rows = {exponent_and_zeros(v) for v in values}
    assert len(rows) == len(values) == 23 * 17 - len(unreached)
    # exponents 1..16 put the point after body digits 1..16, each its own byte
    assert {exp for exp, _ in rows if exp > 0} == set(range(1, 17))
    assert all(1e-6 <= v < 1e17 for v in values)


@pytest.mark.parametrize("budget", [1, 3, 7, None])
def test_every_keep_mask_row_and_fallback_cell_is_written_as_per_cell_text(
    tmp_path, monkeypatch, budget
):
    if budget is not None:
        monkeypatch.setattr(serialize, "_CSV_CELL_BUDGET", budget)
    values = np.array(mask_row_values()[0])
    cells = np.concatenate([values, -values, FALLBACK_CELLS])
    np.random.default_rng(3).shuffle(cells)
    # rows of a third of the cells are wider than budgets 1, 3 and 7: one chunk each
    for cols in (1, 7, cells.size // 3, cells.size):
        M = cells[: cells.size // cols * cols].reshape(-1, cols)
        path = tmp_path / "matrix.csv"
        write_matrix_csv(path, M)
        assert path.read_bytes() == per_cell_csv(M)


@pytest.mark.parametrize("with_fallback", [False, True])
def test_formatted_cells_do_not_share_the_workspace(with_fallback):
    # every cell in [1e-6, 1e17) is formatted by the kernel, none by "%.17g"
    rng = np.random.default_rng(4)
    first, second = rng.choice([-1.0, 1.0], (2, 64)) * rng.uniform(1.0, 9.9, (2, 64))
    first *= 10.0 ** rng.integers(-6, 17, 64)
    second *= 10.0 ** rng.integers(-6, 17, 64)
    if with_fallback:
        first[::9] = math.nan
        second[1::5] = -math.inf
    scratch = workspace(64)
    row_ends = slice(7, None, 8)
    text = format_cells(first, row_ends, scratch)
    expected = b"".join(b"%.17g%s" % (v, b"\n" if i % 8 == 7 else b",")
                        for i, v in enumerate(first.tolist()))
    assert text == expected
    format_cells(second, row_ends, scratch)
    assert text == expected
