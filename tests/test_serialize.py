import json
import math
import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from otmesh import (
    EmpiricalPathMeasure,
    MarginalSpec,
    Path,
    PhasePoint,
    TimeGrid,
    discrete_flow,
    harmonic_oscillator,
    reference_flow,
    sample_marginal,
    solve_bvp,
    solve_discrete_otm,
)
from otmesh import serialize
from otmesh.serialize import (
    dumps_json,
    format_float,
    matrix_from_csv,
    matrix_to_csv,
    measure_from_csv,
    measure_to_csv,
    path_to_csv,
    write_matrix_csv,
)


def test_float_formatting_round_trips_exactly():
    values = [1 / 3, 2 / 7, math.pi, 1e-300, -1.5, 0.1 + 0.2]
    for v in values:
        assert float(format_float(v)) == v


def test_path_csv_round_trip():
    rng = np.random.default_rng(5)
    grid = TimeGrid(np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0.1, 0.9, 3)))))
    path = Path(grid, rng.uniform(-2, 2, (grid.n_intervals + 1, 2)))
    text = path_to_csv(path)
    assert text.splitlines()[0] == "t,x_1,x_2"
    back = matrix_from_csv(text)
    assert np.array_equal(back[:, 0], path.grid.nodes)
    assert np.array_equal(back[:, 1:], path.nodes)


def test_measure_csv_round_trip():
    grid = TimeGrid.uniform(0.0, 1.0, 3)
    measure = EmpiricalPathMeasure(
        (Path.line(grid, 0.0, 1.0), Path.line(grid, 1.0 / 3.0, -0.75))
    )
    text = measure_to_csv(measure)
    assert text.splitlines()[0] == "path_id,t,x_1"
    back = measure_from_csv(text)
    assert back.size == 2
    for orig, restored in zip(measure.paths, back.paths):
        assert np.array_equal(orig.nodes, restored.nodes)


@pytest.mark.parametrize("bad", ["0.5", "2.5", "nan", "inf"])
def test_measure_csv_rejects_a_non_integral_path_id(bad):
    # such rows used to be dropped, or to fail as an empty time grid
    text = f"path_id,t,x_1\n0,0,1\n0,1,2\n{bad},0,1\n{bad},1,2\n"
    with pytest.raises(ValueError, match=f"path_id {bad} is not an integer"):
        measure_from_csv(text)


def test_measure_csv_groups_interleaved_path_ids_in_id_order():
    text = (
        "path_id,t,x_1,x_2\n"
        "3,0,1,1\n1,0,5,5\n3,0.5,2,2\n-2,0,9,9\n1,1,6,6\n3,1,3,3\n-2,1,8,8\n"
    )
    back = measure_from_csv(text)
    assert back.size == 3 and len(back._grids) == 2
    want = [  # ids -2, 1, 3, each path's rows in file order
        ([0.0, 1.0], [[9, 9], [8, 8]]),
        ([0.0, 1.0], [[5, 5], [6, 6]]),
        ([0.0, 0.5, 1.0], [[1, 1], [2, 2], [3, 3]]),
    ]
    for path, (times, nodes) in zip(back.paths, want):
        assert np.array_equal(path.grid.nodes, times)
        assert np.array_equal(path.nodes, nodes)
    again = measure_from_csv(measure_to_csv(back))
    assert measure_to_csv(again) == measure_to_csv(back)
    assert np.array_equal(again._atom, back._atom)


def test_measure_csv_of_mixed_grids_and_copies_equals_the_per_cell_join():
    rng = np.random.default_rng(17)
    grids = [TimeGrid.uniform(0.0, 1.0, 3), TimeGrid([0.0, 0.2, 1.0])]
    paths = [Path(g, rng.uniform(-1, 1, (g.n_intervals + 1, 2))) for g in grids * 2]
    measure = EmpiricalPathMeasure(paths[i] for i in (0, 1, 2, 1, 3, 0)).replicate(2)
    text = measure_to_csv(measure)
    assert text == per_cell_measure_csv(measure)
    back = measure_from_csv(text)
    assert back.size == 12
    for orig, restored in zip(measure.paths, back.paths):
        assert np.array_equal(orig.grid.nodes, restored.grid.nodes)
        assert np.array_equal(orig.nodes, restored.nodes)


def test_matrix_csv_round_trip_and_headerless_import():
    matrix = np.array([[1.0, -2.5], [1 / 3, 4.0]])
    back = matrix_from_csv(matrix_to_csv(matrix))
    assert np.array_equal(back, matrix)
    headerless = matrix_from_csv("1,2\n3,1\n")
    assert np.array_equal(headerless, np.array([[1.0, 2.0], [3.0, 1.0]]))
    with pytest.raises(ValueError):
        matrix_from_csv("a,b\n")
    with pytest.raises(ValueError):
        matrix_from_csv("1,2\n3\n")


# the CSV writers before the vectorized "%.17g" kernel, kept as oracles


def per_row_matrix_csv(matrix) -> str:
    M = np.atleast_2d(np.asarray(matrix, dtype=float))
    lines = [",".join(f"c_{j + 1}" for j in range(M.shape[1]))]
    fmt = ",".join(["%.17g"] * M.shape[1])
    lines.extend(fmt % tuple(row.tolist()) for row in M)
    return "\n".join(lines) + "\n"


def per_cell_path_csv(path: Path) -> str:
    lines = [",".join(["t"] + [f"x_{i + 1}" for i in range(path.dim)])]
    for t, row in zip(path.grid.nodes, path.nodes):
        lines.append(",".join([format_float(t)] + [format_float(v) for v in row]))
    return "\n".join(lines) + "\n"


def per_cell_measure_csv(measure: EmpiricalPathMeasure) -> str:
    lines = [",".join(["path_id", "t"] + [f"x_{i + 1}" for i in range(measure.dim)])]
    for pid, path in enumerate(measure.paths):
        for t, row in zip(path.grid.nodes, path.nodes):
            lines.append(
                ",".join([str(pid), format_float(t)] + [format_float(v) for v in row])
            )
    return "\n".join(lines) + "\n"


def powers_of_ten_and_neighbours() -> np.ndarray:
    powers = 10.0 ** np.arange(-8, 19)
    cells = [powers]
    for direction in (0.0, np.inf):
        near = powers
        for _ in range(3):
            near = np.nextafter(near, direction)
            cells.append(near)
    return np.concatenate(cells)


EDGE_CELLS = np.concatenate(
    [
        # the double 1e-6 lies below 10^-6, as do others just under a power
        [1e-6, 1e-5, 1e-4, 0.001, 0.1, 1e15, 1e16, 99999999999999984.0, 1e17],
        # decade round-ups: log10 of the largest doubles below a power of ten
        # can round up into the next decade
        powers_of_ten_and_neighbours(),
        [9.999999999999999e-5, 9.9999999999999995e-7, 0.099999999999999992],
        # ties at the 18th digit round half to even
        [123456789012345.125, 123456789012345.375, 1234567890123456.5, 2.5, 0.5],
        [12345678901234.0625, 12345678901234.1875, 1125899906842624.5],
        # 17-digit integers with trailing zeros, and other zero runs
        [-23809161858582760.0, 23809161858582700.0, 10000000000000000.0, 4096.0],
        [1.5, 100.25, 0.000125, 2e-6, 3e-5, 1e-6 * 1.5],
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308],
        [math.inf, -math.inf, math.nan, np.finfo(float).max, 1e300, -1e-300],
    ]
)


def test_matrix_csv_rows_are_the_per_cell_format_float_join():
    special = [
        0.0, -0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e308, -1e308,
        np.finfo(float).max, 3.0, -42.0, 1e16, 1 / 3, math.pi,
        math.nan, math.inf, -math.inf,
    ]
    rng = np.random.default_rng(3)
    matrices = [
        np.array(special).reshape(3, 5),
        np.array(special).reshape(15, 1),
        np.array(special).reshape(1, 15),
        rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-300, 300, (7, 4)),
        np.array([[2.5]]),
    ]
    for edge in (EDGE_CELLS, -EDGE_CELLS):
        matrices += [edge.reshape(1, -1), edge.reshape(-1, 1), edge[: 7 * 9].reshape(7, 9)]
    for M in matrices:
        lines = [",".join(f"c_{j + 1}" for j in range(M.shape[1]))]
        lines += [",".join(format_float(v) for v in row) for row in M]
        assert matrix_to_csv(M) == "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=8),
        elements=st.floats(),
    )
)
def test_matrix_csv_equals_the_per_row_format_on_any_floats(M):
    assert matrix_to_csv(M) == per_row_matrix_csv(M)


def test_no_double_in_the_fast_range_rounds_up_to_a_power_of_ten():
    # so the kernel may leave a 17-digit carry to 10^17 to "%.17g"; only the
    # largest double below each power of ten could carry
    for k in range(-6, 18):
        power = Decimal(10) ** k
        below = float(power)
        while Decimal(below) >= power:
            below = float(np.nextafter(below, 0.0))
        assert Decimal("%.17g" % below) < power


def test_matrix_csv_of_empty_shapes():
    for shape in [(0, 3), (3, 0), (0, 0), (1, 0)]:
        M = np.zeros(shape)
        assert matrix_to_csv(M) == per_row_matrix_csv(M)
    assert matrix_to_csv(np.array([], dtype=float)) == "\n\n"
    assert matrix_to_csv(np.array(-0.0)) == "c_1\n-0\n"


@pytest.mark.parametrize("budget", [1, 2, 3, 5, 64])
def test_matrix_csv_chunks_of_whole_rows_match_the_per_row_text(monkeypatch, budget):
    # budgets below a row give one-row chunks; the others leave a short last chunk
    monkeypatch.setattr(serialize, "_CSV_CELL_BUDGET", budget)
    rng = np.random.default_rng(7)
    spread = rng.standard_normal(60) * 10.0 ** rng.integers(-9, 19, 60)
    cells = np.concatenate([EDGE_CELLS, spread])
    rng.shuffle(cells)
    for cols in (1, 4, 7, cells.size):
        M = cells[: cells.size // cols * cols].reshape(-1, cols)
        assert matrix_to_csv(M) == per_row_matrix_csv(M)
        chunks = list(serialize._rows_to_csv("h", M))[1:]
        step = max(1, budget // cols)
        sizes = [min(step, len(M) - first) for first in range(0, len(M), step)]
        assert [c.count(b"\n") for c in chunks] == sizes
        assert all(c.endswith(b"\n") for c in chunks)


# -- the streamed cost-matrix file ---------------------------------------------------

FALLBACK_CELLS = np.array(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-7, -1e-7, 1e17, -1e17, 5e-324, 1.5]
)


def written_bytes(tmp_path, M) -> bytes:
    path = tmp_path / "matrix.csv"
    write_matrix_csv(path, M)
    return path.read_bytes()


@pytest.mark.parametrize("budget", [1, 2, 3, 5, 64, 2**14])
def test_written_matrix_csv_equals_the_text_for_any_chunk_budget(
    tmp_path, monkeypatch, budget
):
    monkeypatch.setattr(serialize, "_CSV_CELL_BUDGET", budget)
    rng = np.random.default_rng(11)
    spread = rng.standard_normal(60) * 10.0 ** rng.integers(-9, 19, 60)
    cells = np.concatenate([EDGE_CELLS, FALLBACK_CELLS, spread])
    rng.shuffle(cells)
    for cols in (1, 4, 7, cells.size):
        M = cells[: cells.size // cols * cols].reshape(-1, cols)
        assert written_bytes(tmp_path, M) == matrix_to_csv(M).encode("ascii")


@pytest.mark.parametrize("budget", [1, 4, 2**14])
def test_written_matrix_csv_of_fallback_cells_and_degenerate_shapes(
    tmp_path, monkeypatch, budget
):
    monkeypatch.setattr(serialize, "_CSV_CELL_BUDGET", budget)
    matrices = [
        FALLBACK_CELLS.reshape(1, -1),
        FALLBACK_CELLS.reshape(-1, 1),
        np.array(-0.0),
        np.array([], dtype=float),
    ] + [np.zeros(shape) for shape in [(0, 3), (3, 0), (0, 0), (1, 0)]]
    for M in matrices:
        assert written_bytes(tmp_path, M) == matrix_to_csv(M).encode("ascii")
    assert written_bytes(tmp_path, np.array(-0.0)) == b"c_1\n-0\n"
    assert written_bytes(tmp_path, np.zeros((3, 0))) == b"\n\n\n\n"


def test_writing_a_matrix_csv_holds_one_chunk_not_the_text(tmp_path):
    # the 1024^2 text is about 21 MB; one chunk's temporaries about 4.7 MB
    M = np.random.default_rng(2).uniform(-3.0, 3.0, (1024, 1024))
    path = tmp_path / "matrix.csv"
    write_matrix_csv(tmp_path / "warm.csv", M[:2])  # builds the kernel's tables
    tracemalloc.start()
    try:
        write_matrix_csv(path, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert path.stat().st_size > 2 * 8 * 2**20


def test_writing_a_matrix_csv_allocates_its_workspace_once(tmp_path):
    # every chunk of both matrices holds the same cells, so their peaks may
    # differ only by the header line (its text and its bytes), which is
    # longer for 1024 columns; one allocation per chunk would add up
    cells = np.random.default_rng(2).uniform(-3.0, 3.0, serialize._CSV_CELL_BUDGET)
    write_matrix_csv(tmp_path / "warm.csv", cells[:4].reshape(2, 2))  # builds the tables
    peaks, headers = {}, {}
    for N in (512, 1024):
        M = np.tile(cells, N * N // cells.size).reshape(N, N)
        tracemalloc.start()
        try:
            write_matrix_csv(tmp_path / "matrix.csv", M)
            peaks[N] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        headers[N] = len(",".join(f"c_{j + 1}" for j in range(N)))
    assert abs(peaks[1024] - peaks[512]) <= 2 * (headers[1024] - headers[512])


def test_csv_writers_raise_no_runtime_warning_outside_errstate():
    # the pytest configuration turns RuntimeWarnings into errors as well; the
    # CLI alone runs under np.errstate
    cells = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1e-310, 1e308, 1.5])
    finite = cells[np.isfinite(cells)]
    path = Path(TimeGrid(np.arange(finite.size, dtype=float)), finite[:, None])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert matrix_to_csv(cells.reshape(3, 3)) == per_row_matrix_csv(cells.reshape(3, 3))
        assert path_to_csv(path) == per_cell_path_csv(path)
        measure = EmpiricalPathMeasure((path,))
        assert measure_to_csv(measure) == per_cell_measure_csv(measure)


def test_bvp_flow_and_measure_csvs_equal_the_per_cell_joins():
    model = harmonic_oscillator()
    grid = TimeGrid.uniform(0.0, 1.0, 24)
    paths = [
        solve_bvp(model, np.array([0.0]), np.array([2.0]), grid).path,
        solve_bvp(model, np.array([0.3, -1.0]), np.array([1.7, 0.25]), grid).path,
        discrete_flow(model, PhasePoint(np.array([1.0]), np.array([-0.5])), grid).path,
        reference_flow(model, PhasePoint(np.array([0.1, 2.0]), np.array([1e-7, 3.0])), grid).path,
        Path(TimeGrid([0.0, 1e-7, 0.5, 1.0]), np.array([[1e-300], [0.0], [-1e20], [1e-6]])),
    ]
    for path in paths:
        assert path_to_csv(path) == per_cell_path_csv(path)
    source, target = (
        sample_marginal(MarginalSpec("uniform_box", low=lo, high=lo + 1, sampler="quantile"), 12)
        for lo in (0.0, 0.5)
    )
    grid = TimeGrid.from_step(0.0, 0.2, 0.01)
    measure = solve_discrete_otm(model, source, target, grid, cost_kind="bvp").measure
    assert measure_to_csv(measure) == per_cell_measure_csv(measure)


def test_json_emission_parses_and_handles_nan():
    payload = {
        "name": "row",
        "value": 1 / 3,
        "count": 4,
        "flag": True,
        "missing": float("nan"),
        "items": [1.5, None, "text"],
        "nested": {"empty_list": [], "empty_map": {}},
    }
    text = dumps_json(payload)
    parsed = json.loads(text)  # strict JSON: would reject bare NaN
    assert parsed["value"] == 1 / 3
    assert parsed["missing"] is None
    assert parsed["flag"] is True
    assert parsed["items"] == [1.5, None, "text"]


def test_json_emission_is_deterministic():
    payload = {"a": [0.1, 0.2, 0.30000000000000004], "b": {"c": 7}}
    assert dumps_json(payload) == dumps_json(payload)
    assert dumps_json(np.float64(2.0)) == "2\n"
