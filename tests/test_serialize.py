import json
import math

import numpy as np
import pytest

from otmesh import EmpiricalPathMeasure, Path, TimeGrid
from otmesh.serialize import (
    dumps_json,
    format_float,
    matrix_from_csv,
    matrix_to_csv,
    measure_from_csv,
    measure_to_csv,
    path_from_csv,
    path_to_csv,
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
    back = path_from_csv(text)
    assert np.array_equal(back.grid.nodes, path.grid.nodes)
    assert np.array_equal(back.nodes, path.nodes)


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
    for M in matrices:
        lines = [",".join(f"c_{j + 1}" for j in range(M.shape[1]))]
        lines += [",".join(format_float(v) for v in row) for row in M]
        assert matrix_to_csv(M) == "\n".join(lines) + "\n"


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
