import copy
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path as FsPath

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from otmesh import PointCloud, TimeGrid, cli, cost_matrix, make_model, serialize, transport
from otmesh.cli import _HANDLERS, build_parser, main
from otmesh.errors import SolverError

SRC_DIR = FsPath(__file__).resolve().parents[1] / "src"
SCHEMA_DIR = SRC_DIR / "otmesh" / "schemas"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def load_and_validate(path: FsPath, schema_name: str) -> dict:
    payload = json.loads(path.read_text(encoding="utf-8"))
    schema = json.loads((SCHEMA_DIR / schema_name).read_text(encoding="utf-8"))
    jsonschema.validate(payload, schema)
    return payload


def csv_lines(path: FsPath) -> list[str]:
    return path.read_text(encoding="utf-8").strip().splitlines()


def test_the_parser_is_built_once_per_process():
    assert build_parser() is build_parser()
    args = build_parser().parse_args(["flow", "--config", "a.json", "--seed", "3"])
    assert (args.command, args.config, args.seed, args.out) == ("flow", "a.json", 3, None)
    args = build_parser().parse_args(["bvp", "--config", "b.json"])
    assert (args.command, args.config, args.seed) == ("bvp", "b.json", None)


COMMAND_HELP = {
    "bvp": "solve one two-point boundary problem",
    "flow": "integrate the reference or discrete flow from a phase point",
    "transport": "solve an assignment problem from a cost matrix or clouds",
    "converge": "run a convergence study over an (N, h) schedule",
    "stationary": "run a stationarity refinement study",
}


def test_help_lists_every_command_with_its_description(capsys):
    with pytest.raises(SystemExit) as exit_:
        build_parser().parse_args(["--help"])
    assert exit_.value.code == 0
    help_text = capsys.readouterr().out
    assert list(COMMAND_HELP) == list(_HANDLERS)
    for name, doc in COMMAND_HELP.items():
        assert any(line.split() == [name, *doc.split()] for line in help_text.splitlines())


def test_an_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--config", "a.json"])
    assert exit_.value.code == 2
    assert "invalid choice: 'run'" in capsys.readouterr().err


@pytest.mark.parametrize("command", list(_HANDLERS))
def test_every_command_parses_the_four_options(command):
    parser = build_parser()
    args = parser.parse_args(
        [command, "--config", "c.json", "--out", "o", "--seed", "7", "--allow-long-horizon"]
    )
    assert (args.command, args.config, args.out, args.seed, args.allow_long_horizon) == (
        command, "c.json", "o", 7, True
    )
    args = parser.parse_args([command, "--config", "c.json"])
    assert (args.out, args.seed, args.allow_long_horizon) == (None, None, False)
    assert build_parser() is parser


# -- bvp ------------------------------------------------------------------------


def test_cli_bvp_free_particle(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": {"name": "free_particle", "params": {"mass": 1.0}},
            "x": 0.0,
            "y": 2.0,
            "span": [0.0, 1.0],
            "intervals": 16,
        },
    )
    out = tmp_path / "out"
    assert main(["bvp", "--config", cfg, "--out", str(out)]) == 0
    payload = load_and_validate(out / "bvp_result.json", "bvp_result.schema.json")
    assert payload["cost"] == pytest.approx(2.0)
    assert payload["converged"] is True
    assert csv_lines(out / "bvp_path.csv")[0] == "t,x_1"


def test_cli_bvp_harmonic_quarter_period(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": {"name": "harmonic"},
            "x": 0.0,
            "y": 1.0,
            "span": [0.0, math.pi / 2],
            "intervals": 1000,
        },
    )
    out = tmp_path / "out"
    assert main(["bvp", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "bvp_result.json").read_text())
    assert abs(payload["cost"]) <= 1e-4


def test_cli_malformed_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["bvp", "--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err
    missing = write_config(tmp_path, {"model": {"name": "free_particle"}}, "m.json")
    assert main(["bvp", "--config", missing]) == 1


def test_cli_unknown_model_exits_one(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"model": {"name": "pendulum"}, "x": 0, "y": 1, "span": [0, 1], "intervals": 4},
    )
    assert main(["bvp", "--config", cfg]) == 1
    assert "unknown model" in capsys.readouterr().err


# -- flow ---------------------------------------------------------------------------


def test_cli_flow_free_particle(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": {"name": "free_particle"},
            "x": 0.0,
            "v": 1.0,
            "span": [0.0, 1.0],
            "h": 0.1,
            "flow": "discrete",
        },
    )
    out = tmp_path / "out"
    assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
    payload = load_and_validate(out / "flow_result.json", "flow_result.schema.json")
    assert payload["final_position"] == pytest.approx([1.0])
    assert csv_lines(out / "flow_path.csv")[0] == "t,x_1"


def test_cli_discrete_flow_with_an_infinite_force_is_a_solver_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "model": {"name": "double_well"},
            "x": 0.0,
            "v": 1e200,
            "span": [0.0, 1.0],
            "h": 0.25,
            "flow": "discrete",
        },
    )
    out = tmp_path / "out"
    assert main(["flow", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "solver error: implicit midpoint step has residual inf at iteration 0\n"
    )
    assert not out.exists()


def sha256_of(path: FsPath) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_cli_reference_flow_csv_is_pinned_bytewise(tmp_path):
    # the RK4 march of a 2-D cosine model with mass != 1, which no benchmark
    # digest covers; the digest was recorded before the march was optimized
    cfg = write_config(
        tmp_path,
        {
            "model": {"name": "cosine", "params": {"mass": 1.7, "amplitude": 0.8, "dim": 2}},
            "flow": "reference",
            "x": [0.3, -0.45],
            "v": [0.9, 0.35],
            "span": [0.0, 1.5],
            "intervals": 24,
        },
    )
    out = tmp_path / "out"
    assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
    assert sha256_of(out / "flow_path.csv") == (
        "0475dcda86954a2770f75058f940cbd2d53e904de6b90cfcea5e85cbc9ac88a3"
    )


# -- transport -------------------------------------------------------------------------


def test_cli_transport_from_csv(tmp_path):
    matrix = tmp_path / "costs.csv"
    matrix.write_text("c_1,c_2\n1,2\n3,1\n", encoding="utf-8")
    cfg = write_config(tmp_path, {"costs_csv": str(matrix)})
    out = tmp_path / "out"
    assert main(["transport", "--config", cfg, "--out", str(out)]) == 0
    payload = load_and_validate(
        out / "transport_result.json", "transport_result.schema.json"
    )
    assert payload["perm"] == [0, 1]
    assert payload["total_cost"] == pytest.approx(2.0)
    assert csv_lines(out / "cost_matrix.csv")[0] == "c_1,c_2"


@pytest.mark.parametrize(
    "text",
    [
        "c_1,c_2,c_3\n1,2,3\n3,1,2\n2,3,1\n",
        # the bad cell would be a parse error: the cap is checked before parsing
        "\n1,2,3\n3,1,2\n2,3,oops\n",
    ],
    ids=["header", "bad_last_cell"],
)
def test_cli_transport_from_csv_checks_the_particle_cap(tmp_path, capsys, monkeypatch, text):
    monkeypatch.setattr(cli, "MAX_PARTICLES", 2)
    matrix = tmp_path / "costs.csv"
    matrix.write_text(text, encoding="utf-8")
    cfg = write_config(tmp_path, {"costs_csv": str(matrix)})
    out = tmp_path / "out"
    assert main(["transport", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "config error: 'costs_csv' asks for 3 paths; at most 2 are allowed\n"
    )
    assert not (out / "transport_result.json").exists()


def test_cli_transport_from_clouds(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": {"name": "free_particle"},
            "source_points": [[0.0], [1.0]],
            "target_points": [[0.0], [1.0]],
            "span": [0.0, 1.0],
            "intervals": 4,
            "cost_kind": "closed_form",
        },
    )
    out = tmp_path / "out"
    assert main(["transport", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "transport_result.json").read_text())
    assert payload["total_cost"] == pytest.approx(0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_cli_transport_streams_the_cost_matrix_csv_byte_for_byte(
    tmp_path, capsys, monkeypatch, dim
):
    # a budget that is not a multiple of the row length ends chunks inside rows
    monkeypatch.setattr(serialize, "_CSV_CELL_BUDGET", 777)
    rng = np.random.default_rng(dim)
    source = rng.uniform(0.0, 1.0, (60, dim))
    target = rng.uniform(0.5, 2.5, (60, dim))
    payload = {
        "model": {"name": "harmonic"},
        "cost_kind": "closed_form",
        "span": [0.0, 1.0],
        "intervals": 1,
        "source_points": source.tolist(),
        "target_points": target.tolist(),
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["transport", "--config", cfg, "--out", str(out)]) == 0
    assert f"wrote {out / 'cost_matrix.csv'}" in capsys.readouterr().out.splitlines()
    costs = cost_matrix(
        make_model("harmonic"),
        PointCloud(source),
        PointCloud(target),
        TimeGrid.uniform(0.0, 1.0, 1),
        "closed_form",
    )
    expected = serialize.matrix_to_csv(costs).encode("ascii")
    assert (out / "cost_matrix.csv").read_bytes() == expected


def transport_payload(model, params, span, source, target):
    return {
        "model": {"name": model, "params": params},
        "cost_kind": "closed_form",
        "span": [0.0, span],
        "intervals": 1,
        "source_points": list(source),
        "target_points": list(target),
    }


def matrix_path_artifacts(payload, tmp_path):
    """transport_result.json and cost_matrix.csv as the held cost matrix gives
    them: cost_matrix, then the monotone plan of the held matrix or else
    solve_assignment, then write_matrix_csv."""
    model = make_model(payload["model"]["name"], **payload["model"]["params"])
    source = PointCloud(payload["source_points"])
    target = PointCloud(payload["target_points"])
    grid = TimeGrid.uniform(*payload["span"], 1)
    costs = cost_matrix(model, source, target, grid, "closed_form")
    x, y = source.points[:, 0], target.points[:, 0]
    plan = transport._monotone_plan(x, y, transport._held(costs))
    plan = plan or transport.solve_assignment(costs)
    result = {
        "kind": "transport_result",
        "schema_version": 1,
        "size": int(plan.perm.size),
        "perm": [int(v) for v in plan.perm],
        "total_cost": plan.total_cost,
        "average_cost": plan.average_cost,
    }
    serialize.write_matrix_csv(tmp_path / "reference.csv", costs)
    csv = (tmp_path / "reference.csv").read_bytes()
    return serialize.dumps_json(result).encode(), csv


def transport_clouds(N, rng, ties):
    """Shuffled 1-D clouds; with ties, repeated half-integers in [-2, 2],
    -0.0 among them."""
    if not ties:
        return rng.uniform(-1.0, 1.0, N).tolist(), rng.uniform(-0.5, 2.5, N).tolist()
    source, target = (rng.integers(-4, 5, N) * 0.5 for _ in range(2))
    source[source == 0] = -0.0
    return source.tolist(), target.tolist()


@pytest.mark.parametrize("budgets", [(None, None), (7, 1), (777, 131)])
@pytest.mark.parametrize("N", [1, 2, 3, 60])
@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize(
    "model, params, span",
    [
        ("free_particle", {"mass": 2.5}, 0.75),
        ("harmonic", {"mass": 1.0, "stiffness": 1.0}, 1.0),
        # omega T = 2.47: cos < 0 < sin, so the costs are still Monge
        ("harmonic", {"mass": 0.7, "stiffness": 1.9}, 1.5),
    ],
)
def test_cli_transport_of_1d_closed_form_costs_matches_the_matrix_path_bytewise(
    tmp_path, monkeypatch, model, params, span, ties, N, budgets
):
    cells, monge = budgets
    if cells is not None:
        # chunks and Monge blocks that end inside rows and before the last row
        monkeypatch.setattr(serialize, "_CSV_CELL_BUDGET", cells)
        monkeypatch.setattr(transport, "_MONGE_BLOCK_BUDGET", monge)
    rng = np.random.default_rng(N)
    payload = transport_payload(model, params, span, *transport_clouds(N, rng, ties))
    result, csv = matrix_path_artifacts(payload, tmp_path)
    built = []
    monkeypatch.setattr(
        transport, "cost_matrix", lambda *args: built.append(args) or cost_matrix(*args)
    )
    out = tmp_path / "out"
    assert main(["transport", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    assert built == []  # the streamed path held no N x N matrix
    assert (out / "transport_result.json").read_bytes() == result
    assert (out / "cost_matrix.csv").read_bytes() == csv


@pytest.mark.parametrize("N", [2, 3, 60])
def test_cli_transport_that_fails_the_monge_check_solves_the_assignment_once(
    tmp_path, monkeypatch, N
):
    # omega T = 4 is past pi, where sin < 0 turns the 1-D costs anti-Monge
    rng = np.random.default_rng(N)
    source, target = rng.uniform(-1.0, 1.0, N).tolist(), rng.uniform(0.0, 2.0, N).tolist()
    payload = transport_payload("harmonic", {"stiffness": 4.0}, 2.0, source, target)
    result, csv = matrix_path_artifacts(payload, tmp_path)
    checks, solves = [], []
    is_monge, lap = transport._is_monge, transport.linear_sum_assignment
    monkeypatch.setattr(transport, "_is_monge", lambda *a: checks.append(1) or is_monge(*a))
    monkeypatch.setattr(transport, "linear_sum_assignment", lambda M: solves.append(1) or lap(M))
    out = tmp_path / "out"
    assert main(["transport", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    assert (len(checks), len(solves)) == (1, 1)
    assert (out / "transport_result.json").read_bytes() == result
    assert (out / "cost_matrix.csv").read_bytes() == csv


@pytest.mark.parametrize("N", [1, 2, 3, 60])
@pytest.mark.parametrize(
    "params, span, far",
    [
        # the harmonic cost has no value where sin(omega T) = 0
        ({}, math.pi, (0.0, 1.0)),
        ({"stiffness": 4.0}, math.pi / 2, (0.0, 1.0)),
        # a square that overflows, in the last row of the sorted matrix or not
        ({}, 1.0, (1e200, 1.0)),
        ({}, 1.0, (-1e300, 1.0)),
        ({"mass": 3.0}, 0.5, (1e160, 1.0)),
        # |x|^2 + |y|^2 overflows in the last row's first entry alone, and
        # S[-1, 0] = inf passes its one Monge inequality, finite - inf <= 0
        ({}, 1.0, (1e154, -1e154)),
    ],
)
def test_cli_transport_of_1d_closed_form_costs_keeps_the_matrix_path_errors(
    tmp_path, capsys, monkeypatch, params, span, far, N
):
    monkeypatch.setattr(transport, "_MONGE_BLOCK_BUDGET", 1)
    rng = np.random.default_rng(N)
    source, target = rng.uniform(0.0, 1.0, N), rng.uniform(0.5, 2.5, N)
    source[N // 2], target[N // 3] = far
    payload = transport_payload("harmonic", params, span, source.tolist(), target.tolist())
    # main ignores the overflow warnings too, and reports the overflow itself
    with pytest.raises(SolverError) as expected, np.errstate(all="ignore"):
        matrix_path_artifacts(payload, tmp_path)
    out = tmp_path / "out"
    assert main(["transport", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"solver error: {expected.value}\n"
    assert not out.exists()


def test_cli_transport_of_1d_closed_form_costs_holds_no_n_by_n_matrix(tmp_path):
    N = 1024
    rng = np.random.default_rng(0)
    source, target = rng.uniform(0.0, 1.0, N).tolist(), rng.uniform(0.5, 2.5, N).tolist()
    cfg = write_config(tmp_path, transport_payload("harmonic", {}, 1.0, source, target))
    tracemalloc.start()
    try:
        code = main(["transport", "--config", cfg, "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # one N x N float64 matrix takes 8 MiB
    assert peak < N * N * 8


@pytest.mark.parametrize(
    "model, cost_kind, extra, flags, code",
    [
        # span 2 is far past the double well's horizon 0.0699: the guard, not Newton, stops it
        ("double_well", "bvp", {}, [], 2),
        # span 2 is past the harmonic horizon 0.25 but short of the conjugate span pi
        ("harmonic", "bvp", {}, [], 2),
        ("harmonic", "bvp", {}, ["--allow-long-horizon"], 0),
        ("harmonic", "bvp", {"allow_long_horizon": True}, [], 0),
        # closed-form costs do not use the midpoint action, so no horizon applies
        ("harmonic", "closed_form", {}, [], 0),
    ],
)
def test_cli_transport_checks_the_horizon_for_bvp_costs(
    tmp_path, capsys, model, cost_kind, extra, flags, code
):
    payload = {
        "model": {"name": model},
        "source_points": [[0.0, 0.5], [1.0, -0.5]],
        "target_points": [[0.5, 0.0], [-0.5, 1.0]],
        "span": [0.0, 2.0],
        "intervals": 16,
        "cost_kind": cost_kind,
        **extra,
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["transport", "--config", cfg, "--out", str(out), *flags]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("solver error:") and "admissible horizon" in err
    else:
        assert (out / "transport_result.json").exists()


# -- converge ---------------------------------------------------------------------------


def converge_config(tmp_path, span=(0.0, 1.0), model=None, seed=11):
    return write_config(
        tmp_path,
        {
            "model": model or {"name": "free_particle"},
            "marginal_a": {
                "kind": "uniform_box",
                "low": 0.0,
                "high": 1.0,
                "sampler": "iid",
            },
            "marginal_b": {
                "kind": "uniform_box",
                "low": 2.0,
                "high": 3.0,
                "sampler": "iid",
            },
            "span": list(span),
            "Ns": [4, 8],
            "hs": [0.25, 0.125],
            "seed": seed,
            "reference_action": 2.0,
        },
    )


def test_cli_converge_writes_artifacts(tmp_path):
    cfg = converge_config(tmp_path)
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
    payload = load_and_validate(
        out / "convergence_summary.json", "convergence_report.schema.json"
    )
    assert payload["all_ok"] is True
    lines = csv_lines(out / "convergence.csv")
    assert lines[0].startswith("N,h,min_action,")
    assert len(lines) == 3


def test_cli_converge_byte_identical_across_runs(tmp_path):
    cfg = converge_config(tmp_path)
    outs = []
    for name in ("a", "b", "c"):
        out = tmp_path / name
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
        outs.append((out / "convergence.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize(
    "field, value",
    [
        ("span", [1, 0]),
        ("hs", [0.25, 0]),
        ("hs", [0.25, -0.1]),
        ("Ns", [4, "a"]),
        ("Ns", [4, 0]),
        ("reference_action", "abc"),
        ("allow_long_horizon", "false"),
    ],
)
def test_cli_converge_malformed_field_is_a_config_error(tmp_path, capsys, field, value):
    path = FsPath(converge_config(tmp_path))
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload[field] = value
    cfg = write_config(tmp_path, payload, "bad.json")
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


def test_cli_converge_horizon_violation_exits_three(tmp_path, capsys):
    cfg = converge_config(
        tmp_path, span=(0.0, 0.2), model={"name": "harmonic", "params": {"stiffness": 2.0}}
    )
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 3
    lines = csv_lines(out / "convergence.csv")
    assert all("error" in line for line in lines[1:])


def test_cli_converge_gaussian_grid_in_two_dimensions_is_a_config_error(tmp_path, capsys):
    payload = json.loads(FsPath(converge_config(tmp_path)).read_text())
    payload["marginal_a"] = {"kind": "gaussian", "mean": [0, 0], "radius": 1, "sampler": "grid"}
    payload["marginal_b"] = {
        "kind": "uniform_box", "low": [2, 2], "high": [3, 3], "sampler": "grid"
    }
    payload.update(Ns=[4], hs=[0.5])
    cfg = write_config(tmp_path, payload, "grid2d.json")
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "config error: invalid marginal 'marginal_a': "
        "gaussian grid sampling is only supported in dimension 1\n"
    )


def test_cli_converge_iid_requires_seed(tmp_path):
    payload = json.loads(FsPath(converge_config(tmp_path)).read_text())
    del payload["seed"]
    cfg = write_config(tmp_path, payload, "noseed.json")
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


# -- config validation ---------------------------------------------------------------------

# trimmed copies of the configs the tests above run successfully
VALID_CONFIGS = {
    "bvp": {
        "model": {"name": "free_particle"},
        "x": 0.0,
        "y": 1.0,
        "span": [0.0, 1.0],
        "intervals": 4,
    },
    "flow": {
        "model": {"name": "free_particle"},
        "x": 0.0,
        "v": 1.0,
        "span": [0.0, 1.0],
        "h": 0.25,
    },
    "transport": {
        "model": {"name": "free_particle"},
        "source_points": [[0.0], [1.0]],
        "target_points": [[0.0], [1.0]],
        "span": [0.0, 1.0],
        "intervals": 4,
        "cost_kind": "closed_form",
    },
    "stationary": {
        "model": {"name": "free_particle"},
        "span": [0.0, 1.0],
        "lines": [{"x": 0.0, "y": 1.0}],
        "hs": [0.25],
    },
    # one particle count at both levels, so that custom points can match it
    "converge": {
        "model": {"name": "free_particle"},
        "marginal_a": {"kind": "uniform_box", "low": 0.0, "high": 1.0, "sampler": "iid"},
        "marginal_b": {"kind": "uniform_box", "low": 2.0, "high": 3.0, "sampler": "iid"},
        "span": [0.0, 1.0],
        "Ns": [4, 4],
        "hs": [0.25, 0.125],
        "seed": 11,
        "reference_action": 2.0,
    },
}


def valid_config(command: str) -> dict:
    return copy.deepcopy(VALID_CONFIGS[command])


@pytest.mark.parametrize(
    "command, field, value",
    [
        ("bvp", "restarts", "x"),
        ("bvp", "restarts", 1.5),
        ("bvp", "restarts", -1),
        ("bvp", "x", [0.0, 1.0]),
        ("bvp", "y", "NaN"),
        ("flow", "v", [1.0, 0.0]),
        ("transport", "cost_kind", "nope"),
        ("transport", "model", {"name": "double_well"}),
        ("transport", "source_points", []),
        ("transport", "target_points", [[0.0]]),
        ("converge", "seed", "abc"),
        ("converge", "cost_kind", "nope"),
        ("stationary", "lines", []),
        ("transport", "costs_csv", "0,nan\n1,0\n"),
        ("transport", "costs_csv", "1,2\n"),
        ("converge", "marginal_a", {"kind": "custom_points", "points": [0.5]}),
        ("bvp", "intervals", 2.5),
        ("stationary", "paths_csv", None),
        ("bvp", "intervals", 1e12),
        ("bvp", "h", 1e-12),
        ("bvp", "h", True),
        ("flow", "h", 1e-12),
        ("flow", "h", True),
        ("transport", "intervals", 1e12),
        ("transport", "h", 1e-12),
        ("transport", "allow_long_horizon", "false"),
        ("converge", "hs", [0.25, 1e-13]),
        ("stationary", "hs", [1e-13]),
        ("bvp", "span", [-1e308, 1e308]),
        ("converge", "span", [-1e308, 1e308]),
        ("bvp", "span", [-1e308, 1.0]),
        ("bvp", "model", {"name": ["free_particle"]}),
        (
            "converge",
            "marginal_a",
            {
                "kind": "uniform_box",
                "low": [[0, 0], [0, 0]],
                "high": [[1, 1], [1, 1]],
                "sampler": "iid",
            },
        ),
        (
            "converge",
            "marginal_a",
            {"kind": "custom_points", "points": [[[0.1]], [[0.2]], [[0.3]], [[0.4]]]},
        ),
        (
            "converge",
            "marginal_a",
            {"kind": "custom_points", "points": [[0.1], [0.2], [0.3], [math.nan]]},
        ),
        (
            "converge",
            "marginal_a",
            {"kind": "gaussian", "mean": 0.0, "cov": [[-1.0]], "radius": 1.0, "sampler": "iid"},
        ),
        ("converge", "Ns", [1_000_000, 4]),
        (
            "converge",
            "marginal_b",
            {"kind": "uniform_box", "low": [2.0, 2.0], "high": [3.0, 3.0], "sampler": "iid"},
        ),
        ("bvp", "model", {"name": "harmonic", "stiffness": 4}),
        ("bvp", "model", {"name": "harmonic", "params": {"stiffness": True}}),
        ("bvp", "model", {"name": "cosine", "params": {"dim": True}}),
        ("bvp", "model", {"name": "cosine", "params": {"dim": 1.5}}),
        # the width high - low overflows
        (
            "converge",
            "marginal_a",
            {"kind": "uniform_box", "low": -1e308, "high": 1e308, "sampler": "iid"},
        ),
        ("stationary", "lines", [{"x": [], "y": []}]),
        # JSON booleans are not numbers, though Python and NumPy read them as 1 and 0
        ("converge", "marginal_a", {"kind": "uniform_box", "low": False, "high": True}),
        (
            "converge",
            "marginal_a",
            {"kind": "gaussian", "mean": True, "cov": True, "radius": True, "sampler": "iid"},
        ),
        ("converge", "marginal_b", {"kind": "gaussian", "mean": 0.0, "radius": True}),
        (
            "converge",
            "marginal_a",
            {"kind": "custom_points", "points": [[0.1], [0.2], [0.3], [True]]},
        ),
        ("converge", "span", [False, 1.0]),
        ("transport", "source_points", [True, False]),
        ("transport", "target_points", [[False], [1.0]]),
        ("bvp", "x", True),
        ("flow", "v", [True]),
        ("stationary", "lines", [{"x": 0.0, "y": True}]),
    ],
)
def test_cli_malformed_config_is_a_config_error(tmp_path, capsys, command, field, value):
    payload = valid_config(command)
    if field == "costs_csv":  # the value is the content of the file it names
        costs = tmp_path / "costs.csv"
        costs.write_text(value, encoding="utf-8")
        value = str(costs)
    payload[field] = value
    cfg = write_config(tmp_path, payload, "bad.json")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cost_kind", ["bvp", "closed_form"])
def test_cli_transport_points_of_dimension_zero_are_a_config_error(
    tmp_path, capsys, cost_kind
):
    payload = {
        **valid_config("transport"),
        "source_points": [[]],
        "target_points": [[]],
        "cost_kind": cost_kind,
    }
    cfg = write_config(tmp_path, payload, "empty.json")
    assert main(["transport", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "config error: invalid 'source_points': points need at least one coordinate\n"
    )


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once it has run for the given seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "marginal, reason",
    [
        # the truncation ball holds about 1e-9 of the mass: rejection gives up
        (
            {"kind": "gaussian", "mean": 0.0, "cov": 1.0, "radius": 1e-9, "sampler": "iid"},
            "truncation radius",
        ),
        # squared distances near 1e308 overflow the closed-form cost
        (
            {"kind": "uniform_box", "low": -1e308, "high": 1.0, "sampler": "iid"},
            "overflow",
        ),
    ],
)
def test_cli_converge_unusable_marginal_gives_error_rows(tmp_path, capsys, marginal, reason):
    payload = valid_config("converge")
    payload["marginal_a"] = marginal
    cfg = write_config(tmp_path, payload, "unusable.json")
    out = tmp_path / "out"
    with time_limit(10.0):
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    rows = csv_lines(out / "convergence.csv")[1:]
    assert len(rows) == 2
    assert all(",error," in row and reason in row for row in rows)


# endpoints near 1e308 or 1e200 overflow the midpoint action: a solver failure
NON_FINITE_ACTION = "the midpoint action is not finite"


def test_cli_bvp_non_finite_action_is_a_solver_failure(tmp_path, capsys):
    payload = {**valid_config("bvp"), "x": 1e308}
    cfg = write_config(tmp_path, payload, "overflow.json")
    out = tmp_path / "out"
    assert main(["bvp", "--config", cfg, "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    result = json.loads((out / "bvp_result.json").read_text())
    assert result["converged"] is False
    assert result["message"] == NON_FINITE_ACTION


def test_cli_transport_non_finite_bvp_cost_is_a_solver_failure(tmp_path, capsys):
    payload = {
        **valid_config("transport"),
        "model": {"name": "cosine"},
        "source_points": [1e200, 0.0],
        "target_points": [0.0, 1.0],
        "cost_kind": "bvp",
    }
    cfg = write_config(tmp_path, payload, "overflow.json")
    assert main(["transport", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver error:") and "pair (0, 0)" in err
    assert NON_FINITE_ACTION in err and "Traceback" not in err


def test_cli_converge_non_finite_bvp_cost_gives_an_error_row(tmp_path, capsys):
    payload = {
        **valid_config("converge"),
        "model": {"name": "cosine"},
        "marginal_a": {"kind": "uniform_box", "low": 1e200, "high": 2e200, "sampler": "iid"},
        "cost_kind": "bvp",
        "Ns": [2],
        "hs": [0.25],
    }
    cfg = write_config(tmp_path, payload, "overflow.json")
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    rows = csv_lines(out / "convergence.csv")[1:]
    assert len(rows) == 1 and ",error," in rows[0] and NON_FINITE_ACTION in rows[0]


def run_cli_process(tmp_path, command, payload, out=True, env=None):
    """Run one CLI command in a fresh interpreter, where a traceback would show.

    With ``out`` the outputs go to ``--out tmp_path/command``; ``env`` adds
    environment variables.
    """
    cfg = write_config(tmp_path, payload, f"{command}.json")
    return subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from otmesh.cli import main; sys.exit(main(sys.argv[1:]))",
            command,
            "--config",
            cfg,
            *(["--out", str(tmp_path / command)] if out else []),
        ],
        env={**os.environ, "PYTHONPATH": str(SRC_DIR), **(env or {})},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("where", ["config_number", "config_file", "env_file"])
def test_cli_bad_output_directory_is_a_config_error(tmp_path, where):
    # a non-string 'out', or one naming an existing file, in the config or in OTMESH_OUT
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    payload, env = valid_config("bvp"), {"OTMESH_OUT": ""}
    if where == "config_number":
        payload["out"] = 5
    elif where == "config_file":
        payload["out"] = str(taken)
    else:
        env["OTMESH_OUT"] = str(taken)
    proc = run_cli_process(tmp_path, "bvp", payload, out=False, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error:") and "output directory" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("out", [5, "taken"])
def test_cli_bad_output_directory_fails_before_the_study(
    tmp_path, capsys, monkeypatch, out
):
    def study(*args, **kwargs):
        raise AssertionError("the study ran before the output directory was checked")

    monkeypatch.setattr("otmesh.cli.run_convergence_study", study)
    monkeypatch.delenv("OTMESH_OUT", raising=False)
    if out == "taken":
        out = str(tmp_path / "taken")
        FsPath(out).write_text("", encoding="utf-8")
    payload = json.loads(FsPath(converge_config(tmp_path)).read_text(encoding="utf-8"))
    cfg = write_config(tmp_path, {**payload, "out": out}, "bad_out.json")
    assert main(["converge", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "output directory" in err


def test_cli_overflow_reaches_stderr_as_the_solver_error_alone(tmp_path):
    # a fresh interpreter shows numpy's RuntimeWarnings, which pytest would capture
    payload = {
        **valid_config("transport"),
        "model": {"name": "cosine"},
        "source_points": [1e200, 0.0],
        "target_points": [0.0, 1.0],
        "cost_kind": "bvp",
    }
    proc = run_cli_process(tmp_path, "transport", payload)
    assert proc.returncode == 2
    assert proc.stderr.startswith("solver error:")
    assert "RuntimeWarning" not in proc.stderr


def test_cli_transport_closed_form_cost_over_a_conjugate_span_is_a_solver_error(tmp_path):
    # the harmonic closed-form cost has no value where sin(omega T) = 0
    payload = {**valid_config("transport"), "model": {"name": "harmonic"}, "span": [0.0, math.pi]}
    proc = run_cli_process(tmp_path, "transport", payload)
    assert proc.returncode == 2
    assert proc.stderr.startswith("solver error:") and "is conjugate" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_converge_closed_form_cost_over_a_conjugate_span_gives_error_rows(tmp_path):
    payload = {
        **valid_config("converge"),
        "model": {"name": "harmonic"},
        "span": [0.0, math.pi],
        "hs": [0.5, 0.25],
        "allow_long_horizon": True,
    }
    proc = run_cli_process(tmp_path, "converge", payload)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    rows = csv_lines(tmp_path / "converge" / "convergence.csv")[1:]
    assert len(rows) == 2 and all(",error," in row and "is conjugate" in row for row in rows)


def test_importing_the_cli_leaves_scipy_stats_unimported():
    # only the gaussian quantile and grid samplers need scipy.stats, and import
    # it themselves; dgbsv and linear_sum_assignment come from their extension
    # modules alone, found without running scipy's own __init__; the "%.17g"
    # kernel builds its tables on first use
    script = (
        "import sys, otmesh.cli, otmesh._csvformat; "
        "print([m in sys.modules for m in "
        "('scipy', 'scipy.stats', 'scipy.linalg', 'scipy.optimize')], "
        "otmesh._csvformat._csv_tables.cache_info().currsize)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0 and proc.stdout == "[False, False, False, False] 0\n"


def test_cli_runs_import_no_numpy_or_scipy_module(tmp_path):
    # numpy 2 imports numpy.random and numpy.ma on first use, and argparse's
    # gettext imports locale; a study must not pay for that (or for any other
    # module import) inside main
    configs = {
        "converge": {
            **valid_config("converge"),
            "model": {"name": "cosine"},
            "marginal_a": {"kind": "uniform_box", "low": [0.0, 0.0], "high": [0.5, 0.5]},
            "marginal_b": {"kind": "uniform_box", "low": [0.5, 0.5], "high": [1.0, 1.0]},
            "span": [0.0, 0.5],
            "Ns": [3, 3],
            "hs": [0.125, 0.0625],
        },
        "transport": valid_config("transport"),
        "bvp": valid_config("bvp"),
        "stationary": valid_config("stationary"),
    }
    for spec in ("marginal_a", "marginal_b"):
        configs["converge"][spec]["sampler"] = "iid"
    runs = [
        [command, "--config", write_config(tmp_path, cfg, f"{command}.json"),
         "--out", str(tmp_path / command)]
        for command, cfg in configs.items()
    ]
    script = (
        "import json, sys; from otmesh.cli import main; before = set(sys.modules); "
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
        "new = set(sys.modules) - before; "
        "print(codes, sorted(new))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs)],
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] []"
    # the converge run went through the assignment solve and the banded LU
    rows = csv_lines(tmp_path / "converge" / "convergence.csv")
    assert len(rows) == 3 and all(",ok," in row for row in rows[1:])


# values the fuzz test puts in place of one config field: a wrong JSON type,
# null, negative, zero, huge, an empty list and a nested object
MALFORMED_VALUES = ["x", True, None, -1, -1e308, 0, 1e308, [], {"a": {"b": 1}}]
DELETE = object()


def field_paths(config: dict, prefix: tuple = ()):
    """Key paths of every field of a config, nested objects included."""
    for key, value in config.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from field_paths(value, prefix + (key,))


@st.composite
def mutated_configs(draw):
    """A valid config of one subcommand with one field replaced or deleted."""
    command = draw(st.sampled_from(sorted(VALID_CONFIGS)))
    config = valid_config(command)
    path = draw(st.sampled_from(list(field_paths(config))))
    value = draw(st.sampled_from(MALFORMED_VALUES + [DELETE]))
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return command, config


@settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=mutated_configs())
def test_cli_fuzzed_config_returns_an_exit_code(tmp_path, case):
    command, config = case
    cfg = write_config(tmp_path, config, "fuzzed.json")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) in (0, 1, 2, 3)


# -- stationary ----------------------------------------------------------------------------


def test_cli_stationary_free_lines(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": {"name": "free_particle"},
            "span": [0.0, 1.0],
            "lines": [{"x": 0.0, "y": 1.0}, {"x": 1.0, "y": 0.0}],
            "hs": [0.2, 0.1],
        },
    )
    out = tmp_path / "out"
    assert main(["stationary", "--config", cfg, "--out", str(out)]) == 0
    payload = load_and_validate(
        out / "stationarity_summary.json", "stationarity_report.schema.json"
    )
    assert payload["all_scaling_ok"] is True
    assert payload["levels"][0]["max_el_residual"] <= 1e-12
    lines = csv_lines(out / "stationarity.csv")
    assert lines[0].startswith("h,max_el_residual,")


def test_cli_stationarity_csv_is_pinned_bytewise(tmp_path):
    # the reconstruction distances come from the RK4 march (double well,
    # mass != 1); the digest was recorded before the march was optimized
    cfg = write_config(
        tmp_path,
        {
            "model": {"name": "double_well", "params": {"mass": 1.3}},
            "span": [0.0, 0.6],
            "lines": [{"x": -0.8, "y": 0.9}, {"x": 0.2, "y": -0.3}, {"x": 1.1, "y": 0.7}],
            "hs": [0.1, 0.05, 0.025],
        },
    )
    out = tmp_path / "out"
    assert main(["stationary", "--config", cfg, "--out", str(out)]) == 0
    assert sha256_of(out / "stationarity.csv") == (
        "be14a9337bacf832dfb118d8c56d95b0171953ddc47ee45fc7289add8e86821d"
    )


def test_cli_stationary_from_paths_csv(tmp_path):
    paths_csv = tmp_path / "paths.csv"
    paths_csv.write_text(
        "path_id,t,x_1\n0,0,1\n0,0.5,0.6\n0,1,0\n1,0,0.5\n1,0.5,0.3\n1,1,-0.2\n",
        encoding="utf-8",
    )
    cfg = write_config(
        tmp_path,
        {"model": {"name": "harmonic"}, "paths_csv": str(paths_csv), "hs": [0.1, 0.05]},
    )
    out = tmp_path / "out"
    assert main(["stationary", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "stationarity_summary.json").read_text())
    assert len(payload["levels"]) == 2


def test_cli_stationary_rejects_a_non_integral_path_id(tmp_path, capsys):
    paths_csv = tmp_path / "paths.csv"
    paths_csv.write_text(
        "path_id,t,x_1\n0,0,1\n0,1,0\n0.5,0,0.5\n0.5,1,-0.2\n", encoding="utf-8"
    )
    cfg = write_config(
        tmp_path, {"model": {"name": "harmonic"}, "paths_csv": str(paths_csv), "hs": [0.1]}
    )
    assert main(["stationary", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "config error: cannot load 'paths_csv': path_id 0.5 is not an integer\n"
    )


# -- output floats round-trip ------------------------------------------------------------


def test_cli_floats_round_trip_exactly(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": {"name": "harmonic"},
            "x": 1.0 / 3.0,
            "y": 2.0 / 7.0,
            "span": [0.0, 0.3],
            "intervals": 100,
        },
    )
    out = tmp_path / "out"
    assert main(["bvp", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "bvp_result.json").read_text())
    # 17 significant digits reproduce the binary doubles bit for bit
    assert payload["x"][0] == 1.0 / 3.0
    assert payload["y"][0] == 2.0 / 7.0
