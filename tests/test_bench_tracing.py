"""The layer tracer of ``bench/`` must find every name it wraps in otmesh."""

import ast
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    wraps = load_tracing(monkeypatch).layer_wraps()
    assert wraps
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in wraps
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_tracer_install_and_remove_restore_every_name(monkeypatch):
    tracing = load_tracing(monkeypatch)
    before = {(module, attr): getattr(module, attr) for module, attr, _, _ in tracing.layer_wraps()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(module, attr) is not fn for (module, attr), fn in before.items())
    finally:
        tracer.remove()
    assert all(getattr(module, attr) is fn for (module, attr), fn in before.items())


def test_every_tracer_only_import_is_a_name_the_tracer_wraps(monkeypatch):
    # a "noqa: F401" import is kept only so that the tracer can wrap the name
    # in that module; cli's locale pre-imports a module argparse needs
    wrapped = {
        (module.__name__.rsplit(".", 1)[-1], attr)
        for module, attr, _, _ in load_tracing(monkeypatch).layer_wraps()
    }
    unused = set()
    for path in (BENCH.parent / "src" / "otmesh").glob("*.py"):
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                unused |= {(path.stem, alias.asname or alias.name) for alias in node.names}
    assert unused - wrapped == {("cli", "locale")}
