import importlib
from pathlib import Path

import pytest

import otmesh
from otmesh.cli import main

PACKAGE_DIR = Path(otmesh.__file__).resolve().parent
PYPROJECT = PACKAGE_DIR.parents[1] / "pyproject.toml"


def test_exports_resolve_and_are_sorted_without_duplicates():
    assert [name for name in otmesh.__all__ if not hasattr(otmesh, name)] == []
    assert otmesh.__all__ == sorted(set(otmesh.__all__))


def test_packaging_metadata_names_the_entry_point_and_every_schema():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    module, _, attr = meta["project"]["scripts"]["otmesh"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main
    globs = meta["tool"]["setuptools"]["package-data"]["otmesh"]
    shipped = {path for glob in globs for path in PACKAGE_DIR.glob(glob)}
    schemas = set(PACKAGE_DIR.glob("schemas/*.schema.json"))
    assert len(schemas) == 5 and schemas <= shipped
