"""The two compiled SciPy routines otmesh calls, loaded without their packages.

LAPACK ``dgbsv`` (the banded Newton step of the boundary solves) and
``linear_sum_assignment`` (the transport matching and the bounded-Lipschitz
bound) live in the extension modules ``scipy.linalg._flapack`` and
``scipy.optimize._lsap``.  Importing them through ``scipy.linalg`` and
``scipy.optimize`` runs those packages' ``__init__``s, about 0.4 s of imports
(``scipy.fft``, ``scipy.special``, ``scipy.sparse.linalg``, numpy's testing
and f2py modules, ...) that otmesh never uses.  Loading the two extension
files directly gives the same function objects, since CPython keeps one copy
of a single-phase extension module per file.  Where SciPy does not lay its
files out this way, the public names are imported instead.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from pathlib import Path

import scipy


def _extension(name: str):
    """Load SciPy's extension module ``name`` from its file, without its package.

    The module is not registered in ``sys.modules``.  Raises ImportError when
    no file of that name is there.
    """
    *package, leaf = name.split(".")
    folder = Path(scipy.__file__).parent.joinpath(*package[1:])
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / (leaf + suffix)
        if path.is_file():
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no extension module {name} in {folder}")


try:
    dgbsv = _extension("scipy.linalg._flapack").dgbsv
    linear_sum_assignment = _extension("scipy.optimize._lsap").linear_sum_assignment
except ImportError:
    from scipy.linalg.lapack import dgbsv
    from scipy.optimize import linear_sum_assignment
