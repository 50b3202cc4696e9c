"""The two compiled routines otmesh calls, loaded without SciPy's packages.

LAPACK ``dgbsv`` is the banded Newton step of the boundary solves.  numpy's
wheels link an ILP64 OpenBLAS built for SciPy, whose LAPACK symbols carry a
``scipy_`` prefix and a ``64_`` suffix, and numpy has loaded it before otmesh
runs.  ``dlsym`` on the handle of numpy's ``_multiarray_umath`` searches the
libraries that extension links, so ``scipy_dgbsv_64_`` is found by name, with
no path, and no second OpenBLAS is mapped: the route through
``scipy.linalg._flapack`` maps SciPy's own 32-bit ``libscipy_openblas``, about
2.7 MB of peak RSS in every process.  :func:`dgbsv` calls that symbol with
the contract of ``scipy.linalg.lapack.dgbsv`` (Anderson et al., LAPACK Users'
Guide, SIAM 1999).  Where numpy exports no such symbol, ``dgbsv`` is SciPy's,
loaded as below; a plain ``dgbsv_`` is never bound, since its integer width
cannot be told from its name.

``linear_sum_assignment`` (the transport matching and the bounded-Lipschitz
bound) lives in the extension module ``scipy.optimize._lsap``.  Importing it
through ``scipy.optimize`` runs that package's ``__init__``, about 0.4 s of
imports (``scipy.fft``, ``scipy.special``, ``scipy.sparse.linalg``, numpy's
testing and f2py modules, ...) that otmesh never uses.  Loading the extension
file directly gives the same function object, since CPython keeps one copy
of a single-phase extension module per file.  SciPy's directory is found
with ``importlib.util.find_spec``, so not even ``scipy/__init__`` runs (it
imports ``scipy._lib``, ``subprocess``, ``sysconfig`` and ``locale``).  Where
SciPy does not lay its files out this way, the public names are imported
instead.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
from pathlib import Path

import numpy as np

# n, kl, ku, nrhs, ldab, ldb and info of one dgbsv call, as 64-bit integers
_Scalars = ctypes.c_int64 * 7


def _extension(name: str):
    """Load SciPy's extension module ``name`` from its file, without its package.

    The module is not registered in ``sys.modules``.  Raises ImportError when
    no file of that name is there.
    """
    *package, leaf = name.split(".")
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        raise ImportError("scipy is not installed")
    folder = Path(spec.origin).parent.joinpath(*package[1:])
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / (leaf + suffix)
        if path.is_file():
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no extension module {name} in {folder}")


def _openblas_dgbsv():
    """``dgbsv`` of the ILP64 OpenBLAS that numpy links, found by symbol.

    Raises AttributeError where numpy's libraries export no
    ``scipy_dgbsv_64_`` (or numpy has no ``_core``), and OSError where the
    extension cannot be opened.
    """
    lapack = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_dgbsv_64_
    lapack.argtypes = [ctypes.c_void_p] * 10
    lapack.restype = None
    # the address of a C-contiguous writable array, cheaper than its .ctypes;
    # the transpose of a Fortran-ordered array is C-contiguous
    address, buffer = ctypes.addressof, ctypes.c_char.from_buffer

    def dgbsv(kl, ku, ab, b, overwrite_ab=False):
        """Solve A x = b for the band matrix A held in ``ab``, by LAPACK ``dgbsv``.

        The contract of ``scipy.linalg.lapack.dgbsv``: ``ab`` (2 kl + ku + 1, n)
        holds A's ``kl`` sub- and ``ku`` superdiagonals in its rows ``kl`` ..
        ``2 kl + ku``, ``b`` is (n,) or (n, nrhs) and is copied.  Returns
        ``(lub, piv, x, info)``: the LU factors in band storage, the 0-based
        pivot rows (int64), the solution and ``info`` as an int.  With
        ``overwrite_ab`` a Fortran-ordered float64 ``ab`` is factored in place
        (it must then be writable); any other ``ab`` is factored in a copy.
        """
        if overwrite_ab:
            lub = np.asarray(ab, np.float64, order="F")
        else:
            lub = np.array(ab, np.float64, order="F")
        x = np.array(b, np.float64, order="F")
        if (
            lub.ndim != 2
            or x.ndim not in (1, 2)
            or kl < 0
            or ku < 0
            or lub.shape[0] != 2 * kl + ku + 1
            or not 0 < x.shape[0] == lub.shape[1]
        ):
            raise ValueError(
                f"dgbsv: a band {lub.shape} and right-hand side {x.shape} "
                f"do not fit kl = {kl}, ku = {ku}"
            )
        n = x.shape[0]
        piv = np.empty(n, np.int64)
        scalars = _Scalars(n, kl, ku, x.size // n, lub.shape[0], n)
        at = address(scalars)
        lapack(
            at,
            at + 8,
            at + 16,
            at + 24,
            address(buffer(lub.T)),
            at + 32,
            address(buffer(piv)),
            address(buffer(x.T)) if x.size else 0,
            at + 40,
            at + 48,
        )
        piv -= 1
        return lub, piv, x, scalars[6]

    return dgbsv


try:
    linear_sum_assignment = _extension("scipy.optimize._lsap").linear_sum_assignment
except ImportError:
    from scipy.optimize import linear_sum_assignment

try:
    dgbsv = _openblas_dgbsv()
except (AttributeError, OSError):  # a numpy built without scipy-openblas
    try:
        dgbsv = _extension("scipy.linalg._flapack").dgbsv
    except ImportError:
        from scipy.linalg.lapack import dgbsv
