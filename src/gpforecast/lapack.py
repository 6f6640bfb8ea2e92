"""The compiled LAPACK, BLAS and Levinson routines the package calls, loaded without ``scipy.linalg``'s package init.

``import scipy.linalg`` runs the whole package init, which pulls in
scipy's array-API layer and, through it, ``numpy.f2py``, ``numpy.testing``
and ``numpy.ma``: most of a cold start.  The package calls five compiled
routines from there, so this module loads the three extension modules
that hold them, ``scipy.linalg._flapack`` (``dpotrf``, ``dpotrs``,
``dtrtrs``), ``scipy.linalg._fblas`` (``dger``) and
``scipy.linalg._solve_toeplitz`` (``levinson``), from scipy's ``linalg``
directory under their full names.  A module already in ``sys.modules``
is reused, and one loaded here is registered there, so a later
``import scipy.linalg`` shares the same module objects.  A module that is
missing raises ImportError naming it; there is no other path.

``_solve_toeplitz`` is Cython, and its init imports Cython's shared
``scipy._cyutility`` by that dotted name, which imports the top package
``scipy`` first and so ran scipy's own package init.  So the loader also
loads ``scipy._cyutility`` from scipy's directory and, when ``scipy`` is
not imported yet, registers scipy's package object, created from its
spec but not executed, under ``"scipy"`` for that one module's load
only.  A thread that imports scipy for the first time during that load
could see the unexecuted package.  The real package, which a later
``import scipy`` makes, finds ``scipy._cyutility`` in ``sys.modules``
but has no attribute of that name.  Both are accepted: a program that
starts threads which import scipy imports this package first.

:func:`cholesky`, :func:`cho_solve` and :func:`solve_triangular` have
the one call form the package uses: a lower factor, which ``cholesky``
computes in place.  They pass the routines the arguments scipy's
functions of those names pass for Fortran-ordered float64 input with
``lower=True`` and ``overwrite_a=True``, so their results are scipy's
bit for bit, and keep scipy's ``info`` checks: a factorization or solve
that fails on the matrix raises :class:`numpy.linalg.LinAlgError`, the
class ``scipy.linalg`` re-exports, and an illegal argument ValueError.
They do not check finiteness (scipy's ``check_finite=False``).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType

import numpy as np
from numpy.linalg import LinAlgError

__all__ = ["LinAlgError", "cholesky", "cho_solve", "solve_triangular", "dger", "levinson"]


def _load(finder: importlib.machinery.FileFinder, fullname: str) -> ModuleType:
    module = sys.modules.get(fullname)
    if module is not None:
        return module
    spec = finder.find_spec(fullname)
    if spec is None:
        raise ImportError(f"no compiled module {fullname} in {finder.path}", name=fullname)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[fullname]
        raise
    return module


def _extensions(path: str) -> importlib.machinery.FileFinder:
    return importlib.machinery.FileFinder(
        path, (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    )


def _load_all() -> tuple[ModuleType, ModuleType, ModuleType]:
    scipy = importlib.util.find_spec("scipy")  # locates the package without running its init
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("scipy is not installed", name="scipy")
    top = _extensions(scipy.submodule_search_locations[0])
    linalg = _extensions(os.path.join(top.path, "linalg"))
    flapack, fblas = _load(linalg, "scipy.linalg._flapack"), _load(linalg, "scipy.linalg._fblas")
    package = None
    if "scipy" not in sys.modules and top.find_spec("scipy._cyutility") is not None:
        package = importlib.util.module_from_spec(scipy)  # scipy's package object, its init not run
        package._cyutility = _load(top, "scipy._cyutility")
        sys.modules["scipy"] = package
    try:
        return flapack, fblas, _load(linalg, "scipy.linalg._solve_toeplitz")
    finally:
        if package is not None:
            del sys.modules["scipy"]


_flapack, _fblas, _solve_toeplitz = _load_all()
dger = _fblas.dger
levinson = _solve_toeplitz.levinson  # private to scipy: tests/test_gp.py guards its convention


def cholesky(a: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of a, its upper triangle zeroed, computed in place when a is Fortran-ordered."""
    c, info = _flapack.dpotrf(a, lower=True, overwrite_a=True, clean=True)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f'LAPACK reported an illegal value in {-info}-th argument on entry to "POTRF".')
    return c


def cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^-1 b from A's lower Cholesky factor c, as :func:`cholesky` returns it."""
    x, info = _flapack.dpotrs(c, b, lower=True, overwrite_b=False)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def solve_triangular(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b for a lower-triangular, Fortran-ordered a such as :func:`cholesky` returns (scipy transposes a C one)."""
    x, info = _flapack.dtrtrs(a, b, overwrite_b=False, lower=True, trans=0, unitdiag=False)
    if info > 0:
        raise LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x
