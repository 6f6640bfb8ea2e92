"""gpforecast.lapack: scipy's compiled routines, loaded without scipy.linalg's package init.

Its wrappers must give scipy's public functions' results bit for bit on
the matrices the package factorizes, keep their errors, and share module
objects with scipy.linalg whichever is imported first.
"""

import importlib.machinery
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from gpforecast import default_priors, default_spec, fit, gp, lapack, median_hyperparams
from gpforecast.gp import JITTER_START, TimeSeries, prepare_series
from gpforecast.kernels import Differences, build_gram, grad_gram

SRC = str(Path(lapack.__file__).resolve().parent.parent)
# (mode, steps per year, n, h): the monthly workload's shortest and longest series, the six-hourly's longest
SIZES = [("single-seasonal", 12.0, 48, 18), ("single-seasonal", 12.0, 132, 18), ("double-seasonal", 1461.0, 336, 42)]


def run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports the package from this tree; its stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout


def package_system(mode, steps_per_year, n, h):
    """The jittered Gram the package factorizes (Fortran-ordered) and the right-hand sides it solves for.

    Those are y (n), the fallback's [y, e_0, v] (n x 3, Fortran-ordered)
    and the transposed cross-covariance (n x h), at the prior medians.
    """
    spec = default_spec(mode)
    theta = median_hyperparams(spec, default_priors())
    y = np.random.default_rng(n).standard_normal(n)
    series = prepare_series(spec, TimeSeries(y, steps_per_year))
    column = grad_gram(spec, theta.values, Differences.of(spec, series.x))[-1]
    v = math.sqrt(theta.s2_lin) * series.x
    gram = build_gram(column, v)
    np.fill_diagonal(gram, np.diag(gram) + JITTER_START * float(np.mean(np.diag(gram))))
    three = np.zeros((n, 3), order="F")
    three[:, 0], three[0, 1], three[:, 2] = y, 1.0, v
    return gram, (y, three, fit(theta, series, h).cross.T)


@pytest.mark.parametrize(("mode", "steps_per_year", "n", "h"), SIZES, ids=[f"n{n}" for *_, n, _ in SIZES])
def test_the_wrappers_give_scipys_results_bit_for_bit(mode, steps_per_year, n, h):
    gram, rhs = package_system(mode, steps_per_year, n, h)
    assert gram.flags.f_contiguous
    ours, theirs = gram.copy(order="F"), gram.copy(order="F")
    lower = lapack.cholesky(ours)
    expected = scipy.linalg.cholesky(theirs, lower=True, overwrite_a=True, check_finite=False)
    assert np.shares_memory(lower, ours)  # factorized in place
    assert lower.tobytes() == expected.tobytes()
    for b in rhs:
        solved = lapack.cho_solve(lower, b)
        assert solved.shape == b.shape
        assert solved.tobytes() == scipy.linalg.cho_solve((lower, True), b, check_finite=False).tobytes()
        triangular = lapack.solve_triangular(lower, b)
        assert triangular.tobytes() == scipy.linalg.solve_triangular(lower, b, lower=True, check_finite=False).tobytes()
    x = np.arange(n, dtype=float) / n
    outer = lapack.dger(1.0, x, x, a=gram.copy(order="F"), overwrite_a=1)
    assert outer.tobytes() == scipy.linalg.blas.dger(1.0, x, x, a=gram.copy(order="F"), overwrite_a=1).tobytes()


def test_a_matrix_that_is_not_positive_definite_raises_linalg_error():
    assert lapack.LinAlgError is np.linalg.LinAlgError is scipy.linalg.LinAlgError
    with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor"):
        lapack.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]], order="F"))
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        lapack.solve_triangular(np.array([[1.0, 0.0], [1.0, 0.0]], order="F"), np.ones(2))


def test_the_jitter_still_escalates_past_a_failed_factorization():
    # ones(n) - 3e-6 I has eigenvalue -3e-6 (n - 1 times): the jitter levels
    # 1e-8, 1e-7 and 1e-6 of the mean diagonal fail, and 1e-5 factorizes it
    n = 20
    column = np.ones(n)
    column[0] -= 3e-6
    rhs = np.random.default_rng(20).standard_normal(n)
    lower, jitter, solved = gp._cholesky_solve(column, np.zeros(n), rhs)
    assert jitter == 1e-5 * column[0]
    matrix = np.ones((n, n)) + (jitter - 3e-6) * np.eye(n)
    np.testing.assert_allclose(lower @ lower.T, matrix, rtol=0, atol=1e-12)
    np.testing.assert_allclose(matrix @ solved, rhs, rtol=0, atol=1e-8)


def test_a_missing_compiled_module_raises_import_error_naming_it(tmp_path):
    finder = importlib.machinery.FileFinder(
        str(tmp_path), (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    )
    with pytest.raises(ImportError, match=r"scipy\.linalg\._absent") as raised:
        lapack._load(finder, "scipy.linalg._absent")
    assert raised.value.name == "scipy.linalg._absent"
    assert "scipy.linalg._absent" not in sys.modules


SHARED = (
    "import scipy.linalg._solve_toeplitz as toeplitz\n"
    "assert lapack.dger is scipy.linalg.blas.dger\n"
    "assert lapack.levinson is toeplitz.levinson\n"
    "print('shared')\n"
    # Cython-backed scipy functions, which share the Cython utility module the package may have loaded
    "import numpy as np, scipy.optimize, scipy.signal, scipy.special, scipy.stats\n"
    "assert np.allclose(scipy.linalg.solve_toeplitz([4.0, 1.0], [1.0, 2.0]), [2.0 / 15.0, 7.0 / 15.0])\n"
    "assert np.allclose(scipy.linalg.lu_factor(np.array([[2.0, 1.0], [4.0, 3.0]]))[0], [[4.0, 3.0], [0.5, -0.5]])\n"
    "assert scipy.special.gamma(5.0) == 24.0\n"
    "assert abs(scipy.optimize.minimize_scalar(lambda x: (x - 2.0) ** 2).x - 2.0) < 1e-6\n"
    "assert abs(scipy.stats.kendalltau([1, 2, 3, 4], [1, 3, 2, 4]).statistic - 2.0 / 3.0) < 1e-12\n"
    "assert np.allclose(scipy.signal.sosfilt([[1.0, 0.0, 0.0, 1.0, -0.5, 0.0]], [1.0, 0.0, 0.0]), [1.0, 0.5, 0.25])\n"
    "print('ran')\n"
)


# the package's loader must not run scipy's package init, which a later import of scipy runs in full
PACKAGE = "import sys\nimport gpforecast.lapack as lapack\nprint('scipy' in sys.modules)\n"
SCIPY = "import scipy.linalg\n"


@pytest.mark.parametrize(
    ("first", "expected"),
    [(PACKAGE + SCIPY, ["False", "shared", "ran"]), (SCIPY + PACKAGE, ["True", "shared", "ran"])],
    ids=["package-first", "scipy-first"],
)
def test_the_package_and_scipy_linalg_share_the_compiled_modules(first, expected):
    assert run_fresh(first + SHARED).split() == expected

