"""Host-speed reference: fixed work, timed between the program's calls.

On a shared host the same ``forecast()`` call can take 0.09 s in one
stretch of seconds and 0.17 s in the next, as neighbours come and go
(2-vCPU x86-64 VM; the thread's own CPU time slows just as much, so it
is not time stolen by the hypervisor).  Over a run of tens of seconds
that drift is larger than any bound worth setting.  The benchmark
therefore times a fixed burst of reference work (:func:`burst`:
elementwise numpy on a 100x100 grid, LAPACK Cholesky solves and a GP
log-likelihood gradient written in plain numpy, the kinds of work a
forecast is made of) before every timed call and after the last, and
rescales each call to the host speed at which the burst takes
:data:`NOMINAL_S`.  Interpreter-bound reference work followed the host's
drift less closely and is left out.  The reference depends on numpy and
scipy alone, never on gpforecast, so a change to the program cannot
move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import linalg

# The burst's median time over many runs on a 2-vCPU x86-64 host (OpenBLAS);
# normalized times are seconds at the speed where it takes exactly this.
NOMINAL_S = 0.0105
# Bursts on each side of a call whose median rescales it.
WINDOW = 8

_D = np.arange(100.0)[:, None] - np.arange(100.0)[None, :]
_EYE = np.eye(100)
_rng = np.random.default_rng(0)
_A = _rng.standard_normal((100, 100))
_SPD = _A @ _A.T + 100.0 * np.eye(100)
_RHS = _rng.standard_normal((100, 20))
_Y = _rng.standard_normal(100)


def _likelihood_gradient(lengthscale: float) -> np.ndarray:
    """Log-likelihood gradient of a 100-point GP (periodic times squared-exponential kernel)."""
    s = np.sin(np.pi * _D / 12.0)
    periodic = np.exp(-2.0 * s**2)
    se = np.exp(-0.5 * (_D / lengthscale) ** 2)
    k = periodic * se + 0.1 * _EYE
    k_inv = linalg.cho_solve(linalg.cho_factor(k, lower=True), _EYE)
    alpha = k_inv @ _Y
    grads = np.stack([k * (_D / lengthscale) ** 2, -4.0 * s**2 * periodic * se, periodic, se, k])
    return 0.5 * np.einsum("ij,pji->p", np.outer(alpha, alpha) - k_inv, grads)


def burst() -> float:
    """Seconds one fixed burst of reference work takes now."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(20):
        k = np.exp(-0.5 * (_D / (3.0 + 0.01 * i)) ** 2) * np.cos(2.0 * np.pi * _D / 12.0)
        acc += float(k[0, 1])
    for _ in range(10):
        acc += float(linalg.cho_solve(linalg.cho_factor(_SPD), _RHS)[0, 0])
    for lengthscale in (5.0, 6.0, 7.0):
        acc += float(_likelihood_gradient(lengthscale).sum())
    if not np.isfinite(acc):
        raise ArithmeticError("reference burst gave a non-finite result")
    return time.perf_counter() - start


def normalize(seconds: list[float], bursts: list[float]) -> list[float]:
    """Rescale call ``i`` by the bursts around it, to seconds at nominal speed.

    ``bursts[i]`` was timed just before call ``i`` and ``bursts[-1]`` after
    the last call.  Call ``i`` uses the median of the :data:`WINDOW` bursts
    before it and the :data:`WINDOW` after it (fewer at the ends of the
    run): one burst samples the host for a few milliseconds and reads up to
    twice its usual time when the host stalls, so a call rescaled by the
    bursts next to it alone would carry that noise, while a change of host
    speed that lasts several seconds is still followed.
    """
    if len(bursts) != len(seconds) + 1:
        raise ValueError(f"{len(seconds)} calls need {len(seconds) + 1} bursts, got {len(bursts)}")
    return [
        s * NOMINAL_S / statistics.median(bursts[max(0, i + 1 - WINDOW) : i + 1 + WINDOW])
        for i, s in enumerate(seconds)
    ]
