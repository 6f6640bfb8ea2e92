"""Covariance kernels and the fixed additive composition used for forecasting.

The model covariance is a sum of base kernels over a scalar time input
(measured in years):

    PER   seasonal pattern with a fixed, non-trained period
    LIN   linear trend (Bayesian linear regression)
    RBF   smooth non-linear trend
    SM1   quasi-periodic short-range structure (RBF envelope times cosine)
    SM2   quasi-periodic long-range structure
    WN    observation noise, white on the diagonal

A second periodic term (PER2) can be enabled for series with two seasonal
patterns.  All operations here are pure functions: they never mutate their
inputs and are safe to call concurrently.

Each term's formula is written once: a stationary term's (every term but
LIN) in :func:`term_parts`, as its value and partials on time differences
of any shape, and LIN's, s2_bias + s2_lin x1 x2, in :func:`lag_column`.
A stationary term reads the differences as :class:`Differences`, the
arrays that do not depend on the hyperparameters (|d|, d^2, d == 0 and
sin^2(pi |d| / P) per period), made once per array of differences, so an
objective evaluation on a prepared series computes none of them.  A term
reads its values in ``TERM_PARAMS`` order and a periodic term its fixed
period from the :class:`Term` itself.  :class:`HyperParams` checks its
values once, when made; an entry point that takes one checks only their
names.  :func:`grad_gram` and :func:`lag_column` take theta's values as
a plain sequence in the spec's order, which an objective evaluation
holds without making a :class:`HyperParams`.  :func:`grad_gram` writes
the stationary terms' partials into one block, on a vector of
differences: the n lags of a regular grid, or each pair of points once.
That is the one pass over the terms, and :func:`lag_column`, which sums
the covariance at each difference from those rows, the one sum of the
composition: every builder here takes one of each.  On a regular grid
(:func:`regular_lags`) :func:`toeplitz_gram` lays that column out as a
Toeplitz matrix plus LIN's slope, a rank-1 update in place, and
:func:`toeplitz_cross` lays out the cross-covariance of test points that
continue the grid; on other inputs :func:`pairs_gram` lays out the
covariance at each pair of points (:func:`point_pairs`).
:func:`build_gram`, ``gp.fit`` and the objective share these layouts.

Hyperparameters are always positive; optimization happens in log space, so
every partial in this module is taken with respect to ``log(parameter)``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.blas import dger

__all__ = [
    "InvalidHyperparameterError",
    "Term",
    "KernelSpec",
    "HyperParams",
    "eval_kernel",
    "build_gram",
    "build_cross",
    "zero_lag_variance",
    "Differences",
    "term_parts",
    "grad_gram",
    "regular_lags",
    "lag_column",
    "toeplitz_gram",
    "toeplitz_cross",
    "point_pairs",
    "pairs_gram",
]


class InvalidHyperparameterError(ValueError):
    """Raised when hyperparameters are missing, non-positive, or non-finite."""


# Parameter names contributed by each term kind, in trainable-vector order.
# Fixed periods are deliberately absent: they are never optimized.
TERM_PARAMS: dict[str, tuple[str, ...]] = {
    "PER": ("s2_per", "ell_per"),
    "PER2": ("s2_per2", "ell_per2"),
    "LIN": ("s2_bias", "s2_lin"),
    "RBF": ("s2_rbf", "ell_rbf"),
    "SM1": ("s2_sm1", "ell_sm1", "tau_sm1"),
    "SM2": ("s2_sm2", "ell_sm2", "tau_sm2"),
    "WN": ("s2_noise",),
}

# Every trainable name, in TERM_PARAMS order: the layout of per-name arrays
# such as the priors', which a spec reads at its trainable_positions().
PARAM_NAMES = tuple(name for names in TERM_PARAMS.values() for name in names)
VARIANCE_PARAMS = tuple(name for name in PARAM_NAMES if name.startswith("s2_"))
LENGTHSCALE_PARAMS = tuple(name for name in PARAM_NAMES if not name.startswith("s2_"))


@dataclass(frozen=True)
class Term:
    """One enabled component of the composition.

    ``period`` is required for PER/PER2 and forbidden otherwise.  It is
    fixed, never trained, and evaluation reads it from here.
    """

    kind: str
    period: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in TERM_PARAMS:
            raise ValueError(f"unknown kernel term {self.kind!r}; expected one of {sorted(TERM_PARAMS)}")
        if self.kind in ("PER", "PER2"):
            if self.period is None or not np.isfinite(self.period) or self.period <= 0:
                raise ValueError(f"{self.kind} term requires a finite period > 0, got {self.period!r}")
        elif self.period is not None:
            raise ValueError(f"{self.kind} term does not take a period")


@dataclass(frozen=True)
class KernelSpec:
    """Declarative description of the additive composition.

    A spec lists which terms are enabled (each kind at most once) and the
    fixed period of each periodic term.  Specs used for forecasting must
    include a WN term (the regression noise lives inside the kernel);
    the training layer enforces that, while the covariance algebra here
    accepts any non-empty term set.
    """

    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("kernel spec needs at least one term")
        kinds = [t.kind for t in self.terms]
        if len(set(kinds)) != len(kinds):
            raise ValueError(f"duplicate kernel terms in {kinds}")
        # made once: every objective evaluation compares theta's names with these
        # and looks the priors up at these positions
        names = tuple(name for t in self.terms for name in TERM_PARAMS[t.kind])
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_positions", np.array([PARAM_NAMES.index(name) for name in names]))
        # each term, the slice of theta's values it reads and grad_gram's row of its value (None for LIN)
        layout, start, row = [], 0, 0
        for t in self.terms:
            size = len(TERM_PARAMS[t.kind])
            layout.append((t, slice(start, start + size), None if t.kind == "LIN" else row))
            start, row = start + size, row + (t.kind != "LIN") * size
        object.__setattr__(self, "_layout", tuple(layout))
        object.__setattr__(self, "_rows", row)

    def values_at(self, kind: str) -> slice | None:
        """Where the trainables of the term ``kind`` stand in theta's values, None if the spec lacks it."""
        return next((at for t, at, _ in self._layout if t.kind == kind), None)

    def has(self, kind: str) -> bool:
        return any(t.kind == kind for t in self.terms)

    def trainable_names(self) -> tuple[str, ...]:
        """Ordered names of the trainable hyperparameters.

        The order (terms as listed, each term's parameters in their
        canonical order) defines the layout of every log-space vector:
        gradients, priors, and the optimizer all use it.
        """
        return self._names

    def trainable_positions(self) -> np.ndarray:
        """Where each of :meth:`trainable_names` stands in ``PARAM_NAMES``."""
        return self._positions


@dataclass(frozen=True)
class HyperParams:
    """A spec's trainable hyperparameters, each checked set, finite and > 0 once, when made.

    ``names`` is ``spec.trainable_names()`` and ``values`` holds the values
    in that order; ``theta.s2_noise`` reads one by name.  Variances
    (``s2_*``), lengthscales (``ell_*``) and cosine periods (``tau_*``) are
    all positive; the fixed periods live on the spec's terms (:class:`Term`).

    The SM cosine is ``cos((x1 - x2) / tau)``: ``tau`` equals the cycle
    length divided by 2*pi, not the cycle length itself.
    """

    names: tuple[str, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        for name, value in zip(self.names, self.values, strict=True):
            if value is None or not math.isfinite(value) or value <= 0:
                raise InvalidHyperparameterError(f"{name} must be set, finite and > 0, got {value!r}")

    @classmethod
    def of(cls, spec: KernelSpec, **named: float) -> "HyperParams":
        """The spec's trainables, each given by name."""
        return _by_name(spec.trainable_names(), named)

    @classmethod
    def from_log(cls, spec: KernelSpec, u: np.ndarray) -> "HyperParams":
        """The spec's trainables at ``exp(u)``, u in ``spec.trainable_names()`` order."""
        with np.errstate(over="ignore"):  # an overflow to inf fails the check
            return cls(spec.trainable_names(), tuple(np.exp(u).tolist()))

    def replace(self, **named: float) -> "HyperParams":
        """Copy with the named trainables set to new values."""
        return _by_name(self.names, {**dict(zip(self.names, self.values)), **named})

    def for_spec(self, spec: KernelSpec) -> tuple[float, ...]:
        """``values``, after checking that they were made for ``spec``'s trainables."""
        names = spec.trainable_names()
        if self.names != names:
            raise InvalidHyperparameterError(f"theta holds {self.names}, but the spec trains {names}")
        return self.values

    def __getattr__(self, name: str) -> float:
        names = self.__dict__.get("names", ())  # absent while a copy is being made
        if name in names:
            return self.values[names.index(name)]
        raise AttributeError(f"HyperParams has no trainable {name!r}")


def _by_name(names: tuple[str, ...], named: dict[str, float]) -> HyperParams:
    unknown = sorted(set(named) - set(names))
    if unknown:
        raise InvalidHyperparameterError(f"{unknown} are not among the trainables {names}")
    return HyperParams(names, tuple(named.get(name) for name in names))


# a NamedTuple, not a frozen dataclass: a fresh import defines it ten times faster
class Differences(NamedTuple):
    """What the stationary terms read from an array of time differences d, none of it depending on theta.

    ``abs`` is |d| (only |d| matters), ``sq`` d^2, ``zero`` where d == 0,
    and ``sin2[P]`` sin^2(pi |d| / P) for each periodic term's period P.
    """

    abs: np.ndarray
    sq: np.ndarray
    zero: np.ndarray
    sin2: dict[float, np.ndarray]

    @classmethod
    def of(cls, spec: KernelSpec, d: np.ndarray | float) -> "Differences":
        """The arrays of ``d`` (any shape) for the terms of ``spec``."""
        a = np.abs(d)
        periods = {t.period for t in spec.terms if t.period is not None}
        return cls(abs=a, sq=a * a, zero=a == 0, sin2={period: np.sin(np.pi * a / period) ** 2 for period in periods})


def term_parts(term: Term, p: Sequence[float], d: Differences) -> tuple[np.ndarray, list[np.ndarray]]:
    """Value of one stationary term and its partials w.r.t. the log of each of its parameters.

    ``p`` holds the term's parameter values in ``TERM_PARAMS[term.kind]``
    order; a periodic term's period is ``term.period``.  Works elementwise
    on ``d``, the :class:`Differences` of time differences x1 - x2 of any
    shape.  LIN is not stationary: its value is written in :func:`lag_column`.
    The partials follow ``p``; the first is the value itself, since
    dk/dlog s2 = k for every variance.
    """
    kind = term.kind
    if kind == "RBF":
        s2, ell = p
        k = s2 * np.exp(-d.sq / (2.0 * ell * ell))
        return k, [k, k * d.sq / (ell * ell)]
    if kind in ("PER", "PER2"):
        s2, ell = p
        sin2 = d.sin2[term.period]
        k = s2 * np.exp(-2.0 * sin2 / (ell * ell))
        return k, [k, 4.0 * k * sin2 / (ell * ell)]
    if kind in ("SM1", "SM2"):
        s2, ell, tau = p
        env = s2 * np.exp(-d.sq / (2.0 * ell * ell))
        k = env * np.cos(d.abs / tau)
        return k, [k, k * d.sq / (ell * ell), env * np.sin(d.abs / tau) * d.abs / tau]
    if kind == "WN":
        (s2,) = p
        k = np.where(d.zero, s2, 0.0)
        return k, [k]
    raise AssertionError(kind)


def grad_gram(spec: KernelSpec, values: Sequence[float], d: Differences) -> np.ndarray:
    """Partials of the stationary terms w.r.t. the log of each of their trainables.

    ``values`` are theta's values in ``spec.trainable_names()`` order
    (:meth:`HyperParams.for_spec`) and ``d`` holds a 1-D array of time
    differences.  Returns shape ``(q, d.abs.size)``: one row per trainable
    that is not LIN's, in that order, each written into the one block as
    its term makes it.  Row k holds dK/du_k at each difference, so on a
    regular grid, with d the lags, dK/du_k is the symmetric Toeplitz
    matrix of row k.
    """
    out = np.empty((spec._rows, d.abs.size))
    for t, at, row in spec._layout:
        if row is not None:
            for k, g in enumerate(term_parts(t, values[at], d)[1], row):
                out[k] = g
    _check_finite(out, "grad_gram")
    return out


def regular_lags(x: np.ndarray) -> np.ndarray | None:
    """The lags ``x - x[0]`` if x is a regular grid x_i = x_0 + i h with h > 0, else None.

    The grid test allows a few ulps of the grid's extent, the rounding that
    ``arange(n) / steps_per_year`` leaves, and needs n >= 2.
    """
    n = x.size
    if n < 2:
        return None
    lags = x - x[0]
    h = lags[-1] / (n - 1)
    tol = 8.0 * np.finfo(float).eps * max(abs(x[0]), abs(x[-1]))
    # h > 2 tol keeps the points strictly increasing, so no two coincide
    if not h > 2.0 * tol or np.max(np.abs(lags - h * np.arange(n))) > tol:
        return None
    return lags


def _check_finite(out: np.ndarray, what: str) -> None:
    if not np.isfinite(out).all():
        raise InvalidHyperparameterError(f"{what} produced non-finite covariance values")


def eval_kernel(spec: KernelSpec, theta: HyperParams, x1: float, x2: float) -> float:
    """Covariance between two time points (in years) under the composition.

    The WN term contributes only when ``x1 == x2`` exactly; time indices are
    built from integer steps so equality of repeated points is well defined.
    """
    a, b = float(x1), float(x2)
    return float(_covariance(spec, theta.for_spec(spec), np.array([a - b]), a * b)[0])


def build_gram(spec: KernelSpec, theta: HyperParams, x: np.ndarray) -> np.ndarray:
    """n-by-n covariance matrix K[i, j] = k(x[i], x[j]).

    On a regular grid (see :func:`regular_lags`) the first column, from
    :func:`lag_column`, is laid out by :func:`toeplitz_gram`.  Otherwise
    :func:`lag_column` gives the covariance at each pair of points
    (:func:`point_pairs`), laid out by :func:`pairs_gram`.  Symmetric by
    construction either way.  The WN term lands on the diagonal and on any
    exact duplicate time points.
    """
    x = _as_points(x, "x")
    values = theta.for_spec(spec)
    lags = regular_lags(x)
    if lags is None:
        pairs, d, xx = point_pairs(x)
        return pairs_gram(_covariance(spec, values, d, xx), pairs, x.size)
    return toeplitz_gram(_covariance(spec, values, lags), np.sqrt(theta.s2_lin) * x if spec.has("LIN") else None)


def toeplitz_gram(column: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
    """The symmetric Toeplitz matrix of ``column`` plus v v^T (when v is given), Fortran-ordered.

    On a regular grid that is the Gram, with ``column`` from
    :func:`lag_column` and v = sqrt(s2_lin) x: LIN's slope s2_lin x x^T is
    added in place as a rank-1 update, which keeps the matrix exactly
    symmetric.
    """
    # row i of the reversed windows of (c[n-1], ..., c[1], c[0], ..., c[n-1]) is c[|i - j|]
    windows = sliding_window_view(np.concatenate((column[:0:-1], column)), column.size)[::-1]
    gram = np.ascontiguousarray(windows).T  # symmetric, so its transpose is itself
    if v is not None:
        gram = dger(1.0, v, v, a=gram, overwrite_a=1)
    _check_finite(gram, "build_gram")
    return gram


def toeplitz_cross(column: np.ndarray, s2_lin: float, x_star: np.ndarray, x: np.ndarray) -> np.ndarray:
    """:func:`build_cross` for test points x* that continue a regular grid x of n points, from its n + m lags.

    ``column`` is :func:`lag_column` on the lags of x and x* together.
    Entry (j, i) lies at lag n + j - i, in 1 .. n+m-1, where WN is zero,
    plus LIN's slope s2_lin x*_j x_i (0 without LIN).  The lags round
    differently from x*_j - x_i, so the entries match build_cross's to
    rounding.
    """
    # row j of the reversed windows of column[1:] is column[n + j - i], i = 0 .. n-1
    cross = sliding_window_view(column[1:], x.size)[:, ::-1] + s2_lin * np.multiply.outer(x_star, x)
    _check_finite(cross, "build_cross")
    return cross


def point_pairs(x: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
    """Each pair of points i >= j once: the indices (i, j), the differences x_i - x_j and the products x_i x_j."""
    i, j = np.tril_indices(x.size)
    return (i, j), x[i] - x[j], x[i] * x[j]


def pairs_gram(values: np.ndarray, pairs: tuple[np.ndarray, np.ndarray], n: int) -> np.ndarray:
    """The symmetric n-by-n matrix with ``values`` at each pair of :func:`point_pairs` and its mirror, Fortran-ordered.

    Off a regular grid that is the Gram, with ``values`` from
    :func:`lag_column` on the pairs' differences and products.
    """
    i, j = pairs
    gram = np.empty((n, n), order="F")
    gram[i, j] = values
    gram[j, i] = values
    return gram


def lag_column(
    spec: KernelSpec, values: Sequence[float], partials: np.ndarray, xx: np.ndarray | float = 0.0, noise: bool = True
) -> np.ndarray:
    """The covariance at each difference :func:`grad_gram` gave ``partials`` for, LIN's at products ``xx``.

    A stationary term's first row there is its value (dk/dlog s2 = k), so
    the result is those rows summed in term order, with LIN's value at
    ``xx`` in LIN's place; no term is evaluated again.  On a regular grid's
    lags, with xx = 0, that is the Gram's first column without LIN's slope
    (LIN's bias is constant in the lag): the Gram is the symmetric Toeplitz
    matrix of this column plus the rank-1 slope s2_lin x x^T.  On the pairs
    of points, with xx their products, it is the Gram's entry for each pair.
    ``values`` are theta's, as :func:`grad_gram` read them; ``noise=False``
    leaves WN out, as :func:`build_cross` and :func:`zero_lag_variance` do.
    """
    column = np.zeros(partials.shape[1])
    for t, at, row in spec._layout:
        if row is None:  # LIN's value: its formula, written only here
            s2_bias, s2_lin = values[at]
            column += s2_bias + s2_lin * xx
        elif noise or t.kind != "WN":
            column += partials[row]
    _check_finite(column, "lag_column")
    return column


def _covariance(
    spec: KernelSpec, values: Sequence[float], d: np.ndarray, xx: np.ndarray | float = 0.0, noise: bool = True
) -> np.ndarray:
    """The composition at 1-D differences ``d``, LIN at products ``xx``: :func:`lag_column` of one :func:`grad_gram`."""
    return lag_column(spec, values, grad_gram(spec, values, Differences.of(spec, d)), xx, noise)


# Entries of the cross-covariance evaluated at once.  A forecast on a regular
# grid takes gp.fit's grid step and never reaches build_cross; for any other
# test points the blocks bound grad_gram's (q, block) partials, 16 KiB a row.
_CROSS_BLOCK = 2048


def build_cross(spec: KernelSpec, theta: HyperParams, x_star: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m-by-n cross-covariance matrix between test and training points.

    The WN term never contributes here: predictions target the latent
    function, whose noise is independent of the training noise, so even a
    test point that exactly duplicates a training point only sees the
    signal covariance (its prediction shrinks toward the latent mean).
    Test points are taken in blocks of at most ``_CROSS_BLOCK`` entries,
    so the differences, the products and the partials of each block stay
    that size however many test points there are.
    """
    x_star = _as_points(x_star, "x_star", allow_empty=True)
    x = _as_points(x, "x")
    values = theta.for_spec(spec)
    blocks = np.array_split(x_star, max(1, -(-x_star.size * x.size // _CROSS_BLOCK)))
    rows = [_covariance(spec, values, (b[:, None] - x).ravel(), (b[:, None] * x).ravel(), noise=False) for b in blocks]
    return np.concatenate(rows).reshape(x_star.size, x.size)


def zero_lag_variance(spec: KernelSpec, theta: HyperParams, x: np.ndarray) -> np.ndarray:
    """Per-point prior variance k(x_i, x_i) of the latent function, without the noise.

    Used for predictive variances: the latent-function variance at a test
    point never includes the white-noise term.
    """
    x = _as_points(x, "x", allow_empty=True)
    return _covariance(spec, theta.for_spec(spec), np.zeros(x.size), x * x, noise=False)


def _as_points(x: np.ndarray, name: str, allow_empty: bool = False) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array of time points, got shape {x.shape}")
    if x.size == 0 and not allow_empty:
        raise ValueError(f"{name} must contain at least one point")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite time points")
    return x
