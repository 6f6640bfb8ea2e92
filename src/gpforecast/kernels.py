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

Each stationary term's formula (every term but LIN) is written once, in
:func:`term_parts`, as its partials on time differences of any shape,
the first of which is its value.  LIN, s2_bias + s2_lin x1 x2, is not a
function of the difference: :func:`grad_gram` adds its bias,
:func:`build_gram` and :func:`build_cross` its slope, and
:func:`zero_lag_variance` both at x1 = x2 = x*.  A stationary term reads
the differences as :class:`Differences`, the arrays that do not depend
on the hyperparameters (|d|, d^2, d == 0 and sin^2(pi |d| / P) per
period), made once per array of differences, so an objective evaluation
on a prepared series computes none of them.  A term reads its values in
``TERM_PARAMS`` order and a periodic term its fixed period from the
:class:`Term` itself.  :class:`HyperParams` checks its values once, when
made; an entry point that takes one checks only their names
(:meth:`HyperParams.for_spec`).  :func:`grad_gram` and
:func:`zero_lag_variance` take theta's values as a plain sequence in
the spec's order, as checked by their caller; an objective evaluation
holds them without making a :class:`HyperParams`.  :func:`grad_gram` is
the one pass over the terms: it writes the stationary terms' partials
into one block and, as its last row, sums the covariance at each
difference from their value rows.  Training points are a series' grid
x_i = i / steps_per_year (``gp.prepare_series``) and test points
continue it, so the differences are the grid's lags, and that last row
is the lag column.
Every Gram is :func:`build_gram` of one lag column, a Toeplitz matrix
plus LIN's slope as a rank-1 update in place, and the cross-covariance
is :func:`build_cross` of the continued grid's column.  The test points'
prior variance needs no pass: each stationary term is normalized so that
its value at zero difference is its variance, which
:func:`zero_lag_variance` sums.

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

from .lapack import dger

__all__ = [
    "InvalidHyperparameterError",
    "Term",
    "KernelSpec",
    "HyperParams",
    "Differences",
    "term_parts",
    "grad_gram",
    "build_gram",
    "build_cross",
    "zero_lag_variance",
]


class InvalidHyperparameterError(ValueError):
    """Raised when hyperparameters are missing, non-positive, or non-finite (a name not the spec's is a ValueError)."""


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

# Every trainable name, in TERM_PARAMS order: the names a prior can be given for.
PARAM_NAMES = tuple(name for names in TERM_PARAMS.values() for name in names)
VARIANCE_PARAMS = tuple(name for name in PARAM_NAMES if name.startswith("s2_"))
LENGTHSCALE_PARAMS = tuple(name for name in PARAM_NAMES if not name.startswith("s2_"))
# The floor of a lengthscale's square, the smallest normal float: where the square
# underflows to 0, zero difference still gives the limit s2, not 0/0.
_TINY = float(np.finfo(float).tiny)


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

    Made, it lays out theta's values once: ``lin`` is LIN's slice and
    ``noise`` WN's index (None without the term), and ``stationary`` the
    read-only mask of the trainables that are not LIN's.
    """

    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("kernel spec needs at least one term")
        kinds = [t.kind for t in self.terms]
        if len(set(kinds)) != len(kinds):
            raise ValueError(f"duplicate kernel terms in {kinds}")
        # made once: every objective evaluation compares theta's names with these
        object.__setattr__(self, "_names", tuple(name for t in self.terms for name in TERM_PARAMS[t.kind]))
        # each term, the slice of theta's values it reads and grad_gram's row of its value (None for LIN)
        layout, start, row = [], 0, 0
        for t in self.terms:
            size = len(TERM_PARAMS[t.kind])
            layout.append((t, slice(start, start + size), None if t.kind == "LIN" else row))
            start, row = start + size, row + (t.kind != "LIN") * size
        object.__setattr__(self, "_layout", tuple(layout))
        object.__setattr__(self, "_rows", row)
        where = {t.kind: at for t, at, _ in layout}
        object.__setattr__(self, "lin", where.get("LIN"))
        object.__setattr__(self, "noise", where["WN"].start if "WN" in where else None)
        stationary = np.array([name not in TERM_PARAMS["LIN"] for name in self._names])
        stationary.flags.writeable = False  # a spec may be shared across series and threads
        object.__setattr__(self, "stationary", stationary)

    def trainable_names(self) -> tuple[str, ...]:
        """Ordered names of the trainable hyperparameters.

        The order (terms as listed, each term's parameters in their
        canonical order) defines the layout of every log-space vector:
        gradients, priors, and the optimizer all use it.
        """
        return self._names


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
        names = spec.trainable_names()
        unknown = sorted(set(named) - set(names))
        if unknown:
            raise ValueError(f"{unknown} are not among the trainables {names}")
        return cls(names, tuple(named.get(name) for name in names))

    @classmethod
    def from_log(cls, spec: KernelSpec, u: np.ndarray) -> "HyperParams":
        """The spec's trainables at ``exp(u)``, u in ``spec.trainable_names()`` order."""
        with np.errstate(over="ignore"):  # an overflow to inf fails the check
            return cls(spec.trainable_names(), tuple(np.exp(u).tolist()))

    def for_spec(self, spec: KernelSpec) -> tuple[float, ...]:
        """``values``, after checking that they were made for ``spec``'s trainables."""
        names = spec.trainable_names()
        if self.names != names:
            raise ValueError(f"theta holds {self.names}, but the spec trains {names}")
        return self.values

    def __getattr__(self, name: str) -> float:
        names = self.__dict__.get("names", ())  # absent while a copy is being made
        if name in names:
            return self.values[names.index(name)]
        raise AttributeError(f"HyperParams has no trainable {name!r}")


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


def term_parts(term: Term, p: Sequence[float], d: Differences) -> list[np.ndarray]:
    """Partials of one stationary term w.r.t. the log of each of its parameters; the first is its value.

    ``p`` holds the term's parameter values in ``TERM_PARAMS[term.kind]``
    order; a periodic term's period is ``term.period``.  Works elementwise
    on ``d``, the :class:`Differences` of time differences x1 - x2 of any
    shape.  LIN is not stationary, and not written here (see the module docstring).
    The partials follow ``p``; the first is the value itself, since
    dk/dlog s2 = k for every variance.
    """
    kind, s2 = term.kind, p[0]
    if kind == "WN":
        return [np.where(d.zero, s2, 0.0)]
    ell2 = max(p[1] * p[1], _TINY)  # every other term's second parameter is its lengthscale
    if kind == "RBF":
        k = s2 * np.exp(-d.sq / (2.0 * ell2))
        return [k, k * d.sq / ell2]
    if kind in ("PER", "PER2"):
        sin2 = d.sin2[term.period]
        k = s2 * np.exp(-2.0 * sin2 / ell2)
        return [k, 4.0 * k * sin2 / ell2]
    if kind in ("SM1", "SM2"):
        tau = p[2]
        env = s2 * np.exp(-d.sq / (2.0 * ell2))
        k = env * np.cos(d.abs / tau)
        return [k, k * d.sq / ell2, env * np.sin(d.abs / tau) * d.abs / tau]
    raise AssertionError(kind)


# A tiny lengthscale or cosine period overflows a ratio, and a huge variance a
# product or the sum: the limit is the value (exp(-inf) = 0), or non-finite and the check raises.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def grad_gram(spec: KernelSpec, values: Sequence[float], d: Differences) -> np.ndarray:
    """The stationary terms' partials w.r.t. the log of each of their trainables, then the covariance.

    ``values`` are theta's values in ``spec.trainable_names()`` order
    (:meth:`HyperParams.for_spec`) and ``d`` holds a 1-D array of time
    differences.  Returns shape ``(q + 1, d.abs.size)``.  Row k < q is
    dK/du_k for the k-th trainable that is not LIN's, so on a regular
    grid's lags dK/du_k is the symmetric Toeplitz matrix of row k.  The
    last row sums each stationary term's value row (its first, as
    dk/dlog s2 = k) in term order, with LIN's bias in LIN's place: on the
    lags, the Gram's first column without LIN's slope.
    """
    out = np.zeros((spec._rows + 1, d.abs.size))
    column = out[-1]
    for t, at, row in spec._layout:
        if row is None:  # LIN: its bias here, its slope where the points are known
            column += values[at][0]
            continue
        for k, g in enumerate(term_parts(t, values[at], d), row):
            out[k] = g
        column += out[row]
    _check_finite(out, "grad_gram")
    return out


def _check_finite(out: np.ndarray, what: str) -> None:
    if not np.isfinite(out).all():
        raise InvalidHyperparameterError(f"{what} produced non-finite covariance values")


def build_gram(column: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The symmetric Toeplitz matrix of ``column`` plus v v^T, Fortran-ordered.

    On a regular grid that is the Gram, with ``column`` the last row of
    :func:`grad_gram` on its lags and v = sqrt(s2_lin) x (zero without
    LIN): LIN's slope s2_lin x x^T is added in place as a rank-1 update,
    which keeps the matrix exactly symmetric.
    """
    # row i of the reversed windows of (c[n-1], ..., c[1], c[0], ..., c[n-1]) is c[|i - j|]
    windows = sliding_window_view(np.concatenate((column[:0:-1], column)), column.size)[::-1]
    gram = dger(1.0, v, v, a=np.ascontiguousarray(windows).T, overwrite_a=1)  # symmetric: its transpose is itself
    _check_finite(gram, "build_gram")
    return gram


@np.errstate(over="ignore")  # a huge s2_lin overflows its slope to inf, which fails the check
def build_cross(column: np.ndarray, s2_lin: float, x_star: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m-by-n cross-covariance k(x*, x) of test points x* that continue a regular grid x of n points.

    ``column`` is the last row of :func:`grad_gram` on the n + m lags of
    x and x* together.  Entry (j, i) lies at lag n + j - i, in 1 .. n+m-1, where WN
    is zero (prediction targets the latent function), plus LIN's slope
    s2_lin x*_j x_i (0 without LIN).
    """
    # row j + 1 of the column's windows of n, reversed, is column[n + j - i], i = 0 .. n-1
    cross = sliding_window_view(column, x.size)[1:, ::-1] + s2_lin * np.multiply.outer(x_star, x)
    _check_finite(cross, "build_cross")
    return cross


@np.errstate(over="ignore")  # huge variances overflow their sum to inf, which fails the check
def zero_lag_variance(spec: KernelSpec, values: Sequence[float], x_star: np.ndarray) -> np.ndarray:
    """Per-point prior variance k(x*, x*) of the latent function, without the noise, from theta's ``values``.

    A stationary term's value at zero difference is its variance s2 (each
    is normalized so), so the result sums those in term order, with LIN's
    s2_bias + s2_lin x*^2 in LIN's place; no term is evaluated.  The
    latent variance at a test point never includes the white-noise term.
    """
    variance = np.zeros(x_star.size)
    for t, at, row in spec._layout:
        if row is None:
            s2_bias, s2_lin = values[at]
            variance += s2_bias + s2_lin * (x_star * x_star)
        elif t.kind != "WN":
            variance += values[at][0]
    _check_finite(variance, "zero_lag_variance")
    return variance

