"""Lognormal priors over the kernel hyperparameters.

Each positive hyperparameter gets a prior ``log(theta) ~ Normal(nu, lam)``
(``lam`` is the variance of the log).  The default constants were calibrated
empirically on a large collection of monthly series; they keep every
parameter within a plausible order of magnitude while leaving fat tails:

    all variances (incl. noise and the linear bias/slope)   nu = -1.5
    ell_per  (periodic lengthscale)                         nu =  0.2
    ell_rbf                                                 nu =  1.1
    ell_sm1                                                 nu = -0.7
    tau_sm1                                                 nu =  0.5
    ell_sm2                                                 nu =  1.1
    tau_sm2                                                 nu =  1.6

with ``lam = 1.0`` everywhere.  All variances share a single prior (each
component gets the same prior chance of being switched off), and all
lengthscale-type parameters share the same log-variance.  A second periodic
term has its own ``ell_per2`` entry, by default equal to ``ell_per``'s, and
the shared variance prior.  The fixed periods live on the kernel spec's
terms and carry no prior.

:func:`log_prior` and :func:`grad_log_prior` are one array expression each
over ``u = log(theta)`` and the spec's ``nu`` and ``lam`` arrays, which
:func:`prior_vectors` makes once for a caller that evaluates them many
times.

Priors can be saved to and loaded from a plain-text file (one
``name = nu lam`` line per parameter) so alternative calibrations can be
dropped in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from .kernels import LENGTHSCALE_PARAMS, VARIANCE_PARAMS, HyperParams, KernelSpec

__all__ = [
    "LogNormalPrior",
    "PriorSpec",
    "PriorVectors",
    "default_priors",
    "prior_vectors",
    "log_prior",
    "grad_log_prior",
    "median_hyperparams",
    "save_priors",
    "load_priors",
]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class LogNormalPrior:
    """Prior ``log(theta) ~ Normal(nu, lam)`` with lam the variance."""

    nu: float
    lam: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.nu) and np.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"invalid lognormal prior (nu={self.nu!r}, lam={self.lam!r})")

    def median(self) -> float:
        return math.exp(self.nu)

    def quantile(self, q: float) -> float:
        return math.exp(self.nu + math.sqrt(self.lam) * float(ndtri(q)))


@dataclass(frozen=True)
class PriorSpec:
    """Mapping from trainable-parameter name to its lognormal prior."""

    entries: dict[str, LogNormalPrior]

    def __post_init__(self) -> None:
        variances = [self.entries[n] for n in VARIANCE_PARAMS if n in self.entries]
        if len({(p.nu, p.lam) for p in variances}) > 1:
            raise ValueError("all variance parameters must share a single prior")
        lams = {self.entries[n].lam for n in LENGTHSCALE_PARAMS if n in self.entries}
        if len(lams) > 1:
            raise ValueError("all lengthscale-type parameters must share one log-variance")

    def __getitem__(self, name: str) -> LogNormalPrior:
        try:
            return self.entries[name]
        except KeyError:
            raise KeyError(f"no prior defined for hyperparameter {name!r}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(self.entries)


def default_priors() -> PriorSpec:
    """The calibrated default priors (see the module docstring)."""
    variance = LogNormalPrior(nu=-1.5, lam=1.0)
    entries = {name: variance for name in VARIANCE_PARAMS}
    entries["ell_per"] = LogNormalPrior(nu=0.2, lam=1.0)
    entries["ell_per2"] = LogNormalPrior(nu=0.2, lam=1.0)
    entries["ell_rbf"] = LogNormalPrior(nu=1.1, lam=1.0)
    entries["ell_sm1"] = LogNormalPrior(nu=-0.7, lam=1.0)
    entries["tau_sm1"] = LogNormalPrior(nu=0.5, lam=1.0)
    entries["ell_sm2"] = LogNormalPrior(nu=1.1, lam=1.0)
    entries["tau_sm2"] = LogNormalPrior(nu=1.6, lam=1.0)
    return PriorSpec(entries=entries)


# a NamedTuple, not a frozen dataclass: a fresh import defines it ten times faster
class PriorVectors(NamedTuple):
    """A spec's priors as arrays in ``names`` = ``spec.trainable_names()`` order, made once by :func:`prior_vectors`."""

    names: tuple[str, ...]
    nu: np.ndarray
    lam: np.ndarray
    half_log_lam: np.ndarray


def prior_vectors(priors: PriorSpec, spec: KernelSpec) -> PriorVectors:
    """The priors' ``nu`` and ``lam`` for the spec's trainables, in their order."""
    names = spec.trainable_names()
    entries = [priors[name] for name in names]
    lam = np.array([e.lam for e in entries])
    return PriorVectors(names, np.array([e.nu for e in entries]), lam, 0.5 * np.log(lam))


def _log_theta_and_vectors(
    priors: PriorSpec | PriorVectors, theta: HyperParams, spec: KernelSpec
) -> tuple[np.ndarray, PriorVectors]:
    u = np.log(theta.for_spec(spec))
    if not isinstance(priors, PriorVectors):
        return u, prior_vectors(priors, spec)
    if priors.names != theta.names:
        raise ValueError(f"the prior vectors are for {priors.names}, but the spec trains {theta.names}")
    return u, priors


def log_prior(priors: PriorSpec | PriorVectors, theta: HyperParams, spec: KernelSpec) -> float:
    """Sum over the spec's trainables of the lognormal log-density of theta (with its 1/theta Jacobian).

    A caller that evaluates one spec's priors many times passes
    ``prior_vectors(priors, spec)`` instead of ``priors``.
    """
    u, p = _log_theta_and_vectors(priors, theta, spec)
    terms = -u - p.half_log_lam - 0.5 * _LOG_2PI - (u - p.nu) ** 2 / (2.0 * p.lam)
    return sum(terms.tolist())  # left to right in spec order, unlike np.sum's pairwise order


def grad_log_prior(priors: PriorSpec | PriorVectors, theta: HyperParams, spec: KernelSpec) -> np.ndarray:
    """Gradient of the log-prior w.r.t. the log-space trainable vector; ``priors`` as in :func:`log_prior`."""
    u, p = _log_theta_and_vectors(priors, theta, spec)
    return -1.0 - (u - p.nu) / p.lam


def median_hyperparams(spec: KernelSpec, priors: PriorSpec | None = None) -> HyperParams:
    """Hyperparameters at the prior medians.

    This is the training start point: in log space the medians are the
    prior means, which makes a single optimizer start reproducible.
    """
    priors = priors if priors is not None else default_priors()
    return HyperParams.of(spec, **{name: priors[name].median() for name in spec.trainable_names()})


def format_priors(priors: PriorSpec) -> str:
    """Priors as ``name = nu lam`` lines (parse back with load_priors)."""
    lines = ["# lognormal hyperparameter priors: name = nu lam"]
    lines += [f"{name} = {priors[name].nu!r} {priors[name].lam!r}" for name in priors.names()]
    return "\n".join(lines) + "\n"


def save_priors(priors: PriorSpec, path) -> None:
    """Write :func:`format_priors` text to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_priors(priors))


def load_priors(path) -> PriorSpec:
    """Parse a priors file written by :func:`save_priors`.

    Unknown parameter names, bad numbers, and missing entries for known
    names are all reported with the offending line number.
    """
    known = set(VARIANCE_PARAMS) | set(LENGTHSCALE_PARAMS)
    entries: dict[str, LogNormalPrior] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected 'name = nu lam'")
            name, _, rest = line.partition("=")
            name = name.strip()
            if name not in known:
                raise ValueError(f"{path}: line {lineno}: unknown hyperparameter {name!r}")
            if name in entries:
                raise ValueError(f"{path}: line {lineno}: duplicate entry for {name!r}")
            parts = rest.split()
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected two numbers (nu lam)")
            try:
                nu, lam = float(parts[0]), float(parts[1])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: could not parse numbers {parts!r}") from None
            try:
                entries[name] = LogNormalPrior(nu=nu, lam=lam)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    missing = sorted(known - set(entries))
    if missing:
        raise ValueError(f"{path}: missing priors for {missing}")
    return PriorSpec(entries=entries)
