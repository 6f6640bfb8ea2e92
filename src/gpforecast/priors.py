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
over ``u = log(theta)`` and the spec's columns of the ``nu`` and ``lam``
arrays a :class:`PriorSpec` makes once, when it is made
(:meth:`PriorSpec.columns`), so a trainer takes the columns once per
series.

Priors can be saved to and loaded from a plain-text file (one
``name = nu lam`` line per parameter) so alternative calibrations can be
dropped in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import LENGTHSCALE_PARAMS, PARAM_NAMES, VARIANCE_PARAMS, HyperParams, KernelSpec

__all__ = [
    "LogNormalPrior",
    "PriorSpec",
    "default_priors",
    "log_prior",
    "grad_log_prior",
    "median_hyperparams",
    "save_priors",
    "load_priors",
]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


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
        from statistics import NormalDist  # only here, so that importing the package does not load it

        return math.exp(self.nu + math.sqrt(self.lam) * NormalDist().inv_cdf(q))


@dataclass(frozen=True)
class PriorSpec:
    """Mapping from trainable-parameter name to its lognormal prior.

    Its ``nu``, ``lam``, log normalizer ``-log(2 pi lam) / 2`` and ``2 lam``
    are laid out once, when it is made, per name of ``PARAM_NAMES`` (NaN
    where it has no prior); :meth:`columns` takes a spec's trainables from
    them.
    """

    entries: dict[str, LogNormalPrior]

    def __post_init__(self) -> None:
        unknown = sorted(set(self.entries) - set(PARAM_NAMES))
        if unknown:
            raise ValueError(f"priors for unknown hyperparameters {unknown} (known: {sorted(PARAM_NAMES)})")
        variances = [self.entries[n] for n in VARIANCE_PARAMS if n in self.entries]
        if len({(p.nu, p.lam) for p in variances}) > 1:
            raise ValueError("all variance parameters must share a single prior")
        lams = {self.entries[n].lam for n in LENGTHSCALE_PARAMS if n in self.entries}
        if len(lams) > 1:
            raise ValueError("all lengthscale-type parameters must share one log-variance")
        pairs = [(p.nu, p.lam) if p else (math.nan, math.nan) for p in map(self.entries.get, PARAM_NAMES)]
        nu, lam = np.array(pairs).T
        log_normalizer = -0.5 * np.log(lam) - _HALF_LOG_2PI
        object.__setattr__(self, "_table", np.array([nu, lam, log_normalizer, 2.0 * lam]))
        object.__setattr__(self, "_missing", frozenset(PARAM_NAMES) - set(self.entries))

    def __getitem__(self, name: str) -> LogNormalPrior:
        try:
            return self.entries[name]
        except KeyError:
            raise KeyError(f"no prior defined for hyperparameter {name!r}") from None

    def columns(self, spec: KernelSpec) -> np.ndarray:
        """Rows ``nu``, ``lam``, ``-log(2 pi lam) / 2`` and ``2 lam`` of the spec's trainables, in their order.

        Raises KeyError naming the first trainable without a prior.
        """
        names = spec.trainable_names()
        if self._missing and not self._missing.isdisjoint(names):
            missing = next(name for name in names if name in self._missing)
            raise KeyError(f"no prior defined for hyperparameter {missing!r}")
        return self._table.take(spec.trainable_positions(), 1)


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


def log_prior(columns: np.ndarray, u: np.ndarray) -> float:
    """Sum over a spec's trainables of the lognormal log-density of theta (with its 1/theta Jacobian).

    ``columns`` is ``priors.columns(spec)`` and ``u`` is log(theta), both in
    the spec's trainable order.
    """
    # rows indexed: unpacking a 2-D array iterates it, about 1 us
    terms = columns[2] - u - (u - columns[0]) ** 2 / columns[3]
    return sum(terms.tolist())  # left to right in spec order, unlike np.sum's pairwise order


def grad_log_prior(columns: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Gradient of :func:`log_prior` w.r.t. u = log(theta), the log-space trainable vector."""
    return -1.0 - (u - columns[0]) / columns[1]


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
    lines += [f"{name} = {priors[name].nu!r} {priors[name].lam!r}" for name in priors.entries]
    return "\n".join(lines) + "\n"


def save_priors(priors: PriorSpec, path) -> None:
    """Write :func:`format_priors` text to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_priors(priors))


def load_priors(path) -> PriorSpec:
    """Parse a priors file written by :func:`save_priors`, one ``name = nu lam`` line per parameter.

    ``#`` starts a comment and blank lines are skipped.  A line without
    ``=``, a name not in ``PARAM_NAMES``, a name given twice and a value
    that is not a valid prior's two numbers are errors naming the line;
    missing entries for known names are reported by name.
    """
    entries: dict[str, LogNormalPrior] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected 'name = value'")
            name, _, text = line.partition("=")
            name, text = name.strip(), text.strip()
            if name not in PARAM_NAMES:
                raise ValueError(f"{path}: line {lineno}: unknown name {name!r} (known: {sorted(PARAM_NAMES)})")
            if name in entries:
                raise ValueError(f"{path}: line {lineno}: duplicate entry for {name!r}")
            try:
                parts = text.split()
                if len(parts) != 2:
                    raise ValueError("expected two numbers (nu lam)")
                entries[name] = LogNormalPrior(nu=float(parts[0]), lam=float(parts[1]))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: bad value {text!r} for {name}: {exc}") from None
    missing = sorted(set(PARAM_NAMES) - set(entries))
    if missing:
        raise ValueError(f"{path}: missing priors for {missing}")
    return PriorSpec(entries=entries)
