"""Span tracer that wraps gpforecast's functions from outside the package.

Each target names the module attribute through which a caller looks a
function up (``gpforecast.gp.cholesky`` is scipy's ``cholesky`` as ``gp``
sees it).  While a :class:`Tracer` is installed, that attribute is
replaced by a wrapper that records a span: name, start, end, and the span
that caused it.  Spans stay in memory; :meth:`Tracer.summary` turns them
into calls, inclusive seconds and self seconds per span name, where self
time is a span's duration minus the part of it that its child spans cover.

A target that does not exist in the checked-out code is reported as
absent rather than as zero, so later versions may drop a function without
breaking the benchmark.

Each thread keeps its own stack of open spans, so a span opened on a pool
thread has no parent; the summary's union of child intervals keeps self
time right even where children overlap.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

# An objective value at or above this is the stand-in the trainer returns
# for a trial point whose covariance could not be factorized.
PENALTY_FLOOR = 1e24


@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    span: str


# (where the caller looks the function up, span name).  Several targets may
# share a span name when one function is reached through two modules.
TARGETS = (
    Target("gpforecast", "load_csv", "bench.load_csv"),
    Target("gpforecast", "run_benchmark", "bench.run_benchmark"),
    Target("gpforecast", "forecast", "forecasting.forecast"),
    Target("gpforecast", "score", "metrics.score"),
    Target("gpforecast.bench", "score", "metrics.score"),
    Target("gpforecast.bench", "standardized_posterior", "forecasting.standardized_posterior"),
    Target("gpforecast.forecasting", "standardized_posterior", "forecasting.standardized_posterior"),
    Target("gpforecast.forecasting", "train", "training.train"),
    Target("gpforecast.forecasting", "fit", "gp.fit"),
    Target("gpforecast.forecasting", "predict", "gp.predict"),
    Target("gpforecast.training", "minimize", "training.minimize"),
    Target("gpforecast.training", "log_marginal_likelihood_and_grad", "gp.lml_grad"),
    Target("gpforecast.training", "log_prior", "priors.log_prior"),
    Target("gpforecast.training", "grad_log_prior", "priors.grad_log_prior"),
    Target("gpforecast.gp", "fit", "gp.fit"),
    Target("gpforecast.gp", "cholesky", "gp.cholesky"),
    Target("gpforecast.gp", "cho_solve", "gp.cho_solve"),
    Target("gpforecast.gp", "build_gram", "kernels.build_gram"),
    Target("gpforecast.gp", "grad_gram", "kernels.grad_gram"),
    Target("gpforecast.gp", "build_cross", "kernels.build_cross"),
    Target("gpforecast.gp", "zero_lag_variance", "kernels.zero_lag_variance"),
)


@dataclass
class _Span:
    name: str
    start: float
    end: float = 0.0
    parent: "_Span | None" = None
    children: list = field(default_factory=list)


class Tracer:
    """Installs wrappers on :data:`TARGETS`; use as a context manager."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: list[_Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.present: set[str] = set()

    # -- installation ---------------------------------------------------
    def __enter__(self) -> "Tracer":
        for target in TARGETS:
            try:
                module = importlib.import_module(target.module)
                original = getattr(module, target.attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{target.module}.{target.attr}")
                continue
            self._saved.append((module, target.attr, original))
            setattr(module, target.attr, self._wrap(target, original))
            self.present.add(target.span)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += amount

    # -- span recording -------------------------------------------------
    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> _Span:
        stack = self._stack()
        span = _Span(name=name, start=time.perf_counter(), parent=stack[-1] if stack else None)
        stack.append(span)
        return span

    def _close(self, span: _Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)
            if span.parent is not None:
                span.parent.children.append(span)

    def _wrap(self, target: Target, original):
        hook = _HOOKS.get(target.span)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if target.span == "training.minimize":
                args, kwargs = self._count_evals(args, kwargs)
            span = self._open(target.span)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _count_evals(self, args, kwargs):
        """Wrap the objective handed to the optimizer to count penalty evaluations."""
        fun = args[0] if args else kwargs["fun"]

        def counted(u, *rest):
            out = fun(u, *rest)
            value = out[0] if isinstance(out, tuple) else out
            if not value < PENALTY_FLOOR:
                self.count("training.penalty_evals")
            return out

        if args:
            return (counted,) + tuple(args[1:]), kwargs
        return args, dict(kwargs, fun=counted)

    # -- reporting ------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.present
        }
        for span in self.spans:
            entry = out[span.name]
            duration = span.end - span.start
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - _covered(span)
        return out


def _covered(span: _Span) -> float:
    """Length of the union of the children's intervals, clipped to the span."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end)) for c in span.children)
    total = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# -- counters taken from call arguments and results ----------------------
def _after_minimize(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("training.nit", int(result.nit))
    tracer.count("training.nfev", int(result.nfev))


def _after_train(tracer: Tracer, args, kwargs, result) -> None:
    if not result.converged:
        tracer.count("training.nonconverged")


def _after_cholesky(tracer: Tracer, args, kwargs, result) -> None:
    n = result.shape[0]
    tracer.count("gp.cholesky.flops_computed", n**3 / 3.0)


def _after_grad_gram(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("kernels.grad_gram.bytes_computed", result.size * result.itemsize)


_HOOKS = {
    "training.minimize": _after_minimize,
    "training.train": _after_train,
    "gp.cholesky": _after_cholesky,
    "kernels.grad_gram": _after_grad_gram,
}
