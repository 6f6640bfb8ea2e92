import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gpforecast import (
    HyperParams,
    InvalidHyperparameterError,
    KernelSpec,
    Term,
    TimeSeries,
    default_priors,
    default_spec,
    fit,
    log_marginal_likelihood_and_grad,
    map_objective,
    median_hyperparams,
    prepare_series,
)
from scipy.linalg import toeplitz

from gpforecast.kernels import (
    TERM_PARAMS,
    Differences,
    build_cross,
    build_gram,
    grad_gram,
    term_parts,
    zero_lag_variance,
)

FULL_SPEC = default_spec("single-seasonal")
PRIORS = default_priors()
MEDIANS = median_hyperparams(FULL_SPEC, PRIORS)


def single_term_spec(kind: str) -> KernelSpec:
    period = 1.0 if kind in ("PER", "PER2") else None
    return KernelSpec(terms=(Term(kind, period=period),))


def lag_column_of(spec, theta, x):
    """The last row of one grad_gram pass on the lags x - x[0] of the regular grid x, as gp.fit makes it."""
    return grad_gram(spec, theta.for_spec(spec), Differences.of(spec, x - x[0]))[-1]


def grid_gram(spec, theta, x):
    """The Gram of the regular grid x as gp.fit lays it out, before the jitter."""
    slope = theta.s2_lin if spec.lin is not None else 0.0
    return build_gram(lag_column_of(spec, theta, x), math.sqrt(slope) * x)


def covariance(spec, theta, x1, x2):
    """k(x1, x2) as the library computes it: an entry of the Gram of a two-point grid."""
    if x1 == x2:
        return float(grid_gram(spec, theta, np.array([x1, x1 + 1.0]))[0, 0])
    return float(grid_gram(spec, theta, np.array(sorted((x1, x2))))[1, 0])


class TestKernelValues:
    def test_rbf_zero_lag_equals_variance(self):
        spec = single_term_spec("RBF")
        for ell in (0.1, 1.0, 7.3):
            theta = HyperParams.of(spec, s2_rbf=2.0, ell_rbf=ell)
            assert covariance(spec, theta, 1.3, 1.3) == 2.0

    def test_periodic_exact_periodicity(self):
        spec = single_term_spec("PER")
        theta = HyperParams.of(spec, s2_per=0.8, ell_per=1.5)
        for x in (0.0, 0.3, 2.7):
            assert abs(covariance(spec, theta, x, x + 1.0) - covariance(spec, theta, x, x)) <= 1e-12

    def test_full_composition_matches_frozen_scalar_oracle(self):
        # prior medians, lag |x1 - x2| = 0.5; value frozen from the scalar
        # re-implementation in oracles.py, read off two Grams
        value = oracles.composition_value(FULL_SPEC, MEDIANS, 2.0, 1.5)
        assert value == pytest.approx(1.518181965213779, abs=1e-12)
        assert grid_gram(FULL_SPEC, MEDIANS, np.array([1.5, 2.0]))[1, 0] == pytest.approx(value, abs=1e-12)
        assert covariance(FULL_SPEC, MEDIANS, 2.0, 1.5) == pytest.approx(value, abs=1e-12)

    def test_rejects_nonpositive_and_missing_parameters(self):
        spec = single_term_spec("RBF")
        with pytest.raises(InvalidHyperparameterError):
            HyperParams.of(spec, s2_rbf=-1.0, ell_rbf=1.0)
        with pytest.raises(InvalidHyperparameterError, match="ell_rbf must be set"):
            HyperParams.of(spec, s2_rbf=1.0)  # a theta of fewer names is another spec's (see below)
        with pytest.raises(InvalidHyperparameterError):
            HyperParams.of(spec, s2_rbf=float("inf"), ell_rbf=1.0)


class TestZeroLag:
    def test_each_term_zero_lag_equals_its_variance(self):
        x = 1.7
        cases = [
            ("RBF", dict(s2_rbf=0.9, ell_rbf=2.0), 0.9),
            ("PER", dict(s2_per=1.4, ell_per=0.7), 1.4),
            ("SM1", dict(s2_sm1=0.6, ell_sm1=0.5, tau_sm1=2.0), 0.6),
            ("SM2", dict(s2_sm2=2.2, ell_sm2=3.0, tau_sm2=5.0), 2.2),
            ("WN", dict(s2_noise=0.31), 0.31),
        ]
        for kind, named, expected in cases:
            spec = single_term_spec(kind)
            assert covariance(spec, HyperParams.of(spec, **named), x, x) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("kind", ["PER", "PER2", "RBF", "SM1", "SM2"])
    def test_a_stationary_term_at_zero_difference_is_exactly_its_variance(self, kind):
        # zero_lag_variance sums the variances on this property, evaluating no term
        term = next(t for t in DOUBLE_SPEC.terms if t.kind == kind)
        names = TERM_PARAMS[kind]
        rng = np.random.default_rng(list(map(ord, kind)))
        corners = itertools.product((-3.0, 3.0), repeat=len(names))
        for z in [*corners, *np.clip(rng.standard_normal((200, len(names))), -3.0, 3.0)]:
            p = [math.exp(PRIORS[name].nu + zk * math.sqrt(PRIORS[name].lam)) for name, zk in zip(names, z)]
            value = term_parts(term, p, Differences.of(DOUBLE_SPEC, np.zeros(1)))[0]
            assert value.tolist() == [p[0]], (kind, p)

    def test_linear_zero_lag(self):
        spec = single_term_spec("LIN")
        theta = HyperParams.of(spec, s2_bias=0.4, s2_lin=0.25)
        x = 3.0
        assert covariance(spec, theta, x, x) == pytest.approx(0.4 + 0.25 * x * x)

    def test_zero_lag_variance_excludes_noise(self):
        x = np.array([0.0, 1.25])
        sig = zero_lag_variance(FULL_SPEC, MEDIANS.values, x)
        for i, xi in enumerate(x):
            expected = oracles.composition_value(FULL_SPEC, MEDIANS, xi, xi)
            assert sig[i] + MEDIANS.s2_noise == pytest.approx(expected, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_gram_with_jitter_is_positive_definite(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 21))
    x = oracles.random_grid(rng, n)
    theta = oracles.random_hyperparams(FULL_SPEC, PRIORS, rng, clip_sigmas=3.0)
    lower = np.linalg.cholesky(grid_gram(FULL_SPEC, theta, x) + 1e-8 * np.eye(n))
    assert np.all(np.diag(lower) > 0)


def test_periodicity_holds_for_integer_multiples():
    spec = single_term_spec("PER")
    theta = HyperParams.of(spec, s2_per=1.1, ell_per=0.9)
    for x in (0.0, 0.37, 5.2):
        base = covariance(spec, theta, x, x)
        for j in (1, 2, 3, 7):
            assert abs(covariance(spec, theta, x, x + j * 1.0) - base) <= 1e-10


def test_sm_converges_to_rbf_for_huge_tau():
    sm_spec = single_term_spec("SM1")
    rbf_spec = single_term_spec("RBF")
    sm_theta = HyperParams.of(sm_spec, s2_sm1=0.7, ell_sm1=1.3, tau_sm1=1e8)
    rbf_theta = HyperParams.of(rbf_spec, s2_rbf=0.7, ell_rbf=1.3)
    x = np.linspace(-4.0, 4.0, 17)
    assert np.max(np.abs(grid_gram(sm_spec, sm_theta, x) - grid_gram(rbf_spec, rbf_theta, x))) <= 1e-8


class TestBuildGram:
    def test_two_point_grid_diagonal(self):
        x = np.array([0.5, 1.5])
        gram = grid_gram(FULL_SPEC, MEDIANS, x)
        assert gram.shape == (2, 2)
        for i in range(2):
            assert gram[i, i] > 0
            assert gram[i, i] == pytest.approx(oracles.composition_value(FULL_SPEC, MEDIANS, x[i], x[i]), abs=1e-14)

    def test_rbf_three_points_positive_definite(self):
        spec = single_term_spec("RBF")
        theta = HyperParams.of(spec, s2_rbf=1.0, ell_rbf=0.8)
        gram = grid_gram(spec, theta, np.array([0.0, 1.25, 2.5]))
        lower = np.linalg.cholesky(gram)
        assert np.all(np.diag(lower) > 0)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(42)
        x = oracles.random_grid(rng, 4)
        gram = grid_gram(FULL_SPEC, MEDIANS, x)
        for i in range(4):
            for j in range(4):
                expected = oracles.composition_value(FULL_SPEC, MEDIANS, x[i], x[j])
                assert gram[i, j] == pytest.approx(expected, abs=1e-12)

    def test_symmetric_by_construction(self):
        rng = np.random.default_rng(3)
        x = oracles.random_grid(rng, 9) - 5.0
        gram = grid_gram(FULL_SPEC, MEDIANS, x)
        assert np.array_equal(gram, gram.T)


class TestBuildCross:
    """The cross-covariance of test points that continue the training grid, laid out from the n + m lags."""

    def test_empty_test_set(self):
        x = np.array([0.0, 1.0])
        cross = build_cross(lag_column_of(FULL_SPEC, MEDIANS, x), MEDIANS.s2_lin, np.empty(0), x)
        assert cross.shape == (0, 2)

    @pytest.mark.parametrize("mode", ["single-seasonal", "double-seasonal"])
    def test_equals_gram_minus_noise_diagonal(self, mode):
        # the test rows of the joint Gram of x and x*, less the noise on its diagonal,
        # are the cross-covariance; LIN's slope differs by sqrt(s2_lin)^2's rounding
        spec = default_spec(mode)
        theta = oracles.random_hyperparams(spec, PRIORS, np.random.default_rng(5), clip_sigmas=3.0)
        grid = 3.5 + np.arange(30) / 12.0
        x, x_star = grid[:24], grid[24:]
        column = lag_column_of(spec, theta, grid)
        cross = build_cross(column, theta.s2_lin if spec.lin is not None else 0.0, x_star, x)
        joint = grid_gram(spec, theta, grid) - theta.s2_noise * np.eye(grid.size)
        np.testing.assert_allclose(cross, joint[24:, :24], rtol=1e-14, atol=0.0)

    def test_noise_never_enters_cross_even_at_the_nearest_point(self):
        # prediction targets the latent function, so the step next to the last
        # training point must not pick up the noise variance
        spec = KernelSpec(terms=(Term("RBF"), Term("WN")))
        theta = HyperParams.of(spec, s2_rbf=1.0, ell_rbf=1.0, s2_noise=0.5)
        grid = np.arange(4) * 1e-9
        cross = build_cross(lag_column_of(spec, theta, grid), 0.0, grid[2:], grid[:2])
        assert cross[0, 1] == pytest.approx(1.0)
        assert np.all(cross <= 1.0)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(8)
        grid = oracles.random_grid(rng, 5)
        x, x_star = grid[:3], grid[3:]
        cross = build_cross(lag_column_of(FULL_SPEC, MEDIANS, grid), MEDIANS.s2_lin, x_star, x)
        for i in range(2):
            for j in range(3):
                expected = oracles.composition_value(FULL_SPEC, MEDIANS, x_star[i], x[j], include_noise=False)
                assert cross[i, j] == pytest.approx(expected, abs=1e-12)


class TestRegularGrid:
    """The Toeplitz Gram of a regular grid, the only training input."""

    @pytest.mark.parametrize(
        ("mode", "steps_per_year", "n"),
        [
            ("single-seasonal", 12.0, 2),
            ("single-seasonal", 12.0, 61),
            ("single-seasonal", 12.0, 500),
            ("double-seasonal", 1461.0, 2),
            ("double-seasonal", 1461.0, 61),
            ("double-seasonal", 1461.0, 500),
        ],
    )
    def test_gram_matches_scalar_oracle(self, mode, steps_per_year, n):
        spec = default_spec(mode)
        theta = oracles.random_hyperparams(spec, PRIORS, np.random.default_rng(n))
        x = np.arange(n) / steps_per_year
        gram = grid_gram(spec, theta, x)
        expected = np.array([[oracles.composition_value(spec, theta, a, b) for b in x] for a in x])
        assert np.max(np.abs(gram - expected)) <= 1e-12

    @pytest.mark.parametrize(("mode", "steps_per_year"), [("single-seasonal", 12.0), ("double-seasonal", 1461.0)])
    @pytest.mark.parametrize("x0", [7.25, -3.5])
    @pytest.mark.parametrize("lin", [False, True])
    def test_offset_grid_gram_is_exactly_symmetric(self, mode, steps_per_year, x0, lin):
        # LIN's slope enters as a rank-1 update in place; scaling both vectors by
        # sqrt(s2_lin) keeps it symmetric, scaling the product by s2_lin does not
        spec = default_spec(mode)
        theta = oracles.random_hyperparams(spec, PRIORS, np.random.default_rng(61))
        if lin:  # LIN-dominated
            theta = oracles.replace(theta, s2_lin=37.0, s2_bias=23.0)
        x = x0 + np.arange(61) / steps_per_year
        gram = grid_gram(spec, theta, x)
        assert np.array_equal(gram, gram.T)
        expected = np.array([[oracles.composition_value(spec, theta, a, b) for b in x] for a in x])
        assert np.max(np.abs(gram - expected)) <= 1e-12 * np.max(np.abs(expected))


def pairwise(spec, x):
    """Differences of every pair of points as n-by-n arrays, as the spec's stationary terms read them."""
    return Differences.of(spec, x[:, None] - x[None, :])


def linear_parts(p, x):
    """LIN's partials on every pair of points, from the oracle's formula.

    dk/dlog s2_bias is LIN with s2_lin = 0, dk/dlog s2_lin LIN with
    s2_bias = 0.  The products go in as x1 with x2 = 1, so the slope rounds
    as s2_lin * (x1 x2) does in the library.
    """
    s2_bias, s2_lin = p
    xx = np.multiply.outer(x, x)
    return [oracles.linear_value(s2_bias, 0.0, xx, 1.0), oracles.linear_value(0.0, s2_lin, xx, 1.0)]


def dense_parts(term, p, x):
    """Partials of one term on every pair of points: term_parts', or the oracle's for LIN."""
    return linear_parts(p, x) if term.kind == "LIN" else term_parts(term, p, pairwise(KernelSpec(terms=(term,)), x))


def term_values(spec, theta):
    """Each term with its parameter values in TERM_PARAMS order, read field by field."""
    return [(t, [getattr(theta, name) for name in TERM_PARAMS[t.kind]]) for t in spec.terms]


class TestGradGram:
    """Partials of the Gram matrix w.r.t. the log-space trainables, term by term from term_parts."""

    def test_noise_gradient_is_scaled_identity(self):
        x = np.array([0.0, 0.3, 0.9])
        partials = term_parts(Term("WN"), [MEDIANS.s2_noise], pairwise(single_term_spec("WN"), x))
        assert len(partials) == 1
        np.testing.assert_allclose(partials[0], MEDIANS.s2_noise * np.eye(3))

    def test_log_variance_gradient_equals_term(self):
        spec = single_term_spec("RBF")
        theta = HyperParams.of(spec, s2_rbf=1.7, ell_rbf=0.6)
        x = np.linspace(0.0, 2.0, 5)
        partials = term_parts(spec.terms[0], theta.values, pairwise(spec, x))
        np.testing.assert_allclose(partials[0], grid_gram(spec, theta, x))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_partials_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = oracles.random_grid(rng, 6)
        theta = oracles.random_hyperparams(FULL_SPEC, PRIORS, rng)
        names = FULL_SPEC.trainable_names()
        u = np.log(theta.values)
        analytic = [g for t, p in term_values(FULL_SPEC, theta) for g in dense_parts(t, p, x)]
        h = 1e-5
        for k in range(len(names)):
            up, down = u.copy(), u.copy()
            up[k] += h
            down[k] -= h
            fd = (
                oracles.dense_gram(FULL_SPEC, HyperParams.from_log(FULL_SPEC, up), x)
                - oracles.dense_gram(FULL_SPEC, HyperParams.from_log(FULL_SPEC, down), x)
            ) / (2.0 * h)
            assert np.max(np.abs(analytic[k] - fd)) <= 1e-5

    def test_ordering_matches_trainable_names(self):
        names = FULL_SPEC.trainable_names()
        assert names == (
            "s2_per",
            "ell_per",
            "s2_bias",
            "s2_lin",
            "s2_rbf",
            "ell_rbf",
            "s2_sm1",
            "ell_sm1",
            "tau_sm1",
            "s2_sm2",
            "ell_sm2",
            "tau_sm2",
            "s2_noise",
        )
        x = np.array([0.0, 1.0])
        partials = [g for t, p in term_values(FULL_SPEC, MEDIANS) for g in dense_parts(t, p, x)]
        assert len(partials) == len(names)
        assert all(g.shape == (2, 2) for g in partials)


    @pytest.mark.parametrize("mode", ["single-seasonal", "double-seasonal"])
    def test_grad_gram_on_lags_lays_out_the_stationary_partials_then_the_lag_column(self, mode):
        # q partial rows, then the covariance at each lag: with LIN's slope,
        # its Toeplitz matrix is the dense oracle's Gram
        spec = default_spec(mode)
        theta = oracles.random_hyperparams(spec, PRIORS, np.random.default_rng(3))
        x = np.arange(40) / 12.0
        rows = grad_gram(spec, theta.values, Differences.of(spec, x))
        dense = [g for t, p in term_values(spec, theta) if t.kind != "LIN" for g in term_parts(t, p, pairwise(spec, x))]
        assert rows.shape == (len(spec.trainable_names()) - 2 + 1, x.size)
        for row, g in zip(rows[:-1], dense, strict=True):
            np.testing.assert_allclose(toeplitz(row), g, rtol=1e-12, atol=1e-12)
        gram = toeplitz(rows[-1]) + theta.s2_lin * np.multiply.outer(x, x)
        np.testing.assert_allclose(gram, oracles.dense_gram(spec, theta, x), rtol=1e-12, atol=1e-12)

    def test_a_sum_that_overflows_raises_naming_grad_gram(self):
        # each term's rows are finite at 1e308, but two such variances sum to inf at lag 0
        spec = KernelSpec(terms=(Term("RBF"), Term("WN")))
        differences = Differences.of(spec, np.arange(5) / 12.0)
        assert np.isfinite(term_parts(spec.terms[0], [1e308, 1.0], differences)).all()
        with pytest.raises(InvalidHyperparameterError, match="grad_gram"):
            grad_gram(spec, [1e308, 1.0, 1e308], differences)

    @pytest.mark.parametrize("name", ["ell_rbf", "ell_per", "ell_sm1"])
    def test_a_lengthscale_whose_square_underflows_keeps_the_zero_lag_limit(self, name):
        # 1e-170 squared underflows to 0; floored at the smallest normal float,
        # lag 0 still gives each term's variance s2, not 0/0
        tiny, unit = (oracles.replace(MEDIANS, **{name: ell}) for ell in (1e-170, 1.0))
        series = prepare_series(FULL_SPEC, TimeSeries(np.sin(np.arange(36) / 2.0), 12.0))
        rows = grad_gram(FULL_SPEC, tiny.values, series.diffs)
        assert np.isfinite(rows).all()
        assert rows[-1][0] == grad_gram(FULL_SPEC, unit.values, series.diffs)[-1][0]
        lml, grad = log_marginal_likelihood_and_grad(tiny.values, series)
        assert math.isfinite(lml) and np.isfinite(grad).all()
        fit(tiny, series, 6)


class TestSpecAndHyperparams:
    def test_term_validation(self):
        with pytest.raises(ValueError):
            Term("PER")  # needs a period
        with pytest.raises(ValueError):
            Term("RBF", period=1.0)  # must not take one
        with pytest.raises(ValueError):
            Term("NOPE")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(terms=())
        with pytest.raises(ValueError):
            KernelSpec(terms=(Term("RBF"), Term("RBF")))

    def test_log_round_trip(self):
        assert HyperParams.from_log(FULL_SPEC, np.log(MEDIANS.values)) == MEDIANS

    def test_reads_trainables_by_name(self):
        assert MEDIANS.s2_noise == MEDIANS.values[MEDIANS.names.index("s2_noise")]
        assert oracles.replace(MEDIANS, s2_noise=0.25).s2_noise == 0.25
        with pytest.raises(AttributeError, match="s2_per2"):
            MEDIANS.s2_per2  # not a trainable of the single-seasonal spec
        with pytest.raises(ValueError, match="s2_per2") as raised:
            HyperParams.of(FULL_SPEC, s2_per2=1.0)
        assert type(raised.value) is ValueError  # a caller's bug, which no benchmark records as a series failure

    @pytest.mark.parametrize(
        "spec",
        [
            FULL_SPEC,
            default_spec("double-seasonal"),
            KernelSpec(terms=(Term("LIN"), Term("PER", period=1.0), Term("RBF"), Term("WN"))),
            KernelSpec(terms=(Term("PER", period=1.0), Term("RBF"), Term("SM1"), Term("WN"))),
            KernelSpec(terms=(Term("PER", period=1.0), Term("LIN"), Term("RBF"))),
            KernelSpec(terms=(Term("WN"),)),
        ],
        ids=["single-seasonal", "double-seasonal", "lin-first", "without-lin", "without-wn", "wn-only"],
    )
    def test_layout_agrees_with_the_trainable_names(self, spec):
        names = spec.trainable_names()
        if "s2_bias" in names:
            assert names[spec.lin] == TERM_PARAMS["LIN"]
        else:
            assert spec.lin is None
        if "s2_noise" in names:
            assert names[spec.noise] == "s2_noise"
        else:
            assert spec.noise is None
        assert spec.stationary.dtype == bool
        assert spec.stationary.tolist() == [name not in TERM_PARAMS["LIN"] for name in names]
        assert not spec.stationary.flags.writeable
        with pytest.raises(ValueError):
            spec.stationary[0] = not spec.stationary[0]


DOUBLE_SPEC = default_spec("double-seasonal")  # every term kind, PER2 included
DOUBLE_MEDIANS = median_hyperparams(DOUBLE_SPEC, PRIORS)
SERIES = TimeSeries(np.zeros(6), 1461.0)


def medians_but(name, bad):
    """The double-seasonal medians by name, with ``name`` set to ``bad``, or left out if ``bad`` is None."""
    named = dict(zip(DOUBLE_MEDIANS.names, DOUBLE_MEDIANS.values))
    if bad is None:
        del named[name]
    else:
        named[name] = bad
    return named


CONSTRUCTORS = {
    "init": lambda named: HyperParams(DOUBLE_MEDIANS.names, tuple(named.get(n) for n in DOUBLE_MEDIANS.names)),
    "of": lambda named: HyperParams.of(DOUBLE_SPEC, **named),
    "replace": lambda named: oracles.replace(DOUBLE_MEDIANS, **{n: named.get(n) for n in DOUBLE_MEDIANS.names}),
}


@pytest.mark.parametrize("bad", [None, 0.0, -1.0, math.inf, math.nan], ids=["unset", "zero", "negative", "inf", "nan"])
@pytest.mark.parametrize("constructor", sorted(CONSTRUCTORS))
def test_every_constructor_rejects_each_invalid_trainable(constructor, bad):
    make = CONSTRUCTORS[constructor]
    assert make(medians_but("s2_noise", DOUBLE_MEDIANS.s2_noise)) == DOUBLE_MEDIANS
    for name in DOUBLE_SPEC.trainable_names():
        with pytest.raises(InvalidHyperparameterError, match=rf"\b{name}\b"):
            make(medians_but(name, bad))


# exp(u) is never negative or unset; 1e3 overflows to inf
@pytest.mark.parametrize("bad_u", [-math.inf, math.inf, math.nan, 1e3], ids=["zero", "inf", "nan", "overflow"])
def test_from_log_rejects_each_invalid_trainable(bad_u):
    u = np.log(DOUBLE_MEDIANS.values)
    for k, name in enumerate(DOUBLE_SPEC.trainable_names()):
        moved = u.copy()
        moved[k] = bad_u
        with pytest.raises(InvalidHyperparameterError, match=rf"\b{name}\b"):
            HyperParams.from_log(DOUBLE_SPEC, moved)


ENTRY_POINTS = {
    "fit": lambda theta: fit(theta, prepare_series(DOUBLE_SPEC, SERIES)),
    "map_objective": lambda theta: map_objective(DOUBLE_SPEC, PRIORS, theta, SERIES),
}


OTHER_SPECS = {
    "fewer-trainables": default_spec("single-seasonal"),
    "reordered-trainables": KernelSpec(terms=DOUBLE_SPEC.terms[::-1]),
}


@pytest.mark.parametrize("other", sorted(OTHER_SPECS))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_rejects_a_theta_made_for_another_spec(entry, other):
    call = ENTRY_POINTS[entry]
    call(DOUBLE_MEDIANS)  # valid for its own spec, so only the mismatch can raise below
    with pytest.raises(ValueError, match="spec trains") as raised:
        call(median_hyperparams(OTHER_SPECS[other], PRIORS))
    assert type(raised.value) is ValueError  # a caller's bug, which no benchmark records as a series failure
