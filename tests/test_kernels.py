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
    build_cross,
    build_gram,
    default_priors,
    default_spec,
    eval_kernel,
    fit,
    map_objective,
    median_hyperparams,
    prepare_series,
    zero_lag_variance,
)
from scipy.linalg import toeplitz

from gpforecast import kernels
from gpforecast.kernels import TERM_PARAMS, Differences, grad_gram, regular_lags, term_parts

FULL_SPEC = default_spec("single-seasonal")
PRIORS = default_priors()
MEDIANS = median_hyperparams(FULL_SPEC, PRIORS)


def single_term_spec(kind: str) -> KernelSpec:
    period = 1.0 if kind in ("PER", "PER2") else None
    return KernelSpec(terms=(Term(kind, period=period),))


class TestEvalKernel:
    def test_rbf_zero_lag_equals_variance(self):
        spec = single_term_spec("RBF")
        for ell in (0.1, 1.0, 7.3):
            theta = HyperParams.of(spec, s2_rbf=2.0, ell_rbf=ell)
            assert eval_kernel(spec, theta, 1.3, 1.3) == 2.0

    def test_periodic_exact_periodicity(self):
        spec = single_term_spec("PER")
        theta = HyperParams.of(spec, s2_per=0.8, ell_per=1.5)
        for x in (0.0, 0.3, 2.7):
            assert abs(eval_kernel(spec, theta, x, x + 1.0) - eval_kernel(spec, theta, x, x)) <= 1e-12

    def test_full_composition_matches_frozen_scalar_oracle(self):
        # prior medians, lag |x1 - x2| = 0.5; value frozen from the scalar
        # re-implementation in oracles.py
        value = eval_kernel(FULL_SPEC, MEDIANS, 2.0, 1.5)
        assert value == pytest.approx(1.518181965213779, abs=1e-12)
        assert value == pytest.approx(oracles.composition_value(FULL_SPEC, MEDIANS, 2.0, 1.5), abs=1e-12)

    def test_rejects_nonpositive_and_missing_parameters(self):
        spec = single_term_spec("RBF")
        with pytest.raises(InvalidHyperparameterError):
            HyperParams.of(spec, s2_rbf=-1.0, ell_rbf=1.0)
        with pytest.raises(InvalidHyperparameterError):
            eval_kernel(spec, HyperParams(("s2_rbf",), (1.0,)), 0.0, 1.0)
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
            assert eval_kernel(spec, HyperParams.of(spec, **named), x, x) == pytest.approx(expected, rel=1e-15)

    def test_linear_zero_lag(self):
        spec = single_term_spec("LIN")
        theta = HyperParams.of(spec, s2_bias=0.4, s2_lin=0.25)
        x = 3.0
        assert eval_kernel(spec, theta, x, x) == pytest.approx(0.4 + 0.25 * x * x)

    def test_zero_lag_variance_excludes_noise(self):
        x = np.array([0.0, 1.25])
        sig = zero_lag_variance(FULL_SPEC, MEDIANS, x)
        for i, xi in enumerate(x):
            assert sig[i] + MEDIANS.s2_noise == pytest.approx(eval_kernel(FULL_SPEC, MEDIANS, xi, xi), abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), x1=st.floats(-40.0, 40.0), x2=st.floats(-40.0, 40.0))
def test_symmetry_is_exact(seed, x1, x2):
    rng = np.random.default_rng(seed)
    theta = oracles.random_hyperparams(FULL_SPEC, PRIORS, rng, clip_sigmas=3.0)
    assert eval_kernel(FULL_SPEC, theta, x1, x2) == eval_kernel(FULL_SPEC, theta, x2, x1)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_gram_with_jitter_is_positive_definite(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 21))
    x = np.sort(rng.uniform(0.0, 10.0, size=n))
    theta = oracles.random_hyperparams(FULL_SPEC, PRIORS, rng, clip_sigmas=3.0)
    gram = build_gram(FULL_SPEC, theta, x)
    lower = np.linalg.cholesky(gram + 1e-8 * np.eye(n))
    assert np.all(np.diag(lower) > 0)


def test_periodicity_holds_for_integer_multiples():
    spec = single_term_spec("PER")
    theta = HyperParams.of(spec, s2_per=1.1, ell_per=0.9)
    for x in (0.0, 0.37, 5.2):
        base = eval_kernel(spec, theta, x, x)
        for j in (1, 2, 3, 7):
            assert abs(eval_kernel(spec, theta, x, x + j * 1.0) - base) <= 1e-10


def test_sm_converges_to_rbf_for_huge_tau():
    sm_spec = single_term_spec("SM1")
    rbf_spec = single_term_spec("RBF")
    sm_theta = HyperParams.of(sm_spec, s2_sm1=0.7, ell_sm1=1.3, tau_sm1=1e8)
    rbf_theta = HyperParams.of(rbf_spec, s2_rbf=0.7, ell_rbf=1.3)
    for lag in np.linspace(-4.0, 4.0, 17):
        sm = eval_kernel(sm_spec, sm_theta, 0.0, lag)
        rbf = eval_kernel(rbf_spec, rbf_theta, 0.0, lag)
        assert abs(sm - rbf) <= 1e-8


class TestBuildGram:
    def test_single_point(self):
        gram = build_gram(FULL_SPEC, MEDIANS, np.array([0.5]))
        assert gram.shape == (1, 1)
        assert gram[0, 0] > 0
        assert gram[0, 0] == pytest.approx(eval_kernel(FULL_SPEC, MEDIANS, 0.5, 0.5), abs=1e-14)

    def test_rbf_three_points_positive_definite(self):
        spec = single_term_spec("RBF")
        theta = HyperParams.of(spec, s2_rbf=1.0, ell_rbf=0.8)
        gram = build_gram(spec, theta, np.array([0.0, 1.0, 2.5]))
        lower = np.linalg.cholesky(gram)
        assert np.all(np.diag(lower) > 0)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(42)
        x = np.sort(rng.uniform(0.0, 6.0, size=4))
        gram = build_gram(FULL_SPEC, MEDIANS, x)
        for i in range(4):
            for j in range(4):
                assert gram[i, j] == pytest.approx(eval_kernel(FULL_SPEC, MEDIANS, x[i], x[j]), abs=1e-12)
                expected = oracles.composition_value(FULL_SPEC, MEDIANS, x[i], x[j])
                assert gram[i, j] == pytest.approx(expected, abs=1e-12)

    def test_symmetric_by_construction(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-5.0, 5.0, size=9)
        gram = build_gram(FULL_SPEC, MEDIANS, x)
        assert np.array_equal(gram, gram.T)

    def test_off_grid_gram_has_the_bits_of_the_n_by_n_formulas(self):
        # off a grid each pair i >= j is evaluated once and mirrored; every entry
        # must carry the bits the term formulas give on the n-by-n differences
        rng = np.random.default_rng(11)
        x = np.concatenate((rng.uniform(0.0, 6.0, size=12), [1.5, 1.5]))
        theta = oracles.random_hyperparams(FULL_SPEC, PRIORS, rng)
        values = iter(theta.values)
        expected = np.zeros((x.size, x.size))
        for term in FULL_SPEC.terms:
            p = [next(values) for _ in TERM_PARAMS[term.kind]]
            expected = expected + dense_parts(term, p, x)[0]
        assert regular_lags(x) is None
        np.testing.assert_array_equal(build_gram(FULL_SPEC, theta, x), expected)

    def test_noise_lands_on_exact_duplicates(self):
        x = np.array([0.0, 1.0, 1.0, 2.0])
        spec = KernelSpec(terms=(Term("RBF"), Term("WN")))
        theta = HyperParams.of(spec, s2_rbf=1.0, ell_rbf=1.0, s2_noise=0.3)
        gram = build_gram(spec, theta, x)
        assert gram[1, 2] == pytest.approx(1.0 + 0.3)
        assert gram[0, 1] == pytest.approx(math.exp(-0.5))


class TestBuildCross:
    def test_equals_gram_minus_noise_diagonal(self):
        x = np.array([0.0, 0.4, 1.1])
        gram = build_gram(FULL_SPEC, MEDIANS, x)
        cross = build_cross(FULL_SPEC, MEDIANS, x, x)
        np.testing.assert_array_equal(cross, gram - MEDIANS.s2_noise * np.eye(3))

    def test_empty_test_set(self):
        cross = build_cross(FULL_SPEC, MEDIANS, np.empty(0), np.array([0.0, 1.0]))
        assert cross.shape == (0, 2)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(8)
        x = np.sort(rng.uniform(0.0, 5.0, size=3))
        x_star = np.sort(rng.uniform(5.5, 8.0, size=2))
        cross = build_cross(FULL_SPEC, MEDIANS, x_star, x)
        for i in range(2):
            for j in range(3):
                expected = oracles.composition_value(FULL_SPEC, MEDIANS, x_star[i], x[j], include_noise=False)
                assert cross[i, j] == pytest.approx(expected, abs=1e-12)

    def test_long_horizon_in_blocks_equals_one_block(self, monkeypatch):
        # 3 x 4000 entries take two blocks of test points, which must give one block's bits
        x = np.arange(4000) / 12.0
        x_star = 4000.0 / 12.0 + np.array([0.0, 0.5, 7.0])
        blocked = build_cross(FULL_SPEC, MEDIANS, x_star, x)
        monkeypatch.setattr(kernels, "_CROSS_BLOCK", x.size * x_star.size)
        np.testing.assert_array_equal(blocked, build_cross(FULL_SPEC, MEDIANS, x_star, x))

    def test_noise_never_enters_cross_even_at_coincident_points(self):
        # prediction targets the latent function, so a duplicated test point
        # must not pick up the noise variance
        spec = KernelSpec(terms=(Term("RBF"), Term("WN")))
        theta = HyperParams.of(spec, s2_rbf=1.0, ell_rbf=1.0, s2_noise=0.5)
        cross = build_cross(spec, theta, np.array([1.0]), np.array([1.0, 2.0]))
        assert cross[0, 0] == pytest.approx(1.0)


class TestRegularGrid:
    """build_gram's Toeplitz path, taken whenever x is a regular grid."""

    @pytest.mark.parametrize("steps_per_year", [4.0, 12.0, 1461.0])
    @pytest.mark.parametrize("n", [2, 3, 115, 500])
    def test_time_index_grids_are_detected(self, steps_per_year, n):
        x = np.arange(n) / steps_per_year
        np.testing.assert_array_equal(regular_lags(x), x - x[0])
        assert regular_lags(x + 7.25) is not None

    def test_irregular_grids_take_the_dense_path(self):
        rng = np.random.default_rng(0)
        grid = np.arange(10) / 12.0
        assert regular_lags(np.array([0.5])) is None
        assert regular_lags(np.sort(rng.uniform(0.0, 6.0, size=10))) is None
        assert regular_lags(grid[::-1]) is None  # h < 0
        assert regular_lags(np.zeros(4)) is None  # h = 0
        assert regular_lags(np.array([0.0, 1.0, 1.0, 2.0])) is None  # a duplicate
        assert regular_lags(rng.permutation(grid)) is None
        nudged = grid.copy()
        nudged[5] += 1e-9
        assert regular_lags(nudged) is None

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
        gram = build_gram(spec, theta, x)
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
            theta = theta.replace(s2_lin=37.0, s2_bias=23.0)
        x = x0 + np.arange(61) / steps_per_year
        assert regular_lags(x) is not None
        gram = build_gram(spec, theta, x)
        assert np.array_equal(gram, gram.T)
        expected = np.array([[oracles.composition_value(spec, theta, a, b) for b in x] for a in x])
        assert np.max(np.abs(gram - expected)) <= 1e-12 * np.max(np.abs(expected))


def pairwise(spec, x):
    """Differences of every pair of points as n-by-n arrays, as the spec's stationary terms read them."""
    return Differences.of(spec, x[:, None] - x[None, :])


def linear_parts(p, x):
    """LIN's value and partials on every pair of points, from the oracle's formula.

    dk/dlog s2_bias is LIN with s2_lin = 0, dk/dlog s2_lin LIN with
    s2_bias = 0.  The products go in as x1 with x2 = 1, so the slope rounds
    as s2_lin * (x1 x2) does in the library.
    """
    s2_bias, s2_lin = p
    xx = np.multiply.outer(x, x)
    value = oracles.linear_value(s2_bias, s2_lin, xx, 1.0)
    return value, [oracles.linear_value(s2_bias, 0.0, xx, 1.0), oracles.linear_value(0.0, s2_lin, xx, 1.0)]


def dense_parts(term, p, x):
    """Value and partials of one term on every pair of points: term_parts', or the oracle's for LIN."""
    return linear_parts(p, x) if term.kind == "LIN" else term_parts(term, p, pairwise(KernelSpec(terms=(term,)), x))


def term_values(spec, theta):
    """Each term with its parameter values in TERM_PARAMS order, read field by field."""
    return [(t, [getattr(theta, name) for name in TERM_PARAMS[t.kind]]) for t in spec.terms]


class TestGradGram:
    """Partials of the Gram matrix w.r.t. the log-space trainables, term by term from term_parts."""

    def test_noise_gradient_is_scaled_identity(self):
        x = np.array([0.0, 0.3, 0.9])
        _, partials = term_parts(Term("WN"), [MEDIANS.s2_noise], pairwise(single_term_spec("WN"), x))
        assert len(partials) == 1
        np.testing.assert_allclose(partials[0], MEDIANS.s2_noise * np.eye(3))

    def test_log_variance_gradient_equals_term(self):
        spec = single_term_spec("RBF")
        theta = HyperParams.of(spec, s2_rbf=1.7, ell_rbf=0.6)
        x = np.linspace(0.0, 2.0, 5)
        value, partials = term_parts(spec.terms[0], theta.values, pairwise(spec, x))
        np.testing.assert_allclose(partials[0], build_gram(spec, theta, x))
        np.testing.assert_array_equal(partials[0], value)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_partials_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(0.0, 6.0, size=6))
        theta = oracles.random_hyperparams(FULL_SPEC, PRIORS, rng)
        names = FULL_SPEC.trainable_names()
        u = np.log(theta.values)
        analytic = [g for t, p in term_values(FULL_SPEC, theta) for g in dense_parts(t, p, x)[1]]
        h = 1e-5
        for k in range(len(names)):
            up, down = u.copy(), u.copy()
            up[k] += h
            down[k] -= h
            fd = (
                build_gram(FULL_SPEC, HyperParams.from_log(FULL_SPEC, up), x)
                - build_gram(FULL_SPEC, HyperParams.from_log(FULL_SPEC, down), x)
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
        partials = [g for t, p in term_values(FULL_SPEC, MEDIANS) for g in dense_parts(t, p, x)[1]]
        assert len(partials) == len(names)
        assert all(g.shape == (2, 2) for g in partials)


    @pytest.mark.parametrize("mode", ["single-seasonal", "double-seasonal"])
    def test_grad_gram_on_lags_lays_out_the_stationary_partials(self, mode):
        spec = default_spec(mode)
        theta = oracles.random_hyperparams(spec, PRIORS, np.random.default_rng(3))
        x = np.arange(40) / 12.0
        rows = grad_gram(spec, theta.values, Differences.of(spec, regular_lags(x)))
        dense = [
            g for t, p in term_values(spec, theta) if t.kind != "LIN" for g in term_parts(t, p, pairwise(spec, x))[1]
        ]
        assert rows.shape == (len(spec.trainable_names()) - 2, x.size)
        for row, g in zip(rows, dense):
            np.testing.assert_allclose(toeplitz(row), g, rtol=1e-12, atol=1e-12)


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
        assert MEDIANS.replace(s2_noise=0.25).s2_noise == 0.25
        with pytest.raises(AttributeError, match="s2_per2"):
            MEDIANS.s2_per2  # not a trainable of the single-seasonal spec
        with pytest.raises(InvalidHyperparameterError, match="s2_per2"):
            MEDIANS.replace(s2_per2=1.0)


DOUBLE_SPEC = default_spec("double-seasonal")  # every term kind, PER2 included
DOUBLE_MEDIANS = median_hyperparams(DOUBLE_SPEC, PRIORS)
GRID = np.arange(6) / 1461.0


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
    "replace": lambda named: DOUBLE_MEDIANS.replace(**{n: named.get(n) for n in DOUBLE_MEDIANS.names}),
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
    "eval_kernel": lambda theta: eval_kernel(DOUBLE_SPEC, theta, 0.0, 0.5),
    "build_gram": lambda theta: build_gram(DOUBLE_SPEC, theta, GRID),
    "build_cross": lambda theta: build_cross(DOUBLE_SPEC, theta, np.array([0.5]), GRID),
    "zero_lag_variance": lambda theta: zero_lag_variance(DOUBLE_SPEC, theta, GRID),
    "fit": lambda theta: fit(theta, prepare_series(DOUBLE_SPEC, GRID, np.zeros(GRID.size))),
    "map_objective": lambda theta: map_objective(DOUBLE_SPEC, PRIORS, theta, GRID, np.zeros(GRID.size)),
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
    with pytest.raises(InvalidHyperparameterError, match="spec trains"):
        call(median_hyperparams(OTHER_SPECS[other], PRIORS))
