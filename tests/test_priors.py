import math

import numpy as np
import pytest

import oracles
from gpforecast import (
    HyperParams,
    InvalidHyperparameterError,
    KernelSpec,
    LogNormalPrior,
    PriorSpec,
    Term,
    default_priors,
    default_spec,
    format_priors,
    grad_log_prior,
    load_priors,
    log_prior,
    median_hyperparams,
)

PRIORS = default_priors()
FULL_SPEC = default_spec("single-seasonal")
# lam != 1 everywhere (variances and lengthscales each share one), so each log normalizer is nonzero
WIDE_PRIORS = PriorSpec(
    entries={name: LogNormalPrior(p.nu, 0.7 if name.startswith("s2_") else 2.5) for name, p in PRIORS.entries.items()}
)

# reference quantile targets: (parameter, median, 95th percentile)
QUANTILE_TABLE = [
    ("s2_rbf", 0.2, 1.2),  # shared by every variance entry
    ("ell_per", 1.2, 6.3),
    ("ell_rbf", 3.0, 15.4),
    ("ell_sm1", 0.5, 2.5),
    ("tau_sm1", 1.7, 8.6),
    ("ell_sm2", 3.0, 15.4),
    ("tau_sm2", 5.0, 25.8),
]


class TestDefaultConstants:
    def test_exact_constants(self):
        for name in ("s2_per", "s2_per2", "s2_bias", "s2_lin", "s2_rbf", "s2_sm1", "s2_sm2", "s2_noise"):
            assert PRIORS[name] == LogNormalPrior(nu=-1.5, lam=1.0)
        assert PRIORS["ell_per"] == LogNormalPrior(nu=0.2, lam=1.0)
        assert PRIORS["ell_per2"] == LogNormalPrior(nu=0.2, lam=1.0)
        assert PRIORS["ell_rbf"] == LogNormalPrior(nu=1.1, lam=1.0)
        assert PRIORS["ell_sm1"] == LogNormalPrior(nu=-0.7, lam=1.0)
        assert PRIORS["tau_sm1"] == LogNormalPrior(nu=0.5, lam=1.0)
        assert PRIORS["ell_sm2"] == LogNormalPrior(nu=1.1, lam=1.0)
        assert PRIORS["tau_sm2"] == LogNormalPrior(nu=1.6, lam=1.0)

    def test_variance_median_near_printed_value(self):
        # exp(-1.5) = 0.2231, printed as 0.2
        assert PRIORS["s2_rbf"].median() == pytest.approx(0.22313016014842982, abs=1e-12)
        assert abs(PRIORS["s2_rbf"].median() - 0.2) <= 0.05

    def test_rbf_lengthscale_median_near_printed_value(self):
        assert PRIORS["ell_rbf"].median() == pytest.approx(3.0041660239464334, abs=1e-12)
        assert abs(PRIORS["ell_rbf"].median() - 3.0) <= 0.05

    def test_sm2_tau_95th_percentile(self):
        # exp(1.6 + 1.645) = 25.6617; the reference target 25.8 reflects
        # one-decimal rounding of nu, so compare with the rounding-aware bound
        p95 = math.exp(1.6 + 1.645 * math.sqrt(PRIORS["tau_sm2"].lam))
        assert p95 == pytest.approx(25.66171006022827, abs=1e-10)
        assert abs(p95 - 25.8) <= 0.05 * 25.8 + 0.055

    @pytest.mark.parametrize("name,median,p95", QUANTILE_TABLE)
    def test_quantile_reproduction_with_rounding_bound(self, name, median, p95):
        # both the nu constants and the quantile targets round to one decimal,
        # so the defensible bound is 5% (from nu) plus 0.055 (from the value)
        prior = PRIORS[name]
        assert abs(prior.median() - median) <= 0.05 * median + 0.055
        computed_p95 = math.exp(prior.nu + 1.645 * math.sqrt(prior.lam))
        assert abs(computed_p95 - p95) <= 0.05 * p95 + 0.055
        assert prior.quantile(0.5) == pytest.approx(prior.median())

    def test_quantile_matches_the_normal_quantile_of_scipy_special(self):
        # the package inverts the normal CDF with statistics.NormalDist; scipy is the oracle here only
        from scipy.special import ndtri

        prior = LogNormalPrior(nu=0.5, lam=2.0)
        q = np.concatenate([np.logspace(-12.0, -1.0, 200), np.linspace(0.1, 0.9, 161), 1.0 - np.logspace(-1.0, -12.0, 200)])
        got = np.array([math.log(prior.quantile(float(p))) for p in q])
        np.testing.assert_allclose(got, 0.5 + math.sqrt(2.0) * ndtri(q), rtol=1e-13, atol=1e-13)

    def test_shared_variance_invariant_enforced(self):
        entries = dict(PRIORS.entries)
        entries["s2_rbf"] = LogNormalPrior(nu=0.0, lam=1.0)
        with pytest.raises(ValueError, match="share a single prior"):
            PriorSpec(entries=entries)

    def test_shared_lengthscale_lam_enforced(self):
        entries = dict(PRIORS.entries)
        entries["ell_rbf"] = LogNormalPrior(nu=1.1, lam=2.0)
        with pytest.raises(ValueError, match="one log-variance"):
            PriorSpec(entries=entries)

    def test_unknown_name_rejected_when_made(self):
        # a typo in priors built in code fails here, naming the typo, not later
        # as a KeyError for the name it was meant to be
        entries = dict(PRIORS.entries)
        entries["ell_rbff"] = entries.pop("ell_rbf")
        with pytest.raises(ValueError, match="ell_rbff"):
            PriorSpec(entries=entries)


class TestLogPrior:
    def test_single_parameter_at_log_mode(self):
        spec = KernelSpec(terms=(Term("WN"),))
        nu, lam = -1.5, 1.0
        theta = HyperParams.of(spec, s2_noise=math.exp(nu))
        expected = -nu - 0.5 * math.log(2.0 * math.pi * lam)
        assert log_prior(PRIORS.columns(spec), np.log(theta.values)) == pytest.approx(expected, abs=1e-12)

    def test_all_parameters_at_log_mode(self):
        theta = median_hyperparams(FULL_SPEC, PRIORS)
        expected = sum(
            -PRIORS[name].nu - 0.5 * math.log(2.0 * math.pi * PRIORS[name].lam)
            for name in FULL_SPEC.trainable_names()
        )
        assert log_prior(PRIORS.columns(FULL_SPEC), np.log(theta.values)) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("priors", [PRIORS, WIDE_PRIORS], ids=["default", "wide"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_independent_density_oracle(self, seed, priors):
        rng = np.random.default_rng(seed)
        theta = oracles.random_hyperparams(FULL_SPEC, priors, rng, clip_sigmas=3.0)
        expected = sum(
            oracles.lognormal_logpdf(getattr(theta, name), priors[name].nu, priors[name].lam)
            for name in FULL_SPEC.trainable_names()
        )
        assert log_prior(priors.columns(FULL_SPEC), np.log(theta.values)) == pytest.approx(expected, abs=1e-12)

    def test_sums_over_the_spec_trainables_only(self):
        spec = KernelSpec(terms=(Term("RBF"),))
        theta = HyperParams.of(spec, s2_rbf=0.5, ell_rbf=2.0)
        expected = oracles.lognormal_logpdf(0.5, -1.5, 1.0) + oracles.lognormal_logpdf(2.0, 1.1, 1.0)
        assert log_prior(PRIORS.columns(spec), np.log(theta.values)) == pytest.approx(expected, abs=1e-12)

    def test_rejects_nonpositive_theta(self):
        spec = KernelSpec(terms=(Term("WN"),))
        with pytest.raises(InvalidHyperparameterError):
            log_prior(PRIORS.columns(spec), np.log(HyperParams.of(spec, s2_noise=0.0).values))
        with pytest.raises(InvalidHyperparameterError):
            log_prior(PRIORS.columns(spec), np.log(HyperParams.of(spec, s2_noise=-2.0).values))


class TestGradLogPrior:
    def test_at_prior_log_mean_every_component_is_minus_one(self):
        theta = median_hyperparams(FULL_SPEC, PRIORS)
        np.testing.assert_allclose(grad_log_prior(PRIORS.columns(FULL_SPEC), np.log(theta.values)), -1.0)

    def test_one_lam_above_log_mean_gives_minus_two(self):
        spec = KernelSpec(terms=(Term("WN"),))
        p = PRIORS["s2_noise"]
        theta = HyperParams.of(spec, s2_noise=math.exp(p.nu + p.lam))
        np.testing.assert_allclose(grad_log_prior(PRIORS.columns(spec), np.log(theta.values)), -2.0)

    @pytest.mark.parametrize("seed", [10, 11])
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        theta = oracles.random_hyperparams(FULL_SPEC, PRIORS, rng)
        u = np.log(theta.values)

        def f(u_vec):
            return log_prior(PRIORS.columns(FULL_SPEC), np.log(HyperParams.from_log(FULL_SPEC, u_vec).values))

        fd = oracles.central_difference(f, u, h=1e-6)
        np.testing.assert_allclose(grad_log_prior(PRIORS.columns(FULL_SPEC), np.log(theta.values)), fd, atol=1e-7)

    def test_strictly_concave_in_each_log_coordinate(self):
        # second derivative is -1/lam everywhere
        theta = median_hyperparams(FULL_SPEC, PRIORS)
        u = np.log(theta.values)
        h = 1e-4
        for k, name in enumerate(FULL_SPEC.trainable_names()):
            up, down = u.copy(), u.copy()
            up[k] += h
            down[k] -= h
            f0 = log_prior(PRIORS.columns(FULL_SPEC), np.log(theta.values))
            f_up = log_prior(PRIORS.columns(FULL_SPEC), np.log(HyperParams.from_log(FULL_SPEC, up).values))
            f_down = log_prior(PRIORS.columns(FULL_SPEC), np.log(HyperParams.from_log(FULL_SPEC, down).values))
            second = (f_up - 2.0 * f0 + f_down) / (h * h)
            assert second == pytest.approx(-1.0 / PRIORS[name].lam, rel=1e-3)


class TestMissingPrior:
    def test_a_trainable_without_a_prior_is_named(self):
        partial = PriorSpec(entries={name: p for name, p in PRIORS.entries.items() if name != "ell_rbf"})
        with pytest.raises(KeyError, match="ell_rbf"):
            partial.columns(FULL_SPEC)
        # a spec that does not train it is unaffected
        spec = KernelSpec(terms=(Term("PER", period=1.0), Term("WN")))
        theta = median_hyperparams(spec, PRIORS)
        u = np.log(theta.values)
        assert np.array_equal(partial.columns(spec), PRIORS.columns(spec))
        assert log_prior(partial.columns(spec), u) == log_prior(PRIORS.columns(spec), u)
        assert np.array_equal(grad_log_prior(partial.columns(spec), u), grad_log_prior(PRIORS.columns(spec), u))


class TestMedianHyperparams:
    def test_values_at_the_prior_medians(self):
        theta = median_hyperparams(FULL_SPEC, PRIORS)
        for name in FULL_SPEC.trainable_names():
            assert getattr(theta, name) == pytest.approx(math.exp(PRIORS[name].nu), rel=1e-15)

    def test_sets_the_spec_trainables_only(self):
        # the fixed periods stay on the spec's terms
        spec = default_spec("double-seasonal")
        theta = median_hyperparams(spec, PRIORS)
        assert theta.names == spec.trainable_names()


class TestSerialization:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "priors.txt"
        path.write_text(format_priors(PRIORS))
        loaded = load_priors(path)
        assert loaded.entries == PRIORS.entries

    def test_unknown_name_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("s2_rbf = -1.5 1.0\nwhatever = 0 1\n")
        with pytest.raises(ValueError, match="line 2"):
            load_priors(path)

    def test_repeated_name_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("s2_rbf = -1.5 1.0\ns2_rbf = -1.5 1.0\n")
        with pytest.raises(ValueError, match="line 2: duplicate"):
            load_priors(path)

    def test_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("s2_rbf = -1.5 oops\n")
        with pytest.raises(ValueError, match="line 1"):
            load_priors(path)

    def test_a_byte_that_is_not_utf8_fails_before_any_line_is_parsed(self, tmp_path):
        # the bad byte lies past the reader's first decoded chunk, so a file parsed as read would fail on line 1
        path = tmp_path / "bad.txt"
        path.write_bytes(b"oops\n" + b"# padding\n" * 2000 + b"\xff\n")
        with pytest.raises(ValueError, match=r"bad\.txt: line 2002: byte 20005, 0xff, is not UTF-8"):
            load_priors(path)

    def test_missing_entries_rejected(self, tmp_path):
        path = tmp_path / "partial.txt"
        path.write_text("s2_rbf = -1.5 1.0\n")
        with pytest.raises(ValueError, match="missing priors"):
            load_priors(path)
