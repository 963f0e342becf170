"""Tests for the tempered EM engine.

Ordered oracles first: the Laplace marginal is checked against the
analytic Gaussian convolution and a million-sample Monte Carlo integral,
and the mixture null against direct non-log-space summation. Behavioural
tests for the E-step, both M-steps, and the full loop follow.
"""

import functools
import math
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit, logit, logsumexp
from scipy.stats import norm

from lipem import em
from lipem.em import (
    EmConfig,
    EmState,
    NullSpec,
    SufficientStats,
    build_sufficient_stats,
    e_step,
    m_step_exact,
    null_loglik,
    relevant_marginal_loglik,
    run_em,
    run_em_rows,
    tempering_schedule,
    write_em_report,
)
from lipem.errors import (
    DegenerateNullError,
    InsufficientDataError,
    InvalidConfigurationError,
    LipemError,
    NonFiniteLikelihoodError,
    SingularFitError,
)
from lipem.likelihood import Dataset, GaussianMeanModel, SplineGlmModel, clamp_psd


def gaussian_stats(rng, means, sizes, dim=1, sigma=1.0):
    """Build sufficient statistics for seeded Gaussian datasets."""
    model = GaussianMeanModel(dim, sigma**2)
    datasets = [
        Dataset(rng.normal(mean, sigma, size=(n, dim)))
        for mean, n in zip(means, sizes)
    ]
    return model, datasets, build_sufficient_stats(model, datasets)


def m_step_surrogate(stats, weights):
    """The surrogate M-step through the public step: the sample-size
    weighted average (N0 theta_0 + sum_k w_k N_k theta_k) / (N0 + sum_k
    w_k N_k) of the target and source MLEs."""
    step = em.EmStep(stats, EmConfig(variant="small_tau_surrogate"))
    return step.m_step(np.asarray(weights, dtype=float))


def model_path_marginal(model, data, theta, tau):
    """The Laplace relevant marginal from ``model.loglik``, ``gradient`` and
    ``hessian`` at theta, the reference for the step's quadratic:

        loglik + (tau^2/2) g'(I + tau^2 H)^{-1} g - (1/2) logdet(I + tau^2 H).

    Its g'Fg term cancels against the loglik and loses digits with the
    condition of I + tau^2 H, so it is a reference on well-conditioned
    data only.
    """
    value = float(model.loglik(theta, data))
    if tau == 0:
        return value
    grad = np.asarray(model.gradient(theta, data), dtype=float)
    a = np.eye(grad.size) + tau**2 * clamp_psd(model.hessian(theta, data))
    solved = np.linalg.inv(a) @ grad
    return value + 0.5 * tau**2 * (grad @ solved) - 0.5 * np.linalg.slogdet(a)[1]


def counting(calls, name, fn):
    """``fn``, counting each call in ``calls[name]``."""

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def count_step_builds(monkeypatch, calls, *names):
    """Count each build of the named cached properties of ``EmStep``."""
    for name in names:
        prop = functools.cached_property(counting(calls, name, getattr(em.EmStep, name).func))
        prop.__set_name__(em.EmStep, name)
        monkeypatch.setattr(em.EmStep, name, prop)


class TestRelevantMarginal:
    def test_zero_spread_returns_loglik_bit_for_bit(self):
        rng = np.random.default_rng(42)
        gaussian = GaussianMeanModel(2)
        data = Dataset(rng.normal(size=(6, 2)))
        theta = rng.normal(size=2)
        assert relevant_marginal_loglik(gaussian, data, theta, 0.0) == gaussian.loglik(
            theta, data
        )
        knots = np.linspace(0.0, 10.0, 4)
        spline = SplineGlmModel(knots, noise_variance=2.0)
        x = rng.uniform(0.0, 10.0, size=12)
        y = rng.normal(size=12)
        sdata = Dataset(np.column_stack([x, y]))
        stheta = rng.normal(size=4)
        assert relevant_marginal_loglik(
            spline, sdata, stheta, 0.0
        ) == spline.loglik(stheta, sdata)

    @pytest.mark.parametrize(
        "tau", [1e200, 10**400, math.inf, math.nan], ids=["1e200", "10**400", "inf", "nan"]
    )
    def test_spread_needs_a_finite_square(self, tau):
        # tau**2 would overflow before any likelihood is read
        model = GaussianMeanModel(1)
        with pytest.raises(InvalidConfigurationError) as err:
            relevant_marginal_loglik(model, Dataset(np.array([0.7])), np.zeros(1), tau)
        assert err.value.key == "tau"

    def test_unit_spread_single_point_is_widened_normal(self):
        # convolving a unit-variance likelihood of one observation with a
        # unit-variance parameter spread gives a variance-2 density
        model = GaussianMeanModel(1)
        x1 = 0.7
        data = Dataset(np.array([x1]))
        got = relevant_marginal_loglik(model, data, np.zeros(1), 1.0)
        np.testing.assert_allclose(
            got, norm.logpdf(x1, loc=0.0, scale=np.sqrt(2.0)), rtol=1e-12
        )

    def test_matches_analytic_convolution_for_gaussian(self):
        # for a Gaussian mean model the quadratic expansion is exact, so
        # the result must equal the closed-form marginal in which the
        # shared parameter draw correlates the observations: per
        # dimension the data are jointly normal with covariance
        # sigma^2 I + tau^2 11'
        from scipy.stats import multivariate_normal

        rng = np.random.default_rng(42)
        for _ in range(50):
            d = int(rng.integers(1, 3))
            tau = float(rng.choice([0.01, 0.1, 1.0]))
            sigma = 1.0
            n = int(rng.integers(1, 9))
            data = Dataset(rng.normal(size=(n, d)))
            theta = rng.normal(size=d)
            cov = sigma**2 * np.eye(n) + tau**2 * np.ones((n, n))
            expected = sum(
                multivariate_normal.logpdf(
                    data.points[:, j], mean=np.full(n, theta[j]), cov=cov
                )
                for j in range(d)
            )
            got = relevant_marginal_loglik(
                GaussianMeanModel(d, sigma**2), data, theta, tau
            )
            assert abs(got - expected) <= 1e-9 * abs(expected)

    def test_matches_monte_carlo_integral(self):
        # oracle: log E_{theta' ~ N(theta, tau^2 I)} exp loglik(theta'; D)
        # by direct simulation with one million parameter draws
        rng = np.random.default_rng(42)
        model = GaussianMeanModel(2)
        data = Dataset(rng.normal(size=(5, 2)))
        theta = np.array([0.3, -0.2])
        tau = 0.3
        draws = theta + tau * rng.standard_normal(size=(1_000_000, 2))
        dev = data.points[None, :, :] - draws[:, None, :]
        logliks = -0.5 * np.einsum("mni,mni->m", dev, dev) - data.size * np.log(
            2.0 * np.pi
        )
        shift = logliks.max()
        weights = np.exp(logliks - shift)
        mc_value = shift + np.log(weights.mean())
        # delta-method standard error of the log of a Monte Carlo mean
        mc_se = weights.std(ddof=1) / (weights.mean() * np.sqrt(weights.size))
        got = relevant_marginal_loglik(model, data, theta, tau)
        assert abs(got - mc_value) <= 3.0 * mc_se

    @pytest.mark.parametrize("tau", [0.1, 2.0])
    def test_matches_extended_precision_on_an_ill_conditioned_spline(self, tau):
        # a narrow noise and a strong ridge make I + tau^2 H ill conditioned,
        # where a marginal built from the loglik and gradient at theta
        # cancels digits (1e-12 to 8e-11 off); the quadratic around the
        # MLE holds them. The reference is the same Laplace formula on the
        # data, in 60-digit arithmetic
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60
        rng = np.random.default_rng(42)
        x = rng.uniform(0.0, 10.0, 40)
        y = 2.0 + 1.1 * x + rng.normal(0.0, 0.7, 40)
        data = Dataset(np.column_stack([x, y]))
        model = SplineGlmModel(np.linspace(0.0, 10.0, 4), noise_variance=0.5, ridge=5.0)
        theta = model.mle(data) + 0.5
        knots, var, tau_mp = list(map(mp.mpf, model.knots)), mp.mpf(0.5), mp.mpf(tau)
        rows = []
        for xv in map(mp.mpf, x):
            cube = [max(xv - k, 0) ** 3 for k in knots]
            d = [(cube[j] - cube[-1]) / (knots[-1] - knots[j]) for j in range(len(knots) - 1)]
            rows.append([mp.mpf(1), xv] + [dj - d[-1] for dj in d[:-1]])
        design = mp.matrix(rows)
        resid = mp.matrix(list(map(mp.mpf, y))) - design * mp.matrix(list(map(mp.mpf, theta)))
        loglik = -sum(r**2 for r in resid) / (2 * var) - len(x) * mp.log(2 * mp.pi * var) / 2
        grad = design.T * resid / var
        a = mp.eye(len(knots)) + tau_mp**2 * (design.T * design) / var
        solved = mp.lu_solve(a, grad)
        quad = sum(g * v for g, v in zip(grad, solved))
        expected = loglik + tau_mp**2 / 2 * quad - mp.log(mp.det(a)) / 2
        got = relevant_marginal_loglik(model, data, theta, tau)
        assert abs((got - expected) / expected) <= 1e-14

    def test_a_singular_fit_is_refused_once_the_spread_is_positive(self):
        # two points cannot fix four unpenalised spline coefficients; the
        # marginal expands around the MLE, which does not exist
        model = SplineGlmModel(np.linspace(0.0, 10.0, 4))
        data = Dataset(np.array([[1.0, 0.5], [2.0, 0.7]]))
        theta = np.full(4, 0.1)
        assert relevant_marginal_loglik(model, data, theta, 0.0) == model.loglik(theta, data)
        with pytest.raises(SingularFitError):
            relevant_marginal_loglik(model, data, theta, 0.5)

    def test_non_finite_loglik_raises(self):
        model = GaussianMeanModel(1)
        data = Dataset(np.array([1.0]))
        with pytest.raises(NonFiniteLikelihoodError):
            relevant_marginal_loglik(model, data, np.array([np.nan]), 0.0)
        with pytest.raises(NonFiniteLikelihoodError):
            relevant_marginal_loglik(model, data, np.array([np.nan]), 0.5)


class TestNullLoglik:
    def test_two_source_mixture_with_zero_weights_is_single_term(self):
        rng = np.random.default_rng(42)
        model, datasets, stats = gaussian_stats(
            rng, [0.0, 1.0, 1.0], [4, 50, 50]
        )
        got = null_loglik(
            NullSpec("empirical_bayes_mixture"), 1, stats, np.zeros(2)
        )
        expected = model.loglik(stats.theta_hat[2], datasets[1])
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_mixture_matches_direct_summation(self):
        # oracle: plain (1/(K-1)) sum of survival-weighted likelihoods,
        # computed without any log-space tricks on a well-scaled case
        rng = np.random.default_rng(42)
        model, datasets, stats = gaussian_stats(
            rng, [0.0, 0.2, -0.1, 0.4], [3, 4, 5, 4]
        )
        weights_prev = np.array([0.3, 0.6, 0.2])
        for k in (1, 2, 3):
            got = null_loglik(
                NullSpec("empirical_bayes_mixture"), k, stats, weights_prev
            )
            terms = [
                (1.0 - weights_prev[j - 1])
                * math.exp(model.loglik(stats.theta_hat[j], datasets[k]))
                for j in (1, 2, 3)
                if j != k
            ]
            expected = math.log(sum(terms) / 2.0)
            np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_log_sum_exp_matches_scipy(self):
        # random cross tables over a wide dynamic range, with some
        # components fully committed: the null agrees with scipy's
        # log-sum-exp at the weights clamped to [WEIGHT_CLAMP,
        # 1 - WEIGHT_CLAMP], so a weight of 1 keeps its component
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(200):
            k = int(rng.integers(2, 12))
            d = int(rng.integers(1, 4))
            a = rng.normal(size=(k + 1, d, d))
            scale = 10.0 ** rng.uniform(-2.0, 2.0, size=(k + 1, 1, 1))
            stats = SufficientStats(
                rng.normal(0.0, 3.0, size=(k + 1, d)),
                rng.normal(0.0, 50.0, size=k + 1),
                rng.normal(size=(k + 1, d)),
                scale * np.einsum("kij,klj->kil", a, a),
                rng.integers(1, 100, size=k + 1),
                np.zeros(d),
            )
            prev = rng.uniform(0.0, 1.0, size=k)
            # at least two components keep positive survival, so no
            # column is left without one
            prev[rng.permutation(k)[: rng.integers(0, k - 1)]] = 1.0
            table = em.EmStep(stats).null_part
            clamped = np.clip(prev, em.WEIGHT_CLAMP, 1.0 - em.WEIGHT_CLAMP)
            terms = np.log(1.0 - clamped)[:, None] + table
            expected = logsumexp(terms, axis=0) - np.log(k - 1)
            got = np.array([null_loglik(NullSpec(), j, stats, prev) for j in range(1, k + 1)])
            worst = max(worst, np.max(np.abs(got - expected) / np.abs(expected)))
        assert worst <= 1e-14

    @staticmethod
    def _exact_null(table, prev, mp):
        """The mixture null of every column in 50-digit arithmetic:
        log(sum_j (1 - w_j) exp(table_jk)) - log(K - 1) per column k."""
        mp.mp.dps = 50
        k = table.shape[0]
        return np.array([
            [
                float(mp.log(mp.fsum(
                    (1 - mp.mpf(w[j])) * mp.exp(mp.mpf(table[j, col]))
                    for j in range(k) if np.isfinite(table[j, col])
                )) - mp.log(k - 1))
                for col in range(k)
            ]
            for w in np.atleast_2d(prev)
        ])

    def test_many_component_mixture_matches_an_exact_sum(self):
        # the product (1 - w) @ E over many components, its log and shift
        # agree with the mixture summed in 50-digit arithmetic, to 1e-14
        # relative, or absolute (the density's relative error) where the
        # log is near 0 and its two terms cancel: one null here is 0.0117.
        # A stack of two collections reads each row's solo values bit for
        # bit
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(7)
        for k in (8, 12, 21):
            steps = []
            for _ in range(2):
                a = rng.normal(size=(k + 1, 1, 1))
                stats = SufficientStats(
                    rng.normal(0.0, 3.0, size=(k + 1, 1)),
                    rng.normal(0.0, 5.0, size=k + 1),
                    np.zeros((k + 1, 1)),
                    a * a + 0.5,
                    np.full(k + 1, 20),
                    np.zeros(1),
                )
                steps.append(em.EmStep(stats))
            prev = rng.uniform(0.05, 0.95, size=(4, k))
            for step in steps:
                expected = self._exact_null(step.null_part, prev, mp)
                np.testing.assert_allclose(step.null(prev), expected, rtol=1e-14, atol=1e-14)
            index = [0, 1, 1, 0]
            stack = em.EmStep.stack(steps, index, np.full((4, k), 0.5))
            stacked = stack.null(prev)
            for r, c in enumerate(index):
                np.testing.assert_array_equal(stacked[r], steps[c].null(prev[r]))
                for j in (1, k):
                    got = null_loglik(NullSpec(), j, steps[c].stats, prev[r])
                    assert got == stacked[r, j - 1]

    def test_a_committed_peak_component_keeps_the_product_finite(self):
        # source 1's column: its peak component, source 2, has weight 1,
        # and source 3 lies 799.5 nats below it, so unclamped the product
        # (1 - w) @ E would be 0. Clamped, source 2 keeps a responsibility
        # of about WEIGHT_CLAMP, and every column's product is finite and
        # matches the exact sum at the clamped weights, without a warning,
        # on a solo step, through null_loglik and on a stack alike
        mp = pytest.importorskip("mpmath")
        stats = SufficientStats(
            np.array([[0.0], [0.0], [1.0], [40.0]]),
            np.array([-5.0, -3.0, -4.0, -6.0]),
            np.zeros((4, 1)),
            np.ones((4, 1, 1)),
            np.full(4, 10),
            np.zeros(1),
        )
        prev = np.array([0.3, 1.0, 0.4])
        clamped = np.clip(prev, em.WEIGHT_CLAMP, 1.0 - em.WEIGHT_CLAMP)
        step = em.EmStep(stats)
        table, shift = step.mixture
        assert (1.0 - prev) @ table[:, 0] == 0.0
        assert np.all((1.0 - clamped) @ table > 0.0)
        expected = self._exact_null(step.null_part, clamped, mp)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = step.null(prev)
            public = [null_loglik(NullSpec(), j, stats, prev) for j in (1, 2, 3)]
            stack = em.EmStep.stack([step], [0, 0], np.full((2, 3), 0.5))
            stacked = stack.null(np.stack([prev, prev]))
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=1e-14)
        np.testing.assert_array_equal(public, got)
        np.testing.assert_array_equal(stacked, [got, got])
        np.testing.assert_array_equal(got, np.log((1.0 - clamped) @ table) + shift)

    def test_weight_of_one_keeps_a_clamped_responsibility_without_a_warning(self):
        rng = np.random.default_rng(42)
        _, _, stats = gaussian_stats(rng, [0.0, 1.0, 2.0, 3.0], [4, 10, 10, 10])
        prev = np.array([0.3, 1.0, 0.4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = null_loglik(NullSpec(), 1, stats, prev)
        # source 2 is committed, so it keeps the clamped responsibility
        # 1 - (1 - WEIGHT_CLAMP) beside source 3's 0.6
        table = em.EmStep(stats).null_part
        committed = 1.0 - (1.0 - em.WEIGHT_CLAMP)
        expected = math.log(
            committed * math.exp(table[1, 0]) + 0.6 * math.exp(table[2, 0])
        ) - math.log(2)
        assert np.isfinite(got)
        assert got == pytest.approx(expected, rel=1e-15)

    def test_null_loglik_at_a_saturated_runs_weights_is_the_loops_null(self, monkeypatch):
        # source 1's weight saturates to exactly 1.0: null_loglik at each
        # raw weight_history row reads the null the loop computed from it,
        # bit for bit
        rng = np.random.default_rng(2)
        target = rng.normal(0.0, 1.0, size=(200, 1))
        sources = [rng.normal(mean, 1.0, size=(400, 1)) for mean in (0.0, 0.3, 3.0)]
        datasets = [Dataset(x) for x in (target, *sources)]
        model = GaussianMeanModel(1)
        nulls = []
        null = em.EmStep.null

        def recording(self, prev, check=True):
            nulls.append(null(self, prev, check))
            return nulls[-1]

        monkeypatch.setattr(em.EmStep, "null", recording)
        _, report = run_em(datasets, model, [0.9, 0.1, 0.1], EmConfig(nu=1.0))
        monkeypatch.undo()
        assert report.iterations == len(nulls) == 7
        assert report.weight_history[-1, 0] == 1.0
        stats = build_sufficient_stats(model, datasets)
        for prev, loop_null in zip(report.weight_history, nulls):
            for j in (1, 2, 3):
                assert null_loglik(NullSpec(), j, stats, prev) == loop_null[0, j - 1]

    def test_column_without_finite_component_is_degenerate(self):
        # source 2 has likelihood -inf under every fit, so its column of
        # the mixture table holds -inf only, whatever the weights
        rng = np.random.default_rng(42)
        _, _, base = gaussian_stats(rng, [0.0, 1.0, 2.0, 3.0], [4, 10, 10, 10])
        loglik_hat = base.loglik_hat.copy()
        loglik_hat[2] = -np.inf
        stats = SufficientStats(
            base.theta_hat.copy(),
            loglik_hat,
            base.gradients.copy(),
            base.hessians.copy(),
            base.sizes.copy(),
            base.pooled_theta.copy(),
        )
        prev = np.array([0.2, 0.3, 0.4])
        with pytest.raises(DegenerateNullError) as err:
            em.EmStep(stats).null(prev)
        assert "source 2" in str(err.value)
        assert np.isfinite(null_loglik(NullSpec(), 1, stats, prev))

    def test_pooled_null_on_identical_sources(self):
        pts = np.array([[0.5], [1.5], [2.5]])
        model = GaussianMeanModel(1)
        datasets = [Dataset(np.array([[0.0]])), Dataset(pts), Dataset(pts)]
        stats = build_sufficient_stats(model, datasets)
        got = null_loglik(NullSpec("parametric_pooled"), 1, stats, np.zeros(2))
        expected = model.loglik(np.array([1.5]), datasets[1])
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_fixed_table_lookup(self):
        rng = np.random.default_rng(42)
        _, _, stats = gaussian_stats(rng, [0.0, 1.0], [4, 10])
        spec = NullSpec("fixed", table={1: -7.25})
        assert null_loglik(spec, 1, stats, np.zeros(1)) == -7.25

    def test_fixed_requires_table(self):
        with pytest.raises(InvalidConfigurationError):
            NullSpec("fixed")

    def test_table_given_as_sequence_is_one_indexed(self):
        spec = NullSpec("fixed", table=[-1.0, -2.0])
        assert spec.table == {1: -1.0, 2: -2.0}


    @pytest.mark.parametrize("k", [1.5, True, "1"])
    def test_a_non_integer_source_index_is_refused(self, k):
        # 1.5 used to end in numpy's IndexError and True to read source 1
        rng = np.random.default_rng(42)
        _, _, stats = gaussian_stats(rng, [0.0, 1.0, 2.0], [4, 10, 10])
        with pytest.raises(InvalidConfigurationError) as err:
            null_loglik(NullSpec(), k, stats, np.full(2, 0.5))
        assert err.value.key == "k"
        # a numpy integer is an integer
        assert np.isfinite(null_loglik(NullSpec(), np.int64(2), stats, np.full(2, 0.5)))

    @pytest.mark.parametrize(
        "weights",
        [[0.5, 0.5], [0.5] * 4, [[0.5] * 3] * 2, 0.5, [0.5, 1.5, 0.2], [0.5, -0.1, 0.2],
         [0.5, np.nan, 0.2]],
    )
    def test_weights_of_the_wrong_shape_or_outside_the_unit_interval_are_refused(self, weights):
        # a wrong length used to end in numpy's broadcast ValueError, a
        # weight of 1.5 in a DegenerateNullError that blamed the data and
        # nan in a nan score
        rng = np.random.default_rng(42)
        _, _, stats = gaussian_stats(rng, [0.0, 1.0, 2.0, 3.0], [4, 10, 10, 10])
        for kind in em.NULL_KINDS:
            spec = NullSpec(kind, {j: -1.0 for j in (1, 2, 3)} if kind == "fixed" else None)
            with pytest.raises(InvalidConfigurationError) as err:
                null_loglik(spec, 1, stats, np.array(weights))
            assert err.value.key == "weights"
        # the interval is closed
        assert np.isfinite(null_loglik(NullSpec(), 1, stats, np.array([0.0, 0.5, 1.0])))


class TestTemperingSchedule:
    @pytest.mark.parametrize("t", [-1, float("nan")])
    def test_a_negative_or_nan_iteration_is_refused(self, t):
        # nan used to give an all-nan beta
        rng = np.random.default_rng(42)
        _, _, stats = gaussian_stats(rng, [0.0, 1.0], [4, 200])
        with pytest.raises(InvalidConfigurationError) as err:
            tempering_schedule(t, stats, "fisher_ratio", 0.05)
        assert err.value.key == "t"

    def test_zero_iteration_gives_zero(self):
        rng = np.random.default_rng(42)
        _, _, stats = gaussian_stats(rng, [0.0, 1.0], [4, 200])
        np.testing.assert_array_equal(
            tempering_schedule(0, stats, "fisher_ratio", 0.05), [0.0]
        )

    def test_fisher_ratio_worked_example(self):
        # d=2, N_k=200, N_0=4: eps = sqrt(2 * 200 / 4) = 10, and the ramp
        # at nu=0.05, t=20 is 1 - e^{-1}
        rng = np.random.default_rng(42)
        _, _, stats = gaussian_stats(rng, [0.0, 1.0], [4, 200], dim=2)
        beta = tempering_schedule(20, stats, "fisher_ratio", 0.05)
        np.testing.assert_allclose(beta, (1.0 - np.exp(-1.0)) / 10.0, rtol=1e-12)
        assert beta[0] == pytest.approx(0.06321206, rel=1e-6)

    def test_saturates_to_inverse_scale(self):
        rng = np.random.default_rng(42)
        _, _, stats = gaussian_stats(rng, [0.0, 1.0], [4, 200], dim=2)
        beta = tempering_schedule(10_000, stats, "fisher_ratio", 0.05)
        assert abs(beta[0] - 0.1) <= 1e-9

    def test_trace_mode_equals_fisher_mode_for_isotropic_gaussian(self):
        # H_k = N_k I / sigma^2 makes Tr(H_0^{-1} H_k) = d N_k / N_0
        rng = np.random.default_rng(42)
        _, _, stats = gaussian_stats(rng, [0.0, 1.0, 2.0], [4, 200, 50], dim=2)
        for t in (1, 7, 100):
            np.testing.assert_allclose(
                tempering_schedule(t, stats, "trace_exact", 0.05),
                tempering_schedule(t, stats, "fisher_ratio", 0.05),
                rtol=1e-12,
            )

    def test_singular_target_hessian_falls_back_with_warning(self):
        # two target rows cannot span a five-dimensional spline basis, so
        # the exact trace is unavailable and the size ratio takes over
        rng = np.random.default_rng(42)
        knots = np.linspace(0.0, 10.0, 5)
        model = SplineGlmModel(knots, noise_variance=1.0, ridge=1e-8)
        target = Dataset(np.array([[1.0, 0.5], [2.0, 0.7]]))
        x = rng.uniform(0.0, 10.0, size=60)
        source = Dataset(np.column_stack([x, rng.normal(size=60)]))
        stats = build_sufficient_stats(model, [target, source])
        with pytest.warns(RuntimeWarning):
            beta = tempering_schedule(5, stats, "trace_exact", 0.05)
        expected = tempering_schedule(5, stats, "fisher_ratio", 0.05)
        np.testing.assert_allclose(beta, expected, rtol=1e-12)

    def test_trace_scale_follows_the_cholesky_oracle_on_near_singular_targets(self):
        # one to seven target rows on a five-knot basis leave the clamped
        # target Hessian singular or nearly so, and whether it factors is
        # settled at rounding level. scipy's cho_factor (LAPACK's upper
        # factor) is the reference decision, and cho_solve the reference
        # trace where it factors
        rng = np.random.default_rng(42)
        knots = np.linspace(0.0, 300.0, 5)
        dim = len(knots)
        spread = Dataset(np.column_stack([np.linspace(0.0, 300.0, 40), np.zeros(40)]))
        source = clamp_psd(SplineGlmModel(knots).hessian(np.zeros(dim), spread))
        mismatched, fell_back = [], 0
        for case in range(600):
            n = int(rng.integers(1, 8))
            data = Dataset(np.column_stack([rng.uniform(0.0, 300.0, n), np.zeros(n)]))
            model = SplineGlmModel(knots, noise_variance=float(rng.uniform(0.1, 10.0)))
            h0 = clamp_psd(model.hessian(np.zeros(dim), data))
            stats = SufficientStats(
                np.zeros((2, dim)), np.zeros(2), np.zeros((2, dim)),
                np.stack([h0, source]), np.array([n, 40]), np.zeros(dim),
            )
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                eps = em.EmStep(stats).eps[0]
            fired = any(issubclass(w.category, RuntimeWarning) for w in caught)
            try:
                factor = cho_factor(h0)
            except np.linalg.LinAlgError:
                agrees = fired
            else:
                want = math.sqrt(max(np.trace(cho_solve(factor, source)), 0.0))
                agrees = not fired and abs(eps - want) <= 1e-10 * want
            fell_back += fired
            if not agrees:
                mismatched.append(case)
        assert mismatched == []
        assert 0 < fell_back < 600

    def test_beta_is_nondecreasing_in_iteration(self):
        rng = np.random.default_rng(42)
        _, _, stats = gaussian_stats(rng, [0.0, 1.0], [4, 200])
        values = [
            tempering_schedule(t, stats, "fisher_ratio", 0.05)[0]
            for t in range(0, 200, 10)
        ]
        assert all(b2 >= b1 for b1, b2 in zip(values, values[1:]))


class TestEStep:
    def test_zero_tempering_returns_prior_without_any_evaluation(self):
        rng = np.random.default_rng(42)
        _, _, stats = gaussian_stats(rng, [0.0, 1.0, 2.0], [4, 20, 20])
        # swap in statistics that are NaN throughout: the prior must
        # still come back exactly because beta = 0 short-circuits the
        # update before any statistic is read
        from lipem.em import SufficientStats

        n, d = stats.theta_hat.shape
        silent = SufficientStats(
            np.full((n, d), np.nan),
            np.full(n, np.nan),
            np.full((n, d), np.nan),
            np.full((n, d, d), np.nan),
            stats.sizes.copy(),
            np.full(d, np.nan),
        )
        pi = np.array([0.37, 0.81])
        state = EmState(theta=np.zeros(1), weights=pi.copy(), t=0, beta=np.zeros(2))
        out = e_step(state, silent, pi, EmConfig(tau=0.0))
        np.testing.assert_array_equal(out, pi)

    def test_zero_log_ratio_gives_even_weight(self):
        rng = np.random.default_rng(42)
        model, datasets, stats = gaussian_stats(rng, [0.0, 1.0], [4, 8])
        theta = np.array([0.25])
        # pin the null to the relevant marginal so the ratio vanishes
        rel = relevant_marginal_loglik(model, datasets[1], theta, 0.0)
        config = EmConfig(tau=0.0, null_spec=NullSpec("fixed", table={1: rel}))
        state = EmState(theta=theta, weights=np.array([0.5]), t=3, beta=np.array([4.2]))
        out = e_step(state, stats, np.array([0.5]), config)
        np.testing.assert_allclose(out, [0.5], rtol=1e-12)

    def test_unit_data_worked_example(self):
        # one observation at 1.0, flat prior, beta = 1, null pinned to a
        # variance-4 centered normal: the weight is the sigmoid of
        # log N(1; 0, 1) - log N(1; 0, 4)
        model = GaussianMeanModel(1)
        datasets = [Dataset(np.array([0.0])), Dataset(np.array([1.0]))]
        stats = build_sufficient_stats(model, datasets)
        null_value = float(norm.logpdf(1.0, loc=0.0, scale=2.0))
        config = EmConfig(tau=0.0, null_spec=NullSpec("fixed", table={1: null_value}))
        state = EmState(
            theta=np.zeros(1), weights=np.array([0.5]), t=1, beta=np.array([1.0])
        )
        out = e_step(state, stats, np.array([0.5]), config)
        ratio = norm.logpdf(1.0, 0.0, 1.0) - norm.logpdf(1.0, 0.0, 2.0)
        np.testing.assert_allclose(out, expit(ratio), rtol=1e-12)
        np.testing.assert_allclose(out, [0.578872639607127], rtol=1e-12)

    def test_prior_outside_open_interval_rejected(self):
        rng = np.random.default_rng(42)
        _, _, stats = gaussian_stats(rng, [0.0, 1.0], [4, 8])
        state = EmState(np.zeros(1), np.array([0.5]), 1, np.array([1.0]))
        with pytest.raises(InvalidConfigurationError):
            e_step(state, stats, np.array([1.0]), EmConfig())

    @pytest.mark.parametrize(
        "field, value, key",
        [
            ("theta", np.zeros(3), "theta"),
            ("theta", np.zeros((2, 1)), "theta"),
            ("weights", np.full(3, 0.5), "weights"),
            ("weights", np.full(1, 0.5), "weights"),
            ("beta", np.ones(3), "beta"),
            ("beta", np.ones((2, 1)), "beta"),
            ("pi", np.full(3, 0.5), "pi"),
        ],
    )
    def test_a_member_of_the_wrong_width_is_refused(self, field, value, key):
        # d = 2, K = 2: each used to end in numpy's broadcast ValueError
        # (pi was refused already), at t = 0 as well
        rng = np.random.default_rng(42)
        _, _, stats = gaussian_stats(rng, [0.0, 1.0, 2.0], [4, 8, 8], dim=2)
        pi = value if field == "pi" else np.full(2, 0.5)
        for beta in (np.ones(2), np.zeros(2)):
            members = {"theta": np.zeros(2), "weights": np.full(2, 0.5), "beta": beta}
            if field in members:
                members[field] = value
            state = EmState(**members, t=1)
            with pytest.raises(InvalidConfigurationError) as err:
                e_step(state, stats, pi, EmConfig(tau=0.1))
            assert err.value.key == key
        # leading axes stay free
        state = EmState(np.zeros((3, 2)), np.full((3, 2), 0.5), 1, np.ones((3, 2)))
        assert e_step(state, stats, np.full((3, 2), 0.5), EmConfig(tau=0.1)).shape == (3, 2)

    def test_offending_source_named_on_non_finite_ratio(self):
        rng = np.random.default_rng(42)
        _, _, stats = gaussian_stats(rng, [0.0, 1.0, 2.0], [4, 8, 8])
        state = EmState(
            theta=np.array([np.nan]),
            weights=np.array([0.5, 0.5]),
            t=1,
            beta=np.array([1.0, 1.0]),
        )
        with pytest.raises(NonFiniteLikelihoodError) as err:
            e_step(state, stats, np.array([0.5, 0.5]), EmConfig(tau=0.0))
        assert err.value.source_index == 1


    @pytest.mark.parametrize("kind", ["empirical_bayes_mixture", "parametric_pooled"])
    def test_spline_weights_match_the_scalar_functions(self, kind):
        # the E-step reads every value off the per-dataset expansions;
        # the public scalar functions evaluate the relevant marginal on
        # the data directly, so the two must agree for the spline family;
        # a strong ridge keeps the gradients at the MLEs away from zero
        rng = np.random.default_rng(42)
        knots = np.linspace(0.0, 10.0, 4)
        model = SplineGlmModel(knots, noise_variance=0.5, ridge=5.0)
        datasets = []
        for n, slope in ((12, 1.0), (40, 1.1), (40, -0.5), (40, 0.9)):
            x = rng.uniform(0.0, 10.0, size=n)
            y = 2.0 + slope * x + rng.normal(0.0, 0.7, size=n)
            datasets.append(Dataset(np.column_stack([x, y])))
        stats = build_sufficient_stats(model, datasets)
        config = EmConfig(tau=0.1, null_spec=NullSpec(kind))
        theta = stats.theta_hat[0] + 0.05
        prev = np.array([0.6, 0.3, 0.5])
        pi = np.array([0.4, 0.2, 0.7])
        beta = np.array([0.004, 0.0004, 0.004])
        state = EmState(theta=theta, weights=prev, t=3, beta=beta)
        got = e_step(state, stats, pi, config)
        expected = [
            expit(
                beta[k - 1]
                * (
                    relevant_marginal_loglik(model, datasets[k], theta, config.tau)
                    - null_loglik(config.null_spec, k, stats, prev)
                )
                + logit(pi[k - 1])
            )
            for k in (1, 2, 3)
        ]
        assert np.all((0.05 < got) & (got < 0.95))
        assert np.max(np.abs(got - expected)) <= 1e-10

    @pytest.mark.parametrize("tau", [0.0, 0.1, 2.0])
    @pytest.mark.parametrize("family", ["gaussian", "spline"])
    def test_marginal_is_the_models_laplace_marginal(self, monkeypatch, family, tau):
        # the step scores a source by one quadratic around its MLE; read
        # it through a fixed null of 0, a prior of 1/2 (logit 0), beta = 1
        # and an identity sigmoid, and compare it with the marginal built
        # from model.loglik, gradient and hessian at theta
        monkeypatch.setattr(em, "expit", lambda values: values)
        rng = np.random.default_rng(42)
        if family == "gaussian":
            model = GaussianMeanModel(2)
            datasets = [
                Dataset(rng.normal(m, 1.0, size=(n, 2)))
                for m, n in ((0.0, 5), (0.5, 30), (2.0, 40), (-1.0, 25))
            ]
        else:
            # a strong ridge keeps the gradients at the MLEs away from
            # zero, and a wide noise keeps I + tau^2 H well conditioned,
            # where the model-path reference holds 1e-12
            model = SplineGlmModel(np.linspace(0.0, 10.0, 4), noise_variance=50.0, ridge=5.0)
            datasets = []
            for n, slope in ((12, 1.0), (40, 1.1), (40, -0.5), (40, 0.9)):
                x = rng.uniform(0.0, 10.0, size=n)
                y = 2.0 + slope * x + rng.normal(0.0, 0.7, size=n)
                datasets.append(Dataset(np.column_stack([x, y])))
        stats = build_sufficient_stats(model, datasets)
        k, d = stats.n_sources, stats.dim
        spec = NullSpec("fixed", {j: 0.0 for j in range(1, k + 1)})
        pi, ones = np.full((6, k), 0.5), np.ones((6, k))
        step = em.EmStep(stats, EmConfig(tau=tau, null_spec=spec), pi[0])
        assert not step.prior_logit.any()
        thetas = stats.theta_hat[0] + rng.normal(0.0, 0.5, size=(6, d))
        rel = step.e_step(ones, thetas, pi)
        expected = [
            [model_path_marginal(model, datasets[j], theta, tau) for j in range(1, k + 1)]
            for theta in thetas
        ]
        np.testing.assert_allclose(rel, expected, rtol=1e-12)
        # the public marginal is the same quadratic
        public = [
            [relevant_marginal_loglik(model, datasets[j], theta, tau) for j in range(1, k + 1)]
            for theta in thetas
        ]
        np.testing.assert_allclose(rel, public, rtol=1e-15)
        # the loop's stack of the same rows reads the same bits; a
        # stack of one collection reads theta at its own width
        stack = em.EmStep.stack([step], [0] * 6, pi)
        np.testing.assert_array_equal(stack.e_step(ones, thetas, pi), rel)
        if tau == 0:
            quadratic = stats.theta_hat, stats.loglik_hat, stats.gradients, stats.hessians
            np.testing.assert_array_equal(rel, em._expand(thetas, *quadratic)[..., 1:])

    @staticmethod
    def _stats_with(base, **changes):
        fields = ("theta_hat", "loglik_hat", "gradients", "hessians", "sizes", "pooled_theta")
        return SufficientStats(
            *(np.asarray(changes.get(name, getattr(base, name)), dtype=float) for name in fields)
        )

    def test_non_finite_marginal_is_named_before_a_degenerate_null(self):
        # source 2's likelihood is -inf everywhere, so both its marginal
        # and its mixture-null column fail; the marginal is named
        rng = np.random.default_rng(42)
        _, _, base = gaussian_stats(rng, [0.0, 1.0, 2.0, 3.0], [4, 10, 10, 10])
        loglik_hat = base.loglik_hat.copy()
        loglik_hat[2] = -np.inf
        stats = self._stats_with(base, loglik_hat=loglik_hat)
        prev = np.full(3, 0.5)
        with pytest.raises(DegenerateNullError, match="source 2"):
            em.EmStep(stats).null(prev)
        state = EmState(theta=np.zeros(1), weights=prev, t=1, beta=np.ones(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteLikelihoodError, match="relevant marginal") as err:
                e_step(state, stats, prev, EmConfig(tau=0.1))
        assert err.value.source_index == 2

    def test_degenerate_null_alone_raises_its_own_error(self, monkeypatch):
        # H_2 is so steep that source 2's likelihood overflows to -inf at
        # every other source's MLE, yet its marginal at theta_2 is finite
        stats = SufficientStats(
            np.array([[0.0], [1e10], [0.0], [-1e10]]),
            np.array([-5.0, -20.0, -20.0, -20.0]),
            np.zeros((4, 1)),
            np.array([[[1.0]], [[1.0]], [[1e300]], [[1.0]]]),
            np.array([4, 10, 10, 10]),
            np.zeros(1),
        )
        state = EmState(theta=np.zeros(1), weights=np.full(3, 0.5), t=1, beta=np.ones(3))
        # nor does the unchecked null's nan reach the caller as a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateNullError, match="source 2"):
                e_step(state, stats, np.full(3, 0.5), EmConfig(tau=0.1))
            # and the loop, whose first tempered E-step meets it
            monkeypatch.setattr(em, "build_sufficient_stats", lambda model, datasets: stats)
            datasets = [Dataset(np.zeros((n, 1))) for n in (4, 10, 10, 10)]
            with pytest.raises(DegenerateNullError, match="source 2"):
                run_em(datasets, GaussianMeanModel(1), np.full(3, 0.5), EmConfig(tau=0.1))
        assert np.all(np.isinf(em.EmStep(stats).null_part[[0, 2], 1]))

    def test_overflowing_ratio_is_named_as_the_log_ratio(self):
        # both terms are finite; their difference is not
        rng = np.random.default_rng(42)
        _, _, base = gaussian_stats(rng, [0.0, 1.0, 2.0], [4, 10, 10])
        loglik_hat = base.loglik_hat.copy()
        loglik_hat[1] = -1e308
        stats = self._stats_with(base, loglik_hat=loglik_hat)
        spec = NullSpec("fixed", {1: 1e308, 2: -30.0})
        step = em.EmStep(stats, EmConfig(tau=0.1, null_spec=spec), np.full(2, 0.5))
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteLikelihoodError, match="log-ratio") as err:
                step.e_step(np.ones(2), stats.theta_hat[1], np.full(2, 0.5))
        assert err.value.source_index == 1

    @pytest.mark.parametrize("null_kind", em.NULL_KINDS)
    @pytest.mark.parametrize("variant", em.VARIANTS)
    def test_a_normal_run_warns_nothing(self, variant, null_kind):
        rng = np.random.default_rng(42)
        table = {j: -60.0 - j for j in range(1, 4)}
        spec = NullSpec(null_kind, table if null_kind == "fixed" else None)
        config = EmConfig(tau=0.1, nu=0.05, variant=variant, null_spec=spec, max_iters=60)
        datasets = _collection(rng, 3, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, report = run_em(datasets, GaussianMeanModel(2), np.full(3, 0.5), config)
        assert np.all(np.isfinite(report.weight_history))


class TestMStepExact:
    @pytest.mark.parametrize(
        "weights", [[0.5], [0.5] * 3, 0.5, [0.5, 1.5], [-0.1, 0.5], [np.nan, 0.5]]
    )
    def test_weights_of_the_wrong_width_or_outside_the_unit_interval_are_refused(self, weights):
        # a wrong width used to end in numpy's broadcast ValueError, and
        # nan in a nan theta
        rng = np.random.default_rng(42)
        _, _, stats = gaussian_stats(rng, [0.0, 3.0, -2.0], [6, 30, 30], dim=2)
        with pytest.raises(InvalidConfigurationError) as err:
            m_step_exact(stats, np.array(weights), tau=0.1)
        assert err.value.key == "weights"
        # the interval is closed, and leading axes stay free
        assert m_step_exact(stats, np.array([[0.0, 1.0]] * 3), tau=0.1).shape == (3, 2)

    def test_zero_weights_return_target_mle(self):
        rng = np.random.default_rng(42)
        _, _, stats = gaussian_stats(rng, [0.0, 3.0, -2.0], [6, 30, 30], dim=2)
        out = m_step_exact(stats, np.zeros(2), tau=0.1)
        np.testing.assert_allclose(out, stats.theta_hat[0], rtol=1e-12)

    def test_equal_precision_average(self):
        # H_0 = H_1 = 4, w = 1, tau = 0: the blend matrix is the
        # identity and the update is the midpoint of the two MLEs
        model = GaussianMeanModel(1, 0.25)
        datasets = [Dataset(np.zeros((1, 1))), Dataset(np.full((1, 1), 2.0))]
        stats = build_sufficient_stats(model, datasets)
        np.testing.assert_allclose(stats.hessians[0], [[4.0]])
        out = m_step_exact(stats, np.ones(1), tau=0.0)
        np.testing.assert_allclose(out, [1.0], rtol=1e-12)

    def test_matches_surrogate_under_proportional_hessians(self):
        # with H_k = N_k c I and tau = 0 the precision blend reduces
        # algebraically to the size-weighted average
        rng = np.random.default_rng(42)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            k = int(rng.integers(1, 5))
            sizes = rng.integers(1, 40, size=k + 1)
            c = float(rng.uniform(0.2, 5.0))
            model = GaussianMeanModel(d, 1.0 / c)
            datasets = [
                Dataset(rng.normal(size=(int(n), d))) for n in sizes
            ]
            stats = build_sufficient_stats(model, datasets)
            weights = rng.uniform(0.0, 1.0, size=k)
            exact = m_step_exact(stats, weights, tau=0.0)
            surrogate = m_step_surrogate(stats, weights)
            assert np.max(np.abs(exact - surrogate)) <= 1e-12

    def test_spread_shrinks_source_influence(self):
        rng = np.random.default_rng(42)
        _, _, stats = gaussian_stats(rng, [0.0, 4.0], [4, 400])
        pulled_hard = m_step_exact(stats, np.ones(1), tau=0.0)
        pulled_soft = m_step_exact(stats, np.ones(1), tau=1.0)
        target = stats.theta_hat[0, 0]
        source = stats.theta_hat[1, 0]
        # a large relevant-cluster spread discounts the source precision
        assert abs(pulled_soft[0] - target) < abs(pulled_hard[0] - target)
        assert (pulled_hard[0] - target) * (source - target) > 0


class TestMStepSurrogate:
    def test_single_source_midpoint(self):
        model = GaussianMeanModel(1)
        datasets = [Dataset(np.zeros((1, 1))), Dataset(np.full((1, 1), 2.0))]
        stats = build_sufficient_stats(model, datasets)
        np.testing.assert_allclose(
            m_step_surrogate(stats, np.ones(1)), [1.0], rtol=1e-12
        )

    def test_zero_weights_return_target_mle(self):
        rng = np.random.default_rng(42)
        _, _, stats = gaussian_stats(rng, [0.0, 5.0, -5.0], [3, 20, 20])
        np.testing.assert_allclose(
            m_step_surrogate(stats, np.zeros(2)), stats.theta_hat[0], rtol=1e-15
        )

    def test_half_weight_arithmetic(self):
        # N_0=2 at mean 0; one source N=2 at mean 3 with w=1/2:
        # (2*0 + 0.5*2*3) / (2 + 0.5*2) = 1
        model = GaussianMeanModel(1)
        datasets = [
            Dataset(np.array([[-1.0], [1.0]])),
            Dataset(np.array([[2.0], [4.0]])),
        ]
        stats = build_sufficient_stats(model, datasets)
        np.testing.assert_allclose(
            m_step_surrogate(stats, np.array([0.5])), [1.0], rtol=1e-12
        )

    def test_output_stays_in_convex_hull(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            k = int(rng.integers(1, 6))
            model = GaussianMeanModel(d)
            datasets = [
                Dataset(rng.normal(rng.uniform(-5, 5), 1.0, size=(int(n), d)))
                for n in rng.integers(1, 30, size=k + 1)
            ]
            stats = build_sufficient_stats(model, datasets)
            weights = rng.uniform(0.0, 1.0, size=k)
            out = m_step_surrogate(stats, weights)
            lo = stats.theta_hat.min(axis=0) - 1e-12
            hi = stats.theta_hat.max(axis=0) + 1e-12
            assert np.all(out >= lo) and np.all(out <= hi)


class TestSufficientStats:
    def test_requires_target_plus_one_source(self):
        model = GaussianMeanModel(1)
        with pytest.raises(InsufficientDataError):
            build_sufficient_stats(model, [Dataset(np.array([1.0]))])

    def test_requires_nonempty_target(self):
        model = GaussianMeanModel(1)
        with pytest.raises(InsufficientDataError):
            build_sufficient_stats(
                model, [Dataset(np.zeros((0, 1))), Dataset(np.array([1.0]))]
            )

    def test_non_finite_value_names_the_dataset(self):
        model = GaussianMeanModel(1)
        datasets = [
            Dataset(np.array([0.0, 1.0])),
            Dataset(np.array([1.0, 2.0])),
            Dataset(np.array([1.0, np.inf, 2.0])),
        ]
        with pytest.raises(NonFiniteLikelihoodError) as err:
            build_sufficient_stats(model, datasets)
        assert err.value.source_index == 2
        assert "dataset 2" in str(err.value) and "row 2" in str(err.value)

    def test_cross_table_holds_every_pairing(self):
        # the mixture null's table: entry (j, k) is loglik(theta_j; D_k)
        # over the sources, -inf on the diagonal
        rng = np.random.default_rng(42)
        model, datasets, stats = gaussian_stats(rng, [0.0, 1.0, -1.0, 0.5], [3, 5, 7, 6])
        table = em.EmStep(stats).null_part
        assert table.shape == (3, 3)
        for j in range(1, 4):
            for k in range(1, 4):
                if j == k:
                    assert table[j - 1, k - 1] == -np.inf
                    continue
                np.testing.assert_allclose(
                    table[j - 1, k - 1],
                    model.loglik(stats.theta_hat[j], datasets[k]),
                    rtol=1e-12,
                )

    def test_spline_build_reads_each_dataset_once(self, monkeypatch):
        # K + 1 datasets, one design build each; the pooled fit sums theirs
        from lipem import likelihood

        calls = []
        design = likelihood.spline_design
        monkeypatch.setattr(
            likelihood, "spline_design", lambda *a: calls.append(1) or design(*a)
        )
        rng = np.random.default_rng(42)
        knots = np.linspace(0.0, 300.0, 5)
        model = SplineGlmModel(knots, noise_variance=4.0, ridge=1e-8)
        n_sources = 4
        datasets = []
        for n in (12, *(40,) * n_sources):
            x = np.sort(rng.uniform(0.0, 300.0, n))
            datasets.append(Dataset(np.column_stack([x, 480.0 - 1.2 * x])))
        build_sufficient_stats(model, datasets)
        assert len(calls) == n_sources + 1

    def test_arrays_are_frozen(self):
        rng = np.random.default_rng(42)
        _, _, stats = gaussian_stats(rng, [0.0, 1.0], [4, 8])
        with pytest.raises(ValueError):
            stats.theta_hat[0, 0] = 99.0


class TestEmConfigValidation:
    @pytest.mark.parametrize(
        "kwargs, key",
        [
            (dict(tau=-0.1), "tau"),
            (dict(nu=0.0), "nu"),
            (dict(variant="newton"), "variant"),
            (dict(max_iters=0), "max_iters"),
            (dict(tol=0.0), "tol"),
            (dict(patience=0), "patience"),
            (dict(tau=math.inf), "tau"),
            # integers beyond the float range, and an infinite rate
            (dict(tau=10**400), "tau"),
            (dict(nu=10**400), "nu"),
            (dict(nu=math.inf), "nu"),
        ],
    )
    def test_bad_field_rejected_with_key(self, kwargs, key):
        with pytest.raises(InvalidConfigurationError) as err:
            EmConfig(**kwargs)
        assert err.value.key == key

    @pytest.mark.parametrize("value", [-1.0, math.nan])
    def test_public_steps_refuse_what_the_config_refuses(self, value):
        # each public step is one EmStep call, so its tau or nu passes
        # EmConfig's checks
        rng = np.random.default_rng(42)
        _, _, stats = gaussian_stats(rng, [0.0, 1.0, 2.0], [4, 20, 20])
        calls = {
            "tau": lambda: m_step_exact(stats, np.full(2, 0.5), tau=value),
            "nu": lambda: tempering_schedule(3, stats, "fisher_ratio", value),
        }
        for key, call in calls.items():
            with pytest.raises(InvalidConfigurationError) as err:
                call()
            assert err.value.key == key

    def test_unknown_null_kind_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            NullSpec("bootstrap")

    def test_tempering_mode_follows_variant_when_unset(self):
        assert EmConfig(variant="exact_hessian_reuse").tempering_mode == "trace_exact"
        assert EmConfig(variant="small_tau_surrogate").tempering_mode == "fisher_ratio"


class TestRunEm:
    def test_matched_single_source_is_adopted(self):
        # the lone source shares the target's distribution; with a
        # confident prior its weight stays high and the blend tracks
        # the truth to within a few standard errors
        rng = np.random.default_rng(42)
        theta0 = 1.5
        model = GaussianMeanModel(1)
        target = Dataset(rng.normal(theta0, 1.0, size=(4, 1)))
        source = Dataset(rng.normal(theta0, 1.0, size=(10_000, 1)))
        config = EmConfig(
            tau=0.0,
            nu=0.05,
            null_spec=NullSpec("parametric_pooled"),
            max_iters=300,
            tol=1e-6,
        )
        state, report = run_em([target, source], model, [0.99], config)
        # with a single source the pooled null is its own fit, so the
        # ratio is mildly negative and the weight rests just below the
        # prior rather than above it
        assert state.weights[0] >= 0.98
        se = 1.0 / np.sqrt(4 + 10_000)
        assert abs(state.theta[0] - theta0) <= 3.0 * se

    def test_vanishing_prior_recovers_target_mle(self):
        # while beta stays capped small the tiny prior suppresses every
        # source and the blend collapses onto the target-only fit
        rng = np.random.default_rng(42)
        model = GaussianMeanModel(1)
        target = Dataset(rng.normal(0.0, 1.0, size=(4, 1)))
        sources = [
            Dataset(rng.normal(5.0, 1.0, size=(200, 1))),
            Dataset(rng.normal(-4.0, 1.0, size=(200, 1))),
        ]
        for variant in ("exact_hessian_reuse", "small_tau_surrogate"):
            config = EmConfig(
                tau=0.0, nu=1e-6, variant=variant, max_iters=30, tol=1e-12
            )
            state, _ = run_em(
                [target, *sources], model, [1e-9, 1e-9], config
            )
            target_mle = model.mle(target)
            assert np.max(np.abs(state.theta - target_mle)) <= 1e-6

    def test_informative_prior_commits_to_relevant_source(self):
        # scarce-target configuration: one relevant source among three,
        # strong prior on the right one; judged on the median run so a
        # single unlucky draw of the irrelevant offsets cannot flip it
        from lipem.bench import HierarchicalSpec, generate_hierarchical, spawn_rngs

        spec = HierarchicalSpec(
            n_sources=3, relevant=(1,), theta0=(0.0,), tau=0.1, seed=42
        )
        model = GaussianMeanModel(1)
        config = EmConfig(tau=0.1, nu=6e-5, max_iters=100, tol=1e-6)
        relevant_w, irrelevant_w = [], []
        for rng in spawn_rngs(42, 15):
            target, sources, _ = generate_hierarchical(spec, rng)
            state, _ = run_em(
                [target, *sources], model, [0.9, 0.01, 0.01], config
            )
            relevant_w.append(state.weights[0])
            irrelevant_w.append(max(state.weights[1:]))
        assert np.median(relevant_w) >= 0.95
        assert np.median(irrelevant_w) <= 0.05

    def test_empty_sources_dropped_with_warning(self):
        rng = np.random.default_rng(42)
        model = GaussianMeanModel(1)
        target = Dataset(rng.normal(size=(4, 1)))
        good = Dataset(rng.normal(size=(30, 1)))
        empty = Dataset(np.zeros((0, 1)))
        config = EmConfig(tau=0.0, max_iters=5)
        with pytest.warns(RuntimeWarning, match="dropping empty source"):
            state, report = run_em(
                [target, good, empty, good], model, [0.4, 0.4, 0.4], config
            )
        assert report.dropped_sources == (2,)
        assert state.weights.shape == (2,)

    def test_fixed_null_table_follows_dropped_sources(self):
        rng = np.random.default_rng(42)
        model = GaussianMeanModel(1)
        target = Dataset(rng.normal(size=(4, 1)))
        a = Dataset(rng.normal(0.0, 1.0, size=(30, 1)))
        b = Dataset(rng.normal(2.0, 1.0, size=(30, 1)))
        empty = Dataset(np.zeros((0, 1)))
        table = {1: -40.0, 2: -55.0, 3: -42.0}
        config = EmConfig(
            tau=0.0, null_spec=NullSpec("fixed", table=table), max_iters=10
        )
        with pytest.warns(RuntimeWarning):
            state_dropped, _ = run_em(
                [target, a, empty, b], model, [0.3, 0.3, 0.3], config
            )
        config_direct = EmConfig(
            tau=0.0,
            null_spec=NullSpec("fixed", table={1: -40.0, 2: -42.0}),
            max_iters=10,
        )
        state_direct, _ = run_em([target, a, b], model, [0.3, 0.3], config_direct)
        np.testing.assert_array_equal(state_dropped.weights, state_direct.weights)
        np.testing.assert_array_equal(state_dropped.theta, state_direct.theta)

    def test_mixture_null_needs_two_surviving_sources(self):
        rng = np.random.default_rng(42)
        model = GaussianMeanModel(1)
        target = Dataset(rng.normal(size=(4, 1)))
        source = Dataset(rng.normal(size=(20, 1)))
        with pytest.raises(InvalidConfigurationError):
            run_em([target, source], model, [0.5], EmConfig(tau=0.0))

    @pytest.mark.parametrize("max_iters", [1, 40])
    def test_each_dataset_is_read_once(self, max_iters):
        # the likelihood is evaluated once per dataset, at its MLE, while
        # the statistics are built; no iteration reads the data again
        class CountingModel(GaussianMeanModel):
            calls = Counter()

            def loglik(self, theta, data):
                self.calls["loglik"] += 1
                return super().loglik(theta, data)

            def gradient(self, theta, data):
                self.calls["gradient"] += 1
                return super().gradient(theta, data)

            def hessian(self, theta, data):
                self.calls["hessian"] += 1
                return super().hessian(theta, data)

        rng = np.random.default_rng(42)
        model = CountingModel(1)
        datasets = [Dataset(rng.normal(m, 1.0, size=(n, 1))) for m, n in
                    ((0.0, 4), (0.1, 50), (3.0, 50), (-2.0, 50))]
        config = EmConfig(tau=0.1, nu=0.05, max_iters=max_iters, tol=1e-12)
        _, report = run_em(datasets, model, [0.5, 0.5, 0.5], config)
        assert report.iterations == max_iters
        assert model.calls == {"loglik": 4, "gradient": 4, "hessian": 4}

    def test_run_constants_are_built_once(self, monkeypatch):
        # the Laplace terms, the M-step blocks, the tempering scales
        # and the prior logit depend on the run, not on the iterate
        calls = Counter()
        monkeypatch.setattr(em, "_laplace_terms", counting(calls, "laplace", em._laplace_terms))
        monkeypatch.setattr(em, "logit", counting(calls, "logit", em.logit))
        count_step_builds(monkeypatch, calls, "blend", "eps")
        rng = np.random.default_rng(42)
        model = GaussianMeanModel(2)
        datasets = [Dataset(rng.normal(m, 1.0, size=(n, 2))) for m, n in
                    ((0.0, 4), (0.1, 50), (3.0, 50), (-2.0, 50))]
        config = EmConfig(tau=0.1, nu=6e-5, max_iters=100, tol=1e-15)
        _, report = run_em(datasets, model, [0.5, 0.5, 0.5], config)
        assert report.iterations == 100
        assert calls == {"laplace": 1, "logit": 1, "blend": 1, "eps": 1}

    @pytest.mark.parametrize("pi", [[0.5, np.nan], [0.5, 1.0], [0.0, 0.5], [0.5]])
    def test_prior_checked_before_any_dataset_is_read(self, pi):
        class RefusingModel(GaussianMeanModel):
            def mle(self, data):
                raise AssertionError("a dataset was read")

        rng = np.random.default_rng(42)
        datasets = [Dataset(rng.normal(size=(n, 1))) for n in (4, 20, 20)]
        with pytest.raises(InvalidConfigurationError) as err:
            run_em(datasets, RefusingModel(1), pi, EmConfig(tau=0.1))
        assert err.value.key == "pi"

    def test_iteration_cap_is_reported_not_raised(self):
        rng = np.random.default_rng(42)
        model = GaussianMeanModel(1)
        target = Dataset(rng.normal(size=(4, 1)))
        sources = [
            Dataset(rng.normal(0.0, 1.0, size=(50, 1))),
            Dataset(rng.normal(3.0, 1.0, size=(50, 1))),
        ]
        config = EmConfig(tau=0.0, max_iters=2, tol=1e-12)
        state, report = run_em([target, *sources], model, [0.5, 0.5], config)
        assert report.converged is False
        assert report.iterations == 2

    def test_history_and_schedule_invariants(self):
        rng = np.random.default_rng(42)
        model = GaussianMeanModel(1)
        target = Dataset(rng.normal(size=(4, 1)))
        sources = [
            Dataset(rng.normal(0.2, 1.0, size=(80, 1))),
            Dataset(rng.normal(4.0, 1.0, size=(80, 1))),
        ]
        pi = [0.7, 0.2]
        config = EmConfig(tau=0.0, nu=0.05, max_iters=40, tol=1e-9)
        state, report = run_em([target, *sources], model, pi, config)
        np.testing.assert_array_equal(report.weight_history[0], pi)
        assert np.all(report.weight_history >= 0.0)
        assert np.all(report.weight_history <= 1.0)
        assert np.all(np.diff(report.beta_history, axis=0) >= -1e-15)
        assert report.beta_history[0, 0] == 0.0
        assert np.isinf(report.delta_w_history[0])

    def test_convergence_requires_patience_consecutive_small_steps(self):
        rng = np.random.default_rng(42)
        model = GaussianMeanModel(1)
        target = Dataset(rng.normal(size=(6, 1)))
        sources = [
            Dataset(rng.normal(0.0, 1.0, size=(60, 1))),
            Dataset(rng.normal(0.5, 1.0, size=(60, 1))),
        ]
        config = EmConfig(tau=0.0, nu=0.5, max_iters=500, tol=1e-4, patience=5)
        state, report = run_em([target, *sources], model, [0.5, 0.5], config)
        assert report.converged
        deltas = report.delta_w_history[report.iterations - 4 : report.iterations + 1]
        assert np.all(deltas <= 1e-4)


class TestEmReportFile:
    def test_failed_write_keeps_previous_report(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(42)
        model = GaussianMeanModel(1)
        datasets = [Dataset(rng.normal(m, 1.0, size=(n, 1)))
                    for m, n in ((0.0, 4), (0.0, 40), (2.0, 40))]
        _, report = run_em(datasets, model, [0.5, 0.5], EmConfig(max_iters=6))
        path = tmp_path / "em_report.txt"
        write_em_report(report, path)
        before = path.read_bytes()
        _, longer = run_em(datasets, model, [0.5, 0.5], EmConfig(max_iters=9))

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("lipem.files.os.replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            write_em_report(longer, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["em_report.txt"]

    def test_report_round_trips_history(self, tmp_path):
        rng = np.random.default_rng(42)
        model = GaussianMeanModel(1)
        target = Dataset(rng.normal(size=(4, 1)))
        sources = [
            Dataset(rng.normal(0.0, 1.0, size=(40, 1))),
            Dataset(rng.normal(2.0, 1.0, size=(40, 1))),
        ]
        config = EmConfig(tau=0.0, max_iters=6, tol=1e-9)
        state, report = run_em([target, *sources], model, [0.5, 0.5], config)
        path = tmp_path / "em_report.txt"
        write_em_report(report, path)
        lines = path.read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        rows = [ln for ln in lines if not ln.startswith("#")]
        assert any("variant=exact_hessian_reuse" in ln for ln in comments)
        assert any("converged=" in ln for ln in comments)
        assert len(rows) == report.iterations + 1
        first = rows[0].split()
        # t, beta_1, beta_2, w_1, w_2, theta_1, delta_w
        assert len(first) == 7
        np.testing.assert_allclose(
            [float(v) for v in rows[1].split()[3:5]],
            report.weight_history[1],
            rtol=1e-10,
        )


def _assert_same_run(got, want):
    """A row's (state, report) equals its solo run's, bit for bit."""
    (state, report), (solo_state, solo) = got, want
    assert report.iterations == solo.iterations
    assert report.converged == solo.converged
    assert report.dropped_sources == solo.dropped_sources
    assert report.config == solo.config
    for name in ("weight_history", "theta_history", "beta_history", "delta_w_history"):
        np.testing.assert_array_equal(getattr(report, name), getattr(solo, name))
    np.testing.assert_array_equal(state.theta, solo_state.theta)
    np.testing.assert_array_equal(state.weights, solo_state.weights)
    np.testing.assert_array_equal(state.beta, solo_state.beta)
    assert state.t == solo_state.t


def _reference_run(datasets, model, pi, config):
    """The per-run loop that run_em_rows replaced, kept as the reference:
    one problem, unstacked statistics, no empty sources."""
    stats = build_sufficient_stats(model, datasets)
    pi = np.asarray(pi, dtype=float)
    state = EmState(np.zeros(stats.dim), pi.copy(), 0, np.zeros(stats.n_sources))
    state.weights = e_step(state, stats, pi, config)
    rows = [(state.weights.copy(), state.theta.copy(), state.beta.copy(), np.inf)]
    converged, streak, iterations = False, 0, 0
    for t in range(1, config.max_iters + 1):
        state.t = t
        state.beta = tempering_schedule(t, stats, config.tempering_mode, config.nu)
        new_weights = e_step(state, stats, pi, config)
        delta = float(np.max(np.abs(new_weights - state.weights)))
        state.weights = new_weights
        if config.variant == "exact_hessian_reuse":
            state.theta = m_step_exact(stats, state.weights, config.tau)
        else:
            state.theta = m_step_surrogate(stats, state.weights)
        iterations = t
        rows.append((state.weights.copy(), state.theta.copy(), state.beta.copy(), delta))
        streak = streak + 1 if delta <= config.tol else 0
        if streak >= config.patience:
            converged = True
            break
    weights, theta, beta, deltas = (np.array(column) for column in zip(*rows))
    report = em.EmRunReport(converged, iterations, config, weights, theta, beta, deltas)
    return state, report


def _collection(rng, k, d, n_target=5):
    means = rng.normal(0.0, 2.0, size=(k, d))
    return [Dataset(rng.normal(0.0, 1.0, size=(n_target, d)))] + [
        Dataset(rng.normal(m, 1.0, size=(int(rng.integers(20, 120)), d))) for m in means
    ]


class TestRowAxis:
    """run_em_rows advances many problems at once; each row must equal
    the solo run_em of its (collection, prior) pair."""

    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 6),
        k=st.integers(2, 5),
        variant=st.sampled_from(em.VARIANTS),
        null_kind=st.sampled_from(em.NULL_KINDS),
        tau=st.sampled_from([0.0, 0.1, 1.0]),
    )
    def test_every_row_equals_its_solo_run(
        self, seed, n_rows, k, variant, null_kind, tau
    ):
        # each collection draws its own dimension and has its own model
        rng = np.random.default_rng(seed)
        collections = [
            _collection(rng, k, int(rng.integers(1, 4)))
            for _ in range(int(rng.integers(1, n_rows + 1)))
        ]
        models = [GaussianMeanModel(data[0].points.shape[1]) for data in collections]
        table = {j: float(rng.normal(-60.0, 10.0)) for j in range(1, k + 1)}
        config = EmConfig(
            tau=tau,
            nu=float(10 ** rng.uniform(-3.0, -0.5)),
            variant=variant,
            null_spec=NullSpec(null_kind, table if null_kind == "fixed" else None),
            max_iters=int(rng.integers(1, 120)),
            tol=float(10 ** rng.uniform(-5.0, -2.0)),
        )
        rows = [
            (int(rng.integers(len(collections))), rng.uniform(0.01, 0.99, size=k))
            for _ in range(n_rows)
        ]
        got = run_em_rows(collections, models, rows, config)
        assert len(got) == n_rows
        for (c, pi), result in zip(rows, got):
            _assert_same_run(result, run_em(collections[c], models[c], pi, config))
            _assert_same_run(result, _reference_run(collections[c], models[c], pi, config))

    def test_a_converged_row_freezes_while_others_run(self):
        rng = np.random.default_rng(42)
        data = _collection(rng, 3, 1)
        config = EmConfig(tau=0.1, nu=0.05, max_iters=400, tol=1e-4)
        pis = [np.array([0.5, 0.5, 0.5]), np.array([1e-6, 0.999, 1e-6])]
        rows = [(0, pis[0]), (0, pis[1])]
        got = run_em_rows([data], GaussianMeanModel(1), rows, config)
        iterations = [report.iterations for _, report in got]
        assert iterations[0] != iterations[1]
        assert all(report.converged for _, report in got)
        for (_, pi), result in zip(rows, got):
            _assert_same_run(result, run_em(data, GaussianMeanModel(1), pi, config))
            # one history row per iteration run, not per max_iters
            assert result[1].weight_history.shape == (result[1].iterations + 1, 3)

    @pytest.mark.parametrize(
        "pis, order",
        [
            # both d = 1 rows freeze while the d = 2 row runs on
            (([1e-6, 0.999, 1e-6], [0.999, 1e-6, 1e-6], [0.5, 0.5, 0.5]), [0, 2, 1]),
            # the d = 2 row freezes while a d = 1 row runs on
            (([1e-6, 0.999, 1e-6], [0.5, 0.5, 0.5], [0.9, 0.9, 0.9]), [0, 1, 2]),
        ],
        ids=["first-group-freezes", "second-group-freezes"],
    )
    @pytest.mark.parametrize("variant", em.VARIANTS)
    def test_a_restack_that_reorders_the_rows(self, variant, pis, order):
        # rows [d1, d2, d1]: the first row freezes first, so the live
        # rows come back as (d2, d1), the reverse of the first stack's
        # order of dimensions, on a restack of the same padded width
        rng = np.random.default_rng(42)
        collections = [_collection(rng, 3, 1), _collection(rng, 3, 2)]
        models = [GaussianMeanModel(1), GaussianMeanModel(2)]
        rows = [(c, np.array(pi)) for c, pi in zip((0, 1, 0), pis)]
        config = EmConfig(tau=0.1, nu=0.05, variant=variant, max_iters=400, tol=1e-4)
        got = run_em_rows(collections, models, rows, config)
        iterations = [report.iterations for _, report in got]
        assert all(report.converged for _, report in got)
        assert len(set(iterations)) == 3
        assert sorted(range(3), key=iterations.__getitem__) == order
        for (c, pi), result in zip(rows, got):
            _assert_same_run(result, run_em(collections[c], models[c], pi, config))
            _assert_same_run(result, _reference_run(collections[c], models[c], pi, config))

    @pytest.mark.parametrize("variant", em.VARIANTS)
    def test_a_stack_pads_each_constant_as_np_pad_does(self, variant):
        # collections of d = 1, 2 and 3: each row's marginal terms and
        # blend table are its step's, zero-padded to D = 3 bit for bit as
        # np.pad pads them (the exact blend's target row then gains its
        # identity block), and its eps, E and shift are its step's own;
        # a restack of fewer rows, as the loop makes, reads the same
        rng = np.random.default_rng(42)
        config = EmConfig(tau=0.1, variant=variant)
        steps = [
            em.EmStep(build_sufficient_stats(GaussianMeanModel(d), _collection(rng, 3, d)), config)
            for d in (1, 2, 3)
        ]
        blend_axes = 2 if variant == "exact_hessian_reuse" else 1

        def padded(value, axes, by):
            return np.pad(value, [(0, 0)] * (value.ndim - axes) + [(0, by)] * axes)

        for index in ([2, 0, 1, 0], [1, 0]):
            stack = em.EmStep.stack(steps, index, np.full((len(index), 3), 0.5))
            for r, c in enumerate(index):
                step, by = steps[c], 2 - c
                for got, want, axes in zip(stack.marginal, step.marginal, (1, 0, 1, 2)):
                    np.testing.assert_array_equal(got[r], padded(want, axes, by))
                blend = padded(step.blend, blend_axes, by)
                if variant == "exact_hessian_reuse":
                    for i in range(c + 1, 3):
                        blend[0, i, i + 1] = 1.0
                np.testing.assert_array_equal(stack.blend[r], blend)
                np.testing.assert_array_equal(stack.eps[r], step.eps)
                for got, want in zip(stack.mixture, step.mixture):
                    np.testing.assert_array_equal(got[r], want)

    def test_a_stack_at_t_zero_returns_its_priors(self):
        # beta at a zero ramp lies on the stack's (R, K) row axis, and the
        # E-step there returns each row's prior exactly
        rng = np.random.default_rng(42)
        _, _, stats = gaussian_stats(rng, [0.0, 1.0, 2.0], [4, 10, 10])
        pis = np.array([[0.2, 0.7], [0.9, 0.4]])
        stack = em.EmStep.stack([em.EmStep(stats)], [0, 0], pis)
        beta = stack.beta(0)
        np.testing.assert_array_equal(beta, np.zeros((2, 2)))
        np.testing.assert_array_equal(stack.e_step(beta, np.zeros((2, 1)), pis), pis)
        # a solo step reads no tempering scale at t = 0, so a singular
        # target Hessian warns nothing there
        singular = SufficientStats(
            np.zeros((3, 1)), np.zeros(3), np.zeros((3, 1)), np.zeros((3, 1, 1)),
            np.full(3, 10), np.zeros(1),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tempering_schedule(0, singular, "trace_exact", 0.05)
        np.testing.assert_array_equal(got, np.zeros(2))
        with pytest.warns(RuntimeWarning, match="target Hessian is singular"):
            tempering_schedule(1, singular, "trace_exact", 0.05)

    def test_constants_are_built_once_per_collection(self, monkeypatch):
        # two collections of two rows each: every per-run constant is
        # built once per collection, not per row, and a row that freezes
        # leaves the others restacked from the constants already built
        calls = Counter()
        monkeypatch.setattr(em, "_laplace_terms", counting(calls, "laplace", em._laplace_terms))
        monkeypatch.setattr(em, "logit", counting(calls, "logit", em.logit))
        # the mixture null's table is made by the step's null_part, its E
        # and shift by its mixture, the marginal's theta_k, c_k, b_k and
        # C_k by its marginal
        count_step_builds(monkeypatch, calls, "eps", "blend", "null_part", "mixture", "marginal")
        rng = np.random.default_rng(42)
        collections = [_collection(rng, 3, 2), _collection(rng, 3, 2)]
        pis = [np.full(3, 0.5), np.array([1e-6, 0.999, 1e-6])]
        rows = [(c, pi) for c in range(2) for pi in pis]
        config = EmConfig(tau=0.1, nu=0.05, max_iters=400, tol=1e-4)
        got = run_em_rows(collections, GaussianMeanModel(2), rows, config)
        iterations = [report.iterations for _, report in got]
        assert all(report.converged for _, report in got)
        assert min(iterations) < max(iterations)
        # the table, E and the shift are made once per collection, and E
        # and the shift are restacked with the rest
        assert calls == {
            "laplace": 2, "blend": 2, "eps": 2, "logit": 1, "null_part": 2, "mixture": 2,
            "marginal": 2,
        }

    @pytest.mark.parametrize("null_kind", em.NULL_KINDS)
    def test_iterations_redo_no_laplace_work(self, monkeypatch, null_kind):
        # the Laplace terms are taken once per collection, and no
        # iteration expands a dataset: an iteration evaluates the K
        # sources' marginal quadratics once, for every row, and the only
        # dataset expansion is the null's own, the mixture table or the
        # pooled scores, once per collection
        calls, kinds = Counter(), Counter()
        monkeypatch.setattr(em, "_laplace_terms", counting(calls, "laplace", em._laplace_terms))
        expand = em._expand

        def recording(theta, center, value, *terms):
            # the stack's marginal has a row axis; a dataset expansion
            # reads one collection's statistics
            kinds["marginal" if value.ndim == 2 else "dataset"] += 1
            return expand(theta, center, value, *terms)

        monkeypatch.setattr(em, "_expand", recording)
        table = {j: -50.0 - j for j in range(1, 4)}
        spec = NullSpec(null_kind, table if null_kind == "fixed" else None)
        config = EmConfig(tau=0.1, nu=6e-5, null_spec=spec, max_iters=30, tol=1e-15)
        rows = [(0, np.full(3, 0.5)), (1, np.full(3, 0.3)), (1, np.full(3, 0.7))]
        # collections of one dimension, then of d = 1 and d = 3: the
        # marginal runs once per iteration over the padded rows either way
        for dims in ((2, 2), (1, 3)):
            calls.clear()
            kinds.clear()
            rng = np.random.default_rng(42)
            collections = [_collection(rng, 3, d) for d in dims]
            models = [GaussianMeanModel(d) for d in dims]
            got = run_em_rows(collections, models, rows, config)
            assert [report.iterations for _, report in got] == [30, 30, 30]
            assert calls["laplace"] == 2
            assert kinds == {"marginal": 30, **({} if null_kind == "fixed" else {"dataset": 2})}

    @pytest.mark.parametrize("tau", [0.0, 0.1])
    @pytest.mark.parametrize("null_kind", em.NULL_KINDS)
    @pytest.mark.parametrize("variant", em.VARIANTS)
    def test_public_steps_are_the_loops_step(self, monkeypatch, variant, null_kind, tau):
        # the loop's own step object, and every row's history replayed
        # through the public functions on the row's own statistics:
        # beta, weights, null scores and theta agree bit for bit
        steps = []

        class Recording(em.EmStep):
            def __post_init__(self):
                super().__post_init__()
                steps.append(self)

        monkeypatch.setattr(em, "EmStep", Recording)
        rng = np.random.default_rng(42)
        k, d = 4, 2
        collections = [_collection(rng, k, d) for _ in range(2)]
        table = {j: float(rng.normal(-60.0, 10.0)) for j in range(1, k + 1)}
        spec = NullSpec(null_kind, table if null_kind == "fixed" else None)
        config = EmConfig(tau=tau, variant=variant, null_spec=spec, max_iters=30, tol=1e-15)
        rows = [(c, rng.uniform(0.05, 0.95, size=k)) for c in (0, 1, 1)]
        model = GaussianMeanModel(d)
        got = run_em_rows(collections, model, rows, config)
        # the stack's step, until the first row freezes
        loop = next(step for step in steps if step.stats is None)
        first_freeze = min(report.iterations for _, report in got)
        assert first_freeze >= 10
        solo = [build_sufficient_stats(model, data) for data in collections]
        weights, thetas, betas = (
            np.stack([getattr(report, name)[: first_freeze + 1] for _, report in got], axis=1)
            for name in ("weight_history", "theta_history", "beta_history")
        )
        m_step = (
            (lambda stats, w: m_step_exact(stats, w, tau))
            if variant == "exact_hessian_reuse" else m_step_surrogate
        )
        for t in range(1, first_freeze + 1):
            prev = weights[t - 1]
            loop_null = loop.null(prev)
            for r, (c, pi) in enumerate(rows):
                state = EmState(thetas[t - 1, r], weights[t - 1, r], t, betas[t, r])
                np.testing.assert_array_equal(
                    tempering_schedule(t, solo[c], config.tempering_mode, config.nu),
                    betas[t, r],
                )
                np.testing.assert_array_equal(e_step(state, solo[c], pi, config), weights[t, r])
                np.testing.assert_array_equal(m_step(solo[c], weights[t, r]), thetas[t, r])
                for j in range(1, k + 1):
                    assert null_loglik(spec, j, solo[c], prev[r]) == loop_null[r, j - 1]

    @pytest.mark.parametrize("null_kind", em.NULL_KINDS)
    def test_only_the_mixture_null_builds_the_cross_table(self, monkeypatch, null_kind):
        # each collection's statistics are built once, and the K x K table
        # once per collection, only for the mixture null
        built, dataset_shapes = [], []
        expand = em._expand

        def building(model, datasets):
            built.append(build_sufficient_stats(model, datasets))
            return built[-1]

        def expanding(theta, center, value, *terms):
            out = expand(theta, center, value, *terms)
            # the stack's marginal has a row axis; a dataset expansion
            # reads one collection's statistics
            if value.ndim == 1:
                dataset_shapes.append(out.shape)
            return out

        monkeypatch.setattr(em, "build_sufficient_stats", building)
        monkeypatch.setattr(em, "_expand", expanding)
        rng = np.random.default_rng(42)
        collections = [_collection(rng, 4, 2) for _ in range(2)]
        table = {j: -50.0 - j for j in range(1, 5)}
        spec = NullSpec(null_kind, table if null_kind == "fixed" else None)
        rows = [(0, np.full(4, 0.5)), (1, np.full(4, 0.3))]
        run_em_rows(collections, GaussianMeanModel(2), rows, EmConfig(tau=0.1, null_spec=spec))
        assert len(built) == 2
        tables = [shape for shape in dataset_shapes if shape == (4, 4)]
        assert tables == ([(4, 4)] * 2 if null_kind == "empirical_bayes_mixture" else [])

    @pytest.mark.parametrize("n_sources", [3, 12])
    def test_a_broadcast_prior_axis_is_the_stack_of_one_collection(self, n_sources):
        # dichotomy_check scores P priors on one collection along a
        # leading axis; that equals the loop's stack of P rows on it,
        # also where the mixture null sums pairwise (K >= 8)
        from lipem.bench import SEPARATED_SPEC, generate_hierarchical

        spec = replace(SEPARATED_SPEC, n_sources=n_sources)
        target, sources, _ = generate_hierarchical(spec, np.random.default_rng(7))
        stats = build_sufficient_stats(GaussianMeanModel(spec.dim), [target, *sources])
        pis = np.repeat(np.array([0.1, 0.5, 0.9])[:, None], stats.n_sources, axis=1)
        theta = np.tile(np.asarray(spec.theta0) + 0.3, (3, 1))
        for config in (EmConfig(), EmConfig(tau=0.1, null_spec=NullSpec("parametric_pooled"))):
            state = EmState(theta=theta, weights=pis, t=1, beta=np.ones(pis.shape))
            stack = em.EmStep.stack([em.EmStep(stats, config)], [0, 0, 0], pis)
            np.testing.assert_array_equal(
                e_step(state, stats, pis, config), stack.e_step(state.beta, theta, pis)
            )

    def test_jitter_reaches_only_the_singular_row(self):
        # every Hessian of the first collection is zero in its second
        # coordinate, so that row's blend is exactly singular and needs
        # jitter (and its target Hessian downgrades the tempering scale);
        # the second row's blend solves as it is. Against a regular
        # collection of d = 3 the singular row is padded to D = 3, and
        # jitters its own 2 x 2 block as its solo step does
        rng = np.random.default_rng(42)

        def stats(hessians):
            n, d = len(hessians), len(hessians[0])
            return SufficientStats(
                rng.normal(size=(n, d)), rng.normal(size=n), np.zeros((n, d)),
                np.asarray(hessians, dtype=float), np.full(n, 10), np.zeros(d),
            )

        singular = stats([np.diag([2.0, 0.0]), np.diag([3.0, 0.0]), np.diag([1.0, 0.0])])
        regular = stats([np.eye(2) * 2.0, np.diag([3.0, 1.0]), np.diag([1.0, 4.0])])
        wider = stats([np.eye(3) * 2.0, np.diag([3.0, 1.0, 2.0]), np.diag([1.0, 4.0, 0.5])])
        weights = np.array([[0.3, 0.6], [0.2, 0.9]])
        config = EmConfig(tau=0.1)
        blend = em.EmStep(singular, config).blend
        blocks, pulls = blend[..., 1:], blend[0, :, 0]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(blocks[0] + 0.3 * blocks[1] + 0.6 * blocks[2], pulls)
        for other in (regular, wider):
            with pytest.warns(RuntimeWarning, match="target Hessian is singular"):
                step = em.EmStep.stack(
                    [em.EmStep(singular, config), em.EmStep(other, config)],
                    [0, 1],
                    np.full((2, 2), 0.5),
                )
            got = step.m_step(weights)
            assert got.shape == (2, other.dim)
            np.testing.assert_array_equal(got[0, :2], m_step_exact(singular, weights[0], 0.1))
            np.testing.assert_array_equal(got[0, 2:], np.zeros(other.dim - 2))
            np.testing.assert_array_equal(got[1], m_step_exact(other, weights[1], 0.1))
            assert np.all(np.isfinite(got))

    @pytest.mark.parametrize(
        "break_row",
        [
            lambda data, pi: ([Dataset(np.zeros((0, 1)))] + data[1:], pi),
            lambda data, pi: (data, np.array([0.5, 1.0, 0.5])),
            lambda data, pi: (
                [Dataset(np.array([[0.1], [np.nan]]))] + data[1:], pi
            ),
            lambda data, pi: ([data[0], *[Dataset(np.zeros((0, 1)))] * 3], pi),
        ],
        ids=["empty-target", "prior-of-one", "non-finite-value", "every-source-empty"],
    )
    def test_a_failing_row_raises_as_its_solo_run(self, break_row):
        rng = np.random.default_rng(42)
        good = _collection(rng, 3, 1)
        bad, bad_pi = break_row(_collection(rng, 3, 1), np.full(3, 0.5))
        config = EmConfig(tau=0.1, max_iters=20)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(LipemError) as solo:
                run_em(bad, GaussianMeanModel(1), bad_pi, config)
            with pytest.raises(LipemError) as batched:
                run_em_rows(
                    [good, bad], GaussianMeanModel(1),
                    [(0, np.full(3, 0.5)), (1, bad_pi)], config,
                )
        assert type(batched.value) is type(solo.value)
        assert str(batched.value) == str(solo.value)

    def test_the_first_faulty_row_raises_its_own_fault(self, monkeypatch):
        # row 0's mixture null is degenerate while its marginal is
        # finite; row 1's marginal is not finite. Both fail at the first
        # tempered E-step, and the error is row 0's, as its solo run's
        degenerate = SufficientStats(
            np.array([[0.0], [1e10], [0.0], [-1e10]]),
            np.array([-5.0, -20.0, -20.0, -20.0]),
            np.zeros((4, 1)),
            np.array([[[1.0]], [[1.0]], [[1e300]], [[1.0]]]),
            np.array([4, 10, 10, 10]),
            np.zeros(1),
        )
        _, _, base = gaussian_stats(
            np.random.default_rng(42), [0.0, 1.0, 2.0, 3.0], [4, 10, 10, 10]
        )
        loglik_hat = base.loglik_hat.copy()
        loglik_hat[2] = -np.inf
        broken = TestEStep._stats_with(base, loglik_hat=loglik_hat)
        collections = [
            [Dataset(np.full((n, 1), float(c))) for n in (4, 10, 10, 10)] for c in range(2)
        ]
        by_collection = {0.0: degenerate, 1.0: broken}
        monkeypatch.setattr(
            em, "build_sufficient_stats",
            lambda model, datasets: by_collection[float(datasets[0].points[0, 0])],
        )
        config = EmConfig(tau=0.1)
        pi = np.full(3, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for order, error in (((0, 1), DegenerateNullError), ((1, 0), NonFiniteLikelihoodError)):
                with pytest.raises(LipemError) as solo:
                    run_em(collections[order[0]], GaussianMeanModel(1), pi, config)
                with pytest.raises(LipemError) as batched:
                    run_em_rows(
                        collections, GaussianMeanModel(1), [(c, pi) for c in order], config
                    )
                assert type(solo.value) is type(batched.value) is error
                assert str(batched.value) == str(solo.value)

    @pytest.mark.parametrize("index", [[0, 2], [0, -1], [0.0, 1.0]])
    def test_a_stack_refuses_a_row_that_names_no_step(self, index):
        # an index past the steps used to end in a bare IndexError
        rng = np.random.default_rng(42)
        steps = [em.EmStep(build_sufficient_stats(GaussianMeanModel(1), _collection(rng, 2, 1)))
                 for _ in range(2)]
        with pytest.raises(InvalidConfigurationError) as err:
            em.EmStep.stack(steps, index, np.full((2, 2), 0.5))
        assert err.value.key == "rows"

    @pytest.mark.parametrize(
        "pi", [[[0.5, 0.5], [0.5, 1.5]], [[0.5, 0.5], [0.5, 0.0]], [[0.5, 0.5]]],
        ids=["above-one", "zero", "one-row-short"],
    )
    def test_a_stack_refuses_a_prior_outside_the_open_interval(self, pi):
        # a prior of 1.5 used to be clamped, so the E-step returned 1.0
        rng = np.random.default_rng(42)
        step = em.EmStep(build_sufficient_stats(GaussianMeanModel(1), _collection(rng, 2, 1)))
        with pytest.raises(InvalidConfigurationError) as err:
            em.EmStep.stack([step], [0, 0], pi)
        assert err.value.key == "pi"

    def test_one_model_per_collection(self):
        rng = np.random.default_rng(42)
        collections = [_collection(rng, 3, 1), _collection(rng, 3, 2)]
        rows = [(0, np.full(3, 0.5)), (1, np.full(3, 0.5))]
        with pytest.raises(InvalidConfigurationError) as err:
            run_em_rows(collections, [GaussianMeanModel(1)], rows, EmConfig(max_iters=5))
        assert err.value.key == "model"

    def test_rows_of_different_shapes_after_dropping_are_rejected(self):
        rng = np.random.default_rng(42)
        full = _collection(rng, 3, 1)
        short = [*_collection(rng, 3, 1)[:2], Dataset(np.zeros((0, 1))), full[3]]
        with pytest.warns(RuntimeWarning, match="dropping empty source"):
            with pytest.raises(InvalidConfigurationError) as err:
                run_em_rows(
                    [full, short], GaussianMeanModel(1),
                    [(0, np.full(3, 0.5)), (1, np.full(3, 0.5))], EmConfig(max_iters=5),
                )
        assert err.value.key == "rows"

    def test_rows_dropping_different_sources_keep_their_own_null_table(self):
        rng = np.random.default_rng(42)
        empty = Dataset(np.zeros((0, 1)))
        a, b = _collection(rng, 3, 1), _collection(rng, 3, 1)
        a[1], b[3] = empty, empty
        config = EmConfig(
            null_spec=NullSpec("fixed", {1: -40.0, 2: -55.0, 3: -48.0}), max_iters=30
        )
        rows = [(0, np.full(3, 0.4)), (1, np.array([0.2, 0.7, 0.4]))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = run_em_rows([a, b], GaussianMeanModel(1), rows, config)
            for (c, pi), result in zip(rows, got):
                _assert_same_run(
                    result, run_em([a, b][c], GaussianMeanModel(1), pi, config)
                )
        assert [r.dropped_sources for _, r in got] == [(1,), (3,)]
        tables = [{1: -55.0, 2: -48.0}, {1: -40.0, 2: -55.0}]
        assert [r.config.null_spec.table for _, r in got] == tables
        # the same runs without the empty sources, tables given compacted
        for (state, _), kept, pi, table in zip(
            got, (a[:1] + a[2:], b[:3]), (rows[0][1][1:], rows[1][1][:2]), tables
        ):
            direct = replace(config, null_spec=NullSpec("fixed", table))
            want, _ = run_em(kept, GaussianMeanModel(1), pi, direct)
            np.testing.assert_array_equal(state.weights, want.weights)
            np.testing.assert_array_equal(state.theta, want.theta)

    def test_run_em_is_the_one_row_call(self, monkeypatch):
        calls = []
        original = em.run_em_rows

        def spy(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(em, "run_em_rows", spy)
        rng = np.random.default_rng(42)
        run_em(_collection(rng, 2, 1), GaussianMeanModel(1), [0.5, 0.5], EmConfig(max_iters=3))
        assert len(calls) == 1 and len(calls[0]) == 1
