"""Tests for the likelihood backbones.

Gradients and Hessians are checked against central finite differences of
the log-likelihood, and the ridge solver against an explicit
normal-equations inverse, before any behavioural tests rely on them.
"""

import numpy as np
import pytest

from lipem.errors import (
    InsufficientDataError,
    InvalidConfigurationError,
    SingularFitError,
)
from lipem.likelihood import (
    Dataset,
    GaussianMeanModel,
    SplineGlmModel,
    clamp_psd,
    pooled_noise_variance,
    spline_design,
)


def fd_gradient(f, theta, step=1e-6):
    """Central finite-difference gradient of a scalar function."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[i] += step
        dn[i] -= step
        out[i] = (f(up) - f(dn)) / (2.0 * step)
    return out


def fd_hessian(f, theta, step=1e-5):
    """Central finite-difference Hessian of a scalar function."""
    theta = np.asarray(theta, dtype=float)
    d = theta.size
    out = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            pp = theta.copy()
            pm = theta.copy()
            mp = theta.copy()
            mm = theta.copy()
            pp[i] += step
            pp[j] += step
            pm[i] += step
            pm[j] -= step
            mp[i] -= step
            mp[j] += step
            mm[i] -= step
            mm[j] -= step
            out[i, j] = (f(pp) - f(pm) - f(mp) + f(mm)) / (4.0 * step * step)
    return out


class TestDataset:
    def test_promotes_one_dimensional_input(self):
        data = Dataset(np.array([1.0, 2.0, 3.0]))
        assert data.points.shape == (3, 1)
        assert data.size == 3
        assert data.width == 1
        assert len(data) == 3

    def test_rejects_higher_rank_input(self):
        with pytest.raises(InvalidConfigurationError):
            Dataset(np.zeros((2, 2, 2)))

    def test_concat_preserves_order(self):
        a = Dataset(np.array([[1.0], [2.0]]))
        b = Dataset(np.array([[3.0]]))
        merged = Dataset.concat([a, b])
        np.testing.assert_array_equal(merged.points[:, 0], [1.0, 2.0, 3.0])

    def test_concat_of_nothing_fails(self):
        with pytest.raises(InsufficientDataError):
            Dataset.concat([])

    def test_owns_a_read_only_copy_of_its_points(self):
        arr = np.column_stack([np.linspace(0.0, 300.0, 12), np.linspace(480.0, 460.0, 12)])
        data = Dataset(arr)
        model = SplineGlmModel(np.linspace(0.0, 300.0, 5), ridge=1e-8)
        points, theta = data.points.copy(), model.mle(data).copy()
        arr[:] = 0.0  # the caller's array, after the dataset was made and fit
        np.testing.assert_array_equal(data.points, points)
        assert model.mle(data).tobytes() == theta.tobytes()
        assert model.mle(Dataset(points)).tobytes() == theta.tobytes()
        with pytest.raises(ValueError):
            data.points[0, 0] = 1.0


class TestClampPsd:
    def test_psd_input_passes_through_symmetrized(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(4, 4))
        psd = a @ a.T
        out = clamp_psd(psd)
        np.testing.assert_allclose(out, psd, atol=1e-12)

    def test_negative_eigenvalues_are_clamped(self):
        mat = np.diag([2.0, -1.0, 0.5])
        out = clamp_psd(mat)
        vals = np.linalg.eigvalsh(out)
        assert vals.min() >= 0.0
        np.testing.assert_allclose(sorted(vals), [0.0, 0.5, 2.0], atol=1e-12)

    def test_output_is_symmetric(self):
        rng = np.random.default_rng(7)
        mat = rng.normal(size=(5, 5))
        out = clamp_psd(mat)
        np.testing.assert_allclose(out, out.T, atol=1e-12)


class TestGaussianMeanModel:
    def test_mle_is_sample_mean(self):
        model = GaussianMeanModel(1)
        data = Dataset(np.array([1.0, 3.0]))
        np.testing.assert_allclose(model.mle(data), [2.0])

    def test_mle_empty_dataset_fails(self):
        model = GaussianMeanModel(1)
        with pytest.raises(InsufficientDataError):
            model.mle(Dataset(np.zeros((0, 1))))

    def test_hessian_scalar_case(self):
        # unit variance, five points: precision N / sigma^2 = 5
        model = GaussianMeanModel(1)
        data = Dataset(np.arange(5.0))
        np.testing.assert_allclose(model.hessian(np.zeros(1), data), [[5.0]])

    def test_hessian_isotropic_case(self):
        model = GaussianMeanModel(2)
        data = Dataset(np.zeros((3, 2)))
        np.testing.assert_allclose(model.hessian(np.zeros(2), data), 3.0 * np.eye(2))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            cov = np.diag(rng.uniform(0.5, 2.0, size=d))
            model = GaussianMeanModel(d, cov)
            data = Dataset(rng.normal(size=(int(rng.integers(2, 12)), d)))
            theta = rng.normal(size=d)
            grad = model.gradient(theta, data)
            approx = fd_gradient(lambda th: model.loglik(th, data), theta)
            scale = 1.0 + np.max(np.abs(grad))
            assert np.max(np.abs(grad - approx)) <= 1e-5 * scale

    def test_gradient_vanishes_at_mle(self):
        rng = np.random.default_rng(42)
        model = GaussianMeanModel(3)
        data = Dataset(rng.normal(size=(30, 3)))
        grad = model.gradient(model.mle(data), data)
        np.testing.assert_allclose(grad, 0.0, atol=1e-8)

    def test_loglik_is_additive_over_datasets(self):
        rng = np.random.default_rng(42)
        model = GaussianMeanModel(2)
        a = Dataset(rng.normal(size=(6, 2)))
        b = Dataset(rng.normal(size=(9, 2)))
        theta = rng.normal(size=2)
        whole = model.loglik(theta, Dataset.concat([a, b]))
        np.testing.assert_allclose(
            whole, model.loglik(theta, a) + model.loglik(theta, b), rtol=1e-12
        )

    def test_quadratic_expansion_is_exact(self):
        # the log-likelihood is an exact quadratic, so a second-order
        # Taylor expansion around any center reproduces it everywhere
        rng = np.random.default_rng(42)
        model = GaussianMeanModel(2)
        data = Dataset(rng.normal(size=(8, 2)))
        center = rng.normal(size=2)
        f0 = model.loglik(center, data)
        g0 = model.gradient(center, data)
        h0 = model.hessian(center, data)
        for _ in range(50):
            theta = rng.normal(scale=3.0, size=2)
            step = theta - center
            taylor = f0 + g0 @ step - 0.5 * step @ h0 @ step
            assert abs(model.loglik(theta, data) - taylor) <= 1e-10

    def test_covariance_must_be_positive_definite(self):
        with pytest.raises(InvalidConfigurationError):
            GaussianMeanModel(2, np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestSplineDesign:
    def test_below_first_knot_nonlinear_columns_vanish(self):
        knots = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        row = spline_design([knots[0] - 1.0], knots)[0]
        np.testing.assert_allclose(row[2:], 0.0, atol=0.0)

    def test_five_knots_give_five_columns(self):
        knots = np.linspace(0.0, 300.0, 5)
        design = spline_design(np.linspace(0.0, 300.0, 40), knots)
        assert design.shape == (40, 5)

    def test_linear_beyond_boundary_knot(self):
        # natural constraint: zero curvature past the last knot, so the
        # second difference of every column on a unit grid vanishes
        knots = np.linspace(0.0, 300.0, 5)
        grid = np.array([knots[-1] + 1.0, knots[-1] + 2.0, knots[-1] + 3.0])
        design = spline_design(grid, knots)
        second_diff = design[2] - 2.0 * design[1] + design[0]
        assert np.max(np.abs(second_diff)) <= 1e-9

    def test_too_few_knots_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            spline_design([0.0], [0.0, 1.0])

    def test_non_increasing_knots_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            spline_design([0.0], [0.0, 1.0, 1.0, 2.0])

    def test_equals_per_knot_loop_bit_for_bit(self):
        # random knot grids, inputs on the knots, below the first knot,
        # beyond the last, at +-0.0, and no inputs at all
        rng = np.random.default_rng(42)
        for trial in range(300):
            m = int(rng.integers(3, 12))
            knots = np.sort(rng.choice(rng.uniform(-50.0, 400.0, 100), m, replace=False))
            n = int(rng.integers(0, 40)) if trial else 0
            x = np.concatenate(
                [rng.uniform(knots[0] - 20.0, knots[-1] + 20.0, n), knots,
                 [0.0, -0.0, knots[0] - 1.0]]
            )
            for inputs in (x, x[:n]):
                got = spline_design(inputs, knots)
                want = reference_spline_design(inputs, knots)
                assert got.shape == want.shape == (inputs.size, m)
                assert got.tobytes() == want.tobytes()

    def test_truncated_powers_are_one_array_expression(self, monkeypatch):
        # one (n, M) pass for every knot, not one pass per knot
        calls = []
        where = np.where
        monkeypatch.setattr(np, "where", lambda *a: calls.append(1) or where(*a))
        spline_design(np.linspace(0.0, 300.0, 20), np.linspace(0.0, 300.0, 8))
        assert len(calls) == 1


def reference_spline_design(inputs, knots):
    """The per-knot loop ``spline_design`` replaced, kept as its reference."""
    x = np.asarray(inputs, dtype=float).reshape(-1)
    xi = np.asarray(knots, dtype=float).reshape(-1)
    m = xi.size

    def cube_plus(v):
        return np.where(v > 0.0, v, 0.0) ** 3

    last = cube_plus(x - xi[m - 1])
    d_pen = (cube_plus(x - xi[m - 2]) - last) / (xi[m - 1] - xi[m - 2])
    cols = [np.ones_like(x), x]
    for j in range(m - 2):
        d_j = (cube_plus(x - xi[j]) - last) / (xi[m - 1] - xi[j])
        cols.append(d_j - d_pen)
    return np.column_stack(cols)


def _spline_data(rng, n=120, knots=None, sigma=2.0):
    knots = np.linspace(0.0, 300.0, 5) if knots is None else knots
    x = rng.uniform(0.0, 300.0, size=n)
    coef = rng.normal(scale=5.0, size=knots.size)
    y = spline_design(x, knots) @ coef + rng.normal(0.0, sigma, size=n)
    return Dataset(np.column_stack([x, y])), knots


class TestSplineGlmModel:
    def test_linear_data_fit_exactly_with_zero_ridge(self):
        knots = np.array([0.0, 50.0, 100.0, 150.0, 200.0])
        x = np.linspace(10.0, 190.0, 30)
        y = 2.0 + 0.5 * x
        model = SplineGlmModel(knots)
        theta = model.mle(Dataset(np.column_stack([x, y])))
        np.testing.assert_allclose(theta[:2], [2.0, 0.5], atol=1e-8)
        np.testing.assert_allclose(theta[2:], 0.0, atol=1e-8)

    def test_ridge_fit_matches_explicit_normal_equations(self):
        # oracle: direct (X'X + lam*P)^{-1} X'y with an explicit inverse,
        # intercept unpenalized, at the turbofan-scale ridge
        rng = np.random.default_rng(42)
        data, knots = _spline_data(rng)
        lam = 1e4
        model = SplineGlmModel(knots, ridge=lam)
        x, y = data.points[:, 0], data.points[:, 1]
        design = spline_design(x, knots)
        penalty = np.eye(knots.size)
        penalty[0, 0] = 0.0
        oracle = np.linalg.inv(design.T @ design + lam * penalty) @ design.T @ y
        np.testing.assert_allclose(model.mle(data), oracle, rtol=1e-8)

    def test_hessian_matches_finite_differences(self):
        # relative to the matrix scale: the cubic basis puts entries across
        # nine orders of magnitude, so elementwise relative error would be
        # dominated by finite-difference cancellation on the tiny entries
        rng = np.random.default_rng(42)
        data, knots = _spline_data(rng, n=40)
        model = SplineGlmModel(knots, noise_variance=4.0)
        theta = model.mle(data)
        hess = model.hessian(theta, data)
        approx = -fd_hessian(lambda th: model.loglik(th, data), theta)
        scale = 1.0 + np.max(np.abs(hess))
        assert np.max(np.abs(hess - approx)) <= 1e-4 * scale

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            data, knots = _spline_data(rng, n=int(rng.integers(20, 60)))
            model = SplineGlmModel(knots, noise_variance=float(rng.uniform(0.5, 4.0)))
            theta = rng.normal(scale=2.0, size=knots.size)
            grad = model.gradient(theta, data)
            approx = fd_gradient(lambda th: model.loglik(th, data), theta, step=1e-5)
            scale = 1.0 + np.max(np.abs(grad))
            assert np.max(np.abs(grad - approx)) <= 1e-4 * scale

    def test_gradient_vanishes_at_unpenalized_mle(self):
        rng = np.random.default_rng(42)
        data, knots = _spline_data(rng)
        model = SplineGlmModel(knots)
        grad = model.gradient(model.mle(data), data)
        assert np.max(np.abs(grad)) <= 1e-8 * (1.0 + np.max(np.abs(data.points)))

    def test_quadratic_expansion_is_exact(self):
        # the EM reads every likelihood value off the expansion around
        # each dataset's MLE, so the expansion must reproduce the
        # log-likelihood everywhere; the cubic basis spans many orders
        # of magnitude, so the check is relative to the value
        rng = np.random.default_rng(42)
        data, knots = _spline_data(rng, n=40)
        model = SplineGlmModel(knots, noise_variance=4.0, ridge=1e-3)
        for center in (model.mle(data), rng.normal(scale=2.0, size=knots.size)):
            f0 = model.loglik(center, data)
            g0 = model.gradient(center, data)
            h0 = model.hessian(center, data)
            for _ in range(50):
                theta = center + rng.normal(scale=0.1, size=knots.size)
                step = theta - center
                taylor = f0 + g0 @ step - 0.5 * step @ h0 @ step
                value = model.loglik(theta, data)
                assert abs(value - taylor) <= 1e-12 * (1.0 + abs(value))

    def test_rank_deficient_fit_without_ridge_fails(self):
        knots = np.linspace(0.0, 300.0, 5)
        model = SplineGlmModel(knots)
        # two observations cannot identify five coefficients
        data = Dataset(np.array([[10.0, 1.0], [20.0, 2.0]]))
        with pytest.raises(SingularFitError):
            model.mle(data)

    def test_rank_deficient_fit_recovered_by_ridge(self):
        knots = np.linspace(0.0, 300.0, 5)
        model = SplineGlmModel(knots, ridge=1e-8)
        data = Dataset(np.array([[10.0, 1.0], [20.0, 2.0]]))
        theta = model.mle(data)
        assert np.all(np.isfinite(theta))

    def test_empty_dataset_fails(self):
        model = SplineGlmModel(np.linspace(0.0, 300.0, 5))
        with pytest.raises(InsufficientDataError):
            model.mle(Dataset(np.zeros((0, 2))))

    def test_fits_kept_on_a_dataset_are_keyed_by_knots_and_ridge(self):
        rng = np.random.default_rng(42)
        data, knots = _spline_data(rng, n=60)
        models = [
            SplineGlmModel(knots, ridge=1e-8),
            SplineGlmModel(knots, ridge=50.0),
            SplineGlmModel(1.1 * knots, ridge=1e-8),
            SplineGlmModel(knots, noise_variance=9.0, ridge=1e-8),
        ]
        # each model reads the shared dataset after the others have
        for _ in range(2):
            for model in models:
                fresh = Dataset(data.points)
                assert model.mle(data).tobytes() == model.mle(fresh).tobytes()
                assert model.summarize(data)[1] == model.summarize(fresh)[1]
        thetas = [model.mle(data) for model in models]
        assert not np.array_equal(thetas[0], thetas[1])
        assert not np.array_equal(thetas[0], thetas[2])
        # the noise variance leaves the fit alone
        assert thetas[0] is thetas[3]

    def test_invalid_construction_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            SplineGlmModel([0.0, 1.0])
        with pytest.raises(InvalidConfigurationError):
            SplineGlmModel([0.0, 1.0, 2.0], noise_variance=0.0)
        with pytest.raises(InvalidConfigurationError):
            SplineGlmModel([0.0, 1.0, 2.0], ridge=-1.0)


class TestSummarize:
    """``summarize`` is the four public methods at the MLE, bit for bit."""

    @staticmethod
    def assert_matches_the_methods(model, data):
        theta = model.mle(data)
        want = (
            theta,
            model.loglik(theta, data),
            model.gradient(theta, data),
            clamp_psd(model.hessian(theta, data)),
        )
        got = model.summarize(data)
        assert len(got) == 4
        assert type(got[1]) is float and got[1] == want[1]
        for k in (0, 2, 3):  # the arrays
            assert got[k].dtype == want[k].dtype and got[k].shape == want[k].shape
            assert got[k].tobytes() == want[k].tobytes()

    def test_gaussian(self):
        rng = np.random.default_rng(42)
        for dim in (1, 3):
            cov = np.eye(dim) + 0.3 * np.ones((dim, dim))
            data = Dataset(rng.normal(1.0, 2.0, size=(25, dim)))
            self.assert_matches_the_methods(GaussianMeanModel(dim, cov), data)

    @pytest.mark.parametrize("ridge", [0.0, 1e-8, 50.0])
    def test_spline(self, ridge):
        rng = np.random.default_rng(42)
        data, knots = _spline_data(rng, n=60)
        model = SplineGlmModel(knots, noise_variance=3.0, ridge=ridge)
        self.assert_matches_the_methods(model, data)
        if ridge == 50.0:
            # the penalized MLE leaves a gradient to carry
            assert np.max(np.abs(model.summarize(data)[2])) > 1e-6

    def test_two_point_spline_target_has_its_hessian_clamped(self):
        knots = np.linspace(0.0, 300.0, 5)
        model = SplineGlmModel(knots, noise_variance=4.0, ridge=1e-8)
        data = Dataset(np.array([[10.0, 478.0], [20.0, 476.5]]))
        raw = model.hessian(model.mle(data), data)
        assert np.linalg.eigvalsh(raw)[0] < 0.0  # rank 2 of 5, rounded below 0
        self.assert_matches_the_methods(model, data)

    def test_spline_errors_match_mle(self):
        model = SplineGlmModel(np.linspace(0.0, 300.0, 5))
        with pytest.raises(InsufficientDataError):
            model.summarize(Dataset(np.zeros((0, 2))))
        with pytest.raises(SingularFitError):
            model.summarize(Dataset(np.array([[10.0, 1.0], [20.0, 2.0]])))
        with pytest.raises(InvalidConfigurationError):
            model.summarize(Dataset(np.zeros((3, 3))))


class TestPooledMle:
    """A spline pooled fit solves the summed normal equations of the
    datasets' own fits; it is the fit of their concatenation."""

    @staticmethod
    def concat_fit(model, datasets):
        return model.mle(Dataset.concat(datasets))

    @staticmethod
    def assert_same_fit(model, got, want):
        # cond(X'X) is ~1e10 on this basis, so two summation orders move
        # the coefficients by a few 1e-12; the fitted curve barely moves
        grid = np.linspace(0.0, 300.0, 301)
        curve = model.predict(want, grid)
        assert np.max(np.abs(model.predict(got, grid) - curve)) <= 1e-12 * np.max(
            np.abs(curve)
        )
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("ridge", [0.0, 1e-8, 50.0])
    def test_spline_equals_the_concat_fit(self, ridge):
        rng = np.random.default_rng(42)
        knots = np.linspace(0.0, 300.0, 5)
        datasets = [_spline_data(rng, n=n, knots=knots)[0] for n in (3, 40, 80)]
        datasets.insert(1, Dataset(np.zeros((0, 2))))
        model = SplineGlmModel(knots, noise_variance=4.0, ridge=ridge)
        self.assert_same_fit(
            model, model.pooled_mle(datasets), self.concat_fit(model, datasets)
        )

    def test_spline_fails_where_the_concat_fit_fails(self):
        model = SplineGlmModel(np.linspace(0.0, 300.0, 5))
        # every cycle below the second knot: rank deficient together
        low = [
            Dataset(np.array([[10.0, 1.0], [20.0, 2.0]])),
            Dataset(np.array([[30.0, 1.5], [40.0, 2.5]])),
        ]
        for fit in (model.pooled_mle, lambda ds: self.concat_fit(model, ds)):
            with pytest.raises(SingularFitError):
                fit(low)
            with pytest.raises(InsufficientDataError):
                fit([Dataset(np.zeros((0, 2)))])
        # rank deficient one by one, full rank together
        spread = [
            Dataset(np.array([[x, 0.1 * x], [x + 150.0, 0.2 * x]]))
            for x in (10.0, 60.0, 110.0)
        ]
        for data in spread:
            with pytest.raises(SingularFitError):
                model.mle(data)
        self.assert_same_fit(
            model, model.pooled_mle(spread), self.concat_fit(model, spread)
        )

    def test_gaussian_is_the_concat_fit(self):
        rng = np.random.default_rng(42)
        model = GaussianMeanModel(2)
        datasets = [Dataset(rng.normal(size=(n, 2))) for n in (3, 0, 40)]
        want = self.concat_fit(model, datasets)
        assert model.pooled_mle(datasets).tobytes() == want.tobytes()


class TestPooledNoiseVariance:
    def test_matches_hand_computed_residual_variance(self):
        rng = np.random.default_rng(42)
        knots = np.linspace(0.0, 300.0, 5)
        datasets = [_spline_data(rng, n=80, knots=knots)[0] for _ in range(3)]
        pooled = pooled_noise_variance(knots, datasets, ridge=1e-8)
        probe = SplineGlmModel(knots, ridge=1e-8)
        total_ss = 0.0
        total_n = 0
        for data in datasets:
            theta = probe.mle(data)
            resid = data.points[:, 1] - probe.predict(theta, data.points[:, 0])
            total_ss += resid @ resid
            total_n += data.size
        np.testing.assert_allclose(pooled, total_ss / total_n, rtol=1e-10)

    def test_perfect_fits_hit_the_floor(self):
        knots = np.array([0.0, 50.0, 100.0, 150.0, 200.0])
        x = np.linspace(10.0, 190.0, 30)
        data = Dataset(np.column_stack([x, 1.0 + 2.0 * x]))
        pooled = pooled_noise_variance(knots, [data], ridge=0.0)
        assert pooled == pytest.approx(1e-8)

    def test_no_observations_fails(self):
        with pytest.raises(InsufficientDataError):
            pooled_noise_variance(np.linspace(0.0, 300.0, 5), [Dataset(np.zeros((0, 2)))])
