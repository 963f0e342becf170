"""Tests for the benchmark generators, closed forms, and experiments.

The closed-form MSE identities are the oracles here: they are checked
by direct arithmetic and against vectorized Monte Carlo before the
experiment drivers that consume them are exercised.
"""

import contextlib
import warnings
from dataclasses import replace

import numpy as np
import pytest


@contextlib.contextmanager
def quiet_runtime_warnings():
    """Silence the 100-engine advisory and tiny-target fit warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield

from lipem.bench import (
    BenchReport,
    GaussianExperimentConfig,
    HierarchicalSpec,
    NullGen,
    OracleSpec,
    baselines,
    cmapss_experiment,
    consistency_check,
    dichotomy_check,
    fast_decay_lip,
    fixed_weight_blend,
    gaussian_experiment,
    generate_hierarchical,
    oracle_closed_form_mse,
    oracle_mse_check,
    spawn_rngs,
)
from lipem.bench import _draw_source_thetas
from lipem.em import EmConfig, NullSpec, run_em
from lipem.errors import (
    DataNotFoundError,
    InsufficientDataError,
    InvalidConfigurationError,
)
from lipem.likelihood import Dataset, GaussianMeanModel


class TestSpawnRngs:
    def test_deterministic_and_independent(self):
        a = spawn_rngs(7, 3)
        b = spawn_rngs(7, 3)
        draws_a = [r.normal(size=4) for r in a]
        draws_b = [r.normal(size=4) for r in b]
        for x, y in zip(draws_a, draws_b):
            np.testing.assert_array_equal(x, y)
        assert not np.allclose(draws_a[0], draws_a[1])


class TestNullGen:
    def test_fixed_offset_returned_verbatim(self):
        gen = NullGen(offset=(5.0, -1.0))
        rng = np.random.default_rng(42)
        np.testing.assert_array_equal(gen.draw_offset(2, 1.0, rng), [5.0, -1.0])

    def test_offset_dimension_checked(self):
        gen = NullGen(offset=(5.0,))
        with pytest.raises(InvalidConfigurationError):
            gen.draw_offset(2, 1.0, np.random.default_rng(42))

    def test_shell_draw_radius_within_bounds(self):
        gen = NullGen()
        rng = np.random.default_rng(42)
        for _ in range(200):
            off = gen.draw_offset(3, 2.0, rng)
            r = np.linalg.norm(off)
            assert 3.0 * 2.0 <= r <= 6.0 * 2.0

    def test_invalid_shell_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            NullGen(shell=(6.0, 3.0))

    def test_invalid_spread_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            NullGen(spread=0.0)


class TestHierarchicalSpec:
    def test_relevant_must_be_in_range(self):
        with pytest.raises(InvalidConfigurationError):
            HierarchicalSpec(n_sources=2, relevant=(3,))

    def test_negative_tau_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            HierarchicalSpec(tau=-0.1)

    @pytest.mark.parametrize("field", ["tau", "sigma"])
    def test_integer_beyond_float_range_rejected_with_key(self, field):
        # an integer beyond the float range has no finite square
        with pytest.raises(InvalidConfigurationError) as err:
            HierarchicalSpec(**{field: 10**400})
        assert err.value.key == field

    @pytest.mark.parametrize("config", [HierarchicalSpec, GaussianExperimentConfig])
    def test_negative_seed_rejected_with_key(self, config):
        # numpy's generators take no negative seed
        with pytest.raises(InvalidConfigurationError) as err:
            config(seed=-1)
        assert err.value.key == "seed"
        assert config(seed=0).seed == 0

    def test_dim_follows_theta0(self):
        assert HierarchicalSpec(theta0=(0.0, 1.0, 2.0)).dim == 3

    def test_relevant_deduplicated_and_sorted(self):
        spec = HierarchicalSpec(n_sources=4, relevant=(3, 1, 3))
        assert spec.relevant == (1, 3)


class TestGenerateHierarchical:
    def test_deterministic_under_seed(self):
        spec = HierarchicalSpec(n_sources=3, relevant=(1,), seed=11)
        t1, s1, tr1 = generate_hierarchical(spec)
        t2, s2, tr2 = generate_hierarchical(spec)
        np.testing.assert_array_equal(t1.points, t2.points)
        for a, b in zip(s1, s2):
            np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(tr1.offset, tr2.offset)

    def test_zero_tau_relevant_parameter_is_exact(self):
        spec = HierarchicalSpec(n_sources=3, relevant=(2,), theta0=(1.5,), tau=0.0)
        _, _, truth = generate_hierarchical(spec, np.random.default_rng(42))
        np.testing.assert_array_equal(truth.source_thetas[1], [1.5])

    def test_irrelevant_sources_share_one_offset(self):
        # both irrelevant parameters scatter around theta0 + offset with
        # unit spread, so they are near each other and far from theta0
        spec = HierarchicalSpec(
            n_sources=3, relevant=(1,), theta0=(0.0, 0.0), tau=0.0
        )
        rng = np.random.default_rng(42)
        for _ in range(20):
            _, _, truth = generate_hierarchical(spec, rng)
            center = truth.offset
            assert np.linalg.norm(center) >= 3.0
            for k in (2, 3):
                assert np.linalg.norm(truth.source_thetas[k - 1] - center) <= 5.0

    def test_shapes_match_spec(self):
        spec = HierarchicalSpec(
            n_sources=4, relevant=(1,), theta0=(0.0, 0.0), n_target=7, n_source=13
        )
        target, sources, _ = generate_hierarchical(spec, np.random.default_rng(42))
        assert target.points.shape == (7, 2)
        assert len(sources) == 4
        assert all(s.points.shape == (13, 2) for s in sources)

    def test_source_mean_obeys_law_of_large_numbers(self):
        spec = HierarchicalSpec(
            n_sources=1, relevant=(1,), theta0=(0.3,), tau=0.0, n_source=100_000
        )
        _, sources, truth = generate_hierarchical(spec, np.random.default_rng(42))
        se = spec.sigma / np.sqrt(spec.n_source)
        assert abs(sources[0].points.mean() - truth.source_thetas[0, 0]) <= 4 * se


class TestClosedForms:
    def test_oracle_mse_plugin_values(self):
        # N0=4, N=200, |R|=3, sigma=1: variance term 1/604; at tau=0.1
        # the correction adds 0.01 * 200^2 * 3 / 604^2
        base = HierarchicalSpec(n_sources=3, relevant=(1, 2, 3), tau=0.0)
        np.testing.assert_allclose(
            oracle_closed_form_mse(base), 1 / 604, rtol=1e-15
        )
        np.testing.assert_allclose(1 / 604, 1.6556291390728477e-3, rtol=1e-12)
        shifted = HierarchicalSpec(n_sources=3, relevant=(1, 2, 3), tau=0.1)
        np.testing.assert_allclose(
            oracle_closed_form_mse(shifted),
            1 / 604 + 1200 / 364816,
            rtol=1e-15,
        )
        np.testing.assert_allclose(
            oracle_closed_form_mse(shifted), 4.9449584e-3, rtol=1e-7
        )

    def test_dimension_scales_linearly(self):
        one = HierarchicalSpec(n_sources=3, relevant=(1,), theta0=(0.0,), tau=0.2)
        two = HierarchicalSpec(
            n_sources=3, relevant=(1,), theta0=(0.0, 0.0), tau=0.2
        )
        np.testing.assert_allclose(
            oracle_closed_form_mse(two), 2 * oracle_closed_form_mse(one), rtol=1e-15
        )

    def test_oracle_spec_mass_and_effective_size(self):
        spec = HierarchicalSpec(n_sources=3, relevant=(1,))
        oracle = OracleSpec(spec=spec, weights=(1.0, 0.5, 0.0))
        assert oracle.total_mass == 4 + 200 * 1.5
        assert oracle.effective_size == 4 + 200 * 1.25

    def test_oracle_spec_rejects_out_of_range_weights(self):
        spec = HierarchicalSpec(n_sources=2, relevant=(1,))
        with pytest.raises(InvalidConfigurationError):
            OracleSpec(spec=spec, weights=(1.2, 0.0))


class TestFixedWeightBlend:
    def test_hand_computed_average(self):
        target = Dataset(np.array([[2.0], [4.0]]))
        sources = [Dataset(np.array([[10.0]])), Dataset(np.array([[-6.0], [0.0]]))]
        # (2*3 + 1*1*10 + 0.5*2*(-3)) / (2 + 1 + 1) = 13/4
        out = fixed_weight_blend(target, sources, [1.0, 0.5])
        np.testing.assert_allclose(out, [3.25], rtol=1e-15)

    def test_zero_weights_give_target_mean(self):
        rng = np.random.default_rng(42)
        target = Dataset(rng.normal(size=(5, 2)))
        sources = [Dataset(rng.normal(3.0, 1.0, size=(50, 2)))]
        out = fixed_weight_blend(target, sources, [0.0])
        np.testing.assert_allclose(out, target.points.mean(axis=0), rtol=1e-12)


class TestBenchReport:
    def test_mean_and_stderr_match_numpy(self):
        values = [1.0, 2.0, 4.0, 8.0]
        rep = BenchReport.from_values("m", "mse", "dim", 1.0, values)
        arr = np.array(values)
        assert rep.mean == arr.mean()
        np.testing.assert_allclose(
            rep.stderr, arr.std(ddof=1) / 2.0, rtol=1e-15
        )
        assert rep.replications == 4
        assert rep.values == (1.0, 2.0, 4.0, 8.0)

    def test_single_value_has_zero_stderr(self):
        rep = BenchReport.from_values("m", "mse", "dim", 1.0, [3.0])
        assert rep.stderr == 0.0

    def test_empty_values_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            BenchReport.from_values("m", "mse", "dim", 1.0, [])


class TestBaselines:
    def _em_config(self):
        return EmConfig(
            tau=0.0,
            nu=0.05,
            null_spec=NullSpec("empirical_bayes_mixture"),
            max_iters=50,
        )

    def test_pooled_and_target_only_are_plain_mles(self):
        rng = np.random.default_rng(42)
        model = GaussianMeanModel(1)
        target = Dataset(rng.normal(size=(4, 1)))
        sources = [
            Dataset(rng.normal(1.0, 1.0, size=(30, 1))),
            Dataset(rng.normal(-1.0, 1.0, size=(30, 1))),
        ]
        out = baselines(target, sources, model, em_config=self._em_config())
        np.testing.assert_array_equal(out["target_only"], model.mle(target))
        np.testing.assert_array_equal(
            out["pooled"], model.mle(Dataset.concat([target, *sources]))
        )
        assert "lip_em" not in out

    def test_flat_lip_equals_uniform_em(self):
        rng = np.random.default_rng(42)
        model = GaussianMeanModel(1)
        target = Dataset(rng.normal(size=(4, 1)))
        sources = [
            Dataset(rng.normal(0.5, 1.0, size=(40, 1))),
            Dataset(rng.normal(4.0, 1.0, size=(40, 1))),
        ]
        out = baselines(
            target,
            sources,
            model,
            em_config=self._em_config(),
            lip=[0.01, 0.01],
            p0=0.01,
        )
        np.testing.assert_array_equal(out["lip_em"], out["uniform_em"])

    def test_empty_target_rejected(self):
        model = GaussianMeanModel(1)
        with pytest.raises(InsufficientDataError):
            baselines(
                Dataset(np.zeros((0, 1))),
                [Dataset(np.ones((5, 1)))],
                model,
                em_config=self._em_config(),
            )

    def test_wrong_length_prior_rejected(self):
        rng = np.random.default_rng(42)
        model = GaussianMeanModel(1)
        target = Dataset(rng.normal(size=(4, 1)))
        sources = [Dataset(rng.normal(size=(20, 1)))]
        with pytest.raises(InvalidConfigurationError):
            baselines(
                target,
                sources,
                model,
                em_config=self._em_config(),
                lip=[0.5, 0.5],
            )

    def test_pooled_inherits_shifted_source_bias(self):
        # one source of 200 points at mean 5 against 4 target points:
        # pooling lands near 200 * 5 / 204, far from the truth at 0
        spec = HierarchicalSpec(
            n_sources=1,
            relevant=(),
            theta0=(0.0,),
            tau=0.0,
            null_gen=NullGen(offset=(5.0,), spread=1e-12),
            seed=42,
        )
        target, sources, _ = generate_hierarchical(
            spec, np.random.default_rng(42)
        )
        model = GaussianMeanModel(1)
        pooled = model.mle(Dataset.concat([target, *sources]))
        assert abs(pooled[0] - 200 * 5 / 204) <= 0.3


class TestOracleMseCheck:
    def test_closed_form_within_monte_carlo_error(self):
        for tau in (0.0, 0.1):
            spec = HierarchicalSpec(
                n_sources=3, relevant=(1, 2, 3), theta0=(0.0,), tau=tau, seed=42
            )
            record = oracle_mse_check(spec, replications=20_000)
            assert record.tau == tau
            assert record.replications == 20_000
            assert abs(record.z_score) <= 4.0
            assert record.mc_stderr > 0
            assert len(record.fixed_weight_checks) == 5
            for check in record.fixed_weight_checks:
                assert np.isfinite(check.predicted)
                assert abs(check.z_score) <= 4.0

    def test_supplied_weight_vectors_are_used(self):
        spec = HierarchicalSpec(
            n_sources=3, relevant=(1,), theta0=(0.0,), tau=0.0, seed=42
        )
        record = oracle_mse_check(
            spec,
            replications=5_000,
            weight_vectors=[(1.0, 0.0, 0.0), (0.5, 0.5, 0.5)],
        )
        assert [c.weights for c in record.fixed_weight_checks] == [
            (1.0, 0.0, 0.0),
            (0.5, 0.5, 0.5),
        ]

    def test_too_few_replications_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            oracle_mse_check(replications=100)


class TestDichotomyCheck:
    def test_weights_commit_as_source_size_grows(self):
        reports = dichotomy_check(
            n_sweep=(10, 10_000), replications=30
        )
        table = {
            (r.method, r.param_value): np.median(r.values) for r in reports
        }
        for prior in ("0.1", "0.9"):
            rel_small = table[(f"source_1_relevant_prior_{prior}", 10.0)]
            rel_big = table[(f"source_1_relevant_prior_{prior}", 10_000.0)]
            assert rel_big >= 0.99
            assert rel_big >= rel_small
            for k in (2, 3):
                irr = table[(f"source_{k}_irrelevant_prior_{prior}", 10_000.0)]
                assert irr <= 0.01

    def test_terminal_weights_forget_the_prior(self):
        reports = dichotomy_check(
            n_sweep=(10_000,), replications=20
        )
        table = {r.method: np.median(r.values) for r in reports}
        low = table["source_1_relevant_prior_0.1"]
        high = table["source_1_relevant_prior_0.9"]
        assert abs(low - high) <= 0.01


class TestConsistencyCheck:
    def test_error_decreases_and_prior_washes_out(self):
        reports = consistency_check(
            n0_sweep=(100, 10_000), replications=8
        )
        table = {
            (r.method, r.param_value): np.median(r.values) for r in reports
        }
        for variant in ("exact_hessian_reuse", "small_tau_surrogate"):
            first = table[(variant, 100.0)]
            last = table[(variant, 10_000.0)]
            assert last < first
            # 5 sigma sqrt(d / N0) bound at the final sweep point
            assert last <= 5.0 * np.sqrt(1.0 / 10_000)

    def test_rows_equal_one_run_em_per_replication(self):
        """The row-axis sweep reports exactly what one ``run_em`` per
        (replication, N0, variant) reported, for a sweep out of order; a
        repeated sweep point is refused."""
        spec = HierarchicalSpec(
            n_sources=4, relevant=(1, 3), theta0=(0.0, 1.0), tau=0.2,
            null_gen=NullGen(offset=(5.0, -1.0), spread=1.0), seed=7,
        )
        n0_sweep, variants = (50, 200, 30), ("exact_hessian_reuse", "small_tau_surrogate")
        pi = np.array([0.01, 0.9, 0.01, 0.01])
        model = GaussianMeanModel(2, covariance=spec.sigma**2)
        errors = {}
        for seed in np.random.SeedSequence(spec.seed).spawn(3):
            rng = np.random.default_rng(seed)
            _, thetas = _draw_source_thetas(spec, rng)
            sources = [
                Dataset(thetas[k] + spec.sigma * rng.standard_normal((spec.n_source, 2)))
                for k in range(spec.n_sources)
            ]
            for n0 in n0_sweep:
                target = Dataset(
                    np.asarray(spec.theta0) + spec.sigma * rng.standard_normal((n0, 2))
                )
                for variant in variants:
                    config = EmConfig(
                        tau=spec.tau, nu=0.05, variant=variant,
                        null_spec=NullSpec("empirical_bayes_mixture"),
                    )
                    state, _ = run_em([target, *sources], model, pi, config)
                    errors.setdefault((variant, n0), []).append(
                        float(np.linalg.norm(state.theta - np.asarray(spec.theta0)))
                    )
        expected = [
            BenchReport.from_values(v, "error_norm", "n_target", float(n0), values)
            for (v, n0), values in sorted(errors.items())
        ]
        reports = consistency_check(
            spec, n0_sweep, replications=3, pi=pi, variants=variants
        )
        assert reports == expected
        with pytest.raises(InvalidConfigurationError) as err:
            consistency_check(spec, (50, 200, 50), replications=3, pi=pi, variants=variants)
        assert err.value.key == "n0_sweep"


class TestGaussianExperiment:
    def test_small_run_report_structure(self):
        config = GaussianExperimentConfig(
            dims=(1,), replications=12, curve_points=11
        )
        reports, curves = gaussian_experiment(config)
        methods = {r.method for r in reports}
        assert methods == {"target_only", "pooled", "uniform_em", "lip_em", "oracle"}
        assert all(r.metric == "mse" for r in reports)
        assert all(r.replications == 12 for r in reports)
        assert all(r.param_name == "dim" and r.param_value == 1.0 for r in reports)
        assert curves["x"].shape == (11,)
        assert set(curves["series"]) == methods | {"truth"}

    def test_informative_prior_beats_flat_prior_on_seeded_run(self):
        config = GaussianExperimentConfig(
            dims=(1,), replications=12, curve_points=11
        )
        reports, _ = gaussian_experiment(config)
        table = {r.method: r for r in reports}
        assert table["lip_em"].mean < table["uniform_em"].mean
        assert table["uniform_em"].mean < table["pooled"].mean
        # the informed run should track the oracle blend closely even
        # on a short run; per-seed it may tie or nose ahead
        assert table["lip_em"].mean <= 2.0 * table["oracle"].mean

    def test_replications_are_deterministic(self):
        config = GaussianExperimentConfig(
            dims=(1,), replications=3, curve_points=11
        )
        first, _ = gaussian_experiment(config)
        second, _ = gaussian_experiment(config)
        for a, b in zip(first, second):
            assert a == b

    def test_every_dimension_is_a_row_of_one_em_call(self, monkeypatch):
        import lipem.bench as bench

        calls = []
        original = bench.run_em_rows

        def spy(collections, model, rows, config):
            calls.append(len(rows))
            return original(collections, model, rows, config)

        monkeypatch.setattr(bench, "run_em_rows", spy)
        config = GaussianExperimentConfig(dims=(1, 2), replications=3, curve_points=11)
        both, curves = gaussian_experiment(config)
        # dimension x replication x EM arm
        assert calls == [2 * 3 * 2]
        # the first dimension draws from the same seed alone, and its
        # rows run as they would without the second dimension's
        alone, alone_curves = gaussian_experiment(replace(config, dims=(1,)))
        assert [r for r in both if r.param_value == 1.0] == alone
        assert [r.param_value for r in both] == [1.0] * 5 + [2.0] * 5
        np.testing.assert_array_equal(curves["x"], alone_curves["x"])


class TestFastDecayLip:
    def test_shortest_decile_gets_strong_mass(self, cmapss_dir):
        from lipem.cli import ingest_cmapss

        with pytest.warns(RuntimeWarning):
            engines = ingest_cmapss(cmapss_dir / "train_FD001.txt")
        lip = fast_decay_lip(engines)
        # engine 1 has the shortest lifetime in the fixture; with six
        # engines a 10% fraction still promotes exactly one of them
        np.testing.assert_allclose(lip.pi[0], 0.9)
        np.testing.assert_allclose(lip.pi[1:], np.full(5, 0.01))

    def test_requires_contiguous_engine_ids(self):
        engines = {1: Dataset(np.zeros((3, 2))), 3: Dataset(np.zeros((4, 2)))}
        with pytest.raises(InvalidConfigurationError):
            fast_decay_lip(engines)


class TestCmapssExperiment:
    def test_missing_data_directory_raises_with_instructions(self, tmp_path):
        with pytest.raises(DataNotFoundError) as err:
            cmapss_experiment(tmp_path / "nowhere")
        assert "train_FD001" in str(err.value)

    def test_absent_engine_rejected(self, cmapss_dir):
        with pytest.warns(RuntimeWarning):
            with pytest.raises(InvalidConfigurationError) as err:
                cmapss_experiment(
                    cmapss_dir, engines=(1, 99), cutoffs=(0.5,)
                )
        assert err.value.key == "engines"

    def test_out_of_range_cutoff_rejected(self, cmapss_dir):
        with pytest.warns(RuntimeWarning):
            with pytest.raises(InvalidConfigurationError):
                cmapss_experiment(cmapss_dir, engines=(1,), cutoffs=(1.0,))

    def test_report_grid_and_rmse_identity(self, cmapss_dir):
        from lipem.cli import ingest_cmapss
        from lipem.likelihood import SplineGlmModel, pooled_noise_variance

        with quiet_runtime_warnings():
            reports, curves = cmapss_experiment(
                cmapss_dir, engines=(1, 2), cutoffs=(0.5, 0.3)
            )
        methods = {r.method for r in reports}
        assert methods == {"target_only", "pooled", "uniform_em"}
        assert {r.param_value for r in reports} == {0.5, 0.3}
        assert all(r.replications == 2 for r in reports)
        assert all(r.mean > 0 for r in reports)
        assert curves["series"]["observed"].size == curves["x"].size

        # recompute the target-only RMSE for engine 1 at cutoff 0.5 by
        # hand and find it among the stored replication values
        with quiet_runtime_warnings():
            engines = ingest_cmapss(cmapss_dir / "train_FD001.txt")
        full = engines[1]
        n_train = int(np.floor(0.5 * len(full)))
        target = Dataset(full.points[:n_train])
        holdout = full.points[n_train:]
        sources = [engines[e] for e in sorted(engines) if e != 1]
        knots = np.linspace(0.0, 300.0, 5)
        sigma_sq = pooled_noise_variance(knots, sources, ridge=1e-8)
        model = SplineGlmModel(knots, noise_variance=sigma_sq, ridge=1e-8)
        theta = model.mle(target)
        pred = model.predict(theta, holdout[:, 0])
        rmse = float(np.sqrt(np.mean((pred - holdout[:, 1]) ** 2)))
        stored = next(
            r for r in reports if r.method == "target_only" and r.param_value == 0.5
        )
        assert any(abs(v - rmse) <= 1e-12 * max(1.0, rmse) for v in stored.values)

    def test_fits_each_engine_and_target_prefix_once(self, cmapss_dir, monkeypatch):
        from lipem import likelihood

        design = likelihood.spline_design
        calls = []
        monkeypatch.setattr(
            likelihood, "spline_design", lambda *a: calls.append(1) or design(*a)
        )
        # prediction designs are not fits; give them the uncounted builder
        monkeypatch.setattr(
            likelihood.SplineGlmModel,
            "predict",
            lambda self, theta, inputs: design(inputs, self.knots) @ theta,
        )
        with quiet_runtime_warnings():
            cmapss_experiment(cmapss_dir, engines=(1, 2), cutoffs=(0.5, 0.3))
        # six engines, then two targets at two cutoffs
        assert len(calls) == 6 + 4

    def test_fast_decay_prior_adds_lip_method(self, cmapss_dir):
        with quiet_runtime_warnings():
            reports, _ = cmapss_experiment(
                cmapss_dir,
                lip_source="fast-decay",
                engines=(2,),
                cutoffs=(0.4,),
            )
        assert "lip_em" in {r.method for r in reports}

    def test_cutoff_leaving_no_holdout_is_skipped(self, one_cycle_dir):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reports, _ = cmapss_experiment(one_cycle_dir, engines=(7, 1), cutoffs=(0.5,))
        assert any("no holdout for engine 7" in str(w.message) for w in caught)
        # every cell holds engine 1 alone
        assert reports and all(r.replications == 1 for r in reports)

    def test_no_cell_with_a_holdout_raises(self, one_cycle_dir):
        with quiet_runtime_warnings():
            with pytest.raises(InvalidConfigurationError) as err:
                cmapss_experiment(one_cycle_dir, engines=(7,), cutoffs=(0.5, 0.1))
        assert err.value.key == "cutoffs"


@pytest.fixture
def one_cycle_dir(cmapss_dir):
    """The six-engine fixture file plus engine 7, which runs one cycle."""
    data = cmapss_dir / "train_FD001.txt"
    row = ["7", "1", *data.read_text().split("\n")[0].split()[2:]]
    with data.open("a", encoding="utf-8") as out:
        out.write(" ".join(row) + "\n")
    return cmapss_dir
