"""Acceptance gate: the eleven shipping criteria, one test each.

Each test prints a single ``ACCEPTANCE <n> <name>: PASS`` line when its
assertions and runtime budget hold, so a ``pytest -s`` run doubles as a
sign-off checklist. Budgets are asserted with wall-clock time.
"""

import filecmp
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from lipem.bench import (
    CMAPSS_ENGINES,
    GaussianExperimentConfig,
    HierarchicalSpec,
    cmapss_experiment,
    consistency_check,
    dichotomy_check,
    gaussian_experiment,
    oracle_closed_form_mse,
    oracle_mse_check,
)
from lipem.cli import dispatch
from lipem.em import EmConfig, EmStep, build_sufficient_stats, m_step_exact
from lipem.em import relevant_marginal_loglik
from lipem.likelihood import Dataset, GaussianMeanModel, SplineGlmModel
from lipem.lip import (
    WorthVector,
    choice_probability,
    fit_lip,
    nll_objective,
    simulate_elicitation,
)


class _Budget:
    """Context manager asserting a wall-clock limit."""

    def __init__(self, seconds: float):
        self.limit = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.2f}s exceeded {self.limit:.0f}s budget"
            )
        return False


def _announce(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_01_gaussian_marginal_matches_convolution():
    with _Budget(1.0):
        rng = np.random.default_rng(42)
        sigma = 1.0
        for _ in range(50):
            d = int(rng.integers(1, 3))
            tau = float(rng.choice([0.01, 0.1, 1.0]))
            theta = rng.normal(size=d)
            x = theta + np.sqrt(sigma**2 + tau**2) * rng.standard_normal(d)
            data = Dataset(x.reshape(1, d))
            wide = GaussianMeanModel(d, covariance=sigma**2 + tau**2)
            expected = wide.loglik(theta, data)
            got = relevant_marginal_loglik(
                GaussianMeanModel(d, covariance=sigma**2), data, theta, tau
            )
            assert abs(got - expected) <= 1e-9 * abs(expected)
            # the same value falls out of the joint normal form, which
            # also covers datasets larger than a single draw
            cov = sigma**2 * np.eye(1) + tau**2
            joint = sum(
                multivariate_normal.logpdf(
                    data.points[:, j], mean=[theta[j]], cov=cov
                )
                for j in range(d)
            )
            assert abs(got - joint) <= 1e-9 * abs(joint)
    _announce(1, "gaussian marginal matches convolution")


def test_02_zero_spread_reduces_to_plain_loglik():
    with _Budget(1.0):
        rng = np.random.default_rng(42)
        knots = np.linspace(0.0, 10.0, 4)
        for case in range(50):
            if case % 2 == 0:
                d = int(rng.integers(1, 4))
                model = GaussianMeanModel(d, covariance=float(rng.uniform(0.5, 2.0)))
                data = Dataset(rng.normal(size=(int(rng.integers(1, 10)), d)))
                theta = rng.normal(size=d)
            else:
                model = SplineGlmModel(
                    knots, noise_variance=float(rng.uniform(0.5, 2.0))
                )
                n = int(rng.integers(4, 12))
                x = rng.uniform(0.0, 10.0, size=n)
                data = Dataset(np.column_stack([x, rng.normal(size=n)]))
                theta = rng.normal(size=4)
            assert relevant_marginal_loglik(model, data, theta, 0.0) == model.loglik(
                theta, data
            )
    _announce(2, "zero spread reduces to plain loglik")


def test_03_choice_model_gradient_invariants_and_recovery():
    with _Budget(30.0):
        rng = np.random.default_rng(42)

        # finite-difference check of the fitting objective's gradient
        for _ in range(10):
            k = int(rng.integers(2, 6))
            worths = WorthVector(np.concatenate([[0.0], rng.normal(size=k)]))
            sizes = [int(rng.integers(2, k + 1)) for _ in range(3)]
            records = simulate_elicitation(worths, sizes, 40, rng)
            alpha = rng.normal(scale=0.5, size=k + 1)
            value, grad = nll_objective(WorthVector(alpha), records, 0.01, 0.1)
            h = 1e-6
            for i in range(k + 1):
                bump = np.zeros(k + 1)
                bump[i] = h
                up, _ = nll_objective(WorthVector(alpha + bump), records, 0.01, 0.1)
                dn, _ = nll_objective(WorthVector(alpha - bump), records, 0.01, 0.1)
                fd = (up - dn) / (2 * h)
                assert abs(grad[i] - fd) <= 1e-6 * max(1.0, abs(fd))

        # normalization and gauge invariance of the choice distribution
        for _ in range(100):
            k = int(rng.integers(2, 7))
            worths = WorthVector(rng.normal(size=k + 1))
            size = int(rng.integers(1, k + 1))
            subgroup = tuple(
                int(v) for v in rng.choice(np.arange(1, k + 1), size, replace=False)
            )
            probs = [
                choice_probability(worths, subgroup, c) for c in (0, *subgroup)
            ]
            assert abs(sum(probs) - 1.0) <= 1e-12
            shifted = WorthVector(worths.alpha + float(rng.normal()))
            for c in (0, *subgroup):
                assert abs(
                    choice_probability(shifted, subgroup, c)
                    - choice_probability(worths, subgroup, c)
                ) <= 1e-12

        # planted-worth recovery from a 2000-record elicitation
        planted = WorthVector(np.array([0.0, 1.5, -1.5, 0.75, -0.75, 1.2]))
        rec_rng = np.random.default_rng(20)
        records = simulate_elicitation(planted, [3, 4, 5], 2000, rec_rng)
        fitted, _ = fit_lip(records, 5)
        gaps_true = planted.alpha[1:] - planted.alpha[0]
        gaps_fit = fitted.alpha[1:] - fitted.alpha[0]
        assert np.max(np.abs(gaps_fit - gaps_true)) <= 0.15
    _announce(3, "choice model gradient invariants and recovery")


def test_04_empty_elicitation_returns_baseline_prior():
    with _Budget(1.0):
        _, lip = fit_lip([], 4, p0=0.01)
        np.testing.assert_allclose(lip.pi, np.full(4, 0.01), atol=1e-8)
    _announce(4, "empty elicitation returns baseline prior")


def test_05_oracle_mse_closed_forms_and_fixed_weight_identity():
    with _Budget(120.0):
        expected_closed = {0.0: 1 / 604, 0.1: 1 / 604 + 3.2894e-3}
        for tau in (0.0, 0.1):
            spec = HierarchicalSpec(
                n_sources=3, relevant=(1, 2, 3), theta0=(0.0,), tau=tau, seed=42
            )
            record = oracle_mse_check(spec, replications=10**5)
            assert abs(record.closed_form - expected_closed[tau]) <= 1e-6
            assert abs(record.mc_mean - record.closed_form) <= 3 * record.mc_stderr
            assert len(record.fixed_weight_checks) == 5
            for check in record.fixed_weight_checks:
                assert (
                    abs(check.mc_mean - check.predicted) <= 3 * check.mc_stderr
                )
    _announce(5, "oracle mse closed forms and fixed weight identity")


def test_06_terminal_weights_commit_in_95_of_100_runs():
    with _Budget(60.0):
        reports = dichotomy_check(n_sweep=(10_000,), replications=100)
        by_method = {r.method: np.asarray(r.values) for r in reports}
        for prior in ("0.1", "0.9"):
            rel = by_method[f"source_1_relevant_prior_{prior}"]
            assert np.mean(rel >= 0.99) >= 0.95
            for k in (2, 3):
                irr = by_method[f"source_{k}_irrelevant_prior_{prior}"]
                assert np.mean(irr <= 0.01) >= 0.95
    _announce(6, "terminal weights commit in 95 of 100 runs")


def test_07_adversarial_prior_washes_out_with_target_size():
    with _Budget(120.0):
        reports = consistency_check(
            n0_sweep=(100, 1000, 10_000, 100_000), replications=50
        )
        table = {}
        for r in reports:
            table.setdefault(r.method, {})[r.param_value] = float(
                np.median(r.values)
            )
        for variant in ("exact_hessian_reuse", "small_tau_surrogate"):
            medians = [table[variant][float(n0)] for n0 in (100, 1000, 10_000, 100_000)]
            assert all(b < a for a, b in zip(medians, medians[1:]))
            assert medians[-1] <= 5.0 * np.sqrt(1.0 / 100_000)
    _announce(7, "adversarial prior washes out with target size")


def test_08_informative_prior_ordering_with_margins():
    with _Budget(120.0):
        reports, _ = gaussian_experiment(GaussianExperimentConfig())
        config = GaussianExperimentConfig()
        for d in (1, 2):
            cell = {
                r.method: r
                for r in reports
                if r.param_name == "dim" and r.param_value == float(d)
            }

            def gap_over_2se(low, high):
                se = np.hypot(cell[low].stderr, cell[high].stderr)
                return cell[high].mean - cell[low].mean > 2.0 * se

            assert gap_over_2se("lip_em", "uniform_em")
            assert gap_over_2se("uniform_em", "pooled")
            assert gap_over_2se("lip_em", "target_only")
            spec = HierarchicalSpec(
                n_sources=config.n_sources,
                relevant=(1,),
                theta0=(0.0,) * d,
                tau=config.tau,
                n_target=config.n_target,
                n_source=config.n_source,
            )
            assert cell["lip_em"].mean <= 2.0 * oracle_closed_form_mse(spec)
    _announce(8, "informative prior ordering with margins")


def test_09_m_step_variants_agree_under_proportional_curvature():
    with _Budget(1.0):
        rng = np.random.default_rng(42)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            k = int(rng.integers(1, 5))
            c = float(rng.uniform(0.2, 5.0))
            model = GaussianMeanModel(d, covariance=1.0 / c)
            datasets = [
                Dataset(rng.normal(size=(int(n), d)))
                for n in rng.integers(1, 40, size=k + 1)
            ]
            stats = build_sufficient_stats(model, datasets)
            weights = rng.uniform(0.0, 1.0, size=k)
            exact = m_step_exact(stats, weights, tau=0.0)
            surrogate = EmStep(stats, EmConfig(variant="small_tau_surrogate")).m_step(weights)
            assert np.max(np.abs(exact - surrogate)) <= 1e-12
    _announce(9, "m step variants agree under proportional curvature")


def _find_fd001() -> Path | None:
    env = os.environ.get("LIPEM_FD001")
    candidates = []
    if env:
        p = Path(env)
        candidates += [p, p / "train_FD001.txt"]
    root = Path(__file__).resolve().parents[1]
    candidates += [
        root / "data" / "train_FD001.txt",
        root / "train_FD001.txt",
    ]
    for c in candidates:
        if c.is_file():
            return c
    return None


def test_10_turbofan_baselines_reproduce_reported_table():
    data_path = _find_fd001()
    if data_path is None:
        pytest.skip(
            "train_FD001.txt not found (set LIPEM_FD001 or place it under "
            "./data); the turbofan table check needs the real file"
        )
    with _Budget(300.0):
        reports, _ = cmapss_experiment(
            data_path.parent, cutoffs=(0.9,), engines=CMAPSS_ENGINES
        )
        means = {r.method: r.mean for r in reports if r.param_value == 0.9}
        targets = {"target_only": 43.7, "pooled": 33.9, "uniform_em": 21.4}
        for method, expected in targets.items():
            assert abs(means[method] - expected) <= 0.25 * expected
        assert means["uniform_em"] < means["pooled"] < means["target_only"]
        lip_reports, _ = cmapss_experiment(
            data_path.parent,
            lip_source="fast-decay",
            cutoffs=(0.9,),
            engines=CMAPSS_ENGINES,
        )
        lip_means = {r.method: r.mean for r in lip_reports if r.param_value == 0.9}
        assert lip_means["lip_em"] < lip_means["uniform_em"]
    _announce(10, "turbofan baselines reproduce reported table")


def test_11_benchmark_reruns_are_byte_identical(tmp_path, capsys):
    with _Budget(60.0):
        gaussian_cfg = tmp_path / "gaussian.json"
        gaussian_cfg.write_text(
            json.dumps(
                {"experiment": {"dims": [1], "replications": 3, "curve_points": 5}}
            )
        )
        dichotomy_cfg = tmp_path / "dichotomy.json"
        dichotomy_cfg.write_text(
            json.dumps({"dichotomy": {"n_sweep": [10, 100], "replications": 5}})
        )
        runs = [
            (["bench", "gaussian", "--config", str(gaussian_cfg)], "g"),
            (["bench", "dichotomy", "--config", str(dichotomy_cfg)], "d"),
        ]
        for argv, tag in runs:
            a, b = tmp_path / f"{tag}_first", tmp_path / f"{tag}_second"
            assert dispatch(argv + ["--seed", "42", "--out", str(a)]) == 0
            assert dispatch(argv + ["--seed", "42", "--out", str(b)]) == 0
            names = sorted(p.name for p in a.iterdir())
            assert names == sorted(p.name for p in b.iterdir())
            match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
            assert mismatch == [] and errors == []
            assert match == names
        capsys.readouterr()
    _announce(11, "benchmark reruns are byte identical")
