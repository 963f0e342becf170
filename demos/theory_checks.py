"""Numerical spot checks of the identities behind the estimator.

Run with: python3 demos/theory_checks.py
"""

import numpy as np
from scipy.stats import multivariate_normal

from lipem.bench import HierarchicalSpec, dichotomy_check, oracle_mse_check
from lipem.em import EmConfig, EmStep, build_sufficient_stats, relevant_marginal_loglik
from lipem.likelihood import Dataset, GaussianMeanModel

rng = np.random.default_rng(42)

# 1. the quadratic marginal expansion is exact for a Gaussian backbone:
#    with a shared parameter draw the dataset is jointly normal with
#    covariance sigma^2 I + tau^2 11'
sigma, tau, n = 1.0, 0.5, 6
data = Dataset(rng.normal(size=(n, 1)))
theta = np.array([0.2])
got = relevant_marginal_loglik(GaussianMeanModel(1), data, theta, tau)
cov = sigma**2 * np.eye(n) + tau**2 * np.ones((n, n))
exact = multivariate_normal.logpdf(data.points[:, 0], mean=np.full(n, 0.2), cov=cov)
print(f"marginal loglik {got:.12f} vs joint-normal form {exact:.12f}")

# 2. the two M-step variants coincide when every curvature matrix is a
#    multiple of the identity scaled by sample size
model = GaussianMeanModel(2, covariance=0.5)
datasets = [Dataset(rng.normal(size=(m, 2))) for m in (5, 40, 25)]
stats = build_sufficient_stats(model, datasets)
w = np.array([0.7, 0.3])
exact, surrogate = (
    EmStep(stats, EmConfig(variant=variant)).m_step(w)
    for variant in ("exact_hessian_reuse", "small_tau_surrogate")
)
gap = np.max(np.abs(exact - surrogate))
print(f"exact vs surrogate m-step gap: {gap:.2e}")

# 3. the closed-form oracle MSE matches Monte Carlo
spec = HierarchicalSpec(n_sources=3, relevant=(1, 2, 3), theta0=(0.0,), tau=0.0)
record = oracle_mse_check(spec, replications=50_000)
print(
    f"oracle mse closed form {record.closed_form:.6f}, "
    f"mc {record.mc_mean:.6f} (z = {record.z_score:+.2f})"
)
for check in record.fixed_weight_checks[:2]:
    print(
        f"  fixed weights {np.round(check.weights, 2)}: "
        f"predicted {check.predicted:.5f}, mc {check.mc_mean:.5f} "
        f"(z = {check.z_score:+.2f})"
    )

# 4. untempered weights commit as the per-source sample size grows
reports = dichotomy_check(n_sweep=(10, 1000, 10_000), replications=20)
print("median relevant-source weight by sample size (prior 0.1):")
for r in reports:
    if r.method == "source_1_relevant_prior_0.1":
        print(f"  N = {int(r.param_value):>6d}: {np.median(r.values):.4f}")
print("median irrelevant-source weight at N = 10000 (prior 0.9):")
for r in reports:
    if r.method == "source_2_irrelevant_prior_0.9" and r.param_value == 10_000.0:
        print(f"  N = 10000: {np.median(r.values):.2e}")
