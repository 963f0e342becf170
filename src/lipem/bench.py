"""Benchmark generators, baselines, experiment drivers, theory checks.

Everything here is seeded and reproducible: replication seeds come from
a counter-based SeedSequence split of the master seed, so replications
are independent and insensitive to execution order. Reports carry the
per-replication values so downstream consumers can recompute any
statistic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .em import (
    EmConfig,
    EmStep,
    NullSpec,
    _is_finite,
    build_sufficient_stats,
    run_em,  # noqa: F401  (benchmarks/perf.py times lipem.bench.run_em)
    run_em_rows,
)
from .errors import InsufficientDataError, InvalidConfigurationError
from .files import FD001_INSTRUCTIONS, ingest_cmapss
from .likelihood import (
    Dataset,
    GaussianMeanModel,
    LikelihoodFamily,
    SplineGlmModel,
    pooled_noise_variance,
)
from .lip import P0, Lip

__all__ = [
    "NullGen",
    "HierarchicalSpec",
    "check_seed",
    "SEPARATED_SPEC",
    "ORACLE_RELEVANT",
    "Truth",
    "OracleSpec",
    "BenchReport",
    "generate_hierarchical",
    "fixed_weight_blend",
    "oracle_closed_form_mse",
    "baselines",
    "GaussianExperimentConfig",
    "gaussian_experiment",
    "FixedWeightCheck",
    "OracleMseRecord",
    "oracle_mse_check",
    "dichotomy_check",
    "consistency_check",
    "fast_decay_lip",
    "cmapss_experiment",
    "CMAPSS_ENGINES",
    "CMAPSS_CUTOFFS",
    "FD001_INSTRUCTIONS",
]

# the ten target machines studied in the reference benchmark
CMAPSS_ENGINES = (4, 9, 18, 26, 27, 48, 51, 53, 55, 80)
# remaining-life cutoffs: each target keeps its first (1 - cutoff) of cycles
CMAPSS_CUTOFFS = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Independent per-replication generators from one master seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def check_seed(seed: int) -> None:
    """Reject a negative seed, which numpy's generators do not take."""
    if seed < 0:
        raise InvalidConfigurationError(f"seed must be nonnegative, got {seed}", key="seed")


@dataclass(frozen=True)
class NullGen:
    """Generator for irrelevant source parameters.

    Irrelevant parameters are drawn around theta0 + offset with the
    given spread. When no offset is supplied, one shared offset per
    replication is drawn uniformly on the shell of radii
    shell * sigma, so the irrelevant sources form a separated cluster.
    """

    offset: tuple[float, ...] | None = None
    shell: tuple[float, float] = (3.0, 6.0)
    spread: float | None = None

    def __post_init__(self):
        if self.offset is not None:
            object.__setattr__(
                self, "offset", tuple(float(v) for v in np.atleast_1d(self.offset))
            )
        object.__setattr__(self, "shell", tuple(self.shell))
        lo, hi = self.shell
        if not 0 < lo <= hi:
            raise InvalidConfigurationError(
                "shell radii must satisfy 0 < low <= high", key="null_gen.shell"
            )
        if self.spread is not None and not self.spread > 0:
            raise InvalidConfigurationError(
                "spread must be positive", key="null_gen.spread"
            )

    def draw_offset(self, dim: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
        if self.offset is not None:
            off = np.asarray(self.offset, dtype=float)
            if off.shape != (dim,):
                raise InvalidConfigurationError(
                    f"offset has dimension {off.shape[0]}, expected {dim}",
                    key="null_gen.offset",
                )
            return off
        direction = rng.standard_normal(dim)
        direction /= np.linalg.norm(direction)
        radius = rng.uniform(self.shell[0] * sigma, self.shell[1] * sigma)
        return radius * direction


@dataclass(frozen=True)
class HierarchicalSpec:
    """Synthetic multi-source generator settings."""

    n_sources: int = 3
    relevant: tuple[int, ...] = (1,)
    theta0: tuple[float, ...] = (0.0,)
    tau: float = 0.0
    sigma: float = 1.0
    n_target: int = 4
    n_source: int = 200
    null_gen: NullGen = field(default_factory=NullGen)
    seed: int = 42

    def __post_init__(self):
        object.__setattr__(
            self, "theta0", tuple(float(v) for v in np.atleast_1d(self.theta0))
        )
        object.__setattr__(
            self, "relevant", tuple(sorted(int(k) for k in set(self.relevant)))
        )
        if not self.theta0:
            raise InvalidConfigurationError(
                "theta0 must list at least one value", key="theta0"
            )
        if self.n_sources < 1:
            raise InvalidConfigurationError(
                "need at least one source", key="n_sources"
            )
        if any(k < 1 or k > self.n_sources for k in self.relevant):
            raise InvalidConfigurationError(
                f"relevant set {self.relevant} outside 1..{self.n_sources}",
                key="relevant",
            )
        # both enter squared, so their squares must be finite too
        if not (self.tau >= 0 and _is_finite(self.tau, 2)):
            raise InvalidConfigurationError(
                f"tau must be >= 0 with a finite square, got {self.tau}", key="tau"
            )
        if not (self.sigma > 0 and _is_finite(self.sigma, 2)):
            raise InvalidConfigurationError(
                f"sigma must be positive with a finite square, got {self.sigma}",
                key="sigma",
            )
        for name in ("n_target", "n_source"):
            if getattr(self, name) < 1:
                raise InvalidConfigurationError(
                    f"{name} must be positive, got {getattr(self, name)}", key=name
                )
        check_seed(self.seed)

    @property
    def dim(self) -> int:
        return len(self.theta0)


# default of the dichotomy and consistency checks: the first of three
# sources is relevant, the other two sit at a fixed offset of 5 sigma
SEPARATED_SPEC = HierarchicalSpec(
    n_sources=3,
    relevant=(1,),
    theta0=(0.0,),
    tau=0.0,
    null_gen=NullGen(offset=(5.0,), spread=1.0),
    seed=42,
)

# default relevant set of the oracle-MSE check: all three sources
ORACLE_RELEVANT = (1, 2, 3)


@dataclass(frozen=True)
class Truth:
    """Ground truth record for one generated replication."""

    theta0: np.ndarray
    source_thetas: np.ndarray
    relevant: tuple[int, ...]
    offset: np.ndarray


def _draw_source_thetas(
    spec: HierarchicalSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Shared offset of the irrelevant cluster, then one parameter per
    source: relevant ones at Normal(theta0, tau^2 I), irrelevant ones
    at Normal(theta0 + offset, spread^2 I). Draws in that order."""
    theta0 = np.asarray(spec.theta0, dtype=float)
    spread = spec.null_gen.spread if spec.null_gen.spread is not None else spec.sigma
    offset = spec.null_gen.draw_offset(spec.dim, spec.sigma, rng)
    draws = rng.standard_normal((spec.n_sources, spec.dim))
    relevant = np.isin(np.arange(1, spec.n_sources + 1), spec.relevant)[:, None]
    thetas = np.where(
        relevant, theta0 + spec.tau * draws, theta0 + offset + spread * draws
    )
    return offset, thetas


def generate_hierarchical(
    spec: HierarchicalSpec, rng: np.random.Generator | None = None
) -> tuple[Dataset, list[Dataset], Truth]:
    """Draw one replication of the hierarchical generative model.

    Relevant source parameters sit at Normal(theta0, tau^2 I); the
    irrelevant ones share a single offset drawn by the null generator,
    which keeps them clustered and well separated from theta0.
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    d = spec.dim
    theta0 = np.asarray(spec.theta0, dtype=float)
    sigma = spec.sigma
    offset, thetas = _draw_source_thetas(spec, rng)
    target = Dataset(theta0 + sigma * rng.standard_normal((spec.n_target, d)))
    sources = [
        Dataset(thetas[k - 1] + sigma * rng.standard_normal((spec.n_source, d)))
        for k in range(1, spec.n_sources + 1)
    ]
    truth = Truth(
        theta0=theta0,
        source_thetas=thetas,
        relevant=spec.relevant,
        offset=offset,
    )
    return target, sources, truth


@dataclass(frozen=True)
class OracleSpec:
    """Fixed-weight estimator settings for the closed-form identities."""

    spec: HierarchicalSpec
    weights: tuple[float, ...]

    def __post_init__(self):
        w = tuple(float(v) for v in self.weights)
        if len(w) != self.spec.n_sources or any(v < 0 or v > 1 for v in w):
            raise InvalidConfigurationError(
                "weights must be in [0,1], one per source", key="weights"
            )
        object.__setattr__(self, "weights", w)

    @property
    def total_mass(self) -> float:
        # T = N0 + N sum w_k
        w = np.asarray(self.weights)
        return self.spec.n_target + self.spec.n_source * float(w.sum())

    @property
    def effective_size(self) -> float:
        # N_eff = N0 + N sum w_k^2
        w = np.asarray(self.weights)
        return self.spec.n_target + self.spec.n_source * float((w**2).sum())


def fixed_weight_blend(
    target: Dataset, sources: Sequence[Dataset], weights: Sequence[float]
) -> np.ndarray:
    """Sample-size weighted average of Gaussian sample means."""
    weights = np.asarray(weights, dtype=float)
    numer = len(target) * target.points.mean(axis=0)
    denom = float(len(target))
    for w, data in zip(weights, sources):
        numer += w * len(data) * data.points.mean(axis=0)
        denom += w * len(data)
    return numer / denom


def oracle_closed_form_mse(spec: HierarchicalSpec) -> float:
    """Closed-form MSE of the oracle blend that knows the relevant set:
    d sigma^2/(N0 + N|R|) + d tau^2 N^2 |R|/(N0 + N|R|)^2."""
    d = spec.dim
    n_rel = len(spec.relevant)
    total = spec.n_target + spec.n_source * n_rel
    return (
        d * spec.sigma**2 / total
        + d * spec.tau**2 * spec.n_source**2 * n_rel / total**2
    )


def baselines(
    target: Dataset,
    sources: Sequence[Dataset],
    model: LikelihoodFamily,
    *,
    em_config: EmConfig,
    lip: Lip | Sequence[float] | None = None,
    p0: float = P0,
) -> dict[str, np.ndarray]:
    """Reference estimators for one dataset collection.

    Returns target_only (MLE on the target alone), pooled (MLE on the
    union), uniform_em (EM from the flat prior p0), and, when a prior
    is supplied, lip_em (EM from that prior). The EM arms run as rows
    of one ``run_em_rows`` call.
    """
    if len(target) == 0:
        raise InsufficientDataError("target dataset is empty")
    priors = {"uniform_em": np.full(len(sources), p0)}
    if lip is not None:
        pi = np.asarray(lip.pi if isinstance(lip, Lip) else lip, dtype=float)
        if pi.shape != (len(sources),):
            raise InvalidConfigurationError(
                "prior must have one entry per source", key="lip"
            )
        priors["lip_em"] = pi
    [out] = _baseline_rows([(target, sources)], [model], em_config, priors)
    return out


def _baseline_rows(
    collections: Sequence[tuple[Dataset, Sequence[Dataset]]],
    models: Sequence[LikelihoodFamily],
    em_config: EmConfig,
    priors: Mapping[str, np.ndarray],
) -> list[dict[str, np.ndarray]]:
    """``baselines`` of each (target, sources) collection under its own
    model, with one EM arm per named prior; every collection's arms are
    rows of one ``run_em_rows`` call."""
    rows = [(i, pi) for i in range(len(collections)) for pi in priors.values()]
    fits = iter(
        run_em_rows(
            [[target, *sources] for target, sources in collections],
            models,
            rows,
            em_config,
        )
    )
    out = []
    for (target, sources), model in zip(collections, models):
        estimates = {
            "target_only": np.asarray(model.mle(target), dtype=float),
            "pooled": np.asarray(model.pooled_mle([target, *sources]), dtype=float),
        }
        for name in priors:
            estimates[name] = next(fits)[0].theta
        out.append(estimates)
    return out


@dataclass(frozen=True)
class BenchReport:
    """One cell of a results table plus its raw replication values."""

    method: str
    metric: str
    param_name: str
    param_value: float
    replications: int
    mean: float
    stderr: float
    values: tuple[float, ...]

    @classmethod
    def from_values(
        cls, method: str, metric: str, param_name: str, param_value, values
    ) -> "BenchReport":
        arr = np.asarray(list(values), dtype=float)
        if arr.size < 1:
            raise InvalidConfigurationError(
                "a report needs at least one replication", key="values"
            )
        stderr = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
        return cls(
            method=method,
            metric=metric,
            param_name=param_name,
            param_value=param_value,
            replications=int(arr.size),
            mean=float(arr.mean()),
            stderr=stderr,
            values=tuple(float(v) for v in arr),
        )


def _check_replications(replications: int) -> None:
    if replications < 1:
        raise InvalidConfigurationError(
            f"replications must be >= 1, got {replications}", key="replications"
        )


def _check_sweep(values: Sequence, key: str, valid=lambda v: True, want: str = "") -> None:
    """A non-empty sweep of distinct values that each pass ``valid``;
    ``want`` says what a value must be."""
    if len(values) == 0:
        raise InvalidConfigurationError(
            f"{key} must list at least one value", key=key
        )
    bad = [v for v in values if not valid(v)]
    if bad:
        raise InvalidConfigurationError(
            f"{key} values must be {want}, got {bad[0]}", key=key
        )
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise InvalidConfigurationError(
            f"{key} lists {repeated[0]} more than once", key=key
        )


def _check_mixture_sources(n_sources: int) -> None:
    """The studies score sources under the mixture null, which needs two."""
    if n_sources < 2:
        raise InvalidConfigurationError(
            f"n_sources must be >= 2 for the mixture null, got {n_sources}",
            key="n_sources",
        )


@dataclass(frozen=True)
class GaussianExperimentConfig:
    """Settings for the scarce-target Gaussian study.

    The tempering rate is deliberately tiny: with four target points
    the experiment probes the cold-start snapshot where the weights are
    still prior-dominated, which is where an informative prior and a
    flat prior genuinely differ. Larger nu lets every method converge
    to the same data-driven weights and the contrast disappears.
    """

    dims: tuple[int, ...] = (1, 2)
    n_sources: int = 3
    n_relevant: int = 1
    n_target: int = 4
    n_source: int = 200
    sigma: float = 1.0
    tau: float = 0.1
    replications: int = 100
    seed: int = 42
    p0: float = P0
    strong_prior: float = 0.9
    nu: float = 6e-5
    tol: float = 1e-6
    max_iters: int = 100
    patience: int = 5
    variant: str = "exact_hessian_reuse"
    curve_points: int = 201

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        _check_sweep(self.dims, "dims", lambda d: d >= 1, ">= 1")
        _check_replications(self.replications)
        check_seed(self.seed)
        if self.curve_points < 2:
            raise InvalidConfigurationError(
                f"curve_points must be >= 2, got {self.curve_points}",
                key="curve_points",
            )
        _check_mixture_sources(self.n_sources)
        if not 0 <= self.n_relevant <= self.n_sources:
            raise InvalidConfigurationError(
                f"n_relevant must lie in 0..n_sources ({self.n_sources}), "
                f"got {self.n_relevant}",
                key="n_relevant",
            )
        for name in ("p0", "strong_prior"):
            if not 0 < getattr(self, name) < 1:
                raise InvalidConfigurationError(
                    f"{name} must lie strictly inside (0, 1), "
                    f"got {getattr(self, name)}",
                    key=name,
                )


def _squared_error(theta: np.ndarray, theta0: np.ndarray) -> float:
    diff = np.asarray(theta, dtype=float) - theta0
    return float(diff @ diff)


def gaussian_experiment(
    config: GaussianExperimentConfig | None = None,
) -> tuple[list[BenchReport], dict]:
    """Replicated mean-estimation study in 1-d and 2-d.

    Reports the MSE against theta0 of every baseline plus the oracle
    blend that knows the relevant set, and density-curve samples from
    the first 1-d replication for plotting. Every dimension, replication
    and EM arm is a row of one ``run_em_rows`` call, so all replications
    are held in memory together.
    """
    config = config or GaussianExperimentConfig()
    reports: list[BenchReport] = []
    curves: dict = {}
    em_config = EmConfig(
        tau=config.tau,
        nu=config.nu,
        variant=config.variant,
        null_spec=NullSpec("empirical_bayes_mixture"),
        max_iters=config.max_iters,
        tol=config.tol,
        patience=config.patience,
    )
    relevant = tuple(range(1, config.n_relevant + 1))
    pi_informative = np.full(config.n_sources, config.p0)
    pi_informative[[k - 1 for k in relevant]] = config.strong_prior

    priors = {
        "uniform_em": np.full(config.n_sources, config.p0),
        "lip_em": pi_informative,
    }
    indicator = np.array(
        [1.0 if k in relevant else 0.0 for k in range(1, config.n_sources + 1)]
    )

    specs, draws, models = [], [], []
    dim_seeds = np.random.SeedSequence(config.seed).spawn(len(config.dims))
    for d, dim_seed in zip(config.dims, dim_seeds):
        specs.append(HierarchicalSpec(
            n_sources=config.n_sources,
            relevant=relevant,
            theta0=(0.0,) * d,
            tau=config.tau,
            sigma=config.sigma,
            n_target=config.n_target,
            n_source=config.n_source,
            seed=config.seed,
        ))
        draws += [
            generate_hierarchical(specs[-1], np.random.default_rng(s))[:2]
            for s in dim_seed.spawn(config.replications)
        ]
        models += [GaussianMeanModel(d, covariance=config.sigma**2)] * config.replications
    # every dimension x replication x arm is one row
    fits = _baseline_rows(draws, models, em_config, priors)
    for i, spec in enumerate(specs):
        theta0 = np.asarray(spec.theta0)
        block = slice(i * config.replications, (i + 1) * config.replications)
        errors: dict[str, list[float]] = {}
        for rep, ((target, sources), estimates) in enumerate(zip(draws[block], fits[block])):
            estimates["oracle"] = fixed_weight_blend(target, sources, indicator)
            for method, theta in estimates.items():
                errors.setdefault(method, []).append(_squared_error(theta, theta0))
            if spec.dim == 1 and rep == 0:
                curves = _density_curves(target, sources, estimates, spec, config)
        for method, values in errors.items():
            reports.append(
                BenchReport.from_values(method, "mse", "dim", float(spec.dim), values)
            )
    return reports, curves


def _density_curves(target, sources, estimates, spec, config) -> dict:
    # 1-d fitted Gaussian densities on a common grid, first replication
    points = [target.points.ravel()] + [s.points.ravel() for s in sources]
    lo = min(p.min() for p in points) - 2 * spec.sigma
    hi = max(p.max() for p in points) + 2 * spec.sigma
    grid = np.linspace(lo, hi, config.curve_points)
    var = spec.sigma**2

    def dens(mu):
        return np.exp(-((grid - mu) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var)

    series = {"truth": dens(float(np.asarray(spec.theta0)[0]))}
    for method, theta in estimates.items():
        series[method] = dens(float(np.asarray(theta)[0]))
    return {"x": grid, "series": series, "param_name": "dim", "param_value": 1.0}


@dataclass(frozen=True)
class FixedWeightCheck:
    """Monte Carlo vs predicted MSE for one fixed weight vector."""

    weights: tuple[float, ...]
    predicted: float
    mc_mean: float
    mc_stderr: float
    z_score: float


@dataclass(frozen=True)
class OracleMseRecord:
    """Comparison of the oracle-blend MSE against its closed form."""

    tau: float
    closed_form: float
    mc_mean: float
    mc_stderr: float
    z_score: float
    replications: int
    fixed_weight_checks: tuple[FixedWeightCheck, ...]


def _mc_blend_sqerr(
    spec: HierarchicalSpec,
    weights: np.ndarray,
    replications: int,
    rng: np.random.Generator,
    *,
    fixed_thetas: np.ndarray | None = None,
) -> np.ndarray:
    """Squared errors of the fixed-weight blend over sample-mean draws.

    The blend reads each dataset only through its mean, so every mean
    is drawn directly as Normal(theta, sigma^2/size): the target means,
    then the relevant parameters, then the source means. With
    fixed_thetas the source parameters are held constant (conditional
    MSE); otherwise they are redrawn each replication. Irrelevant
    sources, having zero weight, are skipped.
    """
    d = spec.dim
    theta0 = np.asarray(spec.theta0)
    sigma = spec.sigma
    n0, n = spec.n_target, spec.n_source
    active = np.flatnonzero(weights > 0)
    w_active = weights[active]
    total = n0 + n * float(w_active.sum())
    target_mean = theta0 + sigma / np.sqrt(n0) * rng.standard_normal((replications, d))
    blend = n0 * target_mean
    if active.size:
        shape = (replications, active.size, d)
        if fixed_thetas is None:
            thetas = theta0 + spec.tau * rng.standard_normal(shape)
        else:
            thetas = fixed_thetas[active]
        source_means = thetas + sigma / np.sqrt(n) * rng.standard_normal(shape)
        blend = blend + n * np.einsum("k,ckd->cd", w_active, source_means)
    diff = blend / total - theta0
    return np.einsum("cd,cd->c", diff, diff)


def oracle_mse_check(
    spec: HierarchicalSpec | None = None,
    replications: int = 10**5,
    *,
    weight_vectors: Sequence[Sequence[float]] | None = None,
    n_weight_vectors: int = 5,
) -> OracleMseRecord:
    """Monte Carlo check of the closed-form estimator MSE identities.

    Verifies the oracle blend against d sigma^2/(N0+N|R|) +
    d tau^2 N^2 |R|/(N0+N|R|)^2, and the general fixed-weight identity
    (variance d sigma^2 N_eff/T^2 plus the squared bias of the weighted
    parameter offsets) for the supplied or randomly drawn weight
    vectors. Reports z-scores of MC mean minus prediction.
    """
    spec = spec or HierarchicalSpec(relevant=ORACLE_RELEVANT)
    if replications < 10**3:
        raise InvalidConfigurationError(
            "need at least 1000 replications", key="replications"
        )
    if n_weight_vectors < 0:
        raise InvalidConfigurationError(
            f"n_weight_vectors must be >= 0, got {n_weight_vectors}",
            key="n_weight_vectors",
        )
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    theta0 = np.asarray(spec.theta0)
    indicator = np.array(
        [1.0 if k in spec.relevant else 0.0 for k in range(1, spec.n_sources + 1)]
    )
    closed = oracle_closed_form_mse(spec)
    sqerr = _mc_blend_sqerr(spec, indicator, replications, rng)
    mc_mean = float(sqerr.mean())
    mc_stderr = float(sqerr.std(ddof=1) / np.sqrt(replications))
    z = (mc_mean - closed) / mc_stderr

    # conditional identity: hold source parameters fixed, vary only data
    if weight_vectors is None:
        weight_vectors = [
            rng.uniform(0.0, 1.0, spec.n_sources) for _ in range(n_weight_vectors)
        ]
    _, fixed_thetas = _draw_source_thetas(spec, rng)
    checks = []
    for w in weight_vectors:
        w = np.asarray(w, dtype=float)
        oracle_spec = OracleSpec(spec=spec, weights=tuple(w))
        t_mass = oracle_spec.total_mass
        n_eff = oracle_spec.effective_size
        bias_vec = (
            spec.n_source
            * np.einsum("k,kd->d", w, fixed_thetas - theta0)
            / t_mass
        )
        predicted = spec.dim * spec.sigma**2 * n_eff / t_mass**2 + float(
            bias_vec @ bias_vec
        )
        vals = _mc_blend_sqerr(
            spec, w, replications, rng, fixed_thetas=fixed_thetas
        )
        w_mean = float(vals.mean())
        w_stderr = float(vals.std(ddof=1) / np.sqrt(replications))
        checks.append(
            FixedWeightCheck(
                weights=tuple(float(v) for v in w),
                predicted=predicted,
                mc_mean=w_mean,
                mc_stderr=w_stderr,
                z_score=(w_mean - predicted) / w_stderr,
            )
        )
    return OracleMseRecord(
        tau=spec.tau,
        closed_form=closed,
        mc_mean=mc_mean,
        mc_stderr=mc_stderr,
        z_score=z,
        replications=replications,
        fixed_weight_checks=tuple(checks),
    )


def dichotomy_check(
    spec: HierarchicalSpec | None = None,
    n_sweep: Sequence[int] = (10, 100, 1000, 10000),
    *,
    priors: Sequence[float] = (0.1, 0.9),
    replications: int = 100,
) -> list[BenchReport]:
    """Untempered E-step weights across a source-size sweep.

    Holds the iterate at theta0, sets every tempering multiplier to 1,
    and evaluates the weights at each N in the sweep on a separated
    configuration, for each flat prior level. Relevant weights should
    commit to 1 and irrelevant ones to 0 as N grows, regardless of the
    prior. The statistics are built once per (replication, N), and the
    prior levels score them along a leading axis of one E-step.
    """
    _check_replications(replications)
    _check_sweep(n_sweep, "n_sweep", lambda n: n >= 1, ">= 1")
    _check_sweep(priors, "priors", lambda p: 0 < p < 1, "strictly inside (0, 1)")
    spec = spec or SEPARATED_SPEC
    _check_mixture_sources(spec.n_sources)
    model = GaussianMeanModel(spec.dim, covariance=spec.sigma**2)
    config = EmConfig()
    rep_seeds = np.random.SeedSequence(spec.seed).spawn(replications)
    # one leading index per prior, all reading the same statistics
    pis = np.repeat(np.asarray(priors, dtype=float)[:, None], spec.n_sources, axis=1)
    theta = np.tile(np.asarray(spec.theta0, dtype=float), (len(pis), 1))
    beta = np.ones(pis.shape)
    weights = []  # per N: (replication, prior, source)
    for n in n_sweep:
        sized = replace(spec, n_source=int(n))
        per_rep = []
        for seed in rep_seeds:
            rng = np.random.default_rng(seed)
            target, sources, _ = generate_hierarchical(sized, rng)
            stats = build_sufficient_stats(model, [target, *sources])
            with np.errstate(invalid="ignore"):  # as in run_em_rows
                per_rep.append(EmStep(stats, config, pis).e_step(beta, theta, pis))
        weights.append(np.array(per_rep))
    reports = []
    for p, prior in enumerate(priors):
        for n, table in zip(n_sweep, weights):
            for k in range(1, spec.n_sources + 1):
                kind = "relevant" if k in spec.relevant else "irrelevant"
                reports.append(
                    BenchReport.from_values(
                        f"source_{k}_{kind}_prior_{prior:g}",
                        "weight",
                        "n_source",
                        float(n),
                        table[:, p, k - 1],
                    )
                )
    return reports


def consistency_check(
    spec: HierarchicalSpec | None = None,
    n0_sweep: Sequence[int] = (100, 1000, 10000, 100000),
    *,
    replications: int = 50,
    pi: Sequence[float] | None = None,
    variants: Sequence[str] = ("exact_hessian_reuse", "small_tau_surrogate"),
    nu: float = 0.05,
) -> list[BenchReport]:
    """Estimation error across a target-size sweep under a wrong prior.

    Per replication the sources are drawn once and held fixed while the
    target grows; a full EM runs per (N0, variant), and the replications
    of one (N0, variant) are rows of one ``run_em_rows`` call. The prior
    defaults to 0.9 on the first irrelevant source and P0 elsewhere, the
    adversarial case: abundant target data must still wash it out.
    """
    _check_replications(replications)
    _check_sweep(n0_sweep, "n0_sweep", lambda n: n >= 1, ">= 1")
    spec = spec or SEPARATED_SPEC
    _check_mixture_sources(spec.n_sources)
    theta0 = np.asarray(spec.theta0)
    if pi is None:
        pi = np.full(spec.n_sources, P0)
        wrong = next(
            (k for k in range(1, spec.n_sources + 1) if k not in spec.relevant), None
        )
        if wrong is not None:
            pi[wrong - 1] = 0.9
    pi = np.asarray(pi, dtype=float)
    model = GaussianMeanModel(spec.dim, covariance=spec.sigma**2)
    sigma = spec.sigma
    rngs = spawn_rngs(spec.seed, replications)
    all_sources = []
    for rng in rngs:
        _, thetas = _draw_source_thetas(spec, rng)
        all_sources.append([
            Dataset(thetas[k] + sigma * rng.standard_normal((spec.n_source, spec.dim)))
            for k in range(spec.n_sources)
        ])
    configs = [
        EmConfig(
            tau=spec.tau if spec.tau > 0 else 0.0,
            nu=nu,
            variant=variant,
            null_spec=NullSpec("empirical_bayes_mixture"),
        )
        for variant in variants
    ]
    rows = [(r, pi) for r in range(replications)]
    errs = {}  # (sweep position, variant position) -> one error per replication
    for j, n0 in enumerate(n0_sweep):
        # each replication's stream draws its targets in sweep order
        collections = [
            [Dataset(theta0 + sigma * rng.standard_normal((int(n0), spec.dim))), *sources]
            for rng, sources in zip(rngs, all_sources)
        ]
        for v, config in enumerate(configs):
            fits = run_em_rows(collections, model, rows, config)
            errs[j, v] = [float(np.linalg.norm(s.theta - theta0)) for s, _ in fits]
    # in the order one replication at a time would append them
    errors: dict[tuple[str, int], list[float]] = {}
    for r in range(replications):
        for j, n0 in enumerate(n0_sweep):
            for v, variant in enumerate(variants):
                errors.setdefault((variant, int(n0)), []).append(errs[j, v][r])
    reports = []
    for (variant, n0), values in sorted(errors.items()):
        reports.append(
            BenchReport.from_values(variant, "error_norm", "n_target", float(n0), values)
        )
    return reports


# the share of engines ``fast_decay_lip`` favours, and their prior
_FAST_DECAY_SHARE = 0.1
_FAST_DECAY_PI = 0.9


def fast_decay_lip(engines: Mapping[int, Dataset], *, p0: float = P0) -> Lip:
    """Prior concentrated on the fastest-decaying engines.

    Engines are ranked by lifetime (cycle count); the shortest tenth (at
    least one) receive probability 0.9 and the rest ``p0``.  Indices in
    the returned prior are engine ids.
    """
    ids = sorted(engines)
    if ids != list(range(1, len(ids) + 1)):
        raise InvalidConfigurationError(
            "engine ids must be contiguous from 1", key="engines"
        )
    lifetimes = np.array([len(engines[i]) for i in ids], dtype=float)
    n_strong = max(1, int(round(_FAST_DECAY_SHARE * len(ids))))
    order = np.argsort(lifetimes, kind="stable")
    pi = np.full(len(ids), p0)
    pi[order[:n_strong]] = _FAST_DECAY_PI
    return Lip(pi=pi, provenance="file")


def cmapss_experiment(
    data_dir,
    lip_source: str = "uniform",
    cutoffs: Sequence[float] = CMAPSS_CUTOFFS,
    engines: Sequence[int] = CMAPSS_ENGINES,
    *,
    knots: Sequence[float] | None = None,
    tau: float = 1e-3,
    nu: float = 0.05,
    ridge: float = 1e-8,
    p0: float = P0,
) -> tuple[list[BenchReport], dict]:
    """Remaining-life style sensor prediction across engine domains.

    Each engine is a domain; for every target engine and RUL cutoff the
    target keeps its first (1 - cutoff) fraction of cycles, every other
    engine serves as a full source, and each baseline's fitted spline
    predicts sensor 9 on the held-out cycles. RMSEs are averaged across
    the target engines. ``lip_source`` is "uniform", "fast-decay" (see
    ``fast_decay_lip``) or the path of a prior file indexed by engine id.

    A target's sources, noise variance, model and prior slice do not
    depend on the cutoff, so they are built once per target engine.
    """
    all_engines = ingest_cmapss(data_dir)
    _check_sweep(engines, "engines")
    missing = [e for e in engines if e not in all_engines]
    if missing:
        raise InvalidConfigurationError(
            f"engines {missing} not present in the data", key="engines"
        )
    # at cutoff 0 no target keeps a holdout
    _check_sweep(cutoffs, "cutoffs", lambda c: 0 < c < 1, "strictly inside (0, 1)")
    if not 0 < p0 < 1:
        raise InvalidConfigurationError(
            f"p0 must lie strictly inside (0, 1), got {p0}", key="p0"
        )
    if knots is None:
        knots = np.linspace(0.0, 300.0, 5)

    lip: Lip | None = None
    if lip_source == "fast-decay":
        lip = fast_decay_lip(all_engines, p0=p0)
    elif lip_source != "uniform":
        lip = Lip.read(lip_source)
        if lip.n_sources != len(all_engines):
            raise InvalidConfigurationError(
                f"prior covers {lip.n_sources} sources, expected {len(all_engines)}",
                key="lip_source",
            )
    em_config = EmConfig(
        tau=tau,
        nu=nu,
        variant="exact_hessian_reuse",
        null_spec=NullSpec("empirical_bayes_mixture"),
    )

    # RMSE per method of each (cutoff position, target position) cell
    cells: dict[tuple[int, int], dict[str, float]] = {}
    curves: dict = {}
    curves_cell: tuple[int, int] | None = None
    for j, target_id in enumerate(engines):
        full = all_engines[target_id]
        n = len(full)
        source_engines = [e for e in sorted(all_engines) if e != target_id]
        sources = [all_engines[e] for e in source_engines]
        sigma_sq = pooled_noise_variance(knots, sources, ridge=ridge)
        model = SplineGlmModel(knots, noise_variance=sigma_sq, ridge=ridge)
        pi = None
        if lip is not None:
            pi = np.array([lip.pi[e - 1] for e in source_engines])
        for i, cutoff in enumerate(cutoffs):
            n_train = int(np.floor((1.0 - cutoff) * n))
            n_train = max(n_train, 1)
            if n_train >= n:
                warnings.warn(
                    f"cutoff {cutoff:g} leaves no holdout for engine "
                    f"{target_id}; skipping",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            target = Dataset(full.points[:n_train])
            holdout = full.points[n_train:]
            estimates = baselines(target, sources, model, em_config=em_config, lip=pi, p0=p0)
            x_hold, y_hold = holdout[:, 0], holdout[:, 1]
            cells[i, j] = {}
            for method, theta in estimates.items():
                pred = model.predict(theta, x_hold)
                cells[i, j][method] = float(np.sqrt(np.mean((pred - y_hold) ** 2)))
            # the curves show the first cell in cutoff-major order
            if curves_cell is None or (i, j) < curves_cell:
                curves_cell = (i, j)
                grid = full.points[:, 0]
                series = {"observed": full.points[:, 1].copy()}
                for method, theta in estimates.items():
                    series[method] = model.predict(theta, grid)
                curves = {
                    "x": grid.copy(),
                    "series": series,
                    "param_name": "cutoff",
                    "param_value": float(cutoff),
                    "engine": int(target_id),
                }
    if not cells:
        raise InvalidConfigurationError(
            "no target engine keeps a holdout at any cutoff", key="cutoffs"
        )
    # cutoff-major order: a report's values follow the targets as given
    rmse_cells: dict[tuple[str, float], list[float]] = {}
    for (i, _), rmse in sorted(cells.items()):
        for method, value in rmse.items():
            rmse_cells.setdefault((method, float(cutoffs[i])), []).append(value)
    return [
        BenchReport.from_values(method, "rmse", "cutoff", cutoff, values)
        for (method, cutoff), values in sorted(rmse_cells.items())
    ], curves
