"""Prior-aided EM with Bayesian tempering.

The engine alternates a tempered E-step, which scores each candidate
source by a Laplace-approximated relevant marginal against a null
density and corrects the prior in logit space, with an M-step that
blends source MLEs into the target estimate. Two M-step variants are
provided: an exact precision-weighted blend that reuses Hessians frozen
at the MLEs, and a small-spread surrogate that reduces to a sample-size
weighted average. Convergence is judged on the weight vector.

Every dataset is read once. The likelihood families are exactly
quadratic in theta, so :func:`build_sufficient_stats` makes one
``model.summarize`` call per dataset, which returns its MLE theta_k and
the log-likelihood l_k, gradient g_k and PSD Hessian H_k there; every
later likelihood value (the mixture null's table over the sources, the
pooled null) is the expansion in delta = theta - theta_k,

    loglik(theta; D_k) = l_k + g_k'delta - (1/2) delta' H_k delta.

Anchoring at each MLE rather than at theta = 0 keeps large responses
from cancelling digits. The Laplace relevant marginal of a source is the
same quadratic with c_k = l_k + (tau^2/2) g_k'F_k g_k - (1/2) logdet(I +
tau^2 H_k), b_k = F_k g_k and C_k = F_k H_k in place of l_k, g_k and
H_k, where F_k = (I + tau^2 H_k)^{-1}: I - tau^2 H_k F_k = F_k and H_k -
tau^2 H_k F_k H_k = C_k. ``_expand`` evaluates every such quadratic,
the public :func:`relevant_marginal_loglik` included. The pooled null's
theta is ``model.pooled_mle`` of the sources: for splines, one solve of
the summed normal equations of fits kept on each dataset.

:class:`EmStep`, the one EM step, is built from one collection's
statistics and an :class:`EmConfig`. It resolves what does not change
between iterations once, on first use: the tempering scales eps_k, the
logit of the clamped prior, the sources' theta_k, c_k, b_k and C_k, the
pooled or fixed null's scores, the M-step's table (the exact blend's
rows [H0 theta_0 | H0] and [C_k theta_k | C_k], C_k built once for both
readers, or the surrogate's [N0 | N0 theta_0] and [N_k | N_k theta_k])
and its weight buffer. The mixture null's K x K table reads the sources
alone; it is exponentiated once, E_jk = exp(table_jk - m_k) with m_k
the largest finite entry of column k, next to the shift m_k - log(K -
1). An iteration then computes only what depends on the iterate: the
tempering ramp, the marginal's quadratic over the K sources, the
mixture null's one product (1 - w) @ E over the lagged weights,
clamped to [WEIGHT_CLAMP, 1 - WEIGHT_CLAMP], a log and the shift, one
finite check, the sigmoid, and one weighted sum of the table, then one
d x d solve for the exact blend or one divide for the surrogate. Each
factor 1 - w is at least about WEIGHT_CLAMP and a finite column's peak
entry of E is exactly 1, so the product cannot underflow; only a
degenerate column reads an infinity. Its steps broadcast over leading
axes of theta, the weights and pi. The public step functions below are
one ``EmStep`` call each, so they and the loop share one arithmetic
path.

One loop, :func:`run_em_rows`, advances R problems with one source
count K together; their dimensions d may differ. A row is a (dataset
collection, prior) pair. Each collection's statistics are built once,
and so is its step, whose constants are built once however many rows
share it; ``EmStep.stack`` then puts those constants on a leading row
axis, which no other object carries, zero-padded to the largest d, D.
Every step of an iteration runs once over every row, and the jittered
solve reaches only a row whose blend is singular, on that row's own
d x d block. A row freezes once it converges: the loop stacks the live
rows again from the steps it holds, whose constants are built already,
at the same D, so theta carries over as it is. Padding adds exact zeros
to the marginal's sums and to the blend's solve, which changes no bit at the
widths measured (D <= 7 on OpenBLAS 0.3.31 Haswell, numpy 2.4) and moves
a row off its solo run by rounding beyond them (below 1e-14 relative at
d >= 5, D = 8). :func:`run_em` is the R = 1 call of that loop. Histories
grow with the iterations run, not with ``max_iters``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from numbers import Integral, Real
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateNullError,
    InsufficientDataError,
    InvalidConfigurationError,
    NonFiniteLikelihoodError,
    SingularFitError,
)
from .files import write_text_atomic
from .likelihood import Dataset, LikelihoodFamily
from .lip import expit, logit

__all__ = [
    "WEIGHT_CLAMP",
    "NullSpec",
    "EmConfig",
    "SufficientStats",
    "EmStep",
    "EmState",
    "EmRunReport",
    "build_sufficient_stats",
    "relevant_marginal_loglik",
    "null_loglik",
    "tempering_schedule",
    "e_step",
    "m_step_exact",
    "run_em",
    "run_em_rows",
    "write_em_report",
]

# weights are clamped to [WEIGHT_CLAMP, 1 - WEIGHT_CLAMP] before any
# logit-space arithmetic so saturation cannot produce infinities
WEIGHT_CLAMP = 1e-12

VARIANTS = ("exact_hessian_reuse", "small_tau_surrogate")
TEMPERING_MODES = ("trace_exact", "fisher_ratio")
NULL_KINDS = ("empirical_bayes_mixture", "parametric_pooled", "fixed")


@dataclass(frozen=True)
class NullSpec:
    """How the irrelevant-source density is scored.

    ``empirical_bayes_mixture`` scores dataset k under the mixture of
    the other sources' fitted models, down-weighted by their current
    relevance; ``parametric_pooled`` scores it under a single model fit
    to all sources pooled; ``fixed`` looks values up from a supplied
    per-source table.
    """

    kind: str = "empirical_bayes_mixture"
    table: Mapping[int, float] | None = None

    def __post_init__(self):
        if self.kind not in NULL_KINDS:
            raise InvalidConfigurationError(
                f"unknown null kind {self.kind!r}; expected one of {NULL_KINDS}",
                key="null_spec.kind",
            )
        if self.kind == "fixed":
            if self.table is None:
                raise InvalidConfigurationError(
                    "fixed null requires a per-source table",
                    key="null_spec.table",
                )
            # sequences are read as values for sources 1..K in order
            if not isinstance(self.table, Mapping):
                seq = tuple(float(v) for v in self.table)
                object.__setattr__(
                    self, "table", {k + 1: v for k, v in enumerate(seq)}
                )
            else:
                object.__setattr__(
                    self,
                    "table",
                    {int(k): float(v) for k, v in self.table.items()},
                )


def _is_finite(value, power: int = 1) -> bool:
    """Whether ``value ** power`` is a finite float; an integer beyond
    the float range is not."""
    try:
        return math.isfinite(float(value) ** power)
    except OverflowError:
        return False


@dataclass(frozen=True)
class EmConfig:
    """Knobs for one EM run.

    tau is the relevant-cluster spread in parameter units; nu the
    tempering rate per iteration. The tempering scale follows the
    variant (see ``tempering_mode``).
    """

    tau: float = 0.0
    nu: float = 0.05
    variant: str = "exact_hessian_reuse"
    null_spec: NullSpec = field(default_factory=NullSpec)
    max_iters: int = 1000
    tol: float = 1e-3
    patience: int = 5

    def __post_init__(self):
        # values may come straight from JSON; check types before ranges
        for names, kind, noun in (
            (("tau", "nu", "tol"), Real, "a number"),
            (("max_iters", "patience"), Integral, "an integer"),
        ):
            for name in names:
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise InvalidConfigurationError(
                        f"{name} must be {noun}, got {value!r}", key=name
                    )
        # tau enters squared, so its square must be finite too
        if not (self.tau >= 0 and _is_finite(self.tau, 2)):
            raise InvalidConfigurationError(
                f"tau must be >= 0 with a finite square, got {self.tau}", key="tau"
            )
        if not (self.nu > 0 and _is_finite(self.nu)):
            raise InvalidConfigurationError(
                f"nu must be finite and > 0, got {self.nu}", key="nu"
            )
        if self.variant not in VARIANTS:
            raise InvalidConfigurationError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}",
                key="variant",
            )
        if not isinstance(self.null_spec, NullSpec):
            raise InvalidConfigurationError(
                "null_spec must be a NullSpec", key="null_spec"
            )
        if self.max_iters < 1:
            raise InvalidConfigurationError(
                "max_iters must be a positive integer", key="max_iters"
            )
        if not self.tol > 0:
            raise InvalidConfigurationError("tol must be > 0", key="tol")
        if self.patience < 1:
            raise InvalidConfigurationError(
                "patience must be a positive integer", key="patience"
            )

    @property
    def tempering_mode(self) -> str:
        """trace_exact for the exact blend, fisher_ratio for the surrogate."""
        if self.variant == "exact_hessian_reuse":
            return "trace_exact"
        return "fisher_ratio"


@dataclass(frozen=True, eq=False)
class SufficientStats:
    """Quadratic summary of one collection's datasets, computed once and
    frozen.

    Index 0 is the target; 1..K are the candidate sources. Per dataset
    k: the MLE ``theta_hat[k]``, the log-likelihood ``loglik_hat[k]``
    and gradient ``gradients[k]`` there (the gradient is nonzero only
    under a ridge), the PSD Hessian ``hessians[k]`` and the size
    ``sizes[k]``; plus ``pooled_theta``, the MLE on all sources pooled.
    It holds data only: every likelihood value the EM needs is read off
    these expansions by ``EmStep``.
    """

    theta_hat: np.ndarray
    loglik_hat: np.ndarray
    gradients: np.ndarray
    hessians: np.ndarray
    sizes: np.ndarray
    pooled_theta: np.ndarray

    def __post_init__(self):
        for value in vars(self).values():
            value.setflags(write=False)

    @property
    def n_sources(self) -> int:
        return self.theta_hat.shape[-2] - 1

    @property
    def dim(self) -> int:
        return self.theta_hat.shape[-1]


def _expand(theta, center, value, slope, curvature):
    """The quadratic value + slope'delta - (1/2) delta' curvature delta at
    delta = theta - center, one per entry of the K axis.

    With each dataset's MLE theta_k, l_k, g_k and H_k this is its
    log-likelihood, exact for the shipped families; with the sources'
    theta_k, c_k, b_k and C_k (``_laplace_terms``) it is their Laplace
    relevant marginal. ``theta`` is a float array of shape (..., d) and
    gives values of shape (..., K); a stack's terms, with a leading row
    axis, take theta (R, D).
    """
    dev = theta[..., None, :] - center
    curv = np.einsum("...kij,...kj->...ki", curvature, dev)
    return value + np.einsum("...ki,...ki->...k", slope - 0.5 * curv, dev)


def _laplace_terms(loglik, gradients, hessians, tau: float):
    """The Laplace relevant marginal's c_k, b_k and C_k from l_k, g_k and
    the PSD H_k at each MLE, over a leading dataset axis; see the module
    docstring. At tau = 0 they are l_k, g_k and H_k as given."""
    if tau == 0:
        return loglik, gradients, hessians
    # I + tau^2 H_k is positive definite for a PSD H_k
    a = np.eye(hessians.shape[-1]) + tau**2 * hessians
    slope = (np.linalg.inv(a) @ gradients[..., None])[..., 0]
    half_logdet = 0.5 * np.linalg.slogdet(a)[1]
    value = loglik + 0.5 * tau**2 * np.einsum("ki,ki->k", gradients, slope) - half_logdet
    curvature = np.linalg.solve(a, hessians)
    return value, slope, 0.5 * (curvature + curvature.swapaxes(1, 2))


def _check_prior(pi: np.ndarray, shape: tuple[int, ...]) -> None:
    if pi.shape != shape:
        raise InvalidConfigurationError(
            f"pi must have one entry per source, got shape {pi.shape}", key="pi"
        )
    if not np.all((pi > 0.0) & (pi < 1.0)):
        raise InvalidConfigurationError(
            "prior probabilities must lie strictly inside (0, 1)", key="pi"
        )


def _checked(value, key: str, width: int, lead: bool = True, unit: bool = False) -> np.ndarray:
    """``value`` as floats, ``width`` of them along the last axis, which
    leading axes may precede if ``lead``, each in [0, 1] if ``unit``;
    otherwise ``InvalidConfigurationError`` keyed ``key``."""
    value = np.asarray(value, dtype=float)
    if value.shape[-1:] != (width,) or (value.ndim > 1 and not lead):
        want = f"(..., {width})" if lead else f"({width},)"
        raise InvalidConfigurationError(f"{key} must have shape {want}, got {value.shape}", key=key)
    if unit and not np.all((value >= 0.0) & (value <= 1.0)):
        raise InvalidConfigurationError(f"{key} must lie in [0, 1]", key=key)
    return value


def _table_lookup(table: Mapping[int, float], ks) -> np.ndarray:
    try:
        return np.array([table[k] for k in ks], dtype=float)
    except KeyError as exc:
        raise InvalidConfigurationError(
            f"fixed null table has no entry for source {exc.args[0]}",
            key="null_spec.table",
        ) from exc


def _check_collection(datasets: list) -> None:
    if len(datasets) < 2:
        raise InsufficientDataError("need a target dataset and at least one source")
    if len(datasets[0]) == 0:
        raise InsufficientDataError("target dataset is empty")


def build_sufficient_stats(
    model: LikelihoodFamily, datasets: Sequence[Dataset]
) -> SufficientStats:
    """Read every dataset once, through ``model.summarize``."""
    datasets = [d if isinstance(d, Dataset) else Dataset(d) for d in datasets]
    _check_collection(datasets)
    for k, data in enumerate(datasets):
        bad = np.flatnonzero(~np.all(np.isfinite(data.points), axis=1))
        if bad.size:
            raise NonFiniteLikelihoodError(
                f"dataset {k} (0 is the target) has a non-finite value "
                f"in row {bad[0] + 1}",
                source_index=k,
            )
    theta_hat, values, gradients, hessians = zip(*map(model.summarize, datasets))
    pooled = np.asarray(model.pooled_mle(datasets[1:]), dtype=float)
    return SufficientStats(
        np.array(theta_hat, dtype=float),
        np.array(values),
        np.array(gradients),
        np.array(hessians),
        np.array([len(data) for data in datasets]),
        pooled,
    )


@dataclass
class EmState:
    """Mutable snapshot of the EM iterate."""

    theta: np.ndarray
    weights: np.ndarray
    t: int
    beta: np.ndarray


@dataclass
class EmRunReport:
    """Trajectory and convergence status of one run.

    History arrays have one row per iteration counter value, starting
    at t = 0 (prior weights, initial theta). Weight columns follow the
    kept sources in their original order; indices of sources dropped
    for being empty are listed separately.
    """

    converged: bool
    iterations: int
    config: EmConfig
    weight_history: np.ndarray
    theta_history: np.ndarray
    beta_history: np.ndarray
    delta_w_history: np.ndarray
    dropped_sources: tuple[int, ...] = ()


def relevant_marginal_loglik(
    model: LikelihoodFamily, data: Dataset, theta: np.ndarray, tau: float
) -> float:
    """Laplace-approximated log marginal of a dataset near theta.

    Integrates the likelihood against an isotropic Gaussian of spread
    tau centered at theta: the step's quadratic c + b'delta - (1/2)
    delta' C delta around the dataset's MLE (``model.summarize``), so a
    dataset whose MLE is singular raises ``SingularFitError``. At tau = 0
    this is the plain log-likelihood, bit for bit.
    """
    if not (tau >= 0 and _is_finite(tau, 2)):
        raise InvalidConfigurationError(
            f"tau must be >= 0 with a finite square, got {tau}", key="tau"
        )
    if tau == 0:
        out = float(model.loglik(theta, data))
    else:
        theta = model._check_theta(theta)
        center, value, slope, curvature = model.summarize(data)
        terms = _laplace_terms(np.array([value]), slope[None], curvature[None], tau)
        out = float(_expand(theta, center[None], *terms)[0])
    if not np.isfinite(out):
        raise NonFiniteLikelihoodError("marginal log-likelihood is not finite")
    return out


def _pad(value, axes, by: int):
    """``value`` with ``by`` zeros after the end of each of its last
    ``axes`` axes; a tuple is padded part by part, with one count each.
    Unpadded, ``value`` itself is returned."""
    if isinstance(value, tuple):
        return tuple(_pad(part, n, by) for part, n in zip(value, axes))
    if not (axes and by):
        return value
    lead = value.ndim - axes
    out = np.zeros(value.shape[:lead] + tuple(n + by for n in value.shape[lead:]), value.dtype)
    out[tuple(map(slice, value.shape))] = value
    return out


@dataclass(eq=False)
class EmStep:
    """One EM step on one collection's statistics under one ``EmConfig``.

    Each constant :meth:`beta`, :meth:`e_step`, :meth:`null` and
    :meth:`m_step` read is built on first use and then held. ``pi`` is
    the prior the E-step corrects. :meth:`stack` puts several
    collections' constants on a leading row axis, one row per
    (collection, prior) pair, padded to one dimension: the row axis
    lives on a stack only, and ``dims`` holds each row's own d.
    """

    stats: SufficientStats | None  # None on a stack
    config: EmConfig = field(default_factory=EmConfig)
    pi: np.ndarray | None = None

    def __post_init__(self):
        self._scale = None  # [1, w_1..w_K] per row, for the M-step
        # d for the M-step's solve; a stack sets each row's own
        self.dims = None if self.stats is None else self.stats.dim

    @classmethod
    def stack(cls, steps: Sequence["EmStep"], index: Sequence[int], pi) -> "EmStep":
        """R rows on a leading axis: row r reads ``steps[index[r]]`` from
        the prior ``pi[r]``. Each step builds the run's constants once,
        here, however many rows read it. The steps must share one source
        count K; their dimensions d may differ. Every constant lies on
        the one row axis. Those shaped by d (the marginal's theta_k, b_k
        and C_k, and the M-step table) are zero-padded to D, the largest
        d of ``steps``, and the target's pad rows of the exact blend get
        an identity block: the blend stays regular and solves the pad
        entries of a row's theta, of width D, to exactly 0. Only the
        steps some row reads are stacked, and D does not depend on
        which, so a loop restacks its live rows from the steps it holds,
        and keeps their theta, without rebuilding a constant. The
        mixture null stacks its E and shift, not its table."""
        counts = sorted({step.stats.n_sources for step in steps})
        if len(counts) != 1:
            raise InvalidConfigurationError(
                "rows must share one source count after empty sources are "
                f"dropped; got source counts {counts}",
                key="rows",
            )
        index = np.asarray(index)
        if not (
            index.ndim == 1 and index.dtype.kind in "iu"
            and np.all((index >= 0) & (index < len(steps)))
        ):
            raise InvalidConfigurationError(
                f"row steps {index.tolist()} are not indices of the {len(steps)} steps",
                key="rows",
            )
        out = replace(steps[0], stats=None, pi=np.array(pi, dtype=float))
        _check_prior(out.pi, index.shape + (counts[0],))
        dims = np.array([step.stats.dim for step in steps])
        out.dims, width = dims[index], dims.max()
        exact = out.config.variant == "exact_hessian_reuse"
        used = sorted(set(index.tolist()))
        at = np.searchsorted(used, index)
        mixture = out.config.null_spec.kind == "empirical_bayes_mixture"
        null = ("mixture", (0, 0)) if mixture else ("null_part", 0)
        # each constant's trailing axes of length d, padded to D
        for name, axes in (
            ("eps", 0), null, ("marginal", (1, 0, 1, 2)), ("blend", 2 if exact else 1)
        ):
            parts = [_pad(getattr(steps[c], name), axes, width - dims[c]) for c in used]
            if isinstance(parts[0], tuple):
                out.__dict__[name] = tuple(np.stack(p)[at] for p in zip(*parts))
            else:
                out.__dict__[name] = np.stack(parts)[at]
        if exact:
            # in the target's table row, the block's column i is column i + 1
            rows, pads = np.nonzero(np.arange(width) >= out.dims[:, None])
            out.blend[rows, 0, pads, pads + 1] = 1.0
        return out

    @cached_property
    def eps(self) -> np.ndarray:
        """Per-source tempering scales eps_k.

        eps_k^2 is the relative information of source k against the
        target: Tr(H0^{-1} H_k) in trace_exact mode, d N_k / N0 in
        fisher_ratio mode (see ``EmConfig.tempering_mode``). A singular
        target Hessian downgrades trace_exact to fisher_ratio with a
        warning.
        """
        stats = self.stats
        eps_sq = stats.dim * stats.sizes[1:] / stats.sizes[0]
        if self.config.tempering_mode == "trace_exact":
            try:
                # H0 = U'U. The upper factor decides singularity as
                # LAPACK's potrf('U') does; on clamped rank-deficient
                # spline Hessians the lower factor fails on a different
                # set of matrices
                upper = np.linalg.cholesky(stats.hessians[0], upper=True)
            except np.linalg.LinAlgError:
                warnings.warn(
                    "target Hessian is singular; tempering falls back to "
                    "the fisher_ratio scale",
                    RuntimeWarning,
                )
            else:
                # H0^{-1} H_k through the factor, for the source Hessians
                # side by side: an LU solve of a nearly singular H0 can
                # meet an exactly zero pivot where the factor has none
                d, n = stats.dim, stats.n_sources
                blocks = np.hstack(stats.hessians[1:])
                solved = np.linalg.solve(upper, np.linalg.solve(upper.T, blocks))
                eps_sq = np.trace(solved.reshape(d, n, d), axis1=0, axis2=2)
        return np.maximum(np.sqrt(np.maximum(eps_sq, 0.0)), 1e-12)

    @cached_property
    def marginal(self) -> tuple[np.ndarray, ...]:
        """Each source's theta_k, c_k, b_k and C_k, in ``_expand``'s order."""
        stats = self.stats
        terms = _laplace_terms(
            stats.loglik_hat[1:], stats.gradients[1:], stats.hessians[1:], self.config.tau
        )
        return (stats.theta_hat[1:], *terms)

    @cached_property
    def prior_logit(self) -> np.ndarray:
        """logit of the checked prior, clamped to [WEIGHT_CLAMP, 1 - WEIGHT_CLAMP].
        A stack's rows were checked before they were stacked."""
        if self.stats is not None:
            _check_prior(self.pi, self.pi.shape[:-1] + (self.stats.n_sources,))
        return logit(np.clip(self.pi, WEIGHT_CLAMP, 1.0 - WEIGHT_CLAMP))

    @cached_property
    def null_part(self) -> np.ndarray:
        """The sources' pooled-MLE likelihoods or fixed-table values, or
        the mixture table, whose entry (j, k) is loglik(theta_j; D_k)
        over the sources, -inf where j = k since no source is a component
        of its own mixture null. A stack holds no mixture table."""
        stats, null_spec = self.stats, self.config.null_spec
        if null_spec.kind == "fixed":
            return _table_lookup(null_spec.table, range(1, stats.n_sources + 1))
        sources = (stats.theta_hat[1:], stats.loglik_hat[1:], stats.gradients[1:], stats.hessians[1:])
        if null_spec.kind == "parametric_pooled":
            return _expand(stats.pooled_theta, *sources)
        if stats.n_sources < 2:
            raise InvalidConfigurationError(
                "the mixture null needs at least two sources", key="null_spec.kind"
            )
        # rows: mixture components j = 1..K; columns: the sources scored
        table = _expand(sources[0], *sources)
        np.fill_diagonal(table, -np.inf)
        return table

    @cached_property
    def mixture(self) -> tuple[np.ndarray, np.ndarray]:
        """The mixture null's run constants: the table exponentiated,
        E_jk = exp(table_jk - m_k), and the shift m_k - log(K - 1), with
        m_k the largest finite entry of column k (0 where there is none,
        so such a column's E holds no finite nonzero entry)."""
        table = self.null_part
        peak = np.max(table, axis=0, initial=-np.inf, where=np.isfinite(table))
        peak[np.isinf(peak)] = 0.0
        return np.exp(table - peak), peak - math.log(table.shape[0] - 1)

    @cached_property
    def blend(self) -> np.ndarray:
        """The M-step's table, one row per dataset, that :meth:`m_step`
        sums with weights [1, w_1..w_K]: the exact blend's [H0 theta_0 |
        H0] and [C_k theta_k | C_k], or the surrogate's [N0 | N0 theta_0]
        and [N_k | N_k theta_k] (one table row each)."""
        stats = self.stats
        if self.config.variant == "small_tau_surrogate":
            if stats.sizes[0] < 1:
                raise InsufficientDataError("target dataset is empty")
            sizes = stats.sizes[:, None]
            return np.concatenate([sizes, sizes * stats.theta_hat], axis=-1)[:, None]
        h0, theta_hat, blocks = stats.hessians[0], stats.theta_hat, self.marginal[3]
        pulls = [(h0 @ theta_hat[0])[None], (blocks @ theta_hat[1:, :, None])[..., 0]]
        rows = np.concatenate([h0[None], blocks])
        return np.concatenate([np.concatenate(pulls)[..., None], rows], axis=-1)

    def beta(self, t: int) -> np.ndarray:
        """The tempering multipliers (1 - exp(-nu t)) / eps_k."""
        ramp = -np.expm1(-self.config.nu * t)
        if ramp == 0.0:
            # a solo step builds no eps for it; a stack holds them per row
            return np.zeros(self.eps.shape if self.stats is None else self.stats.n_sources)
        return ramp / self.eps

    def e_step(self, beta: np.ndarray, theta: np.ndarray, prev: np.ndarray) -> np.ndarray:
        """See :func:`e_step`; ``prev`` is the previous weights. On a
        stack theta is of width D, zero beyond each row's d."""
        prior_logit = self.prior_logit
        if not beta.any():
            return self.pi.copy()
        rel = _expand(theta, *self.marginal)
        null = self.null(prev)
        ratio = rel - null
        if not np.isfinite(ratio).all():
            # the first faulty row's first fault, in order: the marginal,
            # the null (a mixture null is finite where its peak is), the
            # ratio
            row = tuple(np.argwhere(~np.isfinite(ratio))[0][:-1])
            _name_non_finite(rel[row], "relevant marginal")
            if self.config.null_spec.kind == "empirical_bayes_mixture":
                _check_mixture(null[row])
            _name_non_finite(ratio[row], "log-ratio")
        return expit(beta * ratio + prior_logit)

    def null(self, prev: np.ndarray) -> np.ndarray:
        """See :func:`null_loglik`: per row, the weights clamped as the
        E-step's prior is, then one product (1 - w) @ E over the
        components, a log and the shift. A degenerate column reads nan or
        an infinity; the callers check."""
        if self.config.null_spec.kind != "empirical_bayes_mixture":
            return self.null_part
        table, shift = self.mixture
        prev = np.minimum(np.maximum(prev, WEIGHT_CLAMP), 1.0 - WEIGHT_CLAMP)
        total = ((1.0 - prev)[..., None, :] @ table)[..., 0, :]
        with np.errstate(divide="ignore"):  # a column with no finite entry
            return np.log(total) + shift

    def m_step(self, weights: np.ndarray) -> np.ndarray:
        """The blended theta for weights of one shape per step, of width D
        on a stack: one weighted sum of the table, then one d x d solve
        for the exact blend or one divide for the surrogate."""
        if self._scale is None:
            self._scale = np.ones(weights.shape[:-1] + (weights.shape[-1] + 1,))
        # weight 1 on the target row, then the sources in order: the sum
        # along the dataset axis runs in that order, so rounding follows
        # the formula
        scale = self._scale
        scale[..., 1:] = weights
        joint = np.einsum("...k,...kij->...ij", scale, self.blend)
        if self.config.variant == "small_tau_surrogate":
            return joint[..., 0, 1:] / joint[..., 0, :1]
        return _solve_with_jitter(joint[..., 1:], joint[..., 0], self.dims)


def null_loglik(
    null_spec: NullSpec,
    k: int,
    stats: SufficientStats,
    weights_prev: np.ndarray,
) -> float:
    """Log-density of dataset k (indexed from 1) under the irrelevance
    hypothesis.

    The mixture form averages the other sources' fitted models with
    responsibilities (1 - w_j) lagged from the previous iteration, the
    weights, each in [0, 1] and clamped to [WEIGHT_CLAMP, 1 -
    WEIGHT_CLAMP] as in the E-step: log(sum_j (1 - w_j) E_jk) + m_k -
    log(K - 1), one product over the step's exponentiated mixture table
    (``EmStep.mixture``). A component of weight 1 keeps a responsibility
    of about WEIGHT_CLAMP. Only column k is checked, so another source's
    degenerate column does not raise here.
    """
    if isinstance(k, bool) or not isinstance(k, Integral):
        raise InvalidConfigurationError(f"k must be an integer, got {k!r}", key="k")
    if not 1 <= k <= stats.n_sources:
        raise InvalidConfigurationError(f"source index {k} out of range", key="k")
    weights = _checked(weights_prev, "weights", stats.n_sources, lead=False, unit=True)
    step = EmStep(stats, EmConfig(null_spec=null_spec))
    value = step.null(weights)[k - 1 : k]
    if null_spec.kind == "empirical_bayes_mixture":
        _check_mixture(value, k)
    return float(value[0])


def tempering_schedule(
    t: int, stats: SufficientStats, mode: str, nu: float
) -> np.ndarray:
    """Per-source tempering multipliers beta_k at iteration t.

    beta_k = (1 - exp(-nu t)) / eps_k, with eps_k from ``EmStep.eps``
    in the given mode.
    """
    if not t >= 0:
        raise InvalidConfigurationError(f"t must be >= 0, got {t}", key="t")
    if mode not in TEMPERING_MODES:
        raise InvalidConfigurationError(
            f"unknown tempering_mode {mode!r}", key="tempering_mode"
        )
    variant = "exact_hessian_reuse" if mode == "trace_exact" else "small_tau_surrogate"
    return EmStep(stats, EmConfig(nu=nu, variant=variant)).beta(t)


def _check_mixture(values: np.ndarray, first: int = 1) -> None:
    """Raise ``DegenerateNullError`` at the first non-finite mixture null
    value (or peak) of the first bad row; its last axis holds the
    sources from ``first`` on."""
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argwhere(~finite)[0][-1]) + first
        raise DegenerateNullError(
            f"mixture null for source {k} is degenerate: no other component "
            "has a finite likelihood; fall back to the parametric_pooled null"
        )


def _name_non_finite(values: np.ndarray, what: str) -> None:
    finite = np.isfinite(values)
    if not finite.all():
        # the first bad source of the first bad row
        k = int(np.argwhere(~finite)[0][-1]) + 1
        raise NonFiniteLikelihoodError(
            f"{what} for source {k} is not finite", source_index=k
        )


def e_step(
    state: EmState,
    stats: SufficientStats,
    pi: np.ndarray,
    config: EmConfig,
) -> np.ndarray:
    """Tempered relevance weights for the current iterate.

    w_k = sigmoid(beta_k [rel_k - null_k] + logit(pi_k)), where rel_k
    is the relevant marginal of dataset k at the current theta and
    null_k the irrelevance score. With beta identically zero (t = 0)
    the prior is returned exactly and no statistic is read. theta,
    the weights, beta and pi may carry leading axes (several priors on
    one collection, say), over which the step broadcasts. Each must
    have one entry per dimension (theta) or source along its last axis.
    """
    theta = _checked(state.theta, "theta", stats.dim)
    prev = _checked(state.weights, "weights", stats.n_sources)
    beta = _checked(state.beta, "beta", stats.n_sources)
    step = EmStep(stats, config, np.asarray(pi, dtype=float))
    with np.errstate(invalid="ignore"):  # as in run_em_rows
        return step.e_step(beta, theta, prev)


def _solve_with_jitter(lhs: np.ndarray, rhs: np.ndarray, dims) -> np.ndarray:
    """Solve lhs x = rhs, batched over leading axes; diagonal jitter
    escalates only for a system whose plain solve fails. ``dims`` gives
    each system's own d, over the leading axes: a system padded beyond d
    jitters its leading d x d block at that block's scale, and its pad
    entries, which the identity block there solves to 0, stay 0."""
    try:
        return np.linalg.solve(lhs, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if lhs.ndim > 2:
            dims = np.broadcast_to(dims, lhs.shape[:-2])
            return np.stack([_solve_with_jitter(*system) for system in zip(lhs, rhs, dims)])
    d = int(dims)
    block, out = lhs[:d, :d], np.zeros_like(rhs)
    scale = 1.0 + abs(np.trace(block)) / d
    for jitter in (1e-12, 1e-10, 1e-8, 1e-6):
        try:
            out[:d] = np.linalg.solve(block + jitter * scale * np.eye(d), rhs[:d])
            return out
        except np.linalg.LinAlgError:
            continue
    raise SingularFitError("blend system is singular even after jitter")


def m_step_exact(
    stats: SufficientStats, weights: np.ndarray, tau: float
) -> np.ndarray:
    """Precision-weighted blend of the target and source MLEs.

    Solves (H0 + sum_k w_k C_k) theta = H0 theta0 + sum_k w_k C_k theta_k
    with C_k = (I + tau^2 H_k)^{-1} H_k, which is the normal-equation
    form of the blend theta = (I + sum Lambda_k)^{-1}(theta0 +
    sum Lambda_k theta_k), Lambda_k = w_k H0^{-1} C_k, multiplied
    through by H0. The blocks and pulls come from ``EmStep.blend``; the
    step forms one weighted sum of their table and makes one d x d solve
    per leading index of the weights, no explicit inverses. The weights
    lie in [0, 1], one per source along their last axis.
    """
    weights = _checked(weights, "weights", stats.n_sources, unit=True)
    return EmStep(stats, EmConfig(tau=tau)).m_step(weights)


def run_em(
    datasets: Sequence[Dataset],
    model: LikelihoodFamily,
    pi: Sequence[float],
    config: EmConfig,
) -> tuple[EmState, EmRunReport]:
    """Full tempered EM loop over a target and its candidate sources.

    ``datasets[0]`` is the target, the rest are sources aligned with
    ``pi``, which is checked before any dataset is read. This is the
    one-row call of :func:`run_em_rows`, which describes the loop.
    """
    [result] = run_em_rows([datasets], model, [(0, pi)], config)
    return result


def _prepare(
    datasets: list, model: LikelihoodFamily, config: EmConfig
) -> tuple[SufficientStats, list[int], tuple[int, ...], EmConfig]:
    """Drop a collection's empty sources and build its statistics.

    Returns the statistics, the kept and dropped source indices, and
    the config its report echoes, whose fixed-null table, if any,
    follows the kept sources.
    """
    kept = [k for k in range(1, len(datasets)) if len(datasets[k]) > 0]
    dropped = tuple(k for k in range(1, len(datasets)) if len(datasets[k]) == 0)
    if dropped:
        warnings.warn(
            f"dropping empty source datasets {list(dropped)}",
            RuntimeWarning,
            stacklevel=3,
        )
    if not kept:
        raise InsufficientDataError("every source dataset is empty")

    if config.null_spec.kind == "fixed":
        missing = [
            k for k in range(1, len(datasets)) if k not in config.null_spec.table
        ]
        if missing:
            raise InvalidConfigurationError(
                f"fixed null table missing sources {missing}",
                key="null_spec.table",
            )
        if dropped:
            # dropping compacts source indices, so realign the table
            remapped = {
                new: config.null_spec.table[orig]
                for new, orig in enumerate(kept, start=1)
            }
            config = replace(config, null_spec=NullSpec("fixed", remapped))

    if config.null_spec.kind == "empirical_bayes_mixture" and len(kept) < 2:
        raise InvalidConfigurationError(
            "the mixture null needs at least two sources; "
            "use parametric_pooled or fixed",
            key="null_spec.kind",
        )
    stats = build_sufficient_stats(model, [datasets[0]] + [datasets[k] for k in kept])
    return stats, kept, dropped, config


class _History:
    """Per-row weight, theta, beta and delta_w trajectories, one slot
    per iteration counter value; capacity doubles as iterations run.
    theta is recorded at the stack's width D; a row of dimension d
    reads back its first d columns."""

    def __init__(self, n_sources: int, dims: np.ndarray, width: int):
        self.dims = dims
        self.slots = [np.empty((len(dims), 8, w)) for w in (n_sources, width, n_sources)]
        self.slots.append(np.empty((len(dims), 8)))

    def record(self, rows, t: int, *values) -> None:
        """The weights, theta, beta and delta_w of ``rows`` at iteration t."""
        if t == self.slots[0].shape[1]:
            self.slots = [
                np.concatenate([slot, np.empty_like(slot)], axis=1)
                for slot in self.slots
            ]
        for slot, value in zip(self.slots, values, strict=True):
            slot[rows, t] = value

    def row(self, r: int, iterations: int) -> list[np.ndarray]:
        weights, theta, beta, delta = (slot[r, : iterations + 1] for slot in self.slots)
        return [a.copy() for a in (weights, theta[:, : self.dims[r]], beta, delta)]


def run_em_rows(
    collections: Sequence[Sequence[Dataset]],
    model: LikelihoodFamily | Sequence[LikelihoodFamily],
    rows: Sequence[tuple[int, Sequence[float]]],
    config: EmConfig,
) -> list[tuple[EmState, EmRunReport]]:
    """Tempered EM over R problems with one source count, advanced together.

    Each collection is a target followed by its candidate sources, as
    in :func:`run_em`, and is read by ``model``, or by its own entry of
    a sequence with one model per collection; collections may differ in
    dimension. Row r = (c, pi) runs EM on ``collections[c]`` from the
    prior ``pi``, so rows may share a collection; its statistics, and
    the run's constants on them, are built once, in one ``EmStep`` per
    collection that ``EmStep.stack`` puts on the row axis, and puts
    again on a shorter one whenever rows freeze. Every row's
    prior is checked before any dataset is read. Empty sources are
    dropped per collection; the rows must then share one source count
    K, or ``InvalidConfigurationError`` is raised.

    Each iteration refreshes the tempering multipliers, re-scores the
    weights and blends a new theta for every active row, each step
    once over all rows at the padded width D. A row has converged when
    its weight vector moves less than ``config.tol`` in the max norm for
    ``config.patience`` consecutive iterations; it then freezes and
    leaves the stack. Hitting max_iters is reported, not raised. An
    error in any row is raised as its solo run raises it. Returns one
    (state, report) pair per row, in row order, each equal to that
    row's solo :func:`run_em`, bit for bit at the widths the module
    docstring names and to rounding beyond them.
    """
    collections = [list(datasets) for datasets in collections]
    models = [model] * len(collections) if isinstance(model, LikelihoodFamily) else list(model)
    if len(models) != len(collections):
        raise InvalidConfigurationError(
            f"need one model per collection, got {len(models)} models for "
            f"{len(collections)} collections",
            key="model",
        )
    rows = [(c, np.asarray(pi, dtype=float)) for c, pi in rows]
    if not rows:
        raise InvalidConfigurationError("need at least one row", key="rows")
    for c, pi in rows:
        if not (isinstance(c, Integral) and 0 <= c < len(collections)):
            raise InvalidConfigurationError(
                f"row collection {c!r} is not one of the "
                f"{len(collections)} collections",
                key="rows",
            )
        _check_collection(collections[c])
        _check_prior(pi, (len(collections[c]) - 1,))
    prepared = [_prepare(*args, config) for args in zip(collections, models)]
    steps = [EmStep(stats, kept_config) for stats, _, _, kept_config in prepared]
    index = np.array([c for c, _ in rows])
    # the stack checks the source counts before the priors become one array
    step = EmStep.stack(steps, index, [pi[[k - 1 for k in prepared[c][1]]] for c, pi in rows])
    pis, prior_logit = step.pi, step.prior_logit
    n_rows, n_sources = pis.shape
    # theta starts at zero, as wide as one source's padded theta_k
    theta = np.zeros_like(step.marginal[0][:, 0])
    beta = step.beta(0)
    weights = step.e_step(beta, theta, pis)
    history = _History(n_sources, step.dims, theta.shape[-1])
    # the live rows' history slots: all rows until the first one freezes
    active, live = np.arange(n_rows), slice(None)
    history.record(live, 0, weights, theta, beta, np.full(n_rows, np.inf))
    streak = np.zeros(n_rows, dtype=int)
    converged = np.zeros(n_rows, dtype=bool)
    iterations = np.full(n_rows, config.max_iters)
    # an unchecked degenerate null reads nan; the E-step's finite check raises
    with np.errstate(invalid="ignore"):
        for t in range(1, config.max_iters + 1):
            beta = step.beta(t)
            new_weights = step.e_step(beta, theta, weights)
            delta = np.abs(new_weights - weights).max(axis=-1)
            weights = new_weights
            theta = step.m_step(weights)
            history.record(live, t, weights, theta, beta, delta)
            streak = (streak + 1) * (delta <= config.tol)
            if streak.max() >= config.patience:
                done = streak >= config.patience
                converged[active[done]] = True
                iterations[active[done]] = t
                keep = ~done
                if not keep.any():
                    break
                # converged rows freeze: the others go on a new stack of
                # the held steps, of the same width D
                active, streak = active[keep], streak[keep]
                weights, theta = weights[keep], theta[keep]
                step = EmStep.stack(steps, index[active], pis[active])
                step.prior_logit = prior_logit[active]
                live = active

    results = []
    for r, (c, _) in enumerate(rows):
        weights, theta, beta, delta = history.row(r, iterations[r])
        final = EmState(
            theta=theta[-1].copy(),
            weights=weights[-1].copy(),
            t=int(iterations[r]),
            beta=beta[-1].copy(),
        )
        results.append((
            final,
            EmRunReport(
                converged=bool(converged[r]),
                iterations=int(iterations[r]),
                config=prepared[c][3],
                weight_history=weights,
                theta_history=theta,
                beta_history=beta,
                delta_w_history=delta,
                dropped_sources=prepared[c][2],
            ),
        ))
    return results


def _config_echo(config: EmConfig) -> str:
    null = config.null_spec
    null_text = null.kind
    if null.kind == "fixed":
        null_text += f"[{len(null.table)} entries]"
    parts = [
        f"variant={config.variant}",
        f"tau={config.tau:.12g}",
        f"nu={config.nu:.12g}",
        f"null={null_text}",
        f"tempering_mode={config.tempering_mode}",
        f"max_iters={config.max_iters}",
        f"tol={config.tol:.12g}",
        f"patience={config.patience}",
    ]
    return " ".join(parts)


def write_em_report(report: EmRunReport, path) -> None:
    """Write the run artifact: config echo plus one iteration per row.

    The file is replaced in one step (see ``write_text_atomic``)."""
    n_iters, n_sources = report.weight_history.shape
    dim = report.theta_history.shape[1]
    lines = [
        "# em run report",
        f"# {_config_echo(report.config)}",
        f"# converged={str(report.converged).lower()} iterations={report.iterations}",
    ]
    if report.dropped_sources:
        lines.append(f"# dropped_sources={list(report.dropped_sources)}")
    header = (
        ["t"]
        + [f"beta_{k}" for k in range(1, n_sources + 1)]
        + [f"w_{k}" for k in range(1, n_sources + 1)]
        + [f"theta_{i}" for i in range(1, dim + 1)]
        + ["delta_w"]
    )
    lines.append("# columns: " + " ".join(header))
    for t in range(n_iters):
        row = [str(t)]
        row += [f"{v:.12g}" for v in report.beta_history[t]]
        row += [f"{v:.12g}" for v in report.weight_history[t]]
        row += [f"{v:.12g}" for v in report.theta_history[t]]
        row.append(f"{report.delta_w_history[t]:.12g}")
        lines.append(" ".join(row))
    write_text_atomic(path, "\n".join(lines) + "\n")
