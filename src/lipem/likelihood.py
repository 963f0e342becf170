"""Likelihood backbones used by every other module.

Two concrete families are provided:

* :class:`GaussianMeanModel` -- d-dimensional Gaussian observations with a
  known covariance and unknown mean.  The workhorse model for synthetic
  benchmarks.
* :class:`SplineGlmModel` -- Gaussian regression of a scalar response on a
  natural cubic spline basis of a scalar input, with a known noise variance.
  Used for the turbofan sensor experiments, where each engine's
  (cycle, sensor) trajectory is one dataset.

Both expose the same small surface: ``loglik``, ``gradient``, ``hessian``
(the negative second derivative of the log-likelihood, so it is positive
semidefinite for these families), ``mle``, ``pooled_mle`` and
``summarize``.  Both log-likelihoods are exact quadratics in the
parameter, so the expansion ``summarize`` returns at the MLE reproduces
them everywhere; the estimator in :mod:`lipem.em` reads each dataset
once, through it.  A spline dataset is fit once per knots and ridge, at
any noise variance, and the fit is kept on the dataset for every reader;
a pooled spline fit solves the summed normal equations.  Models hold
only fixed structural constants (dimension, covariance, knots, noise
variance, ridge).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InsufficientDataError, InvalidConfigurationError, SingularFitError

__all__ = [
    "Dataset",
    "LikelihoodFamily",
    "GaussianMeanModel",
    "SplineGlmModel",
    "spline_design",
    "clamp_psd",
    "pooled_noise_variance",
]


@dataclass(frozen=True, eq=False)
class Dataset:
    """An ordered collection of equally shaped observations.

    ``points`` is an (N, width) float array; one row per observation.  For
    Gaussian mean data the width is the parameter dimension; for spline
    regression it is 2, holding (input, response) pairs.  A 1-d array is
    promoted to a single column.  ``points`` is a read-only copy of the
    array given, so the fits a model keeps in ``fits`` cannot go stale.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise InvalidConfigurationError(
                f"dataset points must be 1-d or 2-d, got ndim={pts.ndim}"
            )
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "fits", {})

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def width(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.size

    @staticmethod
    def concat(datasets: Iterable["Dataset"]) -> "Dataset":
        """Concatenate several datasets in order; widths must agree."""
        parts = [d.points for d in datasets]
        if not parts:
            raise InsufficientDataError("cannot concatenate zero datasets")
        return Dataset(np.concatenate(parts, axis=0))


class LikelihoodFamily(ABC):
    """Interface every likelihood backbone implements.

    Contract: ``loglik`` is exactly quadratic in ``theta``, so
    ``gradient`` is affine and ``hessian`` (the negative Hessian of the
    log-likelihood, positive semidefinite) does not depend on ``theta``.
    The EM reads each dataset once, through ``summarize``, and expands
    around its MLE.  ``theta`` is always a length-``dim`` vector.
    """

    @property
    @abstractmethod
    def dim(self) -> int:
        """Parameter dimension d."""

    @abstractmethod
    def loglik(self, theta: np.ndarray, data: Dataset) -> float:
        """Total log-likelihood of ``data`` at ``theta``."""

    @abstractmethod
    def gradient(self, theta: np.ndarray, data: Dataset) -> np.ndarray:
        """Gradient of ``loglik`` with respect to ``theta``."""

    @abstractmethod
    def hessian(self, theta: np.ndarray, data: Dataset) -> np.ndarray:
        """Negative second derivative of ``loglik`` (PSD for these models)."""

    @abstractmethod
    def mle(self, data: Dataset) -> np.ndarray:
        """Maximum likelihood (or ridge penalized) parameter estimate."""

    def pooled_mle(self, datasets: Sequence[Dataset]) -> np.ndarray:
        """MLE on the union of ``datasets``."""
        return self.mle(Dataset.concat(datasets))

    def summarize(self, data: Dataset):
        """(theta_hat, loglik, gradient, clamped Hessian) of ``data`` at
        its MLE: all the EM reads from a dataset."""
        theta = np.asarray(self.mle(data), dtype=float)
        return (
            theta,
            float(self.loglik(theta, data)),
            np.asarray(self.gradient(theta, data), dtype=float),
            clamp_psd(self.hessian(theta, data)),
        )

    def _check_theta(self, theta: np.ndarray) -> np.ndarray:
        th = np.asarray(theta, dtype=float).reshape(-1)
        if th.shape[0] != self.dim:
            raise InvalidConfigurationError(
                f"theta has length {th.shape[0]}, model dimension is {self.dim}"
            )
        return th


def clamp_psd(matrix: np.ndarray) -> np.ndarray:
    """Return the nearest-in-spirit PSD repair of a symmetricish matrix.

    Symmetrizes, then clamps negative eigenvalues at zero.  Analytic
    Hessians of the shipped families are already PSD; this guards the
    floating point boundary before factorizations.
    """
    sym = 0.5 * (matrix + matrix.T)
    vals, vecs = np.linalg.eigh(sym)
    if vals.size and vals[0] >= 0.0:
        return sym
    vals = np.clip(vals, 0.0, None)
    return (vecs * vals) @ vecs.T


class GaussianMeanModel(LikelihoodFamily):
    """Gaussian observations with unknown mean and known covariance.

    Parameters
    ----------
    dim : int
        Observation / parameter dimension d.
    covariance : float or (d, d) array
        Known covariance. A scalar c means the isotropic matrix c * I
        (c is a variance, in squared data units).
    """

    def __init__(self, dim: int, covariance=1.0):
        if dim < 1:
            raise InvalidConfigurationError("dim must be >= 1")
        self._dim = int(dim)
        try:
            cov = np.asarray(covariance, dtype=float)
        except ValueError as exc:  # a ragged list of rows
            raise InvalidConfigurationError(
                "covariance must be a number or a square matrix", key="covariance"
            ) from exc
        if cov.ndim == 0:
            cov = float(cov) * np.eye(self._dim)
        if cov.shape != (self._dim, self._dim):
            raise InvalidConfigurationError(
                f"covariance shape {cov.shape} does not match dim {dim}",
                key="covariance",
            )
        cov = 0.5 * (cov + cov.T)
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise InvalidConfigurationError(
                "covariance must be positive definite", key="covariance"
            ) from exc
        self.covariance = cov
        self._precision = np.linalg.inv(cov)
        # log det(2 pi Sigma) via the Cholesky factor
        self._logdet_2pi_cov = self._dim * np.log(2.0 * np.pi) + 2.0 * np.sum(
            np.log(np.diag(chol))
        )

    @property
    def dim(self) -> int:
        return self._dim

    def loglik(self, theta, data: Dataset) -> float:
        th = self._check_theta(theta)
        dev = data.points - th
        quad = np.einsum("ni,ij,nj->", dev, self._precision, dev)
        return float(-0.5 * quad - 0.5 * data.size * self._logdet_2pi_cov)

    def gradient(self, theta, data: Dataset) -> np.ndarray:
        th = self._check_theta(theta)
        dev_sum = data.points.sum(axis=0) - data.size * th
        return self._precision @ dev_sum

    def hessian(self, theta, data: Dataset) -> np.ndarray:
        self._check_theta(theta)
        return data.size * self._precision

    def mle(self, data: Dataset) -> np.ndarray:
        if data.size == 0:
            raise InsufficientDataError("cannot estimate a mean from zero observations")
        return data.points.mean(axis=0)


def _checked_knots(knots) -> np.ndarray:
    """At least 3 finite, strictly increasing knots, as a float vector."""
    xi = np.asarray(knots, dtype=float).reshape(-1)
    if xi.size < 3 or not (np.all(np.isfinite(xi)) and np.all(np.diff(xi) > 0)):
        raise InvalidConfigurationError(
            f"need at least 3 finite, strictly increasing knots, got {xi.tolist()}",
            key="knots",
        )
    return xi


def spline_design(inputs, knots) -> np.ndarray:
    """Natural cubic spline design matrix on a fixed knot grid.

    With M knots xi_1 < ... < xi_M the basis has dimension M: a constant
    column, a linear column, and M-2 truncated power combinations

        N_j(x) = d_j(x) - d_{M-1}(x),
        d_j(x) = [(x - xi_j)_+^3 - (x - xi_M)_+^3] / (xi_M - xi_j),

    which are linear beyond the boundary knots (zero second derivative
    outside [xi_1, xi_M]) and exactly zero below the first knot.

    Parameters
    ----------
    inputs : array_like, shape (n,)
    knots : array_like, shape (M,), finite, strictly increasing, M >= 3

    Returns
    -------
    (n, M) design matrix.
    """
    x = np.asarray(inputs, dtype=float).reshape(-1)
    xi = _checked_knots(knots)
    diff = x[:, None] - xi  # (n, M): x - xi_j for every knot j
    cubes = np.where(diff > 0.0, diff, 0.0) ** 3
    d = (cubes[:, :-1] - cubes[:, -1:]) / (xi[-1] - xi[:-1])
    return np.hstack([np.ones((x.size, 1)), x[:, None], d[:, :-1] - d[:, -1:]])


_SINGULAR = "normal equations are rank deficient; add observations or a ridge"


class SplineGlmModel(LikelihoodFamily):
    """Gaussian regression on a natural cubic spline basis.

    Observations are (input, response) rows.  The mean response is
    ``spline_design(input, knots) @ theta`` and the noise variance is a
    known constant shared by all observations.  ``ridge`` penalizes every
    coefficient except the intercept during ``mle`` and ``pooled_mle``
    and plays no role in ``loglik`` / ``gradient`` / ``hessian``.
    """

    def __init__(self, knots, noise_variance: float = 1.0, ridge: float = 0.0):
        self.knots = _checked_knots(knots)
        # written so that NaN fails too
        if not noise_variance > 0:
            raise InvalidConfigurationError(
                f"noise_variance must be positive, got {noise_variance}",
                key="noise_variance",
            )
        if not ridge >= 0:
            raise InvalidConfigurationError(
                f"ridge must be nonnegative, got {ridge}", key="ridge"
            )
        self.noise_variance = float(noise_variance)
        self.ridge = float(ridge)

    @property
    def dim(self) -> int:
        return self.knots.size

    def _design(self, data: Dataset):
        if data.width != 2:
            raise InvalidConfigurationError(
                f"spline data must have (input, response) rows, got width {data.width}"
            )
        return spline_design(data.points[:, 0], self.knots), data.points[:, 1]

    def _loglik(self, rss: float, n: int) -> float:
        return float(
            -0.5 * rss / self.noise_variance
            - 0.5 * n * np.log(2.0 * np.pi * self.noise_variance)
        )

    def loglik(self, theta, data: Dataset) -> float:
        th = self._check_theta(theta)
        design, y = self._design(data)
        resid = y - design @ th
        return self._loglik(resid @ resid, resid.size)

    def gradient(self, theta, data: Dataset) -> np.ndarray:
        th = self._check_theta(theta)
        design, y = self._design(data)
        return design.T @ (y - design @ th) / self.noise_variance

    def hessian(self, theta, data: Dataset) -> np.ndarray:
        self._check_theta(theta)
        design, _ = self._design(data)
        return design.T @ design / self.noise_variance

    def _solve(self, gram: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
        """Ridge penalized least squares from X'X and X'y; None if singular."""
        normal = gram
        if self.ridge > 0.0:
            penalty = np.eye(self.dim)
            penalty[0, 0] = 0.0  # intercept is never shrunk
            normal = gram + self.ridge * penalty
        try:
            chol = np.linalg.cholesky(normal)
        except np.linalg.LinAlgError:
            return None
        return np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))

    def _fit(self, data: Dataset, solved: bool = True):
        """(theta, X'X, X'y, X'r, rss), r the residual: the noise-free fit of
        ``data``, built once per knots and ridge and kept in ``data.fits``.
        Where ``data`` alone is singular theta, X'r and rss are None, which
        only a pooled fit (``solved=False``) accepts."""
        key = (self.knots.tobytes(), self.ridge)
        if key not in data.fits:
            if data.size == 0:
                raise InsufficientDataError("cannot fit a spline to zero observations")
            design, y = self._design(data)
            gram, rhs = design.T @ design, design.T @ y
            fit = data.fits[key] = [self._solve(gram, rhs), gram, rhs, None, None]
            if fit[0] is not None:
                fit[0].setflags(write=False)
                resid = y - design @ fit[0]
                fit[3:] = design.T @ resid, float(resid @ resid)
        if solved and data.fits[key][0] is None:
            raise SingularFitError(_SINGULAR)
        return data.fits[key]

    def mle(self, data: Dataset) -> np.ndarray:
        return self._fit(data)[0]

    def pooled_mle(self, datasets: Sequence[Dataset]) -> np.ndarray:
        """Solves the nonempty datasets' summed normal equations, ridge added once."""
        fits = [self._fit(data, solved=False) for data in datasets if data.size]
        if not fits:
            raise InsufficientDataError("cannot fit a spline to zero observations")
        theta = self._solve(sum(f[1] for f in fits), sum(f[2] for f in fits))
        if theta is None:
            raise SingularFitError(_SINGULAR)
        return theta

    def summarize(self, data: Dataset):
        theta, gram, _, moment, rss = self._fit(data)
        var = self.noise_variance
        return theta, self._loglik(rss, data.size), moment / var, clamp_psd(gram / var)

    def predict(self, theta, inputs) -> np.ndarray:
        th = self._check_theta(theta)
        return spline_design(inputs, self.knots) @ th


# the least noise variance ``pooled_noise_variance`` returns
_NOISE_FLOOR = 1e-8


def pooled_noise_variance(knots, datasets: Sequence[Dataset], ridge: float = 1e-8) -> float:
    """Size-weighted residual variance pooled over per-dataset spline fits.

    Each dataset is fit on its own (ridge-jittered least squares); the
    residual sums of squares are pooled across datasets and divided by the
    total observation count, then floored at 1e-8.  Used to fix the
    shared noise variance of :class:`SplineGlmModel` before any
    cross-dataset comparison, so that likelihoods from different sources
    live on one scale.  Each fit is the one kept on its dataset.
    """
    probe = SplineGlmModel(knots, noise_variance=1.0, ridge=ridge)
    sized = [data for data in datasets if data.size]
    if not sized:
        raise InsufficientDataError("no observations available to estimate noise variance")
    total_ss = sum(probe._fit(data)[4] for data in sized)
    return max(total_ss / sum(map(len, sized)), _NOISE_FLOOR)
