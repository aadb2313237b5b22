"""Deterministic joint summaries and linear combinations of the corrected
posterior.

Instead of pushing samples through a transformation, the corrected mixture
is summarized by moments: per configuration the latent subset has mean
mutilde, covariance from the Gaussian approximation and per-coordinate
skewness; a linear map A carries these to A mutilde, A Sigma A' and the
cubed-weights skewness combination.  Mixing over the hyperparameter grid
uses the law of total (co)variance and the matching non-central formula for
third moments.  Each output margin is then summarized as the moment-matched
skew-normal.

``subset_moments`` (selection rows of the identity), ``transform_moments``
(a stored summary as one configuration) and ``linear_combination_summary``
only form per-configuration moments; ``_joint_summary`` alone mixes them,
checks the variances, clamps the skewness and names the outputs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .engine import FitResult
from .errors import DimensionMismatch, InvalidSpec, SkewnessOutOfRange, SupportMismatch
from .skewnormal import GAMMA_CLAMP, SkewNormalParams, sn_params_from_moments, sn_pdf

logger = logging.getLogger(__name__)


@dataclass
class JointMomentSummary:
    """Mean vector, covariance and marginal skewness of a joint posterior."""

    names: tuple
    mean: np.ndarray
    cov: np.ndarray
    skewness: np.ndarray
    clamped: int = 0

    @property
    def dim(self) -> int:
        return self.mean.size

    def sd(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov))


def _mix_moments(weights, means, covs, thirds):
    """Moments of a mixture from per-configuration moments.

    ``means`` is (K, p), ``covs`` (K, p, p) and ``thirds`` (K, p) holding
    central third moments per coordinate.  Returns mixture mean, covariance
    (law of total covariance) and central third moments per coordinate.
    """
    w = np.asarray(weights, dtype=float)
    means = np.asarray(means, dtype=float)
    mean = w @ means
    dev = means - mean
    cov = np.einsum("k,kij->ij", w, covs) + np.einsum("k,ki,kj->ij", w, dev, dev)
    var_k = np.einsum("kii->ki", np.asarray(covs, dtype=float))
    third = w @ (thirds + 3.0 * dev * var_k + dev**3)
    return mean, cov, third


def _joint_summary(weights, means, covs, thirds, names) -> JointMomentSummary:
    """The one constructor of a summary from per-configuration moments.

    Mixes the moments over the configurations, names the p outputs
    (``lincomb_1``, ... when ``names`` is empty) and clamps each skewness to
    +-GAMMA_CLAMP.  A zero or negative variance raises DimensionMismatch; a
    non-finite mean or variance raises InvalidSpec and a non-finite skewness
    SkewnessOutOfRange, as the sampler does for the same fit.
    """
    p = np.shape(means)[1]
    out_names = tuple(names) if names else tuple(f"lincomb_{h + 1}" for h in range(p))
    if len(out_names) != p:
        raise DimensionMismatch("one name per combination row is required")
    mean, cov, third = _mix_moments(weights, means, covs, thirds)
    var = np.diag(cov)
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(var))):
        raise InvalidSpec("combination means and variances must be finite")
    if not np.all(var > 0):
        raise DimensionMismatch("a row of the combination matrix has zero variance")
    skew = third / var**1.5
    if not np.all(np.isfinite(skew)):
        raise SkewnessOutOfRange("combination skewness must be finite")
    clamped = np.clip(skew, -GAMMA_CLAMP, GAMMA_CLAMP)
    count = int(np.count_nonzero(clamped != skew))
    if count:
        logger.warning("%d marginal skewness values clamped to +-%.2f", count, GAMMA_CLAMP)
    return JointMomentSummary(names=out_names, mean=mean, cov=cov, skewness=clamped, clamped=count)


def subset_moments(fit: FitResult, indices) -> JointMomentSummary:
    """Joint moment summary of a subset of latent components."""
    idx = np.atleast_1d(np.asarray(indices, dtype=int))
    n = fit.mutilde.shape[1]
    if np.any(idx < 0) or np.any(idx >= n):
        raise DimensionMismatch(f"component indices must lie in [0, {n})")
    return linear_combination_summary(fit, np.eye(n)[idx], [fit.names[i] for i in idx])


def transform_moments(summary: JointMomentSummary, a, names=None) -> JointMomentSummary:
    """Moment summary of H = A x for a jointly summarized x.

    The mean and covariance transform exactly; marginal third moments
    combine through the cubed coefficients, third_h = sum_i A_hi^3 g_i s_i^3,
    which drops cross third moments and is exact for independent or
    single-coordinate combinations.  This is the one-configuration case of
    :func:`linear_combination_summary`.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[1] != summary.dim:
        raise DimensionMismatch(
            f"matrix has {a.shape[1]} columns, summary has {summary.dim} coordinates"
        )
    third_in = summary.skewness * summary.sd() ** 3
    return _joint_summary(
        [1.0], [a @ summary.mean], [a @ summary.cov @ a.T], [a**3 @ third_in], names
    )


def linear_combination_summary(fit: FitResult, a, names=None) -> JointMomentSummary:
    """Deterministic posterior summary of H = A x under the corrected fit.

    The transform is applied inside each grid configuration (where the
    covariance and skewness are defined) and the results are mixed with the
    grid weights, so hyperparameter uncertainty enters through both the
    spread of the per-configuration means and their covariances.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    n = fit.mutilde.shape[1]
    if a.shape[1] != n:
        raise DimensionMismatch(f"matrix has {a.shape[1]} columns, field has {n}")
    return _joint_summary(
        fit.weights,
        fit.mutilde @ a.T,
        a @ (fit.covariance_stack() @ a.T),
        (fit.gamma * fit.sigma**3) @ (a**3).T,
        names,
    )


@dataclass(frozen=True)
class MarginalCurve:
    """Matched skew-normal margin with a tabulated density."""

    name: str
    params: SkewNormalParams
    xs: np.ndarray = field(repr=False)
    density: np.ndarray = field(repr=False)


def marginals_1d(summary: JointMomentSummary, points: int = 401, span: float = 6.0):
    """Moment-matched skew-normal margins with density tables.

    Each margin is tabulated on mean +- span sd; the tables feed density
    comparisons and divergence estimates downstream.
    """
    sds = summary.sd()
    pars = sn_params_from_moments(summary.mean, sds**2, summary.skewness)
    grids = np.ascontiguousarray(
        np.linspace(summary.mean - span * sds, summary.mean + span * sds, points).T
    )
    columns = SkewNormalParams(pars.xi[:, None], pars.omega[:, None], pars.alpha[:, None])
    densities = sn_pdf(columns, grids)
    curves = []
    for i in range(summary.dim):
        params = SkewNormalParams(float(pars.xi[i]), float(pars.omega[i]), float(pars.alpha[i]))
        curves.append(
            MarginalCurve(name=summary.names[i], params=params, xs=grids[i], density=densities[i])
        )
    return curves


def kld_1d(xs, p, q) -> float:
    """Kullback-Leibler divergence KL(p || q) by trapezoid on a shared grid.

    Both densities are renormalized on the grid first.  Points where p puts
    mass but q none are a support violation and raise SupportMismatch.
    The estimate is floored at zero to absorb quadrature roundoff.
    """
    xs = np.asarray(xs, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if xs.shape != p.shape or xs.shape != q.shape:
        raise SupportMismatch("grid and density arrays must share one shape")
    if np.any(p < 0) or np.any(q < 0):
        raise SupportMismatch("densities must be nonnegative")
    p = p / np.trapezoid(p, xs)
    q = q / np.trapezoid(q, xs)
    mass = p > 0
    if np.any(q[mass] == 0.0):
        raise SupportMismatch("q vanishes where p has mass")
    integrand = np.zeros_like(p)
    integrand[mass] = p[mass] * np.log(p[mass] / q[mass])
    return max(float(np.trapezoid(integrand, xs)), 0.0)
