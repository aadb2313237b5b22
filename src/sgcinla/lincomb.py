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

    def __post_init__(self):
        # float64 arrays are kept, not copied
        self.names = tuple(self.names)
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)
        self.skewness = np.asarray(self.skewness, dtype=float)
        self.clamped = int(self.clamped)
        p = len(self.names)
        if self.mean.shape != (p,) or self.skewness.shape != (p,) or self.cov.shape != (p, p):
            raise InvalidSpec(
                f"{p} names need a mean and skewness of shape ({p},) and a ({p}, {p}) "
                f"covariance, not {self.mean.shape}, {self.skewness.shape} and {self.cov.shape}"
            )

    @property
    def dim(self) -> int:
        return self.mean.size

    def sd(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov))


def _mix_moments(weights, means, covs, thirds):
    """Moments of a mixture from per-configuration moments.

    ``means`` is (K, p) and ``thirds`` (K, p) holding central third moments
    per coordinate.  ``covs`` is an iterable of the K (p, p) covariances:
    they arrive one configuration at a time, in grid order, and are folded
    into one running within-configuration sum, so working memory is O(p^2)
    whatever K is; no (K, p, p) stack is built.  Returns mixture mean,
    covariance (law of total covariance) and central third moments per
    coordinate.  Each sum starts from zero and adds the configurations in
    grid order, as ``np.einsum`` over the stacked arrays does, so every
    result equals the stacked formula bit for bit.
    """
    w = np.asarray(weights, dtype=float)
    means = np.asarray(means, dtype=float)
    mean = w @ means
    dev = means - mean
    cov = np.zeros((mean.size, mean.size))
    var_k = np.empty_like(dev)
    # enumerate alone, not over zip(w, covs): zip's cached result tuple would
    # hold one more (p, p) array while the next configuration is formed
    for k, cov_k in enumerate(covs):
        var_k[k] = cov_k.diagonal()
        cov += w[k] * cov_k
    cov += np.einsum("k,ki,kj->ij", w, dev, dev)
    third = w @ (thirds + 3.0 * dev * var_k + dev**3)
    return mean, cov, third


def _check_finite(means, spreads, skewness) -> None:
    """Refuse non-finite inputs before any arithmetic on them: a non-finite
    mean or spread raises InvalidSpec and a non-finite skewness
    SkewnessOutOfRange, as the sampler does for the same fit."""
    if not (np.isfinite(means).all() and np.isfinite(spreads).all()):
        raise InvalidSpec("means and variances must be finite")
    if not np.isfinite(skewness).all():
        raise SkewnessOutOfRange("skewness must be finite")


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
    var = cov.diagonal()
    if not (np.isfinite(mean).all() and np.isfinite(var).all()):
        raise InvalidSpec("combination means and variances must be finite")
    if not (var > 0).all():
        raise DimensionMismatch("a row of the combination matrix has zero variance")
    skew = third / var**1.5
    if not np.isfinite(skew).all():
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
    _check_finite(summary.mean, summary.cov, summary.skewness)
    third_in = summary.skewness * summary.sd() ** 3
    return _joint_summary(
        [1.0], [a @ summary.mean], [a @ summary.cov @ a.T], [a**3 @ third_in], names
    )


def linear_combination_summary(fit: FitResult, a, names=None) -> JointMomentSummary:
    """Deterministic posterior summary of H = A x under the corrected fit.

    The transform is applied inside each grid configuration (where the
    covariance and skewness are defined) and the results are mixed with the
    grid weights, so hyperparameter uncertainty enters through both the
    spread of the per-configuration means and their covariances.  Each
    configuration's A Sigma A' is formed from the covariance its Gaussian
    approximation caches and mixed before the next is formed, so working
    memory is O(M^2 + N M) for M rows, not K times that.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    n = fit.mutilde.shape[1]
    if a.shape[1] != n:
        raise DimensionMismatch(f"matrix has {a.shape[1]} columns, field has {n}")
    _check_finite(fit.mutilde, fit.sigma, fit.gamma)
    return _joint_summary(
        fit.weights,
        fit.mutilde @ a.T,
        (a @ (ga.covariance() @ a.T) for ga in fit.approximations),
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


# Density table of a margin: points on mean +- span sds, outside which at most 1e-5 of its mass lies
MARGINAL_POINTS = 401
MARGINAL_SPAN = 6.0


def marginals_1d(summary: JointMomentSummary):
    """Moment-matched skew-normal margins with density tables.

    Each margin is tabulated on mean +- MARGINAL_SPAN sd; the tables feed
    density comparisons and divergence estimates downstream.
    """
    sds = summary.sd()
    pars = sn_params_from_moments(summary.mean, sds**2, summary.skewness)
    lo, hi = summary.mean - MARGINAL_SPAN * sds, summary.mean + MARGINAL_SPAN * sds
    grids = np.ascontiguousarray(np.linspace(lo, hi, MARGINAL_POINTS).T)
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
