"""Joint posterior sampling across the hyperparameter grid.

Draws mix the per-configuration corrected full conditionals with the grid
weights: each row first picks a configuration by inverse-cdf lookup on the
weights, then takes one corrected draw from that configuration.  Every
configuration owns a salted substream, so the draws for a given fit, seed
and correction kind are reproducible bit for bit, and the Gaussian draws
underneath are shared between correction kinds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .engine import FitResult
from .errors import InsufficientSamples
from .rng import SALT_CATEGORICAL, SALT_MIXTURE_BASE, stream
from .sgc import CorrectionKind, as_kind, sample_full_conditional
from .skewnormal import QuantileTable


@dataclass
class JointSamples:
    """Posterior draws with their configuration assignments."""

    draws: np.ndarray
    config: np.ndarray
    names: tuple
    kind: CorrectionKind
    seed: int

    @property
    def count(self) -> int:
        return self.draws.shape[0]

    @property
    def dim(self) -> int:
        return self.draws.shape[1]


def _assign_configs(weights: np.ndarray, count: int, seed: int) -> np.ndarray:
    """Inverse-cdf categorical assignment of rows to grid configurations."""
    u = stream(seed, SALT_CATEGORICAL).random(count)
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    return np.minimum(np.searchsorted(cum, u, side="right"), weights.size - 1)


def sample_joint(
    fit: FitResult,
    count: int,
    seed: int,
    kind=CorrectionKind.SKEW,
    table: QuantileTable | None = None,
    use_table: bool = True,
) -> JointSamples:
    """Draw ``count`` joint posterior samples from a fitted model.

    The configuration assignment stream is independent of the correction
    kind, so runs differing only in ``kind`` share both the mixture pattern
    and the underlying Gaussian draws row for row.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    kind = as_kind(kind)
    config = _assign_configs(fit.weights, count, seed)
    out = np.empty((count, fit.mutilde.shape[1]))
    for k in range(fit.n_config):
        rows = config == k
        n_k = int(np.count_nonzero(rows))
        if n_k == 0:
            continue
        out[rows] = sample_full_conditional(
            fit.sgc(k),
            n_k,
            seed,
            kind,
            table=table,
            use_table=use_table,
            salt=SALT_MIXTURE_BASE + k,
        )
    return JointSamples(
        draws=out, config=config, names=tuple(fit.names), kind=kind, seed=seed
    )


@dataclass
class PosteriorSummary:
    """Componentwise posterior summary statistics."""

    names: tuple
    mean: np.ndarray
    sd: np.ndarray
    q025: np.ndarray
    q50: np.ndarray
    q975: np.ndarray
    mode: np.ndarray
    skewness: np.ndarray

    def row(self, i: int) -> dict:
        return {
            "Index": self.names[i],
            "Mean": self.mean[i],
            "Sd": self.sd[i],
            "0.025quant": self.q025[i],
            "0.5quant": self.q50[i],
            "0.975quant": self.q975[i],
            "Mode": self.mode[i],
        }


# A point's sum leaves out the draws more than _KDE_REACH bandwidths farther
# from it than its nearest draw.  With r the nearest distance, a draw at
# r + 9 or beyond has a kernel term below exp(-0.5 * (r**2 + 9**2)), that is
# below exp(-40.5) (about 2.6e-18) of the nearest draw's term, so the density
# changes only at round-off and stays positive wherever the full sum is.
_KDE_REACH = 9.0


def kernel_density(x, points) -> np.ndarray:
    """Gaussian kernel density of the sample ``x`` evaluated at ``points``.

    The bandwidth is Silverman's, h = (3n/4)^(-1/5) * sd(x), as
    ``scipy.stats.gaussian_kde(x, bw_method="silverman")`` uses.  The sample
    is sorted once and each point sums only the draws within _KDE_REACH * h
    of the distance to its nearest draw, found by binary search.  Returns a
    1-D array, also for a scalar point, as scipy does.
    """
    x = np.sort(np.asarray(x, dtype=float))
    h = (0.75 * x.size) ** -0.2 * np.std(x, ddof=1)
    if not h > 0:
        raise InsufficientSamples("a kernel density needs at least two distinct draws")
    xs = x / h
    g = np.atleast_1d(np.asarray(points, dtype=float)).ravel() / h
    k = np.searchsorted(xs, g)
    near = np.minimum(
        np.abs(g - xs[np.maximum(k - 1, 0)]), np.abs(xs[np.minimum(k, xs.size - 1)] - g)
    )
    lo = np.searchsorted(xs, g - near - _KDE_REACH, side="left")
    hi = np.searchsorted(xs, g + near + _KDE_REACH, side="right")
    dens = np.empty(g.shape)
    for j, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
        d = xs[a:b] - g[j]
        dens[j] = np.exp(-0.5 * d * d).sum()
    return dens / (x.size * h * np.sqrt(2.0 * np.pi))


def _kde_mode(x: np.ndarray, points: int = 512) -> float:
    """Argmax of a Silverman-bandwidth kernel density on a fine grid."""
    lo, hi = float(np.min(x)), float(np.max(x))
    if hi == lo:
        return lo
    pad = 0.05 * (hi - lo)
    grid = np.linspace(lo - pad, hi + pad, points)
    return float(grid[np.argmax(kernel_density(x, grid))])


def summarize(samples: JointSamples, min_count: int = 100) -> PosteriorSummary:
    """Means, sds, central quantiles, kernel modes and skewness per component."""
    if samples.count < min_count:
        raise InsufficientSamples(
            f"{samples.count} draws, at least {min_count} needed for summaries"
        )
    draws = samples.draws
    q = np.quantile(draws, [0.025, 0.5, 0.975], axis=0)
    return PosteriorSummary(
        names=samples.names,
        mean=draws.mean(axis=0),
        sd=draws.std(axis=0, ddof=1),
        q025=q[0],
        q50=q[1],
        q975=q[2],
        mode=np.array([_kde_mode(draws[:, i]) for i in range(samples.dim)]),
        skewness=stats.skew(draws, axis=0),
    )


def marginal_density_estimate(
    samples: JointSamples, component: int, xs, min_count: int = 1000
) -> np.ndarray:
    """Kernel density estimate of one component's marginal on a grid."""
    if samples.count < min_count:
        raise InsufficientSamples(
            f"{samples.count} draws, at least {min_count} needed for density estimates"
        )
    return kernel_density(samples.draws[:, component], xs)
