"""Joint posterior sampling across the hyperparameter grid.

Draws mix the per-configuration corrected full conditionals with the grid
weights: each row first picks a configuration by inverse-cdf lookup on the
weights, then takes one corrected draw from that configuration.  Every
configuration owns a salted substream, so the draws for a given fit, seed
and correction kind are reproducible bit for bit, and the Gaussian draws
underneath are shared between correction kinds.

The per-configuration draws are independent tasks, run by
:func:`parallel.map_tasks` on the cores the BLAS leaves idle (small calls
stay in the calling process).  They are bit-identical however many
processes ran them and whatever block size built them, at a fixed BLAS
thread count.  Summaries are computed in the calling process; their kernel
modes evaluate the exact density only at the few grid points that a binned
bound leaves in contention.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from . import parallel
from .engine import FitResult
from .errors import InsufficientSamples
from .rng import SALT_CATEGORICAL, SALT_MIXTURE_BASE, stream
from .sgc import CorrectionKind, as_kind, full_conditional_blocks, maps_in_blocks
from .skewnormal import default_table


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


def _shared_array(shape: tuple[int, int]) -> np.ndarray:
    """A zeroed float array in anonymous shared memory, so that what forked
    children write into it is what the caller reads.  ``mmap`` refuses a
    zero length, so an empty array is an ordinary one."""
    nbytes = shape[0] * shape[1] * np.dtype(float).itemsize
    if nbytes == 0:
        return np.empty(shape)
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=float).reshape(shape)


# Draws with fewer elements (rows times dimension) than this run in the
# calling process, because a fork pool costs about 20 ms to start.  Medians
# of 7 calls, one BLAS thread, in-process against 2 workers on 2 cores:
# N=61 fit, 3000 rows (1.8e5 elements) 21 against 39 ms, 1e4 rows (6.1e5)
# 56 against 55 ms, 2e4 rows (1.2e6) 106 against 91 ms; N=241 fit, 3000
# rows (7.2e5) 47 against 64 ms, 5000 rows (1.2e6) 85 against 77 ms.  Draws
# that are not corrected block by block (sgc.maps_in_blocks: the exact skew
# map, which costs per call) keep the pool at every size: 50 rows of the
# N=61 fit take 115 ms in-process and 102 ms on two workers, 1e4 rows 653
# against 452 ms.
_POOL_MIN_ELEMENTS = 1_000_000


def sample_joint(
    fit: FitResult,
    count: int,
    seed: int,
    kind=CorrectionKind.SKEW,
    use_table: bool = True,
) -> JointSamples:
    """Draw ``count`` joint posterior samples from a fitted model.

    The configuration assignment stream is independent of the correction
    kind, so runs differing only in ``kind`` share both the mixture pattern
    and the underlying Gaussian draws row for row.

    Each configuration that received rows is one task, heaviest first.  A
    task walks its draws block by block (:func:`sgc.full_conditional_blocks`)
    and writes each corrected block straight into its rows of the output
    array, which lives in shared memory, so no draws cross a pipe.  Calls
    with fewer than ``_POOL_MIN_ELEMENTS`` output elements run in this
    process, if their draws are corrected block by block
    (:func:`sgc.maps_in_blocks`).
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    kind = as_kind(kind)
    if kind is CorrectionKind.SKEW and use_table:
        default_table()  # built here, so pool children inherit the cached table
    config = _assign_configs(fit.weights, count, seed)
    sizes = np.bincount(config, minlength=fit.n_config)
    out = _shared_array((count, fit.mutilde.shape[1]))

    def draw(k: int) -> None:
        rows = np.flatnonzero(config == k)
        for start, block in full_conditional_blocks(
            fit.sgc(k),
            int(sizes[k]),
            seed,
            kind,
            use_table=use_table,
            salt=SALT_MIXTURE_BASE + k,
        ):
            out[rows[start : start + block.shape[0]]] = block

    tasks = sorted(np.flatnonzero(sizes).tolist(), key=lambda k: -sizes[k])
    if out.size < _POOL_MIN_ELEMENTS and maps_in_blocks(kind, use_table):
        for k in tasks:
            draw(k)
    else:
        parallel.map_tasks(draw, tasks)
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


def _bandwidth(x: np.ndarray) -> float:
    """Silverman's bandwidth (3n/4)^(-1/5) * sd(x) of a sorted sample."""
    return (0.75 * x.size) ** -0.2 * np.std(x, ddof=1)


def kernel_density(x, points) -> np.ndarray:
    """Gaussian kernel density of the sample ``x`` evaluated at ``points``.

    The bandwidth is Silverman's, h = (3n/4)^(-1/5) * sd(x), as
    ``scipy.stats.gaussian_kde(x, bw_method="silverman")`` uses.  The sample
    is sorted once and each point sums only the draws within _KDE_REACH * h
    of the distance to its nearest draw, found by binary search.  Returns a
    1-D array, also for a scalar point, as scipy does.
    """
    x = np.sort(np.asarray(x, dtype=float))
    h = _bandwidth(x)
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


# The mode search bins the draws on a lattice of _BIN_SPLIT points per grid
# step, truncates the binned kernel at _BIN_REACH bandwidths, and allows
# _BIN_SLACK per draw for every error its Taylor term does not cover.
_BIN_SPLIT = 4
_BIN_REACH = 10.0
_BIN_SLACK = 1e-9


def _mode_candidates(x: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Indices of the grid points that may hold the largest kernel density
    of the sorted sample ``x``; see :func:`_kde_mode` for the bound."""
    n = x.size
    h = _bandwidth(x)
    g = grid / h
    if not (np.isfinite(h) and h > 0 and np.all(np.isfinite(g))):
        return np.arange(grid.size)  # no bound; kernel_density judges the draws
    step = (g[-1] - g[0]) / ((grid.size - 1) * _BIN_SPLIT)
    size = (grid.size - 1) * _BIN_SPLIT + 1
    v = x / h - g[0]
    b = np.clip(np.rint(v / step), 0, size - 1)
    e = v - b * step
    b = b.astype(np.intp)
    reach = min(int(_BIN_REACH / step), size - 1)
    fft_size = 1 << (size + reach - 1).bit_length()
    lag = np.arange(fft_size)
    lag[fft_size // 2 :] -= fft_size
    t = lag * step
    kernel = np.where(np.abs(lag) <= reach, np.exp(-0.5 * t * t), 0.0)
    rfft = np.fft.rfft
    approx = np.fft.irfft(
        rfft(np.bincount(b, minlength=size), fft_size) * rfft(kernel)
        + rfft(np.bincount(b, weights=e, minlength=size), fft_size) * rfft(t * kernel),
        fft_size,
    )[:size:_BIN_SPLIT]
    off_lattice = np.arange(grid.size) * (_BIN_SPLIT * step) - (g - g[0])
    bound = 0.5 * (e @ e) + n * (np.max(np.abs(off_lattice)) + _BIN_SLACK)
    return np.flatnonzero(approx + bound >= np.max(approx - bound) - n * _BIN_SLACK)


# Grid points of a kernel mode search: the mode is placed to 1/511 of the draws' padded range.
KDE_MODE_POINTS = 512


def _kde_mode(x: np.ndarray) -> float:
    """Argmax of a Silverman-bandwidth kernel density on a fine grid.

    Returns ``grid[argmax(kernel_density(x, grid))]`` bit for bit, first
    index on ties, for the KDE_MODE_POINTS-point grid over the draws' range
    with a 5% pad on each side.  The exact density is evaluated only at the
    grid points that a binned approximation and its error bound cannot rule out
    (binned kernel densities: Wand 1994, JCGS 3:433; Fan & Marron 1994,
    JCGS 3:35), usually two to four of them.

    In bandwidth units, u_i = x_i / h and g_j = grid_j / h, kernel_density
    sums S_j = sum_i f(u_i - g_j) with f(y) = exp(-y^2 / 2), and divides by
    n h sqrt(2 pi).  The draws are binned, relative to g_0, on a lattice of
    spacing delta = Delta / 4 (Delta the grid step), every fourth point of
    which is a grid point.  A draw with offset e_i = u_i - t_b from its
    lattice point t_b contributes, by Taylor's theorem,

        f(t_b - g) + e_i f'(t_b - g) + e_i^2 f''(xi) / 2,   |f''| <= 1,

    so with bin counts N_b and offset sums M_b the approximation
    A_j = sum_b N_b f(t_b - g_j) + M_b f'(t_b - g_j), one FFT convolution
    for the whole grid, differs from S_j by at most sum_i e_i^2 / 2.  The
    bound B = sum_i e_i^2 / 2 + n (max_j |s_j| + 1e-9) adds:

    - n |s_j| for the floating grid point g_j lying s_j off its lattice
      point, since |f'| <= 1;
    - 1e-9 n for everything else, each part far below it: the kernel cut
      at 10 bandwidths (below n e^-50 (1 + 5 delta)), the draws kernel_density's
      window leaves out (below n e^-40.5), its summation round-off, the
      rounding of the binned positions (about n eps times the grid's width
      in bandwidths), and the FFT's round-off, whose part from the M_b is
      below eps sqrt(n sum e_i^2) <= eps (n + sum e_i^2) / 2.

    A grid point is a candidate unless A_j + B < max(A - B) - 1e-9 n.  The
    sum at any other point lies more than 1e-9 n, many ulps of the largest
    sum, below the largest sum, so its density stays strictly below the
    largest density after the division too, and the argmax over the
    candidates, first index on ties, is the argmax over the grid.  The
    candidates are compared by kernel_density's normalized values, not by
    their sums: two sums one ulp apart can divide to the same density, and
    the full-grid argmax then takes the first of the two.  Draws that are
    not finite give no bound; every grid point is then a candidate.
    """
    lo, hi = float(np.min(x)), float(np.max(x))
    if hi == lo:
        return lo
    pad = 0.05 * (hi - lo)
    grid = np.linspace(lo - pad, hi + pad, KDE_MODE_POINTS)
    x = np.sort(np.asarray(x, dtype=float))
    cand = grid[_mode_candidates(x, grid)]
    return float(cand[np.argmax(kernel_density(x, cand))])


def _skewness(draws: np.ndarray) -> np.ndarray:
    """Biased sample skewness m3 / m2**1.5 per column, NaN for a constant column.

    The same arithmetic as ``scipy.stats.skew(draws, axis=0)``, so the values
    are identical, without importing ``scipy.stats``.
    """
    mean = draws.mean(axis=0, keepdims=True)
    d = draws - mean
    m2 = np.mean(d**2, axis=0)
    m3 = np.mean(d**2 * d, axis=0)
    with np.errstate(all="ignore"):
        zero = m2 <= (np.finfo(m2.dtype).eps * mean[0]) ** 2
        return np.where(zero, np.nan, m3 / m2**1.5)


# Fewest draws for summaries (a few beyond each 2.5% tail) and for density curves.
SUMMARY_MIN_DRAWS = 100
DENSITY_MIN_DRAWS = 1000


def summarize(samples: JointSamples) -> PosteriorSummary:
    """Means, sds, central quantiles, kernel modes and skewness per component.

    Everything is computed in this process: each kernel mode evaluates the
    exact density at a handful of grid points (:func:`_kde_mode`), which
    costs less than handing the components to a process pool.
    """
    if samples.count < SUMMARY_MIN_DRAWS:
        raise InsufficientSamples(
            f"{samples.count} draws, at least {SUMMARY_MIN_DRAWS} needed for summaries"
        )
    draws = samples.draws
    mode = np.array([_kde_mode(draws[:, i]) for i in range(samples.dim)])
    q = np.quantile(draws, [0.025, 0.5, 0.975], axis=0)
    return PosteriorSummary(
        names=samples.names,
        mean=draws.mean(axis=0),
        sd=draws.std(axis=0, ddof=1),
        q025=q[0],
        q50=q[1],
        q975=q[2],
        mode=mode,
        skewness=_skewness(draws),
    )


def marginal_density_estimate(samples: JointSamples, component: int, xs) -> np.ndarray:
    """Kernel density estimate of one component's marginal on a grid."""
    if samples.count < DENSITY_MIN_DRAWS:
        raise InsufficientSamples(
            f"{samples.count} draws, at least {DENSITY_MIN_DRAWS} needed for density estimates"
        )
    return kernel_density(samples.draws[:, component], xs)
