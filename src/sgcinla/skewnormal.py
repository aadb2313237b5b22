"""Skew-normal distributions and the standardized quantile correction map.

The skew-normal density with location xi, scale omega > 0 and shape alpha is

    f(x) = 2 / omega * phi(z) * Phi(alpha z),   z = (x - xi) / omega.

The package works almost exclusively with the moment parameterization
(mean, variance, skewness): a target triple is converted to (xi, omega,
alpha) through the delta representation, which is exact and closed form.
On top of that sits the standardized correction map

    g_gamma(z) = F_gamma^{-1}(Phi(z)),

the monotone transport taking a standard normal draw to a skew-normal draw
with mean 0, variance 1 and skewness gamma.  Evaluating g through the exact
quantile is expensive, so a table of monotone piecewise-cubic interpolants
over a fixed skewness grid provides a fast vectorized path; gamma is rounded
to the grid resolution (0.01) on lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import ndtr, ndtri, owens_t

from .errors import DimensionMismatch, SkewnessOutOfRange

_SQRT_2_PI = float(np.sqrt(2.0 / np.pi))
_HALF_LOG_2PI = 0.5 * float(np.log(2.0 * np.pi))

#: Largest skewness a skew-normal can represent (delta -> 1 limit).
GAMMA_ATTAINABLE = float(np.sqrt(2.0) * (4.0 - np.pi) / (np.pi - 2.0) ** 1.5)

#: Working clamp used throughout the package (table range, refined marginals,
#: matched linear-combination margins); slightly inside the bound.
GAMMA_CLAMP = 0.99


@dataclass(frozen=True)
class SkewNormalParams:
    """Direct parameters (xi, omega, alpha); fields may be scalars or arrays."""

    xi: float
    omega: float
    alpha: float

    @property
    def delta(self):
        return self.alpha / np.sqrt(1.0 + self.alpha**2)


def sn_params_from_moments(mean, variance, skewness) -> SkewNormalParams:
    """Closed-form (xi, omega, alpha) matching a (mean, variance, skewness) triple.

    Inverts the skew-normal moment equations through delta: with
    c = ((4 - pi) / 2)^(2/3),

        delta^2 = (pi / 2) |g|^(2/3) / (c + |g|^(2/3)),
        alpha   = delta / sqrt(1 - delta^2),
        omega   = sqrt(pi * variance / (pi - 2 delta^2)),
        xi      = mean - omega * delta * sqrt(2 / pi).

    Raises
    ------
    SkewnessOutOfRange
        If |skewness| >= the attainable bound (about 0.99527).
    """
    mean = np.asarray(mean, dtype=float)
    variance = np.asarray(variance, dtype=float)
    g = np.asarray(skewness, dtype=float)
    if np.any(variance <= 0):
        raise ValueError("variance must be positive")
    if np.any(np.abs(g) >= GAMMA_ATTAINABLE):
        raise SkewnessOutOfRange(
            f"|skewness| must be below {GAMMA_ATTAINABLE:.5f}, got {np.max(np.abs(g)):.5f}"
        )
    c = ((4.0 - np.pi) / 2.0) ** (2.0 / 3.0)
    a = np.abs(g) ** (2.0 / 3.0)
    delta = np.sign(g) * np.sqrt(0.5 * np.pi * a / (c + a))
    alpha = delta / np.sqrt(1.0 - delta**2)
    omega = np.sqrt(np.pi * variance / (np.pi - 2.0 * delta**2))
    xi = mean - omega * delta * _SQRT_2_PI
    if mean.ndim == 0:
        return SkewNormalParams(float(xi), float(omega), float(alpha))
    return SkewNormalParams(xi, omega, alpha)


def sn_moments_from_params(params: SkewNormalParams):
    """Forward moment map: (mean, variance, skewness) of SN(xi, omega, alpha)."""
    d = params.delta
    mz = d * _SQRT_2_PI
    mean = params.xi + params.omega * mz
    variance = params.omega**2 * (1.0 - mz**2)
    skew = 0.5 * (4.0 - np.pi) * mz**3 / (1.0 - mz**2) ** 1.5
    return mean, variance, skew


def sn_pdf(params: SkewNormalParams, x):
    """Skew-normal density, vectorized in x."""
    z = (np.asarray(x, dtype=float) - params.xi) / params.omega
    return (
        2.0
        / params.omega
        * np.exp(-0.5 * z**2 - _HALF_LOG_2PI)
        * ndtr(params.alpha * z)
    )


def sn_pdf_rows(xi, omega, alpha, xs) -> np.ndarray:
    """Row-wise skew-normal densities: parameter vectors against (p, points) grids.

    Row i equals ``sn_pdf(SkewNormalParams(xi[i], omega[i], alpha[i]), xs[i])``;
    evaluating all rows in one broadcast pass avoids p separate dispatches.
    """
    xi = np.asarray(xi, dtype=float)[:, None]
    omega = np.asarray(omega, dtype=float)[:, None]
    alpha = np.asarray(alpha, dtype=float)[:, None]
    z = (np.asarray(xs, dtype=float) - xi) / omega
    return 2.0 / omega * np.exp(-0.5 * z**2 - _HALF_LOG_2PI) * ndtr(alpha * z)


def sn_cdf(params: SkewNormalParams, x):
    """Skew-normal cdf via Owen's T function: Phi(z) - 2 T(z, alpha)."""
    z = (np.asarray(x, dtype=float) - params.xi) / params.omega
    out = ndtr(z) - 2.0 * owens_t(z, params.alpha)
    # Owen's T can leave tiny negative residue in the far short tail
    return np.clip(out, 0.0, 1.0)


def _take(params: SkewNormalParams, idx) -> SkewNormalParams:
    """The parameters of the elements ``idx``; scalar parameters stay scalar."""
    if np.ndim(params.xi) == 0:
        return params
    return SkewNormalParams(params.xi[idx], params.omega[idx], params.alpha[idx])


def _start_moments(params: SkewNormalParams):
    """Mean and variance of each element's skew-normal, as the scalar map gives them.

    Array parameters go through the scalar moment map once per distinct
    triple: the 0-d path squares with libm ``pow``, which rounds differently
    from an array square for about one input in a thousand.
    """
    if np.ndim(params.xi) == 0:
        mean, variance, _ = sn_moments_from_params(params)
        return mean, variance
    triples, inverse = np.unique(
        np.stack([params.xi, params.omega, params.alpha], axis=-1),
        axis=0,
        return_inverse=True,
    )
    moments = np.array(
        [sn_moments_from_params(SkewNormalParams(*map(float, t)))[:2] for t in triples]
    ).reshape(-1, 2)
    return moments[inverse, 0], moments[inverse, 1]


def sn_quantile(params: SkewNormalParams, q, tol: float = 1e-12, max_iter: int = 80):
    """Quantile by safeguarded Newton iteration, vectorized in q.

    Newton steps on the cdf are kept inside a shrinking bisection bracket,
    so convergence is monotone even far in the tails.  Accuracy is at the
    1e-12 level in x for probabilities away from the extreme tails.

    ``params`` holds scalars, or arrays the shape of ``q`` with one triple per
    level.  Every element takes the same steps and stopping test as it would
    alone, so each result is bit-identical to a scalar solve of that element.
    """
    q = np.asarray(q, dtype=float)
    single = q.ndim == 0
    qv = np.ravel(q).astype(float)
    if np.any((qv <= 0.0) | (qv >= 1.0)):
        raise ValueError("quantile levels must lie strictly inside (0, 1)")
    if np.ndim(params.xi) != 0:
        fields = (params.xi, params.omega, params.alpha)
        if any(np.shape(v) != q.shape for v in fields):
            raise DimensionMismatch("array parameters must match the levels in shape")
        params = SkewNormalParams(*(np.ravel(v) for v in fields))

    lo = np.full_like(qv, params.xi - 9.0 * params.omega)
    hi = np.full_like(qv, params.xi + 9.0 * params.omega)
    # widen for extreme levels until the bracket is valid
    for _ in range(6):
        bad_lo = sn_cdf(params, lo) > qv
        bad_hi = sn_cdf(params, hi) < qv
        if not (bad_lo.any() or bad_hi.any()):
            break
        span = hi - lo
        lo = np.where(bad_lo, lo - span, lo)
        hi = np.where(bad_hi, hi + span, hi)

    # start from the moment-matched normal quantile, then Newton with a
    # bisection safeguard: steps leaving the bracket fall back to its middle
    mean, variance = _start_moments(params)
    x = np.clip(mean + np.sqrt(variance) * ndtri(qv), lo + 1e-12, hi - 1e-12)
    active = np.arange(x.size)
    for _ in range(max_iter):
        xa = x[active]
        pa = _take(params, active)
        f = sn_cdf(pa, xa) - qv[active]
        lo_a = np.where(f < 0.0, xa, lo[active])
        hi_a = np.where(f >= 0.0, xa, hi[active])
        dens = sn_pdf(pa, xa)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(dens > 0.0, f / dens, np.inf)
        cand = xa - step
        inside = np.isfinite(cand) & (cand >= lo_a) & (cand <= hi_a)
        x_new = np.where(inside, cand, 0.5 * (lo_a + hi_a))
        scale = tol * np.maximum(1.0, np.abs(x_new))
        done = (inside & (np.abs(step) <= scale)) | (hi_a - lo_a <= scale)
        x[active] = x_new
        lo[active] = lo_a
        hi[active] = hi_a
        active = active[~done]
        if active.size == 0:
            break
    return float(x[0]) if single else x.reshape(q.shape)


def standardized_params(gamma: float) -> SkewNormalParams:
    """Parameters of the skew-normal with mean 0, variance 1, skewness gamma."""
    return sn_params_from_moments(0.0, 1.0, gamma)


def standardized_map_direct(gamma, z):
    """Exact correction map g_gamma(z) = F_gamma^{-1}(Phi(z)).

    ``gamma`` may be a scalar or an array matching ``z``; array input is
    grouped by unique value so each group runs one vectorized quantile
    solve.  gamma = 0 returns z unchanged (identity map, exact).
    """
    z = np.asarray(z, dtype=float)
    g = np.asarray(gamma, dtype=float)
    if g.ndim == 0:
        if float(g) == 0.0:
            return z.copy() if z.ndim else float(z)
        if abs(float(g)) >= GAMMA_ATTAINABLE:
            raise SkewnessOutOfRange(f"skewness {float(g)} outside the attainable range")
        return sn_quantile(standardized_params(float(g)), ndtr(z))
    if g.shape != z.shape:
        raise DimensionMismatch("gamma array must match z in shape")
    out = np.empty_like(z)
    for val in np.unique(g):
        mask = g == val
        out[mask] = standardized_map_direct(float(val), z[mask])
    return out


# ---------------------------------------------------------------------------
# tabulated fast map
# ---------------------------------------------------------------------------

def _default_nodes(z_max: float, n_nodes: int) -> np.ndarray:
    """Node layout: equispaced core on [-3.5, 3.5] plus sparse tail nodes."""
    tail = np.array([4.0, 5.0, 6.0])
    tail = tail[tail <= z_max]
    if z_max > 6.0:
        tail = np.append(tail, z_max)
    core_n = n_nodes - 2 * tail.size
    core = np.linspace(-3.5, 3.5, core_n)
    return np.concatenate([-tail[::-1], core, tail])


class QuantileTable:
    """Tabulated correction maps over a regular skewness grid.

    One monotone piecewise-cubic interpolant per grid skewness, evaluated
    on shared z nodes.  Outside [-z_max, z_max] the map continues linearly
    with the endpoint slope.  Lookup rounds the requested skewness to the
    grid resolution; the gamma = 0 row is the exact identity.
    """

    def __init__(self, gamma_step: float, z_nodes: np.ndarray, values: np.ndarray):
        self.gamma_step = float(gamma_step)
        self.z_nodes = np.asarray(z_nodes, dtype=float)
        self.values = np.asarray(values, dtype=float)
        n_gamma = self.values.shape[0]
        if n_gamma % 2 != 1 or self.values.shape[1] != self.z_nodes.size:
            raise DimensionMismatch("table needs an odd gamma count and matching node rows")
        self._half = n_gamma // 2
        self.gammas = np.round((np.arange(n_gamma) - self._half) * self.gamma_step, 10)
        if np.any(np.diff(self.values, axis=1) <= 0.0):
            raise ValueError("tabulated maps must be strictly increasing")
        self._interp = [None] * n_gamma
        self._slopes = [None] * n_gamma
        self._dense = None

    # -- construction ----------------------------------------------------

    @classmethod
    def build(
        cls,
        gamma_step: float = 0.01,
        gamma_max: float = GAMMA_CLAMP,
        z_max: float = 6.0,
        n_nodes: int = 61,
    ) -> "QuantileTable":
        """Build the table by exact quantile solves at every (gamma, node).

        All rows are solved in one vectorized ``sn_quantile`` call, each level
        with its row's scalar parameters, so every value is bit-identical to
        ``standardized_map_direct(gamma, nodes)``.  The gamma = 0 row is
        ``nodes`` itself.
        """
        half = int(round(gamma_max / gamma_step))
        nodes = _default_nodes(z_max, n_nodes)
        rows = [standardized_params(float(i * gamma_step)) for i in range(-half, half + 1) if i]
        per_level = SkewNormalParams(
            *(np.repeat([getattr(p, f) for p in rows], nodes.size) for f in ("xi", "omega", "alpha"))
        )
        solved = sn_quantile(per_level, np.tile(ndtr(nodes), len(rows)))
        values = np.insert(solved.reshape(len(rows), nodes.size), half, nodes, axis=0)
        return cls(gamma_step, nodes, values)

    # -- lookup ----------------------------------------------------------

    @property
    def gamma_max(self) -> float:
        return float(self.gammas[-1])

    @property
    def z_max(self) -> float:
        return float(self.z_nodes[-1])

    def index_of(self, gamma) -> np.ndarray:
        """Row index for a skewness value, rounding to the grid resolution."""
        g = np.asarray(gamma, dtype=float)
        if np.any(np.abs(g) > self.gamma_max + 0.5 * self.gamma_step):
            raise SkewnessOutOfRange(
                f"|gamma| exceeds the tabulated range {self.gamma_max:.2f}"
            )
        idx = np.rint(g / self.gamma_step).astype(int) + self._half
        return np.clip(idx, 0, self.values.shape[0] - 1)

    def _row(self, idx: int):
        if self._interp[idx] is None:
            self._interp[idx] = PchipInterpolator(self.z_nodes, self.values[idx])
            der = self._interp[idx].derivative()
            self._slopes[idx] = (float(der(self.z_nodes[0])), float(der(self.z_nodes[-1])))
        return self._interp[idx], self._slopes[idx]

    def map_row(self, idx: int, z: np.ndarray) -> np.ndarray:
        """Evaluate row ``idx`` with linear continuation beyond the nodes."""
        if idx == self._half:
            return np.array(z, dtype=float, copy=True)
        interp, (slope_lo, slope_hi) = self._row(idx)
        z = np.asarray(z, dtype=float)
        out = interp(np.clip(z, self.z_nodes[0], self.z_nodes[-1]))
        low = z < self.z_nodes[0]
        high = z > self.z_nodes[-1]
        if low.any():
            out[low] = self.values[idx, 0] + slope_lo * (z[low] - self.z_nodes[0])
        if high.any():
            out[high] = self.values[idx, -1] + slope_hi * (z[high] - self.z_nodes[-1])
        return out

    def _ensure_dense(self):
        """Stacked cubic coefficients of every row for one-pass mixed lookup."""
        if self._dense is None:
            coeffs = np.empty((self.values.shape[0], 4, self.z_nodes.size - 1))
            slopes = np.empty((self.values.shape[0], 2))
            for idx in range(self.values.shape[0]):
                interp, (lo, hi) = self._row(idx)
                coeffs[idx] = interp.c
                slopes[idx] = (lo, hi)
            self._dense = (coeffs, slopes)
        return self._dense

    def map_mixed(self, idx: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Evaluate per-entry rows in one vectorized pass.

        Same piecewise cubics as ``map_row``, evaluated by gathering each
        entry's interval coefficients; identity entries are exact copies so
        zero-skewness batches stay bit-identical to their input.
        """
        coeffs, slopes = self._ensure_dense()
        z = np.asarray(z, dtype=float)
        zc = np.clip(z, self.z_nodes[0], self.z_nodes[-1])
        cell = np.clip(
            np.searchsorted(self.z_nodes, zc, side="right") - 1,
            0,
            self.z_nodes.size - 2,
        )
        t = zc - self.z_nodes[cell]
        c = coeffs[idx, :, cell]
        out = ((c[..., 0] * t + c[..., 1]) * t + c[..., 2]) * t + c[..., 3]
        low = z < self.z_nodes[0]
        if low.any():
            out[low] = self.values[idx[low], 0] + slopes[idx[low], 0] * (
                z[low] - self.z_nodes[0]
            )
        high = z > self.z_nodes[-1]
        if high.any():
            out[high] = self.values[idx[high], -1] + slopes[idx[high], 1] * (
                z[high] - self.z_nodes[-1]
            )
        identity = idx == self._half
        if identity.any():
            out[identity] = z[identity]
        return out


@lru_cache(maxsize=1)
def default_table() -> QuantileTable:
    """Shared default table (built once per process)."""
    return QuantileTable.build()


def fast_map(table: QuantileTable, z, gamma):
    """Tabulated correction map, vectorized over mixed skewness input.

    Parameters
    ----------
    table : QuantileTable
    z : array of standardized normal coordinates.
    gamma : scalar or array matching z; rounded to the table grid.

    Notes
    -----
    Entries whose rounded skewness is 0 pass through unchanged.  Mixed
    batches gather each entry's cubic segment coefficients in a single
    vectorized pass, so the cost is O(L log nodes) with no per-row loop.
    """
    z = np.asarray(z, dtype=float)
    g = np.asarray(gamma, dtype=float)
    if g.ndim == 0:
        return table.map_row(int(table.index_of(g)), z)
    if g.shape != z.shape:
        raise DimensionMismatch("gamma array must match z in shape")
    return table.map_mixed(table.index_of(g), z)
