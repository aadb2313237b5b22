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
    if not np.all(variance > 0):  # NaN fails too
        raise ValueError("variance must be positive")
    if not np.all(np.abs(g) < GAMMA_ATTAINABLE):  # NaN fails too
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
    """Skew-normal density; array parameters broadcast against x.

    Column-vector parameters against a (p, points) x give one row per triple.
    """
    z = (np.asarray(x, dtype=float) - params.xi) / params.omega
    return (
        2.0
        / params.omega
        * np.exp(-0.5 * z**2 - _HALF_LOG_2PI)
        * ndtr(params.alpha * z)
    )


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


# Levels in [_BRACKET_LEVEL, 1 - _BRACKET_LEVEL] = [Phi(-8), 1 - Phi(-8)] need
# no bracket check when both ends lie _BRACKET_Z standard units out:
# 2 Phi(-8.5) is about 1.9e-17, 33 times below Phi(-8).
_BRACKET_LEVEL = float(ndtr(-8.0))
_BRACKET_Z = 8.5


# sn_quantile stops once a step or its bracket is below QUANTILE_TOL * max(1, |x|), or
# after QUANTILE_MAX_ITER steps; the default table and recorded maps were solved so.
QUANTILE_TOL = 1e-12
QUANTILE_MAX_ITER = 80


def sn_quantile(params: SkewNormalParams, q):
    """Quantile by safeguarded Newton iteration, vectorized in q.

    Newton steps on the cdf are kept inside a shrinking bisection bracket,
    so convergence is monotone even far in the tails.  Accuracy is at the
    ``QUANTILE_TOL`` level in x for probabilities away from the extreme tails.

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
    # The density is at most 2 phi(z) / omega, so F(lo) <= 2 Phi(z_lo) and
    # 1 - F(hi) <= 2 Phi(-z_hi).  With both ends at least _BRACKET_Z
    # standard units out, both lie below _BRACKET_LEVEL, and the bracket
    # holds without a cdf call for every level in
    # [_BRACKET_LEVEL, 1 - _BRACKET_LEVEL]; only the others are checked.
    check = np.flatnonzero(
        (qv < _BRACKET_LEVEL)
        | (qv > 1.0 - _BRACKET_LEVEL)
        | ((lo - params.xi) / params.omega > -_BRACKET_Z)
        | ((hi - params.xi) / params.omega < _BRACKET_Z)
    )
    # widen for extreme levels until the bracket is valid
    for _ in range(6 if check.size else 0):
        pc, lc, hc, qc = _take(params, check), lo[check], hi[check], qv[check]
        bad_lo = sn_cdf(pc, lc) > qc
        bad_hi = sn_cdf(pc, hc) < qc
        if not (bad_lo.any() or bad_hi.any()):
            break
        span = hc - lc
        lo[check] = np.where(bad_lo, lc - span, lc)
        hi[check] = np.where(bad_hi, hc + span, hc)

    # start from the moment-matched normal quantile, then Newton with a
    # bisection safeguard: steps leaving the bracket fall back to its middle
    mean, variance = _start_moments(params)
    x = np.clip(mean + np.sqrt(variance) * ndtri(qv), lo + 1e-12, hi - 1e-12)
    active = np.arange(x.size)
    for _ in range(QUANTILE_MAX_ITER):
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
        scale = QUANTILE_TOL * np.maximum(1.0, np.abs(x_new))
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


def _groups(keys):
    """Yield (key, positions) for each distinct value of ``keys``, in key order.

    ``positions`` index the flattened ``keys`` in ascending order.  One
    stable argsort finds every group; NaN keys each form a group of one.
    """
    flat = np.ravel(keys)
    if flat.size == 0:
        return
    order = np.argsort(flat, kind="stable")
    for positions in np.split(order, np.flatnonzero(np.diff(flat[order])) + 1):
        yield flat[positions[0]], positions


def standardized_map_direct(gamma, z):
    """Exact correction map g_gamma(z) = F_gamma^{-1}(Phi(z)).

    ``gamma`` may be a scalar or an array matching ``z``; array input is
    grouped by value so each group runs one vectorized quantile solve.
    gamma = 0 returns z unchanged (identity map, exact).
    """
    z = np.asarray(z, dtype=float)
    g = np.asarray(gamma, dtype=float)
    if g.ndim == 0:
        if float(g) == 0.0:
            return z.copy() if z.ndim else float(z)
        return sn_quantile(standardized_params(float(g)), ndtr(z))
    if g.shape != z.shape:
        raise DimensionMismatch("gamma array must match z in shape")
    flat, out = z.ravel(), np.empty(z.size)
    for val, pos in _groups(g):
        out[pos] = standardized_map_direct(float(val), flat[pos])
    return out.reshape(z.shape)


# ---------------------------------------------------------------------------
# tabulated fast map
# ---------------------------------------------------------------------------

# Points per slice of the table kernel: its dozen temporaries of this length
# stay in a core's cache.
_SLICE_ELEMENTS = 16384


# Table rows every TABLE_GAMMA_STEP in [-GAMMA_CLAMP, GAMMA_CLAMP]; 61 shared, read-only
# nodes: 55 on [-3.5, 3.5], where nearly all draws fall, and sparse tails at +-4, 5, 6.
TABLE_GAMMA_STEP = 0.01
TABLE_Z_NODES = np.concatenate([[-6.0, -5.0, -4.0], np.linspace(-3.5, 3.5, 55), [4.0, 5.0, 6.0]])
TABLE_Z_NODES.setflags(write=False)


class QuantileTable:
    """Tabulated correction maps over a regular skewness grid.

    One monotone piecewise-cubic interpolant (PCHIP) per grid skewness on
    shared z nodes, all built at construction; a table never changes after
    that.  Outside the nodes the map continues linearly with the endpoint
    slope.  Lookup rounds the requested skewness to the grid resolution; the
    gamma = 0 row is the exact identity.
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
        # every row's cubic at once: the same coefficients as one build per row
        cubic = PchipInterpolator(self.z_nodes, self.values, axis=1)
        self._slopes = cubic.derivative()(self.z_nodes[[0, -1]])
        # (power, row, cell), highest power first; the constant term is stored
        # as 0.0 + c, the first step of PPoly's sum (it turns -0.0 into 0.0)
        self._coeffs = np.ascontiguousarray(cubic.c.transpose(0, 2, 1))
        self._coeffs[3] += 0.0
        # O(1) cell lookup: buckets at most half the smallest node gap wide,
        # so a bucket holds at most one node and a point's cell is its
        # bucket's cell or a neighbour of it
        x = self.z_nodes
        buckets = int(np.ceil(2.0 * (x[-1] - x[0]) / np.min(np.diff(x))))
        self._per_width = buckets / (x[-1] - x[0])
        edges = x[0] + np.arange(buckets) / self._per_width
        self._bucket_cell = np.searchsorted(x, edges, side="right") - 1
        # the upper edge of each cell; the last cell also holds x[-1]
        self._upper = np.append(x[1:-1], np.inf)

    # -- construction ----------------------------------------------------

    @classmethod
    def build(cls) -> "QuantileTable":
        """Build the table by exact quantile solves at every (gamma, node).

        All rows are solved in one vectorized ``sn_quantile`` call, each level
        with its row's scalar parameters, so every value is bit-identical to
        ``standardized_map_direct(gamma, nodes)``.  The gamma = 0 row is
        ``nodes`` itself.
        """
        gamma_step, nodes = TABLE_GAMMA_STEP, TABLE_Z_NODES
        half = int(round(GAMMA_CLAMP / gamma_step))
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

    def index_of(self, gamma) -> np.ndarray:
        """Row index for a skewness value, rounding to the grid resolution."""
        g = np.asarray(gamma, dtype=float)
        if not np.all(np.abs(g) <= self.gamma_max + 0.5 * self.gamma_step):  # NaN fails too
            raise SkewnessOutOfRange(
                f"|gamma| exceeds the tabulated range {self.gamma_max:.2f}"
            )
        idx = np.rint(g / self.gamma_step).astype(int) + self._half
        return np.clip(idx, 0, self.values.shape[0] - 1)

    def map_rows(self, rows, z) -> np.ndarray:
        """Evaluate row ``rows[i]`` at ``z[i]``; ``rows`` broadcasts against ``z``.

        Each point takes the cell x[j] <= z < x[j+1] (z = x[-1] in the last
        cell) that scipy's ``PPoly`` finds by binary search, here in O(1):
        its bucket's cell, then one correction step each way against the
        nodes.  The cubic is summed in ``PPoly``'s order,
        ((0 + c3) + c2 s) + c1 (s s) + c0 ((s s) s), so every value equals
        ``PPoly``'s bit for bit.  Beyond the outer nodes the map continues
        linearly with the end slopes, NaN stays NaN and +-inf maps to +-inf.
        Points on the identity row pass through unchanged.  Long inputs go
        through in slices along the first axis that stay in cache.
        """
        z = np.asarray(z, dtype=float)
        rows = np.asarray(rows)
        if z.ndim == 0:
            return self._map_slice(rows, z.reshape(1)).reshape(())
        out = np.empty_like(z)
        step = max(1, _SLICE_ELEMENTS * z.shape[0] // max(z.size, 1))
        along = rows.ndim == z.ndim and rows.shape[0] > 1
        for i in range(0, z.shape[0], step):
            part = slice(i, i + step)
            out[part] = self._map_slice(rows[part] if along else rows, z[part])
        return out

    def _map_slice(self, rows, z):
        """:meth:`map_rows` on one slice of at least one dimension."""
        x = self.z_nodes
        zc = np.clip(z, x[0], x[-1])
        t = np.fmin((zc - x[0]) * self._per_width, self._bucket_cell.size - 1)  # NaN goes last
        cell = self._bucket_cell.take(t.astype(np.intp))
        cell += zc >= self._upper.take(cell)
        cell -= zc < x.take(cell)
        s = zc - x.take(cell)
        cell += rows * (x.size - 1)
        c = self._coeffs.reshape(4, -1)
        out = c[3].take(cell)
        term = c[2].take(cell)
        term *= s
        out += term
        term = c[1].take(cell)
        ss = s * s
        term *= ss
        out += term
        term = c[0].take(cell)
        ss *= s
        term *= ss
        out += term
        for end, side in ((0, z < x[0]), (-1, z > x[-1])):
            if side.any():
                r = np.broadcast_to(rows, z.shape)[side]
                out[side] = self.values[r, end] + self._slopes[r, end] * (z[side] - x[end])
        identity = rows == self._half
        if identity.any():
            np.copyto(out, z, where=identity)
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
    Entries whose rounded skewness is 0 pass through unchanged.  A scalar
    gamma and mixed batches alike go through ``QuantileTable.map_rows``, so
    every entry equals the scalar-gamma map of its own row bit for bit.
    """
    z = np.asarray(z, dtype=float)
    g = np.asarray(gamma, dtype=float)
    if g.ndim and g.shape != z.shape:
        raise DimensionMismatch("gamma array must match z in shape")
    return table.map_rows(table.index_of(g), z)
