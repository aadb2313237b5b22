"""Skew Gaussian copula corrections of a Gaussian full conditional.

A fitted configuration supplies a Gaussian approximation N(mu, Q^-1)
together with refined per-coordinate marginal summaries (mean mutilde_i,
sd sigma_i, skewness gamma_i).  The corrected joint keeps the Gaussian
dependence structure and replaces each margin:

* ``none``  leaves the Gaussian approximation untouched,
* ``mean``  shifts every coordinate by mutilde_i - mu_i,
* ``skew``  maps each coordinate through the skew-normal correction
  g_gamma, so the margins become skew-normal with the refined moments
  while the copula stays Gaussian.

The forward map sends Gaussian draws to the corrected space; the inverse
map and the Jacobian support exact density evaluation of the corrected
approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import ndtri

from .errors import BoundaryEvaluation, DimensionMismatch, InvalidSpec, SkewnessOutOfRange
from .gmrf import _LOG_2PI, PrecisionMatrix
from .skewnormal import (
    GAMMA_ATTAINABLE,
    default_table,
    sn_cdf,
    sn_params_from_moments,
    sn_pdf,
    standardized_map_direct,
)

#: Evaluations whose marginal cdf lands inside these bounds are usable;
#: values closer to 0 or 1 are clipped (and counted) before the probit.
CDF_CLIP = 1e-15


class CorrectionKind(str, Enum):
    """Which posterior correction to apply on top of the Gaussian approximation."""

    NONE = "none"
    MEAN = "mean"
    SKEW = "skew"


def as_kind(kind) -> CorrectionKind:
    if isinstance(kind, CorrectionKind):
        return kind
    try:
        return CorrectionKind(str(kind))
    except ValueError:
        raise InvalidSpec(f"unknown correction kind {kind!r}") from None


@dataclass
class FullConditionalSGC:
    """Corrected approximation of one latent full conditional.

    ``mu`` and ``precision`` come from the Gaussian approximation;
    ``mutilde``, ``sigma`` and ``gamma`` hold the refined marginal mean,
    the Gaussian marginal sd and the refined skewness per coordinate.
    """

    mu: np.ndarray
    precision: PrecisionMatrix
    mutilde: np.ndarray
    gamma: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        self.mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        self.mutilde = np.atleast_1d(np.asarray(self.mutilde, dtype=float))
        self.gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        self.sigma = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        n = self.mu.size
        sizes = (self.mutilde.size, self.gamma.size, self.sigma.size)
        if self.precision.dim != n or any(size != n for size in sizes):
            raise DimensionMismatch("mu, mutilde, gamma, sigma and precision disagree in size")
        if not (np.all(np.isfinite(self.mu)) and np.all(np.isfinite(self.mutilde))):
            raise InvalidSpec("marginal means must be finite")
        if not np.all(np.abs(self.gamma) < GAMMA_ATTAINABLE):  # NaN fails too
            raise SkewnessOutOfRange("marginal skewness outside the attainable range")
        if not np.all(self.sigma > 0):
            raise InvalidSpec("marginal sds must be positive")

    @property
    def dim(self) -> int:
        return self.mu.size


@dataclass(frozen=True)
class JacobianTerms:
    """Per-coordinate pieces of the copula change of variables.

    ``delta`` holds d x_i / d u_i of the inverse map (the density ratio
    sigma_i f_i(u_i) / phi(z_i)); ``gauss_dev`` holds the Gaussian-space
    deviations t_i = sigma_i z_i = x_i - mu_i.  ``clipped`` counts cdf
    values pushed back inside the representable open interval.
    """

    delta: np.ndarray
    gauss_dev: np.ndarray
    clipped: int


def _check_state(fc: FullConditionalSGC, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != fc.dim:
        raise DimensionMismatch(f"state has {x.shape[-1]} coordinates, field has {fc.dim}")
    return x


def forward_transform(
    fc: FullConditionalSGC,
    x,
    kind=CorrectionKind.SKEW,
    use_table: bool = True,
):
    """Map Gaussian-approximation states into the corrected posterior space.

    Accepts a single state vector or a (count, dim) stack.  The skew map
    uses the tabulated correction by default; ``use_table=False`` solves the
    exact quantile relation instead.  Coordinates whose skewness vanishes
    (exactly, or after table rounding) reduce to the mean shift, so the
    skew correction degenerates to the mean correction bit for bit.
    """
    x = _check_state(fc, x)
    return forward_map(fc, kind, use_table)(x)


def forward_map(fc: FullConditionalSGC, kind, use_table: bool):
    """:func:`forward_transform` of ``fc`` as a function of the states alone.

    Everything that depends on ``fc`` and the kind alone (the identity
    columns, table rows and per-column constants) is settled here once, so
    a sampler can map its draws block by block at no extra cost per block.
    The states are not checked; :func:`forward_transform` checks them.
    """
    kind = as_kind(kind)
    shift = fc.mutilde - fc.mu
    if kind is CorrectionKind.NONE:
        return lambda x: x.copy()
    if kind is CorrectionKind.MEAN:
        return lambda x: x + shift

    if use_table:
        table = default_table()
        rows = table.index_of(fc.gamma)
        identity = rows == table.index_of(0.0)
    else:
        identity = fc.gamma == 0.0
    kept, mapped = np.flatnonzero(identity), np.flatnonzero(~identity)
    kept_shift = shift[kept]
    mu, sigma, mutilde = fc.mu[mapped], fc.sigma[mapped], fc.mutilde[mapped]
    if use_table:
        rows = rows[mapped]
    else:
        # the mapped columns grouped by skewness, once: one exact quantile
        # solve per distinct value, over every row of its columns
        values, which = np.unique(fc.gamma[mapped], return_inverse=True)
        groups = [(float(v), np.flatnonzero(which == i)) for i, v in enumerate(values)]

    def apply(x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        out[..., kept] = x[..., kept] + kept_shift
        z = (x[..., mapped] - mu) / sigma
        if use_table:
            g = table.map_rows(rows, z)
        else:
            g = np.empty_like(z)
            for value, cols in groups:
                g[..., cols] = standardized_map_direct(value, z[..., cols])
        out[..., mapped] = mutilde + sigma * g
        return out

    return apply


def _active_cdf(fc: FullConditionalSGC, u, active):
    """Skew-normal parameters and cdf values of the ``active`` margins at ``u``.

    Raises BoundaryEvaluation when a cdf value is exactly 0 or 1.
    """
    params = sn_params_from_moments(fc.mutilde[active], fc.sigma[active] ** 2, fc.gamma[active])
    p = sn_cdf(params, u[..., active])
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise BoundaryEvaluation("state lies at the boundary of the corrected support")
    return params, p


def inverse_transform(fc: FullConditionalSGC, u, kind=CorrectionKind.SKEW):
    """Map corrected-space states back onto the Gaussian approximation.

    The skew inverse goes through the exact marginal cdf and the probit,
    x_i = mu_i + sigma_i Phi^-1(F_i(u_i)); no table is involved.
    """
    u = _check_state(fc, u)
    kind = as_kind(kind)
    shift = fc.mutilde - fc.mu
    if kind is CorrectionKind.NONE:
        return u.copy()
    if kind is CorrectionKind.MEAN:
        return u - shift

    out = np.empty_like(u)
    zero = fc.gamma == 0.0
    if zero.any():
        out[..., zero] = u[..., zero] - shift[zero]
    active = ~zero
    if active.any():
        _, p = _active_cdf(fc, u, active)
        out[..., active] = fc.mu[active] + fc.sigma[active] * ndtri(p)
    return out


def jacobian_terms(fc: FullConditionalSGC, u) -> JacobianTerms:
    """Change-of-variables pieces of the skew correction at states ``u``.

    Raises
    ------
    BoundaryEvaluation
        If some marginal cdf value is exactly 0 or 1, i.e. the state sits
        outside the numerically representable support of the corrected
        density.
    """
    u = _check_state(fc, u)
    delta = np.ones_like(u)
    dev = np.empty_like(u)
    clipped = 0

    zero = fc.gamma == 0.0
    if zero.any():
        dev[..., zero] = u[..., zero] - fc.mutilde[zero]
    active = ~zero
    if active.any():
        params, p = _active_cdf(fc, u, active)
        inside = np.clip(p, CDF_CLIP, 1.0 - CDF_CLIP)
        clipped = int(np.count_nonzero(inside != p))
        z = ndtri(inside)
        phi = np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)
        delta[..., active] = fc.sigma[active] * sn_pdf(params, u[..., active]) / phi
        dev[..., active] = fc.sigma[active] * z
    return JacobianTerms(delta=delta, gauss_dev=dev, clipped=clipped)


def log_density_sgc(fc: FullConditionalSGC, u, kind=CorrectionKind.SKEW):
    """Log density of the corrected approximation at states ``u``.

    With ``none`` it is the Gaussian approximation; with ``mean`` the
    Gaussian keeps its precision but is centered on the refined marginal
    means.  The skew-corrected density combines the Gaussian copula
    quadratic form in the back-transformed deviations with the marginal
    Jacobian factors:

    -dim/2 log 2 pi + 1/2 log|Q| - 1/2 t' Q t + sum_i log delta_i.
    """
    u = _check_state(fc, u)
    kind = as_kind(kind)
    fac = fc.precision.factor()
    if kind is not CorrectionKind.SKEW:
        center = fc.mutilde if kind is CorrectionKind.MEAN else fc.mu
        quad = fac.quad_form(u - center)
        return -0.5 * fc.dim * _LOG_2PI + 0.5 * fac.log_det - 0.5 * quad
    jt = jacobian_terms(fc, u)
    quad = fac.quad_form(jt.gauss_dev)
    with np.errstate(divide="ignore"):
        log_jac = np.sum(np.log(jt.delta), axis=-1)
    return -0.5 * fc.dim * _LOG_2PI + 0.5 * fac.log_det - 0.5 * quad + log_jac


def correction_delta(fc: FullConditionalSGC) -> float:
    """Log-density gap between the Gaussian approximation and the skew
    correction, both evaluated at the Gaussian mean.

    Equals 1/2 t' Q t - sum_i log delta_i at u = mu; with all skewness zero
    it reduces to the quadratic form of the mean shift alone.
    """
    jt = jacobian_terms(fc, fc.mu)
    quad = fc.precision.factor().quad_form(jt.gauss_dev)
    with np.errstate(divide="ignore"):
        log_jac = float(np.sum(np.log(jt.delta)))
    return 0.5 * quad - log_jac
