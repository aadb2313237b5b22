"""Nested Laplace machinery: Gaussian approximations, the hyperparameter
grid and skew-normal marginal refinements.

For each hyperparameter configuration theta the latent full conditional
pi(x | theta, y) is approximated by N(mu(theta), Q*(theta)^-1), where mu is
the mode found by damped Newton iterations and Q* adds the negative
likelihood curvature at the mode to the prior precision.  The marginal
posterior of theta is approximated by a Laplace ratio evaluated at mu and
explored over a small standardized grid around its mode.  Finally, each
latent marginal is refined on a few abscissae by re-locating the conditional
mode of the remaining coordinates and applying a fresh Laplace
approximation there; the refined density is moment-matched to a skew-normal
(mean mu~_i, the Gaussian-approximation sd sigma_i, skewness gamma_i).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import parallel
from .errors import DimensionMismatch, IndexOutOfRange, ModeSearchFailure, NoConvergence
from .gmrf import (
    _LOG_2PI,
    LinearConstraint,
    PrecisionMatrix,
    apply_constraints,
    covariance_from_precision,
)
from .model import ModelSpec, assemble_precision
from .skewnormal import GAMMA_CLAMP

logger = logging.getLogger(__name__)


@dataclass
class GaussianApprox:
    """Gaussian approximation N(mean, precision^-1) of a latent full conditional."""

    theta: np.ndarray
    mean: np.ndarray
    precision: PrecisionMatrix
    curvature: np.ndarray
    prior_precision: PrecisionMatrix
    converged: bool
    iterations: int
    _covariance: np.ndarray | None = field(default=None, repr=False)

    @property
    def log_det(self) -> float:
        return self.precision.factor().log_det

    def covariance(self) -> np.ndarray:
        """Full covariance (cached); marginal sds come from its diagonal."""
        if self._covariance is None:
            self._covariance = covariance_from_precision(self.precision)
        return self._covariance

    def marginal_sd(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance()))


@dataclass(frozen=True)
class GridPoint:
    """One hyperparameter configuration with its posterior mass."""

    theta: np.ndarray
    log_posterior: float
    weight: float


@dataclass(frozen=True)
class MarginalRefinement:
    """Moment-matched skew-normal refinement of one latent marginal."""

    index: int
    mean: float
    sd: float
    skewness: float
    dropped_nodes: int = 0
    flagged: bool = False


def _combined_constraint(spec: ModelSpec) -> LinearConstraint | None:
    """All hard constraints stacked into one system (projections must be joint)."""
    if not spec.constraints:
        return None
    if len(spec.constraints) == 1:
        return spec.constraints[0]
    return LinearConstraint(
        np.vstack([con.C for con in spec.constraints]),
        np.concatenate([con.e for con in spec.constraints]),
    )


def _objective_terms(spec: ModelSpec, x: np.ndarray, q: PrecisionMatrix, fac=None):
    """Unnormalized log joint in x: -x'Qx/2 + sum loglik, plus derivatives."""
    eta = x[: spec.n_obs]
    ll, d1, d2 = spec.family.loglik(spec.y, eta, spec.trials)
    quad = fac.quad_form(x) if fac is not None else float(x @ q.matrix @ x)
    value = -0.5 * quad + float(np.sum(ll))
    return value, d1, d2


# Damped Newton of the Gaussian approximation: step budget, gradient max-norm at
# the mode, and halvings per line search, a cap the refinement's inner Newton shares.
NEWTON_MAX_ITER = 50
NEWTON_GRAD_TOL = 1e-6
NEWTON_MAX_HALVINGS = 10


def gaussian_approximation(
    spec: ModelSpec, theta=(), x0: np.ndarray | None = None
) -> GaussianApprox:
    """Damped Newton search for the mode and curvature of pi(x | theta, y).

    Each iteration solves (Q + diag(c)) x = b with c the negative likelihood
    curvature and b the matching linearization point, then halves the step
    until the objective does not decrease (at most NEWTON_MAX_HALVINGS times).
    Constraints, when present, are re-imposed on every iterate.  Convergence
    is declared when the gradient's max-norm falls below NEWTON_GRAD_TOL; on
    budget exhaustion the last iterate is returned with ``converged=False``.
    """
    q = assemble_precision(spec, theta)
    q_fac = q.factor()
    n, big_n = spec.n_obs, spec.n_latent
    con = _combined_constraint(spec)

    x = np.zeros(big_n) if x0 is None else np.array(x0, dtype=float)
    value, d1, d2 = _objective_terms(spec, x, q, q_fac)
    qstar = None
    curvature = None
    converged = False
    iterations = 0

    for iterations in range(1, NEWTON_MAX_ITER + 1):
        curvature = np.zeros(big_n)
        curvature[:n] = -d2
        b = np.zeros(big_n)
        b[:n] = d1 + curvature[:n] * x[:n]
        qstar = q.plus_diagonal(curvature)
        proposal = qstar.factor().solve(b)
        if con is not None:
            proposal = apply_constraints(proposal, qstar, con)

        # damped line search back toward the current iterate
        step = proposal - x
        scale = 1.0
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            cand = x + scale * step
            cand_value, cand_d1, cand_d2 = _objective_terms(spec, cand, q, q_fac)
            if cand_value >= value or np.allclose(cand, x):
                break
            scale *= 0.5
        x, value, d1, d2 = cand, cand_value, cand_d1, cand_d2

        grad = -(q.matrix @ x)
        grad[:n] += d1
        if con is not None:
            # project out the constrained directions before testing
            cc = con.C
            coef = np.linalg.solve(cc @ cc.T, cc @ grad)
            grad = grad - cc.T @ coef
        if np.max(np.abs(grad)) <= NEWTON_GRAD_TOL:
            converged = True
            break

    curvature = np.zeros(big_n)
    curvature[:n] = -d2
    qstar = q.plus_diagonal(curvature)
    if not converged:
        logger.warning("gaussian approximation did not converge in %d iterations", NEWTON_MAX_ITER)
    return GaussianApprox(
        theta=np.atleast_1d(np.asarray(theta, dtype=float)),
        mean=x,
        precision=qstar,
        curvature=curvature,
        prior_precision=q,
        converged=converged,
        iterations=iterations,
    )


def log_hyper_posterior(spec: ModelSpec, theta=()) -> float:
    """Unnormalized log posterior of theta by the Laplace ratio at the mode.

    log pi(theta) + log pi(mu | theta) + sum loglik(y | mu)
    - log N(mu; mu, Q*^-1), where the last term is the Gaussian
    approximation evaluated at its own mean, i.e. its normalizing constant.

    Raises
    ------
    NoConvergence
        If the underlying Gaussian approximation did not converge.
    """
    ga = gaussian_approximation(spec, theta)
    if not ga.converged:
        raise NoConvergence(f"gaussian approximation failed at theta={theta}")
    mu = ga.mean
    q_fac = ga.prior_precision.factor()
    ll = float(np.sum(spec.family.loglik(spec.y, mu[: spec.n_obs], spec.trials)[0]))
    log_prior_x = 0.5 * q_fac.log_det - 0.5 * spec.n_latent * _LOG_2PI - 0.5 * q_fac.quad_form(mu)
    log_gauss_at_mean = 0.5 * ga.log_det - 0.5 * spec.n_latent * _LOG_2PI
    return spec.log_prior_theta(ga.theta) + log_prior_x + ll - log_gauss_at_mean


# Standardized grid over theta = log(tau_u): spacing in posterior sds, the
# largest log-density drop from the mode that is kept, and the step cap per side.
GRID_DZ = 0.75
GRID_DROP_MAX = 2.5
GRID_MAX_STEPS = 30


def _grid_from_logpost(logpost) -> list[GridPoint]:
    """Grid of one scalar hyperparameter around the mode of the log density ``logpost``.

    The INLA grid of Rue, Martino & Chopin (2009, JRSS-B 71:319, sec. 6.5) in
    one dimension.  BFGS from 0 locates the mode; a central difference with
    step h = 1e-3 max(1, |mode|) gives the curvature H and so the posterior
    sd H^-1/2.  The walk then steps ``GRID_DZ`` sds left, then right, for at
    most ``GRID_MAX_STEPS`` steps each way, keeping points while the log
    density stays within ``GRID_DROP_MAX`` of the mode; the first point past
    the drop is evaluated but not kept.  Weights are proportional to
    exp(logpost), normalized, in increasing theta order.

    BFGS on finite-difference gradients places the mode only to about 1e-3
    (2.5e-3 off on the 5-group Gaussian fixture of the tests), but any other
    search moves every grid point and weight, and with them every fit and the
    recorded benchmark reference.
    """
    from scipy import optimize  # only a fit searches; its import takes 0.12 s on 2 vCPUs

    res = optimize.minimize(lambda t: -logpost(t), np.zeros(1), method="BFGS")
    mode = np.atleast_1d(res.x)
    if not np.isfinite(res.fun):
        raise ModeSearchFailure("hyperparameter mode search diverged")

    h = 1e-3 * np.maximum(1.0, np.abs(mode))
    center_val = float(logpost(mode))
    hess = -(logpost(mode + h) - 2.0 * center_val + logpost(mode - h)) / h[0] ** 2
    if not 0.0 < hess < np.inf:
        raise ModeSearchFailure("hyperparameter Hessian is not positive definite")
    # sqrt(1/H), not 1/sqrt(H): the two round differently, and recorded fits use the first
    sd = np.sqrt(1.0 / hess)

    def theta_at(cell):
        return mode + sd * (GRID_DZ * float(cell))

    kept = {0: center_val}
    for sign in (-1, 1):
        for cell in range(sign, sign * (GRID_MAX_STEPS + 1), sign):
            val = float(logpost(theta_at(cell)))
            if not center_val - val <= GRID_DROP_MAX:  # NaN stops the walk too
                break
            kept[cell] = val

    cells = sorted(kept)
    log_vals = np.array([kept[cell] for cell in cells])
    weights = np.exp(log_vals - log_vals.max())
    weights /= weights.sum()
    return [
        GridPoint(theta=theta_at(cell), log_posterior=kept[cell], weight=float(w))
        for cell, w in zip(cells, weights)
    ]


def explore_grid(spec: ModelSpec) -> list[GridPoint]:
    """Weighted hyperparameter grid for the model's theta posterior.

    With no hyperparameters the grid is the single empty configuration with
    weight one.  Otherwise theta = log(tau_u) is scalar and the grid is
    :func:`_grid_from_logpost` of its Laplace log posterior.
    """
    if not spec.n_hyper:
        val = float(log_hyper_posterior(spec, np.zeros(0)))
        points = [GridPoint(theta=np.zeros(0), log_posterior=val, weight=1.0)]
    else:
        cache: dict[bytes, float] = {}

        def logpost(theta):
            theta = np.atleast_1d(np.asarray(theta, dtype=float))
            key = theta.tobytes()
            if key not in cache:
                cache[key] = log_hyper_posterior(spec, theta)
            return cache[key]

        points = _grid_from_logpost(logpost)
    for pt in points:
        if not np.isfinite(pt.log_posterior):
            raise ModeSearchFailure("non-finite log posterior among kept grid points")
    return points


# ---------------------------------------------------------------------------
# marginal refinement
# ---------------------------------------------------------------------------


# Conditional-mode Newton of a refinement node: step budget and reduced-gradient
# max-norm, near its round-off floor at tau_eps = e^15, so it decides which nodes drop.
CONDITIONAL_MAX_ITER = 30
CONDITIONAL_GRAD_TOL = 1e-8
# Refinement: nodes per side, outer nodes' distance in sds, and integration points.
REFINE_HALF_NODES = 4
REFINE_SPAN = 3.5
REFINE_FINE_POINTS = 161


def _conditional_mode(spec: ModelSpec, q: PrecisionMatrix, i: int, value, x_start):
    """Mode of the log joint over x_{-i} with x_i fixed at ``value``.

    Damped Newton on the reduced system; returns (x, log_det of the reduced
    curvature at the mode, objective value).  Raises NoConvergence when the
    iteration budget runs out, or when the curvature at the mode is not
    positive definite.

    Each step factors the reduced curvature once: an LU solve for the Newton
    step while the gradient is above CONDITIONAL_GRAD_TOL, and a Cholesky for
    the log-determinant only at the mode.  Checking positive definiteness at the
    mode alone suffices because every supported likelihood is log-concave in
    eta (its d2 <= 0), so each reduced curvature is a principal submatrix of
    the SPD prior precision plus a nonnegative diagonal, hence SPD.
    """
    n = spec.n_obs
    mask = np.ones(spec.n_latent, dtype=bool)
    mask[i] = False
    q_sub = q.matrix[np.ix_(mask, mask)]

    x = np.array(x_start, dtype=float)
    x[i] = value
    value_obj, d1, d2 = _objective_terms(spec, x, q)
    for _ in range(CONDITIONAL_MAX_ITER):
        grad_full = -(q.matrix @ x)
        grad_full[:n] += d1
        grad = grad_full[mask]
        curv = np.zeros(spec.n_latent)
        curv[:n] = -d2
        h_sub = q_sub + np.diag(curv[mask])

        if np.max(np.abs(grad)) <= CONDITIONAL_GRAD_TOL:
            try:
                low = np.linalg.cholesky(h_sub)
            except np.linalg.LinAlgError:
                raise NoConvergence("reduced curvature not positive definite") from None
            log_det = 2.0 * float(np.sum(np.log(np.diag(low))))
            return x, log_det, value_obj

        # LU, not the Cholesky factor: another solve changes the round-off,
        # and with it which refinement nodes stall and drop
        step_sub = np.linalg.solve(h_sub, grad)
        scale = 1.0
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            cand = x.copy()
            cand[mask] += scale * step_sub
            cand_value, cand_d1, cand_d2 = _objective_terms(spec, cand, q)
            if cand_value >= value_obj:
                break
            scale *= 0.5
        x, value_obj, d1, d2 = cand, cand_value, cand_d1, cand_d2
    raise NoConvergence(f"conditional mode search for component {i} did not converge")


def _cubic_spline():
    """scipy's ``CubicSpline``, imported on first use: only a refinement
    splines, and ``scipy.interpolate`` takes 0.15-0.2 s to import on 2 vCPUs."""
    from scipy.interpolate import CubicSpline

    return CubicSpline


def refine_marginal(spec: ModelSpec, approx: GaussianApprox, i: int) -> MarginalRefinement:
    """Laplace-refined marginal of latent component ``i``, moment-matched.

    Evaluates the marginal on 2 h + 1 abscissae mu_i + j * step, h =
    REFINE_HALF_NODES, step = REFINE_SPAN / h * sigma_i.  At each abscissa
    the conditional mode over the remaining coordinates is re-located
    (warm-started from the neighbouring node) and the full joint density is
    divided by a fresh Gaussian approximation of the conditional at that
    mode.  The normalized refinement yields the mean and skewness; the sd is
    pinned to the Gaussian-approximation marginal sd by construction.
    Skewness is clamped to the tabulated range [-0.99, 0.99].

    Nodes whose inner Newton fails are dropped; if more than 20% drop the
    result is flagged.  Nothing is logged here: the caller reports the flag,
    as fit_model does once per event.
    """
    if not 0 <= i < spec.n_latent:
        raise IndexOutOfRange(f"component {i} outside the latent field")
    q = approx.prior_precision
    mu = approx.mean
    sigma_i = float(approx.marginal_sd()[i])
    offsets = np.arange(-REFINE_HALF_NODES, REFINE_HALF_NODES + 1)
    nodes = mu[i] + offsets * (REFINE_SPAN / REFINE_HALF_NODES) * sigma_i

    log_vals = np.full(nodes.size, np.nan)
    center = REFINE_HALF_NODES
    # walk outward from the center so each solve warm-starts from its neighbour
    order = np.argsort(np.abs(offsets), kind="stable")
    starts = {center: mu}
    dropped = 0
    for k in order:
        j = int(k)
        neighbour = j + (1 if j < center else -1 if j > center else 0)
        x_start = starts.get(j, starts.get(neighbour, mu))
        try:
            x_mode, log_det_sub, value_obj = _conditional_mode(spec, q, i, nodes[j], x_start)
        except NoConvergence:
            dropped += 1
            continue
        starts[j] = x_mode
        # next node outward reuses this solution
        nxt = j - 1 if j < center else j + 1
        if 0 <= nxt < nodes.size:
            starts[nxt] = x_mode
        log_vals[j] = value_obj - 0.5 * log_det_sub

    good = np.isfinite(log_vals)
    if good.sum() < 4:
        raise NoConvergence(f"marginal refinement for component {i} lost too many nodes")
    flagged = dropped > 0.2 * nodes.size

    spline = _cubic_spline()(nodes[good], log_vals[good] - np.max(log_vals[good]))
    xs = np.linspace(nodes[good][0], nodes[good][-1], REFINE_FINE_POINTS)
    dens = np.exp(spline(xs))
    mass = np.trapezoid(dens, xs)
    dens /= mass
    mean = np.trapezoid(xs * dens, xs)
    var = np.trapezoid((xs - mean) ** 2 * dens, xs)
    third = np.trapezoid((xs - mean) ** 3 * dens, xs)
    gamma = third / var**1.5 if var > 0 else 0.0
    gamma = float(np.clip(gamma, -GAMMA_CLAMP, GAMMA_CLAMP))
    return MarginalRefinement(
        index=i,
        mean=float(mean),
        sd=sigma_i,
        skewness=gamma,
        dropped_nodes=dropped,
        flagged=flagged,
    )


# ---------------------------------------------------------------------------
# full fit
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    """Fitted posterior: grid, per-configuration Gaussian approximations and
    refined marginal summaries.

    ``mutilde``, ``sigma`` and ``gamma`` are (K, N) arrays over K grid points
    and N latent components; row k parameterizes the corrected approximation
    of pi(x | theta_k, y).
    """

    spec: ModelSpec
    grid: list[GridPoint]
    approximations: list[GaussianApprox]
    mutilde: np.ndarray
    sigma: np.ndarray
    gamma: np.ndarray
    names: list[str]
    warnings: list[str] = field(default_factory=list)
    _covariance_stack: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        """Raise DimensionMismatch unless K grid points, K approximations of
        N means and curvatures, (K, N) arrays and N names agree."""
        k = len(self.grid)
        n = len(self.names) if self.spec is None else self.spec.n_latent
        shapes = [np.shape(a) for a in (self.mutilde, self.sigma, self.gamma)]
        shapes.append((len(self.approximations), len(self.names)))
        shapes += [(k, *np.shape(v)) for ga in self.approximations for v in (ga.mean, ga.curvature)]
        if any(shape != (k, n) for shape in shapes):
            raise DimensionMismatch(
                f"fit parts disagree in shape: {sorted(set(shapes))}, all should be {(k, n)}"
            )

    @property
    def n_config(self) -> int:
        return len(self.grid)

    @property
    def weights(self) -> np.ndarray:
        return np.array([pt.weight for pt in self.grid])

    def covariance_stack(self) -> np.ndarray:
        """(K, N, N) dense covariances of all grid configurations, cached.

        No package path builds this stack: ``lincomb`` reads the covariances
        one configuration at a time from each ``GaussianApprox.covariance()``
        and mixes them as they arrive.  It stays for callers that want every
        configuration at once, such as the benchmark's traced lincomb span.
        """
        if self._covariance_stack is None:
            self._covariance_stack = np.stack([ga.covariance() for ga in self.approximations])
        return self._covariance_stack

    def sgc(self, k: int):
        """Skew-corrected full conditional approximation at grid point k."""
        if not 0 <= k < self.n_config:
            raise IndexOutOfRange(f"grid point {k} outside 0..{self.n_config - 1}")
        from .sgc import FullConditionalSGC

        ga = self.approximations[k]
        return FullConditionalSGC(
            mu=ga.mean,
            precision=ga.precision,
            mutilde=self.mutilde[k],
            gamma=self.gamma[k],
            sigma=self.sigma[k],
        )

    def marginal_density(self, i: int, xs: np.ndarray) -> np.ndarray:
        """Mixture density of latent component i over the hyperparameter grid.

        Each configuration contributes its refined skew-normal marginal
        weighted by the configuration's posterior mass.
        """
        from .skewnormal import sn_params_from_moments, sn_pdf

        if not 0 <= i < self.spec.n_latent:
            raise IndexOutOfRange(f"component {i} outside the latent field")
        xs = np.asarray(xs, dtype=float)
        dens = np.zeros_like(xs)
        for k, pt in enumerate(self.grid):
            params = sn_params_from_moments(
                self.mutilde[k, i], self.sigma[k, i] ** 2, self.gamma[k, i]
            )
            dens += pt.weight * sn_pdf(params, xs)
        return dens


# ---------------------------------------------------------------------------
# refinement tasks
# ---------------------------------------------------------------------------

def _refine_task(spec: ModelSpec, approxes: list[GaussianApprox], task: tuple[int, int]):
    """The refinement task: component i at grid point k for ``task = (k, i)``,
    or None where :class:`NoConvergence` skips it."""
    k, i = task
    try:
        return refine_marginal(spec, approxes[k], i)
    except NoConvergence:
        return None


def fit_model(spec: ModelSpec, components: np.ndarray | None = None) -> FitResult:
    """Full inference pass: grid exploration, Gaussian approximations and
    skew-normal marginal refinement at every grid point.

    ``components`` restricts refinement to a subset of latent indices: all
    of them by default, none for ``()``.  The rest keep their
    Gaussian-approximation mean and zero skewness.  For the Gaussian family
    refinement is exact up to quadrature noise, so the corrected parameters
    collapse onto the Gaussian approximation.

    The Gaussian approximations run in grid order, each warm-started from
    the previous mode.  The (grid point, component) refinements are
    independent and run as one task list, on the cores the BLAS leaves idle
    (:func:`parallel.map_tasks`); results and warnings keep task order, and
    the fit is the same bit for bit however many processes ran it.
    """
    grid = explore_grid(spec)
    approxes = []
    warnings: list[str] = []
    big_n = spec.n_latent
    k_count = len(grid)
    mutilde = np.empty((k_count, big_n))
    sigma = np.empty((k_count, big_n))
    gamma = np.zeros((k_count, big_n))

    x_warm = None
    for k, pt in enumerate(grid):
        ga = gaussian_approximation(spec, pt.theta, x0=x_warm)
        if not ga.converged:
            raise NoConvergence(f"gaussian approximation failed at grid point {k}")
        x_warm = ga.mean
        approxes.append(ga)
        mutilde[k] = ga.mean
        # caches the covariance, which every refinement at k reads
        sigma[k] = ga.marginal_sd()

    todo = np.arange(big_n) if components is None else np.asarray(components, dtype=int)
    tasks = [(k, int(i)) for k in range(k_count) for i in todo]
    if tasks:
        _cubic_spline()  # imported here, the pool's children inherit it
    refinements = parallel.map_tasks(partial(_refine_task, spec, approxes), tasks)
    for (k, i), ref in zip(tasks, refinements):
        if ref is None:
            warnings.append(f"refinement skipped for component {i} at grid point {k}")
            continue
        mutilde[k, i] = ref.mean
        gamma[k, i] = ref.skewness
        if ref.flagged:
            warnings.append(
                f"component {i} at grid point {k}: "
                f"{ref.dropped_nodes} refinement nodes dropped"
            )
    for msg in warnings:
        logger.warning(msg)
    return FitResult(
        spec=spec,
        grid=grid,
        approximations=approxes,
        mutilde=mutilde,
        sigma=sigma,
        gamma=gamma,
        names=list(spec.component_names),
        warnings=warnings,
    )
