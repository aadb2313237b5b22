"""Observation models and the latent Gaussian field they sit on.

A model couples a vector of responses to a structured additive predictor

    eta_i = beta_0 + z_i . beta + u_{g(i)} + eps_i,

with fixed effects ``beta`` (Gaussian priors with known precisions), an
optional iid random effect ``u`` of size m whose precision carries a
Gamma(a, b) prior, and a tiny Gaussian jitter ``eps`` with a large fixed
precision ``tau_epsilon`` that keeps the joint latent field proper.  The
latent vector is ordered

    x = (eta_1 .. eta_n, intercept, fixed effects, u_1 .. u_m)

and its prior precision matrix is assembled blockwise from the same
quadratic form.  Likelihoods expose log density values together with first
and second derivatives in eta, which the Gaussian approximation and the
marginal refinements consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, gammaln

from .errors import DimensionMismatch, DomainError, InvalidSpec
from .gmrf import _LOG_2PI, PrecisionMatrix

#: Default predictor-noise precision exp(15); large enough that the jitter is
#: negligible against any realistic posterior scale, small enough that the
#: joint precision stays comfortably factorizable in double precision.
DEFAULT_TAU_EPSILON = float(np.exp(15.0))


class GaussianLikelihood:
    """Gaussian observations with known precision tau."""

    name = "gaussian"

    def __init__(self, tau: float = 1.0):
        if tau <= 0:
            raise DomainError("gaussian observation precision must be positive")
        self.tau = float(tau)

    def validate(self, y, trials):
        return None

    def loglik(self, y, eta, trials=None):
        resid = y - eta
        ll = 0.5 * (np.log(self.tau) - _LOG_2PI) - 0.5 * self.tau * resid**2
        d1 = self.tau * resid
        d2 = np.full_like(eta, -self.tau)
        return ll, d1, d2


class PoissonLikelihood:
    """Poisson counts with log link: y_i ~ Poisson(exp(eta_i))."""

    name = "poisson"

    def validate(self, y, trials):
        if np.any(y < 0) or np.any(y != np.floor(y)):
            raise DomainError("poisson responses must be nonnegative integers")

    def loglik(self, y, eta, trials=None):
        rate = np.exp(eta)
        ll = y * eta - rate - gammaln(y + 1.0)
        d1 = y - rate
        return ll, d1, -rate


class BinomialLikelihood:
    """Binomial counts with logit link: y_i ~ Binomial(m_i, expit(eta_i))."""

    name = "binomial"

    def validate(self, y, trials):
        m = np.ones_like(np.asarray(y, dtype=float)) if trials is None else trials
        if np.any(m < 1) or np.any(m != np.floor(m)):
            raise DomainError("binomial trial counts must be positive integers")
        if np.any(y < 0) or np.any(y > m) or np.any(y != np.floor(y)):
            raise DomainError("binomial responses must be integers in [0, trials]")

    def loglik(self, y, eta, trials=None):
        m = np.ones_like(y) if trials is None else trials
        p = expit(eta)
        ll = (
            y * eta
            - m * np.logaddexp(0.0, eta)
            + gammaln(m + 1.0)
            - gammaln(y + 1.0)
            - gammaln(m - y + 1.0)
        )
        pq = p * (1.0 - p)
        d1 = y - m * p
        d2 = -m * pq
        return ll, d1, d2


_FAMILIES = {
    "gaussian": GaussianLikelihood,
    "poisson": PoissonLikelihood,
    "binomial": BinomialLikelihood,
}


def make_family(name: str, **kwargs):
    """Build a likelihood family by name ('gaussian', 'poisson', 'binomial')."""
    try:
        cls = _FAMILIES[name]
    except KeyError:
        raise InvalidSpec(f"unknown likelihood family {name!r}") from None
    return cls(**kwargs)


def as_flag(name: str, value) -> bool:
    """``value`` as a bool; anything but a Python or NumPy bool raises
    InvalidSpec, so that the JSON string "false" is not read as true."""
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidSpec(f"{name} must be true or false, not {value!r}")
    return bool(value)


@dataclass(frozen=True)
class ModelSpec:
    """Validated model description.

    Parameters
    ----------
    family : likelihood object
        One of the family classes above (see :func:`make_family`).
    y : array of length n
        Responses.
    covariates : (n, n_J) array, optional
        Fixed-effect design without the intercept column.
    covariate_names : names for the covariate columns.
    trials : optional array of binomial trial counts (defaults to 1).
    group : optional length-n integer array with values in [0, n_groups)
        mapping observations to iid random-effect levels.
    intercept : include an intercept column (a bool, default True).
    tau_beta : prior precision for the fixed effects; scalar or one value
        per fixed effect (intercept first).
    re_prior : (a, b) of the Gamma prior on the random-effect precision.
    tau_epsilon : predictor-noise precision.
    constraints : tuple of LinearConstraint on the latent field.
    """

    family: object
    y: np.ndarray
    covariates: np.ndarray | None = None
    covariate_names: tuple = ()
    trials: np.ndarray | None = None
    group: np.ndarray | None = None
    n_groups: int = 0
    intercept: bool = True
    tau_beta: object = 0.001
    re_prior: tuple = (0.1, 0.1)
    tau_epsilon: float = DEFAULT_TAU_EPSILON
    constraints: tuple = ()

    def __post_init__(self):
        try:
            self._convert_fields()
        except (TypeError, ValueError) as err:
            raise InvalidSpec(f"malformed model value: {err}") from None
        self.family.validate(self.y, self.trials)
        if self.n_fixed == 0 and self.n_groups == 0:
            raise InvalidSpec("model has no latent structure beyond the predictor noise")

    def _convert_fields(self):
        """Convert and check every field in place.  A value that does not
        convert raises TypeError or ValueError; the checks raise InvalidSpec."""
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if y.ndim != 1 or y.size == 0:
            raise InvalidSpec("y must be a nonempty vector")
        n = y.size
        object.__setattr__(self, "y", y)

        z = self.covariates
        if z is None:
            z = np.zeros((n, 0))
        z = np.asarray(z, dtype=float)
        if z.ndim == 1:
            z = z[:, None]
        if z.shape[0] != n:
            raise InvalidSpec(f"covariates have {z.shape[0]} rows for {n} observations")
        object.__setattr__(self, "covariates", z)

        names = tuple(self.covariate_names) or tuple(f"x{j + 1}" for j in range(z.shape[1]))
        if len(names) != z.shape[1]:
            raise InvalidSpec("one covariate name per column is required")
        object.__setattr__(self, "covariate_names", names)

        if self.trials is not None:
            t = np.asarray(self.trials, dtype=float)
            if t.shape != (n,):
                raise InvalidSpec("trials must match the response length")
            object.__setattr__(self, "trials", t)

        g = self.group
        if g is not None:
            g = np.asarray(g)
            if g.shape != (n,) or np.any(g != np.floor(g)):
                raise InvalidSpec("group must be a length-n integer vector")
            g = g.astype(int)
            m = int(self.n_groups) if self.n_groups else int(g.max()) + 1
            if g.min() < 0 or g.max() >= m:
                raise InvalidSpec(f"group indices must lie in [0, {m})")
            object.__setattr__(self, "group", g)
            object.__setattr__(self, "n_groups", m)
        else:
            object.__setattr__(self, "n_groups", 0)
        object.__setattr__(self, "intercept", as_flag("intercept", self.intercept))

        p = self.n_fixed
        tb = np.atleast_1d(np.asarray(self.tau_beta, dtype=float))
        if tb.size == 1:
            tb = np.full(p, tb[0])
        if tb.shape != (p,):
            raise InvalidSpec(f"tau_beta needs 1 or {p} entries")
        if np.any(tb <= 0):
            raise InvalidSpec("fixed-effect prior precisions must be positive")
        object.__setattr__(self, "tau_beta", tb)

        a, b = self.re_prior
        if a <= 0 or b <= 0:
            raise InvalidSpec("Gamma prior parameters must be positive")
        object.__setattr__(self, "re_prior", (float(a), float(b)))

        tau_epsilon = float(self.tau_epsilon)
        if tau_epsilon <= 0:
            raise InvalidSpec("tau_epsilon must be positive")
        object.__setattr__(self, "tau_epsilon", tau_epsilon)

        cons = tuple(self.constraints)
        for con in cons:
            if con.dim != self.n_latent:
                raise InvalidSpec(
                    f"constraint acts on dimension {con.dim}, latent field has {self.n_latent}"
                )
        object.__setattr__(self, "constraints", cons)

    # -- derived sizes ---------------------------------------------------

    @property
    def n_obs(self) -> int:
        return self.y.size

    @property
    def n_fixed(self) -> int:
        return int(self.intercept) + self.covariates.shape[1]

    @property
    def n_latent(self) -> int:
        return self.n_obs + self.n_fixed + self.n_groups

    @property
    def n_hyper(self) -> int:
        """Hyperparameter dimension: 1 when a random effect is present."""
        return 1 if self.n_groups else 0

    @property
    def component_names(self) -> tuple:
        names = [f"eta_{i + 1}" for i in range(self.n_obs)]
        if self.intercept:
            names.append("intercept")
        names.extend(f"beta_{c}" for c in self.covariate_names)
        names.extend(f"u_{l + 1}" for l in range(self.n_groups))
        return tuple(names)

    # -- design pieces ---------------------------------------------------

    def fixed_design(self) -> np.ndarray:
        """n x n_fixed design including the intercept column."""
        cols = []
        if self.intercept:
            cols.append(np.ones((self.n_obs, 1)))
        if self.covariates.shape[1]:
            cols.append(self.covariates)
        if not cols:
            return np.zeros((self.n_obs, 0))
        return np.hstack(cols)

    def group_design(self) -> np.ndarray:
        """n x n_groups indicator matrix of random-effect membership."""
        d = np.zeros((self.n_obs, self.n_groups))
        if self.n_groups:
            d[np.arange(self.n_obs), self.group] = 1.0
        return d

    # -- hyperparameter prior -------------------------------------------

    def log_prior_theta(self, theta) -> float:
        """Log prior density of theta = log(tau_u), Jacobian included."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.size != self.n_hyper:
            raise DimensionMismatch(
                f"theta has {theta.size} entries, model has {self.n_hyper} hyperparameters"
            )
        if not self.n_hyper:
            return 0.0
        a, b = self.re_prior
        t = float(theta[0])
        # Gamma(a, b) on tau = exp(theta) plus the log-scale Jacobian
        return a * np.log(b) - gammaln(a) + a * t - b * np.exp(t)


def assemble_precision(spec: ModelSpec, theta=()) -> PrecisionMatrix:
    """Prior precision matrix of the latent field at hyperparameters theta.

    The quadratic form behind the blocks is

        tau_eps ||eta - B beta - D u||^2 + beta' T_b beta + tau_u ||u||^2

    with B the fixed-effect design (intercept first), D the group indicator
    matrix and tau_u = exp(theta_1) when a random effect is present.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.size != spec.n_hyper:
        raise DimensionMismatch(
            f"theta has {theta.size} entries, model has {spec.n_hyper} hyperparameters"
        )
    n, p, m = spec.n_obs, spec.n_fixed, spec.n_groups
    te = spec.tau_epsilon
    b = spec.fixed_design()
    d = spec.group_design()

    big = np.zeros((spec.n_latent, spec.n_latent))
    sl_eta = slice(0, n)
    sl_b = slice(n, n + p)
    sl_u = slice(n + p, n + p + m)

    big[sl_eta, sl_eta] = te * np.eye(n)
    big[sl_eta, sl_b] = -te * b
    big[sl_b, sl_eta] = -te * b.T
    big[sl_b, sl_b] = np.diag(spec.tau_beta) + te * (b.T @ b)
    if m:
        tau_u = float(np.exp(theta[0]))
        big[sl_eta, sl_u] = -te * d
        big[sl_u, sl_eta] = -te * d.T
        big[sl_b, sl_u] = te * (b.T @ d)
        big[sl_u, sl_b] = te * (d.T @ b)
        big[sl_u, sl_u] = tau_u * np.eye(m) + te * (d.T @ d)
    return PrecisionMatrix(big)
