"""Likelihood derivatives and prior precision assembly."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from sgcinla import (
    DomainError,
    InvalidSpec,
    ModelSpec,
    assemble_precision,
    make_family,
)
from sgcinla.gmrf import covariance_from_precision, factorize


def fd4(f, x, h):
    """Fourth-order central difference."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


@pytest.mark.parametrize(
    "family,kwargs,y,trials",
    [
        ("gaussian", {"tau": 2.5}, np.array([0.3, -1.2, 4.0]), None),
        ("poisson", {}, np.array([0.0, 3.0, 11.0]), None),
        ("binomial", {}, np.array([0.0, 1.0, 1.0]), None),
        ("binomial", {}, np.array([2.0, 7.0, 0.0]), np.array([4.0, 10.0, 3.0])),
    ],
)
def test_derivatives_match_finite_differences(family, kwargs, y, trials):
    fam = make_family(family, **kwargs)
    etas = np.linspace(-5.0, 5.0, 21)
    h = 1e-3
    for eta in etas:
        e = np.full_like(y, eta)
        ll, d1, d2 = fam.loglik(y, e, trials)

        def f0(v):
            return fam.loglik(y, np.full_like(y, v), trials)[0]

        def f1(v):
            return fam.loglik(y, np.full_like(y, v), trials)[1]

        for got, ref in ((d1, fd4(f0, eta, h)), (d2, fd4(f1, eta, h))):
            denom = np.maximum(np.abs(ref), 1.0)
            assert np.max(np.abs(got - ref) / denom) < 1e-6


def test_poisson_curvature_is_minus_the_rate():
    fam = make_family("poisson")
    eta = np.linspace(-3, 3, 13)
    _, _, d2 = fam.loglik(np.ones_like(eta), eta)
    assert np.max(np.abs(d2 + np.exp(eta))) < 1e-12


def test_binomial_curvature_closed_form():
    fam = make_family("binomial")
    eta = np.array([0.0, 1.3, -2.0])
    m = np.array([5.0, 2.0, 7.0])
    _, _, d2 = fam.loglik(np.array([1.0, 1.0, 1.0]), eta, m)
    p = 1.0 / (1.0 + np.exp(-eta))
    assert np.max(np.abs(d2 + m * p * (1 - p))) < 1e-12


def test_domain_errors():
    with pytest.raises(DomainError):
        ModelSpec(family=make_family("poisson"), y=[-1.0, 2.0], intercept=True)
    with pytest.raises(DomainError):
        ModelSpec(
            family=make_family("binomial"),
            y=[3.0, 1.0],
            trials=[2.0, 2.0],
            intercept=True,
        )
    with pytest.raises(DomainError):
        make_family("gaussian", tau=-1.0)


def test_unknown_family_rejected():
    with pytest.raises(InvalidSpec):
        make_family("student")


def test_spec_requires_some_structure():
    with pytest.raises(InvalidSpec):
        ModelSpec(family=make_family("poisson"), y=[1.0, 2.0], intercept=False)


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [True]])
def test_intercept_must_be_a_bool(value):
    with pytest.raises(InvalidSpec, match="intercept must be true or false"):
        ModelSpec(family=make_family("poisson"), y=[1.0, 2.0], group=[0, 1], intercept=value)


def test_intercept_takes_a_numpy_bool():
    spec = ModelSpec(family=make_family("poisson"), y=[1.0, 2.0], group=[0, 1], intercept=np.False_)
    assert spec.intercept is False and spec.n_fixed == 0


def test_group_indices_validated():
    with pytest.raises(InvalidSpec):
        ModelSpec(
            family=make_family("poisson"),
            y=[1.0, 2.0],
            group=[0, 5],
            n_groups=2,
        )


def test_assemble_precision_intercept_only_frozen():
    spec = ModelSpec(
        family=make_family("poisson"),
        y=[1.0, 2.0],
        intercept=True,
        tau_beta=0.001,
        tau_epsilon=1.0,
    )
    q = assemble_precision(spec).matrix
    expected = np.array(
        [
            [1.0, 0.0, -1.0],
            [0.0, 1.0, -1.0],
            [-1.0, -1.0, 2.001],
        ]
    )
    assert np.max(np.abs(q - expected)) < 1e-12


def test_assemble_precision_single_covariate_pattern():
    # one observation, intercept and one covariate with value 1: the
    # magnitude pattern is tau on the diagonal predictor block, tau on the
    # couplings and tau_beta + tau in the coefficient corners
    tau = 2.0
    spec = ModelSpec(
        family=make_family("poisson"),
        y=[1.0],
        covariates=[[1.0]],
        intercept=True,
        tau_beta=0.001,
        tau_epsilon=tau,
    )
    q = assemble_precision(spec).matrix
    assert q.shape == (3, 3)
    assert abs(q[0, 0] - tau) < 1e-12
    assert abs(abs(q[0, 1]) - tau) < 1e-12
    assert abs(abs(q[0, 2]) - tau) < 1e-12
    assert abs(q[1, 1] - (0.001 + tau)) < 1e-12
    assert abs(q[2, 2] - (0.001 + tau)) < 1e-12
    # couplings must be negative: eta moves with the coefficients
    assert q[0, 1] < 0 and q[0, 2] < 0


def make_re_spec(tau_epsilon=np.exp(15.0)):
    rng = np.random.default_rng(0)
    return ModelSpec(
        family=make_family("poisson"),
        y=np.arange(6, dtype=float),
        covariates=rng.standard_normal((6, 1)),
        group=[0, 0, 1, 1, 2, 2],
        n_groups=3,
        tau_beta=0.001,
        tau_epsilon=tau_epsilon,
    )


def test_assemble_precision_positive_definite_over_prior_range():
    from scipy.stats import gamma as gamma_dist

    # a Gamma(1, 1) precision prior: the whole central 95% band factorizes
    rng = np.random.default_rng(0)
    spec = ModelSpec(
        family=make_family("poisson"),
        y=np.arange(6, dtype=float),
        covariates=rng.standard_normal((6, 1)),
        group=[0, 0, 1, 1, 2, 2],
        n_groups=3,
        re_prior=(1.0, 1.0),
        tau_epsilon=10.0,
    )
    taus = gamma_dist(1.0, scale=1.0).ppf(np.linspace(0.025, 0.975, 5))
    for tau in taus:
        factorize(assemble_precision(spec, [np.log(tau)]))

    # the default Gamma(0.1, 0.1) prior puts its lower 2.5% point at
    # tau ~ 5e-16, where no double-precision Cholesky can certify the
    # (mathematically positive definite) matrix; the informative part of
    # the band factorizes fine
    spec = make_re_spec(tau_epsilon=10.0)
    a, b = spec.re_prior
    taus = gamma_dist(a, scale=1.0 / b).ppf(np.linspace(0.25, 0.975, 5))
    for tau in taus:
        factorize(assemble_precision(spec, [np.log(tau)]))


def test_precision_matches_factorized_prior_density():
    # the Gaussian with the assembled precision must equal the generative
    # factorization eta | beta, u times beta times u evaluated pointwise
    spec = make_re_spec(tau_epsilon=7.0)
    theta = [0.4]
    q = assemble_precision(spec, theta)
    n, p, m = spec.n_obs, spec.n_fixed, spec.n_groups
    rng = np.random.default_rng(4)
    mvn = multivariate_normal(mean=np.zeros(spec.n_latent), cov=covariance_from_precision(q))
    b_design = spec.fixed_design()
    d_design = spec.group_design()
    tau_u = np.exp(theta[0])
    for _ in range(5):
        x = rng.standard_normal(spec.n_latent)
        eta, beta, u = x[:n], x[n : n + p], x[n + p :]
        resid = eta - b_design @ beta - d_design @ u
        ref = (
            0.5 * n * np.log(spec.tau_epsilon / (2 * np.pi))
            - 0.5 * spec.tau_epsilon * resid @ resid
            + 0.5 * np.sum(np.log(spec.tau_beta / (2 * np.pi)))
            - 0.5 * np.sum(spec.tau_beta * beta**2)
            + 0.5 * m * np.log(tau_u / (2 * np.pi))
            - 0.5 * tau_u * u @ u
        )
        assert abs(mvn.logpdf(x) - ref) < 1e-6


def test_component_names_layout():
    spec = make_re_spec()
    names = spec.component_names
    assert names[:6] == tuple(f"eta_{i}" for i in range(1, 7))
    assert names[6] == "intercept"
    assert names[7] == "beta_x1"
    assert names[8:] == ("u_1", "u_2", "u_3")
    assert len(names) == spec.n_latent


def test_log_prior_theta_is_gamma_with_jacobian():
    spec = make_re_spec()
    a, b = spec.re_prior
    from scipy.stats import gamma as gamma_dist

    for t in (-1.0, 0.0, 2.0):
        ref = gamma_dist(a, scale=1.0 / b).logpdf(np.exp(t)) + t
        assert abs(spec.log_prior_theta([t]) - ref) < 1e-12


@pytest.mark.parametrize(
    "family,kwargs,y,trials",
    [
        ("gaussian", {"tau": 2.5}, np.array([0.3, -1.2, 4.0]), None),
        ("poisson", {}, np.array([0.0, 3.0, 11.0]), None),
        ("binomial", {}, np.array([0.0, 1.0, 1.0]), None),
        ("binomial", {}, np.array([0.0, 2.0, 7.0]), np.array([3.0, 5.0, 7.0])),
    ],
)
def test_loglik_is_concave_in_eta(family, kwargs, y, trials):
    # every reduced Newton curvature is then a principal submatrix of the SPD
    # prior precision plus a nonnegative diagonal, so it is SPD as well
    fam = make_family(family, **kwargs)
    eta = np.linspace(-30.0, 30.0, 6001)
    for k in range(y.size):
        m = None if trials is None else np.full_like(eta, trials[k])
        _, _, d2 = fam.loglik(np.full_like(eta, y[k]), eta, m)
        assert np.all(d2 <= 0.0)
