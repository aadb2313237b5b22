"""Mode finding, hyperparameter grids and marginal refinement."""

import dataclasses

import numpy as np
import pytest
from scipy import integrate, optimize, stats

from sgcinla import engine, rng
from sgcinla.artifacts import save_fit
from sgcinla.engine import (
    FitResult,
    GridPoint,
    _conditional_mode,
    _grid_from_logpost,
    explore_grid,
    fit_model,
    gaussian_approximation,
    log_hyper_posterior,
    refine_marginal,
)
from sgcinla.errors import IndexOutOfRange, NoConvergence
from sgcinla.gmrf import LinearConstraint
from sgcinla.model import ModelSpec, make_family


def poisson_one_node():
    """Single Poisson count y=3 with a unit-precision intercept prior."""
    return ModelSpec(make_family("poisson"), y=[3], tau_beta=1.0)


def gaussian_regression():
    gen = rng.stream(77)
    n = 20
    z = gen.normal(size=n)
    y = 0.5 - 1.2 * z + gen.normal(size=n) * 0.7
    return ModelSpec(
        make_family("gaussian", tau=1 / 0.49),
        y=y,
        covariates=z,
        covariate_names=("z",),
        tau_beta=0.5,
    )


def gaussian_mixed():
    gen = rng.stream(501)
    grp = np.repeat(np.arange(5), 6)
    u = gen.normal(size=5)
    y = 1.0 + u[grp] + gen.normal(size=grp.size) * 0.6
    return ModelSpec(
        make_family("gaussian", tau=1 / 0.36),
        y=y,
        group=grp,
        tau_beta=0.5,
        re_prior=(1.0, 1.0),
    )


def poisson_mixed():
    gen = rng.stream(909)
    grp = np.repeat(np.arange(6), 5)
    u = gen.normal(size=6) * 0.8
    y = gen.poisson(np.exp(0.4 + u[grp])).astype(float)
    return ModelSpec(make_family("poisson"), y=y, group=grp, tau_beta=0.5)


def poisson_61():
    """The N=61 Poisson random-intercept fixture of the acceptance tests."""
    gen = rng.stream(51)
    grp = np.repeat(np.arange(10), 5)
    u = gen.normal(size=10) * 1.5
    y = gen.poisson(np.exp(u[grp])).astype(float)
    return ModelSpec(make_family("poisson"), y=y, group=grp, tau_beta=0.5, re_prior=(1.0, 0.5))


# ---------------------------------------------------------------------------
# mode finding
# ---------------------------------------------------------------------------


def test_gaussian_likelihood_converges_in_one_iteration():
    ga = gaussian_approximation(gaussian_regression())
    assert ga.converged
    assert ga.iterations == 1


def test_gaussian_mode_matches_generalized_least_squares():
    spec = gaussian_regression()
    ga = gaussian_approximation(spec)
    b = spec.fixed_design()
    veff = 0.49 + np.exp(-15.0)  # observation variance plus the linking noise
    a = b.T @ b / veff + 0.5 * np.eye(2)
    bhat = np.linalg.solve(a, b.T @ spec.y / veff)
    np.testing.assert_allclose(ga.mean[spec.n_obs :], bhat, atol=1e-8)
    np.testing.assert_allclose(ga.mean[: spec.n_obs], b @ bhat, atol=1e-6)


def test_poisson_one_node_mode():
    # the linear predictor mode solves 3 - exp(m) - m = 0
    ga = gaussian_approximation(poisson_one_node())
    assert ga.converged
    root = optimize.brentq(lambda m: 3 - np.exp(m) - m, 0.0, 2.0, xtol=1e-14)
    assert root == pytest.approx(0.792059968, abs=1e-8)
    assert ga.mean[0] == pytest.approx(root, abs=1e-6)
    assert ga.mean[1] == pytest.approx(root, abs=1e-4)  # intercept tracks eta


def test_poisson_curvature_is_rate_at_mode():
    spec = poisson_one_node()
    ga = gaussian_approximation(spec)
    assert ga.curvature[0] == pytest.approx(np.exp(ga.mean[0]), rel=1e-9)
    assert ga.curvature[1] == 0.0  # only observation coordinates carry curvature


def test_mode_respects_sum_to_zero_constraint():
    base = gaussian_mixed()
    c = np.zeros((1, base.n_latent))
    c[0, base.n_obs + base.n_fixed :] = 1.0
    spec = ModelSpec(
        base.family,
        y=base.y,
        group=base.group,
        tau_beta=0.5,
        re_prior=(1.0, 1.0),
        constraints=(LinearConstraint(c, np.zeros(1)),),
    )
    ga = gaussian_approximation(spec, theta=[0.0])
    assert ga.converged
    assert abs(c[0] @ ga.mean) < 1e-8


def test_covariance_is_cached_and_consistent():
    ga = gaussian_approximation(gaussian_regression())
    cov = ga.covariance()
    assert cov is ga.covariance()
    np.testing.assert_allclose(cov @ ga.precision.matrix, np.eye(cov.shape[0]), atol=1e-6)
    assert np.all(ga.marginal_sd() > 0)


# ---------------------------------------------------------------------------
# hyperparameter posterior
# ---------------------------------------------------------------------------


def test_log_hyper_posterior_exact_for_gaussian():
    # with Gaussian observations the Laplace ratio equals the marginal
    # likelihood, available in closed form after integrating the field
    spec = gaussian_regression()
    b = spec.fixed_design()
    n = spec.n_obs
    veff = 0.49 + np.exp(-15.0)
    cov = b @ (2.0 * np.eye(2)) @ b.T + veff * np.eye(n)
    exact = stats.multivariate_normal.logpdf(spec.y, np.zeros(n), cov)
    assert log_hyper_posterior(spec) == pytest.approx(exact, abs=1e-6)


def test_log_hyper_posterior_near_poisson_evidence():
    spec = poisson_one_node()
    var = 1.0 + np.exp(-15.0)

    def integrand(x):
        return stats.norm.pdf(x, 0.0, np.sqrt(var)) * stats.poisson.pmf(3, np.exp(x))

    evidence, _ = integrate.quad(integrand, -12, 8, limit=200)
    assert log_hyper_posterior(spec) == pytest.approx(np.log(evidence), abs=0.02)


def test_log_hyper_posterior_matches_marginal_likelihood_per_theta():
    spec = gaussian_mixed()
    b, d = spec.fixed_design(), spec.group_design()
    n = spec.n_obs

    def oracle(t):
        cov = b @ b.T / 0.5 + d @ d.T * np.exp(-t) + (0.36 + np.exp(-15.0)) * np.eye(n)
        logpdf = stats.multivariate_normal.logpdf(spec.y, np.zeros(n), cov)
        return logpdf + (t - np.exp(t))  # Gamma(1,1) prior on the log scale

    for t in (-1.0, 0.0, 1.0):
        assert log_hyper_posterior(spec, [t]) == pytest.approx(oracle(t), abs=1e-6)


def test_log_hyper_posterior_raises_without_convergence():
    spec = poisson_one_node()
    bad = gaussian_approximation(spec, max_iter=1, grad_tol=1e-300)
    assert not bad.converged
    with pytest.raises(NoConvergence):
        log_hyper_posterior(spec, approx=bad)


# ---------------------------------------------------------------------------
# grid exploration
# ---------------------------------------------------------------------------


def test_grid_without_hyperparameters_is_single_point():
    grid = explore_grid(poisson_one_node())
    assert len(grid) == 1
    assert grid[0].weight == 1.0
    assert grid[0].theta.size == 0
    assert np.isfinite(grid[0].log_posterior)


def test_grid_recovers_quadratic_in_one_dimension():
    pts = _grid_from_logpost(lambda t: -0.5 * ((t[0] - 1.3) / 0.6) ** 2, 1, np.zeros(1))
    thetas = np.array([p.theta[0] for p in pts])
    weights = np.array([p.weight for p in pts])
    # spacing 0.75 in standardized units keeps exactly |z| <= sqrt(5)
    assert len(pts) == 5
    np.testing.assert_allclose(thetas, 1.3 + 0.75 * 0.6 * np.arange(-2, 3), atol=1e-5)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert thetas @ weights == pytest.approx(1.3, abs=1e-4)
    assert np.all(np.diff(thetas) > 0)


def test_grid_recovers_quadratic_in_two_dimensions():
    a = np.array([[2.0, 0.6], [0.6, 1.0]])
    mean = np.array([0.5, -0.25])

    def logpost(t):
        d = np.asarray(t) - mean
        return -0.5 * d @ a @ d

    pts = _grid_from_logpost(logpost, 2, np.zeros(2))
    weights = np.array([p.weight for p in pts])
    thetas = np.array([p.theta for p in pts])
    assert len(pts) == 25  # lattice norms up to 8 survive the 2.5 drop rule
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(weights @ thetas, mean, atol=1e-3)


def test_grid_weighted_mean_tracks_quadrature():
    spec = gaussian_mixed()
    b, d = spec.fixed_design(), spec.group_design()
    n = spec.n_obs

    def oracle(t):
        cov = b @ b.T / 0.5 + d @ d.T * np.exp(-t) + (0.36 + np.exp(-15.0)) * np.eye(n)
        return stats.multivariate_normal.logpdf(spec.y, np.zeros(n), cov) + (t - np.exp(t))

    ts = np.linspace(-5, 5, 2001)
    lv = np.array([oracle(t) for t in ts])
    dens = np.exp(lv - lv.max())
    dens /= np.trapezoid(dens, ts)
    mean_q = np.trapezoid(ts * dens, ts)
    sd_q = np.sqrt(np.trapezoid((ts - mean_q) ** 2 * dens, ts))

    grid = explore_grid(spec)
    thetas = np.array([p.theta[0] for p in grid])
    weights = np.array([p.weight for p in grid])
    assert np.all(np.diff(thetas) > 0)
    assert abs(thetas @ weights - mean_q) < 0.1 * sd_q


def test_grid_size_for_poisson_mixed_model():
    grid = explore_grid(poisson_mixed())
    assert 5 <= len(grid) <= 25
    assert sum(p.weight for p in grid) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# marginal refinement
# ---------------------------------------------------------------------------


def test_refinement_collapses_for_gaussian_target():
    spec = gaussian_mixed()
    ga = gaussian_approximation(spec, theta=[0.0])
    for i in (0, spec.n_obs, spec.n_latent - 1):
        ref = refine_marginal(spec, ga, i)
        assert ref.mean == pytest.approx(ga.mean[i], abs=1e-6)
        assert ref.sd == ga.marginal_sd()[i]
        assert abs(ref.skewness) < 1e-6
        assert ref.dropped_nodes == 0


def test_refinement_tracks_poisson_quadrature():
    spec = poisson_one_node()
    ga = gaussian_approximation(spec)
    var = 1.0 + np.exp(-15.0)

    def unnorm(x):
        return stats.norm.pdf(x, 0.0, np.sqrt(var)) * stats.poisson.pmf(3, np.exp(x))

    z, _ = integrate.quad(unnorm, -12, 8, limit=200)
    m1, _ = integrate.quad(lambda x: x * unnorm(x) / z, -12, 8, limit=200)
    m2, _ = integrate.quad(lambda x: (x - m1) ** 2 * unnorm(x) / z, -12, 8, limit=200)
    m3, _ = integrate.quad(lambda x: (x - m1) ** 3 * unnorm(x) / z, -12, 8, limit=200)
    skew_true = m3 / m2**1.5

    ref = refine_marginal(spec, ga, 0)
    assert skew_true < -0.3  # genuinely left-skewed target
    assert ref.skewness < 0
    assert ref.skewness == pytest.approx(skew_true, abs=0.1)
    assert ref.mean == pytest.approx(m1, abs=0.01)
    # the corrected mean beats the Gaussian-approximation mode by far
    assert abs(ref.mean - m1) < 0.1 * abs(ga.mean[0] - m1)


def _conditional_mode_factoring_every_step(
    spec, q, i, value, x_start, max_iter=30, grad_tol=1e-8
):
    """Reference copy of the conditional-mode loop that factors the reduced
    curvature twice on every step: a Cholesky (kept for the log-determinant)
    and an LU solve (for the Newton step), before testing the gradient."""
    n = spec.n_obs
    mask = np.ones(spec.n_latent, dtype=bool)
    mask[i] = False
    q_sub = q.matrix[np.ix_(mask, mask)]

    x = np.array(x_start, dtype=float)
    x[i] = value
    value_obj, d1, d2 = engine._objective_terms(spec, x, q)
    for _ in range(max_iter):
        grad_full = -(q.matrix @ x)
        grad_full[:n] += d1
        grad = grad_full[mask]
        curv = np.zeros(spec.n_latent)
        curv[:n] = -d2
        h_sub = q_sub + np.diag(curv[mask])
        try:
            low = np.linalg.cholesky(h_sub)
        except np.linalg.LinAlgError:
            raise NoConvergence("reduced curvature not positive definite") from None
        step_sub = np.linalg.solve(h_sub, grad)

        if np.max(np.abs(grad)) <= grad_tol:
            log_det = 2.0 * float(np.sum(np.log(np.diag(low))))
            return x, log_det, value_obj

        scale = 1.0
        for _ in range(11):
            cand = x.copy()
            cand[mask] += scale * step_sub
            cand_value, cand_d1, cand_d2 = engine._objective_terms(spec, cand, q)
            if cand_value >= value_obj:
                break
            scale *= 0.5
        x, value_obj, d1, d2 = cand, cand_value, cand_d1, cand_d2
    raise NoConvergence(f"conditional mode search for component {i} did not converge")


def test_conditional_mode_matches_per_step_factoring(monkeypatch):
    spec = poisson_61()
    theta = explore_grid(spec)[0].theta
    ga = gaussian_approximation(spec, theta)
    q, mu, sd = ga.prior_precision, ga.mean, ga.marginal_sd()
    max_iter = 30

    calls = {"cholesky": 0, "solve": 0}

    def counting(name):
        real = getattr(np.linalg, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(np.linalg, "cholesky", counting("cholesky"))
    monkeypatch.setattr(np.linalg, "solve", counting("solve"))

    def run(search, i, value):
        calls.update(cholesky=0, solve=0)
        try:
            out = search(spec, q, i, value, mu, max_iter=max_iter)
        except NoConvergence:
            out = None
        return out, dict(calls)

    outcomes = {"converged": 0, "failed": 0}
    # the intercept, one observation and two group effects; nodes as in
    # refine_marginal, warm-started from the mode so some run out of iterations
    for i in (0, spec.n_obs, spec.n_obs + 1, spec.n_obs + 7):
        for j in range(-4, 5):
            value = mu[i] + j * 0.875 * sd[i]
            want, oracle_calls = run(_conditional_mode_factoring_every_step, i, value)
            got, new_calls = run(_conditional_mode, i, value)
            if want is None:
                assert got is None, (i, j)
                assert oracle_calls == {"cholesky": max_iter, "solve": max_iter}
                assert new_calls == {"cholesky": 0, "solve": max_iter}
                outcomes["failed"] += 1
                continue
            assert got is not None, (i, j)
            assert np.array_equal(got[0], want[0])
            assert got[1] == want[1]
            assert got[2] == want[2]
            # the oracle factors every step and the mode; steps taken = its calls - 1
            steps = oracle_calls["cholesky"] - 1
            assert new_calls == {"cholesky": 1, "solve": steps}
            outcomes["converged"] += 1
    assert outcomes["failed"] >= 1
    assert outcomes["converged"] >= 30


def test_refinement_index_bounds():
    spec = poisson_one_node()
    ga = gaussian_approximation(spec)
    with pytest.raises(IndexOutOfRange):
        refine_marginal(spec, ga, spec.n_latent)


# ---------------------------------------------------------------------------
# full fit
# ---------------------------------------------------------------------------


def test_fit_model_shapes_and_weights():
    spec = poisson_mixed()
    fit = fit_model(spec, components=np.array([0, 1, spec.n_obs]))
    k, n = fit.n_config, spec.n_latent
    assert fit.mutilde.shape == (k, n)
    assert fit.sigma.shape == (k, n)
    assert fit.gamma.shape == (k, n)
    assert fit.names == list(spec.component_names) or tuple(fit.names) == spec.component_names
    assert fit.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(fit.sigma > 0)
    assert np.all(np.abs(fit.gamma) <= 0.99)
    # unrefined components keep the Gaussian approximation
    assert fit.gamma[0, 2] == 0.0
    assert fit.mutilde[0, 2] == fit.approximations[0].mean[2]


def test_fit_marginal_density_normalizes():
    spec = poisson_mixed()
    fit = fit_model(spec, components=np.array([0]))
    xs = np.linspace(-6, 8, 2001)
    dens = fit.marginal_density(0, xs)
    assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=5e-3)
    with pytest.raises(IndexOutOfRange):
        fit.marginal_density(spec.n_latent, xs)


def test_fit_gaussian_family_collapses_to_gaussian_approximation():
    spec = gaussian_mixed()
    fit = fit_model(spec, components=np.array([0, spec.n_obs]))
    for k in range(fit.n_config):
        ga = fit.approximations[k]
        np.testing.assert_allclose(fit.mutilde[k], ga.mean, atol=1e-6)
        assert np.max(np.abs(fit.gamma[k])) < 1e-6


def test_fit_result_grid_point_bounds():
    fit = fit_model(poisson_one_node(), refine=False)
    assert isinstance(fit.grid[0], GridPoint)
    assert isinstance(fit, FitResult)
    with pytest.raises(IndexOutOfRange):
        fit.sgc(5)


def test_covariance_stack_is_a_declared_cache(tmp_path):
    fit = fit_model(poisson_mixed(), refine=False)
    assert fit._covariance_stack is None
    save_fit(tmp_path / "before.bin", fit)
    stack = fit.covariance_stack()
    assert stack is fit.covariance_stack()
    for k, ga in enumerate(fit.approximations):
        assert np.array_equal(stack[k], ga.covariance())
    assert "_covariance_stack" not in repr(fit)
    save_fit(tmp_path / "after.bin", fit)
    assert (tmp_path / "after.bin").read_bytes() == (tmp_path / "before.bin").read_bytes()


@pytest.mark.xfail(
    strict=True,
    reason=(
        "known defect: fits move with round-off.  Relabelling the groups moves the "
        "grid weights of this fixture by 2.6e-3 and its means and sds by about 2e-3; "
        "on the N=61 Poisson acceptance fixture it moves the weights by 0.020 and "
        "gamma by 0.30"
    ),
)
def test_fit_invariant_to_group_relabelling():
    spec = gaussian_mixed()
    perm = np.array([3, 0, 4, 1, 2])
    a, b = fit_model(spec), fit_model(dataclasses.replace(spec, group=perm[spec.group]))
    # group g of the first fit is group perm[g] of the second
    base = spec.n_latent - perm.size
    order = np.concatenate([np.arange(base), base + perm])
    assert a.n_config == b.n_config
    np.testing.assert_allclose(b.weights, a.weights, rtol=0, atol=1e-6)
    for name in ("mutilde", "sigma", "gamma"):
        np.testing.assert_allclose(getattr(b, name)[:, order], getattr(a, name), rtol=0, atol=1e-6)
