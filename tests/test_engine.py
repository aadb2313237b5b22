"""Mode finding, hyperparameter grids and marginal refinement."""

import dataclasses
import multiprocessing
import os
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate, optimize, special, stats

from sgcinla import engine, parallel, rng
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
from sgcinla.errors import IndexOutOfRange, ModeSearchFailure, NoConvergence
from sgcinla.gmrf import LinearConstraint, PrecisionMatrix
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


def bernoulli_61():
    """The N=61 Bernoulli random-intercept data of the acceptance tests."""
    gen = rng.stream(44)
    grp = np.repeat(np.arange(10), 5)
    u = gen.normal(size=10) * 1.5
    p = special.expit(-1.5 + u[grp])
    y = (gen.uniform(size=grp.size) < p).astype(float)
    return ModelSpec(
        make_family("binomial"), y=y, trials=np.ones(grp.size), group=grp,
        tau_beta=0.5, re_prior=(1.0, 0.5),
    )


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


@pytest.mark.parametrize("make_spec", [poisson_61, bernoulli_61])
def test_gaussian_approximation_equals_validating_path(make_spec, monkeypatch):
    # every grid point of the fixture, warm-started as fit_model does
    spec = make_spec()
    thetas = [pt.theta for pt in explore_grid(spec)]

    def approximations():
        out, x_warm = [], None
        for theta in thetas:
            ga = gaussian_approximation(spec, theta, x0=x_warm)
            x_warm = ga.mean
            out.append(ga)
        return out

    trusted = approximations()
    monkeypatch.setattr(
        PrecisionMatrix, "plus_diagonal", lambda q, d: PrecisionMatrix(q.matrix + np.diag(d))
    )
    validated = approximations()
    for got, want in zip(trusted, validated, strict=True):
        assert got.iterations == want.iterations
        assert np.array_equal(got.mean, want.mean)
        assert np.array_equal(got.precision.matrix, want.precision.matrix)
        assert got.log_det == want.log_det


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
    pts = _grid_from_logpost(lambda t: -0.5 * ((t[0] - 1.3) / 0.6) ** 2)
    thetas = np.array([p.theta[0] for p in pts])
    weights = np.array([p.weight for p in pts])
    # spacing 0.75 in standardized units keeps exactly |z| <= sqrt(5)
    assert len(pts) == 5
    np.testing.assert_allclose(thetas, 1.3 + 0.75 * 0.6 * np.arange(-2, 3), atol=1e-5)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert thetas @ weights == pytest.approx(1.3, abs=1e-4)
    assert np.all(np.diff(thetas) > 0)


def _lattice_grid_from_logpost(logpost, d, theta0, dz=0.75, drop_max=2.5, max_steps=30):
    """The d-dimensional lattice grid that the scalar walk replaced, kept verbatim
    as the oracle: at d = 1 the walk must reproduce it bit for bit."""
    if d == 0:
        val = float(logpost(np.zeros(0)))
        return [GridPoint(theta=np.zeros(0), log_posterior=val, weight=1.0)]

    res = optimize.minimize(lambda t: -logpost(t), np.asarray(theta0, dtype=float), method="BFGS")
    mode = np.atleast_1d(res.x)
    if not np.isfinite(res.fun):
        raise ModeSearchFailure("hyperparameter mode search diverged")

    # central-difference Hessian of the negative log posterior
    h = 1e-3 * np.maximum(1.0, np.abs(mode))
    hess = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            ei = np.zeros(d)
            ej = np.zeros(d)
            ei[i] = h[i]
            ej[j] = h[j]
            if i == j:
                hess[i, i] = -(
                    logpost(mode + ei) - 2.0 * logpost(mode) + logpost(mode - ei)
                ) / h[i] ** 2
            else:
                hess[i, j] = hess[j, i] = -(
                    logpost(mode + ei + ej)
                    - logpost(mode + ei - ej)
                    - logpost(mode - ei + ej)
                    + logpost(mode - ei - ej)
                ) / (4.0 * h[i] * h[j])
    try:
        scale = np.linalg.cholesky(np.linalg.inv(hess))
    except np.linalg.LinAlgError:
        raise ModeSearchFailure("hyperparameter Hessian is not positive definite") from None

    center_val = float(logpost(mode))
    seen = {(0,) * d: center_val}
    frontier = [(0,) * d]
    while frontier:
        nxt = []
        for cell in frontier:
            for axis in range(d):
                for sign in (-1, 1):
                    cand = list(cell)
                    cand[axis] += sign
                    cand = tuple(cand)
                    if cand in seen or max(abs(c) for c in cand) > max_steps:
                        continue
                    theta = mode + scale @ (dz * np.asarray(cand, dtype=float))
                    val = float(logpost(theta))
                    seen[cand] = val
                    if center_val - val <= drop_max:
                        nxt.append(cand)
        frontier = nxt

    kept = [(cell, val) for cell, val in seen.items() if center_val - val <= drop_max]
    # deterministic order: sort by theta lexicographically
    cells = sorted(kept, key=lambda cv: tuple(mode + scale @ (dz * np.asarray(cv[0], dtype=float))))
    log_vals = np.array([val for _, val in cells])
    weights = np.exp(log_vals - log_vals.max())
    weights /= weights.sum()
    return [
        GridPoint(
            theta=mode + scale @ (dz * np.asarray(cell, dtype=float)),
            log_posterior=val,
            weight=float(w),
        )
        for (cell, val), w in zip(cells, weights)
    ]


def _cached_log_hyper_posterior(spec):
    """The memoized log posterior that explore_grid hands to the grid."""
    cache = {}

    def logpost(theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        key = theta.tobytes()
        if key not in cache:
            cache[key] = log_hyper_posterior(spec, theta)
        return cache[key]

    return logpost


def _assert_grids_identical(new, old):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.theta.shape == b.theta.shape == (1,)
        assert np.array_equal(a.theta, b.theta)
        assert a.log_posterior == b.log_posterior
        assert a.weight == b.weight


@pytest.mark.parametrize("make_spec", [gaussian_mixed, poisson_mixed, bernoulli_61])
def test_scalar_grid_equals_lattice_grid_on_models(make_spec):
    spec = make_spec()
    old = _lattice_grid_from_logpost(_cached_log_hyper_posterior(spec), 1, np.zeros(1))
    _assert_grids_identical(explore_grid(spec), old)


def _skewed_quartic(t):
    z = (t[0] - 0.3) / 0.7
    return -(0.5 * z**2 + 0.15 * z**3 + 0.05 * z**4)  # one mode, at z = 0


def _flat_plateau(t):
    # curvature 2.4 at the mode, but the drop never reaches 2.5
    return -2.4 * (1.0 - np.exp(-0.5 * (t[0] - 0.5) ** 2))


@pytest.mark.parametrize(
    "logpost, size", [(_skewed_quartic, None), (_flat_plateau, 61)], ids=["skewed", "capped"]
)
def test_scalar_grid_equals_lattice_grid_on_synthetic_densities(logpost, size):
    new = _grid_from_logpost(logpost)
    _assert_grids_identical(new, _lattice_grid_from_logpost(logpost, 1, np.zeros(1)))
    if size is not None:
        assert len(new) == size  # 30 steps each way, both sides capped


@pytest.mark.parametrize(
    "logpost, message",
    [
        (lambda t: 0.0, "Hessian is not positive definite"),
        (lambda t: np.inf if t[0] == 0.0 else -t[0] ** 2, "diverged"),
    ],
    ids=["constant", "infinite-at-start"],
)
@pytest.mark.parametrize(
    "grid", [_grid_from_logpost, _lattice_grid_from_logpost], ids=["walk", "lattice"]
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scipy's differences of infinities
def test_grid_mode_search_failures(grid, logpost, message):
    args = () if grid is _grid_from_logpost else (1, np.zeros(1))
    with pytest.raises(ModeSearchFailure, match=message):
        grid(logpost, *args)


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


@pytest.mark.parametrize(
    "offsets, flagged",
    [((2,), False), ((-3, 4), True), ((-4, -3, -2, 2, 3, 4), None)],
    ids=["one of nine", "two of nine", "six of nine"],
)
def test_refinement_with_dropped_nodes(monkeypatch, offsets, flagged):
    # the inner search fails at chosen nodes, whatever the round-off does
    spec = poisson_mixed()
    ga = gaussian_approximation(spec, theta=[0.0])
    i = spec.n_obs
    step = (3.5 / 4) * ga.marginal_sd()[i]
    real = engine._conditional_mode
    seen = []

    def mode(spec, q, j, value, x_start, **kwargs):
        seen.append(int(round((value - ga.mean[i]) / step)))
        if seen[-1] in offsets:
            raise NoConvergence("stalled")
        return real(spec, q, j, value, x_start, **kwargs)

    monkeypatch.setattr(engine, "_conditional_mode", mode)
    if flagged is None:
        with pytest.raises(NoConvergence, match="lost too many nodes"):
            refine_marginal(spec, ga, i)
        return
    ref = refine_marginal(spec, ga, i)
    assert sorted(seen) == list(range(-4, 5))
    assert np.isfinite(ref.mean) and np.isfinite(ref.skewness)
    assert ref.dropped_nodes == len(offsets)
    assert ref.flagged is flagged


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
    fit = fit_model(poisson_one_node(), components=())
    assert isinstance(fit.grid[0], GridPoint)
    assert isinstance(fit, FitResult)
    with pytest.raises(IndexOutOfRange):
        fit.sgc(5)


def test_covariance_stack_is_a_declared_cache(tmp_path):
    fit = fit_model(poisson_mixed(), components=())
    assert fit._covariance_stack is None
    save_fit(tmp_path / "before.bin", fit)
    stack = fit.covariance_stack()
    assert stack is fit.covariance_stack()
    for k, ga in enumerate(fit.approximations):
        assert np.array_equal(stack[k], ga.covariance())
    assert "_covariance_stack" not in repr(fit)
    save_fit(tmp_path / "after.bin", fit)
    assert (tmp_path / "after.bin").read_bytes() == (tmp_path / "before.bin").read_bytes()


# ---------------------------------------------------------------------------
# parallel refinement
# ---------------------------------------------------------------------------


def _force_workers(monkeypatch, count):
    monkeypatch.setattr(parallel, "worker_count", lambda tasks: max(1, min(tasks, count)))


@pytest.mark.parametrize("make_spec", [poisson_61, bernoulli_61])
def test_parallel_fit_equals_serial_fit(make_spec, monkeypatch):
    spec = make_spec()
    _force_workers(monkeypatch, 1)
    serial = fit_model(spec)
    _force_workers(monkeypatch, 2)
    parallel = fit_model(spec)
    for name in ("mutilde", "sigma", "gamma", "weights"):
        assert np.array_equal(getattr(parallel, name), getattr(serial, name)), name
    assert parallel.warnings == serial.warnings
    assert multiprocessing.active_children() == []


def _refine_failing_in_children(error, component):
    """refine_marginal that raises ``error`` for ``component`` in pool children only."""
    parent, real = os.getpid(), engine.refine_marginal

    def refine(spec, approx, i, **kwargs):
        if os.getpid() != parent and i == component:
            raise error
        return real(spec, approx, i, **kwargs)

    return refine


def test_child_no_convergence_becomes_skip_warning(monkeypatch):
    spec = poisson_mixed()
    components = np.array([0, spec.n_obs, spec.n_obs + 2])
    _force_workers(monkeypatch, 2)
    monkeypatch.setattr(
        engine, "refine_marginal", _refine_failing_in_children(NoConvergence("stalled"), spec.n_obs)
    )
    fit = fit_model(spec, components=components)
    skipped = [f"refinement skipped for component {spec.n_obs} at grid point {k}"
               for k in range(fit.n_config)]
    assert [w for w in fit.warnings if w.startswith("refinement skipped")] == skipped
    for k, ga in enumerate(fit.approximations):
        assert fit.mutilde[k, spec.n_obs] == ga.mean[spec.n_obs]
        assert fit.gamma[k, spec.n_obs] == 0.0
        assert fit.gamma[k, spec.n_obs + 2] != 0.0


def test_child_exception_keeps_its_type(monkeypatch):
    spec = poisson_mixed()
    _force_workers(monkeypatch, 2)
    monkeypatch.setattr(
        engine, "refine_marginal", _refine_failing_in_children(IndexOutOfRange("from a child"), 0)
    )
    with pytest.raises(IndexOutOfRange, match="from a child"):
        fit_model(spec, components=np.array([0, 1]))
    assert multiprocessing.active_children() == []


@pytest.fixture
def two_cpus_one_blas_thread(monkeypatch):
    """A pool-friendly process, whatever the machine and test runner."""
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["fork", "spawn"])
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    monkeypatch.setattr(multiprocessing, "current_process", lambda: SimpleNamespace(daemon=False))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for var in parallel._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    return monkeypatch


def test_refinement_workers_use_the_cores_blas_leaves_idle(two_cpus_one_blas_thread):
    assert parallel.worker_count(10) == 2
    assert parallel.worker_count(1) == 1
    assert parallel.worker_count(0) == 1
    two_cpus_one_blas_thread.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert parallel.worker_count(10) == 8
    two_cpus_one_blas_thread.setenv("OMP_NUM_THREADS", "2")  # the largest count counts
    assert parallel.worker_count(10) == 4
    two_cpus_one_blas_thread.setenv("OMP_NUM_THREADS", "4,2")  # unreadable, so ignored
    assert parallel.worker_count(10) == 8


@pytest.mark.parametrize(
    "serial_because",
    ["blas fills the cores", "no blas variable", "one cpu", "another thread",
     "daemonic process", "no fork"],
)
def test_refinement_workers_choose_serial(two_cpus_one_blas_thread, serial_because):
    mp = two_cpus_one_blas_thread
    if serial_because == "blas fills the cores":
        mp.setenv("MKL_NUM_THREADS", "2")
    elif serial_because == "no blas variable":
        mp.delenv("OPENBLAS_NUM_THREADS")
    elif serial_because == "one cpu":
        mp.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif serial_because == "another thread":
        mp.setattr(threading, "active_count", lambda: 2)
    elif serial_because == "daemonic process":
        mp.setattr(multiprocessing, "current_process", lambda: SimpleNamespace(daemon=True))
    else:
        mp.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert parallel.worker_count(10) == 1


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
