"""Mixture sampling over the hyperparameter grid and posterior summaries."""

import gc
import weakref

import numpy as np
import pytest
from scipy import stats

from sgcinla import rng
from sgcinla.engine import fit_model
from sgcinla.errors import InsufficientSamples
from sgcinla.lincomb import kld_1d
from sgcinla.model import ModelSpec, make_family
from sgcinla.sampler import (
    JointSamples,
    _assign_configs,
    kernel_density,
    marginal_density_estimate,
    sample_joint,
    summarize,
)
from sgcinla.sgc import CorrectionKind


@pytest.fixture(scope="module")
def poisson_fit():
    gen = rng.stream(909)
    grp = np.repeat(np.arange(6), 5)
    u = gen.normal(size=6) * 0.8
    y = gen.poisson(np.exp(0.4 + u[grp])).astype(float)
    spec = ModelSpec(make_family("poisson"), y=y, group=grp, tau_beta=0.5)
    return fit_model(spec, components=np.array([0, 1, 30]))


@pytest.fixture(scope="module")
def gaussian_fit():
    gen = rng.stream(501)
    grp = np.repeat(np.arange(5), 6)
    u = gen.normal(size=5)
    y = 1.0 + u[grp] + gen.normal(size=grp.size) * 0.6
    spec = ModelSpec(
        make_family("gaussian", tau=1 / 0.36), y=y, group=grp, tau_beta=0.5, re_prior=(1.0, 1.0)
    )
    return fit_model(spec, components=np.array([0, spec.n_obs]))


def test_config_assignment_follows_weights():
    weights = np.array([0.5, 0.3, 0.2])
    config = _assign_configs(weights, 40000, seed=5)
    freq = np.bincount(config, minlength=3) / 40000
    se = np.sqrt(weights * (1 - weights) / 40000)
    assert np.all(np.abs(freq - weights) < 4 * se)


def test_sample_shapes_and_reproducibility(poisson_fit):
    a = sample_joint(poisson_fit, 500, seed=31)
    b = sample_joint(poisson_fit, 500, seed=31)
    c = sample_joint(poisson_fit, 500, seed=32)
    assert a.draws.shape == (500, poisson_fit.mutilde.shape[1])
    assert np.array_equal(a.draws, b.draws)
    assert not np.array_equal(a.draws, c.draws)


def test_kinds_share_assignment_and_gaussian_draws(poisson_fit):
    js_m = sample_joint(poisson_fit, 2000, seed=31, kind="mean")
    js_n = sample_joint(poisson_fit, 2000, seed=31, kind="none")
    assert np.array_equal(js_m.config, js_n.config)
    for k in range(poisson_fit.n_config):
        rows = js_m.config == k
        shift = poisson_fit.mutilde[k] - poisson_fit.approximations[k].mean
        assert np.array_equal(js_m.draws[rows], js_n.draws[rows] + shift)


def test_moments_match_deterministic_mixture(poisson_fit):
    js = sample_joint(poisson_fit, 50000, seed=31, kind="skew")
    w = poisson_fit.weights
    for i in (0, 1):
        mix_mean = w @ poisson_fit.mutilde[:, i]
        mix_var = w @ (poisson_fit.sigma[:, i] ** 2 + poisson_fit.mutilde[:, i] ** 2) - mix_mean**2
        se = np.sqrt(mix_var / js.count)
        assert abs(js.draws[:, i].mean() - mix_mean) < 5 * se
        assert js.draws[:, i].std(ddof=1) == pytest.approx(np.sqrt(mix_var), rel=0.05)


def test_gaussian_family_skew_equals_mean_bitwise(gaussian_fit):
    a = sample_joint(gaussian_fit, 3000, seed=9, kind="mean")
    b = sample_joint(gaussian_fit, 3000, seed=9, kind="skew")
    assert np.array_equal(a.draws, b.draws)


def test_summarize_matches_numpy_quantiles(poisson_fit):
    js = sample_joint(poisson_fit, 5000, seed=13)
    s = summarize(js)
    np.testing.assert_array_equal(s.q025, np.quantile(js.draws, 0.025, axis=0))
    np.testing.assert_array_equal(s.q50, np.quantile(js.draws, 0.5, axis=0))
    np.testing.assert_array_equal(s.q975, np.quantile(js.draws, 0.975, axis=0))
    np.testing.assert_array_equal(s.mean, js.draws.mean(axis=0))
    assert s.names == tuple(poisson_fit.names)
    row = s.row(0)
    assert list(row) == ["Index", "Mean", "Sd", "0.025quant", "0.5quant", "0.975quant", "Mode"]
    assert row["Index"] == "eta_1"
    # the mode lies inside the sample range for every component
    assert np.all(s.mode >= js.draws.min(axis=0)) and np.all(s.mode <= js.draws.max(axis=0))


def test_summarize_requires_enough_draws(poisson_fit):
    js = sample_joint(poisson_fit, 50, seed=13)
    with pytest.raises(InsufficientSamples):
        summarize(js)


def test_marginal_density_estimate_normalizes(poisson_fit):
    js = sample_joint(poisson_fit, 20000, seed=13)
    xs = np.linspace(js.draws[:, 0].min() - 1, js.draws[:, 0].max() + 1, 400)
    dens = marginal_density_estimate(js, 0, xs)
    assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=5e-3)
    small = sample_joint(poisson_fit, 200, seed=13)
    with pytest.raises(InsufficientSamples):
        marginal_density_estimate(small, 0, xs)


def _as_samples(draws: np.ndarray) -> JointSamples:
    names = tuple(f"x{i}" for i in range(draws.shape[1]))
    config = np.zeros(draws.shape[0], dtype=int)
    return JointSamples(draws=draws, config=config, names=names, kind=CorrectionKind.SKEW, seed=0)


def _scipy_mode(x: np.ndarray, points: int = 512) -> float:
    """The summary mode as scipy's kernel density locates it."""
    lo, hi = float(np.min(x)), float(np.max(x))
    if hi == lo:
        return lo
    pad = 0.05 * (hi - lo)
    grid = np.linspace(lo - pad, hi + pad, points)
    return float(grid[np.argmax(stats.gaussian_kde(x, bw_method="silverman")(grid))])


def _columns():
    gen = rng.stream(404)
    return {
        "skewed": gen.gamma(2.0, size=20000),
        "bimodal": np.concatenate([gen.normal(-2.0, 0.5, 6000), gen.normal(3.0, 1.0, 4000)]),
        "min-count": gen.normal(size=100),
        "constant": np.full(500, 1.5),
    }


def test_summary_modes_equal_scipy_argmax_on_fit(poisson_fit):
    js = sample_joint(poisson_fit, 5000, seed=13)
    expected = [_scipy_mode(js.draws[:, i]) for i in range(js.dim)]
    np.testing.assert_array_equal(summarize(js).mode, expected)


@pytest.mark.parametrize("name", ["skewed", "bimodal", "min-count", "constant"])
def test_summary_mode_equals_scipy_argmax(name):
    x = _columns()[name]
    assert summarize(_as_samples(x[:, None])).mode[0] == _scipy_mode(x)


@pytest.mark.parametrize("name", ["skewed", "bimodal", "min-count", "long", "scalar"])
def test_kernel_density_matches_scipy(name):
    if name == "long":
        x = rng.stream(405).normal(size=100_000)
    else:
        x = _columns()["skewed" if name == "scalar" else name]
    xs = 2.0 if name == "scalar" else np.linspace(x.min() - 1.0, x.max() + 1.0, 401)
    expected = stats.gaussian_kde(x, bw_method="silverman")(xs)
    got = kernel_density(x, xs)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= 1e-12 * expected.max()


def test_kernel_density_far_outside_the_draws():
    # the grid's ends lie about 25 bandwidths beyond the extreme draws, where
    # the nearest draws' kernel terms are tiny but not zero
    x = rng.stream(406).normal(size=10_000)
    xs = np.linspace(-8.0, 8.0, 401)
    h = (0.75 * x.size) ** -0.2 * np.std(x, ddof=1)
    assert xs[0] < x.min() - 9.0 * h and xs[-1] > x.max() + 9.0 * h
    expected = stats.gaussian_kde(x, bw_method="silverman")(xs)
    got = kernel_density(x, xs)
    assert np.all(expected > 0) and np.all(got > 0)
    np.testing.assert_allclose(got, expected, rtol=1e-9)
    value = kld_1d(xs, stats.norm.pdf(xs), got)
    assert np.isfinite(value) and value >= 0.0


def test_kernel_density_rejects_constant_draws():
    with pytest.raises(InsufficientSamples):
        kernel_density(np.full(500, 1.5), np.linspace(0.0, 3.0, 7))


def test_summarize_leaves_no_reference_cycle():
    # without cycles the draws are freed on del, with the cyclic collector off
    draws = rng.stream(3).normal(size=(2000, 3))
    alive = weakref.ref(draws)
    samples = _as_samples(draws)
    enabled = gc.isenabled()
    gc.disable()
    try:
        summarize(samples)
        marginal_density_estimate(samples, 0, np.linspace(-3.0, 3.0, 61))
        del samples, draws
        assert alive() is None
    finally:
        if enabled:
            gc.enable()
