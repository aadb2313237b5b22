"""Mixture sampling over the hyperparameter grid and posterior summaries."""

import dataclasses
import gc
import mmap
import multiprocessing
import os
import pickle
import warnings
import weakref

import numpy as np
import pytest
from scipy import stats
from scipy.interpolate import PchipInterpolator, PPoly

from sgcinla import gmrf, parallel, rng, sampler
from sgcinla.engine import fit_model
from sgcinla.errors import IndexOutOfRange, InsufficientSamples
from sgcinla.gmrf import LinearConstraint, PrecisionMatrix
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
from sgcinla.skewnormal import QuantileTable, default_table, standardized_map_direct


@pytest.fixture(scope="module")
def poisson_fit():
    gen = rng.stream(909)
    grp = np.repeat(np.arange(6), 5)
    u = gen.normal(size=6) * 0.8
    y = gen.poisson(np.exp(0.4 + u[grp])).astype(float)
    spec = ModelSpec(make_family("poisson"), y=y, group=grp, tau_beta=0.5)
    return fit_model(spec, components=np.array([0, 1, 30]))


@pytest.fixture(scope="module")
def poisson_61_fit():
    """The N=61 Poisson random-intercept fixture of the acceptance tests."""
    gen = rng.stream(51)
    grp = np.repeat(np.arange(10), 5)
    u = gen.normal(size=10) * 1.5
    y = gen.poisson(np.exp(u[grp])).astype(float)
    spec = ModelSpec(make_family("poisson"), y=y, group=grp, tau_beta=0.5, re_prior=(1.0, 0.5))
    return fit_model(spec)


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


@pytest.mark.xfail(
    strict=True,
    reason=(
        "known defect: a hard constraint holds only at the Newton modes.  The draws "
        "come from the unconstrained Gaussian approximation, so sum_to_zero fails "
        "by an sd of about 2 on this fit (ROADMAP open item)"
    ),
)
def test_constrained_fit_draws_meet_the_constraint():
    gen = rng.stream(17)
    grp = np.repeat(np.arange(5), 4)
    y = gen.poisson(np.exp(0.3 + 0.9 * gen.normal(size=5)[grp])).astype(float)
    spec = ModelSpec(make_family("poisson"), y=y, group=grp, tau_beta=0.5, re_prior=(1.0, 1.0))
    row = np.zeros((1, spec.n_latent))
    row[0, spec.n_obs + spec.n_fixed :] = 1.0
    con = LinearConstraint(row, np.zeros(1))
    fit = fit_model(dataclasses.replace(spec, constraints=(con,)))
    draws = sample_joint(fit, 2000, seed=1, kind="none").draws
    assert np.max(np.abs(draws @ con.C.T - con.e)) <= 1e-9


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


def _scipy_mode(x: np.ndarray) -> float:
    """The summary mode as scipy's kernel density locates it."""
    lo, hi = float(np.min(x)), float(np.max(x))
    if hi == lo:
        return lo
    pad = 0.05 * (hi - lo)
    grid = np.linspace(lo - pad, hi + pad, sampler.KDE_MODE_POINTS)
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


def _grid_mode(x: np.ndarray) -> float:
    """The summary mode as the argmax of kernel_density over the whole grid."""
    lo, hi = float(np.min(x)), float(np.max(x))
    if hi == lo:
        return lo
    pad = 0.05 * (hi - lo)
    grid = np.linspace(lo - pad, hi + pad, 512)
    return float(grid[np.argmax(kernel_density(x, grid))])


def _two_peaks(seed: int, far: bool = False) -> np.ndarray:
    """Two mirrored, equally high peaks, with one draw far out if ``far``."""
    gen = rng.stream(seed)
    half = gen.normal(size=5000) * 0.5
    return np.concatenate([half - 2.0, 2.0 - half, gen.uniform(100.0, 1000.0, int(far))])


def _mode_columns():
    gen = rng.stream(408)
    tie = rng.stream(89)
    return {
        # the two middle grid points' sums differ by one ulp, but their
        # densities tie, so the first of them is the mode
        "tie": np.array([-1.0, 1.0]) * tie.uniform(0.1, 10) + tie.normal() * 3,
        "rounded": np.round(gen.normal(size=10000), 1),
        "t1": gen.standard_t(1, size=10000),
        "two-peaks": _two_peaks(410),
        # the far draw stretches the grid step to several bandwidths, so the
        # binned sums miss by more than the gap between the two peaks' best
        # grid points, and only the bound's Taylor term keeps both
        "two-peaks-coarse": _two_peaks(354, far=True),
        "gamma": gen.gamma(0.5, size=10000),
        "n100": gen.normal(size=100),
        "n2e4": gen.normal(size=20000),
        "constant": np.full(500, 1.5),
    }


@pytest.mark.parametrize(
    "name",
    ["tie", "rounded", "t1", "two-peaks", "two-peaks-coarse", "gamma", "n100", "n2e4", "constant"],
)
def test_pruned_mode_equals_full_grid_argmax(name):
    x = _mode_columns()[name]
    assert sampler._kde_mode(x) == _grid_mode(x)


def test_mode_evaluates_a_handful_of_points(monkeypatch):
    # a fall-back to the whole grid would give the same mode, so count
    seen = []
    real = sampler.kernel_density

    def record(x, points):
        seen.append(np.size(points))
        return real(x, points)

    monkeypatch.setattr(sampler, "kernel_density", record)
    x = rng.stream(409).normal(size=10_000)
    assert sampler._kde_mode(x) == _grid_mode(x)
    assert 1 <= sum(seen) <= 8


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


def _skewness_cases(name):
    if name == "fit":
        return None
    if name == "constant":
        return np.full((500, 1), 1.5)
    # draws a few float steps apart around 1e8: in the first column m2 falls
    # under scipy's (eps * mean)**2 cut-off, in the second it does not
    gen = rng.stream(407)
    ulp = np.spacing(1e8)
    return 1e8 + ulp * np.stack([gen.integers(0, 2, 400), gen.integers(0, 10, 400)], axis=1)


@pytest.mark.parametrize("name", ["fit", "constant", "near-constant"])
def test_summary_skewness_equals_scipy(poisson_fit, name):
    draws = _skewness_cases(name)
    js = sample_joint(poisson_fit, 5000, seed=13) if draws is None else _as_samples(draws)
    with warnings.catch_warnings():
        # scipy warns of precision loss on (near-)constant columns
        warnings.simplefilter("ignore", RuntimeWarning)
        expected = stats.skew(js.draws, axis=0)
    got = summarize(js).skewness
    np.testing.assert_array_equal(got, expected)
    if name == "constant":
        assert np.isnan(got[0])
    if name == "near-constant":
        assert np.isnan(got[0]) and np.isfinite(got[1])


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


# ---------------------------------------------------------------------------
# draws and summaries on the pool
# ---------------------------------------------------------------------------


def _force_workers(monkeypatch, count):
    """Run ``sample_joint`` on ``count`` workers, small calls included."""
    monkeypatch.setattr(parallel, "worker_count", lambda tasks: max(1, min(tasks, count)))
    monkeypatch.setattr(sampler, "_POOL_MIN_ELEMENTS", 0)


def _shared_buffer(draws: np.ndarray):
    """The mmap object behind a draw array in shared memory."""
    base = draws
    while isinstance(base, np.ndarray):
        base = base.base
    return base.obj


_SUMMARY_FIELDS = ("mean", "sd", "q025", "q50", "q975", "mode", "skewness")


@pytest.mark.parametrize("fit_name", ["poisson_fit", "poisson_61_fit"])
def test_pool_draws_and_summaries_equal_serial(fit_name, request, monkeypatch):
    fit = request.getfixturevalue(fit_name)
    cases = [("none", True, 4000), ("mean", True, 4000), ("skew", True, 4000), ("skew", False, 500)]
    got = {}
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        for kind, use_table, count in cases:
            js = sample_joint(fit, count, seed=17, kind=kind, use_table=use_table)
            got[workers, kind, use_table] = js.draws.copy(), summarize(js)
    for kind, use_table, _ in cases:
        (serial, s1), (pooled, s2) = got[1, kind, use_table], got[2, kind, use_table]
        assert np.array_equal(pooled, serial), (kind, use_table)
        for name in _SUMMARY_FIELDS:
            assert np.array_equal(getattr(s2, name), getattr(s1, name), equal_nan=True), name


def _ppoly_map(table, idx, z):
    """Table row ``idx`` evaluated by scipy's PPoly, with the linear tails."""
    x, v = table.z_nodes, table.values[idx]
    cubic = PchipInterpolator(x, v)
    out = PPoly.construct_fast(cubic.c, x)(np.clip(z, x[0], x[-1]))
    slope_lo, slope_hi = cubic.derivative()(x[[0, -1]])
    out[z < x[0]] = v[0] + slope_lo * (z[z < x[0]] - x[0])
    out[z > x[-1]] = v[-1] + slope_hi * (z[z > x[-1]] - x[-1])
    return out


def _one_shot_joint(fit, count, seed, kind, use_table):
    """``sample_joint`` as one unblocked Gaussian draw per configuration,
    corrected one column at a time."""
    table = default_table()
    config = _assign_configs(fit.weights, count, seed)
    out = np.empty((count, fit.mutilde.shape[1]))
    for k in np.unique(config):
        fc = fit.sgc(k)
        rows = config == k
        z = rng.stream(seed, rng.SALT_MIXTURE_BASE + k).standard_normal((rows.sum(), fc.dim))
        x = fc.mu + fc.precision.factor().half_solve_t(z.T).T
        y = x.copy() if kind == "none" else x + (fc.mutilde - fc.mu)
        for j in range(fc.dim if kind == "skew" else 0):
            idx = int(table.index_of(fc.gamma[j]))
            if (use_table and idx == table.index_of(0.0)) or fc.gamma[j] == 0.0:
                continue
            zj = (x[:, j] - fc.mu[j]) / fc.sigma[j]
            if use_table:
                g = _ppoly_map(table, idx, zj)
            else:
                g = standardized_map_direct(float(fc.gamma[j]), zj)
            y[:, j] = fc.mutilde[j] + fc.sigma[j] * g
        out[rows] = y
    return out


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "kind, use_table, count",
    [
        ("skew", True, 4000), ("skew", False, 1500), ("skew", False, 4000),
        ("mean", True, 4000), ("none", True, 4000),
    ],
    ids=["skew-table", "skew-exact", "skew-exact-blocks", "mean", "none"],
)
@pytest.mark.parametrize("threads", [1, 2], ids=["blocks", "one-solve"])
def test_blocked_draws_equal_one_shot_draws(
    poisson_61_fit, monkeypatch, workers, kind, use_table, count, threads
):
    _force_workers(monkeypatch, workers)
    # Gaussian blocks sized for this many BLAS threads (one solve for two,
    # mapped in row blocks), whatever the BLAS runs here
    monkeypatch.setattr(parallel, "blas_threads", lambda: threads)
    js = sample_joint(poisson_61_fit, count, seed=23, kind=kind, use_table=use_table)
    assert np.array_equal(js.draws, _one_shot_joint(poisson_61_fit, count, 23, kind, use_table))


@pytest.mark.parametrize("threads", [1, 2])
def test_the_exact_blocks_case_spans_three_blocks(poisson_61_fit, monkeypatch, threads):
    # the heaviest configuration of the 4000 exact draws above is corrected
    # in three or more blocks, so the exact map's blocks are compared too
    monkeypatch.setattr(parallel, "blas_threads", lambda: threads)
    rows = np.bincount(_assign_configs(poisson_61_fit.weights, 4000, 23)).max()
    q = PrecisionMatrix(np.eye(1))
    assert len(list(gmrf.gmrf_blocks(np.zeros(1), q, int(rows), 0))) >= 3


def test_small_calls_stay_in_process(poisson_fit, monkeypatch):
    dim = poisson_fit.mutilde.shape[1]
    pooled = []
    monkeypatch.setattr(parallel, "worker_count", lambda tasks: max(1, min(tasks, 2)))
    monkeypatch.setattr(parallel, "map_tasks", lambda fn, tasks: pooled.append([*map(fn, tasks)]))
    monkeypatch.setattr(sampler, "_POOL_MIN_ELEMENTS", 300 * dim)
    sample_joint(poisson_fit, 299, seed=3)
    assert pooled == []
    sample_joint(poisson_fit, 300, seed=3)
    assert len(pooled) == 1
    # the exact map takes the same walk and the same rule
    sample_joint(poisson_fit, 20, seed=3, use_table=False)
    assert len(pooled) == 1
    # the benchmark's draw sizes, N=61 and N=241, stay on the pool
    assert min(100_000 * 61, 20_000 * 241) >= sampler._POOL_MIN_ELEMENTS


def test_pooled_sampling_leaves_no_reference_cycle(poisson_fit, monkeypatch):
    # neither the pool nor its task function may keep the shared draws alive
    _force_workers(monkeypatch, 2)
    enabled = gc.isenabled()
    gc.disable()
    try:
        samples = sample_joint(poisson_fit, 20000, seed=5)
        assert isinstance(_shared_buffer(samples.draws), mmap.mmap)
        draws_alive = weakref.ref(samples.draws)
        buffer_alive = weakref.ref(_shared_buffer(samples.draws))
        summarize(samples)
        del samples
        assert draws_alive() is None
        assert buffer_alive() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("workers", [1, 2])
def test_sample_joint_edge_cases(poisson_fit, monkeypatch, workers):
    _force_workers(monkeypatch, workers)
    empty = sample_joint(poisson_fit, 0, seed=3)
    assert empty.draws.shape == (0, poisson_fit.mutilde.shape[1])
    assert empty.config.shape == (0,)
    # a draw set in shared memory pickles as an ordinary one
    js = sample_joint(poisson_fit, 300, seed=3)
    assert isinstance(_shared_buffer(js.draws), mmap.mmap)
    back = pickle.loads(pickle.dumps(js))
    assert np.array_equal(back.draws, js.draws) and np.array_equal(back.config, js.config)
    assert (back.names, back.kind, back.seed) == (js.names, js.kind, js.seed)


def test_only_configurations_with_rows_become_tasks(poisson_fit, monkeypatch):
    count, seed = 6, 8
    sizes = np.bincount(_assign_configs(poisson_fit.weights, count, seed),
                        minlength=poisson_fit.n_config)
    assert np.any(sizes == 0) and np.count_nonzero(sizes) > 1
    calls = []
    real = sampler.gmrf_blocks

    def record(mean, q, n, seed, salt):
        calls.append((salt - rng.SALT_MIXTURE_BASE, n))
        return real(mean, q, n, seed, salt)

    _force_workers(monkeypatch, 1)
    monkeypatch.setattr(sampler, "gmrf_blocks", record)
    sample_joint(poisson_fit, count, seed)
    assert sorted(k for k, _ in calls) == np.flatnonzero(sizes).tolist()
    assert all(n == sizes[k] for k, n in calls)
    assert [n for _, n in calls] == sorted((n for _, n in calls), reverse=True)


def _failing_in_children(real, error):
    """``real`` as the parent calls it; in pool children it raises ``error``."""
    parent = os.getpid()

    def call(*args, **kwargs):
        if os.getpid() != parent:
            raise error
        return real(*args, **kwargs)

    return call


def test_children_use_the_table_built_by_the_parent(poisson_fit, monkeypatch):
    _force_workers(monkeypatch, 1)
    serial = sample_joint(poisson_fit, 3000, seed=21).draws.copy()
    _force_workers(monkeypatch, 2)
    # with the cache empty, only a table built before the fork keeps the
    # children from building one
    default_table.cache_clear()
    monkeypatch.setattr(
        QuantileTable, "build", _failing_in_children(QuantileTable.build, RuntimeError("child table"))
    )
    assert np.array_equal(sample_joint(poisson_fit, 3000, seed=21).draws, serial)


def test_child_exception_keeps_its_type(poisson_fit, monkeypatch):
    _force_workers(monkeypatch, 2)
    draw_error = IndexOutOfRange("draw in a child")
    monkeypatch.setattr(sampler, "gmrf_blocks",
                        _failing_in_children(sampler.gmrf_blocks, draw_error))
    with pytest.raises(IndexOutOfRange, match="draw in a child"):
        sample_joint(poisson_fit, 3000, seed=21)
    assert multiprocessing.active_children() == []
