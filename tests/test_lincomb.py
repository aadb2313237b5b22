"""Deterministic joint summaries and linear combinations."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sgcinla import rng
from sgcinla.engine import FitResult, GaussianApprox, GridPoint, fit_model
from sgcinla.errors import DimensionMismatch, InvalidSpec, SkewnessOutOfRange, SupportMismatch
from sgcinla.gmrf import PrecisionMatrix
from sgcinla.lincomb import (
    JointMomentSummary,
    _mix_moments,
    kld_1d,
    linear_combination_summary,
    marginals_1d,
    subset_moments,
    transform_moments,
)
from sgcinla.model import ModelSpec, make_family
from sgcinla.sampler import sample_joint
from sgcinla.skewnormal import GAMMA_CLAMP, sn_moments_from_params


@pytest.fixture(scope="module")
def poisson_fit():
    gen = rng.stream(909)
    grp = np.repeat(np.arange(6), 5)
    u = gen.normal(size=6) * 0.8
    y = gen.poisson(np.exp(0.4 + u[grp])).astype(float)
    spec = ModelSpec(make_family("poisson"), y=y, group=grp, tau_beta=0.5)
    return fit_model(spec)


def worked_summary():
    return JointMomentSummary(
        names=("a", "b"),
        mean=np.array([1.0, 2.0]),
        cov=np.array([[2.0, 1.0], [1.0, 5.0]]),
        skewness=np.array([-0.4, 0.6]),
    )


def two_point_fit():
    """Equal-weight two-configuration mixture with unit-variance margins at -1, +1."""
    grid = [
        GridPoint(theta=np.array([-1.0]), log_posterior=0.0, weight=0.5),
        GridPoint(theta=np.array([1.0]), log_posterior=0.0, weight=0.5),
    ]
    approxes = []
    for center in (-1.0, 1.0):
        approxes.append(
            GaussianApprox(
                theta=np.zeros(1),
                mean=np.array([center]),
                precision=PrecisionMatrix(np.eye(1)),
                curvature=np.zeros(1),
                prior_precision=PrecisionMatrix(np.eye(1)),
                converged=True,
                iterations=1,
            )
        )
    return FitResult(
        spec=None,
        grid=grid,
        approximations=approxes,
        mutilde=np.array([[-1.0], [1.0]]),
        sigma=np.ones((2, 1)),
        gamma=np.zeros((2, 1)),
        names=["x_1"],
    )


def test_two_point_mixture_moments():
    out = subset_moments(two_point_fit(), [0])
    assert out.mean[0] == pytest.approx(0.0, abs=1e-14)
    assert out.cov[0, 0] == pytest.approx(2.0, abs=1e-14)
    assert out.skewness[0] == pytest.approx(0.0, abs=1e-14)


def test_worked_transform_example():
    out = transform_moments(worked_summary(), np.array([[1.0, 1.0], [1.0, -1.0]]))
    np.testing.assert_array_equal(out.mean, [3.0, -1.0])
    np.testing.assert_array_equal(out.cov, [[9.0, -3.0], [-3.0, 5.0]])
    assert out.skewness[0] == pytest.approx(0.2065, abs=1e-3)
    assert out.skewness[1] == pytest.approx(-0.7012, abs=1e-3)
    assert out.names == ("lincomb_1", "lincomb_2")


def test_transform_row_scaling_leaves_skewness():
    s = worked_summary()
    a = np.array([[1.0, 1.0], [1.0, -1.0]])
    base = transform_moments(s, a)
    scaled = transform_moments(s, 3.0 * a)
    np.testing.assert_allclose(scaled.skewness, base.skewness, atol=1e-12)
    flipped = transform_moments(s, -a)
    np.testing.assert_allclose(flipped.skewness, -base.skewness, atol=1e-12)


def test_transform_composes_with_diagonal_maps():
    s = worked_summary()
    a = np.array([[1.0, 1.0], [1.0, -1.0]])
    d = np.diag([2.0, -1.0])
    step = transform_moments(transform_moments(s, a), d)
    direct = transform_moments(s, d @ a)
    np.testing.assert_allclose(step.mean, direct.mean, atol=1e-12)
    np.testing.assert_allclose(step.cov, direct.cov, atol=1e-12)
    np.testing.assert_allclose(step.skewness, direct.skewness, atol=1e-12)


def test_transform_clamps_unattainable_skewness():
    s = JointMomentSummary(
        names=("a", "b"),
        mean=np.zeros(2),
        cov=np.array([[1.0, -0.5], [-0.5, 1.0]]),
        skewness=np.array([0.985, 0.985]),
    )
    out = transform_moments(s, np.array([[1.0, 1.0]]))
    assert out.skewness[0] == 0.99
    assert out.clamped == 1


def test_summary_converts_its_fields_without_copying_float_arrays():
    mean, cov, skew = np.array([1.0, 2.0]), np.array([[2.0, 1.0], [1.0, 5.0]]), np.zeros(2)
    s = JointMomentSummary(names=["a", "b"], mean=mean, cov=cov, skewness=skew, clamped=np.int64(1))
    assert s.mean is mean and s.cov is cov and s.skewness is skew
    assert s.names == ("a", "b") and type(s.clamped) is int
    from_lists = JointMomentSummary(names=("a",), mean=[1], cov=[[2]], skewness=[0])
    assert from_lists.mean.dtype == from_lists.cov.dtype == from_lists.skewness.dtype == float


@pytest.mark.parametrize(
    "field, value",
    [("mean", np.zeros(3)), ("cov", np.ones((1, 2))), ("skewness", np.zeros((2, 1))),
     ("names", ("a",))],
)
def test_summary_refuses_fields_whose_shapes_disagree(field, value):
    kwargs = dataclasses.asdict(worked_summary())
    kwargs[field] = value
    with pytest.raises(InvalidSpec):
        JointMomentSummary(**kwargs)


def test_transform_shape_validation():
    with pytest.raises(DimensionMismatch):
        transform_moments(worked_summary(), np.ones((1, 3)))
    with pytest.raises(DimensionMismatch):
        transform_moments(worked_summary(), np.eye(2), names=("only_one",))


def test_subset_equals_selection_matrix(poisson_fit):
    idx = np.array([0, 5, 30])
    n = poisson_fit.mutilde.shape[1]
    sel = np.zeros((3, n))
    sel[np.arange(3), idx] = 1.0
    a = subset_moments(poisson_fit, idx)
    b = linear_combination_summary(poisson_fit, sel)
    np.testing.assert_allclose(a.mean, b.mean, atol=1e-12)
    np.testing.assert_allclose(a.cov, b.cov, atol=1e-12)
    np.testing.assert_allclose(a.skewness, b.skewness, atol=1e-12)
    assert a.names == ("eta_1", "eta_6", "intercept")
    with pytest.raises(DimensionMismatch):
        subset_moments(poisson_fit, [n])


def test_combination_matches_sampled_moments(poisson_fit):
    n = poisson_fit.mutilde.shape[1]
    a = np.zeros((2, n))
    a[0, 0] = 1.0
    a[0, 5] = 1.0
    a[1, 30] = 0.5
    a[1, 31] = -1.0
    det = linear_combination_summary(poisson_fit, a)
    js = sample_joint(poisson_fit, 60000, seed=99, kind="skew")
    h = js.draws @ a.T
    se = h.std(axis=0) / np.sqrt(js.count)
    assert np.all(np.abs(h.mean(axis=0) - det.mean) < 5 * se)
    np.testing.assert_allclose(h.var(axis=0, ddof=1), np.diag(det.cov), rtol=0.05)
    np.testing.assert_allclose(stats.skew(h, axis=0), det.skewness, atol=0.06)
    assert np.cov(h.T)[0, 1] == pytest.approx(det.cov[0, 1], rel=0.1)


@pytest.fixture(scope="module")
def poisson_61_fit():
    """The N=61 Poisson random-intercept fixture of the acceptance tests,
    refined at two observations, the intercept and one group effect."""
    gen = rng.stream(51)
    grp = np.repeat(np.arange(10), 5)
    u = gen.normal(size=10) * 1.5
    y = gen.poisson(np.exp(u[grp])).astype(float)
    spec = ModelSpec(make_family("poisson"), y=y, group=grp, tau_beta=0.5, re_prior=(1.0, 0.5))
    return fit_model(spec, components=np.array([0, 1, 50, 51]))


def test_combination_mixes_one_configuration_at_a_time(poisson_61_fit):
    fit = poisson_61_fit
    m = 600
    a = np.random.default_rng(15).normal(size=(m, fit.mutilde.shape[1]))
    tracemalloc.start()
    try:
        got = linear_combination_summary(fit, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # stacking all K = 6 configurations' (N, M) and (M, M) products peaked
    # at 23.5 MB (8.2 M^2 doubles); one at a time it is about 3.2 M^2
    assert peak < 4 * m * m * 8

    # the stacked formula, evaluated here from the (K, N, N) covariances
    w = fit.weights
    means = fit.mutilde @ a.T
    covs = a @ (fit.covariance_stack() @ a.T)
    thirds = (fit.gamma * fit.sigma**3) @ (a**3).T
    mean = w @ means
    dev = means - mean
    cov = np.einsum("k,kij->ij", w, covs) + np.einsum("k,ki,kj->ij", w, dev, dev)
    third = w @ (thirds + 3.0 * dev * np.einsum("kii->ki", covs) + dev**3)
    skewness = np.clip(third / np.diag(cov) ** 1.5, -GAMMA_CLAMP, GAMMA_CLAMP)
    assert np.array_equal(got.mean, mean)
    assert np.array_equal(got.cov, cov)
    assert np.array_equal(got.skewness, skewness)


def test_marginal_curves_match_their_moments(poisson_fit):
    det = subset_moments(poisson_fit, [0, 30])
    for i, curve in enumerate(marginals_1d(det)):
        assert np.trapezoid(curve.density, curve.xs) == pytest.approx(1.0, abs=1e-4)
        m, v, g = sn_moments_from_params(curve.params)
        assert m == pytest.approx(det.mean[i], abs=1e-9)
        assert v == pytest.approx(det.cov[i, i], abs=1e-9)
        assert g == pytest.approx(det.skewness[i], abs=1e-9)


def test_kld_between_offset_normals():
    for delta in (0.04, 0.1, 0.3, 0.5):
        xs = np.linspace(-9, 9 + delta, 3001)
        p = np.exp(-0.5 * xs**2) / np.sqrt(2 * np.pi)
        q = np.exp(-0.5 * (xs - delta) ** 2) / np.sqrt(2 * np.pi)
        assert kld_1d(xs, p, q) == pytest.approx(delta**2 / 2, rel=0.02)
    xs = np.linspace(-8, 8, 1001)
    p = np.exp(-0.5 * xs**2)
    assert kld_1d(xs, p, p) == 0.0


def test_kld_support_validation():
    xs = np.linspace(-1, 1, 101)
    p = np.ones(101)
    with pytest.raises(SupportMismatch):
        kld_1d(xs, p, np.ones(100))
    q = np.ones(101)
    q[50] = 0.0
    with pytest.raises(SupportMismatch):
        kld_1d(xs, p, q)
    with pytest.raises(SupportMismatch):
        kld_1d(xs, -p, p)


def one_point_fit():
    """One configuration of a correlated three-component field with skewed margins."""
    q = np.array([[2.0, -0.6, 0.2], [-0.6, 1.5, -0.4], [0.2, -0.4, 1.0]])
    sigma = np.sqrt(np.diag(np.linalg.inv(q)))
    approx = GaussianApprox(
        theta=np.zeros(1),
        mean=np.array([0.1, -0.3, 0.7]),
        precision=PrecisionMatrix(q),
        curvature=np.zeros(3),
        prior_precision=PrecisionMatrix(q),
        converged=True,
        iterations=1,
    )
    return FitResult(
        spec=None,
        grid=[GridPoint(theta=np.zeros(1), log_posterior=0.0, weight=1.0)],
        approximations=[approx],
        mutilde=np.array([[0.2, -0.25, 0.6]]),
        sigma=sigma[None, :],
        gamma=np.array([[0.4, -0.7, 0.15]]),
        names=["x_1", "x_2", "x_3"],
    )


def test_transform_of_the_whole_subset_is_the_combination():
    fit = one_point_fit()
    a = np.array([[1.0, 1.0, 0.0], [0.5, -1.0, 2.0], [0.0, 0.0, -3.0]])
    step = transform_moments(subset_moments(fit, [0, 1, 2]), a)
    direct = linear_combination_summary(fit, a)
    np.testing.assert_allclose(step.mean, direct.mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(step.cov, direct.cov, rtol=0, atol=1e-12)
    np.testing.assert_allclose(step.skewness, direct.skewness, rtol=0, atol=1e-12)
    assert step.names == direct.names == ("lincomb_1", "lincomb_2", "lincomb_3")


def test_zero_row_raises_from_every_entry_point(poisson_fit):
    n = poisson_fit.mutilde.shape[1]
    a = np.zeros((2, n))
    a[0, 30] = 1.0
    with pytest.raises(DimensionMismatch):
        linear_combination_summary(poisson_fit, a)
    with pytest.raises(DimensionMismatch):
        transform_moments(worked_summary(), np.array([[1.0, 1.0], [0.0, 0.0]]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_fit_raises_as_the_sampler_does(poisson_fit):
    idx = [1, 2, 30]  # selects both poisoned columns
    a = np.eye(poisson_fit.mutilde.shape[1])[idx]
    nan_gamma = dataclasses.replace(poisson_fit, gamma=poisson_fit.gamma.copy())
    nan_gamma.gamma[0, 1] = np.nan
    nan_mean = dataclasses.replace(poisson_fit, mutilde=poisson_fit.mutilde.copy())
    nan_mean.mutilde[0, 2] = np.nan
    for fit, error in ((nan_gamma, SkewnessOutOfRange), (nan_mean, InvalidSpec)):
        with pytest.raises(error):
            subset_moments(fit, idx)
        with pytest.raises(error):
            linear_combination_summary(fit, a)
        with pytest.raises(error):
            sample_joint(fit, 200, seed=3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_summary_raises_in_transform():
    bad_skew = dataclasses.replace(worked_summary(), skewness=np.array([np.nan, 0.6]))
    with pytest.raises(SkewnessOutOfRange):
        transform_moments(bad_skew, np.eye(2))
    bad_mean = dataclasses.replace(worked_summary(), mean=np.array([1.0, np.inf]))
    with pytest.raises(InvalidSpec):
        transform_moments(bad_mean, np.eye(2))


@st.composite
def mixtures(draw):
    k = draw(st.integers(1, 6))
    p = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    weights = gen.uniform(0.05, 1.0, size=k)
    factors = gen.normal(size=(k, p, p))
    covs = factors @ factors.transpose(0, 2, 1) + 0.1 * np.eye(p)
    means = gen.normal(scale=2.0, size=(k, p))
    thirds = gen.normal(size=(k, p)) * np.einsum("kii->ki", covs) ** 1.5
    return weights / weights.sum(), means, covs, thirds


@settings(max_examples=200, deadline=None)
@given(mixtures())
def test_mix_moments_match_raw_moment_mixture(mix):
    weights, means, covs, thirds = mix
    mean, cov, third = _mix_moments(weights, means, covs, thirds)
    # raw moments per component: E x, E x x' and E x_i^3, mixed, then centred
    var = np.einsum("kii->ki", covs)
    raw1 = weights @ means
    raw2 = np.einsum("k,kij->ij", weights, covs + np.einsum("ki,kj->kij", means, means))
    raw3 = weights @ (thirds + 3.0 * means * var + means**3)
    np.testing.assert_allclose(mean, raw1, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(cov, raw2 - np.outer(raw1, raw1), rtol=1e-9, atol=1e-9)
    raw_var = np.diag(raw2)
    central3 = raw3 - 3.0 * raw1 * raw_var + 2.0 * raw1**3
    np.testing.assert_allclose(third, central3, rtol=1e-9, atol=1e-9)
