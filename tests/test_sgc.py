"""Copula corrections: transforms, Jacobian, densities and sampling."""

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

from sgcinla import rng
from sgcinla.errors import BoundaryEvaluation, DimensionMismatch, InvalidSpec, SkewnessOutOfRange
from sgcinla.gmrf import PrecisionMatrix, sample_gmrf
from sgcinla.sgc import (
    CDF_CLIP,
    CorrectionKind,
    FullConditionalSGC,
    as_kind,
    correction_delta,
    forward_transform,
    inverse_transform,
    jacobian_terms,
    log_density_sgc,
)
from sgcinla.skewnormal import sn_cdf, sn_params_from_moments, sn_pdf, standardized_map_direct


# covariance of the 2-D fixtures; the precision is its inverse
PAIR_COV = np.array([[2.0, -0.9], [-0.9, 1.5]])


def make_pair(gamma=(0.6, -0.6)):
    """2-D correlated target, by default with opposite marginal skews."""
    return FullConditionalSGC(
        mu=[1.0, -0.5],
        precision=PrecisionMatrix(np.linalg.inv(PAIR_COV)),
        mutilde=[1.2, -0.4],
        gamma=list(gamma),
        sigma=np.sqrt(np.diag(PAIR_COV)),
    )


def make_pair_symmetric():
    return make_pair(gamma=(0.0, 0.0))


def test_kind_parsing():
    assert as_kind("skew") is CorrectionKind.SKEW
    assert as_kind(CorrectionKind.MEAN) is CorrectionKind.MEAN
    with pytest.raises(InvalidSpec):
        as_kind("median")


@pytest.mark.parametrize(
    "field, error",
    [("gamma", SkewnessOutOfRange), ("sigma", InvalidSpec), ("mu", InvalidSpec),
     ("mutilde", InvalidSpec)],
)
def test_nan_margin_rejected(field, error):
    margins = dict(
        mu=[1.0, -0.5],
        precision=PrecisionMatrix(np.linalg.inv(PAIR_COV)),
        mutilde=[1.2, -0.4],
        gamma=[0.6, -0.6],
        sigma=[1.4, 1.2],
    )
    margins[field] = [np.nan, margins[field][1]]
    with pytest.raises(error):
        FullConditionalSGC(**margins)


def test_forward_none_copies():
    fc = make_pair()
    x = np.array([0.3, 0.4])
    out = forward_transform(fc, x, kind="none")
    np.testing.assert_array_equal(out, x)
    out[0] = 99.0
    assert x[0] == 0.3


def test_forward_mean_is_exact_shift():
    fc = make_pair()
    x = rng.stream(11).normal(size=(20, 2))
    out = forward_transform(fc, x, kind="mean")
    assert np.array_equal(out, x + (fc.mutilde - fc.mu))


def test_forward_skew_single_coordinate_matches_manual_map():
    fc = FullConditionalSGC(
        mu=[0.5], precision=PrecisionMatrix([[0.25]]), mutilde=[0.9], gamma=[0.3], sigma=[2.0]
    )
    direct = forward_transform(fc, np.array([1.7]), use_table=False)[0]
    manual = 0.9 + 2.0 * standardized_map_direct(0.3, (1.7 - 0.5) / 2.0)
    assert direct == manual
    fast = forward_transform(fc, np.array([1.7]), use_table=True)[0]
    assert fast == pytest.approx(direct, abs=1e-3)


def test_forward_inverse_round_trip():
    fc = make_pair()
    gen = rng.stream(4242)
    x = fc.mu + gen.normal(size=(50, 2)) * fc.sigma
    u = forward_transform(fc, x, use_table=False)
    np.testing.assert_allclose(inverse_transform(fc, u), x, atol=1e-6)


def test_table_and_direct_forward_agree():
    fc = make_pair()
    gen = rng.stream(4242)
    x = fc.mu + gen.normal(size=(50, 2)) * fc.sigma
    direct = forward_transform(fc, x, use_table=False)
    fast = forward_transform(fc, x, use_table=True)
    assert np.max(np.abs(fast - direct)) < 1e-3


def test_inverse_mean_is_exact_shift():
    fc = make_pair()
    u = rng.stream(12).normal(size=(5, 2))
    assert np.array_equal(inverse_transform(fc, u, kind="mean"), u - (fc.mutilde - fc.mu))


def test_state_dimension_checked():
    fc = make_pair()
    with pytest.raises(DimensionMismatch):
        forward_transform(fc, np.zeros(3))
    with pytest.raises(DimensionMismatch):
        jacobian_terms(fc, np.zeros((4, 5)))


# ---------------------------------------------------------------------------
# Jacobian and densities
# ---------------------------------------------------------------------------


def test_jacobian_is_one_at_zero_skewness():
    fc = make_pair_symmetric()
    u = np.array([0.7, 0.1])
    jt = jacobian_terms(fc, u)
    assert np.array_equal(jt.delta, np.ones(2))
    np.testing.assert_array_equal(jt.gauss_dev, u - fc.mutilde)
    assert jt.clipped == 0


def test_jacobian_matches_finite_differences():
    fc = make_pair()
    u0 = np.array([1.7, -1.1])
    jt = jacobian_terms(fc, u0)
    h = 1e-5
    for i in range(2):
        up, dn = u0.copy(), u0.copy()
        up[i] += h
        dn[i] -= h
        fd = (inverse_transform(fc, up)[i] - inverse_transform(fc, dn)[i]) / (2 * h)
        assert jt.delta[i] == pytest.approx(fd, abs=1e-9)


def test_jacobian_boundary_raises():
    fc = make_pair()
    far = fc.mutilde + 60.0 * fc.sigma
    with pytest.raises(BoundaryEvaluation):
        jacobian_terms(fc, far)
    with pytest.raises(BoundaryEvaluation):
        inverse_transform(fc, far)


def test_jacobian_clips_cdf_near_zero():
    fc = FullConditionalSGC(
        mu=[0.0, 0.0],
        precision=PrecisionMatrix(np.eye(2)),
        mutilde=[0.1, 0.0],
        gamma=[0.4, -0.4],
        sigma=[1.0, 1.0],
    )
    u = np.array([-6.0, 0.0])
    p = sn_cdf(sn_params_from_moments(fc.mutilde, fc.sigma**2, fc.gamma), u)
    assert 0.0 < p[0] < CDF_CLIP  # about 8.8e-16
    jt = jacobian_terms(fc, u)
    assert jt.clipped == 1
    assert np.all(np.isfinite(jt.delta)) and np.all(jt.delta > 0)
    # the probit is taken at the clip, not at the cdf value
    assert jt.gauss_dev[0] == ndtri(CDF_CLIP)


def test_log_density_hand_value():
    # unit precision, centered: log density at (1, 2) is -log(2 pi) - 5/2
    fc = FullConditionalSGC(
        mu=[0.0, 0.0],
        precision=PrecisionMatrix(np.eye(2)),
        mutilde=[0.0, 0.0],
        gamma=[0.0, 0.0],
        sigma=[1.0, 1.0],
    )
    val = log_density_sgc(fc, np.array([1.0, 2.0]), kind="mean")
    assert val == pytest.approx(-np.log(2 * np.pi) - 2.5, abs=1e-12)


def test_log_density_one_margin_equals_skew_normal():
    fc = FullConditionalSGC(
        mu=[0.5], precision=PrecisionMatrix([[0.25]]), mutilde=[0.9], gamma=[0.3], sigma=[2.0]
    )
    params = sn_params_from_moments(0.9, 4.0, 0.3)
    for u in (-2.0, 0.9, 3.5):
        assert log_density_sgc(fc, [u]) == pytest.approx(np.log(sn_pdf(params, u)), abs=1e-12)


def test_log_density_normalizes_in_two_dimensions():
    fc = make_pair()
    # integration windows track the skew: long tail 7 sd, short tail 4.4 sd
    g1 = np.linspace(fc.mutilde[0] - 4.4 * fc.sigma[0], fc.mutilde[0] + 7 * fc.sigma[0], 801)
    g2 = np.linspace(fc.mutilde[1] - 7 * fc.sigma[1], fc.mutilde[1] + 4.4 * fc.sigma[1], 801)
    pts = np.stack(np.meshgrid(g1, g2, indexing="ij"), axis=-1).reshape(-1, 2)
    vals = np.exp(log_density_sgc(fc, pts)).reshape(801, 801)
    mass = np.trapezoid(np.trapezoid(vals, g2, axis=1), g1)
    assert mass == pytest.approx(1.0, abs=1e-4)


def test_log_density_mean_kind_recenters():
    fc = make_pair()
    at_mutilde = log_density_sgc(fc, fc.mutilde, kind="mean")
    fac = fc.precision.factor()
    assert at_mutilde == pytest.approx(-np.log(2 * np.pi) + 0.5 * fac.log_det, abs=1e-12)


def test_correction_delta_reduces_to_quadratic_shift():
    fc = make_pair_symmetric()
    d = fc.mutilde - fc.mu
    expected = 0.5 * d @ fc.precision.matrix @ d
    assert correction_delta(fc) == pytest.approx(expected, abs=1e-10)


def test_correction_delta_matches_density_gap_at_mean():
    fc = make_pair()
    gap = log_density_sgc(fc, fc.mu, kind="none") - log_density_sgc(fc, fc.mu)
    assert correction_delta(fc) == pytest.approx(gap, abs=1e-10)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sampling_reaches_target_moments():
    fc = make_pair()
    draws = forward_transform(fc, sample_gmrf(fc.mu, fc.precision, 200000, 7), "skew")
    np.testing.assert_allclose(draws.mean(axis=0), fc.mutilde, atol=0.02)
    np.testing.assert_allclose(draws.std(axis=0, ddof=1), fc.sigma, atol=0.02)
    np.testing.assert_allclose(stats.skew(draws, axis=0), fc.gamma, atol=0.03)


def test_sampling_mean_kind_recenters_only():
    fc = make_pair()
    base = forward_transform(fc, sample_gmrf(fc.mu, fc.precision, 500, 3), "none")
    shifted = forward_transform(fc, sample_gmrf(fc.mu, fc.precision, 500, 3), "mean")
    assert np.array_equal(shifted, base + (fc.mutilde - fc.mu))


def test_skew_degenerates_to_mean_bitwise():
    for gamma in ([0.0, 0.0], [1e-4, -2e-3]):  # exact zero and rounds-to-zero
        fc = make_pair(gamma)
        a = forward_transform(fc, sample_gmrf(fc.mu, fc.precision, 1000, 7), "mean")
        b = forward_transform(fc, sample_gmrf(fc.mu, fc.precision, 1000, 7), "skew")
        assert np.array_equal(a, b)


def test_sampling_is_reproducible():
    fc = make_pair()
    a = forward_transform(fc, sample_gmrf(fc.mu, fc.precision, 100, 21), "skew")
    b = forward_transform(fc, sample_gmrf(fc.mu, fc.precision, 100, 21), "skew")
    c = forward_transform(fc, sample_gmrf(fc.mu, fc.precision, 100, 22), "skew")
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
