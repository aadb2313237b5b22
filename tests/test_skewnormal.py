"""Skew-normal parameterization, distribution functions and the fast map."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import skewnorm

from sgcinla import (
    DimensionMismatch,
    SkewnessOutOfRange,
    fast_map,
    sn_cdf,
    sn_params_from_moments,
    sn_pdf,
    sn_quantile,
    standardized_map_direct,
)
from sgcinla.skewnormal import (
    GAMMA_ATTAINABLE,
    QuantileTable,
    SkewNormalParams,
    _default_nodes,
    default_table,
    sn_moments_from_params,
    standardized_params,
)


def test_zero_skewness_is_plain_normal():
    p = sn_params_from_moments(0.0, 1.0, 0.0)
    assert (p.xi, p.omega, p.alpha) == (0.0, 1.0, 0.0)


def test_moment_fit_first_worked_case():
    p = sn_params_from_moments(3.0, 9.0, 0.206)
    assert abs(p.alpha - 1.217) < 5e-3
    # independent hand oracle for the implied location and scale
    assert abs(p.xi - 0.6511469) < 1e-3
    assert abs(p.omega - 3.8101326) < 1e-3


def test_moment_fit_second_worked_case():
    p = sn_params_from_moments(-1.0, 5.0, -0.701)
    assert abs(p.alpha - (-3.233)) < 1e-2
    assert abs(p.xi - 1.6333173) < 1e-3
    assert abs(p.omega - 3.4546143) < 1e-3


def test_moment_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(50):
        mean = rng.uniform(-5, 5)
        var = rng.uniform(0.1, 20)
        skew = rng.uniform(-0.99, 0.99)
        p = sn_params_from_moments(mean, var, skew)
        m, v, g = sn_moments_from_params(p)
        assert abs(m - mean) < 1e-9
        assert abs(v - var) < 1e-9
        assert abs(g - skew) < 1e-9


@settings(max_examples=500, deadline=None)
@given(
    mean=st.floats(-1e100, 1e100),
    var=st.floats(1e-100, 1e100),
    skew=st.floats(-0.995, 0.995),
)
def test_moment_maps_invert_each_other(mean, var, skew):
    m, v, g = sn_moments_from_params(sn_params_from_moments(mean, var, skew))
    # the mean cannot come back closer than its own float resolution
    assert abs(m - mean) <= 1e-12 * (np.sqrt(var) + abs(mean))
    assert abs(v - var) <= 1e-12 * var
    assert abs(g - skew) <= 1e-12


def test_skewness_bound_enforced():
    with pytest.raises(SkewnessOutOfRange):
        sn_params_from_moments(0.0, 1.0, 0.996)
    with pytest.raises(SkewnessOutOfRange):
        sn_params_from_moments(0.0, 1.0, -GAMMA_ATTAINABLE)


def test_pdf_cdf_against_scipy():
    p = sn_params_from_moments(0.4, 2.0, -0.55)
    xs = np.linspace(-6, 6, 201)
    assert np.max(np.abs(sn_pdf(p, xs) - skewnorm.pdf(xs, p.alpha, p.xi, p.omega))) < 1e-12
    assert np.max(np.abs(sn_cdf(p, xs) - skewnorm.cdf(xs, p.alpha, p.xi, p.omega))) < 1e-10


def test_cdf_by_quadrature():
    p = SkewNormalParams(xi=-1.0, omega=1.7, alpha=2.4)
    for x in (-2.0, -0.5, 0.0, 1.5):
        ref = quad(lambda t: sn_pdf(p, t), -np.inf, x, epsabs=1e-13, limit=200)[0]
        assert abs(sn_cdf(p, x) - ref) < 1e-10


def test_cdf_at_location_for_large_alpha():
    # half-normal limit: F(xi) = arctan(1/alpha)/pi, about 6.4e-3 at alpha=50
    p = SkewNormalParams(0.0, 1.0, 50.0)
    ref = np.arctan(1.0 / 50.0) / np.pi
    assert abs(sn_cdf(p, 0.0) - ref) < 1e-10
    # the limit itself: well below 1e-3 once alpha reaches 500
    assert sn_cdf(SkewNormalParams(0.0, 1.0, 500.0), 0.0) < 1e-3


def test_quantile_round_trip():
    p = sn_params_from_moments(1.0, 3.0, 0.8)
    qs = np.linspace(0.001, 0.999, 297)
    xs = sn_quantile(p, qs)
    assert np.max(np.abs(sn_cdf(p, xs) - qs)) < 1e-11
    assert np.all(np.diff(xs) > 0)


def test_quantile_against_scipy():
    for g in (-0.9, -0.3, 0.2, 0.7):
        p = sn_params_from_moments(0.0, 1.0, g)
        qs = np.linspace(0.001, 0.999, 99)
        ref = skewnorm.ppf(qs, p.alpha, p.xi, p.omega)
        assert np.max(np.abs(sn_quantile(p, qs) - ref)) < 1e-8


def test_map_identity_at_zero_skewness():
    z = np.linspace(-8, 8, 33)
    out = standardized_map_direct(0.0, z)
    assert np.array_equal(out, z)


def test_map_shrinks_right_tail_for_negative_skewness():
    # a left-skewed marginal pulls a z of three below two
    assert standardized_map_direct(-0.8, 3.0) < 2.0


def test_map_core_deviation_sweep():
    # numeric sweep: the identity stays within 0.1 over [-1.2, 1.2] for
    # moderate skewness (up to about 0.5); across the full clamped range
    # the offset near the origin grows to about 0.205
    zs = np.linspace(-1.2, 1.2, 49)
    for g in np.round(np.arange(-10, 11) * 0.05, 2):
        dev = np.max(np.abs(standardized_map_direct(float(g), zs) - zs))
        assert dev <= 0.1, (g, dev)
    worst = 0.0
    for g in (-0.99, -0.8, 0.8, 0.99):
        worst = max(worst, np.max(np.abs(standardized_map_direct(g, zs) - zs)))
    assert worst < 0.21


def test_map_antisymmetry():
    rng = np.random.default_rng(23)
    z = rng.uniform(-4, 4, 40)
    for g in (0.15, 0.5, 0.85):
        left = standardized_map_direct(-g, -z)
        right = -standardized_map_direct(g, z)
        assert np.max(np.abs(left - right)) < 1e-9


def test_map_strictly_monotone():
    z = np.linspace(-6, 6, 301)
    for g in (-0.97, -0.4, 0.33, 0.9):
        out = standardized_map_direct(g, z)
        assert np.all(np.diff(out) > 0)


def test_map_mixed_gamma_vector():
    z = np.array([0.3, -1.0, 2.0])
    g = np.array([0.2, 0.0, -0.5])
    out = standardized_map_direct(g, z)
    for i in range(3):
        assert abs(out[i] - standardized_map_direct(float(g[i]), float(z[i]))) < 1e-12


# ---------------------------------------------------------------------------
# tabulated fast map
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def table():
    return default_table()


def test_table_has_full_gamma_grid(table):
    assert table.values.shape[0] == 199
    assert table.gammas[0] == -0.99 and table.gammas[-1] == 0.99
    assert np.all(np.diff(table.values, axis=1) > 0)


def test_table_zero_row_is_identity(table):
    z = np.linspace(-6, 6, 101)
    assert np.max(np.abs(fast_map(table, z, 0.0) - z)) <= 1e-12


def test_table_lookup_rounds_to_grid(table):
    idx = table.index_of(0.473)
    assert table.gammas[idx] == pytest.approx(0.47)
    idx = table.index_of(-0.008)
    assert table.gammas[idx] == pytest.approx(-0.01)


def test_fast_map_accuracy_single_pair(table):
    direct = standardized_map_direct(0.6, 2.5)
    assert abs(fast_map(table, np.array(2.5), 0.6) - direct) < 1e-3


def test_fast_map_accuracy_core_range(table):
    zs = np.linspace(-3.5, 3.5, 141)
    for g in (-0.95, -0.5, 0.25, 0.9):
        err = np.max(np.abs(fast_map(table, zs, g) - standardized_map_direct(g, zs)))
        assert err <= 1e-3


def test_fast_map_mixed_batch_speedup(table):
    import time

    from sgcinla.rng import stream

    rng = stream(7, 99)
    n = 100_000
    z = np.clip(rng.standard_normal(n), -3.5, 3.5)
    grid = np.round(np.arange(-19, 20) * 0.05, 2)
    g = grid[rng.integers(0, grid.size, n)]
    fast_map(table, z[:100], g[:100])  # warm interpolants
    t_fast = []
    t_direct = []
    for _ in range(3):
        t0 = time.perf_counter()
        fast = fast_map(table, z, g)
        t_fast.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        direct = standardized_map_direct(g, z)
        t_direct.append(time.perf_counter() - t0)
    assert np.max(np.abs(fast - direct)) <= 1e-3
    assert min(t_direct) / min(t_fast) >= 5.0


def test_fast_map_linear_tails(table):
    # beyond the last node the map continues linearly
    g = 0.6
    v1 = fast_map(table, np.array([6.0]), g)[0]
    v2 = fast_map(table, np.array([6.5]), g)[0]
    v3 = fast_map(table, np.array([7.0]), g)[0]
    assert abs((v3 - v2) - (v2 - v1)) < 1e-12


def test_fast_map_rejects_out_of_range_gamma(table):
    with pytest.raises(SkewnessOutOfRange):
        fast_map(table, np.zeros(1), 0.999)


def test_fast_map_reproducible(table):
    z = np.linspace(-4, 4, 57)
    a = fast_map(table, z, 0.31)
    b = fast_map(table, z, 0.31)
    assert np.array_equal(a, b)


def test_custom_table_build_consistent_with_default():
    small = QuantileTable.build(gamma_step=0.01, gamma_max=0.03, z_max=6.0, n_nodes=61)
    assert small.values.shape == (7, 61)
    z = np.linspace(-3, 3, 11)
    ref = standardized_map_direct(0.03, z)
    assert np.max(np.abs(small.map_row(6, z) - ref)) < 1e-3


def _build_per_row(gamma_step=0.01, gamma_max=0.99, z_max=6.0, n_nodes=61):
    """The table as one exact solve per row computes it: the reference build."""
    half = int(round(gamma_max / gamma_step))
    nodes = _default_nodes(z_max, n_nodes)
    values = np.empty((2 * half + 1, nodes.size))
    for i in range(-half, half + 1):
        g = i * gamma_step
        if i == 0:
            values[half] = nodes
        else:
            values[i + half] = standardized_map_direct(float(g), nodes)
    return values


def test_default_table_equals_per_row_solves(table):
    assert np.array_equal(table.values, _build_per_row())


@pytest.mark.parametrize(
    "spec",
    [(0.05, 0.95, 5.0, 41), (0.02, 0.98, 8.0, 101), (0.01, 0.0, 6.0, 61)],
    ids=["coarse", "extra-tail-node", "identity-only"],
)
def test_custom_table_equals_per_row_solves(spec):
    built = QuantileTable.build(*spec)
    if spec[2] > 6.0:
        assert built.z_nodes[-1] == spec[2] and built.z_nodes[-2] == 6.0
    assert np.array_equal(built.values, _build_per_row(*spec))


def test_table_build_rejects_unattainable_skewness():
    with pytest.raises(SkewnessOutOfRange):
        QuantileTable.build(gamma_step=0.5, gamma_max=1.0)


# Its moments, computed on arrays, round differently from the scalar moment
# map (libm pow against an array square), which moves the Newton start.
_POW_WITNESS = SkewNormalParams(-1.7189220862344063, 2.42897296444648, 4.562071547679208)


def test_sn_quantile_per_element_params_equal_scalar_solves():
    triples = [
        _POW_WITNESS,
        standardized_params(0.9),
        standardized_params(-0.5),
        SkewNormalParams(0.0, 1.0, 0.0),
    ]
    levels = [1e-30, 1e-14, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-14, 1e-200]
    # in the long left tails the tiny levels sit below the cdf at xi - 9 omega,
    # so their brackets widen
    for p in triples[2:]:
        assert sn_cdf(p, p.xi - 9.0 * p.omega) > 1e-30
    pairs = [(p, q) for p in triples for q in levels]
    per_element = SkewNormalParams(
        *(
            np.array([getattr(p, f) for p, _ in pairs]).reshape(4, 10)
            for f in ("xi", "omega", "alpha")
        )
    )
    q = np.array([q for _, q in pairs]).reshape(4, 10)
    got = sn_quantile(per_element, q)
    expected = np.array([sn_quantile(p, q) for p, q in pairs]).reshape(4, 10)
    assert np.array_equal(got, expected)
    assert np.array_equal(got[0], sn_quantile(_POW_WITNESS, levels))


def test_sn_quantile_per_element_params_are_checked():
    params = SkewNormalParams(np.zeros(3), np.ones(3), np.full(3, 2.0))
    with pytest.raises(ValueError):
        sn_quantile(params, np.array([0.2, 1.0, 0.5]))
    with pytest.raises(ValueError):
        sn_quantile(params, np.array([0.0, 0.3, 0.5]))
    with pytest.raises(DimensionMismatch):
        sn_quantile(params, np.array([0.2, 0.5]))


def test_probit_of_cdf_composition():
    # the inverse map: probit of the standardized cdf undoes the correction
    g = 0.45
    z = np.linspace(-3, 3, 25)
    from scipy.special import ndtri

    mapped = standardized_map_direct(g, z)
    back = ndtri(sn_cdf(standardized_params(g), mapped))
    assert np.max(np.abs(back - z)) < 1e-9


def test_map_agrees_with_phi_inverse_definition():
    g = -0.37
    z = np.array([-2.0, -0.3, 0.0, 1.4, 3.1])
    ref = sn_quantile(standardized_params(g), ndtr(z))
    assert np.max(np.abs(standardized_map_direct(g, z) - ref)) < 1e-12
