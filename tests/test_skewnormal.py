"""Skew-normal parameterization, distribution functions and the fast map."""

from __future__ import annotations

import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator, PPoly
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
from sgcinla import skewnormal
from sgcinla.skewnormal import (
    _BRACKET_LEVEL,
    GAMMA_ATTAINABLE,
    QuantileTable,
    TABLE_Z_NODES,
    SkewNormalParams,
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


def test_nan_skewness_rejected_by_moment_map():
    with pytest.raises(SkewnessOutOfRange):
        sn_params_from_moments(0.0, 1.0, np.nan)
    with pytest.raises(SkewnessOutOfRange):
        sn_params_from_moments(np.zeros(2), np.ones(2), np.array([0.3, np.nan]))


def test_nan_variance_rejected_by_moment_map():
    with pytest.raises(ValueError, match="variance"):
        sn_params_from_moments(0.0, np.nan, 0.3)
    with pytest.raises(ValueError, match="variance"):
        sn_params_from_moments(np.zeros(2), np.array([1.0, np.nan]), np.full(2, 0.3))


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


def test_map_direct_mixed_2d_equals_scalar_solves():
    gen = np.random.default_rng(29)
    z = gen.uniform(-5.0, 5.0, (6, 7))
    g = gen.choice([-0.7, -0.2, 0.0, 0.35, 0.9], size=z.shape)
    out = standardized_map_direct(g, z)
    expect = [standardized_map_direct(float(gi), float(zi)) for gi, zi in zip(g.flat, z.flat)]
    assert out.shape == z.shape
    assert np.array_equal(out, np.reshape(expect, z.shape))


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


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-99, 99),
    st.lists(st.floats(-6.0, 6.0), min_size=2, max_size=40),
)
def test_fast_map_rows_are_monotone_and_near_the_exact_map(step, zs):
    gamma = step / 100.0  # on the default table's grid
    z = np.sort(np.array(zs))
    fast = fast_map(default_table(), z, gamma)
    # non-decreasing to round-off: at a node, the cubic of the cell to its
    # left can end an ulp above the node value (PPoly sums it the same way)
    assert np.all(np.diff(fast) >= -4 * np.finfo(float).eps * (1.0 + np.abs(fast[1:])))
    assert np.max(np.abs(fast - standardized_map_direct(gamma, z))) <= 1e-3


def test_fast_map_rejects_out_of_range_gamma(table):
    with pytest.raises(SkewnessOutOfRange):
        fast_map(table, np.zeros(1), 0.999)


def test_nan_skewness_rejected_by_table_lookup(table):
    with pytest.raises(SkewnessOutOfRange):
        table.index_of(np.nan)
    with pytest.raises(SkewnessOutOfRange):
        fast_map(table, np.array([0.5]), np.nan)
    with pytest.raises(SkewnessOutOfRange):
        fast_map(table, np.array([0.5, 0.5]), np.array([0.2, np.nan]))


def test_fast_map_mixed_equals_scalar_rows(table):
    # z inside and beyond the outer nodes at +-6; gamma off the grid, and 0
    gen = np.random.default_rng(5)
    z = np.concatenate([np.linspace(-8.0, 8.0, 161), 3.0 * gen.standard_normal(839)])
    z = z.reshape(40, 25)
    g = np.round(gen.uniform(-0.99, 0.99, z.shape), 3)
    g[:, ::4] = 0.0
    got = fast_map(table, z, g)
    assert got.shape == z.shape
    for val in np.unique(g):
        mask = g == val
        assert np.array_equal(got[mask], fast_map(table, z, float(val))[mask]), val


def test_table_is_unchanged_by_lookups():
    fresh = QuantileTable.build()
    before = pickle.dumps(fresh)
    z = np.linspace(-7.0, 7.0, 29)
    for idx in range(fresh.values.shape[0]):
        fresh.map_rows(idx, z)
    fast_map(fresh, np.tile(z, 3), np.repeat([-0.5, 0.0, 0.31], z.size))
    assert pickle.dumps(fresh) == before


def test_fast_map_reproducible(table):
    z = np.linspace(-4, 4, 57)
    a = fast_map(table, z, 0.31)
    b = fast_map(table, z, 0.31)
    assert np.array_equal(a, b)


def _patch_layout(monkeypatch, gamma_step, gamma_max, nodes):
    """Make QuantileTable.build lay out its table with these settings."""
    monkeypatch.setattr(skewnormal, "TABLE_GAMMA_STEP", gamma_step)
    monkeypatch.setattr(skewnormal, "GAMMA_CLAMP", gamma_max)
    monkeypatch.setattr(skewnormal, "TABLE_Z_NODES", nodes)


def test_custom_table_build_consistent_with_default(monkeypatch):
    _patch_layout(monkeypatch, 0.01, 0.03, TABLE_Z_NODES)
    small = QuantileTable.build()
    assert small.values.shape == (7, 61)
    z = np.linspace(-3, 3, 11)
    ref = standardized_map_direct(0.03, z)
    assert np.max(np.abs(small.map_rows(6, z) - ref)) < 1e-3


def _nodes(core: int, tail) -> np.ndarray:
    """``core`` equispaced nodes on [-3.5, 3.5] between the mirrored ``tail``
    nodes, the layout of TABLE_Z_NODES."""
    tail = np.asarray(tail, dtype=float)
    return np.concatenate([-tail[::-1], np.linspace(-3.5, 3.5, core), tail])


def test_default_nodes_layout():
    assert np.array_equal(TABLE_Z_NODES, _nodes(55, [4.0, 5.0, 6.0]))
    assert not TABLE_Z_NODES.flags.writeable


def _build_per_row(gamma_step=0.01, gamma_max=0.99, nodes=TABLE_Z_NODES):
    """The table as one exact solve per row computes it: the reference build."""
    half = int(round(gamma_max / gamma_step))
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
    "layout",
    [
        (0.05, 0.95, _nodes(37, [4.0, 5.0])),
        (0.02, 0.98, _nodes(93, [4.0, 5.0, 6.0, 8.0])),
        (0.01, 0.0, TABLE_Z_NODES),
    ],
    ids=["coarse", "extra-tail-node", "identity-only"],
)
def test_custom_table_equals_per_row_solves(layout, monkeypatch):
    _patch_layout(monkeypatch, *layout)
    assert np.array_equal(QuantileTable.build().values, _build_per_row(*layout))


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


# ---------------------------------------------------------------------------
# the O(1) table kernel against scipy's PPoly, its former evaluation
# ---------------------------------------------------------------------------


def _ppoly_row(table, idx, z):
    """Row ``idx`` of ``table`` as a one-row PCHIP evaluated by scipy's
    ``PPoly`` on the clipped points, continued linearly beyond the nodes."""
    z = np.asarray(z, dtype=float)
    x = table.z_nodes
    cubic = PchipInterpolator(x, table.values[idx])
    out = PPoly.construct_fast(cubic.c, x)(np.clip(z, x[0], x[-1]))
    slope_lo, slope_hi = cubic.derivative()(x[[0, -1]])
    low, high = z < x[0], z > x[-1]
    out[low] = table.values[idx, 0] + slope_lo * (z[low] - x[0])
    out[high] = table.values[idx, -1] + slope_hi * (z[high] - x[-1])
    return out


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _adversarial_points(table):
    """Nodes, bucket edges and their float neighbours, the outer nodes and
    beyond, signed zeros and a normal sample."""
    x = table.z_nodes
    edges = x[0] + np.arange(table._bucket_cell.size + 1) / table._per_width
    spots = np.concatenate([x, edges])
    return np.concatenate([
        spots,
        np.nextafter(spots, -np.inf),
        np.nextafter(spots, np.inf),
        [-9.0, -6.0, 6.0, 9.0, 0.0, -0.0],
        4.0 * np.random.default_rng(1).standard_normal(3000),
    ])


# (gamma step, largest gamma, nodes) of the extra tables the kernel is checked on
_KERNEL_TABLES = {
    "coarse-step": (0.05, 0.95, TABLE_Z_NODES),
    "extra-tail-node": (0.01, 0.99, _nodes(53, [4.0, 5.0, 6.0, 8.0])),
    "101-nodes": (0.01, 0.99, _nodes(95, [4.0, 5.0, 6.0])),
    "identity-only": (0.01, 0.0, TABLE_Z_NODES),
}


@pytest.fixture(scope="module", params=["default", *_KERNEL_TABLES])
def any_table(request, table):
    if request.param == "default":
        return table
    step, gamma_max, nodes = _KERNEL_TABLES[request.param]
    return QuantileTable(step, nodes, _build_per_row(step, gamma_max, nodes))


def test_kernel_rows_equal_ppoly_bit_for_bit(any_table):
    z = _adversarial_points(any_table)
    for idx in range(any_table.values.shape[0]):
        expected = z if idx == any_table._half else _ppoly_row(any_table, idx, z)
        assert _same_bits(any_table.map_rows(idx, z), expected), idx


def test_kernel_per_element_rows_equal_ppoly(any_table):
    z = _adversarial_points(any_table)
    rows = np.random.default_rng(2).integers(0, any_table.values.shape[0], z.size)
    rows[::7] = any_table._half
    got = any_table.map_rows(rows, z)
    for idx in np.unique(rows):
        at = rows == idx
        expected = z[at] if idx == any_table._half else _ppoly_row(any_table, idx, z[at])
        assert _same_bits(got[at], expected), idx
    # a row per column, broadcast down a stack of states, as the sampler uses it
    last = any_table.values.shape[0] - 1
    cols = np.array([0, any_table._half, last, 3 % (last + 1)])
    stack = z[: 4 * (z.size // 4)].reshape(-1, 4)
    got = any_table.map_rows(cols, stack)
    for j, idx in enumerate(cols):
        col = stack[:, j]
        expected = col if idx == any_table._half else _ppoly_row(any_table, idx, col)
        assert _same_bits(got[:, j], expected), j


def test_kernel_starts_its_sum_from_positive_zero():
    # a node value of -0.0 met at z = -0.0: PPoly's sum starts from 0.0, so
    # its value is +0.0 where a sum starting at the constant term gives -0.0
    nodes = np.array([-1.0, 0.0, 1.0, 2.0])
    values = np.array([[-2.0, -0.0, 0.1, 5.1], [-1.0, 0.0, 1.0, 2.0], [-1.5, 0.5, 2.0, 3.0]])
    custom = QuantileTable(0.01, nodes, values)
    z = np.array([-0.0, 0.0, -1e-300, 1e-300])
    assert _same_bits(custom.map_rows(0, z), _ppoly_row(custom, 0, z))
    assert not np.signbit(custom.map_rows(0, z)[0])


def test_kernel_slices_long_inputs_alike(table, monkeypatch):
    z = 3.0 * np.random.default_rng(4).standard_normal((300, 7))
    rows = np.arange(7) * 25
    whole = table.map_rows(rows, z)
    monkeypatch.setattr(skewnormal, "_SLICE_ELEMENTS", 50)
    assert _same_bits(table.map_rows(rows, z), whole)
    flat_rows = np.broadcast_to(rows, z.shape).ravel()
    assert _same_bits(table.map_rows(flat_rows, z.ravel()), whole.ravel())


@pytest.mark.parametrize("gamma", [0.0, 0.37, -0.99])
def test_fast_map_keeps_nan_and_infinities(table, gamma):
    z = np.array([np.nan, np.inf, -np.inf, 0.5, -1e300, 1e300])
    for g in (gamma, np.full(z.shape, gamma), np.array([gamma, 0.2, -0.5, gamma, 0.0, 0.9])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fast_map(table, z, g)
        assert np.isnan(got[0]) and got[1] == np.inf and got[2] == -np.inf
        assert np.all(np.isfinite(got[3:]))


# ---------------------------------------------------------------------------
# bracket checks in sn_quantile
# ---------------------------------------------------------------------------


def test_skipped_bracket_checks_cannot_fire(table):
    # the comparisons sn_quantile skips, at both ends of the skipped level
    # range, for every skewness of the table grid
    params = [standardized_params(float(g)) for g in table.gammas]
    xi = np.array([p.xi for p in params])
    omega = np.array([p.omega for p in params])
    alpha = np.array([p.alpha for p in params])
    grid = SkewNormalParams(xi, omega, alpha)
    assert not np.any(sn_cdf(grid, xi - 9.0 * omega) > _BRACKET_LEVEL)
    assert not np.any(sn_cdf(grid, xi + 9.0 * omega) < 1.0 - _BRACKET_LEVEL)


def test_sn_quantile_equals_checking_every_bracket(monkeypatch):
    levels = np.array([
        1e-300, 1e-20, _BRACKET_LEVEL, np.nextafter(_BRACKET_LEVEL, 0.0), 1e-9, 0.3,
        0.5, 0.97, 1.0 - _BRACKET_LEVEL, 1.0 - 1e-16,
    ])
    cases = [standardized_params(g) for g in (-0.99, -0.4, 0.7, 0.99)]
    cases.append(SkewNormalParams(2.5, 0.01, -6.0))
    skipping = [sn_quantile(p, levels) for p in cases]
    monkeypatch.setattr(skewnormal, "_BRACKET_Z", np.inf)
    for p, got in zip(cases, skipping):
        assert np.array_equal(got, sn_quantile(p, levels))
