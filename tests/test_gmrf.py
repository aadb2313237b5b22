"""Precision-matrix algebra: factorization, covariance, sampling, constraints."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgcinla import (
    DimensionMismatch,
    LinearConstraint,
    NotPositiveDefinite,
    PrecisionMatrix,
    RankDeficientConstraint,
    apply_constraints,
    covariance_from_precision,
    factorize,
    sample_gmrf,
)
from sgcinla import gmrf, parallel
from sgcinla.rng import SALT_GMRF, stream


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def test_symmetrization_on_ingestion():
    q = PrecisionMatrix([[2.0, 1.0 + 1e-12], [1.0, 5.0]])
    assert q.matrix[0, 1] == q.matrix[1, 0]


def test_asymmetric_input_rejected():
    with pytest.raises(ValueError):
        PrecisionMatrix([[2.0, 1.5], [1.0, 5.0]])


def test_non_square_rejected():
    with pytest.raises(DimensionMismatch):
        PrecisionMatrix(np.ones((2, 3)))


def test_plus_diagonal_equals_validating_constructor():
    rng = np.random.default_rng(4)
    raw = random_spd(rng, 7)
    raw[0, 3] += 1e-12  # asymmetry inside the tolerance, averaged away on ingestion
    q = PrecisionMatrix(raw)
    for diag in (rng.standard_normal(7) ** 2, np.zeros(7), np.array([0.0, -0.0, 1e300, 1e-300, 3, 4, 5])):
        got = q.plus_diagonal(diag)
        want = PrecisionMatrix(q.matrix + np.diag(diag))
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert not got.matrix.flags.writeable
        assert got.factor().log_det == want.factor().log_det
    assert q.plus_diagonal(np.ones(7)).factor() is not q.factor()


@pytest.mark.parametrize("diag", [np.ones(6), np.ones((7, 1)), [1, 2, 3, 4, 5, 6, np.nan],
                                  [1, 2, 3, 4, 5, 6, np.inf]])
def test_plus_diagonal_rejects_bad_diagonals(diag):
    q = PrecisionMatrix(np.eye(7))
    with pytest.raises(ValueError):
        q.plus_diagonal(diag)


def test_log_det_of_inverse_two_by_two():
    # Q = [[2,1],[1,5]]^-1 has determinant 1/9
    q = PrecisionMatrix(np.linalg.inv(np.array([[2.0, 1.0], [1.0, 5.0]])))
    assert abs(factorize(q).log_det - (-np.log(9.0))) < 1e-10


def test_log_det_diagonal():
    q = PrecisionMatrix(np.diag([4.0, 9.0]))
    assert abs(factorize(q).log_det - np.log(36.0)) < 1e-10


def test_not_positive_definite_raises():
    with pytest.raises(NotPositiveDefinite):
        factorize(PrecisionMatrix([[1.0, 2.0], [2.0, 1.0]]))


def test_factorize_solve_round_trip():
    rng = np.random.default_rng(42)
    for n in range(1, 11):
        q = PrecisionMatrix(random_spd(rng, n))
        fac = factorize(q)
        b = rng.standard_normal(n)
        x = fac.solve(b)
        assert np.max(np.abs(q.matrix @ x - b)) < 1e-8


def test_log_det_matches_slogdet():
    rng = np.random.default_rng(3)
    for n in (2, 5, 9):
        m = random_spd(rng, n)
        fac = factorize(PrecisionMatrix(m))
        sign, ref = np.linalg.slogdet(m)
        assert sign > 0
        assert abs(fac.log_det - ref) < 1e-10


def test_covariance_from_precision_frozen_example():
    q = PrecisionMatrix(np.array([[5.0, -1.0], [-1.0, 2.0]]) / 9.0)
    sigma = covariance_from_precision(q)
    assert np.max(np.abs(sigma - np.array([[2.0, 1.0], [1.0, 5.0]]))) < 1e-8


def test_covariance_identity_residual():
    rng = np.random.default_rng(11)
    for n in (3, 7, 10):
        q = PrecisionMatrix(random_spd(rng, n))
        sigma = covariance_from_precision(q)
        assert np.max(np.abs(q.matrix @ sigma - np.eye(n))) < 1e-8
        assert np.max(np.abs(sigma - sigma.T)) == 0.0


def test_quad_form_matches_dense():
    rng = np.random.default_rng(5)
    m = random_spd(rng, 6)
    fac = factorize(PrecisionMatrix(m))
    x = rng.standard_normal(6)
    assert abs(fac.quad_form(x) - x @ m @ x) < 1e-9
    xs = rng.standard_normal((4, 6))
    ref = np.einsum("ij,jk,ik->i", xs, m, xs)
    assert np.max(np.abs(fac.quad_form(xs) - ref)) < 1e-9


def test_sample_gmrf_zero_count():
    q = PrecisionMatrix(np.eye(3))
    draws = sample_gmrf(np.zeros(3), q, 0, seed=1)
    assert draws.shape == (0, 3)


def test_sample_gmrf_seed_determinism():
    q = PrecisionMatrix(np.eye(2))
    a = sample_gmrf(np.zeros(2), q, 50, seed=123)
    b = sample_gmrf(np.zeros(2), q, 50, seed=123)
    c = sample_gmrf(np.zeros(2), q, 50, seed=124)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_gmrf_univariate_moments():
    q = PrecisionMatrix([[1.0]])
    draws = sample_gmrf(np.zeros(1), q, 100_000, seed=7)[:, 0]
    assert abs(draws.mean()) < 4.0 / np.sqrt(100_000)
    assert abs(draws.var(ddof=1) - 1.0) < 0.02


def test_sample_gmrf_covariance_recovery():
    target = np.array([[2.0, 1.0], [1.0, 5.0]])
    q = PrecisionMatrix(np.linalg.inv(target))
    draws = sample_gmrf(np.array([1.0, 2.0]), q, 100_000, seed=21)
    est = np.cov(draws.T)
    assert np.max(np.abs(est - target) / np.abs(target)) < 0.03
    assert np.max(np.abs(draws.mean(axis=0) - [1.0, 2.0])) < 0.03


def _one_shot_draws(mean, q, count, seed, constraint=None):
    """All normals in one call and one triangular solve: the unblocked draw."""
    z = stream(seed, SALT_GMRF).standard_normal((count, q.dim))
    draws = mean + q.factor().half_solve_t(z.T).T
    return draws if constraint is None else apply_constraints(draws, q, constraint)


_BLOCK = gmrf._BLOCK_ROWS


def _blas_threads(monkeypatch, count):
    """Make ``gmrf_blocks`` size its blocks for ``count`` BLAS threads.

    Only the block size follows; the BLAS keeps its own thread count."""
    monkeypatch.setattr(parallel, "blas_threads", lambda: count)


@pytest.mark.parametrize(
    "count",
    [0, 1, 2, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 1, 3 * _BLOCK + 17],
    ids=["0", "1", "2", "block", "block+1", "many+1", "many"],
)
@pytest.mark.parametrize("constrained", [False, True], ids=["free", "constrained"])
@pytest.mark.parametrize("threads", [1, 2], ids=["blocks", "one-block"])
def test_blocked_draws_equal_one_shot_draws(count, constrained, threads, monkeypatch):
    _blas_threads(monkeypatch, threads)
    rng = np.random.default_rng(12)
    q = PrecisionMatrix(random_spd(rng, 61))
    mean = rng.standard_normal(61)
    con = None
    if constrained:
        con = LinearConstraint(C=rng.standard_normal((2, 61)), e=np.array([0.5, -1.0]))
    got = sample_gmrf(mean, q, count, seed=31, constraint=con)
    assert got.shape == (count, 61)
    assert np.array_equal(got, _one_shot_draws(mean, q, count, 31, con))


# A block of one row would be solved through the BLAS's one-column path,
# which rounds differently; gmrf_blocks never makes one unless asked for one row.
@pytest.mark.parametrize("rows", [2, 7, 64, 256, 1024, 4096])
def test_draws_do_not_depend_on_the_block_size(rows, monkeypatch):
    _blas_threads(monkeypatch, 1)
    rng = np.random.default_rng(5)
    q = PrecisionMatrix(random_spd(rng, 61))
    mean = rng.standard_normal(61)
    monkeypatch.setattr(gmrf, "_BLOCK_ROWS", rows)
    count = 2 * rows + 150
    blocks = list(gmrf.gmrf_blocks(mean, q, count, seed=4))
    assert [start for start, _ in blocks] == list(range(0, count, rows))
    got = np.concatenate([b for _, b in blocks])
    assert np.array_equal(got, _one_shot_draws(mean, q, count, 4))


def test_a_last_row_joins_the_block_before_it(monkeypatch):
    _blas_threads(monkeypatch, 1)
    q = PrecisionMatrix(np.eye(3))
    sizes = lambda count: [b.shape[0] for _, b in gmrf.gmrf_blocks(np.zeros(3), q, count, 1)]
    assert sizes(1) == [1]
    assert sizes(_BLOCK + 1) == [_BLOCK + 1]
    assert sizes(2 * _BLOCK + 1) == [_BLOCK, _BLOCK + 1]
    assert sizes(2 * _BLOCK + 2) == [_BLOCK, _BLOCK, 2]


def test_a_multithreaded_blas_solves_in_one_block(monkeypatch):
    # each block's solve would wait for every BLAS thread; the one solve
    # still comes out in blocks
    q = PrecisionMatrix(np.eye(3))
    solves = []
    real = gmrf.CholeskyFactor.half_solve_t
    monkeypatch.setattr(
        gmrf.CholeskyFactor, "half_solve_t", lambda fac, rhs: solves.append(1) or real(fac, rhs)
    )

    def sizes(count):
        solves.clear()
        return [b.shape[0] for _, b in gmrf.gmrf_blocks(np.zeros(3), q, count, 1)]

    for var in parallel._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert parallel.blas_threads() == 1
    assert sizes(3 * _BLOCK) == [_BLOCK] * 3 and len(solves) == 3
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert parallel.blas_threads() == 2
    assert sizes(3 * _BLOCK) == [_BLOCK] * 3 and len(solves) == 1
    assert sizes(3 * _BLOCK + 1) == [_BLOCK, _BLOCK, _BLOCK + 1] and len(solves) == 1
    assert max(sizes(10 * _BLOCK + 77)) <= _BLOCK + 1 and len(solves) == 1
    assert sizes(0) == [] and solves == []


def test_apply_constraints_sum_to_zero():
    q = PrecisionMatrix(np.eye(2))
    con = LinearConstraint(C=np.array([[1.0, 1.0]]), e=np.array([0.0]))
    out = apply_constraints(np.array([2.0, 0.0]), q, con)
    assert np.max(np.abs(out - np.array([1.0, -1.0]))) < 1e-12


def test_apply_constraints_pins_first_coordinate():
    q = PrecisionMatrix(np.eye(2))
    con = LinearConstraint(C=np.array([[1.0, 0.0]]), e=np.array([5.0]))
    out = apply_constraints(np.array([0.0, 3.0]), q, con)
    assert np.max(np.abs(out - np.array([5.0, 3.0]))) < 1e-12


def test_apply_constraints_idempotent():
    rng = np.random.default_rng(8)
    q = PrecisionMatrix(random_spd(rng, 5))
    con = LinearConstraint(C=rng.standard_normal((2, 5)), e=np.array([0.3, -1.0]))
    x = rng.standard_normal(5)
    once = apply_constraints(x, q, con)
    twice = apply_constraints(once, q, con)
    assert np.max(np.abs(once - twice)) < 1e-10
    assert np.max(np.abs(con.C @ once - con.e)) < 1e-8


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_apply_constraints_meets_the_constraint_to_round_off(n, k, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n, n))
    q = PrecisionMatrix(f @ f.T + 0.1 * np.eye(n))
    con = LinearConstraint(C=rng.standard_normal((min(k, n), n)), e=rng.standard_normal(min(k, n)))
    x = rng.normal(scale=3.0, size=(5, n))
    out = apply_constraints(x, q, con)
    # round-off grows with the condition of C Q^-1 C'; over 2e4 random cases
    # drawn like these the worst residual was 2.4 eps times it
    s = con.C @ np.linalg.solve(q.matrix, con.C.T)
    scale = np.abs(con.C) @ (np.abs(x) + np.abs(out)).T + np.abs(con.e)[:, None]
    bound = 16 * np.finfo(float).eps * np.linalg.cond(s) * scale
    assert np.all(np.abs(con.C @ out.T - con.e[:, None]) <= bound)


def test_constrained_samples_satisfy_constraint():
    rng = np.random.default_rng(2)
    q = PrecisionMatrix(random_spd(rng, 4))
    con = LinearConstraint(C=np.array([[1.0, 1.0, 1.0, 1.0]]), e=np.array([0.0]))
    draws = sample_gmrf(rng.standard_normal(4), q, 500, seed=9, constraint=con)
    assert np.max(np.abs(draws.sum(axis=1))) < 1e-8


def test_rank_deficient_constraint_rejected():
    with pytest.raises(RankDeficientConstraint):
        LinearConstraint(C=np.array([[1.0, 1.0], [2.0, 2.0]]), e=np.zeros(2))


def test_constraint_dimension_checked():
    q = PrecisionMatrix(np.eye(3))
    con = LinearConstraint(C=np.ones((1, 2)), e=np.zeros(1))
    with pytest.raises(DimensionMismatch):
        apply_constraints(np.zeros(3), q, con)
