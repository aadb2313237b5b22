"""Precision-matrix algebra: factorization, covariance, sampling, constraints."""

from __future__ import annotations

import numpy as np
import pytest

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
