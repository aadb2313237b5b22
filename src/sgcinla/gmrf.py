"""Dense precision-matrix algebra for Gaussian Markov random fields.

Everything at desk scale (latent dimension up to a few hundred) is handled
with dense Cholesky factorizations.  The central objects are
:class:`PrecisionMatrix` (a validated symmetric positive-definite matrix),
:class:`CholeskyFactor` (its lower-triangular factor with solve / log-det /
sampling support) and :class:`LinearConstraint` (hard equality constraints
``C x = e`` imposed by conditioning-by-kriging).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from . import parallel
from .errors import DimensionMismatch, NotPositiveDefinite, RankDeficientConstraint
from .rng import SALT_GMRF, stream

#: log(2 pi), the normalizing constant of every Gaussian log density.
_LOG_2PI = float(np.log(2.0 * np.pi))

# Relative asymmetry beyond this is treated as a construction error rather
# than round-off to be averaged away.
_ASYMMETRY_TOL = 1e-8


class PrecisionMatrix:
    """Symmetric positive-definite precision matrix.

    The input is symmetrized as ``(Q + Q.T) / 2`` on ingestion; inputs whose
    largest asymmetry exceeds 1e-8 relative to the largest entry are
    rejected.  Positive definiteness is only verified when a factorization
    is requested.  Instances are immutable and safe to share across threads.
    """

    __slots__ = ("_matrix", "_factor")

    def __init__(self, entries):
        q = np.asarray(entries, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise DimensionMismatch(f"precision matrix must be square, got shape {q.shape}")
        scale = np.max(np.abs(q)) if q.size else 0.0
        asym = np.max(np.abs(q - q.T)) if q.size else 0.0
        if asym > _ASYMMETRY_TOL * max(scale, 1.0):
            raise ValueError(
                f"matrix is not symmetric: max |Q - Q.T| = {asym:.3e} "
                f"against scale {scale:.3e}"
            )
        m = 0.5 * (q + q.T)
        m.setflags(write=False)
        self._matrix = m
        self._factor = None

    def plus_diagonal(self, diag) -> "PrecisionMatrix":
        """``PrecisionMatrix(self.matrix + np.diag(diag))`` without the re-validation.

        This matrix is exactly symmetric and a finite diagonal keeps it so,
        and ``(m + m.T) / 2`` of an exactly symmetric ``m`` is ``m`` bit for
        bit, so skipping the asymmetry scan and the re-symmetrization gives
        the same matrix.  Raises ValueError unless ``diag`` is a finite
        vector of length ``dim``.
        """
        d = np.asarray(diag, dtype=float)
        if d.shape != (self.dim,):
            raise DimensionMismatch(f"diagonal has shape {d.shape}, expected ({self.dim},)")
        if not np.all(np.isfinite(d)):
            raise ValueError("diagonal has non-finite entries")
        m = self._matrix + np.diag(d)
        m.setflags(write=False)
        out = PrecisionMatrix.__new__(PrecisionMatrix)
        out._matrix = m
        out._factor = None
        return out

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def factor(self) -> "CholeskyFactor":
        """Cached Cholesky factorization of this matrix."""
        if self._factor is None:
            self._factor = factorize(self)
        return self._factor

    def __repr__(self) -> str:  # pragma: no cover
        return f"PrecisionMatrix(dim={self.dim})"


class CholeskyFactor:
    """Lower Cholesky factor L with Q = L L.T."""

    __slots__ = ("lower", "log_det")

    def __init__(self, lower: np.ndarray):
        self.lower = lower
        # log |Q| = 2 sum log L_ii
        self.log_det = 2.0 * float(np.sum(np.log(np.diag(lower))))

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve Q x = rhs for one right-hand side or a stack of columns."""
        b = np.asarray(rhs, dtype=float)
        y = linalg.solve_triangular(self.lower, b, lower=True)
        return linalg.solve_triangular(self.lower, y, lower=True, trans="T")

    def half_solve_t(self, rhs: np.ndarray) -> np.ndarray:
        """Solve L.T x = rhs; maps iid standard normals to N(0, Q^-1)."""
        return linalg.solve_triangular(self.lower, rhs, lower=True, trans="T")

    def quad_form(self, x: np.ndarray) -> np.ndarray:
        """Quadratic form x.T Q x through the factor (no explicit Q product).

        Accepts a vector or a (count, dim) stack of rows, returning a scalar
        or a vector of length count.
        """
        v = np.asarray(x, dtype=float)
        single = v.ndim == 1
        w = v[None, :] if single else v
        # rows of w @ L give L.T x per row, so the row norms are the forms
        half = w @ self.lower
        out = np.einsum("ij,ij->i", half, half)
        return float(out[0]) if single else out


def factorize(q: PrecisionMatrix) -> CholeskyFactor:
    """Dense lower-Cholesky factorization.

    Raises
    ------
    NotPositiveDefinite
        If a pivot is not strictly positive.
    """
    try:
        lower = linalg.cholesky(q.matrix, lower=True)
    except linalg.LinAlgError as err:
        raise NotPositiveDefinite(f"precision matrix is not positive definite: {err}") from None
    return CholeskyFactor(lower)


def covariance_from_precision(q: PrecisionMatrix) -> np.ndarray:
    """Full covariance matrix Q^-1, symmetrized."""
    fac = q.factor()
    sigma = fac.solve(np.eye(q.dim))
    return 0.5 * (sigma + sigma.T)


@dataclass(frozen=True)
class LinearConstraint:
    """Hard equality constraints C x = e on a Gaussian field.

    ``C`` is k x N with full row rank, ``e`` has length k.  Rank is checked
    at construction.
    """

    C: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.C, dtype=float))
        e = np.atleast_1d(np.asarray(self.e, dtype=float))
        if c.shape[0] != e.shape[0]:
            raise DimensionMismatch(
                f"constraint has {c.shape[0]} rows but {e.shape[0]} targets"
            )
        if c.shape[0] > c.shape[1]:
            raise RankDeficientConstraint(
                f"more constraints ({c.shape[0]}) than field dimension ({c.shape[1]})"
            )
        if np.linalg.matrix_rank(c) < c.shape[0]:
            raise RankDeficientConstraint("constraint matrix does not have full row rank")
        object.__setattr__(self, "C", c)
        object.__setattr__(self, "e", e)

    @property
    def dim(self) -> int:
        return self.C.shape[1]


def apply_constraints(x: np.ndarray, q: PrecisionMatrix, con: LinearConstraint) -> np.ndarray:
    """Project x onto the constraint set by conditioning-by-kriging.

    Computes ``x - Q^-1 C.T (C Q^-1 C.T)^-1 (C x - e)``, which turns a draw
    (or mean) of N(mu, Q^-1) into the corresponding quantity conditioned on
    C x = e.  Accepts a single vector or a (count, N) stack of rows.

    Raises
    ------
    RankDeficientConstraint
        If C Q^-1 C.T is singular.
    """
    v = np.asarray(x, dtype=float)
    if v.shape[-1] != q.dim or con.dim != q.dim:
        raise DimensionMismatch(
            f"constraint dim {con.dim}, field dim {q.dim}, state dim {v.shape[-1]}"
        )
    fac = q.factor()
    qict = fac.solve(con.C.T)               # N x k
    s = con.C @ qict                        # k x k, SPD when C has full rank
    try:
        s_low = linalg.cholesky(s, lower=True)
    except linalg.LinAlgError:
        raise RankDeficientConstraint("C Q^-1 C.T is singular") from None
    resid = v @ con.C.T - con.e             # (...,) x k
    y = linalg.solve_triangular(s_low, resid.T, lower=True)
    lam = linalg.solve_triangular(s_low, y, lower=True, trans="T")
    return v - (qict @ lam).T.reshape(v.shape)


# Rows per block of Gaussian draws; gmrf_blocks alone sizes the blocks.
# Under a one-thread BLAS each block is solved on its own, so the block and
# its solve stay in the per-core cache while sampler.sample_joint corrects
# them.  A multi-threaded BLAS solves all rows at once, since each block's
# solve waits for every BLAS thread (with the default two threads and the
# second of two cores busy, 1e5 draws at N=61 took 0.48 s in blocks against
# 0.25 s in one solve), and that solve is still yielded in blocks.
_BLOCK_ROWS = 512


def gmrf_blocks(
    mean: np.ndarray, q: PrecisionMatrix, count: int, seed: int, salt: int = SALT_GMRF
):
    """Yield ``(start, draws)`` for ``count`` unconstrained draws from N(mean, Q^-1).

    The rows come in order in blocks of ``_BLOCK_ROWS``, all from one
    stream, so their concatenation is :func:`sample_gmrf`'s result.  Under a
    one-thread BLAS (:func:`parallel.blas_threads`) each block solves
    L.T x = z for its own normals, in the same transposed layout as a
    one-shot solve, and every column of a solve with two or more columns
    comes out as in the one-shot solve, at a fixed BLAS thread count.  A
    one-column solve takes another BLAS path whose bits differ, so a last
    block of one row joins the block before it; only a one-row draw is
    solved alone, as in one shot.  With more BLAS threads the blocks are
    views of one solve of all rows.
    """
    mu = np.asarray(mean, dtype=float)
    if mu.shape != (q.dim,):
        raise DimensionMismatch(f"mean has shape {mu.shape}, expected ({q.dim},)")
    if count < 0:
        raise ValueError("count must be nonnegative")
    fac = q.factor()
    gen = stream(seed, salt)
    starts = range(0, count - 1 if count > 1 else count, _BLOCK_ROWS)
    spans = zip(starts, [*starts[1:], count])
    if parallel.blas_threads() == 1:
        for start, stop in spans:
            yield start, mu + fac.half_solve_t(gen.standard_normal((stop - start, q.dim)).T).T
    elif count:
        x = mu + fac.half_solve_t(gen.standard_normal((count, q.dim)).T).T
        for start, stop in spans:
            yield start, x[start:stop]


def sample_gmrf(
    mean: np.ndarray,
    q: PrecisionMatrix,
    count: int,
    seed: int,
    constraint: LinearConstraint | None = None,
    salt: int = SALT_GMRF,
) -> np.ndarray:
    """Draw ``count`` samples from N(mean, Q^-1), optionally constrained.

    Parameters
    ----------
    mean : array of length N
    q : PrecisionMatrix
    count : int
        Number of rows to draw; 0 returns an empty (0, N) array.
    seed : int
        Stream seed; identical seeds reproduce draws bit for bit.
    constraint : LinearConstraint, optional
        When given, every row is corrected to satisfy C x = e.

    Returns
    -------
    (count, N) array, one draw per row, drawn block by block
    (:func:`gmrf_blocks`).
    """
    draws = np.empty((max(count, 0), q.dim))
    for start, block in gmrf_blocks(mean, q, count, seed, salt):
        solve = block if block.base is None else block.base  # blocks may view one solve
        if solve.shape[0] == count:
            draws = solve
        else:
            draws[start : start + block.shape[0]] = block
    if constraint is not None:
        draws = apply_constraints(draws, q, constraint)
    return draws
