"""Random-walk Metropolis reference sampler for the supported models.

This sampler exists to validate the deterministic approximations against
long-run simulation, so it deliberately shares no code with the inference
engine: the target density is written out parameter by parameter from the
generative story.  Sampling runs on the core parameters (fixed effects,
random effects and the log precision of the random effect); the linear
predictor is reconstructed as eta = B beta + D u when latent draws are
requested.  The linking noise the engine carries for numerical convenience
has variance exp(-15), far below every posterior scale here, so the two
parameterizations describe the same posterior for validation purposes.

Proposals are componentwise Gaussian steps, adapted in batches during
burn-in toward a 23-40% acceptance band and frozen afterwards; all chains
advance in lockstep through vectorized target evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import InsufficientSamples
from .gmrf import _LOG_2PI
from .model import ModelSpec
from .rng import SALT_MCMC_BASE, stream


# Burn-in adaptation of every recorded reference run: every ADAPT_INTERVAL iterations each
# proposal sd (first STEP_INIT) shrinks by 0.8 below ACCEPT_LOW acceptance, grows by 1.25 above
# ACCEPT_HIGH.
ADAPT_INTERVAL = 50
STEP_INIT = 0.5
ACCEPT_LOW = 0.23
ACCEPT_HIGH = 0.40


@dataclass(frozen=True)
class ChainConfig:
    """Run lengths of the reference sampler."""

    chains: int = 4
    burn: int = 2000
    keep: int = 5000

    def __post_init__(self):
        if self.chains < 2:
            raise ValueError("at least two chains are needed for convergence checks")
        if self.burn < 0 or self.keep <= 0:
            raise ValueError("burn must be nonnegative and keep positive")


def metropolis_componentwise(logpost, x0: np.ndarray, config: ChainConfig, seed: int):
    """Componentwise random-walk Metropolis, vectorized across chains.

    ``logpost`` maps a (chains, dim) state block to one log density per
    chain.  Every iteration proposes each coordinate in turn with its own
    per-chain step size; during burn-in the steps adapt in batches toward
    the acceptance band [ACCEPT_LOW, ACCEPT_HIGH], afterwards they stay fixed.

    Returns (draws, accept_rate) with draws shaped (chains, keep, dim) and
    the post-burn-in acceptance rate per coordinate pooled over chains.
    """
    x = np.array(x0, dtype=float)
    chains, dim = x.shape
    gen = stream(seed, SALT_MCMC_BASE)
    steps = np.full((chains, dim), STEP_INIT)
    current = logpost(x)
    if current.shape != (chains,):
        raise ValueError("logpost must return one value per chain")

    draws = np.empty((chains, config.keep, dim))
    batch_acc = np.zeros((chains, dim))
    batch_n = 0
    kept_acc = np.zeros(dim)
    total = config.burn + config.keep
    for it in range(total):
        noise = gen.standard_normal((chains, dim))
        accept_u = np.log(gen.random((chains, dim)))
        for d in range(dim):
            cand = x.copy()
            cand[:, d] += steps[:, d] * noise[:, d]
            cand_lp = logpost(cand)
            ok = accept_u[:, d] < cand_lp - current
            x[ok] = cand[ok]
            current = np.where(ok, cand_lp, current)
            batch_acc[:, d] += ok
            if it >= config.burn:
                kept_acc[d] += float(np.count_nonzero(ok))
        batch_n += 1
        if it < config.burn and batch_n == ADAPT_INTERVAL:
            rate = batch_acc / batch_n
            steps *= np.where(rate < ACCEPT_LOW, 0.8, 1.0)
            steps *= np.where(rate > ACCEPT_HIGH, 1.25, 1.0)
            batch_acc[:] = 0.0
            batch_n = 0
        if it == config.burn - 1:
            batch_acc[:] = 0.0
            batch_n = 0
        if it >= config.burn:
            draws[:, it - config.burn] = x
    return draws, kept_acc / (config.keep * chains)


def _core_names(spec: ModelSpec) -> tuple:
    names = []
    if spec.intercept:
        names.append("intercept")
    names.extend(f"beta_{c}" for c in spec.covariate_names)
    names.extend(f"u_{l + 1}" for l in range(spec.n_groups))
    if spec.n_hyper:
        names.append("log_tau_u")
    return tuple(names)


def make_core_logpost(spec: ModelSpec):
    """Vectorized log posterior of (beta, u, log tau_u) from the generative story."""
    b = spec.fixed_design()
    d = spec.group_design()
    p, m = spec.n_fixed, spec.n_groups
    tau_beta = spec.tau_beta
    a_pr, b_pr = spec.re_prior
    y, trials = spec.y, spec.trials
    family = spec.family

    def logpost(v):
        v = np.atleast_2d(v)
        beta = v[:, :p]
        u = v[:, p : p + m]
        eta = beta @ b.T + (u @ d.T if m else 0.0)
        ll = family.loglik(y, eta, trials)[0].sum(axis=-1)
        out = ll - 0.5 * np.sum(tau_beta * beta**2, axis=-1)
        out += 0.5 * np.sum(np.log(tau_beta)) - 0.5 * p * _LOG_2PI
        if m:
            theta = v[:, p + m]
            tau_u = np.exp(theta)
            out += 0.5 * m * (theta - _LOG_2PI) - 0.5 * tau_u * np.sum(u**2, axis=-1)
            # Gamma(a, b) prior on tau_u with the log-scale Jacobian
            out += a_pr * np.log(b_pr) - gammaln(a_pr) + a_pr * theta - b_pr * tau_u
        return out

    return logpost


@dataclass
class ReferenceRun:
    """Output of the reference sampler with convergence diagnostics."""

    spec: ModelSpec
    draws: np.ndarray
    names: tuple
    accept_rate: np.ndarray
    seed: int

    @property
    def chains(self) -> int:
        return self.draws.shape[0]

    @property
    def kept(self) -> int:
        return self.draws.shape[1]

    def pooled(self) -> np.ndarray:
        return self.draws.reshape(-1, self.draws.shape[2])

    def rhat(self) -> np.ndarray:
        return split_rhat(self.draws)

    def ess(self) -> np.ndarray:
        return effective_sample_size(self.draws)

    def latent_draws(self) -> np.ndarray:
        """Pooled draws of the latent field (eta, fixed effects, random effects)."""
        p, m = self.spec.n_fixed, self.spec.n_groups
        core = self.pooled()
        beta = core[:, :p]
        u = core[:, p : p + m]
        eta = beta @ self.spec.fixed_design().T
        if m:
            eta = eta + u @ self.spec.group_design().T
        return np.hstack([eta, beta, u])

    def hyper_draws(self) -> np.ndarray:
        if not self.spec.n_hyper:
            return np.empty((self.pooled().shape[0], 0))
        return self.pooled()[:, -1:]


def run_reference(
    spec: ModelSpec, config: ChainConfig | None = None, seed: int = 0
) -> ReferenceRun:
    """Run the reference sampler on a model specification.

    Chains start from zero coordinates jittered chain by chain, so
    convergence diagnostics across chains are meaningful.
    """
    config = config if config is not None else ChainConfig()
    dim = spec.n_fixed + spec.n_groups + spec.n_hyper
    gen = stream(seed, SALT_MCMC_BASE + 1)
    x0 = 0.5 * gen.standard_normal((config.chains, dim))
    logpost = make_core_logpost(spec)
    draws, accept = metropolis_componentwise(logpost, x0, config, seed)
    return ReferenceRun(
        spec=spec, draws=draws, names=_core_names(spec), accept_rate=accept, seed=seed
    )


# ---------------------------------------------------------------------------
# convergence diagnostics
# ---------------------------------------------------------------------------


def split_rhat(draws: np.ndarray) -> np.ndarray:
    """Potential scale reduction on split chains, per parameter.

    ``draws`` is (chains, n, dim); each chain is split in half, so the
    statistic also flags trends within single chains.
    """
    chains, n, dim = draws.shape
    if n < 4:
        raise InsufficientSamples("need at least 4 draws per chain for split statistics")
    half = n // 2
    seqs = np.concatenate([draws[:, :half], draws[:, half : 2 * half]], axis=0)
    means = seqs.mean(axis=1)
    variances = seqs.var(axis=1, ddof=1)
    w = variances.mean(axis=0)
    b = half * means.var(axis=0, ddof=1)
    var_plus = (half - 1) / half * w + b / half
    return np.sqrt(var_plus / w)


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Autocovariance by FFT for one sequence, all lags."""
    n = x.size
    centered = x - x.mean()
    size = 2 ** int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(centered, size)
    acov = np.fft.irfft(f * np.conjugate(f), size)[:n].real
    return acov / n


def effective_sample_size(draws: np.ndarray) -> np.ndarray:
    """Effective sample size per parameter from pooled-chain autocorrelation.

    Uses the split-chain variance estimate with Geyer's initial positive
    sequence rule to truncate the autocorrelation sum.
    """
    chains, n, dim = draws.shape
    if n < 4:
        raise InsufficientSamples("need at least 4 draws per chain for split statistics")
    out = np.empty(dim)
    for j in range(dim):
        seq = draws[:, :, j]
        acov = np.stack([_autocovariance(seq[c]) for c in range(chains)])
        mean_acov = acov.mean(axis=0)
        w = seq.var(axis=1, ddof=1).mean()
        b = seq.mean(axis=1).var(ddof=1) * n
        var_plus = (n - 1) / n * w + b / n
        rho = 1.0 - (w - mean_acov) / var_plus
        # Geyer pairs: sum while rho(2k) + rho(2k+1) stays positive
        tau = 0.0
        t = 1
        while t + 1 < n:
            pair = rho[t] + rho[t + 1]
            if pair < 0:
                break
            tau += pair
            t += 2
        out[j] = chains * n / (1.0 + 2.0 * tau)
    return out
