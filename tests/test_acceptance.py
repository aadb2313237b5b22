"""End-to-end acceptance gates on frozen inputs.

One test per gate, so a verbose run reads as a checklist.  Heavy inputs --
model fits, 1e5-draw sample sets, reference-sampler runs -- are shared
through module-scoped fixtures.  Every expected number in this file was
computed once from an independent source (hand formula, conjugate algebra,
quadrature, or the converged reference sampler) and frozen; none comes from
the code path under test.
"""

import time

import numpy as np
import pytest
from scipy import special, stats

from sgcinla import rng
from sgcinla.cli import run_quantile_benchmark
from sgcinla.engine import fit_model
from sgcinla.gmrf import PrecisionMatrix
from sgcinla.lincomb import (
    JointMomentSummary,
    kld_1d,
    linear_combination_summary,
    marginals_1d,
    transform_moments,
)
from sgcinla.mcmc import ChainConfig, run_reference
from sgcinla.model import ModelSpec, make_family
from sgcinla.sampler import marginal_density_estimate, sample_joint
from sgcinla.sgc import (
    CorrectionKind,
    FullConditionalSGC,
    correction_delta,
    inverse_transform,
    jacobian_terms,
    log_density_improved_gaussian,
    log_density_sgc,
)
from sgcinla.skewnormal import (
    default_table,
    fast_map,
    sn_params_from_moments,
    sn_pdf,
    standardized_map_direct,
)

GROUPS, PER_GROUP = 10, 5
GRP = np.repeat(np.arange(GROUPS), PER_GROUP)


# ---------------------------------------------------------------------------
# shared heavy fixtures
# ---------------------------------------------------------------------------


def _study(spec):
    """Fit, draw 1e5 samples per correction kind, and run the oracle."""
    elapsed = {}
    t0 = time.perf_counter()
    fit = fit_model(spec)
    elapsed["fit"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    s_mean = sample_joint(fit, 100_000, seed=5, kind=CorrectionKind.MEAN)
    s_skew = sample_joint(fit, 100_000, seed=5, kind=CorrectionKind.SKEW)
    elapsed["draws"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    run = run_reference(spec, ChainConfig(chains=4, burn=5000, keep=50_000), seed=9)
    elapsed["oracle"] = time.perf_counter() - t0
    return {"spec": spec, "fit": fit, "mean": s_mean, "skew": s_skew,
            "run": run, "elapsed": elapsed}


@pytest.fixture(scope="module")
def poisson_study():
    gen = rng.stream(51)
    u_true = gen.normal(size=GROUPS) * 1.5
    y = gen.poisson(np.exp(u_true[GRP])).astype(float)
    spec = ModelSpec(
        make_family("poisson"), y=y, group=GRP, tau_beta=0.5, re_prior=(1.0, 0.5)
    )
    return _study(spec)


@pytest.fixture(scope="module")
def bernoulli_study():
    gen = rng.stream(44)
    u_true = gen.normal(size=GROUPS) * 1.5
    p = special.expit(-1.5 + u_true[GRP])
    y = (gen.uniform(size=GROUPS * PER_GROUP) < p).astype(float)
    spec = ModelSpec(
        make_family("binomial"), y=y, trials=np.ones(GROUPS * PER_GROUP),
        group=GRP, tau_beta=0.5, re_prior=(1.0, 0.5),
    )
    return _study(spec)


@pytest.fixture(scope="module")
def gaussian_study():
    gen = rng.stream(77)
    z = gen.normal(size=20)
    y = 0.5 - 1.2 * z + gen.normal(size=20) * 0.7
    spec = ModelSpec(
        make_family("gaussian", tau=1 / 0.49), y=y, covariates=z,
        covariate_names=("z",), tau_beta=0.5,
    )
    return {"spec": spec, "fit": fit_model(spec), "z": z, "y": y}


@pytest.fixture(scope="module")
def worked_example():
    """Two-coordinate joint summary and its 2x2 combination matrix."""
    summary = JointMomentSummary(
        names=("x1", "x2"),
        mean=np.array([1.0, 2.0]),
        cov=np.array([[2.0, 1.0], [1.0, 5.0]]),
        skewness=np.array([-0.4, 0.6]),
    )
    return summary, np.array([[1.0, 1.0], [1.0, -1.0]])


def correction_gate(study):
    """Per-component KLD of both corrections against the oracle.

    Components qualify when the grid-averaged skewness magnitude reaches
    0.3; the comparison window spans the pooled 0.001..0.999 quantiles of
    the oracle and both sample sets.
    """
    fit, run = study["fit"], study["run"]
    gbar = fit.weights @ fit.gamma
    sel = np.where(np.abs(gbar) >= 0.3)[0]
    latent = run.latent_draws()
    rows = []
    for i in sel:
        oracle = latent[:, i]
        kde = stats.gaussian_kde(oracle, bw_method="silverman")
        sets = (oracle, study["mean"].draws[:, i], study["skew"].draws[:, i])
        lo = min(np.quantile(s, 0.001) for s in sets)
        hi = max(np.quantile(s, 0.999) for s in sets)
        xs = np.linspace(lo, hi, 401)
        ko = kde(xs)
        rows.append(
            (
                fit.names[i],
                kld_1d(xs, ko, marginal_density_estimate(study["mean"], i, xs)),
                kld_1d(xs, ko, marginal_density_estimate(study["skew"], i, xs)),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# acceptance gates
# ---------------------------------------------------------------------------


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_01_linear_combination_moments_worked_example(worked_example):
    """Deterministic transform: exact mean and covariance, skewness to 1e-3,
    and well under a millisecond."""
    summary, a = worked_example
    out = transform_moments(summary, a)
    np.testing.assert_array_equal(out.mean, [3.0, -1.0])
    np.testing.assert_array_equal(out.cov, [[9.0, -3.0], [-3.0, 5.0]])
    np.testing.assert_allclose(out.skewness, [0.206, -0.701], atol=1e-3)
    best = min(
        _timed(lambda: transform_moments(summary, a)) for _ in range(100)
    )
    assert best < 1e-3, f"transform took {best * 1e3:.3f} ms"


def test_02_matched_skew_normal_parameters(worked_example):
    """Moment-matched margins of the transformed pair: shape parameters hit
    the frozen targets; location and scale match the hand-derived fit of the
    three-decimal skewness values to 1e-3."""
    summary, a = worked_example
    out = transform_moments(summary, a)
    fitted = [
        sn_params_from_moments(out.mean[i], out.cov[i, i], out.skewness[i])
        for i in range(2)
    ]
    assert fitted[0].alpha == pytest.approx(1.217, abs=5e-3)
    assert fitted[1].alpha == pytest.approx(-3.233, abs=1e-2)
    # frozen hand solution of the delta parameterization at skewness
    # exactly 0.206 and -0.701 (the published three-decimal values)
    hand = ((0.6511469, 3.8101326), (1.6333173, 3.4546143))
    for i, skew3 in enumerate((0.206, -0.701)):
        p = sn_params_from_moments(out.mean[i], out.cov[i, i], skew3)
        assert p.xi == pytest.approx(hand[i][0], abs=1e-3)
        assert p.omega == pytest.approx(hand[i][1], abs=1e-3)


def test_03_kld_closed_form_for_shifted_normals():
    """KL(N(0,1) || N(d,1)) = d^2/2 within 2%, including the 8e-4 value at
    d = 0.04."""
    for delta in (0.04, 0.1, 0.3, 0.5):
        xs = np.linspace(-9.0, 9.0 + delta, 4001)
        p = stats.norm.pdf(xs)
        q = stats.norm.pdf(xs - delta)
        got = kld_1d(xs, p, q)
        want = delta**2 / 2
        assert got == pytest.approx(want, rel=0.02), f"delta={delta}"
    anchor = kld_1d(xs_04 := np.linspace(-9.0, 9.04, 4001),
                    stats.norm.pdf(xs_04), stats.norm.pdf(xs_04 - 0.04))
    assert anchor == pytest.approx(8e-4, rel=0.02)


@pytest.mark.slow
def test_04_fast_quantile_map_accuracy_and_speed():
    """Tabulated correction map: 1e-3 accuracy over the full skewness sweep
    and at least a 5x mean speedup on a million mixed evaluations."""
    table = default_table()
    zs = np.linspace(-3.5, 3.5, 141)
    worst = 0.0
    for g in np.round(np.arange(-0.95, 0.951, 0.05), 2):
        direct = standardized_map_direct(float(g), zs)
        fast = fast_map(table, zs, float(g))
        worst = max(worst, float(np.max(np.abs(fast - direct))))
    assert worst <= 1e-3, f"sweep error {worst:.2e}"

    t0 = time.perf_counter()
    report = run_quantile_benchmark(points=1_000_000, reps=100, seed=0)
    bench_elapsed = time.perf_counter() - t0
    assert report.worst_error <= 1e-3
    assert report.quantile_speedup >= 5.0, f"speedup {report.quantile_speedup:.1f}x"
    assert bench_elapsed < 600.0, f"benchmark took {bench_elapsed:.0f} s"


def _unit_conditional(gamma, mutilde=0.2):
    return FullConditionalSGC(
        mu=[0.0], precision=PrecisionMatrix([[1.0]]),
        mutilde=[mutilde], gamma=[gamma], sigma=[1.0],
    )


def test_05_jacobian_and_density_self_consistency():
    """Jacobian terms agree with finite differences of the inverse map;
    the 1-D corrected density integrates to one; the density gap at the
    Gaussian mean obeys both of its closed forms."""
    h = 1e-5
    for gamma in (-0.8, -0.4, 0.0, 0.4, 0.8):
        fc = _unit_conditional(gamma)
        for u in np.linspace(-2.4, 2.4, 7):
            jt = jacobian_terms(fc, [u])
            up = inverse_transform(fc, [u + h])[0]
            dn = inverse_transform(fc, [u - h])[0]
            fd = (up - dn) / (2 * h)
            assert jt.delta[0] == pytest.approx(fd, rel=1e-4), f"g={gamma} u={u}"

    # asymmetric windows: 7 sd on the long tail, 4.4 sd on the short one
    for gamma in (-0.6, 0.0, 0.6):
        fc = _unit_conditional(gamma)
        left = 7.0 if gamma <= 0 else 4.4
        right = 7.0 if gamma >= 0 else 4.4
        xs = np.linspace(0.2 - left, 0.2 + right, 4001)
        mass = np.trapezoid(np.exp(log_density_sgc(fc, xs[:, None])), xs)
        assert mass == pytest.approx(1.0, abs=1e-4), f"g={gamma}"

    q = np.array([[1.4, 0.5], [0.5, 1.1]])
    sigma = np.sqrt(np.diag(np.linalg.inv(q)))
    skewed = FullConditionalSGC(
        mu=[0.1, -0.3], precision=PrecisionMatrix(q),
        mutilde=[0.35, -0.05], gamma=[0.45, -0.3], sigma=sigma,
    )
    gap = log_density_improved_gaussian(skewed, skewed.mu, kind="none") - log_density_sgc(
        skewed, skewed.mu
    )
    assert correction_delta(skewed) == pytest.approx(gap, abs=1e-10)

    symmetric = FullConditionalSGC(
        mu=[0.1, -0.3], precision=PrecisionMatrix(q),
        mutilde=[0.35, -0.05], gamma=[0.0, 0.0], sigma=sigma,
    )
    d = symmetric.mutilde - symmetric.mu
    quad = 0.5 * d @ symmetric.precision.matrix @ d
    assert correction_delta(symmetric) == pytest.approx(quad, abs=1e-10)


@pytest.mark.slow
def test_06_poisson_glmm_against_reference_sampler(poisson_study):
    """Grouped Poisson study: converged oracle, and on every clearly skewed
    component the skew correction beats the mean correction with a small
    median divergence."""
    t0 = time.perf_counter()
    rows = correction_gate(poisson_study)
    gate_elapsed = time.perf_counter() - t0
    total = sum(poisson_study["elapsed"].values()) + gate_elapsed

    assert poisson_study["run"].rhat().max() <= 1.05
    assert total <= 900.0, f"end-to-end {total:.0f} s"
    assert len(rows) >= 1
    wins = sum(1 for _, km, ks in rows if ks <= km)
    assert wins / len(rows) >= 0.8, f"{wins}/{len(rows)} wins"
    median = float(np.median([ks for _, _, ks in rows]))
    assert median <= 0.01, f"median KLD {median:.4f} over {len(rows)} components"


@pytest.mark.slow
def test_06_bernoulli_logit_against_reference_sampler(bernoulli_study):
    """Same gate on the Bernoulli-logit variant.

    The win-rate clause holds; the median-divergence clause does not, and
    cannot: every component whose fitted skewness magnitude reaches 0.3 is
    an all-zero group whose true posterior (per the converged oracle) has
    skewness -1.6 to -2.1, outside the attainable skew-normal range
    (|skewness| < 0.9953), with a posterior sd about 20% above the marginal
    sd the correction is pinned to by construction.  The divergence floor is
    a representation limit of the corrected family, not an estimation error,
    so this clause is expected to fail and is asserted unweakened.
    """
    t0 = time.perf_counter()
    rows = correction_gate(bernoulli_study)
    gate_elapsed = time.perf_counter() - t0
    total = sum(bernoulli_study["elapsed"].values()) + gate_elapsed

    assert bernoulli_study["run"].rhat().max() <= 1.05
    assert total <= 900.0, f"end-to-end {total:.0f} s"
    assert len(rows) >= 1
    wins = sum(1 for _, km, ks in rows if ks <= km)
    assert wins / len(rows) >= 0.8, f"{wins}/{len(rows)} wins"
    median = float(np.median([ks for _, _, ks in rows]))
    assert median <= 0.01, (
        f"median KLD(oracle || skew-corrected) = {median:.4f} > 0.01 over "
        f"{len(rows)} qualifying components (skew beats mean on {wins}); "
        "their true posteriors are more skewed than any skew-normal can "
        "represent, so the floor is structural -- see the test docstring"
    )


@pytest.mark.slow
def test_07_deterministic_linear_combinations_vs_sampling(poisson_study):
    """Nested predictor sums: deterministic summaries track the 1e5-draw
    sampler to 5e-3 divergence and beat the 1e3-draw path by 100x."""
    fit = poisson_study["fit"]
    n = fit.mutilde.shape[1]
    a = np.zeros((4, n))
    for j in range(4):
        a[j, 8 : 10 + j] = 1.0
    names = tuple(f"sum_{j + 2}" for j in range(4))

    summary = linear_combination_summary(fit, a, names=names)
    curves = marginals_1d(summary)
    h = poisson_study["skew"].draws @ a.T
    for j in range(4):
        lo, hi = np.quantile(h[:, j], [0.001, 0.999])
        xs = np.linspace(lo, hi, 401)
        det = sn_pdf(curves[j].params, xs)
        kde = stats.gaussian_kde(h[:, j], bw_method="silverman")(xs)
        assert kld_1d(xs, det, kde) <= 5e-3, names[j]

    def deterministic_path():
        marginals_1d(linear_combination_summary(fit, a, names=names))

    def sampling_path(seed):
        draws = sample_joint(fit, 1000, seed=seed, kind=CorrectionKind.SKEW).draws @ a.T
        for j in range(4):
            mu, sd = draws[:, j].mean(), draws[:, j].std()
            grid = np.linspace(mu - 6 * sd, mu + 6 * sd, 401)
            stats.gaussian_kde(draws[:, j], bw_method="silverman")(grid)

    deterministic_path()
    sampling_path(0)
    # interleave the replications so both paths sample the same machine state
    t_det, t_samp = np.inf, np.inf
    for r in range(5):
        t_det = min(t_det, *(_timed(deterministic_path) for _ in range(40)))
        t_samp = min(t_samp, _timed(lambda: sampling_path(r)))
    assert t_samp / t_det >= 100.0, f"ratio {t_samp / t_det:.0f}x"


def test_08_gaussian_family_collapses_to_conjugate_posterior(gaussian_study):
    """Gaussian likelihood: zero refined skewness, bitwise-identical mean
    and skew samplers, and marginals matching the conjugate closed form."""
    spec, fit = gaussian_study["spec"], gaussian_study["fit"]
    assert np.abs(fit.gamma).max() <= 1e-4

    s_skew = sample_joint(fit, 100_000, seed=21, kind=CorrectionKind.SKEW)
    s_mean = sample_joint(fit, 100_000, seed=21, kind=CorrectionKind.MEAN)
    assert np.array_equal(s_skew.draws, s_mean.draws)

    # collapse the predictor-noise layer: y | beta is normal with variance
    # 1/tau + 1/tau_eps, so beta has a normal posterior and each predictor
    # coordinate mixes the data point with its fitted mean
    tau, tau_eps = spec.family.tau, spec.tau_epsilon
    n = spec.n_obs
    b_mat = np.column_stack([np.ones(n), gaussian_study["z"]])
    veff = 1 / tau + 1 / tau_eps
    a_mat = b_mat.T @ b_mat / veff + 0.5 * np.eye(2)
    sigma_b = np.linalg.inv(a_mat)
    mu_b = sigma_b @ b_mat.T @ gaussian_study["y"] / veff
    t_sum = tau_eps + tau
    eta_mean = (tau_eps * (b_mat @ mu_b) + tau * gaussian_study["y"]) / t_sum
    eta_var = 1 / t_sum + (tau_eps / t_sum) ** 2 * np.einsum(
        "ij,jk,ik->i", b_mat, sigma_b, b_mat
    )
    cf_mean = np.concatenate([eta_mean, mu_b])
    cf_sd = np.sqrt(np.concatenate([eta_var, np.diag(sigma_b)]))

    mix_mean = fit.weights @ fit.mutilde
    mix_sd = np.sqrt(fit.weights @ (fit.sigma**2 + fit.mutilde**2) - mix_mean**2)
    np.testing.assert_allclose(mix_mean, cf_mean, atol=1e-6)
    np.testing.assert_allclose(mix_sd, cf_sd, rtol=1e-6)

    draws = s_skew.draws
    se_mean = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
    se_sd = draws.std(axis=0, ddof=1) / np.sqrt(2 * draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - cf_mean) <= 3 * se_mean)
    assert np.all(np.abs(draws.std(axis=0, ddof=1) - cf_sd) <= 3 * se_sd)


@pytest.mark.slow
def test_09_sampler_moments_match_mixture_identity(poisson_study):
    """First three sampler moments agree with the deterministic mixture
    moments within five standard errors on every latent component."""
    fit = poisson_study["fit"]
    w = fit.weights
    m1 = w @ fit.mutilde
    dev = fit.mutilde - m1
    m2 = w @ (fit.sigma**2 + dev**2)
    m3 = w @ (fit.gamma * fit.sigma**3 + 3 * fit.sigma**2 * dev + dev**3)

    draws = poisson_study["skew"].draws
    for power, target in ((1, m1), (2, m2), (3, m3)):
        z = draws if power == 1 else (draws - m1) ** power
        se = z.std(axis=0, ddof=1) / np.sqrt(z.shape[0])
        worst = float(np.max(np.abs(z.mean(axis=0) - target) / se))
        assert worst <= 5.0, f"moment {power}: {worst:.2f} standard errors"
