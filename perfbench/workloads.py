"""The benchmark's three workloads: fixtures, set-up, one closed-loop
operation each, and the output checks behind the error rate.

Every call into the package goes through its public modules.  The fixture
data are generated exactly as the acceptance fixtures in
``tests/test_acceptance.py`` generate them; the benchmark seed drives only
the sampling streams, because fit time depends strongly on the data (a
Bernoulli fit at N=61 takes 5-14 s across data seeds 44..53) and a
benchmark whose work changes with its seed cannot be steady.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import special

from sgcinla import rng
from sgcinla.artifacts import load_fit, save_fit
from sgcinla.engine import (
    FitResult,
    explore_grid,
    fit_model,
    gaussian_approximation,
    refine_marginal,
)
from sgcinla.errors import NoConvergence
from sgcinla.lincomb import linear_combination_summary, marginals_1d
from sgcinla.model import ModelSpec, make_family
from sgcinla.sampler import JointSamples, sample_joint, summarize
from sgcinla.skewnormal import default_table

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Acceptance-fixture generators: 5 observations per group, u ~ N(0, 1.5^2).
PER_GROUP = 5
U_SD = 1.5
TAU_BETA = 0.5
RE_PRIOR = (1.0, 0.5)
POISSON_SEED = 51
BERNOULLI_SEED = 44
BERNOULLI_INTERCEPT = -1.5

# Refinement nodes per component: 2 * half_nodes + 1 with refine_marginal's default.
NODES_PER_REFINEMENT = 9
# Reference comparison: loose enough for reordered arithmetic, tight enough
# that a wrong answer fails.
REFERENCE_RTOL = 1e-6
# Skewness clamp of refined marginals.
GAMMA_LIMIT = 0.99
# Sampler moments must match the mixture identity within this many standard errors.
MOMENT_SE_LIMIT = 5.0


@dataclass(frozen=True)
class Size:
    """Problem size of one workload: G groups (N = 6G + 1) and draw counts."""

    groups: int
    refined_groups: int | None = None  # None refines every component
    draws: int = 0
    summary_draws: int = 0
    exact_draws: int = 0
    map_points: int = 0


SIZES = {
    "fit-61": Size(groups=10),
    "scale-241": Size(
        groups=40, refined_groups=3, draws=20_000, exact_draws=10_000, map_points=1_000_000
    ),
    "draws-61": Size(
        groups=10, draws=100_000, summary_draws=10_000, exact_draws=10_000, map_points=1_000_000
    ),
}
SMOKE_SIZES = {
    "fit-61": Size(groups=3),
    "scale-241": Size(groups=4, refined_groups=2, draws=2_000, exact_draws=1_000, map_points=10_000),
    "draws-61": Size(
        groups=3, draws=4_000, summary_draws=1_000, exact_draws=1_000, map_points=10_000
    ),
}
WORKLOADS = tuple(SIZES)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def poisson_spec(groups: int, seed: int = POISSON_SEED) -> ModelSpec:
    grp = np.repeat(np.arange(groups), PER_GROUP)
    gen = rng.stream(seed)
    u_true = gen.normal(size=groups) * U_SD
    y = gen.poisson(np.exp(u_true[grp])).astype(float)
    return ModelSpec(make_family("poisson"), y=y, group=grp, tau_beta=TAU_BETA, re_prior=RE_PRIOR)


def bernoulli_spec(groups: int, seed: int = BERNOULLI_SEED) -> ModelSpec:
    grp = np.repeat(np.arange(groups), PER_GROUP)
    gen = rng.stream(seed)
    u_true = gen.normal(size=groups) * U_SD
    p = special.expit(BERNOULLI_INTERCEPT + u_true[grp])
    y = (gen.uniform(size=groups * PER_GROUP) < p).astype(float)
    return ModelSpec(
        make_family("binomial"), y=y, trials=np.ones(groups * PER_GROUP),
        group=grp, tau_beta=TAU_BETA, re_prior=RE_PRIOR,
    )


def refined_components(spec: ModelSpec, refined_groups: int | None):
    """Intercept plus the first ``refined_groups`` group effects, or None for all."""
    if refined_groups is None:
        return None
    n = spec.n_obs
    return np.array([n] + [n + 1 + j for j in range(refined_groups)])


def pairwise_contrasts(spec: ModelSpec) -> np.ndarray:
    """All G(G-1)/2 contrasts u_i - u_j, i < j, as rows over the latent field."""
    first_u = spec.n_obs + spec.n_fixed
    i, j = np.triu_indices(spec.n_groups, k=1)
    a = np.zeros((i.size, spec.n_latent))
    rows = np.arange(i.size)
    a[rows, first_u + i] = 1.0
    a[rows, first_u + j] = -1.0
    return a


def reference_key(family: str, groups: int, refined_groups: int | None) -> str:
    tail = "" if refined_groups is None else f"-refine{refined_groups}"
    return f"{family}-{groups}{tail}"


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


_NO_SPAN = nullcontext()


class Tracer:
    """Spans kept in memory around public calls.

    Each span is ``[name, start, end, parent index, operation id]``.  A
    disabled tracer records nothing and costs one attribute test per call.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.op = None
        self._open: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._open[-1] if t._open else None
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None, parent, t.op])
        t._open.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t._open.pop()
        return False


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------


@dataclass
class FitCounts:
    """Work counts of the fits in one operation.  Refinements and their
    dropped nodes are visible only to the re-enacted fit, so an untraced
    operation leaves them None."""

    grid_points: int = 0
    newton_iterations: int = 0
    warnings: int = 0
    refinements: int | None = None
    dropped_nodes: int | None = None

    def add_fit(self, fit: FitResult) -> None:
        self.grid_points += fit.n_config
        self.newton_iterations += sum(ga.iterations for ga in fit.approximations)
        self.warnings += len(fit.warnings)


def reenacted_fit(spec: ModelSpec, tracer: Tracer, counts: FitCounts, components=None) -> FitResult:
    """``fit_model(spec, components=components)`` step by step, with a span
    around each public call, so its time splits into layers.  The arithmetic
    is fit_model's, call for call, so the result is identical bit for bit."""
    with tracer.span("engine.explore_grid"):
        grid = explore_grid(spec)
    big_n = spec.n_latent
    mutilde = np.empty((len(grid), big_n))
    sigma = np.empty((len(grid), big_n))
    gamma = np.zeros((len(grid), big_n))
    todo = np.arange(big_n) if components is None else np.asarray(components, dtype=int)
    approxes, warnings = [], []
    x_warm = None
    for k, pt in enumerate(grid):
        with tracer.span("engine.gaussian_approximation"):
            ga = gaussian_approximation(spec, pt.theta, x0=x_warm)
        if not ga.converged:
            raise NoConvergence(f"gaussian approximation failed at grid point {k}")
        x_warm = ga.mean
        approxes.append(ga)
        with tracer.span("engine.marginal_sd"):
            sd = ga.marginal_sd()
        mutilde[k] = ga.mean
        sigma[k] = sd
        for i in todo:
            try:
                with tracer.span("engine.refine_marginal"):
                    ref = refine_marginal(spec, ga, int(i))
            except NoConvergence:
                warnings.append(f"refinement skipped for component {i} at grid point {k}")
                continue
            counts.refinements = (counts.refinements or 0) + 1
            counts.dropped_nodes = (counts.dropped_nodes or 0) + ref.dropped_nodes
            mutilde[k, i] = ref.mean
            gamma[k, i] = ref.skewness
            if ref.flagged:
                warnings.append(
                    f"component {i} at grid point {k}: {ref.dropped_nodes} refinement nodes dropped"
                )
    fit = FitResult(
        spec=spec, grid=grid, approximations=approxes, mutilde=mutilde,
        sigma=sigma, gamma=gamma, names=list(spec.component_names), warnings=warnings,
    )
    counts.add_fit(fit)
    return fit


def run_fit(spec, tracer: Tracer, counts: FitCounts, components=None) -> FitResult:
    """One fit: ``fit_model`` itself untraced, its re-enactment when traced."""
    if tracer.enabled:
        with tracer.span("engine.fit"):
            return reenacted_fit(spec, tracer, counts, components)
    fit = fit_model(spec, components=components)
    counts.add_fit(fit)
    return fit


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _finite(name, *arrays) -> list[str]:
    return [f"{name}: non-finite output" for a in arrays if not np.all(np.isfinite(a))][:1]


def check_fit(fit: FitResult, reference: dict) -> list[str]:
    """Grid weights, skewness range and agreement with the recorded reference."""
    problems = _finite("fit", fit.mutilde, fit.sigma, fit.gamma, fit.weights)
    w = fit.weights
    if np.any(w <= 0) or abs(float(w.sum()) - 1.0) > 1e-12:
        problems.append("fit: grid weights are not positive or do not sum to 1")
    if np.any(np.abs(fit.gamma) > GAMMA_LIMIT):
        problems.append("fit: |gamma| exceeds 0.99")
    arrays = {"weights": w, "mutilde": fit.mutilde, "sigma": fit.sigma, "gamma": fit.gamma}
    for name, got in arrays.items():
        want = np.asarray(reference[name], dtype=float)
        if got.shape != want.shape:
            problems.append(f"fit: {name} has shape {got.shape}, reference {want.shape}")
            continue
        atol = REFERENCE_RTOL * float(np.max(np.abs(want)))
        if not np.allclose(got, want, rtol=REFERENCE_RTOL, atol=atol):
            worst = float(np.max(np.abs(got - want)))
            problems.append(f"fit: {name} differs from the reference by up to {worst:.3e}")
    return problems


def check_draws(fit: FitResult, draws: np.ndarray) -> list[str]:
    """test_09's mixture identity: the first three sample moments lie within
    five standard errors of the fit's mixture moments, on every component."""
    problems = _finite("draws", draws)
    if problems:
        return problems
    w = fit.weights
    m1 = w @ fit.mutilde
    dev = fit.mutilde - m1
    m2 = w @ (fit.sigma**2 + dev**2)
    m3 = w @ (fit.gamma * fit.sigma**3 + 3 * fit.sigma**2 * dev + dev**3)
    worst = [0.0, 0.0, 0.0]
    # a few columns at a time, so the check adds little to the peak memory
    for lo in range(0, draws.shape[1], 8):
        cols = slice(lo, lo + 8)
        block = draws[:, cols]
        centred = block - m1[cols]
        for p, target in enumerate((m1, m2, m3)):
            z = block if p == 0 else centred ** (p + 1)
            se = z.std(axis=0, ddof=1) / np.sqrt(z.shape[0])
            worst[p] = max(worst[p], float(np.max(np.abs(z.mean(axis=0) - target[cols]) / se)))
    for p, value in enumerate(worst):
        if value > MOMENT_SE_LIMIT:
            problems.append(f"draws: moment {p + 1} off by {value:.2f} standard errors")
    return problems


def check_lincomb(fit: FitResult, a: np.ndarray, summary, curves) -> list[str]:
    """The mixture mean of A x is A times the mixture mean of x, and every
    combination has a positive variance and a finite density table."""
    problems = _finite("lincomb", summary.mean, summary.cov, summary.skewness)
    mean_x = fit.weights @ fit.mutilde
    scale = np.abs(a) @ np.abs(mean_x) + np.finfo(float).tiny
    if np.any(np.abs(summary.mean - a @ mean_x) > 1e-12 * scale):
        problems.append("lincomb: mean differs from A @ (weights @ mutilde)")
    if np.any(np.diag(summary.cov) <= 0):
        problems.append("lincomb: non-positive variance")
    if any(not np.all(np.isfinite(c.density)) for c in curves):
        problems.append("lincomb: non-finite marginal density")
    return problems


def check_summary(summary) -> list[str]:
    problems = _finite(
        "summary", summary.mean, summary.sd, summary.q025, summary.q50,
        summary.q975, summary.mode, summary.skewness,
    )
    if np.any(summary.q025 > summary.q50) or np.any(summary.q50 > summary.q975):
        problems.append("summary: quantiles out of order")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    """One operation: wall time, stage times, counts and failed checks."""

    seconds: float
    stages: dict
    counts: dict
    problems: list
    fits: list
    samples: JointSamples | None = None


class Workload:
    """Set-up state and the operation of one workload."""

    def __init__(self, name: str, size: Size, seed: int, workdir: Path):
        self.name = name
        self.size = size
        self.seed = seed
        self.workdir = workdir
        self.reference = load_reference()
        self.setup_stages: dict[str, float] = {}
        self.setup_problems: list[str] = []

    def _reference(self, family: str, refined_groups=None):
        return self.reference[reference_key(family, self.size.groups, refined_groups)]

    def _timed(self, name: str, fn):
        t0 = time.perf_counter()
        out = fn()
        self.setup_stages[name] = time.perf_counter() - t0
        return out

    def setup(self) -> None:
        """Everything a user pays before the first operation can start."""
        raise NotImplementedError

    def operation(self, tracer: Tracer) -> OpResult:
        raise NotImplementedError


class FitWorkload(Workload):
    """fit-61: fit_model of the Poisson and the Bernoulli fixture."""

    def setup(self):
        self.specs = {
            "poisson": poisson_spec(self.size.groups),
            "bernoulli": bernoulli_spec(self.size.groups),
        }

    def operation(self, tracer):
        counts = FitCounts()
        t0 = time.perf_counter()
        with tracer.span("op"):
            fits = {family: run_fit(spec, tracer, counts) for family, spec in self.specs.items()}
        seconds = time.perf_counter() - t0
        problems = []
        for family, fit in fits.items():
            problems += check_fit(fit, self._reference(family))
        return OpResult(seconds, {"fit_s": seconds}, vars(counts), problems, list(fits.values()))


class ScaleWorkload(Workload):
    """scale-241: subset-refined Poisson fit at N=241, the lincomb of every
    pairwise group contrast, and skew draws."""

    def setup(self):
        self._timed("table_build_s", default_table)
        self.spec = poisson_spec(self.size.groups)
        self.components = refined_components(self.spec, self.size.refined_groups)
        self.contrasts = pairwise_contrasts(self.spec)

    def operation(self, tracer):
        counts = FitCounts()
        t0 = time.perf_counter()
        with tracer.span("op"):
            fit = run_fit(self.spec, tracer, counts, self.components)
            t1 = time.perf_counter()
            summary, curves = lincomb(fit, self.contrasts, tracer)
            t2 = time.perf_counter()
            with tracer.span("sampler.sample_joint.skew"):
                samples = sample_joint(fit, self.size.draws, self.seed)
        t3 = time.perf_counter()
        stages = {"fit_s": t1 - t0, "lincomb_s": t2 - t1, "draw_s": t3 - t2}
        problems = check_fit(fit, self._reference("poisson", self.size.refined_groups))
        problems += check_lincomb(fit, self.contrasts, summary, curves)
        problems += check_draws(fit, samples.draws)
        counts = dict(vars(counts), clamped=summary.clamped)
        return OpResult(t3 - t0, stages, counts, problems, [fit])


class DrawsWorkload(Workload):
    """draws-61: skew draws, summaries and contrasts from a saved Poisson fit."""

    def setup(self):
        self._timed("table_build_s", default_table)
        spec = poisson_spec(self.size.groups)
        fit = self._timed("fixture_fit_s", lambda: fit_model(spec))
        self.fit_path = self.workdir / "fit.bin"
        self._timed("save_fit_s", lambda: save_fit(self.fit_path, fit))
        self.fit_bytes = self.fit_path.stat().st_size
        loaded = self._timed("load_fit_s", lambda: load_fit(self.fit_path))
        self.setup_problems += check_fit(loaded, self._reference("poisson"))
        self.contrasts = pairwise_contrasts(spec)

    def operation(self, tracer):
        # a fresh load per operation, as the sample and lincomb verbs load
        # it, so the lincomb pays the covariance-stack build every time
        fit = load_fit(self.fit_path)
        t0 = time.perf_counter()
        with tracer.span("op"):
            with tracer.span("sampler.sample_joint.skew"):
                samples = sample_joint(fit, self.size.draws, self.seed)
            t1 = time.perf_counter()
            first = summary_slice(samples, self.size.summary_draws)
            with tracer.span("sampler.summarize"):
                post = summarize(first)
            t2 = time.perf_counter()
            summary, curves = lincomb(fit, self.contrasts, tracer)
        t3 = time.perf_counter()
        stages = {"draw_s": t1 - t0, "summary_s": t2 - t1, "lincomb_s": t3 - t2}
        problems = check_draws(fit, samples.draws)
        problems += check_summary(post)
        problems += check_lincomb(fit, self.contrasts, summary, curves)
        counts = {"clamped": summary.clamped}
        return OpResult(t3 - t0, stages, counts, problems, [fit], samples)


def summary_slice(samples: JointSamples, count: int) -> JointSamples:
    """The first ``count`` rows of a draw set, which are an iid sample themselves."""
    return JointSamples(
        draws=samples.draws[:count], config=samples.config[:count],
        names=samples.names, kind=samples.kind, seed=samples.seed,
    )


def lincomb(fit: FitResult, a: np.ndarray, tracer: Tracer):
    """Deterministic contrasts as a user runs them.  Traced, the covariance
    stack is built in its own span first; untraced, the first
    linear_combination_summary call on the fit builds it."""
    if tracer.enabled:
        with tracer.span("lincomb.covariance_stack"):
            fit.covariance_stack()
    with tracer.span("lincomb.linear_combination_summary"):
        summary = linear_combination_summary(fit, a)
    with tracer.span("lincomb.marginals_1d"):
        curves = marginals_1d(summary)
    return summary, curves


_CLASSES = {"fit-61": FitWorkload, "scale-241": ScaleWorkload, "draws-61": DrawsWorkload}


def make_workload(name: str, seed: int, workdir: Path, smoke: bool = False) -> Workload:
    size = (SMOKE_SIZES if smoke else SIZES)[name]
    return _CLASSES[name](name, size, seed, workdir)
