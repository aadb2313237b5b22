"""Per-layer metrics of the traced run: what each one measures, which
end-to-end metric and workload it should move, the probes that time single
public calls, and the reduction of spans to metric values.

A span-backed metric is the summed self time of its spans within one
operation (or one probe repetition), as a median over operations.  A layer
that a workload does not use reports 0.
"""

from __future__ import annotations

import statistics

import numpy as np

from sgcinla import rng
from sgcinla.artifacts import load_fit, save_fit
from sgcinla.gmrf import PrecisionMatrix, covariance_from_precision, factorize, sample_gmrf
from sgcinla.model import assemble_precision
from sgcinla.sampler import marginal_density_estimate, sample_joint
from sgcinla.sgc import forward_transform
from sgcinla.skewnormal import default_table, fast_map, standardized_map_direct

from workloads import NODES_PER_REFINEMENT, Tracer, self_times, summary_slice

# name, unit, better, the end-to-end metric and workload it should move
PER_LAYER = (
    ("cli.import_s", "s", "lower", "setup_s, all workloads"),
    ("skewnormal.table_build_s", "s", "lower", "setup_s, draws-61 and scale-241"),
    ("skewnormal.fast_map_s", "s", "lower", "draw_s, draws-61"),
    ("skewnormal.exact_map_s", "s", "lower", "setup_s through the table build, draws-61"),
    ("model.assemble_precision_s", "s", "lower", "fit_s, scale-241"),
    ("gmrf.factorize_s", "s", "lower", "fit_s, scale-241"),
    ("gmrf.covariance_s", "s", "lower", "lincomb_s and fit_s, scale-241"),
    ("gmrf.sample_gmrf_s", "s", "lower", "draw_s, draws-61"),
    ("engine.explore_grid_s", "s", "lower", "fit_s, scale-241"),
    ("engine.gaussian_approximation_s", "s", "lower", "fit_s, scale-241"),
    ("engine.refine_marginal_s", "s", "lower", "fit_s, fit-61 and scale-241"),
    ("engine.refine_marginal_share", "ratio", "lower", "fit_s, fit-61 and scale-241"),
    ("engine.grid_points", "count", "lower", "fit_s, fit-61"),
    ("engine.newton_iterations", "count", "lower", "fit_s, fit-61"),
    ("engine.refine_dropped_ratio", "ratio", "lower", "fit_s, fit-61 (Bernoulli)"),
    ("engine.fit_warnings", "count", "lower", "fit_s, fit-61 (Bernoulli)"),
    ("sgc.forward_transform_s.mean", "s", "lower", "draw_s, draws-61"),
    ("sgc.forward_transform_s.skew", "s", "lower", "draw_s, draws-61"),
    ("sampler.sample_joint_s.none", "s", "lower", "draw_s, draws-61"),
    ("sampler.sample_joint_s.mean", "s", "lower", "draw_s, draws-61"),
    ("sampler.sample_joint_s.skew", "s", "lower", "draw_s, draws-61 and scale-241"),
    ("sampler.sample_joint_s.skew_exact", "s", "lower", "draw_s, draws-61"),
    ("sampler.summarize_s", "s", "lower", "summary_s, draws-61"),
    ("sampler.summarize_share", "ratio", "lower", "summary_s, draws-61"),
    ("sampler.kde_s", "s", "lower", "summary_s, draws-61"),
    ("lincomb.covariance_stack_s", "s", "lower", "lincomb_s, scale-241"),
    ("lincomb.linear_combination_summary_s", "s", "lower", "lincomb_s, scale-241 and draws-61"),
    ("lincomb.marginals_1d_s", "s", "lower", "lincomb_s, scale-241 and draws-61"),
    ("lincomb.clamped", "count", "lower", "lincomb_s, scale-241 and draws-61"),
    ("lincomb.sampled_projection_s", "s", "lower", "none: reference for the deterministic path"),
    ("artifacts.save_fit_s", "s", "lower", "setup_s, draws-61"),
    ("artifacts.load_fit_s", "s", "lower", "setup_s, draws-61"),
    ("artifacts.fit_bytes", "bytes", "lower", "setup_s, draws-61"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced operation time"),
)

# Metrics read from spans: metric name -> span name.
SPAN_METRICS = {
    "skewnormal.fast_map_s": "skewnormal.fast_map",
    "skewnormal.exact_map_s": "skewnormal.standardized_map_direct",
    "model.assemble_precision_s": "model.assemble_precision",
    "gmrf.factorize_s": "gmrf.factorize",
    "gmrf.covariance_s": "gmrf.covariance_from_precision",
    "gmrf.sample_gmrf_s": "gmrf.sample_gmrf",
    "engine.explore_grid_s": "engine.explore_grid",
    "engine.gaussian_approximation_s": "engine.gaussian_approximation",
    "engine.refine_marginal_s": "engine.refine_marginal",
    "sgc.forward_transform_s.mean": "sgc.forward_transform.mean",
    "sgc.forward_transform_s.skew": "sgc.forward_transform.skew",
    "sampler.sample_joint_s.none": "sampler.sample_joint.none",
    "sampler.sample_joint_s.mean": "sampler.sample_joint.mean",
    "sampler.sample_joint_s.skew": "sampler.sample_joint.skew",
    "sampler.sample_joint_s.skew_exact": "sampler.sample_joint.skew_exact",
    "sampler.summarize_s": "sampler.summarize",
    "sampler.kde_s": "sampler.marginal_density_estimate",
    "lincomb.covariance_stack_s": "lincomb.covariance_stack",
    "lincomb.linear_combination_summary_s": "lincomb.linear_combination_summary",
    "lincomb.marginals_1d_s": "lincomb.marginals_1d",
    "lincomb.sampled_projection_s": "lincomb.sampled_projection",
    "artifacts.save_fit_s": "artifacts.save_fit",
    "artifacts.load_fit_s": "artifacts.load_fit",
}

# Repetitions of a cheap probe; its value is the median.
PROBE_REPEATS = 5


def _probe(tracer: Tracer, name: str, fn, repeats: int = 1):
    out = None
    for r in range(repeats):
        tracer.op = f"probe:{name}:{r}"
        with tracer.span(name):
            out = fn()
    return out


def mode_index(fit) -> int:
    return int(np.argmax(fit.weights))


def probe_algebra(tracer: Tracer, fit) -> None:
    """model and gmrf calls on the Gaussian approximation at the grid mode."""
    ga = fit.approximations[mode_index(fit)]
    q_star = ga.precision.matrix
    _probe(tracer, "model.assemble_precision",
           lambda: assemble_precision(fit.spec, ga.theta), PROBE_REPEATS)
    q = PrecisionMatrix(q_star)
    _probe(tracer, "gmrf.factorize", lambda: factorize(q), PROBE_REPEATS)
    # a fresh matrix each time, so the covariance pays its factorization as in a fit
    _probe(tracer, "gmrf.covariance_from_precision",
           lambda: covariance_from_precision(PrecisionMatrix(q_star)), PROBE_REPEATS)


def probe_quantile_maps(tracer: Tracer, seed: int, points: int) -> None:
    """Tabulated and exact correction maps on mixed two-decimal skewness
    values, the layout the bench-quantile verb uses."""
    gen = rng.stream(seed, rng.SALT_BENCH)
    z = gen.uniform(-3.5, 3.5, size=points)
    gamma = np.round(gen.integers(-95, 96, size=points) / 100.0, 2)
    table = default_table()
    _probe(tracer, "skewnormal.fast_map", lambda: fast_map(table, z, gamma), PROBE_REPEATS)
    exact = points // 10
    _probe(tracer, "skewnormal.standardized_map_direct",
           lambda: standardized_map_direct(gamma[:exact], z[:exact]))


def probe_sampling(tracer: Tracer, fit, size, seed: int, contrasts: np.ndarray) -> None:
    """Joint draws per correction kind, the copula maps on shared Gaussian
    draws, and the sampled lincomb the deterministic path replaces."""
    for kind in ("none", "mean"):
        _probe(tracer, f"sampler.sample_joint.{kind}",
               lambda: sample_joint(fit, size.draws, seed, kind=kind))
    _probe(tracer, "sampler.sample_joint.skew_exact",
           lambda: sample_joint(fit, size.exact_draws, seed, use_table=False))
    fc = fit.sgc(mode_index(fit))
    x = _probe(tracer, "gmrf.sample_gmrf",
               lambda: sample_gmrf(fc.mu, fc.precision, size.draws, seed))
    for kind in ("mean", "skew"):
        _probe(tracer, f"sgc.forward_transform.{kind}", lambda: forward_transform(fc, x, kind))
    _probe(tracer, "lincomb.sampled_projection",
           lambda: sample_joint(fit, size.draws, seed).draws @ contrasts.T)


def probe_summary(tracer: Tracer, samples, size) -> None:
    """One component's kernel density on the draws summarize works on; the
    summary computes one per component."""
    first = summary_slice(samples, size.summary_draws)
    column = first.draws[:, 0]
    xs = np.linspace(column.min(), column.max(), 512)
    _probe(tracer, "sampler.marginal_density_estimate",
           lambda: marginal_density_estimate(first, 0, xs), PROBE_REPEATS)


def probe_artifacts(tracer: Tracer, fit, workdir) -> None:
    path = workdir / "probe-fit.bin"
    _probe(tracer, "artifacts.save_fit", lambda: save_fit(path, fit), PROBE_REPEATS)
    _probe(tracer, "artifacts.load_fit", lambda: load_fit(path), PROBE_REPEATS)


def span_metrics(spans: list[list]) -> dict:
    """Median over operations of each span-backed metric's summed self time,
    and the per-operation shares of refinement and summaries."""
    own = self_times(spans)
    per_op: dict[str, dict[str, float]] = {}
    for span, t in zip(spans, own):
        by_op = per_op.setdefault(span[0], {})
        by_op[span[4]] = by_op.get(span[4], 0.0) + t
    out = {}
    for metric, span_name in SPAN_METRICS.items():
        values = per_op.get(span_name)
        out[metric] = statistics.median(values.values()) if values else 0.0

    def share(part: str, whole: str) -> float:
        ratios = []
        for op in {s[4] for s in spans if s[0] == whole}:
            whole_t = sum(s[2] - s[1] for s in spans if s[4] == op and s[0] == whole)
            part_t = sum(s[2] - s[1] for s in spans if s[4] == op and s[0] == part)
            ratios.append(part_t / whole_t)
        return statistics.median(ratios) if ratios else 0.0

    out["engine.refine_marginal_share"] = share("engine.refine_marginal", "engine.fit")
    out["sampler.summarize_share"] = share("sampler.summarize", "op")
    return out


def count_metrics(counts: dict) -> dict:
    attempted = (counts.get("refinements") or 0) * NODES_PER_REFINEMENT
    dropped = counts.get("dropped_nodes") or 0
    return {
        "engine.grid_points": counts.get("grid_points", 0),
        "engine.newton_iterations": counts.get("newton_iterations", 0),
        "engine.refine_dropped_ratio": dropped / attempted if attempted else 0.0,
        "engine.fit_warnings": counts.get("warnings", 0),
        "lincomb.clamped": counts.get("clamped", 0),
    }


def run_probes(workload, tracer: Tracer, op) -> None:
    """The probes of the layers this workload uses, at its own sizes."""
    fit = op.fits[0]
    if workload.name in ("fit-61", "scale-241"):
        probe_algebra(tracer, fit)
    if workload.name in ("scale-241", "draws-61"):
        probe_quantile_maps(tracer, workload.seed, workload.size.map_points)
        probe_sampling(tracer, fit, workload.size, workload.seed, workload.contrasts)
    if workload.name == "draws-61":
        probe_summary(tracer, op.samples, workload.size)
        probe_artifacts(tracer, fit, workload.workdir)
