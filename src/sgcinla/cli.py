"""Command-line front end.

Verbs
-----

==================  =====================================================
``fit``             Fit a model config, persist the fit artifact.
``sample``          Draw corrected joint samples, write draws + summary.
``lincomb``         Deterministic (and optionally sampled) posteriors of
                    linear combinations of the latent field.
``compare-mcmc``    Four-curve marginal comparison against the built-in
                    Metropolis reference run, with per-component KLDs.
``bench-quantile``  Timing/accuracy report for the skew-normal fast paths.
==================  =====================================================

Exit codes
----------

====  ====================================================
0     success
1     other failure (including benchmark assertion misses)
2     unreadable or invalid model config / input file
3     Gaussian approximation failed to converge
4     fit artifact missing from the output directory
5     weight-matrix dimensions do not match the fit
6     reference MCMC run failed its convergence check
====  ====================================================

Every command is deterministic given its config and seed, apart from
wall-clock fields.  Warnings (skewness clamps, dropped refinement nodes)
go to the ``sgcinla`` logger on stderr; tables and file paths to stdout.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, artifacts, rng, sampler
from .engine import fit_model
from .errors import (
    DimensionMismatch,
    DomainError,
    InvalidSpec,
    NoConvergence,
    SgcError,
)
from .lincomb import kld_1d, linear_combination_summary, marginals_1d, transform_moments
from .mcmc import ChainConfig, run_reference
from .sampler import kernel_density, marginal_density_estimate, sample_joint, summarize
from .sgc import CorrectionKind, as_kind
from .skewnormal import (
    default_table,
    fast_map,
    sn_cdf,
    sn_pdf,
    standardized_map_direct,
    standardized_params,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_MISSING_FIT = 4
EXIT_DIMENSION = 5
EXIT_ORACLE = 6

#: Largest split statistic the reference run may show before compare-mcmc
#: refuses to treat it as ground truth.
RHAT_LIMIT = 1.05

FIT_FILENAME = "fit.bin"

# Exit code of each error type main reports; an error takes the code of the
# nearest type in its method resolution order.
_EXIT_CODES = {
    FileNotFoundError: EXIT_MISSING_FIT,
    InvalidSpec: EXIT_CONFIG,
    DomainError: EXIT_CONFIG,
    NoConvergence: EXIT_NO_CONVERGENCE,
    DimensionMismatch: EXIT_DIMENSION,
    SgcError: EXIT_FAILURE,
}

def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_count(flag: str, count: int, least: int, need: str) -> None:
    """Refuse a count flag below ``least`` before any work is done."""
    if count < least:
        raise InvalidSpec(f"{flag} {count}: at least {least} {need}")


def _manifest(args, command: str, count: int = 0, kind: str = "") -> artifacts.RunManifest:
    return artifacts.RunManifest(
        command=command,
        config=str(getattr(args, "config", "") or ""),
        seed=int(getattr(args, "seed", 0)),
        count=int(count),
        kind=kind,
        out=str(getattr(args, "out", "") or ""),
        version=__version__,
    )


# -- fit -----------------------------------------------------------------


def cmd_fit(args) -> int:
    config = artifacts.load_config(args.config)
    spec = artifacts.spec_from_config(config, Path(args.config).parent)
    started = time.perf_counter()
    fit = fit_model(spec)
    elapsed = time.perf_counter() - started

    out = _out_dir(args)
    artifacts.save_fit(out / FIT_FILENAME, fit)
    _manifest(args, "fit").write(out)
    converged = sum(ga.converged for ga in fit.approximations)
    print(f"fit: K={fit.n_config} grid points, {converged}/{fit.n_config} converged")
    print(f"fit: {len(fit.names)} latent components, elapsed {elapsed:.2f} s")
    print(f"fit: wrote {out / FIT_FILENAME}")
    return EXIT_OK


# -- sample --------------------------------------------------------------


def cmd_sample(args) -> int:
    _check_count("--count", args.count, sampler.SUMMARY_MIN_DRAWS, "draws needed for summaries")
    out = _out_dir(args)
    fit = artifacts.load_fit(out / FIT_FILENAME)
    kind = as_kind(args.kind)
    started = time.perf_counter()
    samples = sample_joint(fit, args.count, args.seed, kind=kind)
    summary = summarize(samples)
    elapsed = time.perf_counter() - started

    samples_path = out / f"samples-{kind.value}.csv"
    summary_path = out / f"summary-{kind.value}.csv"
    artifacts.write_csv(samples_path, samples.names, samples.draws.tolist())
    artifacts.write_csv(
        summary_path,
        artifacts.SUMMARY_COLUMNS,
        [list(summary.row(i).values()) for i in range(len(summary.names))],
    )
    _manifest(args, "sample", count=args.count, kind=kind.value).write(out)
    print(f"sample: {args.count} draws of {len(samples.names)} components ({elapsed:.2f} s)")
    print(f"sample: wrote {samples_path}")
    print(f"sample: wrote {summary_path}")
    return EXIT_OK


# -- lincomb -------------------------------------------------------------


def _write_lincomb_outputs(out: Path, joint) -> list:
    """Persist summary, per-component SN parameters and density curves."""
    artifacts.write_joint_summary(out / "lincomb-summary.json", joint)
    curves = marginals_1d(joint)
    sd = joint.sd()
    artifacts.write_csv(
        out / "lincomb-marginals.csv",
        ("name", "mean", "sd", "skewness", "xi", "omega", "alpha"),
        [
            (c.name, joint.mean[i], sd[i], joint.skewness[i], c.params.xi, c.params.omega,
             c.params.alpha)
            for i, c in enumerate(curves)
        ],
    )
    artifacts.write_csv(
        out / "lincomb-density.csv",
        ("component", "x", "density"),
        [(c.name, x, d) for c in curves for x, d in zip(c.xs.tolist(), c.density.tolist())],
    )
    return curves


def cmd_lincomb(args) -> int:
    _check_count("--count", args.count, 0, "draws")
    if args.summary and args.count:
        raise InvalidSpec("sampling mode (--count) needs a fit artifact, not --summary")
    a = artifacts.read_a_matrix(args.a_matrix)
    out = _out_dir(args)

    if args.summary:
        base = artifacts.read_joint_summary(args.summary)
        started = time.perf_counter()
        joint = transform_moments(base, a)
        det_seconds = time.perf_counter() - started
    else:
        fit = artifacts.load_fit(out / FIT_FILENAME)
        started = time.perf_counter()
        joint = linear_combination_summary(fit, a)
        det_seconds = time.perf_counter() - started

    curves = _write_lincomb_outputs(out, joint)
    print(f"lincomb: {joint.dim} combinations, deterministic path {det_seconds * 1e3:.3f} ms")
    print(f"lincomb: wrote {out / 'lincomb-summary.json'}")

    if args.count:
        started = time.perf_counter()
        samples = sample_joint(fit, args.count, args.seed, kind=CorrectionKind.SKEW)
        projected = samples.draws @ a.T
        sample_seconds = time.perf_counter() - started
        rows = []
        for i, curve in enumerate(curves):
            lo = max(curve.xs[0], projected[:, i].min())
            hi = min(curve.xs[-1], projected[:, i].max())
            xs = np.linspace(lo, hi, 401)
            value = kld_1d(xs, sn_pdf(curve.params, xs), kernel_density(projected[:, i], xs))
            rows.append((curve.name, value))
        artifacts.write_csv(out / "lincomb-kld.csv", ("name", "kld"), rows)
        print(
            f"lincomb: sampling path with {args.count} draws {sample_seconds * 1e3:.1f} ms, "
            f"wrote {out / 'lincomb-kld.csv'}"
        )
    _manifest(args, "lincomb", count=args.count or 0).write(out)
    return EXIT_OK


# -- compare-mcmc --------------------------------------------------------


def _parse_components(text, fit) -> list[int]:
    if text:
        try:
            indices = sorted({int(tok) for tok in text.split(",")})
        except ValueError:
            raise InvalidSpec(f"--components must be comma-separated integers, got {text!r}")
        for i in indices:
            if not 0 <= i < len(fit.names):
                raise InvalidSpec(f"component {i} outside the latent field (N={len(fit.names)})")
        return indices
    # default: the four most skewed components under the mixture
    weighted_gamma = fit.weights @ fit.gamma
    return sorted(np.argsort(-np.abs(weighted_gamma))[:4].tolist())


def cmd_compare_mcmc(args) -> int:
    _check_count(
        "--count", args.count, sampler.DENSITY_MIN_DRAWS, "draws needed for density estimates"
    )
    try:
        chain_config = ChainConfig(chains=args.chains, burn=args.burn, keep=args.keep)
    except ValueError as err:
        raise InvalidSpec(str(err)) from None
    out = _out_dir(args)
    fit = artifacts.load_fit(out / FIT_FILENAME)
    indices = _parse_components(args.components, fit)

    started = time.perf_counter()
    run = run_reference(fit.spec, chain_config, seed=args.seed)
    mcmc_seconds = time.perf_counter() - started
    worst_rhat = float(np.max(run.rhat()))
    print(
        f"compare-mcmc: reference run {mcmc_seconds:.1f} s, "
        f"max split statistic {worst_rhat:.4f}, min ESS {run.ess().min():.0f}"
    )
    if worst_rhat > RHAT_LIMIT:
        print(
            f"error: reference chains have not converged "
            f"(max split statistic {worst_rhat:.4f} > {RHAT_LIMIT})",
            file=sys.stderr,
        )
        return EXIT_ORACLE

    latent = run.latent_draws()
    mean_samples = sample_joint(fit, args.count, args.seed, kind=CorrectionKind.MEAN)
    skew_samples = sample_joint(fit, args.count, args.seed, kind=CorrectionKind.SKEW)
    weighted_gamma = fit.weights @ fit.gamma

    def curves(i: int, xs: np.ndarray) -> tuple:
        """The grid and the oracle, mean, skew and refined densities on it."""
        return (
            xs,
            kernel_density(latent[:, i], xs),
            marginal_density_estimate(mean_samples, i, xs),
            marginal_density_estimate(skew_samples, i, xs),
            fit.marginal_density(i, xs),
        )

    header = ("x", "mcmc", "mean_corrected", "skew_corrected", "refined")
    rows = []
    for i in indices:
        name = fit.names[i]
        oracle = latent[:, i]
        sets = (oracle, mean_samples.draws[:, i], skew_samples.draws[:, i])
        lo = min(np.quantile(s, 0.001) for s in sets)
        hi = max(np.quantile(s, 0.999) for s in sets)
        plot = curves(i, np.linspace(lo, hi, 401))
        artifacts.write_csv(out / f"curves-{name}.csv", header, np.column_stack(plot).tolist())
        # upper-tail focus window
        tail = curves(i, np.linspace(*np.quantile(oracle, (0.90, 0.999)), 101))
        artifacts.write_csv(out / f"tail-{name}.csv", header, np.column_stack(tail).tolist())
        xs, curve_oracle = plot[:2]
        kld_mean, kld_skew, kld_refined = (kld_1d(xs, curve_oracle, c) for c in plot[2:])
        rows.append((i, name, weighted_gamma[i], kld_mean, kld_skew, kld_refined))
        print(
            f"compare-mcmc: {name} gamma={weighted_gamma[i]:+.3f} "
            f"kld mean={kld_mean:.2e} skew={kld_skew:.2e} refined={kld_refined:.2e}"
        )
    artifacts.write_csv(
        out / "compare-mcmc.csv",
        ("component", "name", "gamma", "kld_mean", "kld_skew", "kld_refined"),
        rows,
    )
    print(f"compare-mcmc: wrote {out / 'compare-mcmc.csv'}")
    _manifest(args, "compare-mcmc", count=args.count).write(out)
    return EXIT_OK


# -- bench-quantile ------------------------------------------------------


@dataclass(frozen=True)
class BenchRow:
    function: str
    path: str
    min_ms: float
    mean_ms: float
    max_ms: float
    max_abs_err: float


@dataclass(frozen=True)
class BenchReport:
    rows: tuple
    points: int
    reps: int

    @property
    def quantile_speedup(self) -> float:
        timing = {(r.function, r.path): r.mean_ms for r in self.rows}
        return timing[("quantile", "direct")] / timing[("quantile", "fast")]

    @property
    def worst_error(self) -> float:
        return max(r.max_abs_err for r in self.rows)


def run_quantile_benchmark(points: int, reps: int, seed: int) -> BenchReport:
    """Time direct vs fast pdf/cdf/quantile evaluation on random batches.

    The pdf and cdf rows compare this package's closed forms against the
    generic scipy.stats implementation on one skew-normal; the quantile rows
    compare the tabulated correction map against the per-batch exact solve
    on two-decimal skewness values, which is the contract the table holds.

    Only the quantile rows run the full replication count: they carry the
    speedup claim.  The pdf/cdf rows are accuracy cross-checks with
    indicative timings, so they run a reduced count (scipy's cdf integrates
    per point and would otherwise dominate the whole benchmark).
    """
    # imported here, not at module level: scipy.stats adds about 0.5 s to
    # every cold start and only this oracle uses it
    from scipy import stats

    gen = rng.stream(seed, salt=rng.SALT_BENCH)
    params = standardized_params(0.5)
    x = gen.uniform(-4.0, 4.0, size=points)
    z = gen.uniform(-3.5, 3.5, size=points)
    gamma = np.round(gen.integers(-95, 96, size=points) / 100.0, 2)
    table = default_table()

    def timed(fn, count):
        times = []
        value = None
        for _ in range(count):
            t0 = time.perf_counter()
            value = fn()
            times.append((time.perf_counter() - t0) * 1e3)
        return value, (min(times), sum(times) / len(times), max(times))

    side_reps = max(2, reps // 50)
    pairs = (
        ("pdf", side_reps,
         lambda: stats.skewnorm.pdf(x, params.alpha, loc=params.xi, scale=params.omega),
         lambda: sn_pdf(params, x)),
        ("cdf", side_reps,
         lambda: stats.skewnorm.cdf(x, params.alpha, loc=params.xi, scale=params.omega),
         lambda: sn_cdf(params, x)),
        ("quantile", reps,
         lambda: standardized_map_direct(gamma, z),
         lambda: fast_map(table, z, gamma)),
    )
    rows = []
    for function, count, direct_fn, fast_fn in pairs:
        direct_value, direct_t = timed(direct_fn, count)
        fast_value, fast_t = timed(fast_fn, count)
        err = float(np.max(np.abs(fast_value - direct_value)))
        rows.append(BenchRow(function, "direct", *direct_t, 0.0))
        rows.append(BenchRow(function, "fast", *fast_t, err))
    return BenchReport(rows=tuple(rows), points=points, reps=reps)


def cmd_bench_quantile(args) -> int:
    _check_count("--points", args.points, 1, "point to time")
    _check_count("--reps", args.reps, 1, "replication to time")
    report = run_quantile_benchmark(points=args.points, reps=args.reps, seed=args.seed)
    print(f"bench-quantile: {report.points} points, {report.reps} replications")
    print(f"{'function':<10}{'path':<8}{'min_ms':>10}{'mean_ms':>10}{'max_ms':>10}{'max_err':>12}")
    for r in report.rows:
        print(
            f"{r.function:<10}{r.path:<8}{r.min_ms:>10.2f}{r.mean_ms:>10.2f}"
            f"{r.max_ms:>10.2f}{r.max_abs_err:>12.2e}"
        )
    print(f"bench-quantile: fast quantile speedup {report.quantile_speedup:.1f}x")

    if args.out:
        out = _out_dir(args)
        artifacts.write_csv(
            out / "bench-quantile.csv",
            [f.name for f in fields(BenchRow)],
            [astuple(r) for r in report.rows],
        )
        _manifest(args, "bench-quantile", count=args.points).write(out)
        print(f"bench-quantile: wrote {out / 'bench-quantile.csv'}")

    if report.worst_error > 1e-3:
        print(f"error: fast-path error {report.worst_error:.2e} exceeds 1e-3", file=sys.stderr)
        return EXIT_FAILURE
    if report.quantile_speedup < 5.0:
        print(
            f"error: fast quantile speedup {report.quantile_speedup:.1f}x below 5x",
            file=sys.stderr,
        )
        return EXIT_FAILURE
    return EXIT_OK


# -- argument parsing ----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgcinla",
        description="Skew-corrected posterior inference for latent Gaussian models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model config and persist the result")
    p_fit.add_argument("--config", required=True, help="model config JSON")
    p_fit.add_argument("--out", required=True, help="output directory")
    p_fit.set_defaults(func=cmd_fit)

    p_sample = sub.add_parser("sample", help="draw corrected joint samples from a fit")
    p_sample.add_argument("--out", required=True, help="directory holding fit.bin")
    p_sample.add_argument("--count", type=int, default=10000)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--kind", choices=[k.value for k in CorrectionKind], default="skew")
    p_sample.set_defaults(func=cmd_sample)

    p_lin = sub.add_parser("lincomb", help="posteriors of linear combinations")
    p_lin.add_argument("--out", required=True)
    p_lin.add_argument("--a-matrix", required=True, help="numeric CSV of combination weights")
    p_lin.add_argument("--summary", default="", help="joint summary JSON instead of a fit")
    p_lin.add_argument("--count", type=int, default=0, help="also run the sampling path")
    p_lin.add_argument("--seed", type=int, default=0)
    p_lin.set_defaults(func=cmd_lincomb)

    p_cmp = sub.add_parser("compare-mcmc", help="marginals against the reference sampler")
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--components", default="", help="comma-separated latent indices")
    p_cmp.add_argument("--count", type=int, default=20000, help="corrected-sampler draws")
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--chains", type=int, default=ChainConfig.chains)
    p_cmp.add_argument("--burn", type=int, default=ChainConfig.burn)
    p_cmp.add_argument("--keep", type=int, default=ChainConfig.keep)
    p_cmp.set_defaults(func=cmd_compare_mcmc)

    p_bench = sub.add_parser("bench-quantile", help="skew-normal fast-path benchmark")
    p_bench.add_argument("--out", default="", help="optional report directory")
    p_bench.add_argument("--points", type=int, default=1_000_000)
    p_bench.add_argument("--reps", type=int, default=100)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(func=cmd_bench_quantile)
    return parser


def main(argv=None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, SgcError) as err:
        message = err
        # every reader but load_fit reports a missing file as InvalidSpec
        if isinstance(err, FileNotFoundError):
            message = f"no fit artifact at {err.filename}; run 'fit' first"
        print(f"error: {message}", file=sys.stderr)
        return next(_EXIT_CODES[t] for t in type(err).__mro__ if t in _EXIT_CODES)


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
