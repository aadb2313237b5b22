"""Workload process of the layered benchmark, started by run.py.

Modes:

* ``import``: time ``import sgcinla`` in this fresh interpreter.
* ``setup``: do the workload's set-up, report when it was ready, and exit.
* ``run``: set up, then run the closed loop for ``--seconds``.  Untraced,
  operations repeat back to back.  Traced, an untraced and a traced
  operation alternate, and single-call probes follow.

The last line on stdout is ``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import logging
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# A timed run stops starting operations once the next one would end past
# --seconds, but it always runs this many so counts can be compared.
MIN_OPS = 2


def blas_info() -> tuple[str, int | None]:
    """BLAS vendor from NumPy's build config; thread count from the loaded library."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        vendor = "unknown"
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return vendor, int(fn())
    return vendor, None


def environment() -> dict:
    import numpy
    import scipy
    from workloads import BERNOULLI_SEED, POISSON_SEED

    vendor, threads = blas_info()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": threads,
        "fixture_seeds": {"poisson": POISSON_SEED, "bernoulli": BERNOULLI_SEED},
    }


def run_op(workload, tracer, op_id=None) -> tuple[dict, object]:
    """One operation; an exception or a failed check marks it failed."""
    # summarize leaves each draw set reachable only from reference cycles
    # (scipy's gaussian_kde keeps a view of its column), so without a
    # collection here memory grows by one draw set per operation
    gc.collect()
    tracer.op = op_id
    t0 = time.perf_counter()
    try:
        res = workload.operation(tracer)
    except Exception:
        record = {
            "seconds": time.perf_counter() - t0,
            "failed": True,
            "problems": [traceback.format_exc(limit=4)],
            "stages": {},
            "counts": {},
        }
        return record, None
    record = {
        "seconds": res.seconds,
        "failed": bool(res.problems),
        "problems": res.problems,
        "stages": res.stages,
        "counts": res.counts,
    }
    return record, res


def check_counts(records: list[dict]) -> None:
    """Counts of the same work must repeat exactly between operations; a
    count only one of two operations measured (None) is not compared."""
    done = [r for r in records if not r["failed"]]
    for r in done[1:]:
        first = done[0]["counts"]
        measured = [k for k, v in r["counts"].items() if v is not None and first.get(k) is not None]
        if any(r["counts"][k] != first[k] for k in measured):
            r["failed"] = True
            r["problems"].append(f"counts {r['counts']} differ from {first}")


def timed_loop(workload, seconds: float) -> list[dict]:
    from workloads import Tracer

    tracer = Tracer(False)
    start = time.monotonic()
    records = []
    while True:
        # the result is dropped at once, so no operation's arrays outlive it
        record = run_op(workload, tracer)[0]
        records.append(record)
        elapsed = time.monotonic() - start
        if len(records) >= MIN_OPS and elapsed + record["seconds"] > seconds:
            break
    check_counts(records)
    return records


def same_fits(plain, traced) -> bool:
    import numpy as np

    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for a, b in zip(plain.fits, traced.fits, strict=True)
        for name in ("mutilde", "sigma", "gamma")
    )


def traced_loop(workload, seconds: float) -> dict:
    """Untraced and traced operations in pairs, then the probes."""
    import layers
    from workloads import Tracer, self_times

    plain_tracer, tracer = Tracer(False), Tracer(True)
    start = time.monotonic()
    records, last = [], None
    while True:
        pair_start = time.monotonic()
        plain, plain_res = run_op(workload, plain_tracer)
        traced, traced_res = run_op(workload, tracer, op_id=f"op{len(records) // 2}")
        plain["traced"], traced["traced"] = False, True
        if plain_res is not None and traced_res is not None:
            if not same_fits(plain_res, traced_res):
                traced["failed"] = True
                traced["problems"].append("re-enacted fit differs from fit_model")
            last = traced_res
        records += [plain, traced]
        now = time.monotonic()
        if now - start + (now - pair_start) > seconds:
            break
    check_counts(records)
    out = {"ops": records, "layers": None, "layer_targets": None, "spans": []}
    traced_ok = [r for r in records if r["traced"] and not r["failed"]]
    plain_ok = [r for r in records if not r["traced"] and not r["failed"]]
    if last is None or not traced_ok or not plain_ok:
        return out

    layers.run_probes(workload, tracer, last)
    values = layers.span_metrics(tracer.spans)
    values.update(layers.count_metrics(traced_ok[0]["counts"]))
    values["skewnormal.table_build_s"] = workload.setup_stages.get("table_build_s", 0.0)
    values["artifacts.fit_bytes"] = getattr(workload, "fit_bytes", 0)
    values["trace.overhead_s"] = statistics.median(r["seconds"] for r in traced_ok) - (
        statistics.median(r["seconds"] for r in plain_ok)
    )
    keys = ("name", "start", "end", "parent", "op")
    out.update(
        layers=values,
        layer_targets={name: target for name, _, _, target in layers.PER_LAYER},
        spans=[dict(zip(keys, s), self_s=t) for s, t in zip(tracer.spans, self_times(tracer.spans))],
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("import", "setup", "run"), required=True)
    parser.add_argument("--workload", default="fit-61")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", type=Path, default=Path("."))
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import sgcinla  # noqa: F401

    import_s = time.perf_counter() - t0
    if args.mode == "import":
        print("RESULT " + json.dumps({"import_s": import_s}), flush=True)
        return 0

    # the package logs each dropped refinement node; the counts carry them
    logging.getLogger("sgcinla").setLevel(logging.ERROR)
    from workloads import make_workload

    workload = make_workload(args.workload, args.seed, args.workdir, args.smoke)
    workload.setup()
    ready = time.monotonic()
    result = {
        "ready": ready,
        "setup_stages": {"import_s": import_s, **workload.setup_stages},
        "setup_problems": workload.setup_problems,
    }
    if args.mode == "run":
        if args.trace:
            result.update(traced_loop(workload, args.seconds))
        else:
            result["ops"] = timed_loop(workload, args.seconds)
        result.update(
            env=environment(),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
