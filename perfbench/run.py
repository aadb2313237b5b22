"""Layered benchmark of sgcinla: fit, draw, summary and lincomb timings on
three desk-scale random-intercept GLMM workloads.

Run from the repository root::

    python3 perfbench/run.py                          # every workload, timed
    python3 perfbench/run.py --workload fit-61 --seed 3 --seconds 45 --trace 0
    python3 perfbench/run.py --workload draws-61 --trace 1   # per-layer split
    python3 perfbench/run.py --smoke                  # tiny sizes, seconds in total

The workloads are described in ``workloads.py`` and BENCHMARK.json.
BENCHMARK.json gates only scale-241 and draws-61: on a shared 2-vCPU host
the median of a few multi-second operations spreads by 15-35% between 24 s
runs, and only two workloads leave room for 45 s runs in the time the
whole gated series may take.  fit-61 runs the same way on request.  This
process imports no NumPy: it times set-up from outside, in fresh
interpreters, and runs each workload as one worker process with one BLAS
thread (two threads make the N=241 fit slower on two cores, 12 s against
9.5 s, and spin-waiting BLAS threads make timings depend on other load).
It prints a report, writes the full result with its environment to
``.perfbench/results/``, and prints one JSON object as its last line.  It
exits 1 when any output check fails and 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "sgcinla"
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench"
WORKLOADS = ("fit-61", "scale-241", "draws-61")

# Fresh-interpreter set-ups per timed run (the workload process is one of
# them) and `import sgcinla` samples per traced run; each reports the median.
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
BLAS_THREADS = 1
# Every workload ends within this many seconds.
BUDGET_S = 170.0
STAGES = ("fit_s", "draw_s", "summary_s", "lincomb_s")


class BenchmarkError(RuntimeError):
    pass


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker process to completion; return its spawn time and result."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker {' '.join(args)} ran past the time budget") from None
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-20:])
        raise BenchmarkError(f"worker {' '.join(args)} failed ({proc.returncode}):\n{tail}")
    return spawned, json.loads(lines[-1][len("RESULT "):])


def timing(values: list[float]) -> dict:
    """Median and the highest of p90/p99/p99.9 with at least ten samples beyond it."""
    ordered = sorted(values)
    out = {"median": statistics.median(values), "n": len(values), "tail": None, "values": values}
    for p in (99.9, 99.0, 90.0):
        if len(values) * (1.0 - p / 100.0) >= 10:
            k = min(len(values) - 1, int(round(p / 100.0 * (len(values) - 1))))
            out["tail"] = {"percentile": p, "value": ordered[k]}
            break
    return out


def source_id() -> dict:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = shutil.which("git")
        if git:
            proc = subprocess.run(
                [git, "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            commit = proc.stdout.strip() or None
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def run_workload(args, name: str, deadline: float) -> dict:
    """One workload: set-up samples, the workload process, and its metrics."""
    common = ["--workload", name, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        common += ["--workdir", str(workdir)]
        setups, imports = [], []
        if args.trace:
            for _ in range(IMPORT_SAMPLES):
                imports.append(worker(["--mode", "import", *common], deadline)[1]["import_s"])
        else:
            for _ in range(SETUP_SAMPLES - 1):
                spawned, res = worker(["--mode", "setup", *common], deadline)
                setups.append(res["ready"] - spawned)
        run_args = ["--mode", "run", "--seconds", str(args.seconds), "--trace", str(args.trace)]
        spawned, res = worker(run_args + common, deadline)
        setups.append(res["ready"] - spawned)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for op in res["ops"] if not op.get("traced")]
    done = [op for op in ops if not op["failed"]]
    problems = list(res["setup_problems"]) + [p for op in res["ops"] for p in op["problems"]]
    attempted = len(res["ops"])
    failed = attempted if res["setup_problems"] else sum(op["failed"] for op in res["ops"])
    result = {
        "workload": name,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": {"nproc": len(os.sched_getaffinity(0)), **res["env"], **source_id()},
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems,
        "setup_samples_s": setups,
        "setup_stages_s": res["setup_stages"],
        "peak_rss_mb": res["peak_rss_mb"],
        "op_s": timing([op["seconds"] for op in done]) if done else None,
        "stages": {
            stage: timing([op["stages"][stage] for op in done])
            for stage in STAGES
            if done and stage in done[0]["stages"]
        },
        "counts": done[0]["counts"] if done else {},
    }
    if args.trace:
        layers = res["layers"]
        if layers is not None:
            layers["cli.import_s"] = statistics.median(imports)
        result.update(layers=layers, layer_targets=res["layer_targets"], spans=res["spans"])
    return result


def metrics(result: dict, spec: dict) -> dict:
    if result["trace"]:
        return {
            m["name"]: {"value": result["layers"][m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    values = {
        "setup_s": statistics.median(result["setup_samples_s"]),
        "op_s": result["op_s"]["median"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def _timing_text(t: dict, unit: str) -> str:
    tail = t["tail"]
    tail_text = (
        f"p{tail['percentile']:g} {tail['value']:.4f} {unit}"
        if tail else "no percentile has ten samples beyond it"
    )
    return f"median {t['median']:.4f} {unit}  (n={t['n']}; {tail_text})"


def report(result: dict, spec: dict) -> None:
    env = result["env"]
    print(f"== {result['workload']}  seed {result['seed']}"
          f"{'  smoke size' if result['smoke'] else ''}  trace {result['trace']}")
    print("env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for problem in result["problems"]:
        print(f"FAILED CHECK: {problem}")
    print(f"error_rate: {result['error_rate']:.4f}  ({result['failed']} of "
          f"{result['attempted']} operations failed)")
    if result["trace"] and result["layers"]:
        for m in spec["per_layer"]:
            value = result["layers"][m["name"]]
            target = result["layer_targets"][m["name"]]
            print(f"{m['name']:<40} {value:>14.6g} {m['unit']:<6} moves {target}")
        return
    print(f"{'setup_s':<12} {_timing_text(timing(result['setup_samples_s']), 's')}")
    if result["op_s"]:
        print(f"{'op_s':<12} {_timing_text(result['op_s'], 's')}")
    for stage in STAGES:
        if stage in result["stages"]:
            print(f"{stage:<12} {_timing_text(result['stages'][stage], 's')}")
        else:
            print(f"{stage:<12} not part of this workload")
    print(f"{'peak_rss_mb':<12} {result['peak_rss_mb']:.1f} MB")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    status = 0
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = run_workload(args, name, time.monotonic() + BUDGET_S)
        except BenchmarkError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        suffix = "-smoke" if args.smoke else ""
        out = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}{suffix}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1) + "\n")
        report(result, spec)
        print(f"result: {out.relative_to(ROOT)}")
        measured = result["op_s"] is not None and result.get("layers", True) is not None
        correct = result["failed"] == 0 and measured
        status = status or (0 if correct else 1)
        line = {
            "correct": correct,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics(result, spec) if measured else {},
        }
        print(json.dumps(line), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
