"""Pair the benchmark runs of a parent and a change into a BENCH_<n>.json record.

Each side is one ``.perfbench/results/`` directory, written by
``perfbench/run.py`` in that side's checkout.  Untraced runs are paired by
workload and seed; the end-to-end metrics and their better direction come
from BENCHMARK.json.  Run from the repository root::

    python3 tools/bench_pairs.py PARENT_RESULTS CHANGE_RESULTS \\
        --claim draws-61:op_s --held-out 3201,3202,3203 \\
        --change-text "what the change does" --out BENCH_11.json
    python3 tools/bench_pairs.py PARENT_RESULTS CHANGE_RESULTS --out BENCH_12.json

A pair's ``first`` names the side whose result file was written first.
Medians and quartiles are ``numpy.percentile`` with linear interpolation.
The claim is met when the change is better in at least nine tenths of the
pairs, ties counting for neither side, and the medians differ by more than
the parent's interquartile range.  A claim that is not ``WORKLOAD:METRIC``
with a BENCHMARK.json workload and end-to-end metric, or whose workload has
no pair of runs, is refused with an error exit and no record.  Without
``--claim`` the record says ``"claimed": null``.  Every metric of every
workload also gets the relative change of the medians, its BENCHMARK.json
bound and a verdict: ``worse`` when the change's median is worse than the
parent's by more than the bound, ``unresolved`` when the parent's
interquartile range over its median exceeds the bound and not every change
run beats every parent run, ``ok`` otherwise.  Traced runs (``--trace 1``), when both sides have one for a
workload and seed, are copied under ``traced``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def load_runs(directory: Path, trace: int) -> dict:
    """``{(workload, seed): (mtime, result)}`` of the full-size runs in ``directory``."""
    runs = {}
    for path in sorted(Path(directory).glob(f"*-trace{trace}.json")):
        result = json.loads(path.read_text())
        if result.get("smoke") or result.get("trace") != trace:
            continue
        runs[result["workload"], result["seed"]] = (path.stat().st_mtime, result)
    return runs


def run_metrics(result: dict) -> dict:
    """The end-to-end values ``perfbench/run.py`` reports, with the counts."""
    return {
        "setup_s": statistics.median(result["setup_samples_s"]),
        "op_s": result["op_s"]["median"] if result["op_s"] else None,
        "peak_rss_mb": result["peak_rss_mb"],
        "ops": result["attempted"],
        "failed": result["failed"],
    }


def summarize_pairs(pairs: list, end_to_end: list) -> dict:
    summary = {}
    for metric in end_to_end:
        name = metric["name"]
        values = {side: np.array([p[side][name] for p in pairs], dtype=float) for side in SIDES}
        sign = 1.0 if metric["better"] == "lower" else -1.0
        wins = int(np.sum(sign * (values["change"] - values["parent"]) < 0))
        summary[name] = {
            side: dict(zip(("median", "q1", "q3"), (
                float(np.percentile(values[side], q)) for q in (50, 25, 75)
            )))
            for side in SIDES
        }
        summary[name]["change_better"] = f"{wins} of {len(pairs)}"
        summary[name].update(bound_verdict(values["parent"], values["change"], metric))
    return summary


def bound_verdict(parent: np.ndarray, change: np.ndarray, metric: dict) -> dict:
    """The relative change of the medians against the metric's bound."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bound = metric["bound"]
    base = float(np.median(parent))
    relative = (float(np.median(change)) - base) / base
    q1, q3 = np.percentile(parent, (25, 75))
    if sign * relative > bound:
        verdict = "worse"
    elif (q3 - q1) / base > bound and not np.max(sign * change) < np.min(sign * parent):
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {"relative_change": relative, "bound": bound, "verdict": verdict}


def claim_verdict(pairs: list, summary: dict, metric: dict) -> dict:
    """Wins, the gap between the medians and the parent's spread, and whether they suffice."""
    name = metric["name"]
    wins = int(summary[name]["change_better"].split(" of ")[0])
    parent, change = summary[name]["parent"], summary[name]["change"]
    gap = parent["median"] - change["median"]
    if metric["better"] != "lower":
        gap = -gap
    spread = parent["q3"] - parent["q1"]
    return {
        "wins": wins,
        "pairs": len(pairs),
        "median_gain": gap,
        "parent_iqr": spread,
        "met": bool(pairs) and wins >= 0.9 * len(pairs) and gap > spread,
    }


def side_ids(runs: dict, side: str) -> dict:
    ids = {
        (r["env"].get("git_commit"), r["env"].get("source_sha256")) for _, r in runs.values()
    }
    if len(ids) != 1:
        raise SystemExit(f"error: the {side} results come from {len(ids)} source trees")
    commit, digest = ids.pop()
    return {"git_commit": commit, "source_sha256": digest}


def build(parent_dir, change_dir, claim=None, held_out=(), change="", hardware="") -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = spec["end_to_end"]
    by_name = {m["name"]: m for m in end_to_end}
    if claim:
        if claim.count(":") != 1:
            raise SystemExit(f"error: --claim {claim!r} is not WORKLOAD:METRIC")
        claim_workload, claim_metric = claim.split(":")
        if claim_workload not in {w["name"] for w in spec["workloads"]}:
            raise SystemExit(f"error: {claim_workload} is not a BENCHMARK.json workload")
        if claim_metric not in by_name:
            raise SystemExit(f"error: {claim_metric} is not an end-to-end metric")
    runs = dict(zip(SIDES, (load_runs(parent_dir, 0), load_runs(change_dir, 0))))
    keys = sorted(set(runs["parent"]) & set(runs["change"]))
    if not keys:
        raise SystemExit("error: no workload and seed has a run on both sides")

    workloads = {}
    for workload in sorted({w for w, _ in keys}):
        groups = {"pairs": [], "held_out_pairs": []}
        for key in (k for k in keys if k[0] == workload):
            (t_parent, r_parent), (t_change, r_change) = runs["parent"][key], runs["change"][key]
            first = "parent" if t_parent <= t_change else "change"
            second = "change" if first == "parent" else "parent"
            by_side = {"parent": run_metrics(r_parent), "change": run_metrics(r_change)}
            pair = {"seed": key[1], "first": first, first: by_side[first], second: by_side[second]}
            groups["held_out_pairs" if key[1] in held_out else "pairs"].append(pair)
        entry = {}
        for group, pairs in groups.items():
            if pairs:
                entry[group] = pairs
                entry[f"{group}_summary"] = summarize_pairs(pairs, end_to_end)
        workloads[workload] = entry

    claimed = None
    if claim:
        entry = workloads.get(claim_workload, {})
        if "pairs" not in entry:
            raise SystemExit(f"error: the claimed workload {claim_workload} has no pair of runs")
        claimed = {"workload": claim_workload, "metric": claim_metric}
        for group in ("pairs", "held_out_pairs"):
            if group in entry:
                claimed[group] = claim_verdict(
                    entry[group], entry[f"{group}_summary"], by_name[claim_metric]
                )

    traced = {}
    traced_runs = dict(zip(SIDES, (load_runs(parent_dir, 1), load_runs(change_dir, 1))))
    for key in sorted(set(traced_runs["parent"]) & set(traced_runs["change"])):
        traced[key[0]] = {"seed": key[1]}
        for side in SIDES:
            result = traced_runs[side][key][1]
            traced[key[0]][side] = dict(
                result.get("layers") or {}, failed=result["failed"], attempted=result["attempted"]
            )

    record = {
        "change": change,
        "command": "python3 perfbench/run.py --workload <name> --seed <seed>",
        "run_seconds": spec["run_seconds"],
        "hardware": hardware,
        "sides": {side: side_ids(runs[side], side) for side in SIDES},
        "pair_order": "'first' names the side whose result file was written first",
        "quartiles": "numpy.percentile, linear interpolation",
        "claimed": claimed,
        "workloads": workloads,
    }
    if traced:
        record["traced"] = traced
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent's .perfbench/results directory")
    parser.add_argument("change", type=Path, help="the change's .perfbench/results directory")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims, if any")
    parser.add_argument("--held-out", default="", help="comma-separated seeds kept apart")
    parser.add_argument("--change-text", dest="change_text", default="", help="what changed")
    parser.add_argument("--hardware", default="", help="the machine the runs shared")
    parser.add_argument("--out", type=Path, help="output file; standard output if omitted")
    args = parser.parse_args(argv)
    held_out = {int(s) for s in args.held_out.split(",") if s}
    record = build(args.parent, args.change, args.claim, held_out, args.change_text, args.hardware)
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
