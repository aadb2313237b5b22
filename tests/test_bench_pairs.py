"""The benchmark-pair reader on two synthetic result directories."""

import importlib.util
import json
import os
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _write_run(directory, workload, seed, op_s, mtime, commit, trace=0, smoke=False,
               setup_s=2.0, rss=None):
    result = {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "trace": trace,
        "env": {"git_commit": commit, "source_sha256": commit * 2},
        "attempted": 20,
        "failed": 0,
        "setup_samples_s": [setup_s, setup_s - 1.0, setup_s + 1.0],
        "peak_rss_mb": 150.0 + seed % 3 if rss is None else rss,
        "op_s": {"median": op_s, "n": 20, "tail": None, "values": [op_s] * 20},
    }
    if trace:
        result["layers"] = {"gmrf.sample_gmrf_s": op_s / 2}
    suffix = "-smoke" if smoke else ""
    path = Path(directory) / f"{workload}-seed{seed}-trace{trace}{suffix}.json"
    path.write_text(json.dumps(result))
    os.utime(path, (mtime, mtime))


def test_pairs_summaries_and_claim(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    parent_op = [0.60, 0.58, 0.62, 0.59, 0.61]
    change_op = [0.50, 0.49, 0.63, 0.48, 0.51]
    for i, seed in enumerate(range(11, 16)):
        # alternate which side ran first
        t_parent, t_change = (100 + 10 * i, 105 + 10 * i)[:: 1 if i % 2 == 0 else -1]
        _write_run(parent, "draws-61", seed, parent_op[i], t_parent, "p")
        _write_run(change, "draws-61", seed, change_op[i], t_change, "c")
    _write_run(parent, "draws-61", 99, 0.6, 10, "p")  # held out
    _write_run(change, "draws-61", 99, 0.5, 20, "c")
    _write_run(parent, "draws-61", 50, 0.6, 10, "p")  # no partner: ignored
    _write_run(change, "draws-61", 11, 0.1, 10, "c", smoke=True)  # smoke: ignored
    _write_run(parent, "draws-61", 11, 0.6, 10, "p", trace=1)
    _write_run(change, "draws-61", 11, 0.5, 10, "c", trace=1)
    out = tmp_path / "BENCH.json"
    bench_pairs.main([str(parent), str(change), "--claim", "draws-61:op_s",
                      "--held-out", "99", "--out", str(out)])
    record = json.loads(out.read_text())

    entry = record["workloads"]["draws-61"]
    assert [p["seed"] for p in entry["pairs"]] == [11, 12, 13, 14, 15]
    assert [p["first"] for p in entry["pairs"]] == ["parent", "change"] * 2 + ["parent"]
    assert entry["pairs"][0]["change"] == {
        "setup_s": 2.0, "op_s": 0.50, "peak_rss_mb": 152.0, "ops": 20, "failed": 0,
    }
    op = entry["pairs_summary"]["op_s"]
    assert op["parent"] == {
        "median": np.percentile(parent_op, 50),
        "q1": np.percentile(parent_op, 25),
        "q3": np.percentile(parent_op, 75),
    }
    assert op["change_better"] == "4 of 5"
    assert entry["pairs_summary"]["setup_s"]["change_better"] == "0 of 5"
    assert [p["seed"] for p in entry["held_out_pairs"]] == [99]
    assert entry["held_out_pairs_summary"]["op_s"]["change_better"] == "1 of 1"

    claim = record["claimed"]
    assert (claim["workload"], claim["metric"]) == ("draws-61", "op_s")
    # 4 of 5 pairs is below nine tenths, although the medians differ widely
    assert claim["pairs"]["wins"] == 4 and not claim["pairs"]["met"]
    assert claim["pairs"]["median_gain"] > claim["pairs"]["parent_iqr"]
    assert claim["held_out_pairs"]["met"]
    assert record["sides"]["parent"] == {"git_commit": "p", "source_sha256": "pp"}
    assert record["traced"]["draws-61"]["change"]["gmrf.sample_gmrf_s"] == 0.25


def test_verdicts_without_a_claim(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    # op_s: 40% slower, beyond its 0.25 bound -> worse
    # setup_s: the parent's runs spread by far more than the bound and the
    #   change's do not all beat them -> unresolved
    # peak_rss_mb: 2% larger, within its 0.1 bound and a tight spread -> ok
    parent_setup = [2.0, 4.0, 2.0, 4.0, 3.0]
    change_setup = [2.5, 3.5, 2.5, 3.5, 3.0]
    for i, seed in enumerate(range(21, 26)):
        _write_run(parent, "scale-241", seed, 1.0, 100 + 10 * i, "p",
                   setup_s=parent_setup[i], rss=100.0)
        _write_run(change, "scale-241", seed, 1.4, 105 + 10 * i, "c",
                   setup_s=change_setup[i], rss=102.0)
    out = tmp_path / "BENCH.json"
    bench_pairs.main([str(parent), str(change), "--out", str(out)])
    record = json.loads(out.read_text())

    assert record["claimed"] is None
    summary = record["workloads"]["scale-241"]["pairs_summary"]
    assert summary["op_s"]["verdict"] == "worse"
    assert summary["op_s"]["relative_change"] == pytest.approx(0.4)
    assert summary["op_s"]["bound"] == 0.25
    assert summary["setup_s"]["verdict"] == "unresolved"
    assert summary["setup_s"]["relative_change"] == 0.0
    assert summary["peak_rss_mb"]["verdict"] == "ok"
    assert summary["peak_rss_mb"]["relative_change"] == pytest.approx(0.02)
    assert summary["peak_rss_mb"]["bound"] == 0.1

    # a wide parent spread is resolved when every change run beats every parent run
    verdict = bench_pairs.bound_verdict(
        np.array(parent_setup), np.array([1.5, 1.9, 1.8]), {"better": "lower", "bound": 0.25}
    )
    assert verdict["verdict"] == "ok"


@pytest.mark.parametrize("claim", [
    "fit-61:op_s",  # a workload perfbench runs, but not one BENCHMARK.json lists
    "draws-61",
    "draws-61:op_s:extra",
    "draws-61:speed",
    "scale-241:op_s",  # listed, but no pair of runs
])
def test_claim_must_name_a_paired_workload_and_metric(tmp_path, claim):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    _write_run(parent, "draws-61", 11, 0.6, 10, "p")
    _write_run(change, "draws-61", 11, 0.5, 20, "c")
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(parent), str(change), "--claim", claim, "--out", str(out)])
    assert str(exc.value.code).startswith("error:")
    assert not out.exists()
