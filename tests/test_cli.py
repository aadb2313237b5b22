"""Command-line pipeline: verbs, outputs and exit codes."""

import collections
import csv
import json
import logging
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sgcinla
from sgcinla import cli, engine, rng, sampler
from sgcinla.artifacts import SUMMARY_COLUMNS, RunManifest, load_fit
from sgcinla.cli import main
from sgcinla.errors import NoConvergence
from sgcinla.lincomb import subset_moments


def write_poisson_config(path):
    gen = rng.stream(909)
    grp = np.repeat(np.arange(6), 5)
    u = gen.normal(size=6) * 0.8
    y = gen.poisson(np.exp(0.4 + u[grp]))
    config = {
        "family": "poisson",
        "data": {"y": y.tolist(), "group": grp.tolist()},
        "tau_beta": 0.5,
        "re_prior": [1.0, 1.0],
    }
    path.write_text(json.dumps(config))


def write_gaussian_config(path):
    gen = rng.stream(77)
    z = gen.normal(size=20)
    y = 0.5 - 1.2 * z + gen.normal(size=20) * 0.7
    config = {
        "family": {"name": "gaussian", "tau": 1 / 0.49},
        "data": {"y": y.tolist(), "covariates": {"z": z.tolist()}},
        "tau_beta": 0.5,
    }
    path.write_text(json.dumps(config))


@pytest.fixture(scope="module")
def poisson_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("poisson-run")
    config = root / "model.json"
    write_poisson_config(config)
    out = root / "out"
    assert main(["fit", "--config", str(config), "--out", str(out)]) == 0
    return config, out


@pytest.fixture(scope="module")
def gaussian_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("gaussian-run")
    config = root / "model.json"
    write_gaussian_config(config)
    out = root / "out"
    assert main(["fit", "--config", str(config), "--out", str(out)]) == 0
    return config, out


def test_fit_reports_grid_and_persists(poisson_run, capsys, tmp_path):
    config, out = poisson_run
    assert (out / "fit.bin").exists()
    assert RunManifest(**json.loads((out / "manifest-fit.json").read_text())).command == "fit"
    # rerunning into a fresh directory reproduces the artifact byte for byte
    out2 = tmp_path / "again"
    assert main(["fit", "--config", str(config), "--out", str(out2)]) == 0
    captured = capsys.readouterr().out
    assert "K=6" in captured and "6/6 converged" in captured
    assert (out / "fit.bin").read_bytes() == (out2 / "fit.bin").read_bytes()


def test_fit_reports_single_point_grid(gaussian_run, capsys, tmp_path):
    config, _ = gaussian_run
    out = tmp_path / "flat"
    assert main(["fit", "--config", str(config), "--out", str(out)]) == 0
    assert "K=1" in capsys.readouterr().out


def test_fit_logs_each_refinement_warning_once(tmp_path, monkeypatch, caplog):
    # a single count with no groups has a one-point grid and two components;
    # nodes are solved centre first, so component 0 loses its two outermost
    # nodes (flagged) and component 1 all but three (refinement skipped)
    real = engine._conditional_mode
    calls = collections.Counter()

    def failing(spec, q, i, value, x_start, **kwargs):
        calls[i] += 1
        if calls[i] > (7 if i == 0 else 3):
            raise NoConvergence("forced failure")
        return real(spec, q, i, value, x_start, **kwargs)

    monkeypatch.setattr(engine, "_conditional_mode", failing)
    config = tmp_path / "one.json"
    config.write_text(json.dumps({"family": "poisson", "data": {"y": [3]}, "tau_beta": 1.0}))
    with caplog.at_level(logging.WARNING):
        assert main(["fit", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    messages = [record.getMessage() for record in caplog.records]
    assert sorted(messages) == [
        "component 0 at grid point 0: 2 refinement nodes dropped",
        "refinement skipped for component 1 at grid point 0",
    ]


def test_fit_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["fit", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert main(["fit", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "o")]) == 2


def test_sample_outputs_and_speed(poisson_run, capsys):
    _, out = poisson_run
    started = time.perf_counter()
    code = main(["sample", "--out", str(out), "--count", "1000", "--seed", "1", "--kind", "mean"])
    elapsed = time.perf_counter() - started
    assert code == 0
    assert elapsed < 5.0
    with open(out / "summary-mean.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert tuple(rows[0].keys()) == SUMMARY_COLUMNS
    fit = load_fit(out / "fit.bin")
    assert [r["Index"] for r in rows] == list(fit.names)
    for row in rows:
        assert float(row["0.025quant"]) <= float(row["0.5quant"]) <= float(row["0.975quant"])
    with open(out / "samples-mean.csv", newline="") as handle:
        header = next(csv.reader(handle))
    assert tuple(header) == tuple(fit.names)
    manifest = RunManifest(**json.loads((out / "manifest-sample.json").read_text()))
    assert manifest.count == 1000 and manifest.kind == "mean"


def test_sample_kinds_agree_when_skewness_vanishes(gaussian_run):
    _, out = gaussian_run
    assert main(["sample", "--out", str(out), "--count", "4000", "--seed", "2", "--kind", "mean"]) == 0
    assert main(["sample", "--out", str(out), "--count", "4000", "--seed", "2", "--kind", "skew"]) == 0
    mean_rows = (out / "summary-mean.csv").read_text()
    skew_rows = (out / "summary-skew.csv").read_text()
    assert mean_rows == skew_rows


def test_sample_missing_fit(tmp_path):
    assert main(["sample", "--out", str(tmp_path / "empty")]) == 4


def _fail_if_called(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} ran before the flags were checked")

    return fail


def test_sample_refuses_too_few_draws_before_drawing(poisson_run, tmp_path, monkeypatch, capsys):
    _, out = poisson_run
    run = tmp_path / "run"
    run.mkdir()
    shutil.copy(out / "fit.bin", run / "fit.bin")
    monkeypatch.setattr(cli, "sample_joint", _fail_if_called("sample_joint"))
    assert main(["sample", "--out", str(run), "--count", "50"]) == 2
    assert f"at least {sampler.SUMMARY_MIN_DRAWS} draws" in capsys.readouterr().err
    assert [p.name for p in run.iterdir()] == ["fit.bin"]


def test_sample_rejects_unknown_kind(poisson_run):
    _, out = poisson_run
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--out", str(out), "--kind", "wild"])
    assert exc.value.code == 2


def test_lincomb_worked_example_via_summary(tmp_path):
    summary = tmp_path / "base.json"
    summary.write_text(
        json.dumps(
            {
                "names": ["x1", "x2"],
                "mean": [1.0, 2.0],
                "cov": [[2.0, 1.0], [1.0, 5.0]],
                "skewness": [-0.4, 0.6],
                "clamped": 0,
            }
        )
    )
    weights = tmp_path / "a.csv"
    weights.write_text("1,1\n1,-1\n")
    out = tmp_path / "out"
    assert main(["lincomb", "--out", str(out), "--a-matrix", str(weights), "--summary", str(summary)]) == 0
    doc = json.loads((out / "lincomb-summary.json").read_text())
    assert doc["mean"] == [3.0, -1.0]
    assert doc["cov"] == [[9.0, -3.0], [-3.0, 5.0]]
    assert doc["skewness"][0] == pytest.approx(0.2065, abs=1e-3)
    assert doc["skewness"][1] == pytest.approx(-0.7012, abs=1e-3)
    with open(out / "lincomb-marginals.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [r["name"] for r in rows] == ["lincomb_1", "lincomb_2"]
    assert float(rows[0]["alpha"]) == pytest.approx(1.217, abs=5e-3)
    assert float(rows[1]["alpha"]) == pytest.approx(-3.233, abs=1e-2)


def test_lincomb_identity_returns_subsets(poisson_run, tmp_path):
    _, out = poisson_run
    fit = load_fit(out / "fit.bin")
    weights = tmp_path / "id.csv"
    n = len(fit.names)
    rows = np.zeros((2, n))
    rows[0, 30] = 1.0  # intercept
    rows[1, 31] = 1.0  # first random effect
    np.savetxt(weights, rows, delimiter=",")
    assert main(["lincomb", "--out", str(out), "--a-matrix", str(weights)]) == 0
    doc = json.loads((out / "lincomb-summary.json").read_text())
    subset = subset_moments(fit, [30, 31])
    np.testing.assert_allclose(doc["mean"], subset.mean, atol=1e-12)
    np.testing.assert_allclose(doc["cov"], subset.cov, atol=1e-12)
    np.testing.assert_allclose(doc["skewness"], subset.skewness, atol=1e-12)


def test_lincomb_sampling_mode_emits_kld(poisson_run, tmp_path):
    _, out = poisson_run
    weights = tmp_path / "w.csv"
    row = np.zeros((1, 37))
    row[0, 31], row[0, 32] = 1.0, -1.0
    np.savetxt(weights, row, delimiter=",")
    assert main(
        ["lincomb", "--out", str(out), "--a-matrix", str(weights), "--count", "4000", "--seed", "2"]
    ) == 0
    with open(out / "lincomb-kld.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 1
    assert 0.0 <= float(rows[0]["kld"]) < 0.05


def test_lincomb_error_codes(poisson_run, tmp_path):
    _, out = poisson_run
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("1,2,3\n")
    assert main(["lincomb", "--out", str(out), "--a-matrix", str(wrong)]) == 5
    assert main(["lincomb", "--out", str(out), "--a-matrix", str(tmp_path / "none.csv")]) == 2
    assert main(["lincomb", "--out", str(tmp_path / "nofit"), "--a-matrix", str(wrong)]) == 4
    summary = tmp_path / "s.json"
    summary.write_text(
        json.dumps({"names": ["a"], "mean": [0.0], "cov": [[1.0]], "skewness": [0.0]})
    )
    one = tmp_path / "one.csv"
    one.write_text("1\n")
    fresh = tmp_path / "summary-run"
    assert (
        main(
            ["lincomb", "--out", str(fresh), "--a-matrix", str(one),
             "--summary", str(summary), "--count", "100"]
        )
        == 2
    )
    assert not list(fresh.glob("lincomb-*"))


def test_lincomb_refuses_a_negative_count_before_writing(poisson_run, tmp_path, monkeypatch, capsys):
    _, out = poisson_run
    run = tmp_path / "run"
    run.mkdir()
    shutil.copy(out / "fit.bin", run / "fit.bin")
    weights = tmp_path / "w.csv"
    np.savetxt(weights, np.eye(37)[[30]], delimiter=",")
    monkeypatch.setattr(
        cli, "linear_combination_summary", _fail_if_called("linear_combination_summary")
    )
    assert main(["lincomb", "--out", str(run), "--a-matrix", str(weights), "--count", "-3"]) == 2
    assert "--count -3: at least 0 draws" in capsys.readouterr().err
    assert [p.name for p in run.iterdir()] == ["fit.bin"]


def test_lincomb_zero_row_exits_with_dimension_code(poisson_run, tmp_path, caplog):
    _, out = poisson_run
    weights = tmp_path / "zero.csv"
    rows = np.zeros((2, 37))
    rows[0, 31] = 1.0  # the second row weighs nothing
    np.savetxt(weights, rows, delimiter=",")
    with caplog.at_level(logging.WARNING, logger="sgcinla"):
        assert main(["lincomb", "--out", str(out), "--a-matrix", str(weights)]) == 5
    assert "clamped" not in caplog.text


def test_lincomb_logs_each_clamp_once(tmp_path, caplog):
    summary = tmp_path / "s.json"
    summary.write_text(
        json.dumps({"names": ["a"], "mean": [0.0], "cov": [[1.0]], "skewness": [0.995]})
    )
    one = tmp_path / "one.csv"
    one.write_text("1\n")
    with caplog.at_level(logging.WARNING, logger="sgcinla"):
        assert main(
            ["lincomb", "--out", str(tmp_path / "out"), "--a-matrix", str(one),
             "--summary", str(summary)]
        ) == 0
    clamps = [r for r in caplog.records if "clamp" in r.getMessage()]
    assert len(clamps) == 1
    doc = json.loads((tmp_path / "out" / "lincomb-summary.json").read_text())
    assert doc["skewness"] == [0.99] and doc["clamped"] == 1


def test_compare_mcmc_gaussian_model_agrees(gaussian_run, tmp_path):
    config, _ = gaussian_run
    out = tmp_path / "cmp"
    assert main(["fit", "--config", str(config), "--out", str(out)]) == 0
    code = main(
        ["compare-mcmc", "--out", str(out), "--components", "20,21", "--count", "30000",
         "--chains", "4", "--burn", "1000", "--keep", "8000", "--seed", "4"]
    )
    assert code == 0
    with open(out / "compare-mcmc.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [r["name"] for r in rows] == ["intercept", "beta_z"]
    for row in rows:
        assert abs(float(row["gamma"])) < 1e-4
        assert float(row["kld_mean"]) <= 1e-3
        assert float(row["kld_skew"]) <= 1e-3
        assert float(row["kld_refined"]) <= 1e-3
    with open(out / "curves-beta_z.csv", newline="") as handle:
        header = next(csv.reader(handle))
    assert header == ["x", "mcmc", "mean_corrected", "skew_corrected", "refined"]
    assert (out / "tail-beta_z.csv").exists()


def test_compare_mcmc_flags_unconverged_oracle(poisson_run):
    _, out = poisson_run
    code = main(["compare-mcmc", "--out", str(out), "--chains", "2", "--burn", "100", "--keep", "800"])
    assert code == 6
    assert not (out / "compare-mcmc.csv").exists()


def test_compare_mcmc_checks_flags_before_the_reference_run(poisson_run, monkeypatch, capsys):
    _, out = poisson_run
    monkeypatch.setattr(cli, "run_reference", _fail_if_called("run_reference"))
    assert main(["compare-mcmc", "--out", str(out), "--count", "500"]) == 2
    assert f"at least {sampler.DENSITY_MIN_DRAWS} draws" in capsys.readouterr().err
    assert main(["compare-mcmc", "--out", str(out), "--chains", "1"]) == 2
    assert "two chains" in capsys.readouterr().err


def test_compare_mcmc_rejects_bad_components(poisson_run):
    _, out = poisson_run
    assert main(["compare-mcmc", "--out", str(out), "--components", "7,99"]) == 2
    assert main(["compare-mcmc", "--out", str(out), "--components", "a,b"]) == 2


def test_bench_quantile_report(tmp_path, capsys):
    out = tmp_path / "bench"
    code = main(
        ["bench-quantile", "--points", "20000", "--reps", "3", "--seed", "0", "--out", str(out)]
    )
    assert code == 0
    with open(out / "bench-quantile.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [(r["function"], r["path"]) for r in rows] == [
        ("pdf", "direct"), ("pdf", "fast"),
        ("cdf", "direct"), ("cdf", "fast"),
        ("quantile", "direct"), ("quantile", "fast"),
    ]
    for row in rows:
        assert float(row["max_abs_err"]) <= 1e-3
        assert float(row["min_ms"]) <= float(row["mean_ms"]) <= float(row["max_ms"])
    assert "speedup" in capsys.readouterr().out


def test_bench_quantile_refuses_nothing_to_time(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_quantile_benchmark", _fail_if_called("run_quantile_benchmark"))
    for flag in ("--reps", "--points"):
        assert main(["bench-quantile", flag, "0"]) == 2
        assert f"{flag} 0: at least 1 " in capsys.readouterr().err


def test_bench_quantile_rerun_stability():
    from sgcinla.cli import run_quantile_benchmark

    first = run_quantile_benchmark(points=50000, reps=5, seed=0)
    second = run_quantile_benchmark(points=50000, reps=5, seed=0)
    for a, b in zip(first.rows, second.rows):
        assert a.max_abs_err == b.max_abs_err  # deterministic inputs
        ratio = a.mean_ms / b.mean_ms
        assert 0.5 < ratio < 2.0


def _package_env(env: dict) -> dict:
    """``env`` with this package's source directory first on PYTHONPATH."""
    src = str(Path(sgcinla.__file__).resolve().parents[1])
    return dict(env, PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs about half a second of every cold start; only tests
    # and the bench-quantile oracle may import it
    code = "import sgcinla, sgcinla.cli, sys; assert 'scipy.stats' not in sys.modules"
    done = subprocess.run(
        [sys.executable, "-c", code], env=_package_env(os.environ), capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def _run_on_cpus(cpus, env, *argv):
    return subprocess.run(
        [sys.executable, *argv], env=env, preexec_fn=lambda: os.sched_setaffinity(0, cpus),
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two CPUs to compare the pool against one process",
)
def test_sample_outputs_equal_with_and_without_the_pool(poisson_run, tmp_path):
    _, out = poisson_run
    env = _package_env(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    for var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    two = set(sorted(os.sched_getaffinity(0))[:2])
    count = 30000
    # large enough that sample_joint takes the pool when it has two workers
    assert count * len(load_fit(out / "fit.bin").names) >= sampler._POOL_MIN_ELEMENTS
    written = {}
    for cpus, workers in ((two, 2), ({min(two)}, 1)):
        # the pool is on for two CPUs and off for one
        probe = _run_on_cpus(
            cpus, env, "-c", "from sgcinla import parallel; print(parallel.worker_count(10))"
        )
        assert probe.stdout.strip() == str(workers), probe.stderr
        run_dir = tmp_path / f"workers-{workers}"
        run_dir.mkdir()
        (run_dir / "fit.bin").write_bytes((out / "fit.bin").read_bytes())
        done = _run_on_cpus(
            cpus, env, "-m", "sgcinla.cli", "sample", "--out", str(run_dir),
            "--count", str(count), "--seed", "4", "--kind", "skew",
        )
        assert done.returncode == 0, done.stderr
        written[workers] = [(run_dir / name).read_bytes()
                            for name in ("samples-skew.csv", "summary-skew.csv")]
    assert written[2] == written[1]
