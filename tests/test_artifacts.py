"""Config parsing, fit persistence and tabular output formats."""

import csv
import json
import pickle

import numpy as np
import pytest

from sgcinla import rng
from sgcinla.artifacts import (
    FIT_MAGIC,
    RunManifest,
    SUMMARY_COLUMNS,
    load_config,
    load_fit,
    read_a_matrix,
    read_joint_summary,
    save_fit,
    spec_from_config,
    write_joint_summary,
    write_samples_csv,
    write_summary_csv,
)
from sgcinla.engine import fit_model
from sgcinla.errors import InvalidSpec, SkewnessOutOfRange
from sgcinla.lincomb import JointMomentSummary
from sgcinla.sampler import sample_joint, summarize


def poisson_config():
    gen = rng.stream(909)
    grp = np.repeat(np.arange(6), 5)
    u = gen.normal(size=6) * 0.8
    y = gen.poisson(np.exp(0.4 + u[grp]))
    return {
        "family": "poisson",
        "data": {"y": y.tolist(), "group": grp.tolist()},
        "tau_beta": 0.5,
        "re_prior": [1.0, 1.0],
    }


def gaussian_config():
    gen = rng.stream(77)
    z = gen.normal(size=20)
    y = 0.5 - 1.2 * z + gen.normal(size=20) * 0.7
    return {
        "family": {"name": "gaussian", "tau": 1 / 0.49},
        "data": {"y": y.tolist(), "covariates": {"z": z.tolist()}},
        "tau_beta": 0.5,
    }


def test_inline_config_builds_spec():
    spec = spec_from_config(poisson_config())
    assert spec.family.name == "poisson"
    assert (spec.n_obs, spec.n_fixed, spec.n_groups) == (30, 1, 6)
    assert spec.component_names[30] == "intercept"
    assert spec.component_names[-1] == "u_6"


def test_family_object_with_arguments():
    spec = spec_from_config(gaussian_config())
    assert spec.family.name == "gaussian"
    assert spec.family.tau == pytest.approx(1 / 0.49)
    assert spec.covariate_names == ("z",)


def test_csv_data_source(tmp_path):
    config = poisson_config()
    y = config["data"]["y"]
    grp = config["data"]["group"]
    lines = ["y,g"] + [f"{yi},{gi}" for yi, gi in zip(y, grp)]
    (tmp_path / "counts.csv").write_text("\n".join(lines) + "\n")
    config["data"] = {"csv": "counts.csv", "response": "y", "group": "g"}
    spec = spec_from_config(config, tmp_path)
    reference = spec_from_config(poisson_config())
    assert np.array_equal(spec.y, reference.y)
    assert np.array_equal(spec.group, reference.group)


def test_sum_to_zero_adds_constraint():
    config = poisson_config()
    config["sum_to_zero"] = True
    spec = spec_from_config(config)
    assert len(spec.constraints) == 1
    row = spec.constraints[0].C[0]
    assert row[: spec.n_obs + spec.n_fixed].sum() == 0.0
    assert row[spec.n_obs + spec.n_fixed :].sum() == spec.n_groups


def test_config_error_reporting(tmp_path):
    with pytest.raises(InvalidSpec):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidSpec):
        load_config(bad)
    with pytest.raises(InvalidSpec):
        spec_from_config({"data": {"y": [1.0]}})
    with pytest.raises(InvalidSpec):
        spec_from_config({"family": "poisson", "data": {}})
    config = gaussian_config()
    config["sum_to_zero"] = True
    with pytest.raises(InvalidSpec):
        spec_from_config(config)


def test_csv_data_errors(tmp_path):
    (tmp_path / "data.csv").write_text("y,g\n1,0\n2,1\n")
    config = {
        "family": "poisson",
        "data": {"csv": "data.csv", "response": "missing", "group": "g"},
    }
    with pytest.raises(InvalidSpec):
        spec_from_config(config, tmp_path)
    config["data"] = {"csv": "nope.csv", "response": "y"}
    with pytest.raises(InvalidSpec):
        spec_from_config(config, tmp_path)


def test_fit_round_trip_and_determinism(tmp_path):
    spec = spec_from_config(gaussian_config())
    fit = fit_model(spec)
    path = tmp_path / "fit.bin"
    save_fit(path, fit)

    loaded = load_fit(path)
    assert loaded.names == fit.names
    assert loaded.n_config == fit.n_config
    assert np.array_equal(loaded.mutilde, fit.mutilde)
    assert np.array_equal(loaded.sigma, fit.sigma)
    assert np.array_equal(loaded.gamma, fit.gamma)
    assert np.array_equal(loaded.spec.y, fit.spec.y)
    assert np.array_equal(
        loaded.approximations[0].precision.matrix, fit.approximations[0].precision.matrix
    )

    # refitting the same config reproduces the file byte for byte
    again = tmp_path / "fit2.bin"
    save_fit(again, fit_model(spec_from_config(gaussian_config())))
    assert path.read_bytes() == again.read_bytes()


def _assert_same_fit(loaded, fit):
    assert loaded.names == fit.names
    assert np.array_equal(loaded.weights, fit.weights)
    for got, want in zip(loaded.approximations, fit.approximations):
        assert np.array_equal(got.theta, want.theta)
        assert np.array_equal(got.mean, want.mean)
        assert np.array_equal(got.curvature, want.curvature)
        assert np.array_equal(got.precision.matrix, want.precision.matrix)
        assert np.array_equal(got.prior_precision.matrix, want.prior_precision.matrix)
        assert (got.converged, got.iterations) == (want.converged, want.iterations)
    assert np.array_equal(
        sample_joint(loaded, 300, seed=4).draws, sample_joint(fit, 300, seed=4).draws
    )


def test_fit_file_stores_each_fact_once(tmp_path):
    fit = fit_model(spec_from_config(poisson_config()))
    path = tmp_path / "fit.bin"
    save_fit(path, fit)
    blob = path.read_bytes()
    assert blob[:8] == FIT_MAGIC == b"SGCFIT02"
    payload = pickle.loads(blob[8:])
    assert set(payload["approximations"][0]) == {"mean", "curvature", "converged", "iterations"}
    _assert_same_fit(load_fit(path), fit)


def test_fit_file_in_the_first_layout_still_loads(tmp_path):
    fit = fit_model(spec_from_config(poisson_config()))
    path = tmp_path / "fit.bin"
    save_fit(path, fit)
    payload = pickle.loads(path.read_bytes()[8:])
    # the first layout also stored theta and both precision matrices per configuration
    for entry, ga in zip(payload["approximations"], fit.approximations):
        entry["theta"] = ga.theta
        entry["precision"] = ga.precision.matrix.copy()
        entry["prior_precision"] = ga.prior_precision.matrix.copy()
    old = tmp_path / "old.bin"
    old.write_bytes(b"SGCFIT01" + pickle.dumps(payload, protocol=4))
    _assert_same_fit(load_fit(old), fit)


def test_loaded_fit_with_nan_skewness_does_not_draw(tmp_path):
    fit = fit_model(spec_from_config(gaussian_config()))
    fit.gamma[0, 1] = np.nan
    path = tmp_path / "fit.bin"
    save_fit(path, fit)
    with pytest.raises(SkewnessOutOfRange):
        sample_joint(load_fit(path), 200, seed=3)


def test_loaded_fit_with_nan_mean_does_not_draw(tmp_path):
    fit = fit_model(spec_from_config(gaussian_config()))
    fit.mutilde[0, 1] = np.nan
    path = tmp_path / "fit.bin"
    save_fit(path, fit)
    with pytest.raises(InvalidSpec):
        sample_joint(load_fit(path), 200, seed=3)


def test_load_fit_rejects_foreign_files(tmp_path):
    path = tmp_path / "notafit.bin"
    path.write_bytes(b"GARBAGE!" + b"\x00" * 16)
    with pytest.raises(InvalidSpec):
        load_fit(path)
    with pytest.raises(FileNotFoundError):
        load_fit(tmp_path / "missing.bin")


def test_samples_csv_round_trip(tmp_path):
    spec = spec_from_config(gaussian_config())
    samples = sample_joint(fit_model(spec), 50, seed=3)
    path = tmp_path / "samples.csv"
    write_samples_csv(path, samples.names, samples.draws)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert tuple(rows[0]) == tuple(samples.names)
    back = np.array([[float(v) for v in row] for row in rows[1:]])
    assert np.array_equal(back, samples.draws)
    with pytest.raises(InvalidSpec):
        write_samples_csv(path, samples.names[:-1], samples.draws)


def test_summary_csv_layout(tmp_path):
    spec = spec_from_config(gaussian_config())
    summary = summarize(sample_joint(fit_model(spec), 500, seed=3))
    path = tmp_path / "summary.csv"
    write_summary_csv(path, summary)
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert tuple(rows[0].keys()) == SUMMARY_COLUMNS
    assert [r["Index"] for r in rows] == list(summary.names)
    for i, row in enumerate(rows):
        assert float(row["Mean"]) == summary.mean[i]
        assert float(row["0.025quant"]) <= float(row["0.5quant"]) <= float(row["0.975quant"])


def test_a_matrix_reader(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("1,1\n1,-1\n")
    assert np.array_equal(read_a_matrix(path), [[1.0, 1.0], [1.0, -1.0]])
    single = tmp_path / "row.csv"
    single.write_text("0.5,0.5\n")
    assert read_a_matrix(single).shape == (1, 2)
    with pytest.raises(InvalidSpec):
        read_a_matrix(tmp_path / "absent.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(InvalidSpec):
        read_a_matrix(bad)


def test_joint_summary_json_is_bitwise(tmp_path):
    summary = JointMomentSummary(
        names=("s1", "s2"),
        mean=np.array([1.0 / 3.0, -2.0 / 7.0]),
        cov=np.array([[2.0, 1e-17], [1e-17, 5.0]]),
        skewness=np.array([0.2065, -0.7012]),
        clamped=1,
    )
    path = tmp_path / "summary.json"
    write_joint_summary(path, summary)
    loaded = read_joint_summary(path)
    assert loaded.names == summary.names
    assert loaded.clamped == 1
    assert np.array_equal(loaded.mean, summary.mean)
    assert np.array_equal(loaded.cov, summary.cov)
    assert np.array_equal(loaded.skewness, summary.skewness)
    with pytest.raises(InvalidSpec):
        read_joint_summary(tmp_path / "absent.json")
    (tmp_path / "short.json").write_text('{"names": ["a"]}')
    with pytest.raises(InvalidSpec):
        read_joint_summary(tmp_path / "short.json")


def test_manifest_round_trip(tmp_path):
    manifest = RunManifest(
        command="sample",
        config="model.json",
        seed=7,
        count=1000,
        kind="skew",
        out=str(tmp_path),
        version="0.1.0",
    )
    path = manifest.write(tmp_path)
    assert path.name == "manifest-sample.json"
    assert RunManifest(**json.loads(path.read_text())) == manifest
    doc = json.loads(path.read_text())
    assert doc["seed"] == 7 and doc["kind"] == "skew"
