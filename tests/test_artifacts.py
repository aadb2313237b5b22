"""Config parsing, fit persistence and tabular output formats."""

import csv
import json
import pickle
from dataclasses import MISSING, fields

import numpy as np
import pytest
from scipy import special

from sgcinla import rng
from sgcinla.artifacts import (
    FIT_FORMAT,
    RunManifest,
    SUMMARY_COLUMNS,
    load_config,
    load_fit,
    read_a_matrix,
    read_joint_summary,
    save_fit,
    spec_from_config,
    write_csv,
    write_joint_summary,
)
from sgcinla.cli import main
from sgcinla.engine import fit_model
from sgcinla.errors import InvalidSpec, SkewnessOutOfRange
from sgcinla.gmrf import LinearConstraint
from sgcinla.lincomb import JointMomentSummary
from sgcinla.model import ModelSpec, make_family
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


def grouped_gaussian_config():
    """A covariate and a sum-to-zero grouped random effect."""
    config = gaussian_config()
    config["data"]["group"] = np.repeat(np.arange(4), 5).tolist()
    config["sum_to_zero"] = True
    return config


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


FRACTIONAL_GROUPS = np.repeat([0.5, 1.7, 2.2, 3.0, 4.0, 5.0], 5).tolist()


def test_fractional_group_ids_are_refused(tmp_path):
    inline = poisson_config()
    inline["data"]["group"] = FRACTIONAL_GROUPS
    from_csv = poisson_config()
    lines = ["y,g"] + [f"{yi},{gi}" for yi, gi in zip(from_csv["data"]["y"], FRACTIONAL_GROUPS)]
    (tmp_path / "counts.csv").write_text("\n".join(lines) + "\n")
    from_csv["data"] = {"csv": "counts.csv", "response": "y", "group": "g"}
    for name, config in (("inline", inline), ("csv", from_csv)):
        with pytest.raises(InvalidSpec, match="integer"):
            spec_from_config(config, tmp_path)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        out = tmp_path / f"out-{name}"
        assert main(["fit", "--config", str(path), "--out", str(out)]) == 2
        assert not (out / "fit.bin").exists()


def test_sum_to_zero_adds_constraint():
    config = poisson_config()
    config["sum_to_zero"] = True
    spec = spec_from_config(config)
    assert len(spec.constraints) == 1
    row = spec.constraints[0].C[0]
    assert row[: spec.n_obs + spec.n_fixed].sum() == 0.0
    assert row[spec.n_obs + spec.n_fixed :].sum() == spec.n_groups


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_sum_to_zero_must_be_a_bool(value):
    config = poisson_config()
    config["sum_to_zero"] = value
    with pytest.raises(InvalidSpec, match="sum_to_zero must be true or false"):
        spec_from_config(config)


def test_config_intercept_must_be_a_bool():
    config = poisson_config()
    config["intercept"] = "false"
    with pytest.raises(InvalidSpec, match="intercept must be true or false"):
        spec_from_config(config)
    config["intercept"] = False
    assert spec_from_config(config).n_fixed == 0


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
    doc = json.loads(path.read_text())
    assert doc["format"] == FIT_FORMAT
    assert set(doc["approximations"][0]) == {"mean", "curvature", "converged", "iterations"}
    _assert_same_fit(load_fit(path), fit)


@pytest.mark.parametrize("config", [grouped_gaussian_config, gaussian_config],
                         ids=["covariate-sum-to-zero", "no-groups"])
def test_load_fit_rebuilds_the_fit_bit_for_bit(tmp_path, config):
    fit = fit_model(spec_from_config(config()))
    path = tmp_path / "fit.bin"
    save_fit(path, fit)
    loaded = load_fit(path)
    _assert_same_fit(loaded, fit)
    for name in ("mutilde", "sigma", "gamma"):
        assert np.array_equal(getattr(loaded, name), getattr(fit, name)), name
    for got, want in zip(loaded.grid, fit.grid):
        assert np.array_equal(got.theta, want.theta)
        assert (got.log_posterior, got.weight) == (want.log_posterior, want.weight)
    for name in ("y", "covariates", "tau_beta"):
        assert np.array_equal(getattr(loaded.spec, name), getattr(fit.spec, name)), name
    assert len(loaded.spec.constraints) == len(fit.spec.constraints)
    for got, want in zip(loaded.spec.constraints, fit.spec.constraints):
        assert np.array_equal(got.C, want.C) and np.array_equal(got.e, want.e)


def test_save_load_save_gives_the_same_bytes(tmp_path):
    for config in (poisson_config, grouped_gaussian_config):
        first, second = tmp_path / "first.bin", tmp_path / "second.bin"
        save_fit(first, fit_model(spec_from_config(config())))
        save_fit(second, load_fit(first))
        assert first.read_bytes() == second.read_bytes()


def _binomial_spec():
    """Every ModelSpec field but the family's arguments away from its default."""
    gen = rng.stream(31)
    group = np.repeat(np.arange(3), 4)
    trials = np.full(12, 6.0)
    covariates = gen.normal(size=(12, 2))
    y = gen.binomial(6, special.expit(0.3 * covariates[:, 0] + gen.normal(size=3)[group]))
    n_latent = 12 + 2 + 5
    total, pair = np.zeros((1, n_latent)), np.zeros((1, n_latent))
    total[0, 14:] = 1.0
    pair[0, [17, 18]] = 1.0
    return dict(
        family=make_family("binomial"), y=y, covariates=covariates,
        covariate_names=("dose", "age"), trials=trials, group=group, n_groups=5,
        intercept=False, tau_beta=[0.5, 2.0], re_prior=(2.0, 0.5), tau_epsilon=1e6,
        constraints=(LinearConstraint(total, [0.0]), LinearConstraint(pair, [0.2])),
    )


def _gaussian_spec():
    """The family's arguments away from their defaults."""
    z = rng.stream(32).normal(size=10)
    return dict(family=make_family("gaussian", tau=2.5), y=1.0 - z, covariates=z)


def _plain(value):
    """A field value as nested lists, with each array's dtype and each
    object's type, so that == compares two values exactly."""
    if isinstance(value, np.ndarray):
        return [str(value.dtype), value.tolist()]
    if isinstance(value, (list, tuple)):
        return [type(value).__name__, [_plain(v) for v in value]]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if hasattr(value, "__dict__"):  # likelihood families and constraints
        return [type(value).__name__, _plain(vars(value))]
    return [type(value).__name__, value]


def test_the_round_trip_specs_set_every_field():
    """Together the two specs below set every ModelSpec field away from its
    default, so a field that the fit file drops fails the round trip."""
    given = [_binomial_spec(), _gaussian_spec()]
    for f in fields(ModelSpec):
        assert any(f.name in kwargs for kwargs in given), f.name
        if f.default is not MISSING:
            assert any(
                f.name in kwargs and _plain(kwargs[f.name]) != _plain(f.default) for kwargs in given
            ), f.name
    assert vars(given[1]["family"]) != vars(make_family("gaussian"))


@pytest.mark.parametrize("kwargs", [_binomial_spec, _gaussian_spec], ids=["binomial", "gaussian"])
def test_every_spec_field_survives_the_fit_file(tmp_path, kwargs):
    spec = ModelSpec(**kwargs())
    first, second = tmp_path / "first.bin", tmp_path / "second.bin"
    save_fit(first, fit_model(spec))
    loaded = load_fit(first).spec
    for f in fields(ModelSpec):
        assert _plain(getattr(loaded, f.name)) == _plain(getattr(spec, f.name)), f.name
    save_fit(second, load_fit(first))
    assert first.read_bytes() == second.read_bytes()


class _CreatesFile:
    """Unpickling this object creates the file at ``path``."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return open, (self.path, "w")


def test_pickled_fit_file_is_refused_unexecuted(tmp_path):
    control = tmp_path / "control"
    pickle.loads(pickle.dumps(_CreatesFile(control), protocol=4)).close()
    assert control.exists()  # the payload does run when unpickled

    marker = tmp_path / "marker"
    out = tmp_path / "run"
    out.mkdir()
    (out / "fit.bin").write_bytes(b"SGCFIT02" + pickle.dumps(_CreatesFile(marker), protocol=4))
    with pytest.raises(InvalidSpec):
        load_fit(out / "fit.bin")
    assert main(["sample", "--out", str(out), "--count", "10"]) == 2
    assert not marker.exists()


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
    fit = fit_model(spec_from_config(gaussian_config()))
    good = tmp_path / "fit.bin"
    save_fit(good, fit)
    text = good.read_text()
    doc = json.loads(text)
    missing_key = dict(doc)
    del missing_key["mutilde"]
    missing_spec_key = json.loads(text)
    del missing_spec_key["spec"]["y"]
    extra_spec_key = json.loads(text)
    extra_spec_key["spec"]["offset"] = 0.0
    bad = {
        "garbage": b"GARBAGE!" + b"\x00" * 16,
        "truncated": text[: len(text) // 2].encode(),
        "not-utf8": b'{"format": "\xff\xfe"}',
        "wrong-format": json.dumps(dict(doc, format="sgcinla-fit-2")).encode(),
        "no-format": json.dumps({k: v for k, v in doc.items() if k != "format"}).encode(),
        "missing-key": json.dumps(missing_key).encode(),
        "missing-spec-key": json.dumps(missing_spec_key).encode(),
        "extra-spec-key": json.dumps(extra_spec_key).encode(),
        "not-an-object": b"[1, 2, 3]",
        "wrong-type": json.dumps(dict(doc, grid=5)).encode(),
    }
    for name, blob in bad.items():
        path = tmp_path / f"{name}.bin"
        path.write_bytes(blob)
        with pytest.raises(InvalidSpec):
            load_fit(path)
    with pytest.raises(FileNotFoundError):
        load_fit(tmp_path / "missing.bin")


def test_samples_csv_round_trip(tmp_path):
    spec = spec_from_config(gaussian_config())
    samples = sample_joint(fit_model(spec), 50, seed=3)
    path = tmp_path / "samples.csv"
    write_csv(path, samples.names, samples.draws.tolist())
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert tuple(rows[0]) == tuple(samples.names)
    back = np.array([[float(v) for v in row] for row in rows[1:]])
    assert np.array_equal(back, samples.draws)
    assert b"\r" not in path.read_bytes()
    with pytest.raises(InvalidSpec):
        write_csv(path, samples.names[:-1], samples.draws.tolist())


def test_csv_cells_keep_strings_and_ints(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ("component", "name", "value"), [(3, "u_1", np.float64(0.1)), (4, "u_2", 2)])
    assert path.read_bytes() == b"component,name,value\n3,u_1,0.1\n4,u_2,2\n"


def test_summary_csv_layout(tmp_path):
    spec = spec_from_config(gaussian_config())
    summary = summarize(sample_joint(fit_model(spec), 500, seed=3))
    path = tmp_path / "summary.csv"
    write_csv(path, SUMMARY_COLUMNS, [list(summary.row(i).values()) for i in range(len(summary.names))])
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
