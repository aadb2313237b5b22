"""Run artifacts: model configs, fit files and tabular outputs.

Model configuration format (JSON)
---------------------------------

::

    {
      "family": "poisson",               // or {"name": "gaussian", "tau": 2.0}
      "data": {
        "y": [3, 0, 1],                  // inline arrays ...
        "covariates": {"z": [0.1, -0.2, 0.4]},
        "group": [0, 0, 1],
        "trials": [5, 5, 5]              // binomial only
      },
      "intercept": true,
      "tau_beta": 0.5,                   // scalar or one value per fixed effect
      "re_prior": [1.0, 1.0],
      "tau_epsilon": 3269017.37,         // optional
      "sum_to_zero": false               // constrain the random effects
    }

``data`` may instead point at a CSV file with named columns::

    {"csv": "counts.csv", "response": "y", "covariates": ["z"], "group": "g"}

Relative paths resolve against the directory containing the config file.

Fit artifact format
-------------------

A fit file is the 8-byte magic ``SGCFIT02`` followed by a pickled payload of
plain dictionaries and numpy arrays (protocol 4, so files are byte-identical
across reruns with the same config).  Each fact is stored once: the model
specification, the grid, and per configuration the mode, the likelihood
curvature and the Newton counts.  ``load_fit`` rebuilds the full
:class:`~sgcinla.engine.FitResult`; each configuration's prior precision is
``assemble_precision(spec, theta)`` at its grid point and its posterior
precision that plus ``diag(curvature)``, bit for bit as the fit built them.
``SGCFIT01`` files, which also stored both matrices and a copy of theta per
configuration, load through the same code, which ignores those keys.

Joint moment summaries (mean vector, covariance, skewness) serialize to JSON
with full ``repr`` precision, so a summary written and re-read reproduces
downstream skew-normal fits bitwise.
"""

from __future__ import annotations

import csv
import json
import pickle
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .engine import FitResult, GaussianApprox, GridPoint
from .errors import InvalidSpec
from .gmrf import LinearConstraint
from .lincomb import JointMomentSummary
from .model import ModelSpec, assemble_precision, make_family

FIT_MAGIC = b"SGCFIT02"
# Older layouts that load_fit still reads (their extra keys are ignored).
_OLD_FIT_MAGICS = (b"SGCFIT01",)
_PICKLE_PROTOCOL = 4

#: Column order of the posterior summary table.
SUMMARY_COLUMNS = ("Index", "Mean", "Sd", "0.025quant", "0.5quant", "0.975quant", "Mode")


# -- model configuration -------------------------------------------------


def load_config(path) -> dict:
    """Parse a JSON model config; schema errors surface as InvalidSpec."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise InvalidSpec(f"cannot read config {path}: {err}") from None
    try:
        config = json.loads(text)
    except json.JSONDecodeError as err:
        raise InvalidSpec(f"config {path} is not valid JSON: {err}") from None
    if not isinstance(config, dict):
        raise InvalidSpec("config root must be a JSON object")
    return config


def _data_from_csv(entry: dict, base: Path):
    csv_path = Path(entry["csv"])
    if not csv_path.is_absolute():
        csv_path = base / csv_path
    try:
        table = np.genfromtxt(csv_path, delimiter=",", names=True)
    except OSError as err:
        raise InvalidSpec(f"cannot read data file {csv_path}: {err}") from None
    if table.dtype.names is None:
        raise InvalidSpec(f"data file {csv_path} has no header row")

    def column(name):
        if name not in table.dtype.names:
            raise InvalidSpec(f"data file {csv_path} has no column {name!r}")
        return np.atleast_1d(table[name]).astype(float)

    try:
        response = entry["response"]
    except KeyError:
        raise InvalidSpec("csv data needs a 'response' column name") from None
    y = column(response)
    cov_names = tuple(entry.get("covariates", ()))
    covariates = np.column_stack([column(c) for c in cov_names]) if cov_names else None
    group = column(entry["group"]).astype(int) if "group" in entry else None
    trials = column(entry["trials"]) if "trials" in entry else None
    return y, covariates, cov_names, group, trials


def _data_inline(entry: dict):
    try:
        y = np.asarray(entry["y"], dtype=float)
    except KeyError:
        raise InvalidSpec("inline data needs a 'y' array") from None
    cov = entry.get("covariates") or {}
    if not isinstance(cov, dict):
        raise InvalidSpec("inline covariates must map names to arrays")
    cov_names = tuple(cov)
    covariates = np.column_stack([np.asarray(cov[c], dtype=float) for c in cov_names]) if cov_names else None
    group = np.asarray(entry["group"], dtype=int) if "group" in entry else None
    trials = np.asarray(entry["trials"], dtype=float) if "trials" in entry else None
    return y, covariates, cov_names, group, trials


def spec_from_config(config: dict, base=".") -> ModelSpec:
    """Build a validated ModelSpec from a parsed config dictionary."""
    base = Path(base)
    fam = config.get("family")
    if isinstance(fam, str):
        fam_name, fam_args = fam, {}
    elif isinstance(fam, dict) and "name" in fam:
        fam_args = {k: v for k, v in fam.items() if k != "name"}
        fam_name = fam["name"]
    else:
        raise InvalidSpec("config needs a 'family' name")
    try:
        family = make_family(fam_name, **fam_args)
    except TypeError as err:
        raise InvalidSpec(f"bad arguments for family {fam_name!r}: {err}") from None

    data = config.get("data")
    if not isinstance(data, dict):
        raise InvalidSpec("config needs a 'data' object")
    if "csv" in data:
        y, covariates, cov_names, group, trials = _data_from_csv(data, base)
    else:
        y, covariates, cov_names, group, trials = _data_inline(data)

    kwargs = dict(
        family=family,
        y=y,
        covariates=covariates,
        covariate_names=cov_names,
        trials=trials,
        group=group,
        intercept=bool(config.get("intercept", True)),
        tau_beta=config.get("tau_beta", 0.001),
        re_prior=tuple(config.get("re_prior", (0.1, 0.1))),
    )
    if "tau_epsilon" in config:
        kwargs["tau_epsilon"] = float(config["tau_epsilon"])
    spec = ModelSpec(**kwargs)

    if config.get("sum_to_zero", False):
        if not spec.n_groups:
            raise InvalidSpec("sum_to_zero requires a grouped random effect")
        row = np.zeros((1, spec.n_latent))
        row[0, spec.n_obs + spec.n_fixed :] = 1.0
        spec = ModelSpec(**kwargs, constraints=(LinearConstraint(row, np.zeros(1)),))
    return spec


# -- fit persistence -----------------------------------------------------


def _spec_payload(spec: ModelSpec) -> dict:
    family = {"name": spec.family.name}
    if spec.family.name == "gaussian":
        family["tau"] = spec.family.tau
    return {
        "family": family,
        "y": spec.y,
        "covariates": spec.covariates,
        "covariate_names": list(spec.covariate_names),
        "trials": spec.trials,
        "group": spec.group,
        "n_groups": spec.n_groups,
        "intercept": spec.intercept,
        "tau_beta": spec.tau_beta,
        "re_prior": list(spec.re_prior),
        "tau_epsilon": spec.tau_epsilon,
        "constraints": [(con.C, con.e) for con in spec.constraints],
    }


def _spec_from_payload(payload: dict) -> ModelSpec:
    fam = dict(payload["family"])
    family = make_family(fam.pop("name"), **fam)
    return ModelSpec(
        family=family,
        y=payload["y"],
        covariates=payload["covariates"] if payload["covariates"].shape[1] else None,
        covariate_names=tuple(payload["covariate_names"]),
        trials=payload["trials"],
        group=payload["group"],
        n_groups=payload["n_groups"],
        intercept=payload["intercept"],
        tau_beta=payload["tau_beta"],
        re_prior=tuple(payload["re_prior"]),
        tau_epsilon=payload["tau_epsilon"],
        constraints=tuple(LinearConstraint(c, e) for c, e in payload["constraints"]),
    )


def save_fit(path, fit: FitResult) -> None:
    """Write a fit artifact (versioned binary, deterministic bytes)."""
    payload = {
        "spec": _spec_payload(fit.spec),
        "grid": [
            {"theta": pt.theta, "log_posterior": pt.log_posterior, "weight": pt.weight}
            for pt in fit.grid
        ],
        "approximations": [
            {
                "mean": ga.mean,
                "curvature": ga.curvature,
                "converged": ga.converged,
                "iterations": ga.iterations,
            }
            for ga in fit.approximations
        ],
        "mutilde": fit.mutilde,
        "sigma": fit.sigma,
        "gamma": fit.gamma,
        "names": list(fit.names),
        "warnings": list(fit.warnings),
    }
    blob = FIT_MAGIC + pickle.dumps(payload, protocol=_PICKLE_PROTOCOL)
    Path(path).write_bytes(blob)


def load_fit(path) -> FitResult:
    """Read a fit artifact written by :func:`save_fit`.

    Raises FileNotFoundError when the file is absent and InvalidSpec when
    it does not carry a known format marker.
    """
    blob = Path(path).read_bytes()
    if blob[: len(FIT_MAGIC)] not in (FIT_MAGIC, *_OLD_FIT_MAGICS):
        raise InvalidSpec(f"{path} is not a fit artifact (bad magic bytes)")
    payload = pickle.loads(blob[len(FIT_MAGIC) :])
    spec = _spec_from_payload(payload["spec"])
    grid = [
        GridPoint(theta=g["theta"], log_posterior=g["log_posterior"], weight=g["weight"])
        for g in payload["grid"]
    ]
    approximations = []
    for pt, a in zip(grid, payload["approximations"]):
        theta = np.atleast_1d(np.asarray(pt.theta, dtype=float))
        prior = assemble_precision(spec, theta)
        approximations.append(
            GaussianApprox(
                theta=theta,
                mean=a["mean"],
                precision=prior.plus_diagonal(a["curvature"]),
                curvature=a["curvature"],
                prior_precision=prior,
                converged=a["converged"],
                iterations=a["iterations"],
            )
        )
    return FitResult(
        spec=spec,
        grid=grid,
        approximations=approximations,
        mutilde=payload["mutilde"],
        sigma=payload["sigma"],
        gamma=payload["gamma"],
        names=payload["names"],
        warnings=payload["warnings"],
    )


# -- tabular outputs -----------------------------------------------------


def write_samples_csv(path, names, draws) -> None:
    """Draw matrix as CSV, one column per latent component."""
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2 or draws.shape[1] != len(names):
        raise InvalidSpec("draws must be (count, len(names))")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for row in draws:
            writer.writerow([repr(v) for v in row.tolist()])


def write_summary_csv(path, summary) -> None:
    """Posterior summary table with the documented column order."""
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        for i in range(len(summary.names)):
            row = summary.row(i)
            writer.writerow({k: (v if k == "Index" else repr(float(v))) for k, v in row.items()})


def write_columns_csv(path, header, columns) -> None:
    """Aligned numeric columns (e.g. density curves) as CSV."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    if len(cols) != len(header) or any(c.shape != cols[0].shape for c in cols):
        raise InvalidSpec("one equally sized column per header entry is required")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in zip(*cols):
            writer.writerow([repr(float(v)) for v in row])


def read_a_matrix(path) -> np.ndarray:
    """Linear-combination weight matrix from a plain numeric CSV."""
    try:
        a = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as err:
        raise InvalidSpec(f"cannot read weight matrix {path}: {err}") from None
    except ValueError as err:
        raise InvalidSpec(f"weight matrix {path} is not numeric CSV: {err}") from None
    return a


# -- joint moment summaries ----------------------------------------------


def write_joint_summary(path, summary: JointMomentSummary) -> None:
    """Joint moment summary as JSON with full round-trip precision."""
    doc = {
        "names": list(summary.names),
        "mean": summary.mean.tolist(),
        "cov": summary.cov.tolist(),
        "skewness": summary.skewness.tolist(),
        "clamped": summary.clamped,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_joint_summary(path) -> JointMomentSummary:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as err:
        raise InvalidSpec(f"cannot read summary {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise InvalidSpec(f"summary {path} is not valid JSON: {err}") from None
    try:
        return JointMomentSummary(
            names=tuple(doc["names"]),
            mean=np.asarray(doc["mean"], dtype=float),
            cov=np.asarray(doc["cov"], dtype=float),
            skewness=np.asarray(doc["skewness"], dtype=float),
            clamped=int(doc.get("clamped", 0)),
        )
    except KeyError as err:
        raise InvalidSpec(f"summary {path} is missing field {err}") from None


# -- run manifests -------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record dropped into every output directory."""

    command: str
    config: str
    seed: int
    count: int
    kind: str
    out: str
    version: str

    def write(self, out_dir) -> Path:
        path = Path(out_dir) / f"manifest-{self.command}.json"
        path.write_text(json.dumps(asdict(self), indent=2) + "\n")
        return path
