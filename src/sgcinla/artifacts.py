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

A fit file is one JSON document: the ``save_fit`` payload plus a
``"format"`` field naming its layout.  Arrays are stored as nested lists
and every float in full ``repr`` precision, so ``load_fit`` rebuilds the
fit bit for bit and save -> load -> save gives the same bytes.  Each fact
is stored once: the model specification, the grid, and per configuration
the mode, the likelihood curvature and the Newton counts.  Each
configuration's prior precision is rebuilt as ``assemble_precision(spec,
theta)`` at its grid point and its posterior precision as that plus
``diag(curvature)``, as the fit built them.  A file that is not such a
document, including the earlier pickled layouts, raises InvalidSpec; it is
parsed as JSON only, never executed.

Tables
------

:func:`write_csv` writes every CSV table: a header row, then strings and
ints as they are and every other cell as ``repr(float(v))``, each line
ending in LF.  Joint moment summaries (mean vector, covariance, skewness)
serialize to JSON with the same ``repr`` precision, so a summary written
and re-read reproduces downstream skew-normal fits bitwise.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .engine import FitResult, GaussianApprox, GridPoint
from .errors import InvalidSpec
from .gmrf import LinearConstraint
from .lincomb import JointMomentSummary
from .model import ModelSpec, as_flag, assemble_precision, make_family

#: The ``"format"`` field of a fit file in the layout this module writes.
FIT_FORMAT = "sgcinla-fit-3"

#: Column order of the posterior summary table.
SUMMARY_COLUMNS = ("Index", "Mean", "Sd", "0.025quant", "0.5quant", "0.975quant", "Mode")


# -- model configuration -------------------------------------------------


def _read_json_object(path, what: str) -> dict:
    """The JSON object in a file; InvalidSpec if the file cannot be read,
    is not JSON or holds something other than an object."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as err:
        raise InvalidSpec(f"cannot read {what} {path}: {err}") from None
    except ValueError as err:  # JSONDecodeError and UnicodeDecodeError
        raise InvalidSpec(f"{what} {path} is not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise InvalidSpec(f"{what} {path}: the root must be a JSON object")
    return doc


def load_config(path) -> dict:
    """Parse a JSON model config; schema errors surface as InvalidSpec."""
    return _read_json_object(path, "config")


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
    group = column(entry["group"]) if "group" in entry else None
    trials = column(entry["trials"]) if "trials" in entry else None
    return y, covariates, cov_names, group, trials


def _data_inline(entry: dict):
    # ModelSpec converts and checks the values
    if "y" not in entry:
        raise InvalidSpec("inline data needs a 'y' array")
    cov = entry.get("covariates") or {}
    if not isinstance(cov, dict):
        raise InvalidSpec("inline covariates must map names to arrays")
    cov_names = tuple(cov)
    try:
        covariates = np.column_stack([cov[c] for c in cov_names]) if cov_names else None
    except ValueError as err:
        raise InvalidSpec(f"inline covariates must be arrays of one length: {err}") from None
    return entry["y"], covariates, cov_names, entry.get("group"), entry.get("trials")


#: Top-level config keys handed to ModelSpec as they are; ModelSpec
#: converts them and supplies the default of any the config leaves out.
_CONFIG_SETTINGS = ("intercept", "tau_beta", "re_prior", "tau_epsilon")


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
    )
    kwargs.update((key, config[key]) for key in _CONFIG_SETTINGS if key in config)
    spec = ModelSpec(**kwargs)

    if as_flag("sum_to_zero", config.get("sum_to_zero", False)):
        if not spec.n_groups:
            raise InvalidSpec("sum_to_zero requires a grouped random effect")
        row = np.zeros((1, spec.n_latent))
        row[0, spec.n_obs + spec.n_fixed :] = 1.0
        spec = ModelSpec(**kwargs, constraints=(LinearConstraint(row, np.zeros(1)),))
    return spec


# -- fit persistence -----------------------------------------------------


def _spec_payload(spec: ModelSpec) -> dict:
    # one key per ModelSpec field, in field order
    payload = {f.name: getattr(spec, f.name) for f in fields(ModelSpec)}
    payload["family"] = {"name": spec.family.name, **vars(spec.family)}
    payload["constraints"] = [(con.C, con.e) for con in spec.constraints]
    return payload


def _spec_from_payload(payload: dict) -> ModelSpec:
    # ModelSpec and LinearConstraint turn the lists into arrays
    if set(payload) != {f.name for f in fields(ModelSpec)}:
        raise InvalidSpec(f"the spec holds fields {sorted(payload)}, not ModelSpec's")
    fam = dict(payload["family"])
    family = make_family(fam.pop("name"), **fam)
    constraints = [LinearConstraint(c, e) for c, e in payload["constraints"]]
    return ModelSpec(**dict(payload, family=family, constraints=constraints))


def save_fit(path, fit: FitResult) -> None:
    """Write a fit artifact (one JSON document, deterministic bytes)."""
    payload = {
        "format": FIT_FORMAT,
        "spec": _spec_payload(fit.spec),
        "grid": [vars(pt) for pt in fit.grid],
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
    Path(path).write_text(json.dumps(payload, default=lambda v: v.tolist()))


def load_fit(path) -> FitResult:
    """Read a fit artifact written by :func:`save_fit`.

    Raises FileNotFoundError when the file is absent and InvalidSpec when
    it is not a JSON document in the :data:`FIT_FORMAT` layout.
    """
    blob = Path(path).read_bytes()
    try:
        payload = json.loads(blob)  # a UnicodeDecodeError is a ValueError too
    except ValueError as err:
        raise InvalidSpec(f"{path} is not a fit artifact: {err}") from None
    if not isinstance(payload, dict) or payload.get("format") != FIT_FORMAT:
        raise InvalidSpec(f"{path} is not a fit artifact in the {FIT_FORMAT!r} format")
    try:
        spec = _spec_from_payload(payload["spec"])
        grid = [
            GridPoint(**dict(g, theta=np.asarray(g["theta"], dtype=float))) for g in payload["grid"]
        ]
        approximations = []
        for pt, a in zip(grid, payload["approximations"], strict=True):
            prior = assemble_precision(spec, pt.theta)
            curvature = np.asarray(a["curvature"], dtype=float)
            approximations.append(
                GaussianApprox(
                    theta=pt.theta,
                    mean=np.asarray(a["mean"], dtype=float),
                    precision=prior.plus_diagonal(curvature),
                    curvature=curvature,
                    prior_precision=prior,
                    converged=a["converged"],
                    iterations=a["iterations"],
                )
            )
        return FitResult(
            spec=spec,
            grid=grid,
            approximations=approximations,
            mutilde=np.asarray(payload["mutilde"], dtype=float),
            sigma=np.asarray(payload["sigma"], dtype=float),
            gamma=np.asarray(payload["gamma"], dtype=float),
            names=payload["names"],
            warnings=payload["warnings"],
        )
    except (KeyError, TypeError, ValueError) as err:
        raise InvalidSpec(f"fit artifact {path} is malformed: {err!r}") from None


# -- tabular outputs -----------------------------------------------------


def write_csv(path, header, rows) -> None:
    """Write a CSV table: the header, then one line per row.

    Strings and ints are written as they are and every other cell as
    ``repr(float(v))``, which reads back bit for bit.  Each line ends in LF.
    A row whose length differs from the header's raises InvalidSpec.
    """
    width = len(header)

    def cells(row):
        if len(row) != width:
            raise InvalidSpec(f"a row of {len(row)} cells under a header of {width}")
        return [v if isinstance(v, (str, int)) else repr(float(v)) for v in row]

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(cells, rows))


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
    doc = json.dumps(asdict(summary), indent=2, default=lambda v: v.tolist())
    Path(path).write_text(doc + "\n")


def read_joint_summary(path) -> JointMomentSummary:
    """Read a summary written by :func:`write_joint_summary`.  A file with
    unknown, missing or unconvertible fields raises InvalidSpec."""
    doc = _read_json_object(path, "summary")
    try:
        return JointMomentSummary(**doc)
    except (TypeError, ValueError) as err:
        raise InvalidSpec(f"summary {path} is malformed: {err}") from None


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
