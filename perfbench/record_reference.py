"""Record the reference fits the benchmark checks its outputs against.

Run from the repository root, only when a change is meant to move the
fitted numbers beyond round-off::

    PYTHONPATH=src python3 perfbench/record_reference.py

It fits every fixture at the full and the smoke size with ``fit_model`` and
writes ``weights``, ``mutilde``, ``sigma`` and ``gamma`` to
``perfbench/reference.json`` with ten significant digits.
"""

from __future__ import annotations

import json
import logging

from sgcinla.engine import fit_model

from workloads import (
    REFERENCE_PATH,
    SIZES,
    SMOKE_SIZES,
    bernoulli_spec,
    poisson_spec,
    reference_key,
    refined_components,
)


def _rounded(values) -> list:
    return [float(f"{v:.10g}") for v in values]


def main() -> None:
    logging.getLogger("sgcinla").setLevel(logging.ERROR)
    fixtures = set()
    for sizes in (SIZES, SMOKE_SIZES):
        fixtures.add(("poisson", sizes["fit-61"].groups, None))
        fixtures.add(("bernoulli", sizes["fit-61"].groups, None))
        fixtures.add(("poisson", sizes["draws-61"].groups, None))
        scale = sizes["scale-241"]
        fixtures.add(("poisson", scale.groups, scale.refined_groups))
    reference = {}
    for family, groups, refined in sorted(fixtures, key=str):
        spec = (poisson_spec if family == "poisson" else bernoulli_spec)(groups)
        fit = fit_model(spec, components=refined_components(spec, refined))
        reference[reference_key(family, groups, refined)] = {
            "weights": _rounded(fit.weights),
            "mutilde": [_rounded(row) for row in fit.mutilde],
            "sigma": [_rounded(row) for row in fit.sigma],
            "gamma": [_rounded(row) for row in fit.gamma],
        }
        print(f"recorded {reference_key(family, groups, refined)}: K={fit.n_config}")
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
