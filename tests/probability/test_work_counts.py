"""Work-count gate: exact LAPACK factorizations per fit.

Wall-clock on shared runners cannot tell a regression from a busy host,
but the number of ``np.linalg.qr`` / ``np.linalg.svd`` calls a fit makes
is deterministic. This file pins them on the small Brite fixture:

* Correlation-complete: one SVD (the initial null space of Algorithm 1)
  and one QR (compressing the least-squares stack). Algorithm 2's
  Householder downdates factorize nothing, and the solve classifies
  identifiability from Algorithm 1's basis, so no full-width QR + SVD runs
  for it (on this fixture every redundancy row lies in the span, so not
  even the small projection is factorized).
* Independence and Correlation-heuristic get no basis: two QRs (the
  least-squares compression and the data rows' triangle) and one SVD of
  that triangle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.probability.base import EstimatorConfig
from repro.probability.registry import make_estimator
from repro.simulation.experiment import run_experiment
from repro.simulation.probing import PathProber
from repro.simulation.scenarios import ScenarioConfig, ScenarioKind, build_scenario

#: Factorizations per fit, in call order, with the input's column count
#: as ``"n"`` (the number of unknowns) or ``"<n"`` (narrower).
EXPECTED_CALLS = {
    "Independence": [("qr", "n"), ("qr", "n"), ("svd", "n")],
    "Correlation-heuristic": [("qr", "n"), ("qr", "n"), ("svd", "n")],
    "Correlation-complete": [("svd", "n"), ("qr", "n")],
    "Correlation-complete (no redundancy)": [("svd", "n"), ("qr", "n")],
}


@pytest.fixture(scope="module")
def brite_case(small_brite):
    scenario = build_scenario(
        small_brite, ScenarioConfig(kind=ScenarioKind.NO_INDEPENDENCE), 11
    )
    experiment = run_experiment(
        scenario, 400, prober=PathProber(num_packets=40), random_state=12
    )
    return small_brite, experiment.observations


def _recording(calls, kind, original):
    def wrapper(matrix, *args, **kwargs):
        calls.append((kind, np.shape(matrix)))
        return original(matrix, *args, **kwargs)

    return wrapper


@pytest.mark.parametrize("name", sorted(EXPECTED_CALLS))
@pytest.mark.parametrize("subset_size", [1, 2])
def test_factorizations_per_fit(name, subset_size, brite_case, monkeypatch):
    network, observations = brite_case
    estimator = make_estimator(
        name, EstimatorConfig(requested_subset_size=subset_size, seed=3)
    )
    calls = []
    monkeypatch.setattr(np.linalg, "qr", _recording(calls, "qr", np.linalg.qr))
    monkeypatch.setattr(np.linalg, "svd", _recording(calls, "svd", np.linalg.svd))
    model = estimator.fit(network, observations)
    width = model.report.num_unknowns
    assert width > 0
    observed = [(kind, "n" if shape[1] == width else "<n") for kind, shape in calls]
    assert observed == EXPECTED_CALLS[name]
