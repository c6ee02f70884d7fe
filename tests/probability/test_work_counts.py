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

It also pins Algorithm 1's rank scan to one test per candidate path set:
a candidate the scan rejected never reaches ``SubsetIndex.rows_matrix``
again in the same fit.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.probability.base import EstimatorConfig
from repro.probability.registry import make_estimator
from repro.probability.subsets import SubsetIndex
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


@pytest.mark.parametrize(
    "name", ["Correlation-complete", "Correlation-complete (no redundancy)"]
)
@pytest.mark.parametrize("subset_size", [1, 2])
def test_rank_scan_tests_each_path_set_once(name, subset_size, brite_case, monkeypatch):
    network, observations = brite_case
    estimator = make_estimator(
        name, EstimatorConfig(requested_subset_size=subset_size, seed=3)
    )
    blocks = []
    original = SubsetIndex.rows_matrix

    def recording(index, path_sets):
        blocks.append([frozenset(path_set) for path_set in path_sets])
        return original(index, path_sets)

    monkeypatch.setattr(SubsetIndex, "rows_matrix", recording)
    model = estimator.fit(network, observations)
    chosen = set(model.report.path_sets)
    tested = Counter()
    for block in blocks:
        # A block's candidates are tested in order up to its admitted one;
        # the batch also built rows for the candidates behind it, but the
        # scan stopped before testing them.
        admitted = [i for i, path_set in enumerate(block) if path_set in chosen]
        tested.update(block[: admitted[0] + 1] if admitted else block)
    assert tested
    assert [path_set for path_set, count in tested.items() if count > 1] == []
