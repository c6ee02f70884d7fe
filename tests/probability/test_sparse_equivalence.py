"""Estimator-level equivalence of the entry-run solve and the dense oracle.

Equations are always stored as ``(column, value)`` entry runs. Every
estimator must produce the *same* model — exact estimate floats,
identifiability flags, rank, residual, selected path sets — as the same
fit solved by the frozen dense-row solve (``tests/linalg/dense_oracle.py``,
patched over :meth:`EquationSystem.solve`), on cold fits and through a
shared workspace, on both the Brite and the sparse topology. The
``EstimatorConfig.sparse`` field is accepted and selects nothing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.scaling_topology import dense_equation_bytes
from repro.linalg.system import EquationSystem
from repro.probability.base import EstimatorConfig
from repro.probability.pipeline import SharedFitWorkspace
from repro.probability.registry import make_estimator
from repro.simulation.experiment import run_experiment
from repro.simulation.probing import PathProber
from repro.simulation.scenarios import ScenarioConfig, ScenarioKind, build_scenario
from tests.linalg.dense_oracle import dense_oracle_solve

ESTIMATORS = [
    "Independence",
    "Correlation-heuristic",
    "Correlation-complete",
    "Correlation-complete (no redundancy)",
]


def _observations(network, kind):
    scenario = build_scenario(network, ScenarioConfig(kind=kind), 11)
    experiment = run_experiment(
        scenario, 400, prober=PathProber(num_packets=40), random_state=12
    )
    return experiment.observations


@pytest.fixture(scope="module")
def brite_case(small_brite):
    return small_brite, _observations(small_brite, ScenarioKind.NO_INDEPENDENCE)


@pytest.fixture(scope="module")
def sparse_case(small_sparse):
    return small_sparse, _observations(small_sparse, ScenarioKind.RANDOM)


def _oracle_fit(monkeypatch, name, config, network, observations):
    """The fit the retired dense storage mode produced."""
    with monkeypatch.context() as patch:
        patch.setattr(EquationSystem, "solve", dense_oracle_solve)
        return make_estimator(name, config).fit(network, observations)


def _assert_fits_identical(actual, expected):
    assert actual._good == expected._good  # exact float equality
    assert actual._identifiable == expected._identifiable
    assert actual.always_good_links == expected.always_good_links
    report, golden = actual.report, expected.report
    assert report.num_unknowns == golden.num_unknowns
    assert report.num_equations == golden.num_equations
    assert report.rank == golden.rank
    assert report.num_identifiable == golden.num_identifiable
    assert report.residual == golden.residual
    assert report.path_sets == golden.path_sets
    assert np.array_equal(actual.link_marginals(), expected.link_marginals())


def _assert_matches_oracle(monkeypatch, name, subset_size, network, observations):
    """Both flag values fit exactly what the dense oracle solve fits."""
    expected = _oracle_fit(
        monkeypatch,
        name,
        EstimatorConfig(requested_subset_size=subset_size, seed=3),
        network,
        observations,
    )
    for sparse in (False, True):
        config = EstimatorConfig(
            requested_subset_size=subset_size, sparse=sparse, seed=3
        )
        actual = make_estimator(name, config).fit(network, observations)
        _assert_fits_identical(actual, expected)
    # Entry runs are strictly lighter than the same rows stored dense.
    report = actual.report
    if report.num_equations:
        assert report.equation_storage_bytes < dense_equation_bytes(
            report.num_equations, report.num_unknowns
        )


@pytest.mark.parametrize("name", ESTIMATORS)
@pytest.mark.parametrize("subset_size", [1, 2])
def test_sparse_flag_is_bit_identical(name, subset_size, brite_case, monkeypatch):
    _assert_matches_oracle(monkeypatch, name, subset_size, *brite_case)


@pytest.mark.parametrize("name", ESTIMATORS)
@pytest.mark.parametrize("subset_size", [1, 2])
def test_sparse_topology_fits_match_dense_oracle(
    name, subset_size, sparse_case, monkeypatch
):
    _assert_matches_oracle(monkeypatch, name, subset_size, *sparse_case)


@pytest.mark.parametrize("name", ESTIMATORS)
def test_sparse_through_shared_workspace(name, brite_case, monkeypatch):
    """Fits through one shared workspace match cold dense-oracle fits."""
    network, observations = brite_case
    config = EstimatorConfig(seed=3)
    expected = _oracle_fit(monkeypatch, name, config, network, observations)
    workspace = SharedFitWorkspace(observations)
    # Pre-warm the arena with another estimator's system.
    make_estimator("Independence", config).fit(
        network, observations, workspace=workspace
    )
    actual = make_estimator(name, config).fit(
        network, observations, workspace=workspace
    )
    _assert_fits_identical(actual, expected)
