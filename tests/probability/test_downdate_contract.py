"""Numerical contract of the Householder downdate and the basis pass-through.

Correlation-complete shrinks Algorithm 1's null-space basis with one
Householder reflection per admitted row and hands the final basis to
:meth:`EquationSystem.solve`, which classifies identifiability from it.
The frozen route (``tests/linalg/nullspace_oracle.py``) re-orthonormalises
the basis with a QR after every row and lets the solve re-derive the null
space with a full QR + SVD. Both bases span the same subspaces, but their
entries differ, so ``SortByHammingWeight`` can visit subsets in another
order. The contract is therefore:

* the same *set* of chosen path sets (the visit order may differ);
* identical rank and identifiability masks;
* identifiable estimates and the residual within 1e-12.

Unidentifiable unknowns are deliberately not compared: reordered equations
let NNLS pick another point of the same minimiser set.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.linalg.nullspace import DEFAULT_TOL
from repro.linalg.system import EquationSystem
from repro.probability import correlation_complete
from repro.probability.base import EstimatorConfig
from repro.probability.registry import make_estimator
from repro.probability.windowed import WindowedEstimator
from repro.simulation.experiment import run_experiment
from repro.simulation.probing import PathProber
from repro.simulation.scenarios import ScenarioConfig, ScenarioKind, build_scenario
from tests.linalg import nullspace_oracle

VARIANTS = ["Correlation-complete", "Correlation-complete (no redundancy)"]

#: Absolute agreement of identifiable estimates and residuals.
CONTRACT_TOL = 1e-12


def _observations(network, kind, horizon=400):
    scenario = build_scenario(network, ScenarioConfig(kind=kind), 11)
    experiment = run_experiment(
        scenario, horizon, prober=PathProber(num_packets=40), random_state=12
    )
    return experiment.observations


@pytest.fixture(scope="module")
def brite_case(small_brite):
    return small_brite, _observations(small_brite, ScenarioKind.NO_INDEPENDENCE)


@pytest.fixture(scope="module")
def sparse_case(small_sparse):
    return small_sparse, _observations(small_sparse, ScenarioKind.RANDOM)


def _oracle_route(patch):
    """Frozen QR update in Algorithm 2; the solve gets no basis."""
    production_solve = EquationSystem.solve

    def solve_without_basis(
        system, tol=DEFAULT_TOL, upper_bound=None, null_basis=None
    ):
        return production_solve(system, tol, upper_bound)

    patch.setattr(
        correlation_complete, "null_space_update", nullspace_oracle.null_space_update
    )
    patch.setattr(EquationSystem, "solve", solve_without_basis)


def assert_contract(actual, expected):
    """``actual`` (production) meets the contract against ``expected``."""
    report, golden = actual.report, expected.report
    assert set(report.path_sets) == set(golden.path_sets)
    assert len(report.path_sets) == len(golden.path_sets)
    assert report.num_unknowns == golden.num_unknowns
    assert report.num_equations == golden.num_equations
    assert report.rank == golden.rank
    assert report.num_identifiable == golden.num_identifiable
    assert actual._identifiable == expected._identifiable
    assert report.residual == pytest.approx(golden.residual, rel=0, abs=CONTRACT_TOL)
    for subset, identifiable in expected._identifiable.items():
        if identifiable:
            assert actual._good[subset] == pytest.approx(
                expected._good[subset], rel=0, abs=CONTRACT_TOL
            )
    assert actual.always_good_links == expected.always_good_links


def _fit_both(monkeypatch, name, config, network, observations):
    actual = make_estimator(name, config).fit(network, observations)
    with monkeypatch.context() as patch:
        _oracle_route(patch)
        expected = make_estimator(name, config).fit(network, observations)
    return actual, expected


@pytest.mark.parametrize("name", VARIANTS)
@pytest.mark.parametrize("subset_size", [1, 2])
@pytest.mark.parametrize("case", ["brite_case", "sparse_case"])
def test_fit_meets_contract_against_frozen_route(
    name, subset_size, case, request, monkeypatch
):
    network, observations = request.getfixturevalue(case)
    config = EstimatorConfig(requested_subset_size=subset_size, seed=3)
    actual, expected = _fit_both(monkeypatch, name, config, network, observations)
    assert actual.report.num_unknowns > 0
    assert_contract(actual, expected)


@pytest.mark.parametrize("name", VARIANTS)
def test_windowed_stream_meets_contract(name, small_brite, monkeypatch):
    observations = _observations(small_brite, ScenarioKind.NO_INDEPENDENCE, 600)
    estimator = make_estimator(name, EstimatorConfig(seed=3))
    windowed = WindowedEstimator(estimator, window=200, stride=100)
    actual = windowed.fit(small_brite, observations)
    with monkeypatch.context() as patch:
        _oracle_route(patch)
        expected = windowed.fit(small_brite, observations)
    assert len(actual.windows) == len(expected.windows) == 5
    for mine, frozen in zip(actual.windows, expected.windows):
        assert (mine.start, mine.stop) == (frozen.start, frozen.stop)
        assert_contract(mine.model, frozen.model)


def test_frozen_route_really_differs_in_basis():
    """Guard against a vacuous contract: the two updates give different
    bases (so the visit order can differ) spanning the same subspace."""
    rng = np.random.default_rng(0)
    basis = np.linalg.qr(rng.standard_normal((30, 12)))[0]
    row = rng.standard_normal(30)
    mine = correlation_complete.null_space_update(basis, row)
    frozen = nullspace_oracle.null_space_update(basis, row)
    assert mine.shape == frozen.shape == (30, 11)
    assert not np.allclose(mine, frozen)
    assert np.allclose(mine @ mine.T, frozen @ frozen.T, atol=1e-12)
