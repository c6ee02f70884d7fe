"""Estimator behaviour on generated topologies (integration-level)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import EstimationError
from repro.metrics.probability import evaluate_estimator
from repro.model.status import ObservationMatrix
from repro.probability.base import EstimatorConfig
from repro.probability.correlation_complete import CorrelationCompleteEstimator
from repro.probability.correlation_heuristic import CorrelationHeuristicEstimator
from repro.probability.independence import IndependenceEstimator
from repro.simulation.experiment import run_experiment
from repro.simulation.scenarios import ScenarioConfig, ScenarioKind, build_scenario

ALL_ESTIMATORS = [
    CorrelationCompleteEstimator,
    IndependenceEstimator,
    CorrelationHeuristicEstimator,
]


@pytest.fixture(scope="module")
def brite_experiment(small_brite):
    scenario = build_scenario(small_brite, ScenarioConfig(kind=ScenarioKind.RANDOM), 1)
    return run_experiment(scenario, 500, random_state=2, oracle=True)


@pytest.mark.parametrize("estimator_cls", ALL_ESTIMATORS)
def test_estimators_produce_valid_probabilities(estimator_cls, small_brite, brite_experiment):
    estimator = estimator_cls(EstimatorConfig(seed=3))
    model = estimator.fit(small_brite, brite_experiment.observations)
    marginals = model.link_marginals()
    assert marginals.shape == (small_brite.num_links,)
    assert (marginals >= 0.0).all()
    assert (marginals <= 1.0).all()


@pytest.mark.parametrize("estimator_cls", ALL_ESTIMATORS)
def test_estimators_reasonably_accurate_oracle(estimator_cls, brite_experiment):
    estimator = estimator_cls(EstimatorConfig(seed=3))
    metrics = evaluate_estimator(estimator, brite_experiment)
    assert metrics.mean_absolute_error < 0.15


def test_correlation_complete_accurate_on_identifiable(brite_experiment, small_brite):
    estimator = CorrelationCompleteEstimator(EstimatorConfig(seed=3))
    model = estimator.fit(small_brite, brite_experiment.observations)
    truth = brite_experiment.ground_truth
    errors = [
        abs(model.link_congestion_probability(e) - truth.marginal(e))
        for e in range(small_brite.num_links)
        if model.is_identifiable([e])
    ]
    assert errors, "no identifiable links at all?"
    # Identifiable links are estimated to sampling accuracy (T = 500).
    assert float(np.mean(errors)) < 0.05


def test_always_congested_paths_rejected():
    # Every path congested in every interval: no usable equation.
    from repro.topology.builders import fig1_topology

    network = fig1_topology(1)
    observations = ObservationMatrix(np.ones((50, 3), dtype=bool))
    with pytest.raises(EstimationError):
        CorrelationCompleteEstimator(
            EstimatorConfig(pruning_tolerance=0.0)
        ).fit(network, observations)
    with pytest.raises(EstimationError):
        IndependenceEstimator(EstimatorConfig(pruning_tolerance=0.0)).fit(
            network, observations
        )


def test_all_good_observations_yield_empty_model():
    from repro.topology.builders import fig1_topology

    network = fig1_topology(1)
    observations = ObservationMatrix(np.zeros((50, 3), dtype=bool))
    model = CorrelationCompleteEstimator().fit(network, observations)
    assert model.link_marginals().tolist() == [0.0] * 4
    assert model.always_good_links == frozenset({0, 1, 2, 3})


def test_config_validation():
    with pytest.raises(EstimationError):
        EstimatorConfig(requested_subset_size=0).validate()
    with pytest.raises(EstimationError):
        EstimatorConfig(hard_subset_cap=1, requested_subset_size=2).validate()
    with pytest.raises(EstimationError):
        EstimatorConfig(min_frequency=1.0).validate()
    with pytest.raises(EstimationError):
        EstimatorConfig(prior_mode="bogus").validate()
    with pytest.raises(EstimationError):
        EstimatorConfig(pruning_tolerance=-0.1).validate()


@pytest.mark.parametrize("prior_weight", [float("nan"), float("inf"), -1.0])
def test_config_rejects_bad_prior_weight(prior_weight):
    with pytest.raises(EstimationError, match="prior_weight"):
        EstimatorConfig(prior_weight=prior_weight).validate()


def test_config_accepts_zero_prior_weight():
    """``prior_weight=0`` is the documented way to switch priors off."""
    EstimatorConfig(prior_weight=0.0).validate()


def test_config_not_shared_between_estimators():
    config = EstimatorConfig(weighted=True)
    heuristic = CorrelationHeuristicEstimator(config)
    complete = CorrelationCompleteEstimator(config)
    assert heuristic.config.weighted is False
    assert complete.config.weighted is True
    assert config.weighted is True


def test_heuristic_uses_more_equations_than_complete(small_brite, brite_experiment):
    config = EstimatorConfig(seed=3)
    complete = CorrelationCompleteEstimator(config).fit(
        small_brite, brite_experiment.observations
    )
    heuristic = CorrelationHeuristicEstimator(config).fit(
        small_brite, brite_experiment.observations
    )
    # The paper: the heuristic "creates a significantly larger number of
    # equations than ours".
    assert heuristic.report.num_equations > complete.report.rank


def test_requested_subset_size_controls_unknowns(small_brite, brite_experiment):
    small = CorrelationCompleteEstimator(
        EstimatorConfig(requested_subset_size=1, seed=3)
    ).fit(small_brite, brite_experiment.observations)
    large = CorrelationCompleteEstimator(
        EstimatorConfig(requested_subset_size=3, seed=3)
    ).fit(small_brite, brite_experiment.observations)
    assert large.report.num_unknowns >= small.report.num_unknowns


def test_estimator_determinism(small_brite, brite_experiment):
    a = CorrelationCompleteEstimator(EstimatorConfig(seed=5)).fit(
        small_brite, brite_experiment.observations
    )
    b = CorrelationCompleteEstimator(EstimatorConfig(seed=5)).fit(
        small_brite, brite_experiment.observations
    )
    assert np.allclose(a.link_marginals(), b.link_marginals())
