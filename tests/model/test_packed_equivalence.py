"""Packed observation backend vs the dense oracle: equivalence properties.

The bit-packed ``uint64`` backend is the production storage; the frozen
dense boolean store (``tests/model/dense_backend.py``) is the executable
specification. These tests check that
every frequency query agrees between the two across randomized observation
matrices (including horizons that are not a multiple of 64, all-good and
all-congested extremes), that interval slicing agrees at arbitrary (word-
aligned and unaligned) offsets, and that every estimator produces
*identical* fitted probabilities (to 1e-9) regardless of backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.model.packed import WORD_BITS, PackedBackend, pack_bool_matrix, unpack_words
from repro.model.status import ObservationMatrix
from repro.probability.base import EstimatorConfig
from repro.probability.correlation_complete import CorrelationCompleteEstimator
from repro.probability.correlation_heuristic import CorrelationHeuristicEstimator
from repro.probability.independence import IndependenceEstimator
from repro.simulation.congestion import CongestionModel, Driver
from repro.simulation.experiment import run_experiment
from repro.simulation.probing import oracle_path_status
from repro.simulation.scenarios import ScenarioConfig, ScenarioKind, build_scenario
from tests.model.dense_backend import dense_observations


def _random_matrices(seed: int, trials: int):
    """Randomized (T, paths) boolean matrices with deliberate edge cases."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        num_intervals = int(rng.integers(1, 400))
        num_paths = int(rng.integers(1, 30))
        kind = trial % 5
        if kind == 0:
            matrix = np.zeros((num_intervals, num_paths), dtype=bool)
        elif kind == 1:
            matrix = np.ones((num_intervals, num_paths), dtype=bool)
        elif kind == 2:
            # Horizon precisely off a word boundary.
            num_intervals = int(rng.integers(1, 7)) * WORD_BITS + int(
                rng.integers(1, WORD_BITS)
            )
            matrix = rng.random((num_intervals, num_paths)) < rng.random()
        else:
            matrix = rng.random((num_intervals, num_paths)) < rng.random()
        yield matrix


def _random_path_sets(rng, num_paths, count=12):
    sets = [[]]
    for _ in range(count):
        size = int(rng.integers(1, min(num_paths, 6) + 1))
        sets.append(sorted(rng.choice(num_paths, size=size, replace=False).tolist()))
    return sets


def test_pack_roundtrip_exact():
    rng = np.random.default_rng(0)
    for matrix in _random_matrices(seed=1, trials=40):
        words = pack_bool_matrix(matrix)
        assert words.dtype == np.uint64
        assert np.array_equal(unpack_words(words, matrix.shape[0]), matrix)


def test_query_equivalence_randomized():
    rng = np.random.default_rng(2)
    for matrix in _random_matrices(seed=3, trials=60):
        packed = ObservationMatrix(matrix)
        dense = dense_observations(matrix)
        assert isinstance(packed._backend, PackedBackend)
        sets = _random_path_sets(rng, matrix.shape[1])
        np.testing.assert_allclose(
            packed.all_good_frequencies(sets),
            dense.all_good_frequencies(sets),
            rtol=0,
            atol=0,
        )
        for path_set in sets:
            assert packed.all_good_frequency(path_set) == dense.all_good_frequency(
                path_set
            )
        np.testing.assert_allclose(
            packed.path_congestion_frequency(),
            dense.path_congestion_frequency(),
            rtol=0,
            atol=0,
        )
        for tolerance in (0.0, 0.15):
            assert packed.always_good_paths(tolerance) == dense.always_good_paths(
                tolerance
            )
            assert packed.always_congested_paths(
                tolerance
            ) == dense.always_congested_paths(tolerance)
        interval = int(rng.integers(matrix.shape[0]))
        assert packed.congested_paths(interval) == dense.congested_paths(interval)


def test_slice_equivalence_aligned_and_unaligned():
    rng = np.random.default_rng(4)
    matrix = rng.random((500, 17)) < 0.3
    packed = ObservationMatrix(matrix)
    dense = dense_observations(matrix)
    windows = [(0, 64), (64, 192), (0, 500), (3, 130), (65, 100), (499, 500), (100, 100)]
    windows += [tuple(sorted(rng.integers(0, 501, size=2).tolist())) for _ in range(20)]
    for start, stop in windows:
        packed_window = packed.slice_intervals(start, stop)
        dense_window = dense.slice_intervals(start, stop)
        assert packed_window.num_intervals == stop - start
        if stop > start:
            assert np.array_equal(packed_window.matrix, matrix[start:stop])
            assert np.array_equal(dense_window.matrix, matrix[start:stop])
            sets = _random_path_sets(rng, matrix.shape[1], count=6)
            np.testing.assert_allclose(
                packed_window.all_good_frequencies(sets),
                dense_window.all_good_frequencies(sets),
                rtol=0,
                atol=0,
            )


def test_slice_out_of_range_rejected():
    obs = ObservationMatrix(np.zeros((10, 2), dtype=bool))
    with pytest.raises(IndexError):
        obs.slice_intervals(-1, 5)
    with pytest.raises(IndexError):
        obs.slice_intervals(0, 11)


def test_padding_bits_never_leak():
    # All-congested with T one past a word boundary: the 63 padding bits
    # must not count as good intervals.
    matrix = np.ones((WORD_BITS + 1, 3), dtype=bool)
    packed = ObservationMatrix(matrix)
    assert packed.all_good_frequency([0]) == 0.0
    assert packed.always_congested_paths() == frozenset({0, 1, 2})


def _dense_copy(observations: ObservationMatrix) -> ObservationMatrix:
    return dense_observations(observations.matrix)


@pytest.fixture(scope="module")
def fig_scenario_observations(request):
    """A Fig. 3/4-style simulated experiment on the toy topology."""
    from repro.topology.builders import fig1_topology

    network = fig1_topology(case=1)
    truth = CongestionModel(
        4,
        [
            Driver(probability=0.3, links=frozenset({1, 2})),
            Driver(probability=0.2, links=frozenset({0})),
        ],
    )
    states = truth.sample(3000, np.random.default_rng(11))
    return network, oracle_path_status(network, states)


@pytest.mark.parametrize(
    "estimator_factory",
    [
        lambda: IndependenceEstimator(EstimatorConfig(pruning_tolerance=0.0)),
        lambda: CorrelationHeuristicEstimator(EstimatorConfig(pruning_tolerance=0.0)),
        lambda: CorrelationCompleteEstimator(EstimatorConfig(pruning_tolerance=0.0)),
    ],
    ids=["independence", "heuristic", "complete"],
)
def test_estimator_outputs_identical_across_backends(
    fig_scenario_observations, estimator_factory
):
    network, observations = fig_scenario_observations
    packed_model = estimator_factory().fit(network, observations)
    dense_model = estimator_factory().fit(network, _dense_copy(observations))
    assert set(packed_model.subsets) == set(dense_model.subsets)
    for subset in packed_model.subsets:
        assert packed_model.prob_all_good(subset) == pytest.approx(
            dense_model.prob_all_good(subset), abs=1e-9
        )
        assert packed_model.is_identifiable(subset) == dense_model.is_identifiable(
            subset
        )
    for link in range(network.num_links):
        assert packed_model.link_congestion_probability(link) == pytest.approx(
            dense_model.link_congestion_probability(link), abs=1e-9
        )


def test_estimator_outputs_identical_on_simulated_scenario():
    """Backend equivalence on a generated Brite scenario with noisy probing."""
    from repro.topology.brite import BriteConfig, generate_brite_network

    network = generate_brite_network(
        BriteConfig(
            num_ases=8,
            as_attachment=2,
            routers_per_as=3,
            inter_as_links=2,
            num_vantage_points=2,
            num_destinations=20,
            num_paths=40,
        ),
        13,
    )
    scenario = build_scenario(network, ScenarioConfig(kind=ScenarioKind.RANDOM), 17)
    experiment = run_experiment(scenario, 400, random_state=19)
    assert isinstance(experiment.observations._backend, PackedBackend)
    for estimator_factory in (
        lambda: IndependenceEstimator(EstimatorConfig(seed=3)),
        lambda: CorrelationCompleteEstimator(EstimatorConfig(seed=3)),
    ):
        packed_model = estimator_factory().fit(network, experiment.observations)
        dense_model = estimator_factory().fit(
            network, _dense_copy(experiment.observations)
        )
        packed_marginals = packed_model.link_marginals()
        dense_marginals = dense_model.link_marginals()
        np.testing.assert_allclose(packed_marginals, dense_marginals, rtol=0, atol=1e-9)


def test_frequency_cache_counters_and_bound():
    from repro.probability.base import FrequencyCache

    rng = np.random.default_rng(23)
    obs = ObservationMatrix(rng.random((200, 10)) < 0.3)
    cache = FrequencyCache(obs, max_entries=4)
    sets = [[0], [1], [2], [0, 1]]
    cache.query_many(sets)
    assert cache.misses == 4
    assert cache.hits == 0
    cache.query_many(sets)
    assert cache.hits == 4
    # Exceeding the bound evicts FIFO instead of growing without limit.
    cache([3])
    cache([4])
    assert cache.evictions == 2
    assert cache.hits == 4
    # The evicted oldest entry recomputes (a miss), fresh ones hit.
    cache([0])
    assert cache.misses == 7


def test_fit_report_exposes_cache_counters(fig_scenario_observations):
    network, observations = fig_scenario_observations
    model = CorrelationCompleteEstimator(
        EstimatorConfig(pruning_tolerance=0.0)
    ).fit(network, observations)
    report = model.report
    assert report.frequency_cache_misses > 0
    assert report.frequency_cache_hits > 0
