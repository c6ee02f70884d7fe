"""Golden suite: pipeline-based fits are bit-identical to the pre-refactor
monolithic estimators.

The three frozen reference implementations below are verbatim copies of the
estimators' ``fit()`` bodies as they existed before the staged-pipeline
refactor (one monolithic method per algorithm, cold cache per fit). They
solve through the frozen dense-row equation system of
``tests/linalg/dense_oracle.py``, so every comparison here also checks the
production entry-run solve against the dense one. Every pipeline fit must
reproduce their models *and* reports exactly — same estimate floats, same
identifiability, same path-set selection, same cache misses, and the same
cache hits except for Correlation-complete, whose rank scan never re-tests
a rejected candidate (fewer or equal hits) — on both
the packed backend and the frozen dense observation store of
``tests/model/dense_backend.py``, and on the sparse topology too; and a fit
through a shared :class:`~repro.probability.pipeline.SharedFitWorkspace`
must equal the cold-cache fit bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import EstimationError
from repro.linalg.nullspace import DEFAULT_TOL, null_space, null_space_update
from repro.model.status import ObservationMatrix
from repro.probability.base import (
    EstimatorConfig,
    FitReport,
    FrequencyCache,
    log_frequency_weights,
    shared_sampled_pool,
    singleton_path_sets,
)
from repro.probability.correlation_complete import (
    CorrelationCompleteEstimator,
    CorrelationCompleteNoRedundancy,
)
from repro.probability.correlation_heuristic import CorrelationHeuristicEstimator
from repro.probability.independence import IndependenceEstimator
from repro.probability.pipeline import SharedFitWorkspace
from repro.probability.query import CongestionProbabilityModel
from repro.probability.subsets import SubsetIndex, potentially_congested_links
from repro.simulation.experiment import run_experiment
from repro.simulation.probing import PathProber
from repro.simulation.scenarios import ScenarioConfig, ScenarioKind, build_scenario
from repro.util.subsets import bounded_subsets
from tests.linalg.dense_oracle import DenseEquationSystem
from tests.model.dense_backend import dense_observations


# ----------------------------------------------------------------------
# Frozen pre-refactor reference implementations
# ----------------------------------------------------------------------
def _attach(model, report):
    model.report = report
    return model


def legacy_independence_fit(config, network, observations, weighted=False):
    """The pre-refactor ``IndependenceEstimator.fit`` body."""
    config = EstimatorConfig(**{**config.__dict__})
    config.weighted = weighted
    active = sorted(
        potentially_congested_links(network, observations, config.pruning_tolerance)
    )
    always_good = frozenset(range(network.num_links)) - frozenset(active)
    frequency = FrequencyCache(observations)
    if not active:
        model = CongestionProbabilityModel(
            network, {}, {}, always_good_links=always_good, independent=True
        )
        return _attach(model, FitReport())

    path_sets = list(singleton_path_sets(observations))
    path_sets.extend(
        shared_sampled_pool(
            network,
            observations,
            count=config.pair_sample,
            max_size=config.path_set_max_size,
            seed=config.seed,
        )
    )
    frequencies = frequency.query_many(path_sets)
    incidence = network.incidence[:, active]
    coverage = np.zeros((len(path_sets), len(active)), dtype=bool)
    for i, path_set in enumerate(path_sets):
        coverage[i] = incidence[list(path_set)].any(axis=0)
    usable = (frequencies > config.min_frequency) & coverage.any(axis=1)
    if not usable.any():
        raise EstimationError("Independence: no usable path-set equations")
    rows = coverage[usable].astype(float)
    freqs = frequencies[usable]
    weights = (
        log_frequency_weights(freqs, frequency.num_intervals)
        if config.weighted
        else np.ones(len(freqs))
    )
    system = DenseEquationSystem(len(active))
    system.add_batch(rows, np.log(freqs), weights)
    used = [frozenset(ps) for ps, keep in zip(path_sets, usable) if keep]
    solution = system.solve(upper_bound=0.0)
    good = np.exp(np.minimum(solution.values, 0.0))
    estimates, identifiable = {}, {}
    for i, link in enumerate(active):
        estimates[frozenset({link})] = float(good[i])
        identifiable[frozenset({link})] = bool(solution.identifiable[i])
    model = CongestionProbabilityModel(
        network, estimates, identifiable,
        always_good_links=always_good, independent=True,
    )
    report = FitReport(
        num_unknowns=len(active),
        num_equations=len(system),
        rank=solution.rank,
        num_identifiable=int(solution.identifiable.sum()),
        residual=solution.residual,
        path_sets=used,
        frequency_cache_hits=frequency.hits,
        frequency_cache_misses=frequency.misses,
    )
    return _attach(model, report)


def legacy_heuristic_fit(config, network, observations):
    """The pre-refactor ``CorrelationHeuristicEstimator.fit`` body."""
    config = EstimatorConfig(**{**config.__dict__})
    config.weighted = False
    active = potentially_congested_links(
        network, observations, config.pruning_tolerance
    )
    always_good = frozenset(range(network.num_links)) - active
    frequency = FrequencyCache(observations)
    if not active:
        model = CongestionProbabilityModel(
            network, {}, {}, always_good_links=always_good
        )
        return _attach(model, FitReport())

    pool = list(singleton_path_sets(observations))
    pool.extend(
        shared_sampled_pool(
            network,
            observations,
            count=config.pair_sample * 3,
            max_size=config.path_set_max_size + 2,
            seed=config.seed,
        )
    )
    active_sets = [
        frozenset(c & active) for c in network.correlation_sets if c & active
    ]
    for members in active_sets:
        for link in sorted(members):
            selector = network.paths_covering([link]) - network.paths_covering(
                members - {link}
            )
            if selector:
                pool.append(frozenset(selector))
    index = SubsetIndex.build(
        network, active, pool,
        requested_subset_size=1,
        hard_subset_cap=config.hard_subset_cap + 2,
    )
    deduped = list(dict.fromkeys(pool))
    frequencies = frequency.query_many(deduped)
    frequent = frequencies > config.min_frequency
    candidates = [s for s, keep in zip(deduped, frequent) if keep]
    rows, usable = index.rows_matrix(candidates)
    if rows.shape[0] == 0:
        raise EstimationError("Correlation-heuristic: no usable path-set equations")
    used = [s for s, keep in zip(candidates, usable) if keep]
    system = DenseEquationSystem(len(index))
    system.add_batch(rows, np.log(frequencies[frequent][usable]))
    solution = system.solve(upper_bound=0.0)
    good = np.exp(np.minimum(solution.values, 0.0))
    estimates, identifiable = {}, {}
    for i, subset in enumerate(index.subsets):
        estimates[subset] = float(good[i])
        identifiable[subset] = bool(solution.identifiable[i]) and len(subset) == 1
    model = CongestionProbabilityModel(
        network, estimates, identifiable, always_good_links=always_good
    )
    report = FitReport(
        num_unknowns=len(index),
        num_equations=len(system),
        rank=solution.rank,
        num_identifiable=int(solution.identifiable.sum()),
        residual=solution.residual,
        path_sets=used,
        frequency_cache_hits=frequency.hits,
        frequency_cache_misses=frequency.misses,
    )
    return _attach(model, report)


class LegacyCorrelationComplete:
    """The pre-refactor ``CorrelationCompleteEstimator`` (monolithic fit)."""

    def __init__(self, config, redundancy=True):
        self.config = EstimatorConfig(**{**config.__dict__})
        self.redundancy = redundancy

    def fit(self, network, observations):
        active = potentially_congested_links(
            network, observations, self.config.pruning_tolerance
        )
        frequency = FrequencyCache(observations)
        always_good = frozenset(range(network.num_links)) - active
        if not active:
            model = CongestionProbabilityModel(
                network, {}, {}, always_good_links=always_good
            )
            return _attach(model, FitReport())
        index, pool = self._build_index(network, observations, active)
        path_sets = self._select_path_sets(index, frequency)
        if not path_sets:
            raise EstimationError("no usable path-set equations")
        extra = (
            self._redundant_path_sets(index, frequency, pool, path_sets)
            if self.redundancy
            else []
        )
        return self._solve(network, index, path_sets, extra, frequency, always_good)

    def _build_index(self, network, observations, active):
        candidates = list(singleton_path_sets(observations))
        candidates.extend(
            shared_sampled_pool(
                network,
                observations,
                count=self.config.pair_sample,
                max_size=self.config.path_set_max_size,
                seed=self.config.seed,
            )
        )
        active_sets = [
            frozenset(c & active) for c in network.correlation_sets if c & active
        ]
        for members in active_sets:
            for link in sorted(members):
                selector = network.paths_covering([link]) - network.paths_covering(
                    members - {link}
                )
                if selector:
                    candidates.append(frozenset(selector))
        index = SubsetIndex.build(
            network, active, candidates,
            requested_subset_size=self.config.requested_subset_size,
            hard_subset_cap=self.config.hard_subset_cap,
        )
        return index, candidates

    def _usable_row(self, index, frequency, path_set):
        if not path_set:
            return None
        row = index.row(path_set)
        if row is None or not row.any():
            return None
        if frequency(path_set) <= self.config.min_frequency:
            return None
        return row

    def _select_path_sets(self, index, frequency):
        chosen, rows, seen = [], [], set()
        selectors = [
            frozenset(index.paths_selector(subset)) for subset in index.subsets
        ]
        frequency.prefetch([s for s in selectors if s])
        for path_set in selectors:
            if path_set in seen:
                continue
            row = self._usable_row(index, frequency, path_set)
            if row is None:
                continue
            seen.add(path_set)
            chosen.append(path_set)
            rows.append(row)
        matrix = (np.vstack(rows) if rows else np.zeros((0, len(index))))
        basis = null_space(matrix)
        while basis.shape[1] > 0:
            added = self._add_rank_increasing_row(index, frequency, basis, seen, chosen)
            if added is None:
                break
            basis = null_space_update(basis, added)
        return chosen

    def _add_rank_increasing_row(self, index, frequency, basis, seen, chosen):
        weights = np.count_nonzero(np.abs(basis) > 1e-12, axis=1)
        order = np.argsort(-weights, kind="stable")
        for position in order:
            if weights[position] == 0:
                break
            subset = index.subsets[int(position)]
            base = sorted(index.paths_selector(subset))
            if not base:
                continue
            combos = [
                frozenset(combo)
                for combo in bounded_subsets(
                    base,
                    max_size=self.config.path_set_max_size,
                    max_count=self.config.path_set_max_count,
                )
            ]
            fresh = [c for c in combos if c not in seen]
            chunk = 16
            for start in range(0, len(fresh), chunk):
                block = fresh[start : start + chunk]
                frequencies = frequency.query_many(block)
                rows, usable = index.rows_matrix(block)
                if rows.shape[0] == 0:
                    continue
                gains = np.linalg.norm(rows @ basis, axis=1)
                candidate_ok = frequencies[usable] > self.config.min_frequency
                candidates = [c for c, keep in zip(block, usable) if keep]
                for candidate, ok, gain, row in zip(
                    candidates, candidate_ok, gains, rows
                ):
                    if not ok or gain <= DEFAULT_TOL:
                        continue
                    seen.add(candidate)
                    chosen.append(candidate)
                    return row
        return None

    def _redundant_path_sets(self, index, frequency, pool, selected):
        seen = set(selected)
        fresh = [
            path_set
            for path_set in dict.fromkeys(pool)
            if path_set and path_set not in seen
        ]
        if not fresh:
            return []
        frequencies = frequency.query_many(fresh)
        _, usable = index.rows_matrix(fresh)
        keep = usable & (frequencies > self.config.min_frequency)
        return [path_set for path_set, ok in zip(fresh, keep) if ok]

    def _add_prior_equations(self, system, index):
        if self.config.prior_weight <= 0.0:
            return
        for subset in index.subsets:
            if len(subset) < 2:
                continue
            singleton_positions = []
            for link in subset:
                singleton = frozenset({link})
                if singleton not in index:
                    break
                singleton_positions.append(index.position(singleton))
            else:
                if self.config.prior_mode == "independence":
                    row = np.zeros(len(index))
                    row[index.position(subset)] = 1.0
                    row[singleton_positions] -= 1.0
                    system.add(row, 0.0, self.config.prior_weight, prior=True)
                else:
                    for position in singleton_positions:
                        row = np.zeros(len(index))
                        row[index.position(subset)] = 1.0
                        row[position] -= 1.0
                        system.add(row, 0.0, self.config.prior_weight, prior=True)

    def _solve(self, network, index, path_sets, extra, frequency, always_good):
        all_sets = list(path_sets) + list(extra)
        rows, usable = index.rows_matrix(all_sets)
        if not usable.all():
            raise EstimationError("selected path set became unusable")
        freqs = frequency.query_many(all_sets)
        weights = (
            log_frequency_weights(freqs, frequency.num_intervals)
            if self.config.weighted
            else np.ones(len(all_sets))
        )
        system = DenseEquationSystem(len(index))
        system.add_batch(rows, np.log(freqs), weights)
        self._add_prior_equations(system, index)
        solution = system.solve(upper_bound=0.0)
        good = np.exp(np.minimum(solution.values, 0.0))
        estimates, identifiable = {}, {}
        for position, subset in enumerate(index.subsets):
            estimates[subset] = float(good[position])
            identifiable[subset] = bool(solution.identifiable[position])
        model = CongestionProbabilityModel(
            network, estimates, identifiable, always_good_links=always_good
        )
        report = FitReport(
            num_unknowns=len(index),
            num_equations=len(system),
            rank=solution.rank,
            num_identifiable=int(solution.identifiable.sum()),
            residual=solution.residual,
            path_sets=list(path_sets),
            frequency_cache_hits=frequency.hits,
            frequency_cache_misses=frequency.misses,
        )
        return _attach(model, report)


# ----------------------------------------------------------------------
# Comparisons
# ----------------------------------------------------------------------
def assert_models_identical(actual, expected):
    """Bitwise model equality: estimates, flags, always-good set."""
    assert actual._good == expected._good  # exact float equality
    assert actual._identifiable == expected._identifiable
    assert actual.always_good_links == expected.always_good_links
    assert actual.independent == expected.independent
    assert np.array_equal(actual.link_marginals(), expected.link_marginals())


def assert_reports_identical(actual, expected, fewer_cache_hits=False):
    """Bitwise report equality on every pre-refactor field.

    ``stage_seconds`` is the pipeline's extension (wall-clock, never
    comparable) and is excluded. With ``fewer_cache_hits`` (the
    Correlation-complete variants, whose rank scan never re-tests a
    rejected candidate) the frequency cache may answer fewer repeat
    queries than the legacy scan's, but it must compute the same number
    of distinct path sets.
    """
    assert actual.num_unknowns == expected.num_unknowns
    assert actual.num_equations == expected.num_equations
    assert actual.rank == expected.rank
    assert actual.num_identifiable == expected.num_identifiable
    assert actual.residual == expected.residual
    assert actual.path_sets == expected.path_sets
    if fewer_cache_hits:
        assert actual.frequency_cache_hits <= expected.frequency_cache_hits
    else:
        assert actual.frequency_cache_hits == expected.frequency_cache_hits
    assert actual.frequency_cache_misses == expected.frequency_cache_misses


def assert_fit_matches_legacy(estimator, legacy_fit, network, observations):
    """Fit ``estimator`` and compare its model and report with the legacy fit."""
    actual = estimator.fit(network, observations)
    assert_models_identical(actual, legacy_fit)
    assert_reports_identical(
        actual.report,
        legacy_fit.report,
        fewer_cache_hits=isinstance(estimator, CorrelationCompleteEstimator),
    )
    return actual


@pytest.fixture(scope="module")
def experiment(small_brite):
    """A noisy (non-oracle) run: realistic frequency-cache traffic."""
    scenario = build_scenario(
        small_brite, ScenarioConfig(kind=ScenarioKind.NO_INDEPENDENCE), 11
    )
    return run_experiment(
        scenario, 400, prober=PathProber(num_packets=40), random_state=12
    )


@pytest.fixture(scope="module", params=["packed", "dense"])
def observations(request, experiment):
    if request.param == "packed":
        return experiment.observations
    return dense_observations(experiment.observations.matrix)


CASES = [
    (
        "Independence",
        lambda cfg: IndependenceEstimator(cfg),
        lambda cfg, net, obs: legacy_independence_fit(cfg, net, obs),
    ),
    (
        "Correlation-heuristic",
        lambda cfg: CorrelationHeuristicEstimator(cfg),
        lambda cfg, net, obs: legacy_heuristic_fit(cfg, net, obs),
    ),
    (
        "Correlation-complete",
        lambda cfg: CorrelationCompleteEstimator(cfg),
        lambda cfg, net, obs: LegacyCorrelationComplete(cfg).fit(net, obs),
    ),
    (
        "Correlation-complete (no redundancy)",
        lambda cfg: CorrelationCompleteNoRedundancy(cfg),
        lambda cfg, net, obs: LegacyCorrelationComplete(
            cfg, redundancy=False
        ).fit(net, obs),
    ),
]


@pytest.mark.parametrize(
    "factory,legacy", [case[1:] for case in CASES], ids=[c[0] for c in CASES]
)
def test_pipeline_fit_matches_legacy(factory, legacy, small_brite, observations):
    config = EstimatorConfig(seed=3)
    expected = legacy(config, small_brite, observations)
    assert_fit_matches_legacy(factory(config), expected, small_brite, observations)


def test_correlation_prior_fit_matches_legacy(small_brite, observations):
    """The ``prior_mode='correlation'`` rows (one per joint member) too."""
    config = EstimatorConfig(seed=3, prior_mode="correlation")
    expected = LegacyCorrelationComplete(config).fit(small_brite, observations)
    assert_fit_matches_legacy(
        CorrelationCompleteEstimator(config), expected, small_brite, observations
    )


@pytest.mark.parametrize(
    "factory,legacy", [case[1:] for case in CASES], ids=[c[0] for c in CASES]
)
def test_shared_workspace_fit_matches_legacy(
    factory, legacy, small_brite, observations
):
    """Warm shared-cache fits equal cold legacy fits on the model level.

    Cache hit/miss counters legitimately differ (that is the point of the
    workspace); everything that feeds the estimates must not.
    """
    config = EstimatorConfig(seed=3)
    expected = legacy(config, small_brite, observations)
    workspace = SharedFitWorkspace(observations)
    # Pre-warm with another estimator so the cache is genuinely shared.
    IndependenceEstimator(config).fit(small_brite, observations, workspace=workspace)
    actual = factory(config).fit(small_brite, observations, workspace=workspace)
    assert_models_identical(actual, expected)
    report, golden = actual.report, expected.report
    assert report.num_equations == golden.num_equations
    assert report.rank == golden.rank
    assert report.residual == golden.residual
    assert report.path_sets == golden.path_sets
    # The warm cache answered some queries the cold fit had to compute.
    assert report.frequency_cache_misses <= golden.frequency_cache_misses


@pytest.mark.parametrize(
    "factory,legacy", [case[1:] for case in CASES], ids=[c[0] for c in CASES]
)
def test_sparse_topology_fit_matches_legacy(factory, legacy, small_sparse):
    scenario = build_scenario(
        small_sparse, ScenarioConfig(kind=ScenarioKind.RANDOM), 11
    )
    observations = run_experiment(
        scenario, 400, prober=PathProber(num_packets=40), random_state=12
    ).observations
    config = EstimatorConfig(seed=3)
    expected = legacy(config, small_sparse, observations)
    assert_fit_matches_legacy(factory(config), expected, small_sparse, observations)


def test_empty_active_short_circuit_matches_legacy(small_brite):
    """All-good observations: pruning leaves nothing and both paths agree."""
    matrix = np.zeros((64, small_brite.num_paths), dtype=bool)
    observations = ObservationMatrix(matrix)
    config = EstimatorConfig(seed=3)
    for factory, legacy in [case[1:] for case in CASES]:
        expected = legacy(config, small_brite, observations)
        actual = assert_fit_matches_legacy(
            factory(config), expected, small_brite, observations
        )
        assert actual.report.num_unknowns == 0
