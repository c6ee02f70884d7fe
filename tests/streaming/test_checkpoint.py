"""Checkpoint/restore: a restarted monitor continues the stream exactly."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import EstimationError
from repro.probability.base import EstimatorConfig
from repro.probability.correlation_complete import CorrelationCompleteEstimator
from repro.simulation.congestion import CongestionModel, Driver, NonStationaryModel
from repro.simulation.probing import oracle_path_status
from repro.streaming import AlertManager, AlertPolicy, StreamingEstimator
from repro.streaming.checkpoint import (
    checkpoint_state,
    restore_engine,
    save_checkpoint,
)
from repro.topology.builders import fig1_topology


@pytest.fixture(scope="module")
def setup():
    network = fig1_topology(case=1)
    quiet = CongestionModel(4, [Driver(0.1, frozenset({0}))])
    busy = CongestionModel(4, [Driver(0.7, frozenset({0}))])
    truth = NonStationaryModel([(quiet, 400), (busy, 400)])
    states = truth.sample(800, np.random.default_rng(4))
    dense = oracle_path_status(network, states).matrix
    return network, dense


def _engine(network, with_alerts=True):
    manager = (
        AlertManager(network, AlertPolicy(peer_high=0.5, peer_low=0.4, link_shift=0.2))
        if with_alerts
        else None
    )
    return StreamingEstimator(
        network,
        CorrelationCompleteEstimator(EstimatorConfig(pruning_tolerance=0.0)),
        window=150,
        stride=70,
        alert_manager=manager,
    )


def test_restart_resumes_identically(setup, tmp_path):
    network, dense = setup
    uninterrupted = _engine(network)
    uninterrupted.ingest(dense)

    interrupted = _engine(network)
    interrupted.ingest(dense[:430])
    path = save_checkpoint(interrupted, tmp_path / "monitor.json")
    resumed = restore_engine(
        path,
        network,
        CorrelationCompleteEstimator(EstimatorConfig(pruning_tolerance=0.0)),
        alert_manager=AlertManager(
            network, AlertPolicy(peer_high=0.5, peer_low=0.4, link_shift=0.2)
        ),
    )
    assert resumed.intervals_ingested == 430
    assert resumed.next_window_start == interrupted.next_window_start
    resumed.ingest(dense[430:])

    spans = (interrupted.timeline.window_spans() + resumed.timeline.window_spans())
    assert spans == uninterrupted.timeline.window_spans()
    for full, part in zip(
        uninterrupted.timeline.windows,
        interrupted.timeline.windows + resumed.timeline.windows,
    ):
        for link in range(network.num_links):
            assert full.model.link_congestion_probability(
                link
            ) == part.model.link_congestion_probability(link)
    # Alerts continue with the same identities and *global* window indices:
    # detector hysteresis and numbering survive the restart.
    full_alerts = [
        (a.kind, a.scope, a.target, a.window_index)
        for a in uninterrupted.alerts
    ]
    split_alerts = [
        (a.kind, a.scope, a.target, a.window_index)
        for a in interrupted.alerts + resumed.alerts
    ]
    assert full_alerts == split_alerts
    assert resumed.refits + interrupted.refits - resumed.refits >= 0


def test_checkpoint_preserves_counters_and_workload(setup, tmp_path):
    network, dense = setup
    engine = _engine(network, with_alerts=False)
    engine.ingest(dense[:430])
    state = checkpoint_state(engine)
    resumed = restore_engine(
        state,
        network,
        CorrelationCompleteEstimator(EstimatorConfig(pruning_tolerance=0.0)),
    )
    assert resumed.refits == engine.refits
    assert resumed.cache_hits == engine.cache_hits
    assert resumed.cache_misses == engine.cache_misses
    assert resumed._workload == engine._workload
    assert (resumed.buffer.view().matrix == engine.buffer.view().matrix).all()


def test_checkpoint_is_json_and_portable(setup, tmp_path):
    network, dense = setup
    engine = _engine(network, with_alerts=False)
    engine.ingest(dense[:430])
    path = save_checkpoint(engine, tmp_path / "state.json")
    document = json.loads(path.read_text())
    assert document["version"] == 1
    assert document["num_paths"] == network.num_paths
    assert isinstance(document["ring"]["words"], str)  # base64, not binary


def test_window_numbering_survives_repeated_restores(setup, tmp_path):
    """Alert window indices stay global across checkpoint generations."""
    network, dense = setup
    uninterrupted = _engine(network)
    uninterrupted.ingest(dense)

    engine = _engine(network)
    engine.ingest(dense[:300])
    alerts = list(engine.alerts)
    for boundary in (550, 800):  # two restart generations
        state = checkpoint_state(engine)
        engine = restore_engine(
            state,
            network,
            CorrelationCompleteEstimator(EstimatorConfig(pruning_tolerance=0.0)),
            alert_manager=AlertManager(
                network,
                AlertPolicy(peer_high=0.5, peer_low=0.4, link_shift=0.2),
            ),
        )
        start = engine.intervals_ingested
        engine.ingest(dense[start:boundary])
        alerts.extend(engine.alerts)
    assert engine.windows_emitted == uninterrupted.windows_emitted
    assert [(a.kind, a.scope, a.target, a.window_index) for a in alerts] == [
        (a.kind, a.scope, a.target, a.window_index)
        for a in uninterrupted.alerts
    ]


def test_restore_applies_new_alert_policy_to_old_targets(setup):
    """Thresholds are config, not state: a restart picks up policy changes."""
    network, dense = setup
    engine = _engine(network)  # peer_high=0.5
    engine.ingest(dense[:300])
    assert engine.alert_manager._peer_threshold  # targets seen pre-restart
    state = checkpoint_state(engine)
    raised_policy = AlertPolicy(peer_high=0.9, peer_low=0.8, link_shift=0.2)
    resumed = restore_engine(
        state,
        network,
        CorrelationCompleteEstimator(EstimatorConfig(pruning_tolerance=0.0)),
        alert_manager=AlertManager(network, raised_policy),
    )
    manager = resumed.alert_manager
    for target, detector in manager._peer_threshold.items():
        assert detector.high == 0.9, target  # new policy, old target
        # ... while the hysteresis state survived the restart.
        assert detector.active == engine.alert_manager._peer_threshold[target].active


def test_checkpoint_preserves_resource_bounds(setup):
    network, dense = setup
    engine = StreamingEstimator(
        network,
        CorrelationCompleteEstimator(EstimatorConfig(pruning_tolerance=0.0)),
        window=150,
        stride=70,
        workload_limit=123,
        max_windows=3,
        max_alerts=2,
    )
    engine.ingest(dense[:300])
    resumed = restore_engine(
        checkpoint_state(engine),
        network,
        CorrelationCompleteEstimator(EstimatorConfig(pruning_tolerance=0.0)),
    )
    assert resumed.workload_limit == 123
    assert resumed.max_windows == 3
    assert resumed.max_alerts == 2


def test_restore_rejects_estimator_mismatch(setup):
    from repro.probability.independence import IndependenceEstimator

    network, dense = setup
    engine = _engine(network, with_alerts=False)
    engine.ingest(dense[:200])
    state = checkpoint_state(engine)
    with pytest.raises(EstimationError):
        restore_engine(state, network, IndependenceEstimator())


def test_restore_validates_structure(setup, tmp_path):
    network, dense = setup
    engine = _engine(network, with_alerts=False)
    engine.ingest(dense[:200])
    state = checkpoint_state(engine)

    wrong_version = dict(state, version=99)
    with pytest.raises(EstimationError):
        restore_engine(wrong_version, network)

    wrong_paths = dict(state, num_paths=state["num_paths"] + 1)
    with pytest.raises(EstimationError):
        restore_engine(wrong_paths, network)

    wrong_links = dict(state, num_links=state["num_links"] + 1)
    with pytest.raises(EstimationError):
        restore_engine(wrong_links, network)


def test_restore_ignores_legacy_kernel_pin(setup):
    """Documents from before the single frequency kernel carry a
    ``"kernel"`` pin (here one naming a kernel that no longer exists);
    restore ignores it and the stream continues bit for bit."""
    network, dense = setup
    uninterrupted = _engine(network, with_alerts=False)
    uninterrupted.ingest(dense)

    interrupted = _engine(network, with_alerts=False)
    interrupted.ingest(dense[:430])
    state = checkpoint_state(interrupted)
    assert "kernel" not in state
    legacy = json.loads(json.dumps(dict(state, kernel="numba")))
    assert legacy["version"] == 1
    resumed = restore_engine(
        legacy,
        network,
        CorrelationCompleteEstimator(EstimatorConfig(pruning_tolerance=0.0)),
    )
    resumed.ingest(dense[430:])

    windows = interrupted.timeline.windows + resumed.timeline.windows
    assert [(w.start, w.stop) for w in windows] == (
        uninterrupted.timeline.window_spans()
    )
    for full, part in zip(uninterrupted.timeline.windows, windows):
        np.testing.assert_array_equal(
            full.model.link_marginals(), part.model.link_marginals()
        )
