"""Serialize and restore streaming-engine state across restarts.

A monitoring daemon must survive restarts without losing its place in the
probe stream: the retained ring contents, the refit cursor, the warm
frequency workload, the alert detectors' hysteresis state, and the
diagnostic counters. This module snapshots exactly that into a single JSON
document (ring words as base64 of the canonical packed byte stream, so
checkpoints are portable across hosts of any word endianness) and rebuilds
a live engine from it.

Fitted models are *not* serialized: window estimates are derived data the
engine re-emits as new windows complete, and a restored monitor continues
the stream rather than re-reporting history. The restored engine's
timeline therefore starts empty while its cursor, counters, and window
numbering carry on from the checkpoint.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.exceptions import EstimationError
from repro.probability.base import ProbabilityEstimator
from repro.streaming.alerts import AlertManager, LevelShiftDetector, ThresholdDetector
from repro.streaming.buffer import PackedRingBuffer
from repro.streaming.engine import StreamingEstimator
from repro.topology.graph import Network

#: Schema version of the checkpoint document.
CHECKPOINT_VERSION = 1


def _alert_state(manager: AlertManager) -> dict:
    def thresholds(detectors):
        return {
            str(target): {"active": d.active, "high": d.high, "low": d.low}
            for target, d in detectors.items()
        }

    def shifts(detectors):
        return {
            str(target): {
                "level": d._level,
                "armed": d._armed,
                "threshold": d.threshold,
                "rearm": d.rearm,
            }
            for target, d in detectors.items()
        }

    return {
        "peer_threshold": thresholds(manager._peer_threshold),
        "peer_shift": shifts(manager._peer_shift),
        "link_threshold": thresholds(manager._link_threshold),
        "link_shift": shifts(manager._link_shift),
    }


def _restore_alert_state(manager: AlertManager, state: dict) -> None:
    """Re-seed detector *state* (hysteresis, levels) under the manager's
    own policy.

    Thresholds are configuration, not state: detectors are rebuilt from
    the supplied manager's :class:`AlertPolicy` — so an operator who
    changes a threshold and restarts sees the new value apply to every
    target, while active/armed/level hysteresis survives the restart.
    Families the new policy disables are simply not restored.
    """
    policy = manager.policy
    for name, high, low in (
        ("peer_threshold", policy.peer_high, policy.peer_low),
        ("link_threshold", policy.link_high, policy.link_low),
    ):
        if high is None:
            continue
        detectors = getattr(manager, f"_{name}")
        for target, fields in state.get(name, {}).items():
            detector = ThresholdDetector(high, low)
            detector.active = bool(fields["active"])
            detectors[int(target)] = detector
    for name, threshold in (
        ("peer_shift", policy.peer_shift),
        ("link_shift", policy.link_shift),
    ):
        if threshold is None:
            continue
        detectors = getattr(manager, f"_{name}")
        for target, fields in state.get(name, {}).items():
            detector = LevelShiftDetector(threshold, policy.rearm)
            detector._level = fields["level"]
            detector._armed = bool(fields["armed"])
            detectors[int(target)] = detector


def checkpoint_state(engine: StreamingEstimator) -> dict:
    """The engine's persistent state as a JSON-serializable document."""
    words, first, end = engine.buffer.snapshot()
    state = {
        "version": CHECKPOINT_VERSION,
        "window": engine.window,
        "stride": engine.stride,
        "retention": engine.retention,
        "workload_limit": engine.workload_limit,
        "max_windows": engine.max_windows,
        "max_alerts": engine.max_alerts,
        "num_paths": engine.buffer.num_paths,
        "num_links": engine.network.num_links,
        "estimator": engine.estimator.name,
        "ring": {
            "first_interval": first,
            "end_interval": end,
            "num_words": words.shape[1],
            # The packed layout is byte-semantic (packbits byte order, see
            # pack_bool_matrix), so the wire format is the raw byte stream
            # — identical on every host, unlike the uint64 *values*, which
            # differ with word endianness.
            "words": base64.b64encode(
                np.ascontiguousarray(words).view(np.uint8).tobytes()
            ).decode("ascii"),
        },
        "next_window_start": engine.next_window_start,
        # The *global* emit counter (not len(timeline.windows)): it carries
        # windows trimmed by max_windows and windows emitted before any
        # earlier restore, so window numbering survives repeated
        # checkpoint/restore generations.
        "emitted_windows": engine.windows_emitted,
        "workload": [sorted(path_set) for path_set in engine._workload],
        "counters": {
            "refits": engine.refits,
            "skipped_windows": engine.skipped_windows,
            "cache_hits": engine.cache_hits,
            "cache_misses": engine.cache_misses,
        },
        "alerts": (
            _alert_state(engine.alert_manager)
            if engine.alert_manager is not None
            else None
        ),
    }
    return state


def save_checkpoint(engine: StreamingEstimator, path: Union[str, Path]) -> Path:
    """Write the engine's state to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(checkpoint_state(engine)), encoding="utf-8")
    return path


def restore_engine(
    source: Union[str, Path, dict],
    network: Network,
    estimator: Optional[ProbabilityEstimator] = None,
    alert_manager: Optional[AlertManager] = None,
) -> StreamingEstimator:
    """Rebuild a live engine from a checkpoint file or document.

    ``network`` and ``estimator`` are supplied by the caller (topology and
    algorithm are code/config, not state); the checkpoint's structural
    echo (path/link counts, window geometry) is validated against them.
    The restored engine resumes ingestion at the exact round the
    checkpointed one stopped, with the same warm workload, alert
    hysteresis state, and window numbering.
    """
    if isinstance(source, (str, Path)):
        state = json.loads(Path(source).read_text(encoding="utf-8"))
    else:
        state = source
    if state.get("version") != CHECKPOINT_VERSION:
        raise EstimationError(
            f"unsupported checkpoint version {state.get('version')!r}"
        )
    if state["num_paths"] != network.num_paths:
        raise EstimationError(
            f"checkpoint monitored {state['num_paths']} paths, "
            f"network has {network.num_paths}"
        )
    if state["num_links"] != network.num_links:
        raise EstimationError(
            f"checkpoint monitored {state['num_links']} links, "
            f"network has {network.num_links}"
        )
    ring_state = state["ring"]
    raw = base64.b64decode(ring_state["words"])
    num_words = int(ring_state["num_words"])
    # Inverse of the byte-semantic serialization above: reinterpret the
    # canonical packed bytes as this host's native uint64 words, exactly
    # as pack_bool_matrix does when packing fresh observations.
    words = (
        np.frombuffer(raw, dtype=np.uint8)
        .reshape(int(state["num_paths"]), num_words * 8)
        .copy()
        .view(np.uint64)
    )
    ring = PackedRingBuffer.restore(
        words,
        int(ring_state["first_interval"]),
        int(ring_state["end_interval"]),
        int(state["retention"]),
    )
    # Keys restore does not read are ignored, including the "kernel" pin
    # older documents carry: there is one frequency kernel.
    max_windows = state.get("max_windows")
    max_alerts = state.get("max_alerts")
    engine = StreamingEstimator(
        network,
        estimator=estimator,
        window=int(state["window"]),
        stride=int(state["stride"]),
        retention=int(state["retention"]),
        alert_manager=alert_manager,
        workload_limit=int(state.get("workload_limit", 8192)),
        max_windows=None if max_windows is None else int(max_windows),
        max_alerts=None if max_alerts is None else int(max_alerts),
        ring=ring,
    )
    if engine.estimator.name != state.get("estimator"):
        raise EstimationError(
            f"checkpoint was taken with estimator "
            f"{state.get('estimator')!r}, restore supplied "
            f"{engine.estimator.name!r}"
        )
    engine._next_start = int(state["next_window_start"])
    engine._workload = [frozenset(s) for s in state.get("workload", [])]
    # Window numbering continues from the checkpoint: the restored engine's
    # first emitted window picks up the global index where the
    # checkpointed monitor stopped.
    engine.windows_emitted = int(state.get("emitted_windows", 0))
    counters = state.get("counters", {})
    engine.refits = int(counters.get("refits", 0))
    engine.skipped_windows = int(counters.get("skipped_windows", 0))
    engine.cache_hits = int(counters.get("cache_hits", 0))
    engine.cache_misses = int(counters.get("cache_misses", 0))
    if alert_manager is not None and state.get("alerts"):
        _restore_alert_state(alert_manager, state["alerts"])
    return engine
