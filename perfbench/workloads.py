"""The four benchmark workloads (why each exists: ``perfbench/NOTES.md``).

Each workload is a closed loop with one caller: every entry point is a
synchronous call the caller waits on. A workload builds its inputs from
the seed in :meth:`Workload.setup`, then :meth:`Workload.step` runs one
step of the loop (a runner round of trials, a probe chunk, or one
internet-scale cell) and records its ops, latency samples and accuracy.
:meth:`Workload.check` verifies the outputs after the timed loop.

Calls into the program go through module attributes (``pool.run_trials``,
not a name imported into this file), so the traced run's wrappers from
:mod:`tracer` see them.
"""

from __future__ import annotations

import dataclasses
import hashlib
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.datasets import base as datasets_base
from repro.datasets import synthetic
from repro.experiments import figure4
from repro.experiments import mitigation as mitigation_sweep
from repro.experiments.config import SMALL
from repro.metrics import probability as metrics_probability
from repro.model.status import ObservationMatrix
from repro.probability.base import EstimatorConfig
from repro.probability.correlation_complete import CorrelationCompleteEstimator
from repro.probability.pipeline import EstimationPipeline
from repro.probability.registry import make_estimator
from repro.probability.subsets import potentially_congested_links
from repro.probability.windowed import WindowedEstimator
from repro.runner import pool
from repro.simulation import experiment, scenarios
from repro.simulation.probing import PathProber
from repro.streaming import AlertManager, AlertPolicy, StreamingEstimator
from repro.topology import brite
from repro.util.rng import derive_rng, spawn_seeds

from tracer import Tracer


class Measure:
    """What one measured loop produced."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.ops = 0
        self.seconds = 0.0
        self.latencies: List[float] = []
        self.maes: List[float] = []

    def record(self, latency: float, mae: Optional[float] = None) -> None:
        self.latencies.append(latency)
        if mae is not None:
            self.maes.append(mae)


class Checks:
    """Output-check tally; every failed check counts against the run."""

    def __init__(self) -> None:
        self.passed = 0
        self.failures: List[str] = []
        #: Measured observations reported beside the verdict.
        self.notes: Dict[str, Any] = {}

    def expect(self, ok: bool, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)


class ModelSink:
    """Keeps every fitted model so estimates are checked after the loop.

    Installed on :meth:`EstimationPipeline.run` (the one fit path of every
    estimator) in every run mode; it appends a reference and costs nothing
    measurable next to a fit.
    """

    def __init__(self) -> None:
        self.models: List[Any] = []
        original = EstimationPipeline.run
        sink = self

        def run(pipeline, context):
            model = original(pipeline, context)
            sink.models.append(model)
            return model

        EstimationPipeline.run = run

    def check(self, checks: Checks) -> None:
        """Every estimate is finite and a probability in [0, 1]."""
        seen = set()
        for model in self.models:
            if id(model) in seen:
                continue
            seen.add(id(model))
            values = np.concatenate(
                [
                    model.link_marginals(),
                    [model.prob_all_good(subset) for subset in model.subsets],
                ]
            )
            checks.expect(
                bool(np.all(np.isfinite(values)) and np.all((values >= 0) & (values <= 1))),
                f"estimate outside [0, 1] or not finite ({model.report.kernel} fit)",
            )


def estimate_digest(model: Any) -> str:
    """Digest of a model's estimates and identifiability (exact float bits)."""
    digest = hashlib.sha256()
    for subset in sorted(model.subsets, key=sorted):
        digest.update(
            f"{sorted(subset)}={float(model.prob_all_good(subset)).hex()}"
            f":{model.is_identifiable(subset)}\n".encode()
        )
    return digest.hexdigest()


def route_digest(network: Any) -> str:
    """Digest of a network's links and monitored paths."""
    digest = hashlib.sha256()
    for link in network.links:
        digest.update(f"L{link.index}:{link.src}:{link.dst}:{link.asn}\n".encode())
    for path in network.paths:
        digest.update(f"P{path.index}:{path.links}\n".encode())
    return digest.hexdigest()


class Workload:
    """One named closed loop over inputs made from a seed."""

    name = ""
    #: Ops attempted by one :meth:`step`.
    step_ops = 1
    #: Steps of the fixed round the traced run measures.
    round_steps = 1
    #: True when a step is one op; otherwise its runner trials are.
    step_is_op = True
    #: Tail percentile, fixed per workload (see NOTES.md), and the sample
    #: count below which it would have fewer than ten samples beyond it.
    tail_percentile = 50
    min_samples = 20
    #: What ``link_mae`` measures on this workload.
    mae_meaning = ""

    def __init__(self, sink: ModelSink, tracer: Tracer) -> None:
        self.sink = sink
        self.tracer = tracer

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def start(self) -> None:
        """Fresh loop state (a new engine) before a measured loop or round."""

    def step(self, index: int, measure: Measure) -> None:
        raise NotImplementedError

    def link_mae(self, measure: Measure) -> float:
        return float(np.mean(measure.maes))

    def check(self, checks: Checks) -> None:
        raise NotImplementedError


class Figure4Sweep(Workload):
    """The Fig. 4 campaign at ``small`` scale.

    The topologies and congestion placements are ``run_figure4``'s default
    sweep (seed 2); the seed draws the link-state realisation and probe
    noise of each pass over the sweep (the fourth spawned sweep seed). A
    step runs one (topology, scenario) group, its three estimators sharing
    one warm fit workspace, through the serial runner.
    """

    name = "figure4-sweep"
    ENV_SEED = 2
    #: Realisations drawn per seed; passes over the sweep cycle through them.
    REALISATIONS = 8
    step_ops = 3
    round_steps = 6
    step_is_op = False
    tail_percentile = 90
    min_samples = 100
    mae_meaning = "mean per-link |estimate - truth| over potentially congested links"

    def setup(self, seed: int) -> None:
        specs = figure4.figure4_specs(SMALL, self.ENV_SEED)
        self.passes: List[List[List[Any]]] = []
        for realisation in spawn_seeds(seed, self.REALISATIONS):
            groups: Dict[Any, List[Any]] = {}
            for spec in specs:
                spec = dataclasses.replace(spec, seeds=spec.seeds[:3] + (realisation,))
                groups.setdefault(spec.group, []).append(spec)
            self.passes.append(list(groups.values()))
        self.error_arrays: List[np.ndarray] = []

    def step(self, index: int, measure: Measure) -> None:
        groups = self.passes[(index // len(self.passes[0])) % self.REALISATIONS]
        results = pool.run_trials(
            self.tracer.as_op(figure4.figure4_trial),
            groups[index % len(groups)],
            workers=1,
        )
        for trial in results:
            metrics = trial.payload["metrics"]
            measure.record(trial.elapsed, metrics.mean_absolute_error)
            self.error_arrays.append(metrics.errors)
        measure.ops += len(results)

    def check(self, checks: Checks) -> None:
        for errors in self.error_arrays:
            checks.expect(
                bool(np.all(np.isfinite(errors)) and np.all((errors >= 0) & (errors <= 1))),
                "figure4 per-link error outside [0, 1]",
            )


class StreamMonitor(Workload):
    """A live monitor ingesting a pre-simulated probe stream.

    The monitored network and its non-stationary congestion regime are the
    streaming benchmark's (``benchmarks/test_bench_streaming.py``, seed 2);
    the seed draws the link-state realisation and the probe noise. The
    :data:`HORIZON` simulated rounds are ingested cyclically by one
    long-lived engine; its windows over the first :data:`CHECKED` rounds
    are compared with an offline fit.
    """

    name = "stream-monitor"
    WINDOW = 128
    STRIDE = 64
    CHUNK = 16
    HORIZON = 4096
    CHECKED = 1024
    ENV_SEED = 2
    step_ops = CHUNK
    round_steps = CHECKED // CHUNK
    tail_percentile = 90
    min_samples = 100
    mae_meaning = "mean per-link |estimate - realised window frequency|"

    def _estimator(self) -> CorrelationCompleteEstimator:
        return CorrelationCompleteEstimator(EstimatorConfig(seed=self.ENV_SEED))

    def setup(self, seed: int) -> None:
        self.network = brite.generate_brite_network(SMALL.brite, random_state=self.ENV_SEED)
        scenario = scenarios.build_scenario(
            self.network,
            scenarios.ScenarioConfig(kind=scenarios.ScenarioKind.RANDOM, non_stationary=True),
            random_state=derive_rng(self.ENV_SEED, 1),
        )
        with self.tracer.span("simulation.run"):
            self.states = scenario.ground_truth.sample(self.HORIZON, derive_rng(seed, 2))
            self.rounds = (
                PathProber(num_packets=SMALL.num_packets)
                .observe(self.network, self.states, derive_rng(seed, 3))
                .matrix
            )
        if self.tracer.enabled:
            self.tracer.count("simulation.intervals", self.HORIZON)

    def start(self) -> None:
        self.engine = StreamingEstimator(
            self.network,
            self._estimator(),
            window=self.WINDOW,
            stride=self.STRIDE,
            alert_manager=AlertManager(self.network, AlertPolicy()),
        )

    def step(self, index: int, measure: Measure) -> None:
        offset = (index * self.CHUNK) % self.HORIZON
        engine = self.engine
        refits, skipped = engine.refits, engine.skipped_windows
        start = perf_counter()
        engine.ingest(self.rounds[offset : offset + self.CHUNK])
        elapsed = perf_counter() - start
        measure.ops += self.CHUNK
        if engine.refits + engine.skipped_windows > refits + skipped:
            measure.record(elapsed)
        # A skipped window is a refit whose fit raised: a failed op.
        measure.failed += engine.skipped_windows - skipped

    def _window_rows(self, start: int, stop: int) -> np.ndarray:
        return np.arange(start, stop) % self.HORIZON

    def link_mae(self, measure: Measure) -> float:
        tolerance = EstimatorConfig().pruning_tolerance
        errors = []
        for window in self.engine.timeline.windows:
            rows = self._window_rows(window.start, window.stop)
            realised = self.states[rows].mean(axis=0)
            active = sorted(
                potentially_congested_links(
                    self.network, ObservationMatrix(self.rounds[rows]), tolerance
                )
            )
            estimated = window.model.link_marginals()[active]
            errors.append(np.abs(estimated - realised[active]))
        return float(np.mean(np.concatenate(errors)))

    def check(self, checks: Checks) -> None:
        offline = WindowedEstimator(
            self._estimator(), window=self.WINDOW, stride=self.STRIDE
        ).fit(self.network, ObservationMatrix(self.rounds[: self.CHECKED]))
        live = [w for w in self.engine.timeline.windows if w.stop <= self.CHECKED]
        checks.expect(
            [(w.start, w.stop) for w in live] == offline.window_spans(),
            "stream timeline windows differ from the offline WindowedEstimator fit",
        )
        for mine, theirs in zip(live, offline.windows):
            checks.expect(
                estimate_digest(mine.model) == estimate_digest(theirs.model),
                f"stream window [{mine.start}, {mine.stop}) differs from the offline fit",
            )


class PowerLaw10k(Workload):
    """Internet-scale cells: derive routes, simulate and fit at 10k nodes.

    Four fixed power-law environments (graph, monitoring deployment and
    congestion placement) are cycled; the seed draws each op's link-state
    realisation and probe noise.
    """

    name = "powerlaw-10k"
    NODES = 10000
    ENV_SEEDS = (17, 18, 19, 20)
    NUM_INTERVALS = 100
    NUM_PACKETS = 120
    round_steps = 4
    tail_percentile = 50
    min_samples = 20
    mae_meaning = "mean per-link |estimate - truth| over potentially congested links"

    def _estimator(self, env_seed: int, sparse: bool):
        return make_estimator(
            "Correlation-complete",
            EstimatorConfig(requested_subset_size=1, sparse=sparse, seed=env_seed),
        )

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.envs: List[Tuple[int, Any, Any, Any, int]] = []
        for env_seed in self.ENV_SEEDS:
            seeds = spawn_seeds(env_seed, 3)
            src, dst = synthetic.generate_powerlaw_edges(self.NODES, attachment=2, seed=seeds[0])
            # The scaling-topology study's deployment at 10k nodes.
            spec = datasets_base.DatasetSpec(
                num_vantage_points=8, num_destinations=200, num_paths=250, seed=seeds[0]
            )
            self.envs.append((env_seed, src, dst, spec, seeds[1]))
        self.first_cell: Optional[Tuple[str, str]] = None

    def _cell(self, index: int, sparse: bool):
        env_seed, src, dst, spec, scenario_seed = self.envs[index % len(self.envs)]
        network = datasets_base.derive_network_compact(
            self.NODES, src, dst, spec, f"powerlaw-{self.NODES}", sparse=sparse
        )
        scenario = scenarios.build_scenario(
            network, scenarios.ScenarioConfig(kind=scenarios.ScenarioKind.RANDOM), scenario_seed
        )
        result = experiment.run_experiment(
            scenario,
            self.NUM_INTERVALS,
            prober=PathProber(num_packets=self.NUM_PACKETS),
            random_state=derive_rng(self.seed, index),
        )
        return env_seed, network, result

    def step(self, index: int, measure: Measure) -> None:
        start = perf_counter()
        env_seed, network, result = self._cell(index, sparse=True)
        metrics = metrics_probability.evaluate_estimator(
            self._estimator(env_seed, sparse=True), result
        )
        measure.record(perf_counter() - start, metrics.mean_absolute_error)
        measure.ops += 1
        if index == 0:
            self.first_cell = (route_digest(network), estimate_digest(self.sink.models[-1]))

    def check(self, checks: Checks) -> None:
        env_seed, network, result = self._cell(0, sparse=False)
        model = self._estimator(env_seed, sparse=False).fit(network, result.observations)
        checks.expect(
            self.first_cell is not None and self.first_cell[0] == route_digest(network),
            "powerlaw-10k sparse routes differ from the dense derivation",
        )
        checks.expect(
            self.first_cell is not None and self.first_cell[1] == estimate_digest(model),
            "powerlaw-10k sparse estimate digest differs from the dense fit",
        )


class MitigationLoop(Workload):
    """Closed-loop mitigation cells: estimate, mitigate, re-simulate, re-fit.

    The substrate and the scenario draws are ``run_mitigation``'s defaults
    (seed 13); the seed draws the paired congestion realisation of the
    cells (the fourth spawned sweep seed), a fresh one per step.
    Correlation-complete is left out: see NOTES.md.
    """

    name = "mitigation-loop"
    ENV_SEED = 13
    SCENARIOS = ("random", "gravity", "cascade")
    ESTIMATORS = ("Independence", "Correlation-heuristic")
    #: Realisations drawn per seed; each step runs the 18 cells on the next.
    REALISATIONS = 8
    step_ops = 18
    step_is_op = False
    tail_percentile = 75
    min_samples = 40
    mae_meaning = "mean pre-mitigation fit error (ClosedLoopReport.pre_fit_error)"

    def setup(self, seed: int) -> None:
        specs = mitigation_sweep.mitigation_specs(
            SMALL, self.ENV_SEED, scenarios=self.SCENARIOS, estimators=self.ESTIMATORS
        )
        self.sweeps = [
            [dataclasses.replace(spec, seeds=spec.seeds[:3] + (realisation,)) for spec in specs]
            for realisation in spawn_seeds(seed, self.REALISATIONS)
        ]
        self.rounds: List[List[Any]] = []

    def step(self, index: int, measure: Measure) -> None:
        results = pool.run_trials(
            self.tracer.as_op(mitigation_sweep.mitigation_trial),
            self.sweeps[index % self.REALISATIONS],
            workers=1,
        )
        for trial in results:
            measure.record(trial.elapsed, trial.payload["report"]["pre_fit_error"])
        measure.ops += len(results)
        self.rounds.append(results)

    def check(self, checks: Checks) -> None:
        """The closed loop's invariants, as ``benchmarks/test_bench_mitigation.py``
        gates them: the no-op arm reproduces the pre state exactly, and
        acting (the best policy) never leaves more congestion than doing
        nothing. A single policy can: it acts on the fitted model, not the
        truth. Those cells are counted in ``checks.notes``, not failed."""
        worse: List[str] = []
        cells_compared = 0
        for results in self.rounds:
            cells: Dict[Tuple[str, str], Dict[str, Dict[str, Any]]] = {}
            for trial in results:
                spec = trial.spec
                cells.setdefault((spec.scenario, spec.estimator), {})[
                    spec.params["policy"]
                ] = trial.payload["report"]
            for (scenario, estimator), policies in sorted(cells.items()):
                noop = policies.pop("noop")
                checks.expect(
                    noop["reduction"] == 0.0 and noop["paths_disturbed"] == 0,
                    f"mitigation noop arm moved congestion ({scenario}, {estimator})",
                )
                residuals = {name: r["post_congestion_rate"] for name, r in policies.items()}
                checks.expect(
                    min(residuals.values()) <= noop["post_congestion_rate"],
                    f"every policy left more congestion than noop ({scenario}, {estimator})",
                )
                cells_compared += len(residuals)
                worse.extend(
                    f"{name} ({scenario}, {estimator})"
                    for name, residual in sorted(residuals.items())
                    if residual > noop["post_congestion_rate"]
                )
        checks.notes["policy cells worse than noop"] = f"{len(worse)} of {cells_compared}"
        if worse:
            checks.notes["worse than noop"] = sorted(set(worse))


WORKLOADS = {
    workload.name: workload
    for workload in (Figure4Sweep, StreamMonitor, PowerLaw10k, MitigationLoop)
}
