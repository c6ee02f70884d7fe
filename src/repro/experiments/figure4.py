"""Figure 4: Probability Computation accuracy.

Panels (Section 5.4):

* (a) mean absolute per-link error on the **Brite** topology, for Random /
  Concentrated / No-Independence congestion — each with "No Stationarity"
  layered on top, as the paper specifies;
* (b) the same on the **Sparse** topology;
* (c) the CDF of the per-link error for the No-Independence scenario on the
  Sparse topology;
* (d) Correlation-complete's error on individual links vs correlation
  subsets, Brite and Sparse, No-Independence scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.config import ExperimentScale, SMALL
from repro.metrics.probability import ProbabilityMetrics, evaluate_estimator
from repro.metrics.reporting import format_table
from repro.probability.base import EstimatorConfig
from repro.probability.pipeline import SharedFitWorkspace
from repro.probability.registry import (
    get_estimator,
    make_estimator,
    paper_estimator_names,
)
from repro.runner import ProgressFn, TrialResult, TrialSpec, run_trials
from repro.simulation.experiment import ExperimentResult, run_experiment
from repro.simulation.probing import PathProber
from repro.simulation.scenarios import ScenarioConfig, ScenarioKind, build_scenario
from repro.topology.brite import generate_brite_network
from repro.topology.graph import Network
from repro.topology.traceroute import generate_sparse_network
from repro.util.rng import derive_rng, spawn_seeds, stable_hash

#: Congestion scenarios of Fig. 4(a)/(b), in the paper's order.
SCENARIO_ORDER: Tuple[str, ...] = (
    "Random Congestion",
    "Concentrated Congestion",
    "No Independence",
)

#: Estimator labels in the paper's legend order (from the registry).
ESTIMATOR_ORDER: Tuple[str, ...] = paper_estimator_names()


@dataclass
class Figure4Result:
    """All four panels of Fig. 4."""

    #: (topology, scenario, estimator) -> metrics; backs panels (a) and (b).
    rows: Dict[Tuple[str, str, str], ProbabilityMetrics] = field(default_factory=dict)
    #: (topology,) -> Correlation-complete (link error, subset error); panel (d).
    subset_rows: Dict[str, Tuple[float, Optional[float]]] = field(default_factory=dict)
    topology_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def mean_error(self, topology: str, scenario: str, estimator: str) -> float:
        """One bar of Fig. 4(a) (brite) or 4(b) (sparse)."""
        return self.rows[(topology, scenario, estimator)].mean_absolute_error

    def cdf(
        self, topology: str, scenario: str, estimator: str, points: int = 101
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One curve of Fig. 4(c)."""
        return self.rows[(topology, scenario, estimator)].cdf(points)

    def to_table(self, topology: str) -> str:
        """Render panel (a) or (b) as text."""
        rows = []
        for scenario in SCENARIO_ORDER:
            cells: List[object] = [scenario]
            for estimator in ESTIMATOR_ORDER:
                metrics = self.rows.get((topology, scenario, estimator))
                cells.append("-" if metrics is None else metrics.mean_absolute_error)
            rows.append(cells)
        return format_table(["Scenario", *ESTIMATOR_ORDER], rows)

    def to_subset_table(self) -> str:
        """Render panel (d) as text."""
        rows = []
        for topology, (link_error, subset_error) in sorted(self.subset_rows.items()):
            rows.append(
                [
                    topology,
                    link_error,
                    "-" if subset_error is None else subset_error,
                ]
            )
        return format_table(["Topology", "links", "correlation subsets"], rows)


def _scenario_config(kind: ScenarioKind) -> ScenarioConfig:
    # Fig. 4 layers No Stationarity on top of every congestion scenario.
    return ScenarioConfig(kind=kind, non_stationary=True)


#: (label, kind) pairs of panels (a)/(b), in the paper's order.
_SCENARIO_KINDS: Tuple[Tuple[str, ScenarioKind], ...] = (
    ("Random Congestion", ScenarioKind.RANDOM),
    ("Concentrated Congestion", ScenarioKind.CONCENTRATED),
    ("No Independence", ScenarioKind.NO_INDEPENDENCE),
)


def figure4_specs(
    scale: ExperimentScale, seed: int, oracle: bool = False
) -> List[TrialSpec]:
    """Decompose the Fig. 4 sweep into independent trial specs.

    One trial per (topology, scenario, estimator) cell; every random
    stream a trial needs is derived from the spawned master seeds plus the
    cell's labels, so any execution order (or process placement) produces
    the same numbers. The two topologies are pure functions of the seeds,
    so they are built once here and shipped with the specs (one copy per
    shard after pickling) rather than rebuilt in every worker; scenarios
    and observations are simulated by the workers themselves.
    """
    seeds = tuple(spawn_seeds(seed, 4))
    topologies: Dict[str, Network] = {
        "brite": generate_brite_network(scale.brite, seeds[0]),
        "sparse": generate_sparse_network(scale.traceroute, seeds[1]),
    }
    stats = {name: dict(net.describe()) for name, net in topologies.items()}
    specs: List[TrialSpec] = []
    for topology_name in ("brite", "sparse"):
        for label, kind in _SCENARIO_KINDS:
            for estimator_name in ESTIMATOR_ORDER:
                specs.append(
                    TrialSpec(
                        campaign="figure4",
                        topology=topology_name,
                        scenario=label,
                        estimator=estimator_name,
                        seeds=seeds,
                        index=len(specs),
                        group=(seed, topology_name, label),
                        # Rough relative cost hints (sparse instances and
                        # the correlation estimators dominate) so the
                        # longest-processing-time partition balances
                        # shards; the per-estimator budget multiplier is
                        # registry metadata.
                        cost=(2.0 if topology_name == "sparse" else 1.0)
                        * get_estimator(estimator_name).cost_multiplier,
                        params={
                            "scale": scale,
                            "seed": seed,
                            "oracle": oracle,
                            "kind": kind.value,
                            "network": topologies[topology_name],
                            "topology_stats": stats[topology_name],
                        },
                    )
                )
    return specs


def _cell_key(kind: str, spec: TrialSpec) -> Tuple[Any, ...]:
    """Shard-cache key of a sweep cell's shared intermediate.

    One key shape for both the simulated experiment and its fit
    workspace, so the two can never drift apart and map different
    experiments onto one workspace.
    """
    return (kind, spec.topology, spec.scenario, spec.seeds, spec.params["oracle"])


def _shared_experiment(
    spec: TrialSpec, cache: Dict[Any, Any], network: Network
) -> ExperimentResult:
    """Simulate (or fetch) the trial's scenario + observation run."""
    key = _cell_key("experiment", spec)
    if key not in cache:
        scale: ExperimentScale = spec.params["scale"]
        kind = ScenarioKind(spec.params["kind"])
        scenario = build_scenario(
            network,
            _scenario_config(kind),
            derive_rng(spec.seeds[2], stable_hash((spec.topology, spec.scenario))),
            name=spec.scenario,
        )
        cache[key] = run_experiment(
            scenario,
            scale.num_intervals,
            prober=PathProber(num_packets=scale.num_packets),
            random_state=derive_rng(
                spec.seeds[3], stable_hash((spec.topology, spec.scenario))
            ),
            oracle=spec.params["oracle"],
        )
    return cache[key]


def _shared_workspace(
    spec: TrialSpec, cache: Dict[Any, Any], experiment: ExperimentResult
) -> SharedFitWorkspace:
    """The group's shared fit workspace (one warm cache per sweep cell).

    Trials of one (topology, scenario, seed) group run on one shard and
    share the shard-local cache, so all estimators of the cell fit against
    a single warm :class:`FrequencyCache` instead of three cold ones.
    """
    key = _cell_key("workspace", spec)
    if key not in cache:
        cache[key] = SharedFitWorkspace(experiment.observations)
    return cache[key]


def figure4_trial(spec: TrialSpec, cache: Dict[Any, Any]) -> Dict[str, Any]:
    """Run one Fig. 4 sweep cell: simulate (shared per group) and fit."""
    network: Network = spec.params["network"]
    experiment = _shared_experiment(spec, cache, network)
    estimator = make_estimator(
        spec.estimator, EstimatorConfig(seed=spec.params["seed"])
    )
    evaluate_subsets = (
        spec.scenario == "No Independence"
        and spec.estimator == "Correlation-complete"
    )
    metrics = evaluate_estimator(
        estimator,
        experiment,
        evaluate_subsets=evaluate_subsets,
        workspace=_shared_workspace(spec, cache, experiment),
    )
    return {"metrics": metrics, "evaluated_subsets": evaluate_subsets}


def merge_figure4(results: Sequence[TrialResult]) -> Figure4Result:
    """Fold trial payloads into a :class:`Figure4Result`.

    Pure bookkeeping over spec-index-ordered results, so the merged figure
    is bit-identical whatever sharding produced them.
    """
    result = Figure4Result()
    for trial in results:
        spec = trial.spec
        metrics: ProbabilityMetrics = trial.payload["metrics"]
        result.rows[(spec.topology, spec.scenario, spec.estimator)] = metrics
        result.topology_stats.setdefault(spec.topology, spec.params["topology_stats"])
        if trial.payload["evaluated_subsets"]:
            result.subset_rows[spec.topology] = (
                metrics.mean_absolute_error,
                metrics.subset_mean_absolute_error,
            )
    return result


def run_figure4(
    scale: ExperimentScale = SMALL,
    seed: int = 2,
    oracle: bool = False,
    workers: Optional[int] = 1,
    progress: Optional[ProgressFn] = None,
    executor: Optional[str] = "process",
) -> Figure4Result:
    """Regenerate all four panels of Fig. 4.

    See :func:`repro.experiments.figure3.run_figure3` for the parameters.
    ``workers`` shards the sweep (``1`` = serial in this process, ``None``
    = all local CPUs) across the requested ``executor``
    (``"process"`` or zero-copy ``"thread"`` — see
    :func:`repro.runner.pool.run_trials`) with bit-identical results.
    """
    results = run_trials(
        figure4_trial,
        figure4_specs(scale, seed, oracle),
        workers=workers,
        progress=progress,
        executor=executor,
    )
    return merge_figure4(results)
