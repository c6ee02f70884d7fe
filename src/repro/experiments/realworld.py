"""Real-topology sweep: (dataset x scenario x estimator x seed).

The paper's figures evaluate on two synthetic substrates; this driver
sweeps the full registered dataset library (Topology Zoo, Rocketfuel,
CAIDA, saved snapshots, synthetic substrates — see
:mod:`repro.datasets.registry`) against the full scenario library
(:mod:`repro.simulation.library`), scoring every probability estimator on
every supported combination. Like the figure sweeps it decomposes into
independent :class:`~repro.runner.spec.TrialSpec` cells with
process-stable seed derivation, so process-sharded runs are bit-identical
to serial ones; trials of one (dataset, scenario) group share their
simulated experiment through the shard-local cache.

Unsupported combinations — a scenario requiring correlated link groups on
a topology that has none — are skipped at spec-build time and surface as
``-`` cells in the rendered tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.datasets.registry import dataset_names, get_dataset, load_dataset
from repro.exceptions import EstimationError
from repro.experiments.config import SMALL, ExperimentScale
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
from repro.simulation.experiment import run_experiment
from repro.simulation.library import get_scenario, scenario_names
from repro.simulation.probing import PathProber
from repro.topology.graph import Network
from repro.util.rng import derive_rng, spawn_seeds, stable_hash

#: Estimator labels in the paper's legend order (from the registry).
ESTIMATOR_ORDER: Tuple[str, ...] = paper_estimator_names()


@dataclass
class RealWorldResult:
    """The merged sweep: per-cell metrics plus dataset statistics."""

    #: (dataset, scenario, estimator) -> metrics.
    rows: Dict[Tuple[str, str, str], ProbabilityMetrics] = field(default_factory=dict)
    dataset_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def datasets(self) -> List[str]:
        """Datasets contributing at least one cell, sorted."""
        return sorted({dataset for dataset, _, _ in self.rows})

    def scenarios(self) -> List[str]:
        """Scenarios contributing at least one cell, sorted."""
        return sorted({scenario for _, scenario, _ in self.rows})

    def mean_error(self, dataset: str, scenario: str, estimator: str) -> float:
        """One cell's mean absolute per-link error."""
        return self.rows[(dataset, scenario, estimator)].mean_absolute_error

    def to_table(self, dataset: str) -> str:
        """Render one dataset's scenario x estimator error table."""
        rows = []
        for scenario in self.scenarios():
            cells: List[object] = [scenario]
            for estimator in ESTIMATOR_ORDER:
                metrics = self.rows.get((dataset, scenario, estimator))
                cells.append("-" if metrics is None else metrics.mean_absolute_error)
            rows.append(cells)
        return format_table(["Scenario", *ESTIMATOR_ORDER], rows)


def realworld_specs(
    scale: ExperimentScale,
    seed: int,
    oracle: bool = False,
    datasets: Optional[Sequence[str]] = None,
    scenarios: Optional[Sequence[str]] = None,
    estimators: Optional[Sequence[str]] = None,
) -> List[TrialSpec]:
    """Decompose the real-topology sweep into independent trial specs.

    Every dataset is loaded once here (through the on-disk parse cache)
    and shipped with its specs; scenario construction and simulation run
    in the workers. Unsupported (dataset, scenario) combinations are
    skipped. ``datasets`` / ``scenarios`` / ``estimators`` restrict the
    sweep (default: everything registered).

    Raises
    ------
    ValueError
        On unknown dataset, scenario, or estimator names, or when the
        requested restriction leaves an empty sweep.
    """
    dataset_list = list(datasets) if datasets else dataset_names()
    scenario_list = list(scenarios) if scenarios else scenario_names()
    estimator_list = list(estimators) if estimators else list(ESTIMATOR_ORDER)
    try:
        # Canonicalise through the registry (aliases become table labels).
        estimator_list = [get_estimator(name).name for name in estimator_list]
    except EstimationError as exc:
        raise ValueError(str(exc)) from None
    for name in dataset_list:
        get_dataset(name)  # raises on unknown names before any loading
    generators = {name: get_scenario(name) for name in scenario_list}

    seeds = tuple(spawn_seeds(seed, 4))
    networks: Dict[str, Network] = {name: load_dataset(name) for name in dataset_list}
    stats = {name: dict(net.describe()) for name, net in networks.items()}
    specs: List[TrialSpec] = []
    for dataset in dataset_list:
        network = networks[dataset]
        for scenario in scenario_list:
            if not generators[scenario].supports(network):
                continue
            for estimator in estimator_list:
                specs.append(
                    TrialSpec(
                        campaign="realworld",
                        topology=dataset,
                        scenario=scenario,
                        estimator=estimator,
                        seeds=seeds,
                        index=len(specs),
                        group=(seed, dataset, scenario),
                        # Simulation and fitting scale with the link count;
                        # the per-estimator budget multiplier (correlation
                        # estimators dominate a group) is registry metadata.
                        cost=(network.num_links / 32.0)
                        * get_estimator(estimator).cost_multiplier,
                        params={
                            "scale": scale,
                            "seed": seed,
                            "oracle": oracle,
                            "network": network,
                            "dataset_stats": stats[dataset],
                        },
                    )
                )
    if not specs:
        raise ValueError(
            "realworld sweep is empty: no supported (dataset, scenario) "
            f"combination among datasets={dataset_list} "
            f"scenarios={scenario_list}"
        )
    return specs


def _cell_key(kind: str, spec: TrialSpec) -> Tuple[Any, ...]:
    """Shard-cache key of a sweep cell's shared intermediate.

    One key shape for both the simulated experiment and its fit
    workspace, so the two can never drift apart and map different
    experiments onto one workspace.
    """
    return (kind, spec.topology, spec.scenario, spec.seeds, spec.params["oracle"])


def _shared_experiment(spec: TrialSpec, cache: Dict[Any, Any], network: Network):
    """Simulate (or fetch) the trial's scenario + observation run."""
    key = _cell_key("experiment", spec)
    if key not in cache:
        scale: ExperimentScale = spec.params["scale"]
        stream = stable_hash((spec.topology, spec.scenario))
        scenario = get_scenario(spec.scenario).build(
            network, derive_rng(spec.seeds[2], stream)
        )
        cache[key] = run_experiment(
            scenario,
            scale.num_intervals,
            prober=PathProber(num_packets=scale.num_packets),
            random_state=derive_rng(spec.seeds[3], stream),
            oracle=spec.params["oracle"],
        )
    return cache[key]


def _shared_workspace(spec: TrialSpec, cache: Dict[Any, Any], experiment):
    """The group's shared fit workspace (one warm cache per sweep cell)."""
    key = _cell_key("workspace", spec)
    if key not in cache:
        cache[key] = SharedFitWorkspace(experiment.observations)
    return cache[key]


def realworld_trial(spec: TrialSpec, cache: Dict[Any, Any]) -> Dict[str, Any]:
    """Run one sweep cell: simulate (shared per group) and fit."""
    network: Network = spec.params["network"]
    experiment = _shared_experiment(spec, cache, network)
    estimator = make_estimator(
        spec.estimator, EstimatorConfig(seed=spec.params["seed"])
    )
    metrics = evaluate_estimator(
        estimator,
        experiment,
        workspace=_shared_workspace(spec, cache, experiment),
    )
    return {"metrics": metrics}


def merge_realworld(results: Sequence[TrialResult]) -> RealWorldResult:
    """Fold trial payloads into a :class:`RealWorldResult`.

    Pure bookkeeping over spec-index-ordered results, so the merged sweep
    is bit-identical whatever sharding produced them.
    """
    merged = RealWorldResult()
    for trial in results:
        spec = trial.spec
        merged.rows[(spec.topology, spec.scenario, spec.estimator)] = (
            trial.payload["metrics"]
        )
        merged.dataset_stats.setdefault(spec.topology, spec.params["dataset_stats"])
    return merged


def run_realworld(
    scale: ExperimentScale = SMALL,
    seed: int = 7,
    oracle: bool = False,
    datasets: Optional[Sequence[str]] = None,
    scenarios: Optional[Sequence[str]] = None,
    estimators: Optional[Sequence[str]] = None,
    workers: Optional[int] = 1,
    progress: Optional[ProgressFn] = None,
    executor: Optional[str] = "process",
) -> RealWorldResult:
    """Run the real-topology sweep end to end.

    ``workers`` shards the sweep (``1`` = serial in this process,
    ``None`` = all local CPUs) across the requested ``executor``
    (``"process"`` or zero-copy ``"thread"``) with bit-identical
    results.
    """
    results = run_trials(
        realworld_trial,
        realworld_specs(
            scale,
            seed,
            oracle,
            datasets=datasets,
            scenarios=scenarios,
            estimators=estimators,
        ),
        workers=workers,
        progress=progress,
        executor=executor,
    )
    return merge_realworld(results)
