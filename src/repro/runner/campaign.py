"""Named campaigns: declarative sweeps over the paper's experiments.

A *campaign* bundles a sweep builder (trial function + specs), a merge, a
text renderer, and a machine-readable summary, keyed by name
(``figure3`` / ``figure4`` / ``scaling`` / ``ablation``). Campaigns run
from the CLI (``repro-tomography campaign <name-or-spec.json>``) or
programmatically via :func:`run_campaign`, optionally replicated across
derived seeds — every replicate's trials share one process pool, so a
multi-seed sweep parallelises across seeds as well as cells.

A JSON campaign spec mirrors :class:`CampaignSpec`::

    {"campaign": "figure4", "scale": "small", "seed": 2,
     "workers": 4, "replicates": 3, "output": "results"}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.experiments import ablation as _ablation
from repro.experiments import figure3 as _figure3
from repro.experiments import figure4 as _figure4
from repro.experiments import mitigation as _mitigation
from repro.experiments import realworld as _realworld
from repro.experiments import scaling as _scaling
from repro.experiments import scaling_topology as _scaling_topology
from repro.experiments.config import ExperimentScale, scale_by_name
from repro.obs import flush, global_registry, metrics_enabled, render_json, span
from repro.runner.pool import EXECUTORS, ProgressFn, ShardReport, run_trials
from repro.runner.spec import TrialResult, TrialSpec
from repro.util.rng import spawn_seeds


@dataclass
class CampaignDefinition:
    """How to build, merge, and present one named sweep.

    ``build`` receives the resolved :class:`CampaignSpec` (so campaigns
    that accept dataset/scenario/estimator filters can honour them), the
    experiment scale, and the replicate's seed. ``accepts_filters`` marks
    campaigns that honour ``--dataset`` / ``--scenario`` /
    ``--estimator``; specs carrying filters for any other campaign are
    rejected at validation time.
    """

    name: str
    description: str
    default_seed: int
    trial_fn: Callable[[TrialSpec, Dict[Any, Any]], Any]
    build: Callable[["CampaignSpec", ExperimentScale, int], List[TrialSpec]]
    merge: Callable[[Sequence[TrialResult]], Any]
    render: Callable[[Any], str]
    summarize: Callable[[Any], Dict[str, Any]]
    accepts_filters: bool = False
    #: Whether the campaign honours ``--policy`` (mitigation-policy filter).
    accepts_policies: bool = False


def _render_figure3(result: _figure3.Figure3Result) -> str:
    return (
        "Figure 3(a) — detection rate\n"
        + result.to_table("detection")
        + "\n\nFigure 3(b) — false-positive rate\n"
        + result.to_table("fp")
    )


def _summarize_figure3(result: _figure3.Figure3Result) -> Dict[str, Any]:
    return {
        "detection_rate": {
            f"{scenario} | {algorithm}": metrics.detection_rate
            for (scenario, algorithm), metrics in sorted(result.rows.items())
        },
        "false_positive_rate": {
            f"{scenario} | {algorithm}": metrics.false_positive_rate
            for (scenario, algorithm), metrics in sorted(result.rows.items())
        },
    }


def _render_figure4(result: _figure4.Figure4Result) -> str:
    lines = [
        "Figure 4(a) — mean absolute error, Brite",
        result.to_table("brite"),
        "",
        "Figure 4(b) — mean absolute error, Sparse",
        result.to_table("sparse"),
        "",
        "Figure 4(d) — Correlation-complete, links vs correlation subsets",
        result.to_subset_table(),
    ]
    return "\n".join(lines)


def _summarize_figure4(result: _figure4.Figure4Result) -> Dict[str, Any]:
    return {
        "mean_absolute_error": {
            f"{topology} | {scenario} | {estimator}": (metrics.mean_absolute_error)
            for (topology, scenario, estimator), metrics in sorted(result.rows.items())
        },
        "subset_rows": {
            topology: list(errors)
            for topology, errors in sorted(result.subset_rows.items())
        },
    }


def _render_scaling(result: _scaling.ScalingResult) -> str:
    return (
        "Algorithm 1 scaling (equations formed vs naive 2^|P*| bound)\n"
        + result.to_table()
    )


def _summarize_scaling(result: _scaling.ScalingResult) -> Dict[str, Any]:
    return {
        "rows": [
            {
                "requested_subset_size": row.requested_subset_size,
                "num_unknowns": row.num_unknowns,
                "num_equations": row.num_equations,
                "rank": row.rank,
                "num_identifiable": row.num_identifiable,
                "seconds": row.seconds,
            }
            for row in result.rows
        ],
        "num_paths": result.num_paths,
    }


def _render_scaling_topology(
    result: _scaling_topology.ScalingTopologyResult,
) -> str:
    ratios = ", ".join(
        f"{size}: {ratio:.1f}x"
        for size, ratio in sorted(result.memory_ratios().items())
    )
    return (
        "Sparse vs dense internet-scale estimation path\n"
        + result.to_table()
        + f"\n\nbit-identical across modes: {result.bit_identical()}"
        + (f"\ndense/sparse structure-memory ratio: {ratios}" if ratios else "")
    )


def _summarize_scaling_topology(
    result: _scaling_topology.ScalingTopologyResult,
) -> Dict[str, Any]:
    return {
        "rows": [
            {
                "num_nodes": row.num_nodes,
                "mode": row.mode,
                "num_links": row.num_links,
                "num_paths": row.num_paths,
                "num_unknowns": row.num_unknowns,
                "num_equations": row.num_equations,
                "build_seconds": row.build_seconds,
                "fit_seconds": row.fit_seconds,
                "construction_bytes": row.construction_bytes,
                "equation_storage_bytes": row.equation_storage_bytes,
                "structure_bytes": row.structure_bytes,
                "peak_traced_bytes": row.peak_traced_bytes,
                "rss_bytes": row.rss_bytes,
                "route_digest": row.route_digest,
                "estimate_digest": row.estimate_digest,
            }
            for row in result.rows
        ],
        "bit_identical": result.bit_identical(),
        "memory_ratios": {
            str(size): ratio
            for size, ratio in sorted(result.memory_ratios().items())
        },
    }


def _render_ablation(result: _ablation.AblationResult) -> str:
    return (
        "Correlation-complete solve ablation (mean abs link error, "
        "No-Independence scenario)\n" + result.to_table()
    )


def _render_realworld(result: _realworld.RealWorldResult) -> str:
    lines = []
    for dataset in result.datasets():
        stats = result.dataset_stats.get(dataset, {})
        lines.append(
            f"{dataset} — mean absolute error "
            f"({stats.get('num_links', 0):.0f} links, "
            f"{stats.get('num_paths', 0):.0f} paths)"
        )
        lines.append(result.to_table(dataset))
        lines.append("")
    return "\n".join(lines).rstrip()


def _summarize_realworld(result: _realworld.RealWorldResult) -> Dict[str, Any]:
    return {
        "mean_absolute_error": {
            f"{dataset} | {scenario} | {estimator}": (metrics.mean_absolute_error)
            for (dataset, scenario, estimator), metrics in sorted(result.rows.items())
        },
        "dataset_stats": {
            dataset: stats
            for dataset, stats in sorted(result.dataset_stats.items())
        },
    }


def _split_filter(value: Optional[str]) -> Optional[List[str]]:
    """Parse a comma-separated CLI/spec filter into a name list."""
    if value is None:
        return None
    names = [name.strip() for name in value.split(",") if name.strip()]
    return names or None


def _render_mitigation(result: _mitigation.MitigationResult) -> str:
    lines = []
    for topology in result.topologies():
        for scenario in result.scenarios():
            if not any(
                key[0] == topology and key[1] == scenario for key in result.rows
            ):
                continue
            lines.append(
                f"{topology} / {scenario} — residual path-congestion rate "
                "(reduction vs pre)"
            )
            lines.append(result.to_table(topology, scenario))
            lines.append("")
    return "\n".join(lines).rstrip()


def _summarize_mitigation(result: _mitigation.MitigationResult) -> Dict[str, Any]:
    return {
        "cells": {
            f"{topology} | {scenario} | {policy} | {estimator}": report
            for (topology, scenario, policy, estimator), report in sorted(
                result.rows.items()
            )
        }
    }


def _summarize_ablation(result: _ablation.AblationResult) -> Dict[str, Any]:
    return {
        "mean_absolute_error": {
            f"{variant} | {topology}": error
            for (variant, topology), error in sorted(result.errors.items())
        }
    }


#: Registered campaigns by name.
CAMPAIGNS: Dict[str, CampaignDefinition] = {
    "figure3": CampaignDefinition(
        name="figure3",
        description="Boolean-inference accuracy across the five scenarios",
        default_seed=1,
        trial_fn=_figure3.figure3_trial,
        build=lambda spec, scale, seed: _figure3.figure3_specs(
            scale, seed, spec.oracle
        ),
        merge=_figure3.merge_figure3,
        render=_render_figure3,
        summarize=_summarize_figure3,
    ),
    "figure4": CampaignDefinition(
        name="figure4",
        description="Probability Computation accuracy (all four panels)",
        default_seed=2,
        trial_fn=_figure4.figure4_trial,
        build=lambda spec, scale, seed: _figure4.figure4_specs(
            scale, seed, spec.oracle
        ),
        merge=_figure4.merge_figure4,
        render=_render_figure4,
        summarize=_summarize_figure4,
    ),
    "scaling": CampaignDefinition(
        name="scaling",
        description="Algorithm 1 equation-count / runtime scaling sweep",
        default_seed=3,
        trial_fn=_scaling.scaling_trial,
        build=lambda spec,
        scale,
        seed: _scaling.scaling_specs(scale, seed),
        merge=_scaling.merge_scaling,
        render=_render_scaling,
        summarize=_summarize_scaling,
    ),
    "scaling-topology": CampaignDefinition(
        name="scaling-topology",
        description=(
            "Sparse vs dense internet-scale path: memory, runtime, and "
            "bit-identity across 1k-10k-node power-law topologies"
        ),
        default_seed=17,
        trial_fn=_scaling_topology.scaling_topology_trial,
        build=lambda spec, scale, seed: (
            _scaling_topology.scaling_topology_specs(scale, seed)
        ),
        merge=_scaling_topology.merge_scaling_topology,
        render=_render_scaling_topology,
        summarize=_summarize_scaling_topology,
    ),
    "ablation": CampaignDefinition(
        name="ablation",
        description="Correlation-complete solve refinement ablation",
        default_seed=5,
        trial_fn=_ablation.ablation_trial,
        build=lambda spec,
        scale,
        seed: _ablation.ablation_specs(scale, seed),
        merge=_ablation.merge_ablation,
        render=_render_ablation,
        summarize=_summarize_ablation,
    ),
    "realworld": CampaignDefinition(
        name="realworld",
        description=("Registered datasets x scenario library x estimators sweep"),
        default_seed=7,
        trial_fn=_realworld.realworld_trial,
        build=lambda spec, scale, seed: _realworld.realworld_specs(
            scale,
            seed,
            spec.oracle,
            datasets=_split_filter(spec.dataset),
            scenarios=_split_filter(spec.scenario),
            estimators=_split_filter(spec.estimator),
        ),
        merge=_realworld.merge_realworld,
        render=_render_realworld,
        summarize=_summarize_realworld,
        accepts_filters=True,
    ),
    "mitigation": CampaignDefinition(
        name="mitigation",
        description=(
            "Closed-loop mitigation sweep: estimate, act, re-simulate, "
            "re-estimate (policy x estimator x scenario)"
        ),
        default_seed=13,
        trial_fn=_mitigation.mitigation_trial,
        build=lambda spec, scale, seed: _mitigation.mitigation_specs(
            scale,
            seed,
            spec.oracle,
            datasets=_split_filter(spec.dataset),
            scenarios=_split_filter(spec.scenario),
            estimators=_split_filter(spec.estimator),
            policies=_split_filter(spec.policy),
        ),
        merge=_mitigation.merge_mitigation,
        render=_render_mitigation,
        summarize=_summarize_mitigation,
        accepts_filters=True,
        accepts_policies=True,
    ),
}


@dataclass
class CampaignSpec:
    """A declarative sweep request (CLI flags or a JSON file).

    ``replicates > 1`` reruns the sweep at that many seeds spawned
    deterministically from ``seed``; all replicates' trials are sharded
    through a single pool. ``executor`` picks how shards run
    (``"process"`` — the default — or zero-copy ``"thread"`` shards;
    both give the same bits). ``dataset`` / ``scenario`` / ``estimator``
    restrict a filter-accepting campaign (``realworld``, ``mitigation``)
    to comma-separated registered names (estimator aliases are accepted —
    see :mod:`repro.probability.registry`); ``policy`` restricts a
    policy-accepting campaign (``mitigation``) to registered mitigation
    policies. ``serve_port`` exposes live telemetry over HTTP for the
    duration of the run (``/metrics`` and friends — see
    :mod:`repro.obs.serve`), promoting ``REPRO_OBS=off`` to ``metrics``
    so the scrape is never empty.
    """

    campaign: str
    scale: str = "small"
    seed: Optional[int] = None
    oracle: bool = False
    workers: Optional[int] = 1
    replicates: int = 1
    output: Optional[str] = None
    dataset: Optional[str] = None
    scenario: Optional[str] = None
    estimator: Optional[str] = None
    policy: Optional[str] = None
    executor: Optional[str] = "process"
    serve_port: Optional[int] = None

    def __post_init__(self) -> None:
        if self.campaign not in CAMPAIGNS:
            raise ValueError(
                f"unknown campaign {self.campaign!r}; "
                f"known campaigns: {sorted(CAMPAIGNS)}"
            )
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.serve_port is not None and not 0 < self.serve_port < 65536:
            raise ValueError(
                f"serve_port must be in [1, 65535], got {self.serve_port}"
            )
        if self.workers is not None and self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = all local CPUs) or null")
        if self.executor is not None and self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; "
                f"expected one of {list(EXECUTORS)}"
            )
        definition = CAMPAIGNS[self.campaign]
        if (
            self.dataset or self.scenario or self.estimator
        ) and not definition.accepts_filters:
            raise ValueError(
                f"campaign {self.campaign!r} does not accept "
                "dataset/scenario/estimator filters"
            )
        if self.policy and not definition.accepts_policies:
            raise ValueError(
                f"campaign {self.campaign!r} does not accept a policy filter"
            )
        if self.policy:
            from repro.exceptions import MitigationError
            from repro.mitigation.policies import get_policy

            for name in _split_filter(self.policy) or []:
                try:
                    get_policy(name)
                except MitigationError as exc:
                    raise ValueError(str(exc)) from None
        if self.estimator:
            from repro.exceptions import EstimationError
            from repro.probability.registry import get_estimator

            for name in _split_filter(self.estimator) or []:
                try:
                    get_estimator(name)
                except EstimationError as exc:
                    raise ValueError(str(exc)) from None
        if self.dataset:
            from repro.datasets.registry import get_dataset
            from repro.exceptions import DatasetError

            for name in _split_filter(self.dataset) or []:
                try:
                    get_dataset(name)
                except DatasetError as exc:
                    raise ValueError(str(exc)) from None
        if self.scenario:
            from repro.exceptions import ScenarioError
            from repro.simulation.library import get_scenario

            for name in _split_filter(self.scenario) or []:
                try:
                    get_scenario(name)
                except ScenarioError as exc:
                    raise ValueError(str(exc)) from None


def load_campaign_spec(path: Union[str, Path]) -> CampaignSpec:
    """Parse a JSON campaign spec file into a :class:`CampaignSpec`."""
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError(f"campaign spec {path} must be a JSON object")
    known = {f for f in CampaignSpec.__dataclass_fields__}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(
            f"campaign spec {path} has unknown keys {sorted(unknown)}; "
            f"expected a subset of {sorted(known)}"
        )
    if "campaign" not in raw:
        raise ValueError(f"campaign spec {path} is missing 'campaign'")
    return CampaignSpec(**raw)


@dataclass
class ReplicateResult:
    """One replicate's merged result plus its presentations."""

    seed: int
    result: Any
    rendered: str
    summary: Dict[str, Any]


@dataclass
class CampaignOutcome:
    """Everything a campaign run produced, ready to print or persist."""

    spec: CampaignSpec
    seeds: List[int]
    elapsed: float
    num_trials: int
    #: High-water-mark RSS of the parent process over the run (bytes;
    #: report-only — absolute values are noisy on shared 1-core runners).
    peak_rss_bytes: float = 0.0
    shards: List[ShardReport] = field(default_factory=list)
    replicates: List[ReplicateResult] = field(default_factory=list)

    def to_json_dict(self) -> Dict[str, Any]:
        """The on-disk form of the outcome (results + per-shard timing)."""
        return {
            "campaign": self.spec.campaign,
            "scale": self.spec.scale,
            "oracle": self.spec.oracle,
            "workers": self.spec.workers,
            "executor": self.spec.executor,
            "dataset": self.spec.dataset,
            "scenario": self.spec.scenario,
            "estimator": self.spec.estimator,
            "policy": self.spec.policy,
            "seeds": self.seeds,
            "num_trials": self.num_trials,
            "elapsed_s": round(self.elapsed, 4),
            "peak_rss_bytes": int(self.peak_rss_bytes),
            "shards": [
                {
                    "shard": report.shard,
                    "elapsed_s": round(report.elapsed, 4),
                    "queue_wait_s": round(report.queue_wait, 4),
                    "worker_pid": report.worker_pid,
                    "trials": [
                        {"trial": name, "elapsed_s": round(elapsed, 4)}
                        for name, elapsed in report.trials
                    ],
                }
                for report in self.shards
            ],
            "replicates": [
                {
                    "seed": replicate.seed,
                    "summary": replicate.summary,
                    "rendered": replicate.rendered,
                }
                for replicate in self.replicates
            ],
        }


def run_campaign(
    spec: CampaignSpec, progress: Optional[ProgressFn] = None
) -> CampaignOutcome:
    """Run a named sweep, possibly replicated, through one shared pool."""
    definition = CAMPAIGNS[spec.campaign]
    scale = scale_by_name(spec.scale)
    master = definition.default_seed if spec.seed is None else spec.seed
    if spec.replicates == 1:
        seeds = [master]
    else:
        seeds = [int(s) for s in spawn_seeds(master, spec.replicates)]
    specs: List[TrialSpec] = []
    replicate_slices: List[int] = []
    for seed in seeds:
        batch = definition.build(spec, scale, seed)
        offset = len(specs)
        specs.extend(replace(trial, index=offset + i) for i, trial in enumerate(batch))
        replicate_slices.append(len(batch))
    shards: List[ShardReport] = []

    def record(report: ShardReport) -> None:
        shards.append(report)
        if progress is not None:
            progress(report)

    server = None
    if spec.serve_port is not None:
        from repro.obs.serve import TelemetryServer, ensure_metrics_mode

        ensure_metrics_mode()
        server = TelemetryServer(port=spec.serve_port).start()
    try:
        start = perf_counter()
        with span(
            "campaign",
            campaign=spec.campaign,
            scale=spec.scale,
            replicates=spec.replicates,
            trials=len(specs),
        ):
            results = run_trials(
                definition.trial_fn,
                specs,
                workers=spec.workers,
                progress=record,
                executor=spec.executor,
            )
        elapsed = perf_counter() - start
    finally:
        if server is not None:
            server.stop()
    from repro.obs.serve import read_peak_rss_bytes

    outcome = CampaignOutcome(
        spec=spec,
        seeds=seeds,
        elapsed=elapsed,
        num_trials=len(specs),
        peak_rss_bytes=read_peak_rss_bytes(),
        shards=sorted(shards, key=lambda report: report.shard),
    )
    offset = 0
    for seed, size in zip(seeds, replicate_slices):
        merged = definition.merge(results[offset : offset + size])
        outcome.replicates.append(
            ReplicateResult(
                seed=seed,
                result=merged,
                rendered=definition.render(merged),
                summary=definition.summarize(merged),
            )
        )
        offset += size
    return outcome


def validate_output_dir(output_dir: Union[str, Path]) -> Path:
    """Ensure the output directory exists (creating it) and is writable.

    Called *before* a campaign starts computing, so a bad ``--output``
    fails in milliseconds with a clear message instead of a traceback
    after minutes of compute.

    Raises
    ------
    ValueError
        When the path exists but is not a directory, cannot be created,
        or is not writable.
    """
    import os

    directory = Path(output_dir)
    if directory.exists() and not directory.is_dir():
        raise ValueError(
            f"output path {directory} exists and is not a directory"
        )
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(
            f"cannot create output directory {directory}: {exc}"
        ) from None
    if not os.access(directory, os.W_OK):
        raise ValueError(f"output directory {directory} is not writable")
    return directory


def write_outcome(outcome: CampaignOutcome, output_dir: Union[str, Path]) -> Path:
    """Persist a campaign outcome as JSON; returns the written path.

    When telemetry is on, a metrics snapshot lands next to the result
    file (``<result>_metrics.json``) and the span sink is flushed so a
    ``telemetry.jsonl`` routed into the output directory is complete the
    moment the results are.
    """
    directory = validate_output_dir(output_dir)
    seed_tag = "-".join(str(seed) for seed in outcome.seeds[:3])
    if len(outcome.seeds) > 3:
        seed_tag += f"-and-{len(outcome.seeds) - 3}-more"
    path = directory / (
        f"{outcome.spec.campaign}_{outcome.spec.scale}_seed{seed_tag}.json"
    )
    path.write_text(json.dumps(outcome.to_json_dict(), indent=2) + "\n")
    if metrics_enabled():
        snapshot_path = path.with_name(path.stem + "_metrics.json")
        snapshot_path.write_text(
            render_json(global_registry().snapshot()) + "\n"
        )
        flush()
    return path
