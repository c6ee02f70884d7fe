"""Internet-scale topology study: CSR routes and entry-run equations
against the dense design.

At 10k+-node AS graphs the eager structures (networkx router graphs,
per-path Python tuples, dense equation rows) dominate memory. This driver
derives the *same* monitored network twice per size — once through the
networkx route derivation, once through the CSR
:class:`~repro.topology.routing.CompactGraph` adjacency and
:class:`~repro.topology.routing.SparseRouteTable` routes — and fits it
once per arm with observed-only unknown admission. It records wall time,
structure bytes, peak traced allocation, and content digests of both the
derived routes and the final estimates.

The digests are the contract: every (size, seed) cell must produce
**bit-identical** routes and estimates in both arms, so the CSR path is a
pure memory/performance optimisation, never a semantic fork. The
``scaling-topology`` campaign and
``benchmarks/test_bench_scaling_topology.py`` assert exactly that, plus a
>= 3x structure-memory reduction at 1k nodes.

Two memory columns, two roles. ``structure_bytes`` is retained
construction structures (graph, router->AS map, route storage — measured
as a traced-allocation delta inside
:func:`~repro.datasets.base.derive_network_compact`) plus the equation
storage. Equations are always stored as entry runs; the ``sparse`` arm
reports their logical bytes
(:attr:`~repro.linalg.system.EquationSystem.storage_nbytes`), while the
``dense`` arm reports what the same system costs as dense rows,
:func:`dense_equation_bytes`. The >= 3x gate applies to this column.
``peak_traced_bytes`` is the whole-trial allocation peak, dominated by the
*shared* solve transients (the solve densifies the unique rows), so it is
reported for context but never gated on a ratio.
"""

from __future__ import annotations

import hashlib
import threading
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.datasets.base import DatasetSpec, derive_network_compact
from repro.datasets.synthetic import generate_powerlaw_edges
from repro.experiments.config import ExperimentScale, SMALL
from repro.metrics.reporting import format_table
from repro.obs.serve import read_rss_bytes
from repro.obs.timer import Timer
from repro.probability.base import EstimatorConfig
from repro.probability.registry import make_estimator
from repro.runner import ProgressFn, TrialResult, TrialSpec, run_trials
from repro.simulation.experiment import run_experiment
from repro.simulation.probing import PathProber
from repro.simulation.scenarios import ScenarioConfig, ScenarioKind, build_scenario
from repro.topology.graph import Network
from repro.util.rng import spawn_seeds

#: Node counts per experiment scale. ``paper`` reaches the ROADMAP's
#: 10k-node goal; ``small`` is the CI smoke size.
SIZES_BY_SCALE: Dict[str, List[int]] = {
    "tiny": [200, 500],
    "small": [1000, 2000],
    "paper": [1000, 5000, 10000],
}

#: Both arms — networkx routes + dense-row footprint, CSR routes + entry
#: runs — compared pairwise per size.
MODES = ("dense", "sparse")

#: Simulation horizon of the per-size fit (kept modest: the subject under
#: measurement is topology construction + estimation structure, not T).
NUM_INTERVALS = 100
NUM_PACKETS = 120

#: Only one trial traces allocations at a time: tracemalloc is
#: process-global, so concurrent thread-sharded trials would otherwise
#: pollute each other's peaks.
_TRACE_LOCK = threading.Lock()


@dataclass
class ScalingTopologyRow:
    """One (size, mode) cell of the sparse-vs-dense scaling study."""

    num_nodes: int
    mode: str
    num_links: int
    num_paths: int
    num_unknowns: int
    num_equations: int
    build_seconds: float
    fit_seconds: float
    construction_bytes: int
    equation_storage_bytes: int
    peak_traced_bytes: int
    rss_bytes: float
    route_digest: str
    estimate_digest: str

    @property
    def structure_bytes(self) -> int:
        """Construction structures + equation storage: the gated quantity."""
        return self.construction_bytes + self.equation_storage_bytes


@dataclass
class ScalingTopologyResult:
    """All cells, with pairwise identity and memory-ratio accessors."""

    rows: List[ScalingTopologyRow] = field(default_factory=list)

    def cell(self, num_nodes: int, mode: str) -> Optional[ScalingTopologyRow]:
        for row in self.rows:
            if row.num_nodes == num_nodes and row.mode == mode:
                return row
        return None

    def sizes(self) -> List[int]:
        return sorted({row.num_nodes for row in self.rows})

    def bit_identical(self) -> bool:
        """Dense and sparse digests agree at every size with both modes."""
        checked = False
        for size in self.sizes():
            dense = self.cell(size, "dense")
            sparse = self.cell(size, "sparse")
            if dense is None or sparse is None:
                continue
            checked = True
            if (
                dense.route_digest != sparse.route_digest
                or dense.estimate_digest != sparse.estimate_digest
            ):
                return False
        return checked

    def memory_ratios(self) -> Dict[int, float]:
        """Dense / sparse structure bytes, per size (the >= 3x gate)."""
        ratios: Dict[int, float] = {}
        for size in self.sizes():
            dense = self.cell(size, "dense")
            sparse = self.cell(size, "sparse")
            if dense is None or sparse is None or sparse.structure_bytes == 0:
                continue
            ratios[size] = dense.structure_bytes / sparse.structure_bytes
        return ratios

    def to_table(self) -> str:
        body = [
            [
                row.num_nodes,
                row.mode,
                row.num_links,
                row.num_paths,
                row.num_unknowns,
                row.num_equations,
                f"{row.build_seconds:.3f}",
                f"{row.fit_seconds:.3f}",
                f"{row.structure_bytes / 1e6:.2f}",
                f"{row.peak_traced_bytes / 1e6:.2f}",
                f"{row.rss_bytes / 1e6:.1f}",
                row.estimate_digest[:12],
            ]
            for row in sorted(self.rows, key=lambda r: (r.num_nodes, r.mode))
        ]
        return format_table(
            [
                "nodes",
                "mode",
                "links",
                "paths",
                "unknowns",
                "equations",
                "build s",
                "fit s",
                "struct MB",
                "peak MB",
                "rss MB",
                "estimate digest",
            ],
            body,
        )


def dense_equation_bytes(num_equations: int, num_unknowns: int) -> int:
    """Logical bytes of an equation system stored as dense rows.

    ``num_equations x num_unknowns`` float64 cells plus a rhs, weight and
    prior flag per row — the footprint the dense arm of the study is
    measured against.
    """
    return num_equations * num_unknowns * 8 + num_equations * (8 + 8 + 1)


def _dataset_spec(num_nodes: int, seed: int) -> DatasetSpec:
    """Monitoring deployment per size: bounded probing over a huge graph."""
    return DatasetSpec(
        num_vantage_points=8,
        num_destinations=max(10, min(200, num_nodes // 5)),
        num_paths=250,
        seed=seed,
    )


def _digest_routes(network: Network) -> str:
    """Content digest of the derived links and monitored paths."""
    digest = hashlib.sha256()
    for link in network.links:
        digest.update(
            f"L{link.index}:{link.src}:{link.dst}:{link.asn}:"
            f"{sorted(link.router_links)}\n".encode()
        )
    for path in network.paths:
        digest.update(f"P{path.index}:{path.links}\n".encode())
    return digest.hexdigest()


def _digest_estimates(model: Any) -> str:
    """Content digest of the fitted estimates (exact float bits)."""
    digest = hashlib.sha256()
    estimates = model._good
    identifiable = model._identifiable
    for subset in sorted(estimates, key=sorted):
        key = ",".join(str(link) for link in sorted(subset))
        digest.update(
            f"{key}={float(estimates[subset]).hex()}"
            f":{bool(identifiable[subset])}\n".encode()
        )
    return digest.hexdigest()


def scaling_topology_specs(
    scale: ExperimentScale,
    seed: int,
    sizes: Optional[List[int]] = None,
) -> List[TrialSpec]:
    """One trial per (size, mode) cell; both modes share the cell seed."""
    sizes = sizes or SIZES_BY_SCALE.get(scale.name, SIZES_BY_SCALE["small"])
    specs: List[TrialSpec] = []
    for size in sizes:
        for mode in MODES:
            specs.append(
                TrialSpec(
                    campaign="scaling-topology",
                    topology=f"powerlaw-{size}",
                    scenario="Random",
                    estimator=mode,
                    seeds=(seed,),
                    index=len(specs),
                    group=(seed, size, mode),
                    cost=float(size),
                    params={"num_nodes": size, "mode": mode},
                )
            )
    return specs


def scaling_topology_trial(
    spec: TrialSpec, cache: Dict[Any, Any]
) -> ScalingTopologyRow:
    """Build + fit one (size, mode) cell under allocation tracing."""
    del cache  # every cell is self-contained; nothing to share
    num_nodes = int(spec.params["num_nodes"])
    mode = str(spec.params["mode"])
    sparse = mode == "sparse"
    seed = spec.seeds[0]
    seeds = spawn_seeds(seed, 3)
    build_stats: Dict[str, int] = {}
    with _TRACE_LOCK:
        tracemalloc.start()
        try:
            with Timer() as build_timer:
                src, dst = generate_powerlaw_edges(
                    num_nodes, attachment=2, seed=seeds[0]
                )
                network = derive_network_compact(
                    num_nodes,
                    src,
                    dst,
                    _dataset_spec(num_nodes, seeds[0]),
                    f"powerlaw-{num_nodes}",
                    sparse=sparse,
                    stats=build_stats,
                )
            with Timer() as fit_timer:
                # RANDOM placement: a pure AS-level graph has no shared
                # router-level edges (every vertex is one AS), so the
                # No-Independence scenario cannot place correlated groups.
                scenario = build_scenario(
                    network,
                    ScenarioConfig(kind=ScenarioKind.RANDOM),
                    seeds[1],
                )
                experiment = run_experiment(
                    scenario,
                    NUM_INTERVALS,
                    prober=PathProber(num_packets=NUM_PACKETS),
                    random_state=seeds[2],
                )
                estimator = make_estimator(
                    "Correlation-complete",
                    # Observed-only admission (the lazily-discovered
                    # unknown policy) in both arms.
                    EstimatorConfig(requested_subset_size=1, seed=seed),
                )
                model = estimator.fit(network, experiment.observations)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    report = model.report  # type: ignore[attr-defined]
    equation_bytes = (
        report.equation_storage_bytes
        if sparse
        else dense_equation_bytes(report.num_equations, report.num_unknowns)
    )
    return ScalingTopologyRow(
        num_nodes=num_nodes,
        mode=mode,
        num_links=network.num_links,
        num_paths=network.num_paths,
        num_unknowns=report.num_unknowns,
        num_equations=report.num_equations,
        build_seconds=build_timer.elapsed,
        fit_seconds=fit_timer.elapsed,
        construction_bytes=int(build_stats.get("construction_bytes", 0)),
        equation_storage_bytes=int(equation_bytes),
        peak_traced_bytes=int(peak),
        rss_bytes=read_rss_bytes(),
        route_digest=_digest_routes(network),
        estimate_digest=_digest_estimates(model),
    )


def merge_scaling_topology(
    results: Sequence[TrialResult],
) -> ScalingTopologyResult:
    """Collect cells in (size, mode) order."""
    result = ScalingTopologyResult()
    for trial in results:
        result.rows.append(trial.payload)
    result.rows.sort(key=lambda row: (row.num_nodes, row.mode))
    return result


def run_scaling_topology(
    scale: ExperimentScale = SMALL,
    seed: int = 17,
    sizes: Optional[List[int]] = None,
    workers: Optional[int] = 1,
    progress: Optional[ProgressFn] = None,
    executor: Optional[str] = "process",
) -> ScalingTopologyResult:
    """Sweep both arms' construction and estimation across sizes."""
    results = run_trials(
        scaling_topology_trial,
        scaling_topology_specs(scale, seed, sizes),
        workers=workers,
        progress=progress,
        executor=executor,
    )
    return merge_scaling_topology(results)
