"""Per-layer tracing from outside the program.

The benchmark never edits ``src/``. Instead, :func:`instrument_layers`
replaces each layer's public entry point *where its caller looks the name
up* (a module attribute or a class attribute) with a wrapper that records
a span into an in-memory :class:`Tracer`. Spans use the ``repro.obs``
JSONL event schema (``type``, ``name``, ``id``, ``parent``, ``pid``,
``t_start``, ``t_end``, ``dur``, ``status``, ``attrs``), so self time comes
from :func:`repro.obs.render.aggregate_spans`, and a written trace opens
with ``repro-tomography obs spans --tree``.

Wrappers are installed only for traced runs. While the tracer is disabled
(the untraced reference round of a traced run) a wrapper costs one
attribute test and a call.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Units of per-layer metrics that are counts or ratios of counts; these
#: must repeat exactly across runs of one seed.
COUNT_UNITS = ("count", "ratio")

#: ``after(tracer, event, args, result)`` hook of a wrapped call.
AfterFn = Callable[["Tracer", dict, tuple, Any], None]


class Tracer:
    """Span and counter recorder shared by every layer wrapper of one run."""

    def __init__(self) -> None:
        self.enabled = False
        self.events: List[dict] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[Tuple[str, str]] = []
        self._seq = 0
        self._label = "setup"

    def reset(self) -> None:
        """Drop recorded spans and counts (between traced passes)."""
        self.events = []
        self.counts = defaultdict(float)
        self._seq = 0

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] += amount

    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span."""
        return self._stack[-1][1] if self._stack else None

    def nested(self, name: str) -> bool:
        """Whether a span ``name`` is open around the innermost span."""
        return any(open_name == name for _, open_name in self._stack[:-1])

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Optional[dict]]:
        """Record one span; yields its event dict (None when disabled).

        Span ids are ``<op label>:<sequence>``, so the spans of one op
        share the op's id prefix and its ``attrs["op"]``.
        """
        if not self.enabled:
            yield None
            return
        self._seq += 1
        span_id = f"{self._label}:{self._seq}"
        event = {
            "type": "span",
            "name": name,
            "id": span_id,
            "parent": self._stack[-1][0] if self._stack else None,
            "pid": os.getpid(),
            "t_start": time.monotonic(),
            "t_end": 0.0,
            "dur": 0.0,
            "status": "ok",
            "attrs": dict(attrs, op=self._label),
        }
        self._stack.append((span_id, name))
        try:
            yield event
        except BaseException:
            event["status"] = "error"
            raise
        finally:
            event["t_end"] = time.monotonic()
            event["dur"] = event["t_end"] - event["t_start"]
            self._stack.pop()
            self.events.append(event)

    @contextmanager
    def scope(self, label: str) -> Iterator[None]:
        """Label the spans opened inside with ``label`` (no span of its own)."""
        saved = self._label
        self._label = label
        try:
            yield
        finally:
            self._label = saved

    @contextmanager
    def op(self, label: str) -> Iterator[None]:
        """One closed-loop operation: a root ``op`` span labelled ``label``."""
        with self.scope(label), self.span("op"):
            yield

    def as_op(self, trial_fn: Callable) -> Callable:
        """``trial_fn`` wrapped so that each runner trial is one op."""
        if not self.enabled:
            return trial_fn

        def traced_trial(spec, cache):
            self.count("runner.trials")
            with self.op(f"{self._label}.t{spec.index}"):
                return trial_fn(spec, cache)

        return traced_trial

    def instrument(
        self, owner: Any, attr: str, name: Any, after: Optional[AfterFn] = None
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is a span name, or a callable ``(tracer) -> name`` evaluated
        at call time. ``after`` runs on success to record counts; it may
        rename the span through ``event["name"]``.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            span_name = name(tracer) if callable(name) else name
            with tracer.span(span_name) as event:
                result = original(*args, **kwargs)
                if after is not None:
                    after(tracer, event, args, result)
            return result

        setattr(owner, attr, wrapper)


# ---------------------------------------------------------------------------
# Counters recorded at the layer boundaries
# ---------------------------------------------------------------------------
def _count_call(key: str) -> AfterFn:
    """An ``after`` hook that counts the wrapped calls under ``key``."""
    return lambda tracer, event, args, result: tracer.count(key)


def _count_network(tracer: Tracer, event: dict, args: tuple, network: Any) -> None:
    tracer.count("topology.links", network.num_links)
    tracer.count("topology.paths", network.num_paths)


def _count_experiment(tracer: Tracer, event: dict, args: tuple, result: Any) -> None:
    # run_experiment(scenario, num_intervals, ...)
    tracer.count("simulation.intervals", int(args[1]))


def _count_union_popcounts(tracer: Tracer, event: dict, args: tuple, result: Any) -> None:
    # union_popcounts(self, words, indices, lengths, scratch): each member
    # row of each path set contributes its ceil(T/64) words to the union.
    words, lengths = args[1], args[3]
    tracer.count("model.kernel_calls")
    tracer.count("model.kernel_path_sets", int(lengths.shape[0]))
    tracer.count("model.kernel_words", int(lengths.sum()) * int(words.shape[1]))


def _count_row_popcounts(tracer: Tracer, event: dict, args: tuple, result: Any) -> None:
    # congestion_counts(self, words): one pass over the whole word store.
    tracer.count("model.kernel_calls")
    tracer.count("model.kernel_words", int(args[1].size))


def _count_fit(tracer: Tracer, event: dict, args: tuple, model: Any) -> None:
    report = model.report
    tracer.count("probability.fits")
    tracer.count("probability.unknowns", report.num_unknowns)
    tracer.count("probability.equations", report.num_equations)
    tracer.count("probability.rank", report.rank)
    tracer.count("probability.identifiable", report.num_identifiable)
    tracer.count("probability.cache_hits", report.frequency_cache_hits)
    tracer.count("probability.cache_misses", report.frequency_cache_misses)
    for stage, seconds in report.stage_seconds.items():
        tracer.count(f"stage_seconds.{stage}", seconds)


def _count_decompose(tracer: Tracer, event: dict, args: tuple, result: Any) -> None:
    # rows_matrix delegates to decompose_batch: count each candidate once.
    if not tracer.nested("probability.decompose"):
        tracer.count("probability.candidate_rows", len(args[1]))


def _count_update(tracer: Tracer, event: dict, args: tuple, result: Any) -> None:
    # null_space_update(basis (n, p), row): Algorithm 2 re-orthonormalises
    # an (n, p-1) block, so its dense work grows as n * p^2.
    rows, nullity = args[0].shape
    tracer.count("linalg.update_calls")
    tracer.count("linalg.update_work", rows * nullity * nullity)


def _count_solve(tracer: Tracer, event: dict, args: tuple, result: Any) -> None:
    system = args[0]
    tracer.count("linalg.solve_calls")
    tracer.count("linalg.solve_cells", len(system) * system.num_unknowns)


def _name_prefetch(tracer: Tracer) -> str:
    # The engine prefetches the carried workload before the window's fit;
    # Correlation-complete also prefetches its selectors inside the fit.
    parent = tracer.parent_name() or ""
    return "streaming.prefetch" if parent.startswith("streaming.") else "probability.prefetch"


def _classify_ingest(tracer: Tracer, event: dict, args: tuple, emitted: Any) -> None:
    # One ingest call of CHUNK rounds completes at most one window; the
    # engine's counters tell a refit (emitted or skipped) from an append.
    engine = args[0]
    attempts = engine.refits + engine.skipped_windows
    seen = tracer.counts["streaming.refits"] + tracer.counts["streaming.skipped_windows"]
    event["name"] = "streaming.refit" if attempts > seen else "streaming.append"
    tracer.counts["streaming.refits"] = engine.refits
    tracer.counts["streaming.skipped_windows"] = engine.skipped_windows


def _count_plan(tracer: Tracer, event: dict, args: tuple, plan: Any) -> None:
    tracer.count("mitigation.paths_disturbed", plan.paths_disturbed)


def instrument_layers(tracer: Tracer) -> None:
    """Wrap every layer entry point the four workloads reach.

    ``from x import f`` binds ``f`` in the importing module, so each such
    module is patched; methods are patched on their class.
    """
    from repro.datasets import base as datasets_base
    from repro.datasets import synthetic
    from repro.experiments import figure4
    from repro.experiments import mitigation as mitigation_sweep
    from repro.linalg import system as linalg_system
    from repro.metrics import probability as metrics_probability
    from repro.mitigation import evaluate as closed_loop
    from repro.mitigation.policies import MitigationPolicy
    from repro.model import kernels
    from repro.probability import correlation_complete
    from repro.probability.pipeline import EstimationPipeline, FrequencyCache
    from repro.probability.subsets import SubsetIndex
    from repro.runner import pool
    from repro.simulation import experiment, scenarios
    from repro.simulation.library import ScenarioGenerator
    from repro.streaming.engine import StreamingEstimator
    from repro.topology import brite

    for module in (figure4, mitigation_sweep, brite):
        tracer.instrument(module, "generate_brite_network", "topology.build", _count_network)
    tracer.instrument(figure4, "generate_sparse_network", "topology.build", _count_network)
    tracer.instrument(datasets_base, "derive_network_compact", "topology.build", _count_network)
    tracer.instrument(synthetic, "generate_powerlaw_edges", "topology.edges")

    for module in (figure4, mitigation_sweep, closed_loop, experiment):
        tracer.instrument(module, "run_experiment", "simulation.run", _count_experiment)
    for module in (figure4, scenarios):
        tracer.instrument(module, "build_scenario", "simulation.scenario")
    tracer.instrument(ScenarioGenerator, "build", "simulation.scenario")

    kernel_class = type(kernels.active_kernel())
    tracer.instrument(kernel_class, "union_popcounts", "model.kernel", _count_union_popcounts)
    tracer.instrument(kernel_class, "congestion_counts", "model.kernel", _count_row_popcounts)

    tracer.instrument(EstimationPipeline, "run", "probability.fit", _count_fit)
    tracer.instrument(SubsetIndex, "rows_matrix", "probability.decompose", _count_decompose)
    tracer.instrument(SubsetIndex, "decompose_batch", "probability.decompose", _count_decompose)
    tracer.instrument(FrequencyCache, "prefetch", _name_prefetch)

    tracer.instrument(
        correlation_complete, "null_space", "linalg.null_space", _count_call("linalg.null_space_calls")
    )
    tracer.instrument(correlation_complete, "null_space_update", "linalg.update", _count_update)
    tracer.instrument(linalg_system.EquationSystem, "solve", "linalg.solve", _count_solve)
    tracer.instrument(linalg_system, "nnls", "linalg.nnls", _count_call("linalg.nnls_calls"))
    tracer.instrument(
        linalg_system, "lsq_linear", "linalg.nnls", _count_call("linalg.nnls_fallbacks")
    )

    tracer.instrument(StreamingEstimator, "ingest", "streaming.ingest", _classify_ingest)

    tracer.instrument(MitigationPolicy, "propose", "mitigation.propose", _count_plan)
    tracer.instrument(closed_loop, "apply_plan", "mitigation.apply")
    tracer.instrument(closed_loop, "score_closed_loop", "mitigation.score")

    for module in (figure4, closed_loop, metrics_probability):
        tracer.instrument(module, "evaluate_estimator", "metrics.score")

    tracer.instrument(pool, "run_trials", "runner.run_trials")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------
STAGES = ("prune", "frequency", "discover", "assemble", "solve", "build_model")

#: Self-time metrics: metric name -> the span names whose self time it sums.
SELF_TIME: Dict[str, Tuple[str, ...]] = {
    "topology.build_s": ("topology.build", "topology.edges"),
    "simulation.busy_s": ("simulation.run", "simulation.scenario"),
    "model.kernel_s": ("model.kernel",),
    "probability.decompose_s": ("probability.decompose",),
    "linalg.null_space_s": ("linalg.null_space",),
    "linalg.update_s": ("linalg.update",),
    "linalg.solve_s": ("linalg.solve",),
    "linalg.nnls_s": ("linalg.nnls",),
    "streaming.append_s": ("streaming.append",),
    "streaming.refit_s": ("streaming.refit",),
    "streaming.prefetch_s": ("streaming.prefetch",),
    "mitigation.propose_s": ("mitigation.propose",),
    "mitigation.apply_s": ("mitigation.apply",),
    "mitigation.score_s": ("mitigation.score",),
    "runner.overhead_s": ("runner.run_trials",),
    "metrics.score_s": ("metrics.score",),
}

#: Counts computed from argument shapes rather than counted calls.
COMPUTED = ("model.kernel_words", "linalg.update_work", "linalg.solve_cells")

#: Count metrics read straight from the counters.
COUNTS = (
    "topology.links",
    "topology.paths",
    "simulation.intervals",
    "model.kernel_calls",
    "model.kernel_path_sets",
    "model.kernel_words",
    "probability.fits",
    "probability.candidate_rows",
    "probability.unknowns",
    "probability.equations",
    "probability.rank",
    "probability.identifiable",
    "linalg.null_space_calls",
    "linalg.update_calls",
    "linalg.update_work",
    "linalg.solve_calls",
    "linalg.solve_cells",
    "linalg.nnls_calls",
    "linalg.nnls_fallbacks",
    "streaming.refits",
    "streaming.skipped_windows",
    "mitigation.paths_disturbed",
    "runner.trials",
)


def layer_metrics(
    tracer: Tracer, spans: Dict[str, Dict[str, float]]
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of one traced pass: name -> (value, unit).

    ``spans`` is ``repro.obs.render.aggregate_spans`` of the pass's events.
    """
    counts = tracer.counts
    out: Dict[str, Tuple[float, str]] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = (sum(spans.get(n, {}).get("self_s", 0.0) for n in names), "s")
    for stage in STAGES:
        out[f"probability.stage.{stage}_s"] = (counts[f"stage_seconds.{stage}"], "s")
    for metric in COUNTS:
        out[metric] = (float(counts[metric]), "count")
    out["probability.fit_errors"] = (
        float(
            sum(
                1
                for event in tracer.events
                if event["name"] == "probability.fit" and event["status"] == "error"
            )
        ),
        "count",
    )
    lookups = counts["probability.cache_hits"] + counts["probability.cache_misses"]
    out["probability.cache_hit_ratio"] = (
        counts["probability.cache_hits"] / lookups if lookups else 0.0,
        "ratio",
    )
    rows = counts["probability.candidate_rows"]
    out["probability.admit_ratio"] = (
        counts["linalg.update_calls"] / rows if rows else 0.0,
        "ratio",
    )
    return out

