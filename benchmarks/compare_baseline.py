#!/usr/bin/env python
"""Diff a fresh benchmark run against the committed BENCH_baseline.json.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only \
        --benchmark-json=bench_current.json
    python benchmarks/compare_baseline.py bench_current.json

    # refresh the committed snapshot from a fresh run
    python benchmarks/compare_baseline.py bench_current.json --update

Prints a per-benchmark table of baseline vs current mean times and exits
non-zero when any benchmark regressed by more than ``--threshold``
(default 1.5x), so the perf trajectory of the repo stays visible PR over
PR. Benchmarks sharing a result cache report ~0s after the first of their
group; those are compared only when both sides are non-trivial.

When ``$GITHUB_STEP_SUMMARY`` is set (as it is in GitHub Actions), the
same comparison is appended there as a Markdown table, so the timing
deltas show up on the workflow run page; ``--markdown PATH`` writes the
table to an explicit file instead.

``--telemetry PATH`` points at the span-event JSONL the obs benchmarks
drop (``bench_telemetry.jsonl``, written when they run under
``REPRO_OBS=trace``). With ``--update`` the per-span self-time aggregate
is committed alongside the timings; on a gate failure the top regressed
spans (largest self-time growth vs that committed aggregate) are printed
so the table's "what regressed" has a "where" attached.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.analyze import (  # noqa: E402
    diff_aggregates,
    load_trace,
    render_regressions,
    top_regressions,
)
from repro.obs.render import aggregate_spans  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_baseline.json"

#: Timings under this many seconds are cache hits of a shared result (see
#: benchmarks/test_bench_figure4.py's _RESULT_CACHE) and carry no signal.
TRIVIAL_S = 0.05

#: Benchmarks whose name contains this marker measure a process-sharded
#: run whose wall clock depends on the host's core count.
PARALLEL_MARKER = "workers"

#: Cores a parallel-runner benchmark needs for its timing to be
#: comparable across machines (matches WORKERS in test_bench_runner.py).
PARALLEL_MIN_CORES = 4


def usable_cores() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def load_current(path: Path) -> dict:
    """Map fullname -> mean seconds from a pytest-benchmark JSON file."""
    raw = json.loads(path.read_text())
    current = {}
    for bench in raw["benchmarks"]:
        entry = {
            "mean_s": bench["stats"]["mean"],
            "min_s": bench["stats"]["min"],
            "group": bench.get("group"),
        }
        peak_rss_mb = bench.get("extra_info", {}).get("peak_rss_mb")
        if peak_rss_mb is not None:
            entry["peak_rss_mb"] = peak_rss_mb
        current[bench["fullname"]] = entry
    return current


def aggregate_telemetry(path: Path) -> dict:
    """Per-span aggregate from a span-event JSONL trace.

    Returns ``{name: {"count", "total_s", "self_s"}}`` where ``self_s``
    is wall time minus the time spent in child spans (clamped at zero —
    concurrent children can sum past their parent). Thin wrapper over
    the :mod:`repro.obs` attribution code — the same functions back
    ``repro-tomography obs diff``, so the benchmark gate and the CLI
    agree on what "self time" means. Point events carry no duration and
    are dropped; a truncated trailing record (killed worker) is skipped
    with a warning on stderr instead of failing the gate.
    """
    events, warnings = load_trace(path)
    for warning in warnings:
        print(f"WARNING {warning}", file=sys.stderr)
    return aggregate_spans([e for e in events if e.get("type") == "span"])


def update_baseline(current: dict, raw_path: Path, spans: dict = None) -> None:
    raw = json.loads(raw_path.read_text())
    snapshot = {
        "note": (
            "Benchmark timing snapshot; regenerate with "
            "benchmarks/compare_baseline.py --update"
        ),
        "machine": raw.get("machine_info", {})
        .get("cpu", {})
        .get("brand_raw", "unknown"),
        "datetime": raw.get("datetime"),
        "benchmarks": {
            name: {
                key: value
                for key, value in (
                    ("mean_s", round(stats["mean_s"], 4)),
                    ("min_s", round(stats["min_s"], 4)),
                    ("group", stats["group"]),
                    ("peak_rss_mb", stats.get("peak_rss_mb")),
                )
                if value is not None
            }
            for name, stats in current.items()
        },
    }
    if spans:
        snapshot["spans"] = {
            name: {
                "count": entry["count"],
                "total_s": round(entry["total_s"], 4),
                "self_s": round(entry["self_s"], 4),
            }
            for name, entry in sorted(spans.items())
        }
    BASELINE_PATH.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(f"baseline updated: {BASELINE_PATH}")


def compare(baseline: dict, current: dict, threshold: float, cores: int = None) -> list:
    """Per-benchmark comparison rows: (name, base_s, cur_s, ratio, note).

    ``base_s``/``cur_s``/``ratio`` are ``None`` where a side is missing;
    ``note`` is one of ``""``, ``"baseline-only"``, ``"new"``, ``"cached"``,
    ``"skipped: <N cores"`` or ``"REGRESSION"``.

    Parallel-runner benchmarks (name containing ``workers``) are excluded
    from the regression gate when the host has fewer than
    ``PARALLEL_MIN_CORES`` usable cores: their wall clock there measures
    process-pool overhead on a saturated machine, not a regression, and the
    committed baseline may have been recorded with a different core count
    (the original snapshot was recorded on 1 core).
    """
    if cores is None:
        cores = usable_cores()
    rows = []
    for name in sorted(set(baseline) | set(current)):
        base_mean = baseline.get(name, {}).get("mean_s")
        cur_mean = current.get(name, {}).get("mean_s")
        if base_mean is None or cur_mean is None:
            note = "baseline-only" if cur_mean is None else "new"
            rows.append((name, base_mean, cur_mean, None, note))
        elif PARALLEL_MARKER in name and cores < PARALLEL_MIN_CORES:
            rows.append(
                (
                    name,
                    base_mean,
                    cur_mean,
                    None,
                    f"skipped: <{PARALLEL_MIN_CORES} cores",
                )
            )
        elif base_mean < TRIVIAL_S or cur_mean < TRIVIAL_S:
            rows.append((name, base_mean, cur_mean, None, "cached"))
        else:
            ratio = cur_mean / base_mean
            note = "REGRESSION" if ratio > threshold else ""
            rows.append((name, base_mean, cur_mean, ratio, note))
    return rows


def collect_rss(baseline: dict, current: dict) -> list:
    """Peak-RSS rows (name, base_mb, cur_mb) — report-only, never gated.

    Memory high-water marks from benchmarks that record
    ``extra_info["peak_rss_mb"]`` (currently the scaling-topology study).
    RSS depends on allocator behaviour and everything the process touched
    before the benchmark, so the trajectory is surfaced PR over PR but a
    delta is never a failure.
    """
    rows = []
    for name in sorted(set(baseline) | set(current)):
        base_mb = baseline.get(name, {}).get("peak_rss_mb")
        cur_mb = current.get(name, {}).get("peak_rss_mb")
        if base_mb is None and cur_mb is None:
            continue
        rows.append((name, base_mb, cur_mb))
    return rows


def render_rss_text(rss_rows: list) -> str:
    lines = ["peak RSS (report-only, never gated):"]
    for name, base_mb, cur_mb in rss_rows:
        base = "-" if base_mb is None else f"{base_mb:.1f}MB"
        cur = "-" if cur_mb is None else f"{cur_mb:.1f}MB"
        lines.append(f"  {name}: baseline {base}, current {cur}")
    return "\n".join(lines)


def render_rss_markdown(rss_rows: list) -> str:
    lines = [
        "### Peak RSS (report-only)",
        "",
        "| benchmark | baseline | current |",
        "| --- | ---: | ---: |",
    ]
    for name, base_mb, cur_mb in rss_rows:
        base = "-" if base_mb is None else f"{base_mb:.1f} MB"
        cur = "-" if cur_mb is None else f"{cur_mb:.1f} MB"
        lines.append(f"| `{name}` | {base} | {cur} |")
    return "\n".join(lines) + "\n"


def collect_skips(rows: list, strict_armed: bool = None) -> list:
    """Everything the regression gate did NOT check, as (subject, reason).

    Covers per-benchmark exclusions (cache hits, core-starved parallel
    runs, one-sided rows) and the opt-in strict gates
    (speedup / throughput / strict-win assertions inside the benchmarks
    themselves), which silently downgrade to warnings unless
    ``REPRO_BENCH_STRICT`` is set. Surfacing these is the difference
    between "no regressions" and "nothing was gated".
    """
    if strict_armed is None:
        strict_armed = bool(os.environ.get("REPRO_BENCH_STRICT"))
    skips = []
    for name, base_s, cur_s, ratio, note in rows:
        if ratio is None and note != "REGRESSION":
            skips.append((name, note))
    if not strict_armed:
        skips.append(
            (
                "strict in-benchmark gates (runner speedup, streaming "
                "throughput, mitigation strict-win)",
                "not armed: REPRO_BENCH_STRICT unset",
            )
        )
    return skips


def render_skips_text(skips: list) -> str:
    if not skips:
        return "all benchmarks gated; no skips"
    lines = [f"{len(skips)} gate(s) skipped this run:"]
    for subject, reason in skips:
        lines.append(f"  {subject}: {reason}")
    return "\n".join(lines)


def render_skips_markdown(skips: list) -> str:
    """The skip list as a Markdown section for the workflow summary."""
    lines = ["### Skipped benchmark gates", ""]
    if not skips:
        lines.append("All benchmarks were gated; nothing skipped.")
        return "\n".join(lines) + "\n"
    lines += [
        "These were **not** checked against the baseline this run:",
        "",
        "| what | why |",
        "| --- | --- |",
    ]
    for subject, reason in skips:
        lines.append(f"| `{subject}` | {reason} |")
    return "\n".join(lines) + "\n"


def render_text(rows: list) -> str:
    width = max(len(name) for name, *_ in rows)
    lines = [f"{'benchmark':<{width}}  {'baseline':>9}  {'current':>9}  ratio"]
    for name, base_s, cur_s, ratio, note in rows:
        if base_s is None or cur_s is None:
            lines.append(f"{name:<{width}}  {'-':>9}  {'-':>9}  ({note})")
        elif ratio is None:
            lines.append(f"{name:<{width}}  {base_s:>8.3f}s  {cur_s:>8.3f}s  ({note})")
        else:
            marker = f"  <-- {note}" if note else ""
            lines.append(
                f"{name:<{width}}  {base_s:>8.3f}s  {cur_s:>8.3f}s  "
                f"{ratio:5.2f}x{marker}"
            )
    return "\n".join(lines)


def render_markdown(rows: list, threshold: float) -> str:
    """The comparison as a GitHub-flavoured Markdown table."""
    lines = [
        "### Benchmark timings vs committed baseline",
        "",
        f"Regression threshold: {threshold:.2f}x (timings are informational "
        "on shared runners).",
        "",
        "| benchmark | baseline | current | ratio | status |",
        "| --- | ---: | ---: | ---: | --- |",
    ]
    for name, base_s, cur_s, ratio, note in rows:
        base = "-" if base_s is None else f"{base_s:.3f}s"
        cur = "-" if cur_s is None else f"{cur_s:.3f}s"
        shown_ratio = "-" if ratio is None else f"{ratio:.2f}x"
        status = f"**{note}**" if note == "REGRESSION" else (note or "ok")
        lines.append(f"| `{name}` | {base} | {cur} | {shown_ratio} | {status} |")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", type=Path, help="pytest-benchmark JSON file")
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.5,
        help="fail when current/baseline mean exceeds this ratio (default 1.5)",
    )
    parser.add_argument(
        "--update", action="store_true", help="rewrite BENCH_baseline.json"
    )
    parser.add_argument(
        "--markdown",
        type=Path,
        default=None,
        help="append a Markdown comparison table to this file "
        "(default: $GITHUB_STEP_SUMMARY when set)",
    )
    parser.add_argument(
        "--telemetry",
        type=Path,
        default=None,
        help="span-event JSONL from the obs benchmarks "
        "(bench_telemetry.jsonl); committed with --update, used to name "
        "the top regressed spans on a gate failure",
    )
    args = parser.parse_args(argv)

    current = load_current(args.current)
    telemetry = None
    if args.telemetry is not None and args.telemetry.exists():
        telemetry = aggregate_telemetry(args.telemetry)
    if args.update:
        update_baseline(current, args.current, spans=telemetry)
        return 0

    baseline_doc = json.loads(BASELINE_PATH.read_text())
    baseline = baseline_doc["benchmarks"]
    rows = compare(baseline, current, args.threshold)
    skips = collect_skips(rows)
    rss_rows = collect_rss(baseline, current)
    print(render_text(rows))
    print()
    print(render_skips_text(skips))
    if rss_rows:
        print()
        print(render_rss_text(rss_rows))

    summary_path = args.markdown
    if summary_path is None and os.environ.get("GITHUB_STEP_SUMMARY"):
        summary_path = Path(os.environ["GITHUB_STEP_SUMMARY"])
    if summary_path is not None:
        with open(summary_path, "a") as handle:
            handle.write(render_markdown(rows, args.threshold))
            handle.write("\n")
            handle.write(render_skips_markdown(skips))
            if rss_rows:
                handle.write("\n")
                handle.write(render_rss_markdown(rss_rows))

    regressions = [name for name, *_, note in rows if note == "REGRESSION"]
    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed beyond {args.threshold}x")
        if telemetry is not None and baseline_doc.get("spans"):
            deltas = diff_aggregates(baseline_doc["spans"], telemetry)
            regressed = top_regressions(deltas)
            if regressed:
                print()
                print(render_regressions(regressed))
        return 1
    print("\nno regressions beyond threshold")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        sys.exit(0)
