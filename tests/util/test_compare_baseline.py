"""Unit tests for the benchmark-comparison gate (benchmarks/compare_baseline.py)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_SCRIPT = (Path(__file__).resolve().parents[2] / "benchmarks" / "compare_baseline.py")
_spec = importlib.util.spec_from_file_location("compare_baseline", _SCRIPT)
compare_baseline = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_baseline)


def _row(rows, name):
    (match,) = [row for row in rows if row[0] == name]
    return match


def test_regression_flagged_on_enough_cores():
    baseline = {"bench::test_x": {"mean_s": 1.0}}
    current = {"bench::test_x": {"mean_s": 2.0}}
    rows = compare_baseline.compare(baseline, current, threshold=1.5, cores=8)
    assert _row(rows, "bench::test_x")[4] == "REGRESSION"


def test_parallel_benchmark_skipped_below_core_floor():
    baseline = {"bench::test_sweep_workers4": {"mean_s": 1.0}}
    current = {"bench::test_sweep_workers4": {"mean_s": 10.0}}
    rows = compare_baseline.compare(baseline, current, threshold=1.5, cores=1)
    name, base_s, cur_s, ratio, note = _row(rows, "bench::test_sweep_workers4")
    assert note == "skipped: <4 cores"
    assert ratio is None


def test_parallel_benchmark_gated_normally_with_enough_cores():
    baseline = {"bench::test_sweep_workers4": {"mean_s": 1.0}}
    current = {"bench::test_sweep_workers4": {"mean_s": 10.0}}
    rows = compare_baseline.compare(baseline, current, threshold=1.5, cores=4)
    assert _row(rows, "bench::test_sweep_workers4")[4] == "REGRESSION"


def test_serial_benchmarks_unaffected_by_core_count():
    baseline = {"bench::test_x": {"mean_s": 1.0}}
    current = {"bench::test_x": {"mean_s": 1.1}}
    rows = compare_baseline.compare(baseline, current, threshold=1.5, cores=1)
    assert _row(rows, "bench::test_x")[4] == ""


def test_baseline_kernel_field_is_ignored():
    # Older baselines stamp every row with "kernel": "numpy"; rows gate
    # on their timings alone.
    baseline = {"bench::test_x": {"mean_s": 1.0, "kernel": "numpy"}}
    current = {"bench::test_x": {"mean_s": 2.0}}
    rows = compare_baseline.compare(baseline, current, threshold=1.5, cores=8)
    assert _row(rows, "bench::test_x")[4] == "REGRESSION"


def test_load_current_reads_stats(tmp_path):
    import json

    raw = {
        "benchmarks": [
            {
                "fullname": "bench::test_x",
                "group": "g",
                "stats": {"mean": 1.0, "min": 0.9},
            }
        ]
    }
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(raw))
    current = compare_baseline.load_current(path)
    assert current == {"bench::test_x": {"mean_s": 1.0, "min_s": 0.9, "group": "g"}}


def test_skipped_rows_render_everywhere():
    baseline = {"bench::test_sweep_workers4": {"mean_s": 1.0}}
    current = {"bench::test_sweep_workers4": {"mean_s": 10.0}}
    rows = compare_baseline.compare(baseline, current, threshold=1.5, cores=1)
    text = compare_baseline.render_text(rows)
    markdown = compare_baseline.render_markdown(rows, threshold=1.5)
    assert "skipped: <4 cores" in text
    assert "skipped: <4 cores" in markdown


def test_collect_skips_gathers_ungated_rows():
    baseline = {
        "bench::test_sweep_workers4": {"mean_s": 1.0},
        "bench::test_cached": {"mean_s": 0.01},
        "bench::test_gone": {"mean_s": 1.0},
        "bench::test_gated": {"mean_s": 1.0},
    }
    current = {
        "bench::test_sweep_workers4": {"mean_s": 2.0},
        "bench::test_cached": {"mean_s": 0.01},
        "bench::test_gated": {"mean_s": 1.1},
    }
    rows = compare_baseline.compare(baseline, current, threshold=1.5, cores=1)
    skips = compare_baseline.collect_skips(rows, strict_armed=True)
    reasons = dict(skips)
    assert reasons["bench::test_sweep_workers4"] == "skipped: <4 cores"
    assert reasons["bench::test_cached"] == "cached"
    assert reasons["bench::test_gone"] == "baseline-only"
    # Gated rows (empty note) never appear in the skip list.
    assert "bench::test_gated" not in reasons


def test_collect_skips_reports_unarmed_strict_gates():
    skips = compare_baseline.collect_skips([], strict_armed=False)
    assert len(skips) == 1
    assert "REPRO_BENCH_STRICT" in skips[0][1]
    assert compare_baseline.collect_skips([], strict_armed=True) == []


def test_skip_sections_render():
    skips = [("bench::test_x", "cached")]
    text = compare_baseline.render_skips_text(skips)
    assert "1 gate(s) skipped" in text and "cached" in text
    markdown = compare_baseline.render_skips_markdown(skips)
    assert "Skipped benchmark gates" in markdown
    assert "`bench::test_x` | cached" in markdown
    empty = compare_baseline.render_skips_markdown([])
    assert "nothing skipped" in empty


def test_main_appends_skips_to_summary(tmp_path, monkeypatch):
    import json

    raw = tmp_path / "bench.json"
    raw.write_text(
        json.dumps(
            {
                "benchmarks": [
                    {
                        "fullname": "bench::test_x",
                        "group": "g",
                        "stats": {"mean": 1.0, "min": 0.9},
                    }
                ]
            }
        )
    )
    summary = tmp_path / "summary.md"
    monkeypatch.delenv("REPRO_BENCH_STRICT", raising=False)
    assert (
        compare_baseline.main(
            [str(raw), "--markdown", str(summary), "--threshold", "1000"]
        )
        == 0
    )
    written = summary.read_text()
    assert "Benchmark timings vs committed baseline" in written
    assert "Skipped benchmark gates" in written
    assert "REPRO_BENCH_STRICT" in written


def _span(name, sid, dur, parent=None, t0=0.0):
    return {
        "type": "span",
        "name": name,
        "id": sid,
        "parent": parent,
        "pid": 1,
        "t_start": t0,
        "t_end": t0 + dur,
        "dur": dur,
        "status": "ok",
        "attrs": {},
    }


def _write_trace(path, events):
    import json

    path.write_text("".join(json.dumps(e) + "\n" for e in events))


def test_aggregate_telemetry_self_time(tmp_path):
    trace = tmp_path / "t.jsonl"
    _write_trace(
        trace,
        [
            _span("child", "1:2", 0.3, parent="1:1"),
            _span("parent", "1:1", 1.0),
            {"type": "event", "name": "noise", "id": "1:9", "pid": 1},
        ],
    )
    agg = compare_baseline.aggregate_telemetry(trace)
    assert agg["parent"] == {"count": 1, "total_s": 1.0, "self_s": 0.7}
    assert agg["child"]["self_s"] == 0.3
    assert "noise" not in agg  # zero-duration events carry no self-time


def test_aggregate_telemetry_clamps_negative_self(tmp_path):
    # Concurrent children can sum past the parent; self-time stays >= 0.
    trace = tmp_path / "t.jsonl"
    _write_trace(
        trace,
        [
            _span("parent", "1:1", 1.0),
            _span("child", "1:2", 0.8, parent="1:1"),
            _span("child", "1:3", 0.9, parent="1:1"),
        ],
    )
    agg = compare_baseline.aggregate_telemetry(trace)
    assert agg["parent"]["self_s"] == 0.0


def test_top_regressions_orders_by_delta():
    # The gate imports its attribution code from repro.obs.analyze, so
    # `obs diff` and the benchmark failure message agree on the ranking.
    baseline = {
        "a": {"count": 1, "total_s": 1.0, "self_s": 1.0},
        "b": {"count": 1, "total_s": 1.0, "self_s": 1.0},
        "c": {"count": 1, "total_s": 1.0, "self_s": 1.0},
        "d": {"count": 1, "total_s": 1.0, "self_s": 1.0},
    }
    current = {
        "a": {"count": 1, "total_s": 2.0, "self_s": 1.5},
        "b": {"count": 1, "total_s": 2.0, "self_s": 3.0},
        "c": {"count": 1, "total_s": 2.0, "self_s": 1.1},
        "d": {"count": 1, "total_s": 0.5, "self_s": 0.5},  # improved
        "new": {"count": 1, "total_s": 9.0, "self_s": 9.0},  # no baseline
    }
    deltas = compare_baseline.diff_aggregates(baseline, current)
    rows = compare_baseline.top_regressions(deltas, limit=3)
    assert [row.name for row in rows] == ["b", "a", "c"]
    assert rows[0].delta_self_s == 2.0
    text = compare_baseline.render_regressions(rows)
    assert "b: 1.000s -> 3.000s (+2.000s)" in text


def test_update_baseline_commits_span_aggregate(tmp_path, monkeypatch):
    import json

    raw = tmp_path / "bench.json"
    raw.write_text(
        json.dumps(
            {
                "benchmarks": [
                    {
                        "fullname": "bench::test_x",
                        "group": "g",
                        "stats": {"mean": 1.0, "min": 0.9},
                    }
                ]
            }
        )
    )
    target = tmp_path / "BENCH_baseline.json"
    monkeypatch.setattr(compare_baseline, "BASELINE_PATH", target)
    current = compare_baseline.load_current(raw)
    spans = {"pipeline.fit": {"count": 2, "total_s": 1.23456, "self_s": 0.5}}
    compare_baseline.update_baseline(current, raw, spans=spans)
    written = json.loads(target.read_text())
    assert written["spans"]["pipeline.fit"]["total_s"] == 1.2346
    assert written["benchmarks"]["bench::test_x"]["mean_s"] == 1.0
