"""Layered benchmark of the tomography pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figure4-sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with telemetry off; ``--trace
1`` runs a fixed round of the workload untraced and then twice under the
layer wrappers of :mod:`tracer`, and reports the per-layer metrics. The
metric names and units are declared in ``BENCHMARK.json``; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Workloads, metric definitions
and known limits are described in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads BLAS: one BLAS thread (no first-call stall on a
# shared 2-core host, and QR is no slower) and the program's own telemetry
# off, so the end-to-end numbers measure the untraced program.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"
os.environ["REPRO_OBS"] = "off"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Dict, List, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Input generation is repeated this often per run; setup_s takes the median.
SETUP_REPEATS = 3
#: A measured loop stops after this long even below its sample floor, so a
#: run always ends well inside its time limit.
MAX_LOOP_SECONDS = 120.0
#: Traced passes of the fixed round; their counts must agree exactly.
TRACED_PASSES = 2


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def code_digest() -> str:
    """Digest of the program and benchmark sources (keys the count records)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_fingerprint() -> dict:
    import numpy
    import scipy

    from repro.model.kernels import active_kernel
    from repro.obs import config as obs_config

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel": active_kernel().name,
        "repro_obs": obs_config.mode(),
    }


def warm_up_blas() -> float:
    """One QR, SVD and NNLS, so no first LAPACK call stalls a measured op."""
    import numpy as np
    from scipy.optimize import nnls

    start = perf_counter()
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((96, 48))
    np.linalg.qr(matrix)
    np.linalg.svd(matrix)
    nnls(matrix, rng.standard_normal(96))
    return perf_counter() - start


def fresh_import_seconds() -> float:
    """Import time of the program and benchmark modules in a new interpreter."""
    import subprocess

    code = (
        "import sys, time; start = time.perf_counter(); "
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; "
        "import numpy, scipy.optimize, tracer, workloads; "
        "print(time.perf_counter() - start)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    return float(done.stdout.strip())


def run_loop(workload, measure, tracer, seconds: float = 0.0, steps: int = 0) -> None:
    """Closed loop: ``steps`` fixed steps, or steps until ``seconds`` have
    passed and the workload's latency sample floor is reached."""
    start = perf_counter()
    index = 0
    while True:
        measure.attempted += workload.step_ops
        label = f"s{index}"
        try:
            with tracer.op(label) if workload.step_is_op else tracer.scope(label):
                workload.step(index, measure)
        except Exception:  # a failed op is counted and the loop goes on
            traceback.print_exc()
            measure.failed += workload.step_ops
        index += 1
        elapsed = perf_counter() - start
        if steps:
            if index >= steps:
                break
        elif elapsed >= MAX_LOOP_SECONDS or (
            elapsed >= seconds and len(measure.latencies) >= workload.min_samples
        ):
            break
    measure.seconds = perf_counter() - start


def run_checks(workload, sink) -> "Checks":
    from workloads import Checks

    checks = Checks()
    start = perf_counter()
    try:
        workload.check(checks)
        sink.check(checks)
    except Exception:  # a check that cannot run is a failed check
        traceback.print_exc()
        checks.expect(False, "output check raised")
    checks.notes["checks_s"] = perf_counter() - start
    return checks


def end_to_end(workload, args, import_s: float, tracer, sink) -> Tuple[dict, dict, int, int, object]:
    import numpy as np

    from workloads import Measure

    warm_up_s = warm_up_blas()
    imports = [import_s] + [fresh_import_seconds() for _ in range(SETUP_REPEATS - 1)]
    generation: List[float] = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workload.setup(args.seed)
        generation.append(perf_counter() - start)
    setup_s = statistics.median(imports) + warm_up_s + statistics.median(generation)

    measure = Measure()
    workload.start()
    run_loop(workload, measure, tracer, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = run_checks(workload, sink)
    link_mae = workload.link_mae(measure)
    latencies = np.asarray(measure.latencies)
    tail = float(np.percentile(latencies, workload.tail_percentile))
    failed = measure.failed + len(checks.failures)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": measure.ops / measure.seconds,
        "latency_p50_ms": float(np.median(latencies)) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "link_mae": link_mae,
        # Add-one smoothed so a clean run reads 1/(attempted+1), never 0.
        "failed_ratio": (failed + 1) / (measure.attempted + 1),
    }
    details = {
        "import_s": imports,
        "warm_up_s": warm_up_s,
        "input_generation_s": generation,
        "ops": measure.ops,
        "seconds": measure.seconds,
        "latency_samples": int(latencies.size),
        "tail_percentile": workload.tail_percentile,
        "tail_samples_beyond": int((latencies > tail).sum()),
        "link_mae_meaning": workload.mae_meaning,
        "failed_ops": measure.failed,
        "checks_passed": checks.passed,
        "check_failures": checks.failures,
        "check_notes": checks.notes,
    }
    return metrics, details, measure.attempted, measure.failed, checks


def traced(workload, args, tracer, sink) -> Tuple[dict, dict, int, int, object]:
    from repro.obs.render import aggregate_spans

    from tracer import COUNT_UNITS, instrument_layers, layer_metrics
    from workloads import Measure

    warm_up_blas()
    workload.setup(args.seed)
    instrument_layers(tracer)

    # Untraced and traced passes alternate, so slow drift on a shared host
    # biases neither side of the tracing-overhead comparison.
    references = []
    passes = []
    for _ in range(TRACED_PASSES):
        reference = Measure()
        workload.start()
        run_loop(workload, reference, tracer, steps=workload.round_steps)
        references.append(reference)

        tracer.reset()
        tracer.enabled = True
        with tracer.scope("setup"):
            workload.setup(args.seed)
        measure = Measure()
        workload.start()
        run_loop(workload, measure, tracer, steps=workload.round_steps)
        tracer.enabled = False
        spans = aggregate_spans(tracer.events)
        passes.append((layer_metrics(tracer, spans), measure, tracer.events, spans))

    checks = run_checks(workload, sink)
    first = passes[0][0]
    counts = {name: value for name, (value, unit) in first.items() if unit in COUNT_UNITS}
    for other, _, _, _ in passes[1:]:
        for name in counts:
            checks.expect(
                other[name][0] == counts[name],
                f"count {name} changed between traced passes: "
                f"{counts[name]} then {other[name][0]}",
            )
    record = OUT / f"counts-{workload.name}-seed{args.seed}-{code_digest()}.json"
    if record.exists():
        earlier = json.loads(record.read_text())
        for name, value in counts.items():
            checks.expect(
                earlier.get(name) == value,
                f"count {name} differs from an earlier run of this seed: "
                f"{earlier.get(name)} then {value}",
            )
    else:
        OUT.mkdir(exist_ok=True)
        record.write_text(json.dumps(counts, indent=1, sort_keys=True))

    metrics: Dict[str, float] = {}
    units: Dict[str, str] = {}
    for name, (value, unit) in first.items():
        units[name] = unit
        # Times: the faster of the traced passes (both are warm).
        metrics[name] = value if unit != "s" else min(p[0][name][0] for p in passes)
    untraced_rate = max(r.ops / r.seconds for r in references)
    traced_rate = max(p[1].ops / p[1].seconds for p in passes)
    metrics["tracing.ops_per_s_untraced"] = untraced_rate
    metrics["tracing.ops_per_s_traced"] = traced_rate
    metrics["tracing.overhead_pct"] = (untraced_rate / traced_rate - 1.0) * 100.0

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload.name}-seed{args.seed}.spans.jsonl", "w", encoding="utf-8") as out:
        for event in passes[0][2]:
            out.write(json.dumps(event, separators=(",", ":")) + "\n")
    details = {
        "round_ops": passes[0][1].ops,
        "round_seconds_untraced": [r.seconds for r in references],
        "round_seconds_traced": [p[1].seconds for p in passes],
        "spans": passes[0][3],
        "units": units,
        "failed_ops": sum(r.failed for r in references) + sum(p[1].failed for p in passes),
        "checks_passed": checks.passed,
        "check_failures": checks.failures,
        "check_notes": checks.notes,
    }
    attempted = sum(r.attempted for r in references) + sum(p[1].attempted for p in passes)
    return metrics, details, attempted, details["failed_ops"], checks


def print_layer_table(name: str, metrics: dict, details: dict) -> None:
    from tracer import COMPUTED

    spans = details["spans"]
    wall = sum(entry["self_s"] for entry in spans.values())
    print(f"== {name}: end-to-end -> layer (traced round, self time) ==")
    print(
        f"round: {details['round_ops']} ops; untraced {metrics['tracing.ops_per_s_untraced']:.4g} ops/s, "
        f"traced {metrics['tracing.ops_per_s_traced']:.4g} ops/s "
        f"(tracing overhead {metrics['tracing.overhead_pct']:+.1f}%)"
    )
    print(f"{'span':<24}{'calls':>8}{'total_s':>11}{'self_s':>11}{'self %':>8}")
    for span, entry in sorted(spans.items(), key=lambda item: -item[1]["self_s"]):
        share = 100.0 * entry["self_s"] / wall if wall else 0.0
        print(
            f"{span:<24}{int(entry['count']):>8}{entry['total_s']:>11.4f}"
            f"{entry['self_s']:>11.4f}{share:>7.1f}%"
        )
    print("per-layer metrics:")
    for metric in sorted(details["units"]):
        label = " (computed)" if metric in COMPUTED else ""
        print(f"  {metric:<34}{metrics[metric]:>16.6g} {details['units'][metric]}{label}")


def main() -> int:
    args = parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
    if args.workload not in [entry["name"] for entry in spec["workloads"]]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401

    from tracer import Tracer
    from workloads import WORKLOADS, ModelSink

    import_s = perf_counter() - start

    tracer = Tracer()
    sink = ModelSink()
    workload = WORKLOADS[args.workload](sink, tracer)
    host = host_fingerprint()
    if args.trace:
        metrics, details, attempted, failed_ops, checks = traced(workload, args, tracer, sink)
        print_layer_table(workload.name, metrics, details)
    else:
        metrics, details, attempted, failed_ops, checks = end_to_end(
            workload, args, import_s, tracer, sink
        )
        print(f"== {workload.name} seed {args.seed}: end-to-end ==")
        for name, unit in units.items():
            print(f"  {name:<16}{metrics[name]:>14.6g} {unit}")
        print(
            f"  ({details['ops']} ops in {details['seconds']:.2f} s; tail = "
            f"p{details['tail_percentile']} of {details['latency_samples']} latency samples, "
            f"{details['tail_samples_beyond']} beyond; setup = median import of "
            f"{SETUP_REPEATS} + BLAS warm-up {details['warm_up_s']:.3f} s + median input "
            f"generation of {SETUP_REPEATS})"
        )
    failed = failed_ops + len(checks.failures)
    print(f"checks: {checks.passed} passed, {len(checks.failures)} failed")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    for key, value in checks.notes.items():
        print(f"  note: {key}: {value}")
    print("host: " + json.dumps(host, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    summary = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
               "host": host, "metrics": metrics, "details": details}
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True, default=float)
    )

    kind = "per_layer" if args.trace else "end_to_end"
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            entry["name"]: {"value": float(metrics[entry["name"]]), "unit": entry["unit"]}
            for entry in spec[kind]
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
