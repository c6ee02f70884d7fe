"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload stream-monitor --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one process at a time, with
``run_seconds`` from ``BENCHMARK.json``, and prints for every end-to-end
metric the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the interquartile distance as a share of the median next to the
metric's bound. Exits non-zero if a run fails or reports ``correct:
false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict = {entry["name"]: [] for entry in spec["end_to_end"]}
    ok = True
    for seed in parse_seeds(args.seeds):
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        row = {name: metric["value"] for name, metric in result["metrics"].items()}
        for name in values:
            values[name].append(row[name])
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{name}={value:.6g}" for name, value in row.items()), flush=True)
    print(f"{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
    for entry in spec["end_to_end"]:
        series = values[entry["name"]]
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        print(f"{entry['name']:<16}{median:>12.6g}{q1:>12.6g}{q3:>12.6g}"
              f"{spread:>9.3f}{entry['bound']:>8.2f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
