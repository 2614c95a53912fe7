"""Measure every workload and write ``baseline.json``.

Runs each workload untraced once per seed, the workloads taking turns,
one run after another, and then each workload once traced.  For every
metric it records the values, their median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median.  Every run is
``run_seconds`` long, as ``BENCHMARK.json`` sets it.  It takes about 20
minutes.

Usage: python3 perfbench/record_baseline.py
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import program
from run import WORKLOAD_NAMES, run_seconds

RUN = str(Path(__file__).resolve().parent / "run.py")
OUT = Path(__file__).resolve().parent / "baseline.json"
SEEDS = range(1, 11)


def _run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=program.ROOT, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def _summary(runs: list[dict]) -> dict:
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": first["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return out


def main() -> int:
    seeds = list(SEEDS)
    result = {
        "machine": f"{platform.processor() or platform.machine()}, "
                   f"{platform.python_implementation()} {platform.python_version()}",
        "seconds": run_seconds(),
        "seeds": seeds,
        "untraced": {},
        "traced": {},
    }
    runs: dict[str, list[dict]] = {w: [] for w in WORKLOAD_NAMES}
    for seed in seeds:  # workloads take turns, so a slow spell hits them alike
        for workload in WORKLOAD_NAMES:
            runs[workload].append(_run(workload, seed, 0))
    for workload, done in runs.items():
        result["untraced"][workload] = {
            "attempted": [r["attempted"] for r in done],
            "failed": [r["failed"] for r in done],
            "metrics": _summary(done),
        }
    for workload in WORKLOAD_NAMES:
        traced = _run(workload, seeds[0], 1)
        result["traced"][workload] = {
            "seed": seeds[0],
            "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    OUT.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
