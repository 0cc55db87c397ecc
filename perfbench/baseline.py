"""Measure the baseline: every workload over ten seeds, then traced.

    python3 perfbench/baseline.py [--out FILE]

For each workload in BENCHMARK.json and each end-to-end metric, prints the
median of the per-run values over seeds 1-10 and their spread: the
distance between the first and third quartile as a share of the median.
A steady benchmark keeps each spread below a third of the metric's bound
in BENCHMARK.json.  The same is printed for the uncalibrated wall seconds
of scan and verify that run.py reports beside its result, so the effect
of calibration.py can be checked, and for each run's own duration.  One
traced run per workload then gives the per-layer numbers.  With --out,
writes the machine, the settings and every figure as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate

SPEC = json.loads((gate.ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)
WALL_LINE = re.compile(r"wall seconds: scan ([0-9.]+), verify ([0-9.]+)")


def bench(workload: str, seed: int, trace: int) -> dict:
    """One run's result line, plus its wall seconds and duration under
    the key "raw"."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace)],
        cwd=gate.ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    raw = {"run_s": time.perf_counter() - start}
    wall = WALL_LINE.search(proc.stdout)
    if wall:
        raw["scan_wall_s"] = float(wall.group(1))
        raw["verify_wall_s"] = float(wall.group(2))
    result["raw"] = raw
    return result


def summarize(name: str, metric: str, values: list, bound=None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    flag = ("" if bound is None or spread < bound / 3
            else "  <-- over bound/3")
    print(f"{name:16s} {metric:14s} median {median:11.5f} "
          f"spread {spread:7.4f} bound {bound}{flag}", flush=True)
    return {"median": median, "spread": spread, "values": values}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    workloads = {}
    for name in (w["name"] for w in SPEC["workloads"]):
        runs = [bench(name, seed, 0) for seed in SEEDS]
        summary = {}
        for metric, bound in bounds.items():
            summary[metric] = summarize(
                name, metric, [r["metrics"][metric]["value"] for r in runs],
                bound)
            summary[metric]["unit"] = runs[0]["metrics"][metric]["unit"]
        raw = {metric: summarize(name, metric,
                                 [r["raw"][metric] for r in runs])
               for metric in runs[0]["raw"]}
        traced = bench(name, SEEDS[0], 1)
        raw["traced_run_s"] = traced["raw"]["run_s"]
        workloads[name] = {
            "end_to_end": summary,
            "raw": raw,
            "per_layer": {k: m["value"]
                          for k, m in traced["metrics"].items()},
        }
    if args.out:
        args.out.write_text(json.dumps({
            "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                        "python": platform.python_version()},
            "run_seconds": SPEC["run_seconds"],
            "seeds": list(SEEDS),
            "workloads": workloads,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
