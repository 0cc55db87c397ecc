"""Smoke test of the benchmark harness on tiny inputs.

    python3 perfbench/smoke.py

Runs every workload in BENCHMARK.json with --tiny, untraced and traced,
and fails unless each run exits 0, passes the correctness gate and prints
exactly the metrics BENCHMARK.json names, with their units.  Two traced
runs of one seed must give equal work counters and write a span file.
A copy of the benchmark without the package sources must exit non-zero
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import gate
import run

SPEC = json.loads((gate.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd=gate.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess, expected: list) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"], out
    assert out["correct"] is True and out["failed"] == 0, out
    assert out["attempted"] >= 1, out
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    assert got == want, f"metrics {got} != {want}"
    return out["metrics"]


def counts(metrics: dict) -> dict:
    return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        args = ("--workload", workload, "--seed", "3", "--tiny")
        result(bench(*args, "--trace", "0"), SPEC["end_to_end"])
        first = result(bench(*args, "--trace", "1"), SPEC["per_layer"])
        second = result(bench(*args, "--trace", "1"), SPEC["per_layer"])
        assert counts(first) == counts(second), (first, second)
        assert (run.WORK / f"{workload}_3_tiny" / "spans.jsonl").stat().st_size
        print(f"ok {workload}")

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(gate.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(gate.ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                 "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok benchmark without package sources exits "
          f"{proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
