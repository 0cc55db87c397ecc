"""The factorcover benchmark: one workload per run, gated on exact results.

    python3 perfbench/run.py --workload corpus_default --seed 1 \
        --seconds 30 --trace 0

Each run writes a seeded MGF corpus to perfbench/out/, split into chunks.
A round scans each chunk with `factorcover scan` and re-audits its JSONL
with `factorcover verify`, one `factorcover.cli.main` call each, in this
process with one worker.  Rounds repeat until --seconds have passed, at
least twice.  Every call's output is checked against reference.json and
must verify with 0 failures.

With --trace 0 the last stdout line reports the end-to-end metrics.  Each
time is in reference seconds (calibration.py): the sum over chunks of
the chunk's median over rounds; setup_s is the median of several fresh
interpreters.
With --trace 1 it reports per-layer times (reference seconds, medians
over traced rounds) and work counters from tracing.py, and the spans go
to perfbench/out/.
A result line is printed only when every check passed; a failed check
exits 1, and a checkout without the package sources exits 2.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import calibration
import gate
from gate import GateError

WORK = gate.HERE / "out"
SETUP_PROBES = 15
MIN_ROUNDS = 2
# verify calls per chunk in an untraced round: verify is cheap, so the
# fastest of three is reported.  A traced round verifies once, so that each
# per-layer figure covers one scan and one verify.
VERIFY_CALLS = 3
# Graphs per `scan` call, so that most calls take a second or less (J11
# alone takes ten): each call gets its own calibration factor
# (calibration.py), and a slow spell of the host is confined to a few calls.
CHUNK_GRAPHS = {"corpus_default": 50, "snark_mu": 1, "corpus_all_ops": 4}

SNARKS = (5, 7, 9, 11)
SNARK_OPS = ("mu", "fan_raspaud", "core")
# corpus_all_ops: every graph with n <= 10, plus this many seeded picks
# among the graphs of each larger size.  An all-ops analysis costs
# 0.26 +- 0.05 s on n = 12 and 2.5 +- 0.5 s on n = 14 (2-core Xeon,
# Python 3.11), so many n = 12 picks and a single n = 14 pick keep the
# total work of a seed within a few percent of another's, and a round
# short enough to repeat three times in a 40 s run.
ALL_OPS_PICKS = {12: 32, 14: 1}
TINY_ALL_OPS_PICKS = {12: 1}

# Interpreter start, import, read_corpus and parse of every entry.
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from factorcover.report import parse_entry, read_corpus; "
    "[parse_entry(text, 'mgf') for _, text in read_corpus(sys.argv[2])]"
)

Entry = Tuple[str, str]
Chunk = collections.namedtuple("Chunk", "ids mgf jsonl")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _block_n(text: str) -> int:
    header = next(line for line in text.splitlines()
                  if line.strip() and not line.startswith("#"))
    return int(header.split()[0])


def corpus_by_size() -> Tuple[Dict[int, List[Entry]], List[Entry]]:
    """Bundled corpus entries with n <= 14 grouped by n, and the rest."""
    from factorcover.report import read_corpus

    small: Dict[int, List[Entry]] = {}
    large: List[Entry] = []
    for name, text in read_corpus(str(gate.CORPUS)):
        n = _block_n(text)
        if n <= 14:
            small.setdefault(n, []).append((name, text))
        else:
            large.append((name, text))
    return small, large


def snark_entries(ts: Sequence[int]) -> List[Entry]:
    from factorcover.graphs import flower_snark, to_mgf

    return [(f"flower_snark_J{t}",
             f"# flower_snark_J{t}\n" + to_mgf(flower_snark(t)))
            for t in ts]


def workload_input(workload: str, seed: int, tiny: bool
                   ) -> Tuple[List[Entry], Tuple[str, ...]]:
    """The seeded corpus entries and op list of a workload."""
    from factorcover.report import ALL_OPS, DEFAULT_OPS

    rng = random.Random(seed)
    if workload == "snark_mu":
        entries = snark_entries(SNARKS[:2] if tiny else SNARKS)
        ops = SNARK_OPS
    else:
        small, large = corpus_by_size()
        if workload == "corpus_default":
            entries = [e for n in sorted(small) for e in small[n]] + large
            if tiny:
                entries = rng.sample(entries[:27], 8)
            ops = DEFAULT_OPS
        else:
            picks = TINY_ALL_OPS_PICKS if tiny else ALL_OPS_PICKS
            entries = [e for n in sorted(small) if n <= (8 if tiny else 10)
                       for e in small[n]]
            for n, count in sorted(picks.items()):
                entries += rng.sample(small[n], count)
            ops = ALL_OPS
    rng.shuffle(entries)
    return entries, tuple(ops)


def write_mgf(path: Path, entries: Sequence[Entry]) -> None:
    with open(path, "w") as fh:
        fh.write("\n\n".join(text.strip("\n") for _, text in entries))
        fh.write("\n")


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


class Workload:
    """One generated input, split into chunks that are scanned and
    verified one `factorcover` call each."""

    def __init__(self, name: str, seed: int, tiny: bool):
        self.entries, self.ops = workload_input(name, seed, tiny)
        self.ids = [graph for graph, _ in self.entries]
        run_dir = WORK / f"{name}_{seed}{'_tiny' if tiny else ''}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        self.mgf = run_dir / "input.mgf"  # the whole input, for setup_s
        self.span_file = run_dir / "spans.jsonl"
        write_mgf(self.mgf, self.entries)
        size = CHUNK_GRAPHS[name]
        self.chunks: List[Chunk] = []
        for start in range(0, len(self.entries), size):
            part = self.entries[start:start + size]
            mgf = run_dir / f"chunk_{start // size:03d}.mgf"
            write_mgf(mgf, part)
            self.chunks.append(
                Chunk([graph for graph, _ in part], mgf,
                      mgf.with_suffix(".jsonl")))
        self.reference = gate.load_reference()
        self.cpus = sorted(os.sched_getaffinity(0))
        self.tracer = None
        self.meter = None  # the calibration.Meter of the block measured
        self.fields = self.audits = 0

    @property
    def attempted(self) -> int:
        """Fields scanned plus reports audited."""
        return self.fields + self.audits

    def run_round(self, index: int) -> List[Tuple[float, ...]]:
        """Scan and verify every chunk, chunk i pinned to CPU i + index.

        Returns per chunk, in reference seconds, the scan's wall and CPU
        time and the fastest verify's wall time, then the scan's and the
        verify's wall seconds.  Scan and verify are metered apart, the
        verify from the kernel time that closed the scan.
        """
        out = []
        verify_calls = 1 if self.tracer else VERIFY_CALLS
        try:
            for i, chunk in enumerate(self.chunks):
                os.sched_setaffinity(
                    0, {self.cpus[(i + index) % len(self.cpus)]})
                with self.metered() as scan_ref:
                    wall, cpu = self.scan(chunk)
                with self.metered(scan_ref.after) as verify_ref:
                    verify = min(self.verify(chunk)
                                 for _ in range(verify_calls))
                out.append((wall * scan_ref.factor, cpu * scan_ref.factor,
                            verify * verify_ref.factor, wall, verify))
        finally:
            os.sched_setaffinity(0, self.cpus)
        return out

    @contextlib.contextmanager
    def metered(self, before: Optional[float] = None):
        """A calibration.Meter around the block.  Untraced, it samples
        inside the block; traced, it does not, so that the spans hold no
        samples, and scales the block's spans by its factor."""
        first_span = len(self.tracer.spans) if self.tracer else 0
        with calibration.Meter(not self.tracer, before) as ref:
            self.meter = ref
            yield ref
        if self.tracer:
            self.tracer.calibrate(first_span, ref.factor)

    def _call(self, span: str, argv: List[str]) -> Tuple[int, float, float]:
        """One `factorcover` call; its wall and CPU seconds leave out the
        kernel samples taken inside it."""
        from factorcover import cli

        gc.collect()
        meter = self.meter
        with (self.tracer.span(span) if self.tracer
              else contextlib.nullcontext()):
            t0, c0 = time.perf_counter(), time.process_time()
            w0, p0 = meter.paused_wall, meter.paused_cpu
            code = cli.main(argv)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
        return (code, wall - (meter.paused_wall - w0),
                cpu - (meter.paused_cpu - p0))

    def scan(self, chunk: Chunk) -> Tuple[float, float]:
        """`factorcover scan` of one chunk; return (wall s, CPU s)."""
        code, wall, cpu = self._call(
            "cli.scan", ["scan", str(chunk.mgf), "--ops", ",".join(self.ops),
                         "--out", str(chunk.jsonl)])
        if code != 0:
            raise GateError(f"scan exit code {code}")
        with open(chunk.jsonl) as fh:
            for report in gate.check_scan_output(fh, chunk.ids,
                                                 self.reference):
                self.fields += _fields_attempted(report)
        return wall, cpu

    def verify(self, chunk: Chunk) -> float:
        """`factorcover verify` of one chunk's scan output; return wall s."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code, wall, _ = self._call(
                "cli.verify", ["verify", str(chunk.jsonl), str(chunk.mgf)])
        self.audits += len(chunk.ids)
        expected = f"verified {len(chunk.ids)} reports, 0 failures\n"
        if code != 0 or out.getvalue() != expected:
            raise GateError(f"verify exit {code}: {out.getvalue().strip()} "
                            f"{err.getvalue().strip()[:500]}")
        return wall


def _fields_attempted(report: dict) -> int:
    """Ops run on one graph, with `mu` counted once per k."""
    from factorcover.report import ALL_OPS, AnalyzeOptions

    ran = [op for op in ALL_OPS if op not in report["skipped"]]
    mu_upto = AnalyzeOptions().mu_upto  # the CLI's, which every scan uses
    return len(ran) + (mu_upto - 1 if "mu" in ran else 0)


def measure_setup(work: Workload) -> float:
    """Median, in reference seconds, of a fresh interpreter importing the
    package and parsing every entry of the input."""
    times = []
    try:
        for i in range(SETUP_PROBES + 1):
            os.sched_setaffinity(0, {work.cpus[i % len(work.cpus)]})
            with calibration.Meter(sample=False) as ref:
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", SETUP_PROBE,
                                str(gate.SRC), str(work.mgf)], check=True)
                wall = time.perf_counter() - t0
            if i:  # the first probe warms the file and bytecode caches
                times.append(wall * ref.factor)
    finally:
        os.sched_setaffinity(0, work.cpus)
    return statistics.median(times)


def repeat(seconds: float, body, min_rounds: int) -> List:
    """Call body(round index) at least min_rounds times, and again while
    another call is expected to end within `seconds`; return the results."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(body(len(results)))
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if len(results) >= min_rounds and elapsed + last > seconds:
            return results


def chunk_total(rounds: List[list], column: int) -> float:
    """Sum over chunks of the chunk's median over rounds in `column`."""
    return sum(statistics.median(times[column] for times in chunk)
               for chunk in zip(*rounds))


def end_to_end(work: Workload, seconds: float) -> Dict[str, tuple]:
    rounds = repeat(seconds, work.run_round, MIN_ROUNDS)
    setup = measure_setup(work)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scan = chunk_total(rounds, 0)
    print(f"wall seconds: scan {chunk_total(rounds, 3):.3f}, "
          f"verify {chunk_total(rounds, 4):.3f}, {len(rounds)} rounds")
    return {
        "setup_s": (setup, "s"),
        "scan_s": (scan, "s"),
        "scan_cpu_s": (chunk_total(rounds, 1), "s"),
        "graphs_per_s": (len(work.ids) / scan, "1/s"),
        "verify_s": (chunk_total(rounds, 2), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(work: Workload, seconds: float) -> Dict[str, tuple]:
    import tracing

    start = time.perf_counter()
    untraced = chunk_total([work.run_round(0)], 0)
    tracer = work.tracer = tracing.Tracer()

    def traced_round(index: int):
        tracer.new_rep()
        fields = work.fields
        with tracer.installed():
            scan = chunk_total([work.run_round(index + 1)], 0)
        metrics = tracer.layer_metrics()
        metrics["report.fields_attempted"] = (work.fields - fields, "count")
        return scan, metrics

    # two traced rounds at least, to compare their work counters
    rounds = repeat(max(0.0, seconds - (time.perf_counter() - start)),
                    traced_round, 2)
    work.tracer = None
    tracer.write(work.span_file)
    counters = [{k: v for k, (v, unit) in m.items() if unit == "count"}
                for _, m in rounds]
    if any(c != counters[0] for c in counters):
        raise GateError(f"work counters differ between rounds: {counters}")
    out = {}
    for name, (value, unit) in rounds[0][1].items():
        if unit != "count":
            value = statistics.median(m[name][0] for _, m in rounds)
        out[name] = (value, unit)
    traced = statistics.median(scan for scan, _ in rounds)
    out["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus_default", "snark_mu",
                                 "corpus_all_ops"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small graphs per workload (smoke test)")
    args = parser.parse_args(argv)
    try:
        gate.import_factorcover()
        work = Workload(args.workload, args.seed, args.tiny)
    except GateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        measure = per_layer if args.trace else end_to_end
        metrics = measure(work, args.seconds)
    except GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>20} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": work.attempted,
        "failed": 0,  # any failed field or audit fails the gate above
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
