#!/usr/bin/env python3
"""Time analyze() per field on the stress set: the flower snarks J9-J13,
the prisms C16 x K2 .. C24 x K2 and C32 x K2, and the Moebius ladders
M32 .. M48, with the default ops, then J15 and J17 with the ops mu,
fan_raspaud and core (those of the benchmark's snark_mu workload), and
last J5 with every op and scc_dim_cap 11, so that the exact scc search
at its cycle space dimension, 11, has a wall time and a digest.

These graphs are larger than the benchmark's workloads (perfbench/), so
the script runs outside it.  It prints one JSON line per graph: its name,
n, m, the number of perfect matchings (null past the default --pm-cap,
as for C32 x K2, whose report records pm_cap_exceeded), the wall
milliseconds of each field (AnalyzeOptions(timings=True)) and of the
whole call, a sha256 of the report without its timings, so that two
versions of the package can be checked to give the same reports, and
verify_ms, the wall milliseconds of audit_report on that report read
back from its JSON without the matching list, as `factorcover verify`
audits it.

Each graph is analysed in a fresh interpreter of its own, started only
once the one before has exited, so that no field's time depends on what
an earlier analysis left in the interpreter.

Usage: PYTHONPATH=src python scripts/stress.py [--repeat N]
           [--save FILE | --check FILE]
With --repeat, each graph is analysed N times in its interpreter and
every timing is the smallest of the N.  --save writes the digests to
FILE as one JSON object (graph name -> report_sha256); --check compares
them with such a file, names each graph that differs on stderr and exits
1 on any difference.  scripts/stress_digests.json holds the digests of
the reports the package gives today.
"""

import argparse
import functools
import hashlib
import json
import multiprocessing
import sys
import time

from factorcover.graphs import flower_snark, mobius_ladder, prism
from factorcover.matching import enumerate_perfect_matchings
from factorcover.report import (
    ALL_OPS,
    DEFAULT_OPS,
    AnalyzeOptions,
    analyze,
    audit_report,
)

SNARK_OPS = ("mu", "fan_raspaud", "core")


def stress_set():
    """(name, build, options) for each graph, in the order they run:
    build() returns the graph, so that a child builds only its own."""
    def timed(ops, **limits):
        return AnalyzeOptions(ops=ops, timings=True, **limits)

    for t in (9, 11, 13):
        yield f"J{t}", functools.partial(flower_snark, t), timed(DEFAULT_OPS)
    for t in (*range(16, 25), 32):
        yield f"C{t}xK2", functools.partial(prism, t), timed(DEFAULT_OPS)
    for t in range(16, 25):
        yield (f"M{2 * t}", functools.partial(mobius_ladder, t),
               timed(DEFAULT_OPS))
    for t in (15, 17):
        yield f"J{t}", functools.partial(flower_snark, t), timed(SNARK_OPS)
    yield "J5", functools.partial(flower_snark, 5), timed(ALL_OPS,
                                                          scc_dim_cap=11)


def analyse_alone(name, repeat, out) -> None:
    """Analyse the stress graph name repeat times and send its JSON line
    to the pipe end out."""
    build, options = next((build, options)
                          for key, build, options in stress_set()
                          if key == name)
    G = build()
    best = None
    verify_ms = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        data = analyze(G, options, id=name).to_dict()
        total = round((time.perf_counter() - t0) * 1000.0, 3)
        timings = dict(data.pop("timings_ms"), total=total)
        best = timings if best is None else {
            key: min(value, best[key]) for key, value in timings.items()}
        read_back = json.loads(json.dumps(data))
        t0 = time.perf_counter()
        audit_report(G, read_back)
        verify_ms = min(verify_ms, round(
            (time.perf_counter() - t0) * 1000.0, 3))
    digest = hashlib.sha256(
        json.dumps(data, separators=(",", ":")).encode()).hexdigest()
    # past the cap the report says so; enumerating again would only pay
    # the cap path once more
    if data["errors"].get("matchings") == "pm_cap_exceeded":
        matchings = None
    else:
        matchings = len(enumerate_perfect_matchings(G))
    out.send({
        "graph": name, "n": G.n, "m": G.m, "matchings": matchings,
        "timings_ms": best, "report_sha256": digest, "verify_ms": verify_ms,
    })
    out.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=1)
    files = parser.add_mutually_exclusive_group()
    files.add_argument("--save", metavar="FILE")
    files.add_argument("--check", metavar="FILE")
    args = parser.parse_args()
    fresh = multiprocessing.get_context("spawn")
    digests = {}
    for name, _, _ in stress_set():
        receive, send = fresh.Pipe(duplex=False)
        child = fresh.Process(target=analyse_alone,
                              args=(name, args.repeat, send))
        child.start()
        send.close()
        try:
            line = receive.recv()
        except EOFError:
            line = None
        child.join()
        if line is None or child.exitcode != 0:
            sys.exit(f"analysing {name} failed (exit code {child.exitcode})")
        digests[name] = line["report_sha256"]
        print(json.dumps(line), flush=True)
    if args.save:
        with open(args.save, "w") as out:
            json.dump(digests, out, indent=2)
            out.write("\n")
    if args.check:
        with open(args.check) as f:
            want = json.load(f)
        differ = [name for name in {**digests, **want}
                  if want.get(name) != digests.get(name)]
        for name in differ:
            print(f"report digest differs: {name}", file=sys.stderr)
        if differ:
            sys.exit(1)


if __name__ == "__main__":
    main()
