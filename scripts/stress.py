#!/usr/bin/env python3
"""Time analyze() per field on the stress set: the flower snarks J9-J13,
the prisms C16 x K2 .. C24 x K2 and C32 x K2, and the Moebius ladders
M32 .. M48, with the default ops.

These graphs are larger than the benchmark's workloads (perfbench/), so
the script runs outside it.  It prints one JSON line per graph: its name,
n, m, the number of perfect matchings (null past the default --pm-cap,
as for C32 x K2, whose report records pm_cap_exceeded), the wall
milliseconds of each field (AnalyzeOptions(timings=True)) and of the
whole call, and a sha256 of the report without its timings, so that two
versions of the package can be checked to give the same reports.

Usage: PYTHONPATH=src python scripts/stress.py [--repeat N]
           [--save FILE | --check FILE]
With --repeat, each graph is analysed N times and every timing is the
smallest of the N.  --save writes the digests to FILE as one JSON object
(graph name -> report_sha256); --check compares them with such a file,
names each graph that differs on stderr and exits 1 on any difference.
scripts/stress_digests.json holds the digests of the reports the package
gives today.
"""

import argparse
import hashlib
import json
import sys
import time

from factorcover.graphs import flower_snark, mobius_ladder, prism
from factorcover.matching import enumerate_perfect_matchings
from factorcover.report import AnalyzeOptions, analyze


def stress_set():
    for t in (9, 11, 13):
        yield f"J{t}", flower_snark(t)
    for t in (*range(16, 25), 32):
        yield f"C{t}xK2", prism(t)
    for t in range(16, 25):
        yield f"M{2 * t}", mobius_ladder(t)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=1)
    files = parser.add_mutually_exclusive_group()
    files.add_argument("--save", metavar="FILE")
    files.add_argument("--check", metavar="FILE")
    args = parser.parse_args()
    options = AnalyzeOptions(timings=True)
    digests = {}
    for name, G in stress_set():
        best = None
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            data = analyze(G, options, id=name).to_dict()
            total = round((time.perf_counter() - t0) * 1000.0, 3)
            timings = dict(data.pop("timings_ms"), total=total)
            best = timings if best is None else {
                key: min(value, best[key]) for key, value in timings.items()}
        digest = hashlib.sha256(
            json.dumps(data, separators=(",", ":")).encode()).hexdigest()
        digests[name] = digest
        # past the cap the report says so; enumerating again would only
        # pay the cap path once more
        if data["errors"].get("matchings") == "pm_cap_exceeded":
            matchings = None
        else:
            matchings = len(enumerate_perfect_matchings(G))
        print(json.dumps({
            "graph": name, "n": G.n, "m": G.m, "matchings": matchings,
            "timings_ms": best, "report_sha256": digest,
        }), flush=True)
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
