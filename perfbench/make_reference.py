"""Regenerate reference.json, the exact invariants the correctness gate uses.

Covers every graph a workload can draw: all bundled corpus graphs on at
most 14 vertices with every op, the larger corpus graphs with the default
ops, and the flower snarks of `snark_mu` with its ops.  Invariants do not
depend on the op set, so a graph seen by several passes must agree.

    python3 perfbench/make_reference.py

Takes about 12 minutes with two workers on a 2-core Xeon; most of it is
scc_exact on the 480 graphs with 14 vertices.
"""

from __future__ import annotations

import json
import sys

import gate
import run

WORKERS = 2


def main() -> int:
    gate.import_factorcover()
    from factorcover.report import ALL_OPS, DEFAULT_OPS, AnalyzeOptions, scan

    small, large = run.corpus_by_size()
    passes = [
        ([e for n, entries in sorted(small.items()) for e in entries],
         ALL_OPS),
        (large, DEFAULT_OPS),
        (run.snark_entries(run.SNARKS), run.SNARK_OPS),
    ]
    reference: dict = {}
    run.WORK.mkdir(exist_ok=True)
    path = run.WORK / "reference_input.mgf"
    for entries, ops in passes:
        run.write_mgf(path, entries)
        records = list(scan(str(path), AnalyzeOptions(ops=ops),
                            workers=WORKERS))
        for report in records[:-1]:
            if "n" not in report or report["errors"]:
                print(f"{report['id']}: failed {report}", file=sys.stderr)
                return 1
            entry = reference.setdefault(report["id"], {})
            for key, value in gate.invariants(report).items():
                if entry.setdefault(key, value) != value:
                    print(f"{report['id']}: {key} disagrees across passes",
                          file=sys.stderr)
                    return 1
        print(f"{len(entries)} graphs with ops {','.join(ops)}",
              file=sys.stderr)
    path.unlink()
    with open(gate.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
