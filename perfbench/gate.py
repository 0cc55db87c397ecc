"""Correctness gate: exact per-graph invariants compared with reference.json.

Witness arrays are deliberately not compared: a faster search may return
a different valid witness, which `factorcover verify` still audits.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Iterable, Iterator, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = SRC / "factorcover" / "data" / "corpus_cubic14.mgf"
REFERENCE = HERE / "reference.json"

STRUCTURE_FIELDS = ("girth", "bridgeless", "bipartite", "nontrivial_3_cut",
                    "hamiltonian")


class GateError(RuntimeError):
    """The benchmark cannot run, or the program's output is wrong."""


def import_factorcover():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "factorcover" / "__init__.py").is_file():
        raise GateError(f"no factorcover sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import factorcover

    if Path(factorcover.__file__).resolve().parent != SRC / "factorcover":
        raise GateError(f"imported factorcover from {factorcover.__file__}")
    return factorcover


def invariants(report: dict) -> Dict[str, object]:
    """The exact values of one report dict that the gate compares.

    Keys depend only on which ops ran, so a field that ended in `errors`
    shows up as a None value rather than a missing key.
    """
    skipped = set(report["skipped"])
    out: Dict[str, object] = {}
    if "structure" not in skipped:
        for key in STRUCTURE_FIELDS:
            out[key] = report[key]
    if "hypohamiltonian" not in skipped:
        out["hypohamiltonian"] = report.get("hypohamiltonian")
    if "mu" not in skipped:
        for k in range(1, 5):
            out[f"mu_{k}"] = report["mu"].get(str(k))
    if "oddness" not in skipped:
        out["oddness"] = report.get("oddness")
    if "fan_raspaud" not in skipped:
        out["fan_raspaud"] = report["fan_raspaud"] is not None
    if "fulkerson" not in skipped:
        out["fulkerson"] = report.get("fulkerson") is not None
    if "scc" not in skipped:
        lengths = [c["length"] for c in report["covers"]
                   if c["kind"] == "scc_exact"]
        out["scc_length"] = lengths[0] if lengths else None
    out["violations"] = len(report["violations"])
    return out


def load_reference() -> Dict[str, dict]:
    try:
        with open(REFERENCE) as fh:
            return json.load(fh)
    except OSError as exc:
        raise GateError(f"cannot read {REFERENCE}: {exc}") from exc


def check_scan_output(lines: Iterable[str], ids: List[str],
                      reference: Dict[str, dict]) -> Iterator[dict]:
    """Yield the reports of a scan's JSONL output, raising GateError
    unless they cover exactly `ids` in order, with no errors, every
    invariant equal to the reference, and a summary line at the end."""
    records = map(json.loads, lines)
    for name in ids:
        report = next(records, {})
        if report.get("id") != name:
            raise GateError(f"expected report {name}, got {report.get('id')}")
        if "n" not in report:
            raise GateError(f"{name}: {report.get('error')}")
        if report["errors"]:
            raise GateError(f"{name}: field errors {report['errors']}")
        want = reference.get(name, {})
        diff = {k: (v, want.get(k, "<missing>"))
                for k, v in invariants(report).items()
                if want.get(k, "<missing>") != v}
        if diff:
            raise GateError(f"{name}: (got, reference) differ: {diff}")
        yield report
    if "summary" not in next(records, {}) or next(records, None) is not None:
        raise GateError("scan output does not end with one summary line")
