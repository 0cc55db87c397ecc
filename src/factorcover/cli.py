"""Command-line interface: analyze, scan, gen, verify.

Exit codes: 0 clean, 1 at least one violation or failed audit, 2 usage or
input parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from typing import List, Optional

from .graphs import (
    GraphFormatError,
    GraphTooLargeError,
    NotCubicError,
    flower_snark,
    to_mgf,
)
from .matching import DEFAULT_PM_CAP, PMCapExceededError
from .report import (
    ALL_OPS,
    AnalyzeOptions,
    ReportAuditError,
    ScanTally,
    analyze,
    audit_report,
    parse_entry,
    read_corpus,
    report_lines,
    scan,
)


def _add_analysis_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", help="input graph file")
    parser.add_argument("--format", choices=("mgf", "graph6"), default="mgf",
                        help="input encoding (default: mgf)")
    parser.add_argument("--ops", default=None,
                        help="comma-separated operation list "
                             f"(subset of {','.join(ALL_OPS)}); replaces "
                             "the default set")
    parser.add_argument("--mu-upto", type=int, default=AnalyzeOptions.mu_upto,
                        metavar="K",
                        help="compute mu_1..mu_K (default: %(default)s)")
    parser.add_argument("--scc-dim-cap", type=int,
                        default=AnalyzeOptions.scc_dim_cap, metavar="D",
                        help="cycle space dimension cap for the scc op "
                             "(default: %(default)s)")
    parser.add_argument("--pm-cap", type=int, default=DEFAULT_PM_CAP,
                        metavar="N",
                        help="abort matching enumeration beyond N matchings")
    parser.add_argument("--timings", action="store_true",
                        help="include per-field timings (non-deterministic "
                             "output)")
    parser.add_argument("--out", default=None, help="write JSONL here "
                                                    "instead of stdout")


def _options_from_args(args: argparse.Namespace) -> AnalyzeOptions:
    if args.ops is not None:
        ops = tuple(op.strip() for op in args.ops.split(",") if op.strip())
    else:
        ops = AnalyzeOptions().ops
    return AnalyzeOptions(
        ops=ops,
        mu_upto=args.mu_upto,
        pm_cap=args.pm_cap,
        scc_dim_cap=args.scc_dim_cap,
        timings=args.timings,
    )


def _open_out(out_path: Optional[str]):
    """The --out file opened for writing, line-buffered, or stdout.

    Commands open it before any work, so an unwritable path is a usage
    error (exit 2) rather than a traceback after the analysis.
    """
    if out_path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(out_path, "w", buffering=1)


def _emit(lines, fh) -> Optional[str]:
    """Write each line as it is produced; return the last one."""
    line = None
    for line in lines:
        fh.write(line + "\n")
    return line


def _cmd_analyze(args: argparse.Namespace) -> int:
    options = _options_from_args(args)
    try:
        entries = read_corpus(args.file, args.format)
        if not entries:
            raise GraphFormatError("no graph found in input")
        if len(entries) > 1:
            raise GraphFormatError(f"{len(entries)} graphs in input; "
                                   "analyze takes one, use scan")
        ((name, text),) = entries
        G = parse_entry(text, args.format)
        out = _open_out(args.out)
    except (OSError, GraphFormatError, NotCubicError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with out as fh:
        report = analyze(G, options, id=name)
        _emit(report_lines(iter([report.to_dict()])), fh)
    return 1 if report.violations else 0


def _cmd_scan(args: argparse.Namespace) -> int:
    options = _options_from_args(args)
    try:
        reports = scan(args.file, options, fmt=args.format,
                       workers=args.workers)
        out = _open_out(args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with out as fh:
        summary = json.loads(_emit(report_lines(reports), fh))["summary"]
    return 1 if summary["violations"] else 0


def _cmd_gen(args: argparse.Namespace) -> int:
    # built first, so that a bad parameter or a graph over the edge
    # capacity leaves no file
    text = f"# flower_snark_J{args.t}\n" + to_mgf(flower_snark(args.t))
    try:
        out = _open_out(args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with out as fh:
        fh.write(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.pm_cap < 1:
        raise ValueError("pm_cap must be at least 1")
    try:
        corpus = read_corpus(args.corpus, args.format)
        with open(args.report) as fh:
            lines = [(number, line) for number, line in enumerate(fh, 1)
                     if line.strip()]
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    entries = dict(corpus)
    failures = 0
    audited = 0
    # the summary lines, checked once every record has been counted
    summaries = []
    tally = ScanTally()
    uncounted = None  # the first record the tally could not count
    for number, line in lines:
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            data = None
        if not isinstance(data, dict):
            print(f"fail line {number}: not a JSON object", file=sys.stderr)
            failures += 1
            continue
        if "summary" in data:
            summaries.append((number, data))
            continue
        if uncounted is None:
            try:
                tally.add(data)
            except (KeyError, TypeError, AttributeError):
                uncounted = number
        if "error" in data and "n" not in data:
            continue
        name = data.get("id")
        if not isinstance(name, str):
            print(f"fail line {number}: report id is not a string",
                  file=sys.stderr)
            failures += 1
            continue
        if name not in entries:
            print(f"fail {name}: not present in corpus", file=sys.stderr)
            failures += 1
            continue
        try:
            G = parse_entry(entries[name], args.format)
            audit_report(G, data, pm_cap=args.pm_cap)
        except (GraphFormatError, NotCubicError, GraphTooLargeError,
                PMCapExceededError, ReportAuditError) as exc:
            print(f"fail {name}: {exc}", file=sys.stderr)
            failures += 1
            continue
        audited += 1
    for number, data in summaries:
        if uncounted is not None:
            print(f"fail line {number}: summary cannot be recounted, line "
                  f"{uncounted} is not a countable record", file=sys.stderr)
            failures += 1
        elif data != tally.summary():
            print(f"fail line {number}: summary differs from the recount "
                  f"{json.dumps(tally.summary()['summary'])}",
                  file=sys.stderr)
            failures += 1
    print(f"verified {audited} reports, {failures} failures")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorcover",
        description="1-factor covers, cores, and cycle covers of cubic "
                    "graphs: per-graph analysis and corpus scanning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # options match by their full name only, so that an unknown flag such
    # as --scc is an error rather than an abbreviation of --scc-dim-cap
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p_analyze = add_parser("analyze", help="report on a single graph")
    _add_analysis_flags(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_scan = add_parser("scan", help="report on every graph in a corpus")
    _add_analysis_flags(p_scan)
    p_scan.add_argument("--workers", type=int, default=1, metavar="N",
                        help="process pool size (default: 1)")
    p_scan.set_defaults(func=_cmd_scan)

    p_gen = add_parser("gen", help="emit a generated graph as MGF")
    p_gen.add_argument("kind", choices=("flower",))
    p_gen.add_argument("t", type=int)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=_cmd_gen)

    p_verify = add_parser("verify",
                          help="re-audit report witnesses and the "
                               "summary line against a corpus")
    p_verify.add_argument("report", help="JSONL report file from scan")
    p_verify.add_argument("corpus", help="corpus the report was built from")
    p_verify.add_argument("--format", choices=("mgf", "graph6"),
                          default="mgf")
    p_verify.add_argument("--pm-cap", type=int, default=DEFAULT_PM_CAP,
                          metavar="N",
                          help="fail a report whose factor-index audit "
                               "would need more than N perfect matchings")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
