import copy
import functools
import hashlib
import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from factorcover import cli as cli_module
from factorcover import report as report_module
from factorcover.cli import main
from factorcover.cores import build_core, classify_core
from factorcover.graphs import (
    CubicGraph,
    flower_snark,
    parse_edge_list,
    prism,
    to_mgf,
)
from factorcover.matching import enumerate_perfect_matchings
from factorcover.report import (
    ALL_OPS,
    DEFAULT_OPS,
    AnalyzeOptions,
    ReportAuditError,
    analyze,
    audit_report,
    parse_entry,
    read_corpus,
    scan,
)

from conftest import PETERSEN_EDGES, corpus_path

MINI_MGF = """\
# K4
4 6
0 1
0 2
0 3
1 2
1 3
2 3

# K33
6 9
0 3
0 4
0 5
1 3
1 4
1 5
2 3
2 4
2 5

# prism
6 9
0 1
1 2
2 0
3 4
4 5
5 3
0 3
1 4
2 5
"""


THETA_MGF = "# theta\n2 3\n0 1\n0 1\n0 1\n"

# the default ops plus the Fulkerson search
FULKERSON_OPS = DEFAULT_OPS + ("fulkerson",)
FULKERSON_ARGS = ["--ops", ",".join(FULKERSON_OPS)]

# two K4-minus-an-edge pieces joined by the bridge 4-9
BRIDGED_MGF = """\
# bridged
10 15
0 1
0 2
0 3
1 2
1 3
2 4
3 4
5 6
5 7
5 8
6 7
6 8
7 9
8 9
4 9
"""


@pytest.fixture
def mini_corpus(tmp_path):
    path = tmp_path / "mini.mgf"
    path.write_text(MINI_MGF)
    return str(path)


@pytest.fixture
def k4_file(tmp_path):
    """The first graph of MINI_MGF on its own, for analyze."""
    path = tmp_path / "k4.mgf"
    path.write_text(MINI_MGF.split("\n\n")[0])
    return str(path)


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_writes_one_report(k4_file, tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    assert main(["analyze", k4_file, "--out", str(out)]) == 0
    (report,) = read_jsonl(out)
    assert report["id"] == "K4"
    assert report["mu"] == {"1": 4, "2": 2, "3": 0, "4": 0}
    assert report["violations"] == []


def test_analyze_stdout_and_flags(k4_file, capsys):
    assert main(["analyze", k4_file, "--mu-upto", "5",
                 *FULKERSON_ARGS]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mu"]["5"] == 0
    assert report["fulkerson"] is not None


def test_analyze_rejects_several_graphs_exits_2(mini_corpus, tmp_path,
                                                 monkeypatch, capsys):
    """analyze reads one graph; a corpus is an error, not its first entry."""
    monkeypatch.setattr(cli_module, "analyze", _no_analysis)
    out = tmp_path / "report.jsonl"
    assert main(["analyze", mini_corpus, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: 3 graphs in input; analyze takes one, use scan\n")
    assert not out.exists()


def test_analyze_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.mgf"
    bad.write_text("4 banana\n")
    assert main(["analyze", str(bad)]) == 2
    missing = tmp_path / "nope.mgf"
    assert main(["analyze", str(missing)]) == 2


def test_usage_error_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["analyze"]) == 2


def test_unknown_op_exits_2(mini_corpus, capsys):
    assert main(["analyze", mini_corpus, "--ops", "structure,nonsense"]) == 2


def test_mu_upto_out_of_range_exits_2(mini_corpus, tmp_path, capsys):
    for k in (0, 7):
        with pytest.raises(ValueError):
            AnalyzeOptions(mu_upto=k)
    out = tmp_path / "r.jsonl"
    assert main(["scan", mini_corpus, "--mu-upto", "7",
                 "--out", str(out)]) == 2
    assert not out.exists()


def check_rejected_by_scan_and_analyze(corpus, tmp_path, capsys, flag,
                                       value, message):
    out = tmp_path / "r.jsonl"
    for command in ("scan", "analyze"):
        capsys.readouterr()
        assert main([command, corpus, flag, value, "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_pm_cap_below_1_exits_2(cap, mini_corpus, tmp_path, capsys):
    with pytest.raises(ValueError):
        AnalyzeOptions(pm_cap=int(cap))
    check_rejected_by_scan_and_analyze(mini_corpus, tmp_path, capsys,
                                       "--pm-cap", cap,
                                       "pm_cap must be at least 1")
    out = tmp_path / "scan.jsonl"
    assert main(["scan", mini_corpus, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out), mini_corpus, "--pm-cap", cap]) == 2
    assert "error: pm_cap must be at least 1" in capsys.readouterr().err


def test_scc_dim_cap_below_0_exits_2(mini_corpus, tmp_path, capsys):
    AnalyzeOptions(scc_dim_cap=0)
    with pytest.raises(ValueError):
        AnalyzeOptions(scc_dim_cap=-1)
    check_rejected_by_scan_and_analyze(mini_corpus, tmp_path, capsys,
                                       "--scc-dim-cap", "-5",
                                       "scc_dim_cap must be at least 0")


@pytest.mark.parametrize("args", [["--budget-ms", "0"], ["--scc"],
                                  ["--scc", "3"], ["--fulkerson"]])
def test_removed_flags_exit_2(args, mini_corpus, tmp_path, capsys):
    """The work is chosen by --ops alone, no wall-clock limit exists, and
    --scc is not taken as an abbreviation of --scc-dim-cap."""
    out = tmp_path / "r.jsonl"
    for command in ("scan", "analyze"):
        capsys.readouterr()
        assert main([command, mini_corpus, *args, "--out", str(out)]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_scan_reports_every_graph(mini_corpus, tmp_path):
    out = tmp_path / "scan.jsonl"
    assert main(["scan", mini_corpus, "--out", str(out)]) == 0
    lines = read_jsonl(out)
    assert [r["id"] for r in lines[:-1]] == ["K4", "K33", "prism"]
    assert all(r["mu"]["3"] == 0 for r in lines[:-1])
    summary = lines[-1]["summary"]
    assert summary["graphs"] == 3 and summary["violations"] == 0
    assert summary["fan_raspaud_found"] == [3, 3]


def test_scan_is_deterministic_and_worker_invariant(mini_corpus, tmp_path):
    outs = []
    for i, workers in enumerate(("1", "1", "3")):
        out = tmp_path / f"scan{i}.jsonl"
        main(["scan", mini_corpus, "--workers", workers, "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_scan_records_parse_errors(tmp_path):
    path = tmp_path / "mixed.mgf"
    path.write_text("# good\n4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n\n"
                    "# bad\n4 pear\n")
    out = tmp_path / "out.jsonl"
    assert main(["scan", str(path), "--out", str(out)]) == 0
    lines = read_jsonl(out)
    assert "error" in lines[1]
    assert lines[-1]["summary"]["parse_errors"] == 1


def test_scan_records_empty_graph_and_continues(tmp_path):
    path = tmp_path / "empty.mgf"
    path.write_text("# empty\n0 0\n\n" + MINI_MGF.split("\n\n")[0] + "\n")
    out = tmp_path / "out.jsonl"
    assert main(["scan", str(path), "--out", str(out)]) == 0
    lines = read_jsonl(out)
    assert lines[0]["id"] == "empty"
    assert lines[0]["error"].startswith("GraphFormatError")
    assert lines[1]["id"] == "K4" and lines[1]["mu"]["3"] == 0
    summary = lines[-1]["summary"]
    assert summary["graphs"] == 1 and summary["parse_errors"] == 1


def test_scan_records_missing_cycle_cover_and_continues(tmp_path, capsys):
    corpus = tmp_path / "bridged.mgf"
    corpus.write_text(BRIDGED_MGF + "\n" + MINI_MGF.split("\n\n")[0] + "\n")
    out = tmp_path / "out.jsonl"
    assert main(["scan", str(corpus), "--ops", "scc", "--out", str(out)]) == 0
    bridged, k4, last = read_jsonl(out)
    assert bridged["id"] == "bridged" and bridged["covers"] == []
    assert bridged["errors"] == {"scc": "no_cycle_cover"}
    assert k4["id"] == "K4" and k4["covers"][0]["kind"] == "scc_exact"
    assert last["summary"]["graphs"] == 2
    capsys.readouterr()
    assert main(["verify", str(out), str(corpus)]) == 0
    assert "verified 2 reports, 0 failures" in capsys.readouterr().out


@pytest.mark.parametrize("ops", ["structure,mu", "mu"])
def test_mu3_checks_need_a_bridgeless_graph(tmp_path, ops):
    corpus = tmp_path / "bridged.mgf"
    corpus.write_text(BRIDGED_MGF)
    out = tmp_path / "out.jsonl"
    assert main(["scan", str(corpus), "--ops", ops, "--out", str(out)]) == 0
    bridged, last = read_jsonl(out)
    assert bridged["mu"]["3"] == 6 and 35 * 6 > 8 * bridged["m"]
    assert bridged["checks"] == [] and bridged["violations"] == []
    assert last["summary"]["violations"] == 0


def test_theorem_checks_run_without_the_structure_op(tmp_path):
    corpus = tmp_path / "j5.mgf"
    assert main(["gen", "flower", "5", "--out", str(corpus)]) == 0
    out = tmp_path / "out.jsonl"
    assert main(["scan", str(corpus), "--ops", "mu,fan_raspaud,core",
                 "--out", str(out)]) == 0
    j5, last = read_jsonl(out)
    assert j5["bridgeless"] is None and j5["fan_raspaud"] is not None
    passed = {c["name"]: c["passed"] for c in j5["checks"]}
    assert passed["fan_raspaud_exists"] is True
    assert passed["mu3_zero_or_ge_3"] and passed["mu3_le_8m_over_35"]
    assert last["summary"]["fan_raspaud_found"] == [1, 1]


TWO_K4_MGF = "# two_k4\n8 12\n" + "".join(
    f"{u + s} {v + s}\n" for s in (0, 4)
    for u, v in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


@pytest.mark.parametrize("args", [["--ops", "structure,oddness"],
                                  ["--ops", "oddness"],
                                  ["--ops", ",".join(ALL_OPS),
                                   "--mu-upto", "2"]])
def test_oddness_check_skips_3_edge_colourable_graphs(tmp_path, args):
    """oddness2_iff_4ec_class_of_2 is about graphs of oddness > 0, so it
    is not run on K4 or two disjoint K4s, whether or not mu_3 is."""
    corpus = tmp_path / "k4s.mgf"
    corpus.write_text(MINI_MGF.split("\n\n")[0] + "\n\n" + TWO_K4_MGF)
    out = tmp_path / "out.jsonl"
    assert main(["scan", str(corpus), *args, "--out", str(out)]) == 0
    *reports, last = read_jsonl(out)
    assert [r["id"] for r in reports] == ["K4", "two_k4"]
    for r in reports:
        assert r["oddness"] == 0 and r["violations"] == [], r["id"]
        assert "oddness2_iff_4ec_class_of_2" not in [
            c["name"] for c in r["checks"]], r["id"]
    assert last["summary"]["violations"] == 0


def test_all_ops_scan_digest(tmp_path):
    """Every op on the corpus graphs with n <= 12 (covers, scc, fulkerson,
    oddness and hypohamiltonian included) gives fixed bytes; the digest
    changes only with an intentional schema or witness change."""
    blocks = [text for _, text in read_corpus(corpus_path(), "mgf")
              if parse_entry(text, "mgf").n <= 12]
    assert len(blocks) == 108
    corpus = tmp_path / "small.mgf"
    corpus.write_text("\n\n".join(blocks) + "\n")
    out = tmp_path / "scan.jsonl"
    assert main(["scan", str(corpus), "--ops", ",".join(ALL_OPS),
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "506cd5337b3cb8dbe278220579a5b3301e4dddeaeecc4d418698542da24c5eaa")


@pytest.mark.parametrize("t,digest", [
    (9, "695ded049dba6c79bfdf80bfb8c92c286956eb6845c1503f431cf02b8eecae20"),
    (11, "e878016fd13f65fd1bcec1d2e7f9e79d19c598ae7339d1f1e9529396d635d0c7"),
])
def test_flower_snark_scan_digest(tmp_path, t, digest):
    """A default scan of J9 (512 matchings) or J11 (2048) gives fixed bytes.
    They are the flower snarks past J7, the one corpus graph past
    ORBIT_MIN_MATCHINGS, so the digests cover the orbit and seed paths on
    longer matching lists than the corpus reaches; they change only with
    an intentional schema or witness change."""
    corpus = tmp_path / f"j{t}.mgf"
    assert main(["gen", "flower", str(t), "--out", str(corpus)]) == 0
    out = tmp_path / "scan.jsonl"
    assert main(["scan", str(corpus), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("t,digest", [
    (5, "48ac5914a0c12a2a6602fbd25d0a4b930fab1c509ae005be868e35507a28a1d7"),
    (7, "4b41472efbf9f07b9f60867f1418bb42f313248719af3f1eecf6c2cc7c352e4c"),
    (9, "505ada980749af0e09307e8e1795f9c108f5752db9da260f7969c42998647ed1"),
])
def test_flower_snark_all_ops_scan_digest(tmp_path, t, digest):
    """Every op on J5, J7 or J9 gives fixed bytes.  Snarks are not
    3-edge-colourable, so these digests cover covers, fulkerson, oddness
    and hypohamiltonian where the corpus all-ops pin (n <= 12) has only
    Petersen and one other such graph; they change only with an
    intentional schema or witness change."""
    corpus = tmp_path / f"j{t}.mgf"
    assert main(["gen", "flower", str(t), "--out", str(corpus)]) == 0
    out = tmp_path / "scan.jsonl"
    assert main(["scan", str(corpus), "--ops", ",".join(ALL_OPS),
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_scan_rejects_duplicate_ids_exits_2(tmp_path, capsys):
    path = tmp_path / "dup.mgf"
    path.write_text(THETA_MGF.replace("# theta", "# a") + "\n"
                    + MINI_MGF.split("\n\n")[0].replace("# K4", "# a"))
    out = tmp_path / "out.jsonl"
    assert main(["scan", str(path), "--out", str(out)]) == 2
    assert "duplicate id 'a'" in capsys.readouterr().err
    assert not out.exists()


def test_whitespace_only_line_separates_mgf_blocks(tmp_path):
    path = tmp_path / "spaced.mgf"
    path.write_text(MINI_MGF.split("\n\n")[0] + "\n \t\n" + THETA_MGF)
    out = tmp_path / "out.jsonl"
    assert main(["scan", str(path), "--out", str(out)]) == 0
    lines = read_jsonl(out)
    assert [line["id"] for line in lines[:-1]] == ["K4", "theta"]
    assert lines[-1]["summary"]["graphs"] == 2
    assert lines[-1]["summary"]["parse_errors"] == 0


def test_unnamed_mgf_blocks_keep_their_numbering(tmp_path):
    body = "2 3\n0 1\n0 1\n0 1"
    text = "\n\n" + body + "\n\n\n" + body + "\n\n\n\n" + body + "\n"
    path = tmp_path / "unnamed.mgf"
    path.write_text(text)
    want = [f"mgf_{i}" for i, block in enumerate(text.split("\n\n"))
            if block.strip()]
    assert [name for name, _ in read_corpus(str(path))] == want
    assert want == ["mgf_1", "mgf_2", "mgf_4"]


def test_scan_records_oversize_graph_and_continues(tmp_path):
    path = tmp_path / "oversize.mgf"
    k4 = MINI_MGF.split("\n\n")[0]
    # C64 x K2 and K_2^3 side by side: 130 vertices, 195 edges
    block = "130 195\n" + "".join(
        f"{u} {v}\n" for u, v in prism(64).edges) + "128 129\n" * 3
    path.write_text(k4 + "\n\n# oversize\n" + block)
    out = tmp_path / "out.jsonl"
    assert main(["scan", str(path), "--out", str(out)]) == 0
    lines = read_jsonl(out)
    assert lines[0]["id"] == "K4" and lines[0]["mu"]["3"] == 0
    assert lines[1]["id"] == "oversize"
    assert lines[1]["error"].startswith("GraphTooLargeError")
    summary = lines[-1]["summary"]
    assert summary["graphs"] == 1 and summary["parse_errors"] == 1


def test_scan_records_a_huge_vertex_count_and_continues(tmp_path):
    path = tmp_path / "huge.mgf"
    path.write_text("# huge\n1000000 3\n0 1\n1 2\n2 0\n\n" + MINI_MGF)
    out = tmp_path / "out.jsonl"
    assert main(["scan", str(path), "--out", str(out)]) == 0
    lines = read_jsonl(out)
    assert lines[0] == {"id": "huge", "error": "GraphTooLargeError: "
                        "1000000 vertices exceeds capacity 128"}
    assert [line["id"] for line in lines[1:-1]] == ["K4", "K33", "prism"]
    summary = lines[-1]["summary"]
    assert summary["graphs"] == 3 and summary["parse_errors"] == 1


def test_scan_streams_reports_before_a_crash(tmp_path, monkeypatch):
    two = tmp_path / "two.mgf"
    two.write_text("\n\n".join(MINI_MGF.split("\n\n")[:2]))
    analyze_one = report_module.analyze

    def crash_on_second(G, options, id):
        if id == "K33":
            raise RuntimeError("unexpected failure")
        return analyze_one(G, options, id=id)

    monkeypatch.setattr(report_module, "analyze", crash_on_second)
    out = tmp_path / "out.jsonl"
    with pytest.raises(RuntimeError):
        main(["scan", str(two), "--out", str(out)])
    (first,) = read_jsonl(out)
    assert first["id"] == "K4" and first["mu"]["3"] == 0


def test_scan_missing_corpus_exits_2(tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    assert main(["scan", str(tmp_path / "nope.mgf"), "--out", str(out)]) == 2
    assert not out.exists()


def _no_analysis(*args, **kwargs):
    raise AssertionError("a graph was analyzed before --out was opened")


@pytest.mark.parametrize("command", ["analyze", "scan"])
def test_unwritable_out_exits_2_before_analysis(command, k4_file, tmp_path,
                                                 monkeypatch, capsys):
    monkeypatch.setattr(report_module, "analyze", _no_analysis)
    monkeypatch.setattr(cli_module, "analyze", _no_analysis)
    out = tmp_path / "no_such_dir" / "out.jsonl"
    assert main([command, k4_file, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.parent.exists()


def test_gen_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "j7.mgf"
    assert main(["gen", "flower", "7", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_scan_rejects_workers_below_1(workers, mini_corpus, tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    assert main(["scan", mini_corpus, "--workers", workers,
                 "--out", str(out)]) == 2
    assert "workers must be at least 1" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError):
        scan(mini_corpus, workers=int(workers))


def test_analyze_takes_no_workers(k4_file, tmp_path, capsys):
    """--workers sizes scan's process pool; analyze reads one graph."""
    out = tmp_path / "out.jsonl"
    assert main(["analyze", k4_file, "--workers", "2",
                 "--out", str(out)]) == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not out.exists()


def test_scan_graph6_format(tmp_path):
    import networkx as nx

    path = tmp_path / "g6.txt"
    lines = [
        nx.to_graph6_bytes(nx.random_regular_graph(3, 10, seed=s),
                           header=False).decode().strip()
        for s in (1, 2)
    ]
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.jsonl"
    assert main(["scan", str(path), "--format", "graph6",
                 "--out", str(out)]) == 0
    reports = read_jsonl(out)
    assert [r["id"] for r in reports[:-1]] == ["g6_0", "g6_1"]


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_flower_round_trips(tmp_path):
    out = tmp_path / "j5.mgf"
    assert main(["gen", "flower", "5", "--out", str(out)]) == 0
    G = parse_edge_list(out.read_text())
    assert (G.n, G.m) == (20, 30)


def test_gen_rejects_bad_parameter(tmp_path, capsys):
    out = tmp_path / "j.mgf"
    for t in ("4", "3"):
        capsys.readouterr()
        assert main(["gen", "flower", t]) == 2
        assert main(["gen", "flower", t, "--out", str(out)]) == 2
        assert "odd t >= 5" in capsys.readouterr().err
        assert not out.exists()


def test_gen_over_capacity_leaves_no_file(tmp_path, capsys):
    out = tmp_path / "j33.mgf"
    assert main(["gen", "flower", "33", "--out", str(out)]) == 2
    assert "exceeds capacity 192" in capsys.readouterr().err
    assert not out.exists()
    assert main(["gen", "flower", "31", "--out", str(out)]) == 0
    assert parse_edge_list(out.read_text()).m == 186


def test_gen_far_over_capacity_builds_nothing(tmp_path, capsys):
    out = tmp_path / "j.mgf"
    tracemalloc.start()
    try:
        assert main(["gen", "flower", "100001", "--out", str(out)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "600006 edges exceeds capacity 192" in capsys.readouterr().err
    assert not out.exists()
    assert peak < 1 << 20, peak


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_round_trip(mini_corpus, tmp_path, capsys):
    out = tmp_path / "scan.jsonl"
    main(["scan", mini_corpus, *FULKERSON_ARGS, "--out", str(out)])
    assert main(["verify", str(out), mini_corpus]) == 0


def test_verify_detects_tampering(mini_corpus, tmp_path, capsys):
    out = tmp_path / "scan.jsonl"
    main(["scan", mini_corpus, "--out", str(out)])
    lines = out.read_text().splitlines()
    data = json.loads(lines[0])
    data["mu_witness"]["3"]["factors"][0][0] ^= 1  # corrupt a witness edge
    lines[0] = json.dumps(data, separators=(",", ":"))
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(tampered), mini_corpus]) == 1


def test_verify_accepts_entries_with_their_keys_reordered(
        mini_corpus, tmp_path, capsys):
    """JSON objects are unordered: a witness entry whose keys, or whose
    nested objects' keys, come in another order than the rebuilt entry's
    still verifies."""
    out = tmp_path / "scan.jsonl"
    main(["scan", mini_corpus, *FULKERSON_ARGS, "--out", str(out)])

    def reordered(value):
        if isinstance(value, dict):
            return {key: reordered(value[key]) for key in reversed(value)}
        if isinstance(value, list):
            return [reordered(item) for item in value]
        return value

    lines = out.read_text().splitlines()
    reports = [json.loads(line) for line in lines[:-1]]
    assert any(r["cores"] and r["cores"][0]["components"] for r in reports)
    for r in reports:
        r["mu_witness"] = {k: reordered(w) for k, w in r["mu_witness"].items()}
        for key in ("cores", "covers", "fan_raspaud", "fulkerson"):
            r[key] = reordered(r.get(key))
    tampered = tmp_path / "reordered.jsonl"
    tampered.write_text("".join(
        json.dumps(r) + "\n" for r in reports) + lines[-1] + "\n")
    assert main(["verify", str(tampered), mini_corpus]) == 0
    assert f"verified {len(reports)} reports, 0 failures" in (
        capsys.readouterr().out)


@pytest.fixture
def summary_scan(tmp_path):
    """A Fulkerson scan of the mini corpus plus an unparsable block, as
    (corpus path, report records, summary record)."""
    corpus = tmp_path / "mixed.mgf"
    corpus.write_text(MINI_MGF + "\n# bad\n4 pear\n")
    out = tmp_path / "scan.jsonl"
    assert main(["scan", str(corpus), *FULKERSON_ARGS,
                 "--out", str(out)]) == 0
    *records, summary = read_jsonl(out)
    assert summary["summary"]["parse_errors"] == 1
    return str(corpus), records, summary


def verify_records(tmp_path, corpus, records, capsys):
    path = tmp_path / "edited.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    status = main(["verify", str(path), corpus])
    captured = capsys.readouterr()
    return status, captured.out.strip(), captured.err.splitlines()


SUMMARY_TAMPERINGS = {
    "graphs": lambda s: s.update(graphs=s["graphs"] + 1),
    "parse_errors": lambda s: s.update(parse_errors=0),
    "violations": lambda s: s.update(violations=1),
    "violating_graphs": lambda s: s["violating_graphs"].append("K4"),
    "fan_raspaud_found": lambda s: s["fan_raspaud_found"].__setitem__(0, 2),
    "fulkerson_found": lambda s: s["fulkerson_found"].__setitem__(1, 4),
    "extra_key": lambda s: s.update(extra=0),
}


@pytest.mark.parametrize("field", sorted(SUMMARY_TAMPERINGS))
def test_verify_recounts_the_summary_line(summary_scan, tmp_path, capsys,
                                          field):
    corpus, records, summary = summary_scan
    assert verify_records(tmp_path, corpus, records + [summary], capsys) == (
        0, "verified 3 reports, 0 failures", [])
    SUMMARY_TAMPERINGS[field](summary["summary"])
    status, out, err = verify_records(tmp_path, corpus, records + [summary],
                                      capsys)
    assert (status, out) == (1, "verified 3 reports, 1 failures")
    (failure,) = err
    assert failure.startswith("fail line 5: summary differs from the recount")


def test_verify_summary_counts_the_lines_of_the_file(summary_scan, tmp_path,
                                                     capsys):
    corpus, records, summary = summary_scan
    # a dropped report, or a dropped error record, changes the recount
    for dropped in (1, 3):
        kept = records[:dropped] + records[dropped + 1:]
        status, out, err = verify_records(tmp_path, corpus,
                                          kept + [summary], capsys)
        assert status == 1 and len(err) == 1, (dropped, err)
        assert "summary differs" in err[0]
    # without a summary line the reports verify as before
    assert verify_records(tmp_path, corpus, records, capsys) == (
        0, "verified 3 reports, 0 failures", [])


def test_verify_fails_a_summary_it_cannot_recount(summary_scan, tmp_path,
                                                  capsys):
    corpus, records, summary = summary_scan
    del records[0]["checks"]
    status, out, err = verify_records(tmp_path, corpus, records + [summary],
                                      capsys)
    assert (status, out) == (1, "verified 2 reports, 2 failures")
    assert err[0].startswith("fail K4: ") and "missing" in err[0]
    assert err[1] == ("fail line 5: summary cannot be recounted, line 1 is "
                      "not a countable record")


def test_verify_fails_duplicate_ids(tmp_path, capsys):
    k4 = MINI_MGF.split("\n\n")[0].replace("# K4", "# same")
    theta = "# same\n2 3\n0 1\n0 1\n0 1\n"
    corpus = tmp_path / "dup.mgf"
    corpus.write_text(k4 + "\n\n" + theta)
    # scan refuses duplicate ids, so scan each block on its own
    reports = []
    for i, block in enumerate((k4, theta)):
        single = tmp_path / f"single{i}.mgf"
        single.write_text(block)
        part = tmp_path / f"scan{i}.jsonl"
        assert main(["scan", str(single), "--out", str(part)]) == 0
        reports += part.read_text().splitlines()[:-1]
    out = tmp_path / "scan.jsonl"
    out.write_text("\n".join(reports) + "\n")
    capsys.readouterr()
    assert main(["verify", str(out), str(corpus)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: duplicate id 'same' in corpus\n"
    assert "verified" not in captured.out
    report = tmp_path / "analyze.jsonl"
    assert main(["analyze", str(corpus), "--out", str(report)]) == 2
    assert captured.err == capsys.readouterr().err
    assert not report.exists()


def test_read_corpus_rejects_a_repeated_mgf_id(tmp_path):
    path = tmp_path / "dup.mgf"
    # the unnamed second block is mgf_1, like the name of the third
    path.write_text(THETA_MGF + "\n2 3\n0 1\n0 1\n0 1\n\n"
                    + THETA_MGF.replace("theta", "mgf_1"))
    with pytest.raises(ValueError, match="^duplicate id 'mgf_1' in corpus$"):
        read_corpus(str(path))


def test_verify_fails_out_of_range_index_and_continues(mini_corpus, tmp_path,
                                                       capsys):
    two = tmp_path / "two.mgf"
    two.write_text("\n\n".join(MINI_MGF.split("\n\n")[:2]))
    out = tmp_path / "scan.jsonl"
    main(["scan", str(two), "--out", str(out)])
    lines = out.read_text().splitlines()
    data = json.loads(lines[0])
    data["mu_witness"]["3"]["factors"][0][0] = data["m"] + 5
    lines[0] = json.dumps(data, separators=(",", ":"))
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", str(tampered), str(two)]) == 1
    captured = capsys.readouterr()
    (failure,) = captured.err.splitlines()
    assert failure.startswith("fail K4: ") and "out of range" in failure
    assert "verified 1 reports, 1 failures" in captured.out


def test_verify_fails_pm_cap_and_continues(tmp_path, capsys):
    corpus = tmp_path / "two.mgf"
    corpus.write_text(MINI_MGF.split("\n\n")[0] + "\n\n" + THETA_MGF)
    out = tmp_path / "scan.jsonl"
    assert main(["scan", str(corpus), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out), str(corpus), "--pm-cap", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "fail K4: more than 1 perfect matchings",
        "fail theta: more than 1 perfect matchings"]
    assert captured.out.splitlines() == ["verified 0 reports, 2 failures"]


@pytest.fixture
def petersen_j9_scan(tmp_path):
    """A corpus of Petersen (6 matchings) and J9 (512) and its default
    scan, whose factor indices reach 2 and 314."""
    corpus = tmp_path / "two.mgf"
    corpus.write_text("# petersen\n" + to_mgf(CubicGraph(10, PETERSEN_EDGES))
                      + "\n# J9\n" + to_mgf(flower_snark(9)))
    out = tmp_path / "scan.jsonl"
    assert main(["scan", str(corpus), "--out", str(out)]) == 0
    return str(out), str(corpus)


def named_indices(data):
    return [i for key in ("fan_raspaud", "fulkerson") if data.get(key)
            for i in data[key]["factor_indices"]] + [
        i for entry in data["cores"] for i in entry["factors"]]


def test_verify_enumerates_once_up_to_the_largest_named_index(
        petersen_j9_scan, monkeypatch, capsys):
    out, corpus = petersen_j9_scan
    calls = []
    enumerate_all = report_module.enumerate_perfect_matchings

    def counted(G, *args, **kwargs):
        pms = enumerate_all(G, *args, **kwargs)
        calls.append((G.n, kwargs.get("stop"), len(pms)))
        return pms

    monkeypatch.setattr(report_module, "enumerate_perfect_matchings",
                        counted)
    assert main(["verify", out, corpus]) == 0
    stops = [1 + max(named_indices(data))
             for data in read_jsonl(out) if "summary" not in data]
    assert stops == [3, 315]
    assert calls == [(10, 3, 3), (36, 315, 315)]


def test_verify_pm_cap_counts_only_the_named_prefix(petersen_j9_scan,
                                                    capsys):
    """J9 has 512 matchings, but its report's indices need only the first
    315: a cap of 315 verifies it, a cap of 314 fails it."""
    out, corpus = petersen_j9_scan
    capsys.readouterr()
    assert main(["verify", out, corpus, "--pm-cap", "315"]) == 0
    assert "verified 2 reports, 0 failures" in capsys.readouterr().out
    assert main(["verify", out, corpus, "--pm-cap", "314"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "fail J9: more than 314 perfect matchings\n"
    assert "verified 1 reports, 1 failures" in captured.out


def test_verify_fails_malformed_lines_and_continues(tmp_path, capsys):
    two = tmp_path / "two.mgf"
    two.write_text("\n\n".join(MINI_MGF.split("\n\n")[:2]))
    out = tmp_path / "scan.jsonl"
    main(["scan", str(two), "--out", str(out)])
    k4, k33 = out.read_text().splitlines()[:2]
    no_mu = json.loads(k4)
    del no_mu["mu"]
    bad_key = json.loads(k4)
    bad_key["mu_witness"]["x"] = bad_key["mu_witness"].pop("3")
    lines = ["[1,2]", json.dumps(no_mu), json.dumps(bad_key), k33]
    malformed = tmp_path / "malformed.jsonl"
    malformed.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", str(malformed), str(two)]) == 1
    captured = capsys.readouterr()
    failures = captured.err.splitlines()
    assert failures[0] == "fail line 1: not a JSON object"
    assert all(f.startswith("fail K4: ") and "missing or mistyped field" in f
               for f in failures[1:]), failures
    assert len(failures) == 3
    assert "verified 1 reports, 3 failures" in captured.out
    bad_id = json.loads(k4)
    bad_id["id"] = ["K4"]
    malformed.write_text(json.dumps(bad_id) + "\n" + k33 + "\n")
    assert main(["verify", str(malformed), str(two)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "fail line 1: report id is not a string\n"
    assert "verified 1 reports, 1 failures" in captured.out


# ---------------------------------------------------------------------------
# report internals
# ---------------------------------------------------------------------------


def test_audit_rejects_forged_witness(petersen):
    report = analyze(petersen, AnalyzeOptions(), id="petersen")
    data = report.to_dict()
    data["fan_raspaud"]["factors"][0][0] = 14  # no longer a matching
    with pytest.raises(ReportAuditError):
        audit_report(petersen, data)


@pytest.mark.parametrize("field,index,value", [
    ("fan_raspaud", ("factors", 0, 0), 15),  # edge index out of range
    ("cores", (0, "factors", 0), 10_000),  # factor index out of range
    ("cores", (0, "factors", 0), -1),
    ("cores", (0, "factors", 1), 0),  # repeated factor
    ("fan_raspaud", ("factors", 0, 0), -1),
])
def test_audit_rejects_bad_indices(petersen, field, index, value):
    data = analyze(petersen, AnalyzeOptions(), id="petersen").to_dict()
    target = data[field]
    for key in index[:-1]:
        target = target[key]
    target[index[-1]] = value
    with pytest.raises(ReportAuditError):
        audit_report(petersen, data)


@pytest.mark.parametrize("field,index", [
    ("fan_raspaud", ("factor_indices", 1)),
    ("cores", (0, "factors", 1)),
])
@pytest.mark.parametrize("value", [True, 1.0, "1", None])
def test_audit_fails_a_mistyped_index_before_enumerating(
        petersen, monkeypatch, field, index, value):
    """JSON true is not the index 1, though Python compares them equal,
    whether or not the caller passes the matchings."""
    data = analyze(petersen, AnalyzeOptions(), id="petersen").to_dict()
    target = data[field]
    for key in index[:-1]:
        target = target[key]
    target[index[-1]] = value
    pms = enumerate_perfect_matchings(petersen)

    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("enumerated for a mistyped index")

    monkeypatch.setattr(report_module, "enumerate_perfect_matchings",
                        enumerate_nothing)
    for passed in (None, pms):
        with pytest.raises(ReportAuditError,
                           match="missing or mistyped field"):
            audit_report(petersen, data, pms=passed)


@pytest.fixture
def petersen_cores(petersen, monkeypatch):
    """A default-ops Petersen report and the (core, classification) pairs
    that analyze built for it, as analyze passes them to the audit."""
    passed = []

    def capture(G, data, pms=None, pm_cap=None, cores=None):
        passed.append((pms, cores))

    monkeypatch.setattr(report_module, "audit_report", capture)
    data = analyze(petersen, AnalyzeOptions(), id="petersen").to_dict()
    ((pms, cores),) = passed
    monkeypatch.undo()
    assert len(cores) == len(data["cores"]) == 1
    return data, pms, cores


CORE_TAMPERINGS = {
    "M": lambda e: e["M"].append(e["U"].pop()),
    "U": lambda e: e["U"].pop(),
    "T": lambda e: e["T"].append(e["U"][0]),
    "k": lambda e: e.update(k=e["k"] + 1),
    "components": lambda e: e["components"][0]["edges"].pop(),
    "cyclic": lambda e: e.update(cyclic=not e["cyclic"]),
    "bipartite": lambda e: e.update(bipartite=not e["bipartite"]),
    "bridgeless": lambda e: e.update(bridgeless=not e["bridgeless"]),
    "empty": lambda e: e.update(empty=not e["empty"]),
    "factor_indices": lambda e: e.update(factors=[0, 1, 3]),
    "extra_key": lambda e: e.update(note=0),
}


@pytest.mark.parametrize("field", sorted(CORE_TAMPERINGS))
def test_shared_core_audit_rejects_a_tampered_core(petersen, petersen_cores,
                                                   field):
    data, pms, cores = petersen_cores
    audit_report(petersen, data, pms=pms, cores=cores)
    tampered = copy.deepcopy(data)
    CORE_TAMPERINGS[field](tampered["cores"][0])
    with pytest.raises(ReportAuditError):
        audit_report(petersen, tampered, pms=pms, cores=cores)


def test_shared_core_audit_rejects_a_core_of_other_factors(petersen,
                                                          petersen_cores):
    data, pms, cores = petersen_cores
    ((core, cls),) = cores
    other = build_core(petersen, pms[0], pms[1], pms[3])
    for pair in ((other, cls), (other, classify_core(other))):
        with pytest.raises(ReportAuditError, match="factors differ"):
            audit_report(petersen, data, pms=pms, cores=[pair])
    with pytest.raises(ReportAuditError, match="1 entries for 2"):
        audit_report(petersen, data, pms=pms, cores=[(core, cls)] * 2)


def test_analyze_classifies_each_core_once(petersen, monkeypatch):
    calls = []
    classify = report_module.classify_core
    monkeypatch.setattr(report_module, "classify_core",
                        lambda core: calls.append(core) or classify(core))
    analyze(petersen, AnalyzeOptions(), id="petersen")
    assert len(calls) == 1


def fail_checks(data, names):
    for check in data["checks"]:
        if check["name"] in names:
            check["passed"] = False


@pytest.mark.parametrize("failed,violations,ok", [
    ((), (), True),
    ((0,), (), False),  # a failed check hidden from violations
    ((), (0,), False),  # a violation without a failed check
    ((0, 1), (0, 1), True),
    ((0, 1), (1, 0), False),  # out of check order
    ((0, 1), (0,), False),
])
def test_audit_compares_violations_with_failed_checks(petersen, failed,
                                                     violations, ok):
    data = analyze(petersen, AnalyzeOptions(), id="petersen").to_dict()
    names = [check["name"] for check in data["checks"]]
    fail_checks(data, {names[i] for i in failed})
    data["violations"] = [names[i] for i in violations]
    if ok:
        audit_report(petersen, data)
    else:
        with pytest.raises(ReportAuditError, match="violations"):
            audit_report(petersen, data)


# Tamperings of a report's own key set and of its skipped, errors and
# timings_ms records, on K_2^3's default report: each names an op, a step
# or a key that analyze never writes there
REPORT_KEY_TAMPERINGS = {
    "skipped_bogus": lambda r: r["skipped"].append("bogus"),
    "skipped_repeated": lambda r: r["skipped"].append("scc"),
    "skipped_reordered": lambda r: r["skipped"].reverse(),
    "skipped_not_a_list": lambda r: r.update(skipped=",".join(r["skipped"])),
    "errors_unknown_step": lambda r: r["errors"].update(foo="bar"),
    "errors_skipped_op": lambda r: r["errors"].update(
        scc="dim_cap_exceeded"),
    "errors_value_not_a_string": lambda r: r["errors"].update(
        nontrivial_3_cut=1),
    "errors_not_a_dict": lambda r: r.update(errors=[]),
    "extra_key": lambda r: r.update(note=1),
    "timings_unknown_step": lambda r: r.update(timings_ms={"x": 1.0}),
    "timings_op_not_a_step": lambda r: r.update(timings_ms={"mu": 1.0}),
    "timings_bool": lambda r: r.update(timings_ms={"core": True}),
    "timings_string": lambda r: r.update(timings_ms={"core": "1.0"}),
    "timings_not_a_dict": lambda r: r.update(timings_ms=[]),
}


@pytest.mark.parametrize("tamper", sorted(REPORT_KEY_TAMPERINGS))
def test_audit_rejects_keys_a_report_never_writes(tamper):
    G = parse_entry(SMALL_GRAPHS["K_2^3"], "mgf")
    data = analyze(G, AnalyzeOptions(timings=True), id="K_2^3").to_dict()
    assert data["skipped"] == ["oddness", "fulkerson", "covers", "scc",
                               "hypohamiltonian"]
    audit_report(G, data)
    REPORT_KEY_TAMPERINGS[tamper](data)
    with pytest.raises(ReportAuditError):
        audit_report(G, data)


def test_audit_reads_a_missing_key_as_a_missing_field(petersen):
    data = analyze(petersen, AnalyzeOptions(), id="petersen").to_dict()
    for key in ("id", "covers", "fan_raspaud"):
        tampered = dict(data)
        del tampered[key]
        with pytest.raises(ReportAuditError, match="missing or mistyped"):
            audit_report(petersen, tampered)


# Tamperings that only the comparison of the recorded core components,
# of the keys of mu and mu_witness, of the factor indices of fan_raspaud
# and fulkerson, of violations with the failed checks, of each cover
# with E(G), of the cover kinds with those the report's own fields
# imply, or of the fields present with the ops that ran can catch.  K4
# is MINI_MGF's, scanned with the default ops; the other graphs are
# bundled ones, scanned with every op.
AUDIT_GAPS = {
    "core_component_edge_dropped": (
        "cubic_n6_0",
        lambda r: r["cores"][0]["components"][0]["edges"].pop()),
    "core_component_kind_flipped": (
        "cubic_n6_0",
        lambda r: r["cores"][0]["components"][0].update(
            kind="cubic_subdivision")),
    "core_component_vertices_reversed": (
        "cubic_n6_0",
        lambda r: r["cores"][0]["components"][0]["vertices"].reverse()),
    "mu_without_witness": (
        "K_2^3",
        lambda r: (r["mu"].update({"3": 99}), r["mu_witness"].pop("3"))),
    "fan_raspaud_indices_out_of_range": (
        "cubic_n4_0",
        lambda r: r["fan_raspaud"].update(factor_indices=[7, 8, 9])),
    "fan_raspaud_indices_of_other_factors": (
        "cubic_n4_0",
        lambda r: r["fan_raspaud"].update(factor_indices=[0, 1, 1])),
    "fulkerson_indices_of_other_factors": (
        "cubic_n6_0",
        lambda r: r["fulkerson"]["factor_indices"].reverse()),
    "check_failed_without_violation": (
        "K_2^3",
        lambda r: r["checks"][0].update(passed=False)),
    # the scc_exact cover replaced by its first circuit, a valid cover of
    # the circuit alone, with a target key naming that circuit
    "cover_of_a_subgraph": (
        "cubic_n6_0",
        lambda r: r["covers"][-1].update(
            cycles=[[0, 1, 3, 4]], target=[0, 1, 3, 4],
            length=4, ced=1, count=1)),
    # K4: the scc_exact cover dropped and the canonical one, of the same
    # length 8, relabelled scc_exact
    "cover_kind_relabelled": (
        "cubic_n4_0",
        lambda r: (r["covers"].pop(),
                   r["covers"][0].update(kind="scc_exact"))),
    "cover_scc_exact_dropped": (
        "cubic_n4_0",
        lambda r: r["covers"].pop()),
    "cover_kinds_reordered": (
        "cubic_n4_0",
        lambda r: r["covers"].reverse()),
    "cover_kind_repeated": (
        "cubic_n4_0",
        lambda r: r["covers"].append(copy.deepcopy(r["covers"][0]))),
    "structure_fields_nulled": (
        "K4",
        lambda r: r.update(girth=None, hamiltonian=None)),
    "mu_emptied": (
        "K4",
        lambda r: r.update(mu={}, mu_witness={})),
    "cores_emptied": (
        "K4",
        lambda r: r.update(cores=[])),
    "mu_2_dropped_with_witness": (
        "K4",
        lambda r: (r["mu"].pop("2"), r["mu_witness"].pop("2"))),
    # numbers that scan never writes, though Python finds 1.0 == True == 1
    "mu_value_float": (
        "K_2^3",
        lambda r: r["mu"].update({"2": 1.0})),
    "mu_value_bool": (
        "K_2^3",
        lambda r: r["mu"].update({"2": True})),
    "mu_witness_edge_float": (
        "K_2^3",
        lambda r: r["mu_witness"]["1"].update(uncovered=[1.0, 2])),
    "mu_witness_edge_bool": (
        "K_2^3",
        lambda r: r["mu_witness"]["2"].update(factors=[[0], [True]])),
    "core_field_float": (
        "K_2^3",
        lambda r: r["cores"][0].update(k=0.0)),
    "core_field_bool": (
        "K_2^3",
        lambda r: r["cores"][0].update(k=False)),
    "cover_field_float": (
        "K_2^3",
        lambda r: r["covers"][0].update(length=4.0)),
    "cover_field_bool": (
        "K_2^3",
        lambda r: r["covers"][0].update(cycles=[[False, 1], [0, 2]])),
    # the graph's own size, which no witness reads
    "n_changed": (
        "K_2^3",
        lambda r: r.update(n=999)),
    "m_float": (
        "K_2^3",
        lambda r: r.update(m=float(r["m"]))),
}


@pytest.fixture(scope="module")
def gap_scan(tmp_path_factory):
    """Verified scans of three bundled graphs with every op and of
    MINI_MGF's three graphs with the default ops, by report id."""
    entries = dict(read_corpus(corpus_path(), "mgf"))
    bundled = "\n\n".join(
        entries[name] for name in ("K_2^3", "cubic_n4_0", "cubic_n6_0"))
    scans = {}
    for text, args in ((bundled, ["--ops", ",".join(ALL_OPS)]),
                       (MINI_MGF, [])):
        corpus = tmp_path_factory.mktemp("gaps") / "three.mgf"
        corpus.write_text(text)
        out = corpus.with_suffix(".jsonl")
        assert main(["scan", str(corpus), *args, "--out", str(out)]) == 0
        assert main(["verify", str(out), str(corpus)]) == 0
        lines = out.read_text().splitlines()
        for line in lines[:-1]:
            scans[json.loads(line)["id"]] = corpus, lines
    return scans


@pytest.mark.parametrize("gap", sorted(AUDIT_GAPS))
def test_verify_closes_audit_gap(gap_scan, gap, tmp_path, capsys):
    name, tamper = AUDIT_GAPS[gap]
    corpus, lines = gap_scan[name]
    reports = [json.loads(line) for line in lines]
    tamper(next(r for r in reports if r.get("id") == name))
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("".join(json.dumps(r) + "\n" for r in reports))
    assert main(["verify", str(tampered), str(corpus)]) == 1
    assert "verified 2 reports, 1 failures" in capsys.readouterr().out


SMALL_GRAPHS = {name: text for name, text in read_corpus(corpus_path(), "mgf")
                if parse_entry(text, "mgf").n <= 10}


@functools.lru_cache(maxsize=None)
def _all_ops_report(name):
    G = parse_entry(SMALL_GRAPHS[name], "mgf")
    return G, analyze(G, AnalyzeOptions(ops=ALL_OPS), id=name).to_dict()


def _witness_paths(data):
    """Paths to every factor, core edge set and cover cycle edge list of a
    report."""
    paths = [("mu_witness", k, "factors", i)
             for k, w in data["mu_witness"].items()
             for i in range(len(w["factors"]))]
    for key in ("fan_raspaud", "fulkerson"):
        if data[key] is not None:
            paths += [(key, "factors", i)
                      for i in range(len(data[key]["factors"]))]
    for j, core in enumerate(data["cores"]):
        paths += [("cores", j, key) for key in ("M", "U", "T")]
        paths += [("cores", j, "components", i, "edges")
                  for i in range(len(core["components"]))]
    paths += [("covers", j, "cycles", i)
              for j, cover in enumerate(data["covers"])
              for i in range(len(cover["cycles"]))]
    return paths


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_audit_rejects_any_one_edge_flip(data):
    """A perfect matching or a cycle stops being one when a single edge
    joins or leaves it, and a core's edge sets are fixed by its factors,
    so the audit must reject every such change."""
    G, report = _all_ops_report(data.draw(st.sampled_from(sorted(SMALL_GRAPHS))))
    path = data.draw(st.sampled_from(_witness_paths(report)))
    edge = data.draw(st.integers(0, G.m - 1))
    tampered = copy.deepcopy(report)
    edges = tampered
    for key in path:
        edges = edges[key]
    if edge in edges:
        edges.remove(edge)
    else:
        edges.append(edge)
        edges.sort()
    with pytest.raises(ReportAuditError):
        audit_report(G, tampered)


def test_no_check_on_fields_whose_matchings_failed(petersen, tmp_path,
                                                   capsys):
    options = AnalyzeOptions(ops=FULKERSON_OPS, pm_cap=1)
    data = analyze(petersen, options, id="petersen").to_dict()
    assert data["errors"] == {"matchings": "pm_cap_exceeded"}
    assert data["violations"] == []
    names = {check["name"] for check in data["checks"]}
    assert not names & {"fan_raspaud_exists", "fulkerson_exists"}
    path = tmp_path / "petersen.mgf"
    path.write_text(to_mgf(petersen))
    assert main(["analyze", str(path), "--pm-cap", "1",
                 *FULKERSON_ARGS]) == 0


def test_default_ops_skip_expensive_fields(petersen):
    data = analyze(petersen, AnalyzeOptions(), id="p").to_dict()
    assert "fulkerson" not in data or data["fulkerson"] is None
    assert "oddness" not in data
    assert "scc" in data["skipped"] and "hypohamiltonian" in data["skipped"]


def test_timings_name_each_run_as_the_last_key(petersen, mini_corpus,
                                               tmp_path, capsys):
    data = analyze(petersen, AnalyzeOptions(timings=True), id="p").to_dict()
    assert list(data)[-1] == "timings_ms"
    assert list(data["timings_ms"]) == [
        "structure", "matchings", "mu_1", "mu_2", "mu_3", "mu_4",
        "fan_raspaud", "core"]
    assert all(isinstance(ms, float) and ms >= 0
               for ms in data["timings_ms"].values())
    assert "timings_ms" not in analyze(petersen, AnalyzeOptions(),
                                       id="p").to_dict()
    out = tmp_path / "scan.jsonl"
    assert main(["scan", mini_corpus, "--timings", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out), mini_corpus]) == 0
    assert "verified 3 reports, 0 failures" in capsys.readouterr().out


# vertex 0 joined by bridges to three copies of K4 with one edge
# subdivided: without vertex 0 three odd components are left, so the
# graph has no perfect matching, and with its bridges no cycle cover
NO_PM_MGF = "# no_pm\n16 24\n" + "".join(
    f"{u} {v}\n" for o in (1, 6, 11)
    for u, v in ((0, o + 4), (o, o + 4), (o + 4, o + 1), (o, o + 2),
                 (o, o + 3), (o + 1, o + 2), (o + 1, o + 3), (o + 2, o + 3)))


@pytest.mark.parametrize("mgf,args,errors,timed,fields", [
    (NO_PM_MGF, ["--ops", ",".join(ALL_OPS)],
     {"matchings": "no_perfect_matching", "scc": "no_cycle_cover"},
     ["structure", "hypohamiltonian", "matchings", "scc"],
     {"checks": [], "covers": [], "mu": {}}),
    (TWO_K4_MGF, [], {"nontrivial_3_cut": "disconnected"},
     ["structure", "matchings", "mu_1", "mu_2", "mu_3", "mu_4",
      "fan_raspaud", "core"],
     {"nontrivial_3_cut": None}),
    ("# petersen\n" + to_mgf(CubicGraph(10, PETERSEN_EDGES)),
     ["--ops", "scc", "--scc-dim-cap", "5"], {"scc": "dim_cap_exceeded"},
     ["scc"], {"covers": []}),
], ids=["no_perfect_matching", "disconnected", "dim_cap_exceeded"])
def test_scan_records_each_error_path(tmp_path, capsys, mgf, args, errors,
                                      timed, fields):
    corpus = tmp_path / "one.mgf"
    corpus.write_text(mgf)
    out = tmp_path / "scan.jsonl"
    assert main(["scan", str(corpus), *args, "--timings",
                 "--out", str(out)]) == 0
    data, _ = read_jsonl(out)
    assert data["errors"] == errors
    assert list(data["timings_ms"]) == timed
    assert {key: data[key] for key in fields} == fields
    capsys.readouterr()
    assert main(["verify", str(out), str(corpus)]) == 0
    assert "verified 1 reports, 0 failures" in capsys.readouterr().out


def test_audit_rejects_an_error_of_an_op_after_the_matchings_failed():
    G = parse_entry(NO_PM_MGF, "mgf")
    data = analyze(G, AnalyzeOptions(ops=ALL_OPS), id="no_pm").to_dict()
    audit_report(G, data)
    data["errors"]["core"] = "fewer_than_three_matchings"
    with pytest.raises(ReportAuditError, match="errors"):
        audit_report(G, data)


def test_bundled_corpus_is_readable():
    entries = read_corpus(corpus_path(), "mgf")
    assert len(entries) == 590
    assert entries[0][0] == "K_2^3"
    assert entries[-1][0] == "flower_snark_J7"
