import copy
import functools
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from factorcover import report as report_module
from factorcover.cli import main
from factorcover.graphs import parse_edge_list, to_mgf
from factorcover.report import (
    ALL_OPS,
    AnalyzeOptions,
    ReportAuditError,
    analyze,
    audit_report,
    parse_entry,
    read_corpus,
)

from conftest import corpus_path, prism_edges

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


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_writes_one_report(mini_corpus, tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    assert main(["analyze", mini_corpus, "--out", str(out)]) == 0
    (report,) = read_jsonl(out)
    assert report["id"] == "K4"
    assert report["mu"] == {"1": 4, "2": 2, "3": 0, "4": 0}
    assert report["violations"] == []


def test_analyze_stdout_and_flags(mini_corpus, capsys):
    assert main(["analyze", mini_corpus, "--mu-upto", "5",
                 "--fulkerson"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mu"]["5"] == 0
    assert report["fulkerson"] is not None


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
        "dd261be7442545948ee532d448b4a7048ab33c911a6001f0a5ffd9168a041360")


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
    prism = "130 195\n" + "".join(f"{u} {v}\n" for u, v in prism_edges(65))
    path.write_text(k4 + "\n\n# prism65\n" + prism)
    out = tmp_path / "out.jsonl"
    assert main(["scan", str(path), "--out", str(out)]) == 0
    lines = read_jsonl(out)
    assert lines[0]["id"] == "K4" and lines[0]["mu"]["3"] == 0
    assert lines[1]["id"] == "prism65"
    assert lines[1]["error"].startswith("GraphTooLargeError")
    summary = lines[-1]["summary"]
    assert summary["graphs"] == 1 and summary["parse_errors"] == 1


def test_scan_budget_records_timeouts(tmp_path):
    j5 = tmp_path / "j5.mgf"
    main(["gen", "flower", "5", "--out", str(j5)])
    out = tmp_path / "out.jsonl"
    main(["scan", str(j5), "--budget-ms", "0", "--out", str(out)])
    lines = read_jsonl(out)
    assert lines[0]["errors"]  # every field timed out
    assert all(v == "timeout" for v in lines[0]["errors"].values())
    assert lines[-1]["summary"]["timeouts"] >= 1


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


def test_gen_rejects_bad_parameter(capsys):
    assert main(["gen", "flower", "4"]) == 2
    assert main(["gen", "flower", "3"]) == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_round_trip(mini_corpus, tmp_path, capsys):
    out = tmp_path / "scan.jsonl"
    main(["scan", mini_corpus, "--fulkerson", "--out", str(out)])
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
    assert main(["verify", str(out), str(corpus)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "fail same: duplicate id in corpus"] * 2
    assert "verified 0 reports, 2 failures" in captured.out


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
])
def test_audit_rejects_bad_indices(petersen, field, index, value):
    data = analyze(petersen, AnalyzeOptions(), id="petersen").to_dict()
    target = data[field]
    for key in index[:-1]:
        target = target[key]
    target[index[-1]] = value
    with pytest.raises(ReportAuditError):
        audit_report(petersen, data)


SMALL_GRAPHS = {name: text for name, text in read_corpus(corpus_path(), "mgf")
                if parse_entry(text, "mgf").n <= 10}


@functools.lru_cache(maxsize=None)
def _all_ops_report(name):
    G = parse_entry(SMALL_GRAPHS[name], "mgf")
    return G, analyze(G, AnalyzeOptions(ops=ALL_OPS), id=name).to_dict()


def _witness_paths(data):
    """Paths to every factor and cover cycle edge list of a report."""
    paths = [("mu_witness", k, "factors", i)
             for k, w in data["mu_witness"].items()
             for i in range(len(w["factors"]))]
    for key in ("fan_raspaud", "fulkerson"):
        if data[key] is not None:
            paths += [(key, "factors", i)
                      for i in range(len(data[key]["factors"]))]
    paths += [("covers", j, "cycles", i)
              for j, cover in enumerate(data["covers"])
              for i in range(len(cover["cycles"]))]
    return paths


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_audit_rejects_any_one_edge_flip(data):
    """A perfect matching or a cycle stops being one when a single edge
    joins or leaves it, so the audit must reject every such change."""
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
    options = AnalyzeOptions(pm_cap=1).with_ops("fulkerson")
    data = analyze(petersen, options, id="petersen").to_dict()
    assert data["errors"] == {"matchings": "pm_cap_exceeded"}
    assert data["violations"] == []
    names = {check["name"] for check in data["checks"]}
    assert not names & {"fan_raspaud_exists", "fulkerson_exists"}
    path = tmp_path / "petersen.mgf"
    path.write_text(to_mgf(petersen))
    assert main(["analyze", str(path), "--pm-cap", "1", "--fulkerson"]) == 0


def test_default_ops_skip_expensive_fields(petersen):
    data = analyze(petersen, AnalyzeOptions(), id="p").to_dict()
    assert "fulkerson" not in data or data["fulkerson"] is None
    assert "oddness" not in data
    assert "scc" in data["skipped"] and "hypohamiltonian" in data["skipped"]


def test_bundled_corpus_is_readable():
    entries = read_corpus(corpus_path(), "mgf")
    assert len(entries) == 590
    assert entries[0][0] == "K_2^3"
    assert entries[-1][0] == "flower_snark_J7"
