import hashlib
import io
import json

import pytest

from zerosum.cli import main
from zerosum.graphs import ColoredGraph, read_edge_list, write_edge_list


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_thresholds_path_example(capsys):
    code, out, _ = run_cli(capsys, ["thresholds", "path", "10"])
    assert code == 0 and out.strip() == "10"


def test_thresholds_json(capsys):
    code, out, _ = run_cli(capsys, ["thresholds", "linear-forest", "10", "5", "--json"])
    assert code == 0
    assert json.loads(out) == {"family": "linear-forest", "params": [10, 5], "value": 17}


def test_thresholds_bad_params(capsys):
    code, _, err = run_cli(capsys, ["thresholds", "path", "10", "4"])
    assert code == 2 and "error" in err


def test_thresholds_domain_error_keeps_its_message(capsys):
    code, _, err = run_cli(capsys, ["thresholds", "path", "1"])
    assert code == 2 and "need n >= 3" in err and "wrong number" not in err
    code, _, err = run_cli(capsys, ["thresholds", "forest", "10"])
    assert code == 2 and "wrong number of parameters" in err


def test_thresholds_tree_and_diam3_errors_name_n(capsys):
    code, _, err = run_cli(capsys, ["thresholds", "tree", "1"])
    assert code == 2 and "need n >= 2, got n=1" in err and "k=" not in err
    code, _, err = run_cli(capsys, ["thresholds", "diam3", "1"])
    assert code == 2 and "need n >= 3, got n=1" in err and "k=" not in err


def test_extremal_emits_parseable_edge_list(capsys):
    code, out, _ = run_cli(capsys, ["extremal", "connectivity-matching", "6"])
    assert code == 0
    assert out.startswith("# construction: connectivity-matching 6\n")
    g = read_edge_list(out)
    assert g.n == 6 and len(g.edges) == 15


def test_extremal_pipe_to_find_connect_matched_pair(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["extremal", "connectivity-matching", "6"])
    code, out, _ = run_cli(
        capsys, ["find", "connect", "-", "--pair", "0", "1"], stdin=out, monkeypatch=monkeypatch
    )
    assert code == 1
    assert "found: no" in out


def test_extremal_pipe_to_find_connect_unmatched_pair(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["extremal", "connectivity-matching", "6"])
    code, out, _ = run_cli(
        capsys,
        ["find", "connect", "-", "--pair", "0", "2", "--json"],
        stdin=out,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True and payload["weight"] == 0
    assert set(payload) == {
        "found",
        "kind",
        "edges",
        "weight",
        "certificate",
        "chain_replacements",
    }


def test_planar_certificate_survives_pipe(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["extremal", "planar-sharpness", "9"])
    assert code == 0 and "# stacked-base:" in out
    # sharp colouring sits below the threshold: exit 1 with the hypothesis
    # named proves the certificate was accepted after the round trip
    code, out, _ = run_cli(
        capsys,
        ["find", "tree", "-", "--host-class", "planar"],
        stdin=out,
        monkeypatch=monkeypatch,
    )
    assert code == 1
    assert "hypothesis not met" in out


def test_find_tree_from_file(tmp_path, capsys):
    from zerosum.graphs import ColoredGraph, write_edge_list

    g = ColoredGraph.complete_with_minus(7, [(0, 1), (2, 3), (4, 5), (1, 6)])
    path = tmp_path / "g.edges"
    path.write_text(write_edge_list(g))
    code, out, _ = run_cli(capsys, ["find", "tree", str(path), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] and payload["weight"] == 0
    assert len(payload["edges"]) == 6


def test_find_matching_json(capsys, monkeypatch):
    text = "4 6\n0 1 -1\n0 2 1\n0 3 1\n1 2 1\n1 3 1\n2 3 1\n"
    code, out, _ = run_cli(
        capsys, ["find", "matching", "-", "--json"], stdin=text, monkeypatch=monkeypatch
    )
    assert code == 0 and json.loads(out)["weight"] == 0


def test_find_matching_refuses_past_budget(capsys, monkeypatch):
    monkeypatch.setenv("ZEROSUM_BUDGET", "10000")
    text = write_edge_list(ColoredGraph.complete(24))
    code, out, err = run_cli(capsys, ["find", "matching", "-"], stdin=text, monkeypatch=monkeypatch)
    assert code == 3 and out == "" and err.startswith("refused: ") and "max_matchings" in err


def test_malformed_file_is_exit_2_with_line(capsys, monkeypatch):
    text = "4 6\n0 1 -1\n0 2 0\n"
    code, _, err = run_cli(
        capsys, ["find", "tree", "-"], stdin=text, monkeypatch=monkeypatch
    )
    assert code == 2
    assert "line 3" in err and "sign 0" in err


NON_UTF8 = b"3 3\n0 1 1\n0 2 -1\n1 2 \xff1\n"


def test_non_utf8_file_is_exit_2_with_line(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_bytes(NON_UTF8)
    code, _, err = run_cli(capsys, ["find", "tree", str(path)])
    assert code == 2
    assert err.startswith("error: line 4: not UTF-8") and err.count("\n") == 1


def test_non_utf8_stdin_is_exit_2_with_line(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(NON_UTF8), encoding="utf-8"))
    code, _, err = run_cli(capsys, ["find", "tree", "-"])
    assert code == 2
    assert err.startswith("error: line 4: not UTF-8") and err.count("\n") == 1


def test_bad_stacked_certificate_is_exit_2(capsys, monkeypatch):
    text = "# stacked-base: 0 1 x\n3 3\n0 1 1\n0 2 -1\n1 2 1\n"
    code, _, err = run_cli(
        capsys,
        ["find", "tree", "-", "--host-class", "planar"],
        stdin=text,
        monkeypatch=monkeypatch,
    )
    assert code == 2 and "line 1" in err and "stacked-base" in err


def test_decompose_paths(capsys):
    code, out, _ = run_cli(capsys, ["decompose", "paths", "6", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["parts"]) == 3
    code, out, _ = run_cli(capsys, ["decompose", "cycles", "5"])
    assert code == 0 and out.count("part") == 2


def test_decompose_bad_parity(capsys):
    code, _, err = run_cli(capsys, ["decompose", "paths", "5"])
    assert code == 2


def test_verify_tree_n5(capsys):
    code, out, _ = run_cli(capsys, ["verify", "tree", "5"])
    assert code == 0
    assert "0 counterexamples" in out


def test_verify_connected_n5_counterexamples(capsys):
    code, out, _ = run_cli(capsys, ["verify", "connected", "5", "--json"])
    assert code == 1
    lines = [json.loads(line) for line in out.splitlines()]
    assert any(line.get("type") == "counterexample" for line in lines)
    summary = lines[-1]
    assert summary["type"] == "summary" and summary["counterexamples"] > 0


def test_verify_connected_n6_no_counterexamples(capsys):
    code, out, _ = run_cli(capsys, ["verify", "connected", "6"])
    assert code == 0
    assert "0 counterexamples" in out


def test_verify_budget_refusal(capsys):
    code, _, err = run_cli(capsys, ["verify", "tree", "8"])
    assert code == 3 and "refused" in err


def test_verify_refuses_a_family_table_over_budget(capsys):
    code, out, err = run_cli(capsys, ["verify", "tree", "9", "--shard", "0", "1"])
    assert code == 3 and out == ""
    assert err.startswith("refused:") and "max_spanning_trees" in err
    # 8^6 = 262,144 spanning trees of K_8 fit the default budget exactly
    code, out, _ = run_cli(capsys, ["verify", "tree", "8", "--shard", "0", "1"])
    assert code == 0 and "0 counterexamples" in out


def test_verify_refuses_a_path_mask_table_over_budget(capsys):
    # C(30,2) pairs with 28*27*26/2 length-4 paths each: 4,275,180 masks
    code, out, err = run_cli(capsys, ["verify", "connected", "30", "--shard", "0", "1"])
    assert code == 3 and out == ""
    assert err.startswith("refused:") and "max_paths" in err and "4,275,180" in err


def test_verify_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("ZEROSUM_BUDGET", "100")
    code, _, err = run_cli(capsys, ["verify", "tree", "5"])
    assert code == 3


def test_verify_budget_below_one_is_exit_2(capsys, monkeypatch):
    for value in ("0", "-5"):
        code, out, err = run_cli(capsys, ["verify", "tree", "3", "--budget", value])
        assert code == 2 and out == ""
        assert err == f"error: --budget must be positive, got {value}\n"
    for value in ("0", "-5", "ten"):
        monkeypatch.setenv("ZEROSUM_BUDGET", value)
        code, out, err = run_cli(capsys, ["verify", "tree", "3"])
        assert code == 2 and out == ""
        assert err == f"error: ZEROSUM_BUDGET must be a positive integer, got '{value}'\n"
    # --budget overrides the environment without reading it
    code, out, _ = run_cli(capsys, ["verify", "tree", "3", "--budget", "100"])
    assert code == 0 and "0 counterexamples" in out


def test_verify_shard(capsys):
    code, out, _ = run_cli(capsys, ["verify", "tree", "6", "--shard", "0", "4096", "--json"])
    assert code == 0
    summary = json.loads(out.splitlines()[-1])
    assert summary["range"] == [0, 4096]


def test_verify_shard_outside_a_huge_space_is_exit_2(capsys):
    # 2^C(1400,2) has 294,800 digits, past what str() converts: the space
    # is stated as a power of two
    code, out, err = run_cli(capsys, ["verify", "tree", "1400", "--shard", "5", "3"])
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: shard [5,3) outside colouring space [0,2^979300)"]


@pytest.mark.parametrize("theorem", ["diam3", "connected"])
@pytest.mark.parametrize("lo, hi", [(0, 0), (64, 64), (63, 64)])
def test_verify_shards_at_the_ends_of_the_space(capsys, theorem, lo, hi):
    # K_4 has 2^6 colourings; the scan builds a colouring's -1 rows only
    # once its shard has a mask, so [64, 64) reads no bit 6, which is no edge
    shard = ["--shard", str(lo), str(hi)]
    code, out, err = run_cli(capsys, ["verify", theorem, "4", *shard])
    assert (code, err) == (0, "")
    assert out == (
        f"{theorem} n=4: {hi - lo} colourings, 0 met the hypothesis, 0 confirmed, "
        "0 counterexamples\n"
    )
    code, out, err = run_cli(capsys, ["verify", theorem, "4", *shard, "--json"])
    assert (code, err) == (0, "")
    assert json.loads(out.splitlines()[-1]) == {
        "type": "summary",
        "theorem": theorem,
        "n": 4,
        "range": [lo, hi],
        "colourings": hi - lo,
        "hypothesis_met": 0,
        "confirmed": 0,
        "counterexamples": 0,
    }


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_json_progress_carries_rate_and_totals(capsys, jobs):
    code, out, _ = run_cli(capsys, ["verify", "tree", "6", "--json", "--jobs", jobs])
    assert code == 0
    events = [json.loads(line) for line in out.splitlines()]
    progress = [e for e in events if e["type"] == "progress"]
    summary = events[-1]
    assert progress and summary["type"] == "summary"
    if jobs == "1":
        assert len(progress) == 1
    keys = {"type", "done", "total", "elapsed_s", "rate", "hypothesis_met", "confirmed"}
    for before, event in zip([None] + progress, progress):
        assert set(event) == keys
        assert event["elapsed_s"] > 0 and event["rate"] > 0
        if before is not None:
            assert event["done"] > before["done"]
            assert event["hypothesis_met"] >= before["hypothesis_met"]
    last = progress[-1]
    assert last["done"] == last["total"] == summary["colourings"]
    assert (last["hypothesis_met"], last["confirmed"]) == (
        summary["hypothesis_met"],
        summary["confirmed"],
    )


def test_verify_jobs_below_one_is_exit_2(capsys):
    code, out, err = run_cli(capsys, ["verify", "tree", "5", "--jobs", "0"])
    assert code == 2 and out == ""
    assert err == "error: jobs must be at least 1, got 0\n"


def test_verify_budget_flag_allows_shard_of_n7(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "diam3", "7", "--shard", "0", "2048", "--budget", "4096", "--json"],
    )
    assert code == 0
    assert json.loads(out.splitlines()[-1])["counterexamples"] == 0


# sha256 over verify T n --json, T each theorem and n = 2..6, progress
# events dropped (they carry timings), each run's lines then its exit code
VERIFY_DIGEST = "37c064edb389b0c18c7fe19034b0131f8c5fd9308a75424dbed7bdd583869270"


def test_verify_output_is_pinned(capsys):
    from zerosum.oracle import THEOREMS

    digest = hashlib.sha256()
    for theorem in THEOREMS:
        for n in range(2, 7):
            code, out, _ = run_cli(capsys, ["verify", theorem, str(n), "--json"])
            for line in out.splitlines():
                if json.loads(line)["type"] != "progress":
                    digest.update(line.encode() + b"\n")
            digest.update(f"exit {code}\n".encode())
    assert digest.hexdigest() == VERIFY_DIGEST


def test_extremal_output_file(tmp_path, capsys):
    path = tmp_path / "forest.edges"
    code, out, _ = run_cli(capsys, ["extremal", "forest", "10", "4", "-o", str(path)])
    assert code == 0 and out == ""
    text = path.read_text(encoding="utf-8")
    assert text.startswith("# construction: forest 10 4\n")
    g = read_edge_list(text)
    assert g.n == 10 and len(g.edges) == 6 and set(g.sign.values()) == {-1}


def test_extremal_unwritable_output_is_exit_2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.txt"
    code, out, err = run_cli(capsys, ["extremal", "forest", "10", "4", "-o", str(path)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {path}: ") and "Traceback" not in err


# K_7 with ten -1 edges: both finders succeed without an exchange chain
K7_MINUS = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 6), (0, 6), (1, 5), (2, 3)]


def _k7_file(tmp_path):
    from zerosum.graphs import ColoredGraph, write_edge_list

    path = tmp_path / "k7.edges"
    path.write_text(write_edge_list(ColoredGraph.complete_with_minus(7, K7_MINUS)))
    return str(path)


def test_find_path(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["find", "path", _k7_file(tmp_path)])
    assert code == 0
    assert out == (
        "found: yes\n"
        "weight: 0\n"
        "edges: 0-6 1-5 2-4 2-5 3-4 3-6\n"
        "certificate: cycle-decomposition part trimmed by one edge\n"
        "chain replacements: 0\n"
    )


def test_find_diam3_json(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["find", "diam3", _k7_file(tmp_path), "--json"])
    assert code == 0
    assert json.loads(out) == {
        "found": True,
        "kind": "diameter-3-tree",
        "edges": [[0, v] for v in range(1, 7)],
        "weight": 0,
        "certificate": "min{e(-1),e(1)}=10 needs > 7 = floor(n/2*floor((n-3)/2)); "
        "spanning star used directly",
        "chain_replacements": 0,
    }


def test_find_diam3_json_double_star_route(tmp_path, capsys):
    # no spanning star weighs |w| <= 1 (the -1 star at 0 weighs -2, the +1
    # star at 6 weighs 6) and pair 0-1 is fixed at base -2, so the first
    # light double star is on 0-2, with free vertices 3, 4 and 5
    minus = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 5)]
    path = tmp_path / "k7.edges"
    path.write_text(write_edge_list(ColoredGraph.complete_with_minus(7, minus)))
    code, out, _ = run_cli(capsys, ["find", "diam3", str(path), "--json"])
    assert code == 0
    assert json.loads(out) == {
        "found": True,
        "kind": "diameter-3-tree",
        "edges": [[0, 1], [0, 2], [0, 6], [2, 3], [2, 4], [2, 5]],
        "weight": 0,
        "certificate": "min{e(-1),e(1)}=8 needs > 7 = floor(n/2*floor((n-3)/2)); "
        "double star on 0-2",
        "chain_replacements": 0,
    }


def test_find_diam3_below_the_hypothesis_exits_0(tmp_path, capsys):
    # every edge at 0 is +1, the rest -1: min census 6 <= 7, yet the double
    # star on 0-1 weighs 0
    minus = [(u, v) for u in range(1, 7) for v in range(u + 1, 7)]
    path = tmp_path / "k7.edges"
    path.write_text(write_edge_list(ColoredGraph.complete_with_minus(7, minus)))
    code, out, _ = run_cli(capsys, ["find", "diam3", str(path), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] and payload["weight"] == 0
    assert payload["certificate"] == (
        "hypothesis not met: min{e(-1),e(1)}=6 needs > 7 = floor(n/2*floor((n-3)/2)); "
        "double star on 0-1"
    )


def test_find_path_and_diam3_on_sharp_colourings_exit_1(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["extremal", "path-sharpness", "7"])
    code, out, _ = run_cli(capsys, ["find", "path", "-"], stdin=out, monkeypatch=monkeypatch)
    assert code == 1
    assert out.startswith("found: no\n")
    assert "census threshold not met: min{e(-1),e(1)}=6 <= 6" in out
    code, out, _ = run_cli(capsys, ["extremal", "tree-sharpness", "7"])
    code, out, _ = run_cli(capsys, ["find", "diam3", "-"], stdin=out, monkeypatch=monkeypatch)
    assert code == 1
    assert "hypothesis not met: min{e(-1),e(1)}=3 needs > 7" in out


def test_find_usage_errors_are_exit_2(tmp_path, capsys):
    path = _k7_file(tmp_path)
    code, out, err = run_cli(capsys, ["find", "tree", path, "--host-class", "dtree"])
    assert code == 2 and out == ""
    assert err == "error: --d is required with --host-class dtree\n"
    code, out, err = run_cli(capsys, ["find", "connect", path])
    assert code == 2 and out == ""
    assert err == "error: find connect requires --pair X Y\n"


def test_verify_refuses_order_below_finder_domain(capsys):
    for theorem in ("diam3", "path-census"):
        code, out, err = run_cli(capsys, ["verify", theorem, "2", "--json"])
        assert code == 2 and out == ""
        assert err == "error: need n >= 3, got n=2\n"
    # tree and path-decomposition accept K_2; connected keeps its small
    # orders, whose n = 4, 5 counterexamples are the paper's exceptions
    for theorem, met in (("tree", 0), ("path-decomposition", 2), ("connected", 0)):
        code, out, _ = run_cli(capsys, ["verify", theorem, "2"])
        assert code == 0
        assert out == (
            f"{theorem} n=2: 2 colourings, {met} met the hypothesis, {met} confirmed, "
            "0 counterexamples\n"
        )
