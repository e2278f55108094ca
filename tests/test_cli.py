import io
import json

import pytest

from zerosum.cli import main
from zerosum.graphs import read_edge_list


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


def test_verify_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("ZEROSUM_BUDGET", "100")
    code, _, err = run_cli(capsys, ["verify", "tree", "5"])
    assert code == 3


def test_verify_shard(capsys):
    code, out, _ = run_cli(capsys, ["verify", "tree", "6", "--shard", "0", "4096", "--json"])
    assert code == 0
    summary = json.loads(out.splitlines()[-1])
    assert summary["range"] == [0, 4096]


def test_verify_budget_flag_allows_shard_of_n7(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "diam3", "7", "--shard", "0", "2048", "--budget", "4096", "--json"],
    )
    assert code == 0
    assert json.loads(out.splitlines()[-1])["counterexamples"] == 0
