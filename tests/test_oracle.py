import itertools
import os
import random
import time

import pytest

from conftest import complete_from_mask, random_complete
from zerosum import finders, oracle
from zerosum.errors import BudgetExceeded, DomainError
from zerosum.families import (
    Diam3Trees,
    HamiltonianPaths,
    PerfectMatchings,
    SpanningTrees,
    diam3_tree_count,
    hamiltonian_path_count,
    perfect_matching_count,
    spanning_tree_count,
)
from zerosum.graphs import ColoredGraph, is_spanning_tree, tree_diameter, weight
from zerosum.oracle import EnumerationBudget, enumerate_family, exhaustive_theorem_check


def test_spanning_tree_counts_match_enumeration():
    for n in range(2, 7):
        g = ColoredGraph.complete(n)
        members = list(enumerate_family(g, SpanningTrees(g)))
        assert len(members) == n ** (n - 2)
        assert len({m.edges for m in members}) == len(members)


def test_k4_example_counts():
    g = ColoredGraph.complete(4)
    assert len(list(enumerate_family(g, SpanningTrees(g)))) == 16
    assert len(list(enumerate_family(g, HamiltonianPaths(g)))) == 12
    g6 = ColoredGraph.complete(6)
    assert len(list(enumerate_family(g6, PerfectMatchings(g6)))) == 15


def test_diam3_enumeration_matches_closed_form():
    for n in range(3, 8):
        g = ColoredGraph.complete(n)
        members = list(enumerate_family(g, Diam3Trees(g)))
        assert len(members) == diam3_tree_count(n)
        assert len({m.edges for m in members}) == len(members)
        for m in members:
            assert is_spanning_tree(m) and tree_diameter(m) <= 3
    # for n = 4 every spanning tree has diameter <= 3
    assert diam3_tree_count(4) == 4**2


def test_generic_host_tree_enumeration_matches_kirchhoff():
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randrange(4, 8)
        rows = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.6:
                    rows.append((u, v, 1))
        g = ColoredGraph(n, rows)
        if not g.is_connected():
            continue
        members = list(enumerate_family(g, SpanningTrees(g)))
        assert len(members) == spanning_tree_count(g)
        assert len({m.edges for m in members}) == len(members)


def test_count_formulas():
    assert hamiltonian_path_count(8) == 20160
    assert perfect_matching_count(6) == 15
    assert perfect_matching_count(16) == 2_027_025
    assert spanning_tree_count(ColoredGraph.complete(8)) == 262_144


def test_budget_refusal_names_requirement():
    g = ColoredGraph.complete(9)
    with pytest.raises(BudgetExceeded) as err:
        enumerate_family(g, SpanningTrees(g))
    assert "max_spanning_trees" in str(err.value)
    assert f"{9**7:,}" in str(err.value)
    with pytest.raises(BudgetExceeded):
        enumerate_family(ColoredGraph.complete(11), HamiltonianPaths(ColoredGraph.complete(11)))


def test_budget_override_allows_more():
    g = ColoredGraph.complete(5)
    tight = EnumerationBudget(max_spanning_trees=10)
    with pytest.raises(BudgetExceeded):
        enumerate_family(g, SpanningTrees(g), budget=tight)


def test_budget_fields_positive():
    with pytest.raises(DomainError):
        EnumerationBudget(max_colorings=0)


def test_perfect_matchings_need_even_complete_host():
    with pytest.raises(DomainError):
        PerfectMatchings(ColoredGraph.complete(5))


def test_exhaustive_check_validates_input():
    with pytest.raises(DomainError):
        exhaustive_theorem_check("nope", 5)
    with pytest.raises(DomainError):
        exhaustive_theorem_check("tree", 5, shard=(0, 1 << 30))
    with pytest.raises(BudgetExceeded) as err:
        exhaustive_theorem_check("tree", 7)  # 2^21 over the default budget
    assert "max_colorings" in str(err.value)


def test_exhaustive_check_refuses_a_family_table_over_budget():
    # K_9 has 9^7 spanning trees, over max_spanning_trees = 8^6; the scan
    # refuses before building its table, even for a one-colouring shard
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as err:
        exhaustive_theorem_check("tree", 9, shard=(0, 1))
    assert time.perf_counter() - start < 1.0
    assert "max_spanning_trees" in str(err.value)
    assert f"{9**7:,}" in str(err.value)


def test_exhaustive_tree_n5():
    report = exhaustive_theorem_check("tree", 5)
    assert report.passed
    assert report.colourings == 1 << 10
    assert report.hypothesis_met == report.confirmed > 0


def test_shards_merge_to_full_run():
    full = exhaustive_theorem_check("tree", 5)
    half = 1 << 9
    a = exhaustive_theorem_check("tree", 5, shard=(0, half))
    b = exhaustive_theorem_check("tree", 5, shard=(half, 1 << 10))
    assert a.hypothesis_met + b.hypothesis_met == full.hypothesis_met
    assert a.confirmed + b.confirmed == full.confirmed


def test_jobs_match_single_process():
    single = exhaustive_theorem_check("diam3", 5)
    multi = exhaustive_theorem_check("diam3", 5, jobs=2, shard=(0, 1 << 10))
    assert (single.hypothesis_met, single.confirmed) == (
        multi.hypothesis_met,
        multi.confirmed,
    )


def test_jobs_below_one_are_refused():
    for jobs in (0, -3):
        with pytest.raises(DomainError, match="jobs must be at least 1"):
            exhaustive_theorem_check("tree", 5, jobs=jobs)


class _RecordingContext:
    """Stands in for the fork context: records each pool size asked for and
    runs the chunks in this process, so no worker is ever started."""

    def __init__(self):
        self.processes = []

    def Pool(self, processes, initializer, initargs):
        self.processes.append(processes)
        initializer(*initargs)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, func, items):
        return map(func, items)


def test_worker_count_is_capped_at_the_cpu_count(monkeypatch):
    ctx = _RecordingContext()
    monkeypatch.setattr(oracle, "get_context", lambda method: ctx)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(oracle, "_worker_table", None)
    shard = (0, 8192)
    single = exhaustive_theorem_check("tree", 6, shard=shard)
    for jobs in (2, 3, 10_000):
        multi = exhaustive_theorem_check("tree", 6, jobs=jobs, shard=shard)
        assert (multi.hypothesis_met, multi.confirmed) == (single.hypothesis_met, single.confirmed)
    assert ctx.processes == [2, 3, 3]


def test_family_table_is_built_once_in_the_parent(monkeypatch):
    parent = os.getpid()
    calls = []
    build = oracle._family_masks

    def parent_only(*args):
        if os.getpid() != parent:
            raise AssertionError("family table built in a worker process")
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(oracle, "_family_masks", parent_only)
    shard = (8192, 16384)
    multi = exhaustive_theorem_check("tree", 6, jobs=2, shard=shard)
    assert len(calls) == 1
    single = exhaustive_theorem_check("tree", 6, shard=shard)
    assert multi.passed and multi.hypothesis_met > 0
    assert (multi.hypothesis_met, multi.confirmed) == (single.hypothesis_met, single.confirmed)


def test_connected_jobs_match_single_process():
    shard = (16384, 24576)
    single = exhaustive_theorem_check("connected", 6, shard=shard)
    multi = exhaustive_theorem_check("connected", 6, jobs=2, shard=shard)
    assert single.passed and multi.passed
    assert (single.hypothesis_met, single.confirmed) == (multi.hypothesis_met, multi.confirmed)


def test_connected_n5_finds_the_known_counterexample():
    # below the theorem's n >= 6 domain the census bound is attainable yet
    # insufficient: the -1 triangle colouring must surface as a counterexample
    report = exhaustive_theorem_check("connected", 5)
    assert not report.passed
    triangle_mask = 0b10011  # edges (0,1), (0,2), (1,2) in canonical order
    assert any(ce["mask"] == triangle_mask for ce in report.counterexamples)


def test_connected_scan_builds_no_graph(monkeypatch):
    def refuse(*args):
        raise AssertionError("graph built from a mask in the connected scan")

    monkeypatch.setattr(oracle, "_graph_from_mask", refuse)
    report = exhaustive_theorem_check("connected", 6)
    assert report.passed and report.hypothesis_met == report.confirmed > 0


def _walks4(minus, n, x, y):
    """Every x..y walk of 4 edges with no vertex next to itself, with its
    number of -1 edges."""
    for a, b, c in itertools.product(range(n), repeat=3):
        walk = [x, a, b, c, y]
        if all(u != v for u, v in zip(walk, walk[1:])):
            yield walk, sum((minus[u] >> v) & 1 for u, v in zip(walk, walk[1:]))


def _repeating_walk(minus, n, x, y):
    return "fake", next(w for w, k in _walks4(minus, n, x, y) if k == 2 and len(set(w)) < 5)


_search = finders._short_zero_sum_path


def _wrong_endpoint(minus, n, x, y):
    z = next(z for z in range(n) if z not in (x, y))
    return _search(minus, n, x, z)


def _one_minus_edge(minus, n, x, y):
    return "fake", next(w for w, k in _walks4(minus, n, x, y) if k == 1 and len(set(w)) == 5)


@pytest.mark.parametrize(
    "fake",
    [_repeating_walk, _wrong_endpoint, _one_minus_edge, lambda minus, n, x, y: None],
    ids=["repeated-vertex", "wrong-endpoint", "one-minus-edge", "none"],
)
def test_connected_scan_checks_the_finder_path_itself(monkeypatch, fake):
    # every met colouring of the shard must be refused by the oracle's own
    # check of the path handed to it; each fake finds its kind of wrong
    # path for pair 0-1, the first one scanned, in all of them
    monkeypatch.setattr(finders, "_short_zero_sum_path", fake)
    report = exhaustive_theorem_check("connected", 6, shard=(12345, 12345 + 64))
    assert report.hypothesis_met > 0 and report.confirmed == 0
    assert len(report.counterexamples) == report.hypothesis_met
    assert all(ce["reason"].startswith("finder failed: ") for ce in report.counterexamples)


def test_enumeration_streams_are_lazy_after_budget_check():
    g = ColoredGraph.complete(6)
    stream = enumerate_family(g, SpanningTrees(g))
    first = next(iter(stream))
    assert is_spanning_tree(first)
