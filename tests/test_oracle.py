import itertools
import os
import random
import time
import tracemalloc

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
from zerosum.graphs import (
    ColoredGraph,
    EdgeSubgraph,
    binomial,
    complete_edges,
    is_spanning_tree,
    tree_diameter,
    weight,
)
from zerosum.oracle import EnumerationBudget, enumerate_family, exhaustive_theorem_check


def test_spanning_tree_counts_match_enumeration():
    for n in range(2, 7):
        g = ColoredGraph.complete(n)
        members = list(enumerate_family(SpanningTrees(g)))
        assert len(members) == n ** (n - 2)
        assert len({m.edges for m in members}) == len(members)


def test_k4_example_counts():
    g = ColoredGraph.complete(4)
    assert len(list(enumerate_family(SpanningTrees(g)))) == 16
    assert len(list(enumerate_family(HamiltonianPaths(g)))) == 12
    g6 = ColoredGraph.complete(6)
    assert len(list(enumerate_family(PerfectMatchings(g6)))) == 15


def test_diam3_enumeration_matches_closed_form():
    for n in range(3, 8):
        g = ColoredGraph.complete(n)
        members = list(enumerate_family(Diam3Trees(g)))
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
        members = list(enumerate_family(SpanningTrees(g)))
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
        enumerate_family(SpanningTrees(g))
    assert "max_spanning_trees" in str(err.value)
    assert f"{9**7:,}" in str(err.value)
    with pytest.raises(BudgetExceeded):
        enumerate_family(HamiltonianPaths(ColoredGraph.complete(11)))


def test_budget_override_allows_more():
    g = ColoredGraph.complete(5)
    tight = EnumerationBudget(max_spanning_trees=10)
    with pytest.raises(BudgetExceeded):
        enumerate_family(SpanningTrees(g), budget=tight)


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


def test_exhaustive_check_refuses_a_path_mask_table_over_budget():
    # C(8,2) pairs of K_8 with 6*5*4/2 length-4 paths each: 1,680 masks,
    # refused before any is built, even for a one-colouring shard
    tight = EnumerationBudget(max_paths=1000)
    with pytest.raises(BudgetExceeded) as err:
        exhaustive_theorem_check("connected", 8, tight, shard=(0, 1))
    assert "max_paths" in str(err.value) and "1,680" in str(err.value)
    # K_7 needs 21 * 30 = 630
    exact = EnumerationBudget(max_paths=630)
    assert exhaustive_theorem_check("connected", 7, exact, shard=(0, 1)).passed
    with pytest.raises(BudgetExceeded):
        exhaustive_theorem_check("connected", 7, EnumerationBudget(max_paths=629), shard=(0, 1))


def test_exhaustive_check_refuses_before_building_anything(monkeypatch):
    # 2000^1998 spanning trees have too many digits for str(); the refusal
    # comes from the closed-form count, before any census list or graph
    def refuse(*args):
        raise AssertionError("built before the budget check")

    monkeypatch.setattr(oracle, "_census_met", refuse)
    monkeypatch.setattr(ColoredGraph, "complete", refuse)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="max_spanning_trees") as err:
        exhaustive_theorem_check("tree", 2000, shard=(0, 1))
    assert time.perf_counter() - start < 1.0
    assert "about 10^6,595 members to enumerate" in str(err.value)


def test_shard_bounds_are_checked_without_building_the_space():
    # 2^C(20000,2) would take 25 MB; the shard is checked by bit length and
    # the spanning-tree table refused from its closed-form count
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="max_spanning_trees"):
            exhaustive_theorem_check("tree", 20000, shard=(0, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_whole_space_is_refused_without_building_it():
    # with no shard, 2^C(20000,2) colourings are refused from C(20000,2)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as err:
            exhaustive_theorem_check("tree", 20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert str(err.value) == (
        "about 10^60,202,989 colourings to check; "
        "requires max_colorings >= about 10^60,202,989 (budget is 32,768)"
    )


def test_shard_bounds_past_the_space_or_too_long_to_print():
    space = 1 << binomial(5, 2)
    assert exhaustive_theorem_check("tree", 5, shard=(space - 1, space)).colourings == 1
    for shard, text in [
        ((0, space + 1), r"shard \[0,1025\) outside colouring space \[0,2\^10\)"),
        ((-1, 3), r"shard \[-1,3\)"),
        ((3, 2), r"shard \[3,2\)"),
        ((0, 10**5000), r"shard \[0,about 10\^5,000\) outside colouring space \[0,2\^10\)"),
    ]:
        with pytest.raises(DomainError, match=text):
            exhaustive_theorem_check("tree", 5, shard=shard)


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


@pytest.mark.parametrize("theorem", oracle.THEOREMS)
def test_jobs_match_single_process(monkeypatch, theorem):
    # 8,192 colourings of K_6, every layer met, so that counterexamples
    # arise: two workers (a pool even on one CPU) merge their chunks to the
    # one-process report, counterexamples in order
    monkeypatch.setattr(oracle, "_census_met", lambda theorem, n: [True] * (binomial(n, 2) + 1))
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 2)
    shard = (8192, 16384)
    single = exhaustive_theorem_check(theorem, 6, shard=shard)
    multi = exhaustive_theorem_check(theorem, 6, jobs=2, shard=shard)
    assert single.hypothesis_met == 8192 and single.confirmed > 0
    assert (multi.hypothesis_met, multi.confirmed, multi.counterexamples) == (
        single.hypothesis_met,
        single.confirmed,
        single.counterexamples,
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
    build = oracle._member_masks

    def parent_only(*args):
        if os.getpid() != parent:
            raise AssertionError("family table built in a worker process")
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(oracle, "_member_masks", parent_only)
    shard = (8192, 16384)
    multi = exhaustive_theorem_check("tree", 6, jobs=2, shard=shard)
    assert len(calls) == 1
    single = exhaustive_theorem_check("tree", 6, shard=shard)
    assert multi.passed and multi.hypothesis_met > 0
    assert (multi.hypothesis_met, multi.confirmed) == (single.hypothesis_met, single.confirmed)


def test_connected_n5_finds_the_known_counterexample():
    # below the theorem's n >= 6 domain the census bound is attainable yet
    # insufficient: the -1 triangle colouring must surface as a counterexample
    report = exhaustive_theorem_check("connected", 5)
    assert not report.passed
    triangle_mask = 0b10011  # edges (0,1), (0,2), (1,2) in canonical order
    assert any(ce["mask"] == triangle_mask for ce in report.counterexamples)


# every counterexample of connected on K_4 and K_5 as (mask, pair), in
# scan order; each is refused by the oracle's own existence test
CONNECTED_COUNTEREXAMPLES = {
    4: [(7, [1, 2]), (11, [0, 1]), (21, [0, 1]), (25, [0, 2]), (38, [0, 2]), (42, [0, 1]),
        (52, [0, 1]), (56, [1, 2])],
    5: [(19, [0, 1]), (37, [0, 1]), (73, [0, 1]), (127, [2, 3]), (134, [0, 2]), (176, [1, 2]),
        (266, [0, 2]), (336, [1, 2]), (415, [1, 3]), (499, [0, 3]), (524, [0, 3]), (608, [1, 3]),
        (687, [1, 2]), (757, [0, 2]), (847, [1, 2]), (889, [0, 2]), (896, [2, 3]), (950, [0, 1]),
        (986, [0, 1]), (1004, [0, 1])],
}


@pytest.mark.parametrize("n", [4, 5])
def test_connected_counterexample_records_unchanged(n):
    # items, not dicts, so that the key order --json prints is pinned too
    report = exhaustive_theorem_check("connected", n)
    assert [list(ce.items()) for ce in report.counterexamples] == [
        [("mask", mask), ("pair", pair), ("reason", "oracle found no short zero-sum path")]
        for mask, pair in CONNECTED_COUNTEREXAMPLES[n]
    ]


def _refuse_graphs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("graph built in a scan")

    monkeypatch.setattr(ColoredGraph, "__init__", refuse)
    monkeypatch.setattr(ColoredGraph, "_unchecked", refuse)


def test_connected_scan_builds_no_graph(monkeypatch):
    _refuse_graphs(monkeypatch)
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
    return next(w for w, k in _walks4(minus, n, x, y) if k == 2 and len(set(w)) < 5)


_search = finders._short_zero_sum_path


def _every_pair(fake):
    """An all-pairs search that answers each pair x < y with the path
    fake(minus, n, x, y)."""

    def search(minus, n):
        for x in range(n):
            for y in range(x + 1, n):
                yield fake(minus, n, x, y)

    return search


def _wrong_endpoint(minus, n, x, y):
    z = next(z for z in range(n) if z not in (x, y))
    return _search(minus, n, x, z)[1]


def _one_minus_edge(minus, n, x, y):
    return next(w for w, k in _walks4(minus, n, x, y) if k == 1 and len(set(w)) == 5)


def _minus_of(mask, n=6):
    return complete_from_mask(n, mask).minus_masks()


def _not_a_path(path, x, y):
    return f"finder failed: {path} is not a zero-sum {x}..{y} path of length 2 or 4"


@pytest.mark.parametrize(
    "fake",
    [_repeating_walk, _wrong_endpoint, _one_minus_edge, lambda minus, n, x, y: None],
    ids=["repeated-vertex", "wrong-endpoint", "one-minus-edge", "none"],
)
def test_connected_scan_checks_the_finder_path_itself(monkeypatch, fake):
    # every met colouring of the shard must be refused by the oracle's own
    # check of the path handed to it; each fake finds its kind of wrong
    # path for pair 0-1, the first one scanned, in all of them
    monkeypatch.setattr(finders, "_short_zero_sum_paths", _every_pair(fake))
    report = exhaustive_theorem_check("connected", 6, shard=(12345, 12345 + 64))
    assert report.hypothesis_met > 0 and report.confirmed == 0
    assert len(report.counterexamples) == report.hypothesis_met
    for ce in report.counterexamples:
        path = fake(_minus_of(ce["mask"]), 6, 0, 1)
        if path is None:
            reason = "finder failed: no zero-sum path of length <= 4"
        else:
            reason = _not_a_path(path, 0, 1)
        assert (ce["pair"], ce["reason"]) == ([0, 1], reason)


def test_connected_scan_consults_its_masks_only_for_a_refused_pair(monkeypatch):
    # the finder's search answers first; the oracle's own existence test
    # only words the refusal of a pair the search left without a path
    def refuse(*args):
        raise AssertionError("path masks read for a pair the search answered")

    monkeypatch.setattr(oracle, "_has_short_path", refuse)
    report = exhaustive_theorem_check("connected", 6)
    assert report.passed and report.hypothesis_met == report.confirmed > 0

    calls = []

    def record(mask, masks2, masks4):
        calls.append(mask)
        return True

    monkeypatch.setattr(oracle, "_has_short_path", record)
    monkeypatch.setattr(finders, "_short_zero_sum_paths", _every_pair(lambda minus, n, x, y: None))
    report = exhaustive_theorem_check("connected", 6, shard=(12345, 12345 + 64))
    assert report.hypothesis_met > 0 and report.confirmed == 0
    assert calls == [ce["mask"] for ce in report.counterexamples]
    assert len(calls) == report.hypothesis_met


_all_pairs = finders._short_zero_sum_paths


def _edited_answers(edit):
    """An all-pairs search whose answers are the real ones, listed, after
    edit(answers)."""

    def search(minus, n):
        return iter(edit(list(_all_pairs(minus, n))))

    return search


@pytest.mark.parametrize(
    "edit, refused",
    [
        (lambda a: a[:3] + a[4:], lambda a: ([0, 4], _not_a_path(a[4], 0, 4))),
        (lambda a: a[:4] + a[3:4] + a[5:], lambda a: ([0, 5], _not_a_path(a[3], 0, 5))),
        (lambda a: a[:3] + [a[4], a[3]] + a[5:], lambda a: ([0, 4], _not_a_path(a[4], 0, 4))),
        # the answers that are missing read as the fill value ()
        (lambda a: a[:-1], lambda a: ([4, 5], _not_a_path((), 4, 5))),
        (
            lambda a: a + a[-1:],
            lambda a: (None, f"finder failed: answer {a[-1]} past the last pair"),
        ),
    ],
    ids=["skips-a-pair", "repeats-a-pair", "swaps-two-pairs", "ends-early", "runs-long"],
)
def test_connected_scan_checks_the_pairs_the_search_answers(monkeypatch, edit, refused):
    # every answer is a true zero-sum path of some pair of K_6; the ends of
    # a path answered out of turn refuse it for the pair that was due
    monkeypatch.setattr(finders, "_short_zero_sum_paths", _edited_answers(edit))
    report = exhaustive_theorem_check("connected", 6, shard=(12345, 12345 + 64))
    assert report.hypothesis_met > 0 and report.confirmed == 0
    assert len(report.counterexamples) == report.hypothesis_met
    for ce in report.counterexamples:
        answers = list(_all_pairs(_minus_of(ce["mask"]), 6))
        assert (ce["pair"], ce["reason"]) == refused(answers)


def _first_minus_pair(minus, n):
    """The index and ends of the first pair x < y whose edge xy is -1."""
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    return next((i, x, y) for i, (x, y) in enumerate(pairs) if (minus[x] >> y) & 1)


@pytest.mark.parametrize("middle", ["below", "beyond", "x", "y"])
def test_connected_scan_refuses_a_length_two_path_off_the_pairs_others(monkeypatch, middle):
    # the answers are true but for the first pair whose edge xy is -1:
    # there the middle vertex is outside 0..n-1 or an end, which the xor
    # of the two rows alone would pass for an end, and a negative one must
    # not reach a shift, which would raise ValueError
    def fake_path(n, x, y):
        return [x, {"below": -1, "beyond": n, "x": x, "y": y}[middle], y]

    def fake(minus, n):
        answers = list(_all_pairs(minus, n))
        i, x, y = _first_minus_pair(minus, n)
        answers[i] = fake_path(n, x, y)
        return iter(answers)

    monkeypatch.setattr(finders, "_short_zero_sum_paths", fake)
    report = exhaustive_theorem_check("connected", 6, shard=(12345, 12345 + 64))
    assert report.hypothesis_met > 0 and report.confirmed == 0
    assert len(report.counterexamples) == report.hypothesis_met
    for ce in report.counterexamples:
        _, x, y = _first_minus_pair(_minus_of(ce["mask"]), 6)
        assert (ce["pair"], ce["reason"]) == ([x, y], _not_a_path(fake_path(6, x, y), x, y))


def test_connected_scan_calls_the_search_once_per_met_colouring(monkeypatch):
    calls = []

    def counted(minus, n):
        calls.append(minus)
        return _all_pairs(minus, n)

    monkeypatch.setattr(finders, "_short_zero_sum_paths", counted)
    report = exhaustive_theorem_check("connected", 6, shard=(12345, 12345 + 64))
    assert report.passed and report.hypothesis_met == report.confirmed > 0
    assert len(calls) == report.hypothesis_met


def _is_zero_sum_path(minus, n, x, y, path):
    """Whether path is an x..y path of K_n of length 2 or 4, half its
    edges -1 in the colouring of the -1 masks minus."""
    return (
        isinstance(path, list)
        and len(path) in (3, 5)
        and (path[0], path[-1]) == (x, y)
        and len(set(path)) == len(path)
        and all(0 <= v < n for v in path)
        and 2 * sum((minus[a] >> b) & 1 for a, b in zip(path, path[1:])) == len(path) - 1
    )


def test_connected_check_reads_signs_off_the_mask_not_the_rows(monkeypatch):
    # the search shares the scan's rows; one that clears vertex 0's row and
    # answers from what is left gives paths that are zero-sum in those
    # rows only.  The check must confirm a colouring only where every path
    # is zero-sum in the colouring itself, on the colouring whose rows the
    # search cleared and on the later ones, whose kept rows stay wrong
    answers = []

    def clearing(minus, n):
        minus[0] = 0
        answers.append(list(_all_pairs(minus, n)))
        return iter(answers[-1])

    monkeypatch.setattr(finders, "_short_zero_sum_paths", clearing)
    lo, hi = 12345, 12345 + 256
    report = exhaustive_theorem_check("connected", 6, shard=(lo, hi))
    met = oracle._census_met("connected", 6)
    masks = [mask for mask in range(lo, hi) if met[mask.bit_count()]]
    assert len(answers) == len(masks) == report.hypothesis_met
    pairs = list(itertools.combinations(range(6), 2))
    wrong = [
        mask
        for mask, paths in zip(masks, answers)
        if not all(
            _is_zero_sum_path(_minus_of(mask), 6, x, y, path) for (x, y), path in zip(pairs, paths)
        )
    ]
    assert wrong[0] == masks[0] and len(wrong) > 1
    assert [ce["mask"] for ce in report.counterexamples] == wrong
    assert report.confirmed == len(masks) - len(wrong)


FINDERS = {
    "tree": "find_zero_sum_spanning_tree",
    "diam3": "find_zero_sum_diam3_tree",
    "path-census": "find_zero_sum_spanning_path",
    "path-decomposition": "find_zero_sum_spanning_path",
}


def _finder_route(theorem, n, lo, hi):
    """hypothesis_met, confirmed and counterexample masks of a family scan
    that runs the theorem's finder on a graph built for every met
    colouring and trusts its report."""
    met = oracle._census_met(theorem, n)
    finder = getattr(finders, FINDERS[theorem])
    hypothesis_met = confirmed = 0
    failed = []
    for mask in range(lo, hi):
        if not met[mask.bit_count()]:
            continue
        hypothesis_met += 1
        rep = finder(complete_from_mask(n, mask))
        if rep.found and abs(rep.weight) <= 1:
            confirmed += 1
        else:
            failed.append(mask)
    return hypothesis_met, confirmed, failed


@pytest.mark.parametrize("theorem", list(FINDERS))
@pytest.mark.parametrize(
    "n, shard", [(3, None), (4, None), (5, None), (6, (3 << 13, 4 << 13))]
)
def test_family_scan_matches_the_finder_on_graphs(theorem, n, shard):
    lo, hi = shard or (0, 1 << binomial(n, 2))
    report = exhaustive_theorem_check(theorem, n, shard=(lo, hi))
    found = (report.hypothesis_met, report.confirmed, [ce["mask"] for ce in report.counterexamples])
    assert found == _finder_route(theorem, n, lo, hi)
    assert report.hypothesis_met > 0


def _light_member(kind, mask):
    """Whether a member of kind on K_n has |weight| <= 1 on the colouring."""
    g = complete_from_mask(kind.host.n, mask)
    return any(abs(weight(EdgeSubgraph._unchecked(g, s))) <= 1 for s in kind.edge_sets())


@pytest.mark.parametrize("theorem", list(FINDERS))
@pytest.mark.parametrize("n", [4, 5])
def test_family_scan_words_a_colouring_with_no_light_member(monkeypatch, theorem, n):
    # with every census layer marked met, the colourings with no light
    # member are exactly the counterexamples, each refused in the oracle's
    # own words rather than the finder's
    monkeypatch.setattr(oracle, "_census_met", lambda theorem, n: [True] * (binomial(n, 2) + 1))
    report = exhaustive_theorem_check(theorem, n)
    kind = oracle._CHECKS[theorem].args[0](ColoredGraph.complete(n))
    none = [mask for mask in range(1 << binomial(n, 2)) if not _light_member(kind, mask)]
    assert none and report.hypothesis_met == 1 << binomial(n, 2)
    assert [ce["mask"] for ce in report.counterexamples] == none
    assert all(ce["reason"] == "oracle found no qualifying member" for ce in report.counterexamples)


def _hampath_of(g):
    return frozenset((v, v + 1) for v in range(g.n - 1))


def _star_of(g):
    return frozenset((0, v) for v in range(1, g.n))


def _heaviest_member(kind):
    def fake(g):
        member = max(enumerate_family(kind(g)), key=lambda m: abs(weight(m)))
        assert abs(weight(member)) > 1
        return member.edges

    return fake


_diam3_search = finders._diam3_tree


def _light_tree_ending_at_minus_one(g):
    # the finder's light tree with vertex n-1 written -1: as a list index,
    # -1 reads the row of vertex n-1
    edges = _diam3_search(g.minus_masks(), g.n)[1]
    return frozenset((u, -1) if v == g.n - 1 else (u, v) for u, v in edges)


@pytest.mark.parametrize(
    "theorem, fake, member",
    [
        ("diam3", _hampath_of, False),
        ("diam3", _heaviest_member(Diam3Trees), True),
        ("diam3", _light_tree_ending_at_minus_one, False),
        ("path-census", _star_of, False),
        ("path-census", _heaviest_member(HamiltonianPaths), True),
        ("diam3", None, None),
        ("path-census", None, None),
    ],
    ids=[
        "diam3-hamiltonian-path",
        "diam3-heavy-member",
        "diam3-vertex-minus-one",
        "path-star",
        "path-heavy-member",
        "diam3-none",
        "path-none",
    ],
)
def test_family_scan_checks_the_finder_member_itself(monkeypatch, theorem, fake, member):
    # each fake reports a zero-weight member it has not got: a subgraph
    # outside the family, a member that is not light, or none at all
    # (None) where a light member exists; every met colouring of the
    # shard must be refused by the oracle's own check, in its own words
    def lying_search(minus, n):
        # the diam3 scan runs the finder's search on the colouring's -1 rows
        rows = [(u, v) for u, v in complete_edges(n) if minus[u] >> v & 1]
        return fake and ("fake", fake(ColoredGraph.complete_with_minus(n, rows)))

    def lying_path_search(mask, n):
        # the path scans run the finder's search on the colouring's mask
        rows = [e for i, e in enumerate(complete_edges(n)) if mask >> i & 1]
        return fake and ("fake", fake(ColoredGraph.complete_with_minus(n, rows)), 0)

    if theorem == "diam3":
        monkeypatch.setattr(finders, "_diam3_tree", lying_search)
        kind, name = Diam3Trees, "diameter-3 tree"
    else:
        monkeypatch.setattr(finders, "_spanning_path", lying_path_search)
        kind, name = HamiltonianPaths, "spanning path"
    report = exhaustive_theorem_check(theorem, 6, shard=(12345, 12345 + 64))
    assert report.hypothesis_met > 0 and report.confirmed == 0
    assert len(report.counterexamples) == report.hypothesis_met
    for ce in report.counterexamples:
        g = complete_from_mask(6, ce["mask"])
        assert _light_member(kind(g), ce["mask"])
        if fake is None:
            reason = f"finder failed: {name} not found"
        elif member:
            edges = fake(g)
            w = weight(EdgeSubgraph(g, edges))
            reason = f"finder failed: {name} {sorted(edges)} has weight {w}"
        else:
            reason = f"finder failed: {name} {sorted(fake(g))} is outside the family"
        assert ce["reason"] == reason


@pytest.mark.parametrize(
    "retype, shown",
    [
        (lambda edges: [list(e) for e in edges], lambda edges: sorted(list(e) for e in edges)),
        (lambda edges: sorted(edges) + [None], lambda edges: sorted(edges) + [None]),
    ],
    ids=["edges-as-lists", "edge-none"],
)
def test_family_scan_refuses_edges_of_the_wrong_type(monkeypatch, retype, shown):
    # a search that hands over its light path with each edge a list, or
    # with a None among its edges, is refused in the check's own words,
    # not stopped by a TypeError: neither is an edge of K_n, and edges
    # that cannot be sorted are shown as handed over
    search = finders._spanning_path

    def retyped_path_search(mask, n):
        how, edges, reps = search(mask, n)
        return how, retype(edges), reps

    monkeypatch.setattr(finders, "_spanning_path", retyped_path_search)
    report = exhaustive_theorem_check("path-census", 6, shard=(12345, 12345 + 64))
    assert report.hypothesis_met > 0 and report.confirmed == 0
    assert len(report.counterexamples) == report.hypothesis_met
    for ce in report.counterexamples:
        edges = search(ce["mask"], 6)[1]
        reason = f"finder failed: spanning path {shown(edges)} is outside the family"
        assert ce["reason"] == reason


def test_connected_scan_refuses_a_vertex_of_the_wrong_type(monkeypatch):
    # a middle vertex that is no int is refused at the first pair, in the
    # check's own words, not stopped by a TypeError
    def lettered(minus, n):
        for x, y in itertools.combinations(range(n), 2):
            yield [x, "a", y]

    monkeypatch.setattr(finders, "_short_zero_sum_paths", lettered)
    report = exhaustive_theorem_check("connected", 6, shard=(12345, 12345 + 64))
    assert report.hypothesis_met > 0 and report.confirmed == 0
    assert len(report.counterexamples) == report.hypothesis_met
    reason = "finder failed: [0, 'a', 1] is not a zero-sum 0..1 path of length 2 or 4"
    assert all(ce["pair"] == [0, 1] and ce["reason"] == reason for ce in report.counterexamples)


def test_tree_scan_builds_no_graph(monkeypatch):
    _refuse_graphs(monkeypatch)
    report = exhaustive_theorem_check("tree", 6)
    assert report.passed and report.hypothesis_met == report.confirmed > 0


def test_diam3_scan_builds_no_graph(monkeypatch):
    _refuse_graphs(monkeypatch)
    report = exhaustive_theorem_check("diam3", 6)
    assert report.passed and report.hypothesis_met == report.confirmed > 0


@pytest.mark.parametrize("theorem", ["path-census", "path-decomposition"])
def test_path_scan_builds_no_graph(monkeypatch, theorem):
    _refuse_graphs(monkeypatch)
    report = exhaustive_theorem_check(theorem, 6)
    assert report.passed and report.hypothesis_met == report.confirmed > 0


@pytest.mark.parametrize("n, step", [(5, 1), (7, 997)])
def test_minus_rows_are_the_graph_minus_masks(n, step):
    # one follower gives the graph's -1 rows for masks in ascending order,
    # across gaps, and then for the same masks shuffled
    masks = list(range(0, 1 << binomial(n, 2), step))
    rows = oracle._rows_follower(n)
    for mask in masks + random.Random(n).sample(masks, len(masks)):
        assert tuple(rows(mask)) == _minus_of(mask, n)


# the finder searches that read a colouring's -1 rows, by theorem
_ROW_SEARCHES = {"diam3": "_diam3_tree", "connected": "_short_zero_sum_paths"}


def _rows_checked(monkeypatch, theorem):
    """Make the theorem's check refuse a colouring whose -1 rows are wrong.
    For diam3 and connected the check records each mask it is called on,
    and the search answers nothing (a counterexample) unless it is handed
    exactly the -1 rows of that mask; every other check must not even
    build a row follower."""
    if theorem not in _ROW_SEARCHES:

        def refuse(n):
            raise AssertionError(f"the {theorem} check follows -1 rows")

        monkeypatch.setattr(oracle, "_rows_follower", refuse)
        return
    build, name = oracle._CHECKS[theorem], _ROW_SEARCHES[theorem]
    search = getattr(finders, name)
    called = []

    def recording_build(n, budget):
        check = build(n, budget)

        def recording(mask):
            called[:] = [mask]
            return check(mask)

        return recording

    def checked_search(minus, n):
        if tuple(minus) != _minus_of(called[0], n):
            return None if theorem == "diam3" else iter(())
        return search(minus, n)

    monkeypatch.setitem(oracle._CHECKS, theorem, recording_build)
    monkeypatch.setattr(finders, name, checked_search)


@pytest.mark.parametrize("theorem", oracle.THEOREMS)
def test_checks_receive_the_rows_of_every_k6_colouring(monkeypatch, theorem):
    _rows_checked(monkeypatch, theorem)
    report = exhaustive_theorem_check(theorem, 6)
    assert report.passed and report.hypothesis_met == report.confirmed > 0


@pytest.mark.parametrize("theorem", oracle.THEOREMS)
def test_checks_receive_the_rows_across_pool_chunks(monkeypatch, theorem):
    # an odd first mask and a length past the 8192 a pool needs: the eight
    # chunks of 1,251 colourings each start at an unaligned mask, in a
    # worker whose follower last saw another chunk's mask, or none
    _rows_checked(monkeypatch, theorem)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 2)
    lo = (3 << 19) + 12345
    chunks = []
    report = exhaustive_theorem_check(
        theorem, 7, jobs=2, shard=(lo, lo + 10001), emit=chunks.append
    )
    assert len(chunks) == 8
    assert report.passed and report.hypothesis_met == report.confirmed > 0


@pytest.mark.parametrize("theorem", oracle.THEOREMS)
def test_checks_receive_the_rows_in_any_order_of_masks(monkeypatch, theorem):
    # a check takes the mask alone, so the met colourings of K_6 may come
    # in any order, as an orbit route would hand them over
    _rows_checked(monkeypatch, theorem)
    met = oracle._census_met(theorem, 6)
    masks = [mask for mask in range(1 << 15) if met[mask.bit_count()]]
    random.Random(theorem).shuffle(masks)
    check = oracle._CHECKS[theorem](6, oracle.DEFAULT_BUDGET)
    assert masks and all(check(mask) is None for mask in masks)


def test_diam3_check_reads_weights_off_the_mask_not_the_rows(monkeypatch):
    # the search shares the follower's rows, which last across colourings;
    # one that clears vertex 0's row and answers from what is left hands
    # over trees picked from those rows only.  The check must confirm a
    # colouring only where the handed tree is a diameter-3 tree light in
    # the colouring itself, on the colouring whose rows the search cleared
    # and on the later ones, whose followed rows stay wrong
    search = finders._diam3_tree
    handed, trees = [], []

    def clearing(minus, n):
        handed.append(tuple(minus))
        minus[0] = 0
        found = search(minus, n)
        trees.append(found and found[1])
        return found

    monkeypatch.setattr(finders, "_diam3_tree", clearing)
    lo, hi = 12345, 12345 + 256
    report = exhaustive_theorem_check("diam3", 6, shard=(lo, hi))
    met = oracle._census_met("diam3", 6)
    masks = [mask for mask in range(lo, hi) if met[mask.bit_count()]]
    assert len(trees) == len(masks) == report.hypothesis_met
    stale = [mask for mask, rows in zip(masks, handed) if rows != _minus_of(mask)]
    assert masks[0] not in stale and len(stale) > len(masks) // 2
    members = {frozenset(s) for s in Diam3Trees(ColoredGraph.complete(6)).edge_sets()}
    bit = {e: 1 << i for i, e in enumerate(complete_edges(6))}

    def light(mask, tree):
        minus = sum(bool(mask & bit[e]) for e in tree)
        return frozenset(tree) in members and abs(len(tree) - 2 * minus) <= 1

    wrong = [mask for mask, tree in zip(masks, trees) if not (tree and light(mask, tree))]
    assert wrong and set(wrong) < set(masks) and set(stale) & set(wrong)
    assert [ce["mask"] for ce in report.counterexamples] == wrong
    assert report.confirmed == len(masks) - len(wrong)


@pytest.mark.parametrize(
    "theorem, n",
    [("tree", n) for n in range(2, 7)]
    + [(theorem, n) for theorem in ("diam3", "path-census") for n in range(3, 8)],
)
def test_member_table_holds_every_member_once(theorem, n):
    g = ColoredGraph.complete(n)
    kind = oracle._CHECKS[theorem].args[0](g)
    index = {e: i for i, e in enumerate(complete_edges(n))}
    masks = oracle._member_masks(n, kind.members)
    assert masks == sorted(sum(1 << index[e] for e in m.edges) for m in enumerate_family(kind))
    assert len(set(masks)) == kind.count()


@pytest.mark.parametrize("n", [4, 5, 6])
def test_half_of_the_length_4_paths_decides_a_pair(n):
    # the connected table keeps x-a-b-c-y only for a < c; wherever no
    # length-2 path is zero-sum, that half holds a zero-sum length-4 path
    # exactly when one of all (n-2)(n-3)(n-4) ordered a, b, c does
    bit = oracle._edge_bits(n)
    tables = []
    for x, y in itertools.combinations(range(n), 2):
        masks2, half = oracle._short_path_masks(n, bit, x, y)
        others = [u for u in range(n) if u not in (x, y)]
        every = [
            bit[x][a] | bit[a][b] | bit[b][c] | bit[c][y]
            for a, b, c in itertools.permutations(others, 3)
        ]
        assert 2 * len(half) == len(every)
        tables.append((masks2, half, every))
    cases = 0
    for mask in range(1 << binomial(n, 2)):
        for masks2, half, every in tables:
            if any((p & mask).bit_count() == 1 for p in masks2):
                continue
            cases += 1
            assert any((p & mask).bit_count() == 2 for p in half) == any(
                (p & mask).bit_count() == 2 for p in every
            )
    assert cases > 0


_seed = finders._tree_seed


def _tree_path(tree, a, b):
    """The edges of the a..b path in a tree given as an edge list."""
    adj = {}
    for u, v in tree:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    back = {a: None}
    stack = [a]
    while stack:
        u = stack.pop()
        for v in adj.get(u, ()):
            if v not in back:
                back[v] = u
                stack.append(v)
    path = set()
    while back[b] is not None:
        path.add((min(b, back[b]), max(b, back[b])))
        b = back[b]
    return path


def test_tree_scan_refuses_a_seed_that_is_not_a_tree(monkeypatch):
    # the fake swaps an edge e off the seed in for a seed edge f of e's
    # sign that is not on the cycle e closes: the signs, and so the -1
    # count and the weight, are the seed's, but the edges hold a cycle
    sabotaged = []

    def cycle_with_the_seed_signs(n, class_edges, host_edges, k):
        in_class = list(class_edges)
        tree = _seed(n, iter(in_class), host_edges, k)
        in_class = set(in_class)
        for e in host_edges:
            if e in tree:
                continue
            cycle = _tree_path(tree, *e)
            for f in tree:
                if f not in cycle and (f in in_class) == (e in in_class):
                    sabotaged.append(True)
                    return [x for x in tree if x != f] + [e]
        sabotaged.append(False)
        return tree

    monkeypatch.setattr(finders, "_tree_seed", cycle_with_the_seed_signs)
    met = oracle._census_met("tree", 6)
    refused = 0
    for mask in range(0, 1 << 15, 97):
        if not met[mask.bit_count()]:
            continue
        sabotaged.clear()
        report = exhaustive_theorem_check("tree", 6, shard=(mask, mask + 1))
        assert report.hypothesis_met == 1
        if any(sabotaged):
            assert report.confirmed == 0
            (ce,) = report.counterexamples
            assert ce["mask"] == mask and ce["reason"].startswith("finder failed: seed ")
            refused += 1
        else:
            assert report.passed and report.confirmed == 1
    assert refused > 100


def test_tree_scan_interpolation_agrees_with_the_finder(monkeypatch):
    # seeds through the whole maximal forest of their class are a lightest
    # and a heaviest tree; where neither weighs |w| <= 1 they straddle zero,
    # and the scan walks between them with the finder's own settle step
    def extreme_seed(n, class_edges, host_edges, k):
        return _seed(n, class_edges, host_edges, n - 1)

    monkeypatch.setattr(finders, "_tree_seed", extreme_seed)
    settle = finders._settle
    walked = []

    def recording_settle(chain, n, seed, weights, sign):
        mask = sum(1 << i for i, e in enumerate(complete_edges(n)) if sign(e) < 0)
        assert weights == [sum(map(sign, seed(i))) for i in range(2)]
        walked.append((mask, settle(chain, n, seed, weights, sign)))
        return walked[-1][1]

    monkeypatch.setattr(finders, "_settle", recording_settle)
    report = exhaustive_theorem_check("tree", 6, shard=(5 << 12, 6 << 12))
    monkeypatch.setattr(finders, "_settle", settle)
    assert report.passed and report.confirmed == report.hypothesis_met
    assert len(walked) > 100
    for mask, (tree, reps) in walked:
        rep = finders.find_zero_sum_spanning_tree(complete_from_mask(6, mask))
        assert rep.found and rep.certificate.endswith("; interpolated")
        assert (frozenset(tree), reps) == (rep.subgraph.edges, rep.chain_replacements)
        assert reps > 0 and is_spanning_tree(rep.subgraph)


def test_tree_scan_checks_the_interpolated_tree_itself(monkeypatch):
    # the tree the scan walks to is checked like a seed: a cycle through
    # all vertices but the last is refused, light or not
    def extreme_seed(n, class_edges, host_edges, k):
        return _seed(n, class_edges, host_edges, n - 1)

    light = []

    def cycle(chain, n, seed, weights, sign):
        edges = frozenset((v, v + 1) for v in range(n - 2)) | {(0, n - 2)}
        light.append(abs(sum(map(sign, edges))) <= 1)
        return edges, 1

    monkeypatch.setattr(finders, "_tree_seed", extreme_seed)
    monkeypatch.setattr(finders, "_settle", cycle)
    report = exhaustive_theorem_check("tree", 6, shard=(5 << 12, 6 << 12))
    assert report.hypothesis_met - report.confirmed == len(light) > sum(light) > 0
    reason = (
        "finder failed: interpolated tree [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]"
        " is outside the family"
    )
    assert all(ce["reason"] == reason for ce in report.counterexamples)


def test_enumeration_streams_are_lazy_after_budget_check():
    g = ColoredGraph.complete(6)
    stream = enumerate_family(SpanningTrees(g))
    first = next(iter(stream))
    assert is_spanning_tree(first)
