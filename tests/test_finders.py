import hashlib
import itertools
import random
import time

import pytest

from conftest import complete_from_mask, random_complete
from zerosum import finders
from zerosum.errors import BudgetExceeded, DomainError
from zerosum.extremal import (
    ConnectivityMatching,
    ConnectivitySmall,
    DTreeSharpness,
    PathSharpness,
    PlanarSharpness,
    StarExtremalCirculant,
    TreeSharpness,
    _find_linear_forest,
    _lowest_dtree_edges,
    _stacked_planar_host,
    make_extremal_graph,
)
from zerosum.families import Diam3Trees, HamiltonianPaths, SpanningTrees
from zerosum.finders import (
    _diam3_tree,
    _linear_forest,
    _mask_sign,
    _rows_mask,
    _short_zero_sum_path,
    _short_zero_sum_paths,
    check_zero_sum_matching,
    extract_monochromatic_forest,
    find_zero_sum_diam3_tree,
    find_zero_sum_path_leq4,
    find_zero_sum_spanning_path,
    find_zero_sum_spanning_tree,
)
from zerosum.graphs import (
    ColoredGraph,
    DTree,
    EdgeSubgraph,
    MAXIMAL_PLANAR_STACKED,
    TRIANGLE_FREE,
    binomial,
    canonical_edge,
    census,
    complete_edges,
    is_forest,
    is_hamiltonian_path,
    is_linear_forest,
    is_matching,
    is_spanning_tree,
    tree_diameter,
    weight,
)
from zerosum.oracle import (
    EnumerationBudget,
    _CHECKS,
    _census_met,
    _member_masks,
    _path_candidates,
    _rows_follower,
    enumerate_family,
)
from zerosum.thresholds import ex_forest, spanning_path_threshold


# --- forest extraction ---


def test_extract_truncates_a_spanning_sign_class():
    g = ColoredGraph.complete_with_minus(6, [(0, i) for i in range(1, 6)])
    f = extract_monochromatic_forest(g, -1, 3)
    assert len(f.edges) == 3 and is_forest(f)
    assert all(g.sign[e] == -1 for e in f.edges)


def test_extract_k7_lemma_bound():
    minus = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
    g = ColoredGraph.complete_with_minus(7, minus)
    assert census(g).e_minus == 7 > ex_forest(7, 3)
    f = extract_monochromatic_forest(g, -1, 3)
    assert len(f.edges) == 3 and is_forest(f)


def test_extract_triangle_free_class():
    # a 5-edge triangle-free -1 class forces a 4-edge forest
    cycle = [(i, (i + 1) % 5) for i in range(5)]
    g = ColoredGraph.complete_with_minus(6, cycle)
    f = extract_monochromatic_forest(g, -1, 4)
    assert len(f.edges) == 4 and is_forest(f)


def test_extract_falls_short_when_class_sparse():
    g = ColoredGraph.complete_with_minus(6, [(0, 1)])
    f = extract_monochromatic_forest(g, -1, 3)
    assert len(f.edges) == 1


# --- spanning-tree finder ---


def test_tree_finder_complete_k7():
    g = ColoredGraph.complete_with_minus(7, [(0, 1), (2, 3), (4, 5), (1, 6)])
    report = find_zero_sum_spanning_tree(g)
    assert report.found and report.weight == 0
    assert is_spanning_tree(report.subgraph)
    assert weight(report.subgraph) == 0
    assert report.chain_replacements <= 6


def test_tree_finder_k5_trivial_completion():
    # the seeded completion on K_5 already weighs zero: no chain walked
    g = ColoredGraph.complete_with_minus(5, [(0, 1), (2, 3)])
    report = find_zero_sum_spanning_tree(g)
    assert report.found and report.weight == 0
    assert report.chain_replacements == 0


def test_tree_finder_zero_weight_completion_short_circuits():
    # four -1 edges forming a forest: the truncated 3-edge -1 seed completes
    # to a tree that already carries weight 0 on K_7
    g = ColoredGraph.complete_with_minus(7, [(0, 1), (0, 6), (2, 3), (4, 5)])
    report = find_zero_sum_spanning_tree(g)
    assert report.found and report.weight == 0
    assert "direct completion" in report.certificate


def test_direct_tree_find_builds_one_union_find_per_seed(monkeypatch):
    from zerosum import finders, graphs

    built = []

    class CountingUnionFind(graphs.UnionFind):
        def __init__(self, n):
            built.append(n)
            super().__init__(n)

    monkeypatch.setattr(graphs, "UnionFind", CountingUnionFind)
    monkeypatch.setattr(finders, "UnionFind", CountingUnionFind)
    g = ColoredGraph.complete_with_minus(7, [(0, 1), (0, 6), (2, 3), (4, 5)])
    rep = find_zero_sum_spanning_tree(g)
    assert rep.found and rep.weight == 0 and rep.chain_replacements == 0
    assert rep.certificate.endswith("direct completion")
    # each colour's seed finds its forest and completes it on one
    # union-find, and the spanning-tree check builds the third
    assert built == [7, 7, 7]


def test_tree_finder_hypothesis_gate():
    g = ColoredGraph.complete_with_minus(7, [(0, 1), (0, 2)])  # min census 2 <= 3
    report = find_zero_sum_spanning_tree(g)
    assert not report.found
    assert "hypothesis not met" in report.certificate
    assert "needs > 3" in report.certificate


def _light_member_scan(theorem, n):
    """The census-met list of the oracle's table for theorem on K_n, and
    exists(mask): whether its family masks hold a member with (n-1)//2 or
    n//2 -1 edges on the colouring mask, that is one of |weight| <= 1."""
    met = _census_met(theorem, n)
    masks = _member_masks(n, _CHECKS[theorem].args[0].members)
    light = ((n - 1) // 2, n // 2)
    return met, lambda mask: any((m & mask).bit_count() in light for m in masks)


@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize(
    "theorem, finder",
    [("tree", find_zero_sum_spanning_tree), ("path-census", find_zero_sum_spanning_path)],
)
def test_finder_found_exactly_when_a_member_exists(theorem, finder, n):
    # on every colouring of K_n, below the census hypothesis too (diam3 is
    # checked with the double-star rule below)
    _, exists = _light_member_scan(theorem, n)
    for mask in range(1 << binomial(n, 2)):
        assert finder(complete_from_mask(n, mask)).found == exists(mask), mask


def test_tree_finder_complete_below_the_k7_hypothesis():
    # the 3,124 colourings of K_7 with min census <= 3
    met, exists = _light_member_scan("tree", 7)
    below = found = 0
    for mask in range(1 << 21):
        if met[mask.bit_count()]:
            continue
        report = find_zero_sum_spanning_tree(complete_from_mask(7, mask))
        assert report.found == exists(mask), mask
        assert report.certificate.startswith("hypothesis not met: complete host: ")
        below += 1
        found += report.found
    assert (below, found) == (3124, 2590)


def test_path_finder_complete_on_the_k7_sample():
    # no proof covers the census route below its threshold; on this sample
    # every path the finder misses is missing
    _, exists = _light_member_scan("path-census", 7)
    missed = 0
    for g, mask in zip(_k7_sampled_colourings(), range(0, 1 << 21, 37)):
        report = find_zero_sum_spanning_path(g)
        assert report.found == exists(mask), mask
        missed += not report.found
    assert missed == 22


def test_tree_finder_all_one_sign_graceful():
    report = find_zero_sum_spanning_tree(ColoredGraph.complete(6))
    assert not report.found


def test_tree_finder_triangle_free_host():
    # K_{4,5} with a 5-edge -1 class: threshold floor(16/4) = 4
    rows = []
    minus = {(0, 4), (0, 5), (1, 4), (1, 5), (2, 6)}
    for u in range(4):
        for v in range(4, 9):
            e = canonical_edge(u, v)
            rows.append((e[0], e[1], -1 if e in minus else 1))
    g = ColoredGraph(9, rows)
    report = find_zero_sum_spanning_tree(g, TRIANGLE_FREE)
    assert report.found and abs(report.weight) <= 1
    assert is_spanning_tree(report.subgraph)


def test_tree_finder_dtree_host():
    # 2-tree on 8 vertices, 13 edges; threshold 3*2 - 3 = 3
    from zerosum.extremal import _lowest_dtree_edges

    host_edges = sorted(_lowest_dtree_edges(8, 2))
    minus = set(host_edges[:5])
    g = ColoredGraph(8, [(u, v, -1 if (u, v) in minus else 1) for u, v in host_edges])
    assert census(g).minimum == 5 > 3
    report = find_zero_sum_spanning_tree(g, DTree(2))
    assert report.found and abs(report.weight) == 1  # 7 edges, odd
    # the host is not a 3-tree: the same tree, without the census certificate
    other = find_zero_sum_spanning_tree(g, DTree(3))
    assert (other.found, other.subgraph, other.weight) == (True, report.subgraph, report.weight)
    assert other.certificate.startswith("host class not certified: host is not a 3-tree; ")


def test_tree_finder_planar_host():
    g0 = make_extremal_graph(PlanarSharpness(9))
    # recolour to meet the threshold: 10 of 21 edges -1
    edges = list(g0.edges)
    minus = set(edges[:10])
    g = ColoredGraph(
        9,
        [(u, v, -1 if (u, v) in minus else 1) for u, v in edges],
        certificate=g0.certificate,
    )
    assert census(g).minimum >= 3 * 4 - 5
    report = find_zero_sum_spanning_tree(g, MAXIMAL_PLANAR_STACKED)
    assert report.found and report.weight == 0


def test_tree_finder_certifies_only_a_host_of_its_class():
    g = ColoredGraph.complete_with_minus(6, [(0, 1), (2, 3), (4, 5)])
    for host_class, name in [
        (TRIANGLE_FREE, "triangle-free"),
        (MAXIMAL_PLANAR_STACKED, "a certified stacked maximal planar graph"),
    ]:
        report = find_zero_sum_spanning_tree(g, host_class)
        assert report.certificate.startswith(f"host class not certified: host is not {name}; ")
        assert report.found and abs(report.weight) <= 1
        assert is_spanning_tree(report.subgraph)
    with pytest.raises(DomainError, match="unsupported host class"):
        find_zero_sum_spanning_tree(g, object())


def _found_exactly_when_a_light_tree_exists(n, host_edges, host_class, certificate=None):
    """Run the tree finder on every colouring of the host; found must equal
    the existence of a spanning tree with |weight| <= 1 among all of the
    host's enumerated trees.  Returns the certificates seen."""
    host = ColoredGraph(n, [(u, v, 1) for u, v in host_edges], certificate=certificate)
    eidx = {e: i for i, e in enumerate(host.edges)}
    trees = [sum(1 << eidx[e] for e in t) for t in SpanningTrees(host).edge_sets()]
    light = ((n - 1) // 2, n // 2)
    certificates = set()
    for mask in range(1 << len(host.edges)):
        rows = [(u, v, -1 if (mask >> i) & 1 else 1) for i, (u, v) in enumerate(host.edges)]
        g = ColoredGraph(n, rows, certificate=certificate)
        report = find_zero_sum_spanning_tree(g, host_class)
        exists = any((t & mask).bit_count() in light for t in trees)
        assert report.found == exists, mask
        if report.found:
            assert is_spanning_tree(report.subgraph) and abs(report.weight) <= 1
        certificates.add(report.certificate.split(";")[0])
    return certificates


def _planar6():
    edges, cert = _stacked_planar_host(6)
    return 6, sorted(edges), MAXIMAL_PLANAR_STACKED, cert


def _dtree5():
    return 5, sorted(_lowest_dtree_edges(5, 2)), DTree(2), None


@pytest.mark.parametrize(
    "host, basis",
    [
        (_planar6, "hypothesis not met: stacked-planar guarantee needs n >= 7"),
        (_dtree5, "hypothesis not met: 2-tree guarantee needs n >= 6"),
    ],
    ids=["stacked-planar-6", "2-tree-5"],
)
def test_tree_finder_answers_a_host_below_its_guarantee_order(host, basis):
    # every colouring is answered, found exactly when a light tree exists,
    # and none is certified
    assert _found_exactly_when_a_light_tree_exists(*host()) == {basis}


# --- spanning-path finder ---


def test_path_finder_even_decomposition_route():
    edges = complete_edges(6)
    g = complete_from_mask(6, (1 << 7) - 1)  # |f(K_6)| = 1 < 9
    report = find_zero_sum_spanning_path(g)
    assert report.found and abs(report.weight) == 1
    assert is_hamiltonian_path(report.subgraph)


def test_path_finder_odd_decomposition_route():
    g = complete_from_mask(9, (1 << 18) - 1)  # |f(K_9)| = 0 < 12
    report = find_zero_sum_spanning_path(g)
    assert report.found and report.weight == 0


def test_path_finder_census_route_k7_with_oracle_cross_check():
    rng = random.Random(21)
    found_census_route = False
    for _ in range(400):
        mask = rng.getrandbits(21)
        if not 7 <= mask.bit_count() <= 14:
            continue  # census threshold is 6
        g = complete_from_mask(7, mask)
        report = find_zero_sum_spanning_path(g)
        assert report.found and report.weight == 0
        members = {m.edges for m in enumerate_family(HamiltonianPaths(g))}
        assert report.subgraph.edges in members
        found_census_route = True
    assert found_census_route


@pytest.mark.parametrize("n", range(2, 7))
def test_linear_forest_constructor_matches_exhaustive_search(n):
    # on every colouring of K_n, n <= 6, the greedy finds a half-sized
    # linear forest in a colour class exactly when the exhaustive search
    # does, and always once the class is above the census threshold
    k = (n - 1) // 2
    bound = spanning_path_threshold(n) if n >= 3 else 0
    for mask in range(1 << binomial(n, 2)):
        g = complete_from_mask(n, mask)
        for sign in (-1, 1):
            forest = _linear_forest(mask, n, sign, k)
            assert (forest is not None) == (_find_linear_forest(g, sign, k) is not None), mask
            if forest is not None:
                assert len(forest) == k and all(g.sign[e] == sign for e in forest)
                assert is_linear_forest(EdgeSubgraph._unchecked(g, forest))
        if census(g).minimum > bound:
            assert all(_linear_forest(mask, n, sign, k) is not None for sign in (-1, 1))


@pytest.mark.parametrize("n", [13, 14, 15, 16, 20, 25, 30, 40])
def test_path_finder_census_gap_corpus(n):
    # just past the sharpness witness: PathSharpness(n) plus 1-3 extra -1
    # edges, relabelled; where every decomposition part is one-signed the
    # census route must find the path
    rng = random.Random(1000 + n)
    base = make_extremal_graph(PathSharpness(n))
    minus = [e for e in base.edges if base.sign[e] == -1]
    plus = [e for e in base.edges if base.sign[e] == 1]
    census_route = 0
    for _ in range(50):
        extra = rng.sample(plus, rng.randint(1, 3))
        perm = list(range(n))
        rng.shuffle(perm)
        g = ColoredGraph.complete_with_minus(
            n, [canonical_edge(perm[u], perm[v]) for u, v in minus + extra]
        )
        assert census(g).minimum > spanning_path_threshold(n)
        report = find_zero_sum_spanning_path(g)
        assert report.found, report.certificate
        assert is_hamiltonian_path(report.subgraph) and abs(report.weight) <= 1
        census_route += report.certificate.startswith("census-route")
    assert census_route > 0


@pytest.mark.parametrize("n", [5] + list(range(6, 41, 3)) + [40])
def test_rows_mask_inverts_the_oracle_minus_rows(n):
    m = binomial(n, 2)
    if n == 5:
        masks = range(1 << m)
    else:
        rng = random.Random(n)
        masks = [0, (1 << m) - 1] + [rng.getrandbits(m) for _ in range(50)]
    rows = _rows_follower(n)
    for mask in masks:
        assert _rows_mask(rows(mask), n) == mask


@pytest.mark.parametrize("n", [5] + list(range(6, 41, 3)) + [40])
def test_mask_sign_reads_the_sign_table(n):
    # the one reader of sign(e) off a colouring mask gives the graph's
    # sign on every canonical edge, and like the graph's sign table
    # refuses any other edge rather than read another edge's bit
    m = binomial(n, 2)
    if n == 5:
        masks = range(1 << m)
    else:
        rng = random.Random(n)
        masks = [0, (1 << m) - 1] + [rng.getrandbits(m) for _ in range(50)]
    for mask in masks:
        g = complete_from_mask(n, mask)
        sign = _mask_sign(mask, n)
        assert [sign(e) for e in complete_edges(n)] == [g.sign[e] for e in complete_edges(n)]
    for e in [(1, 0), (n - 1, 0), (2, 2), (-1, 1), (0, n), (n - 2, n), (n, n + 1)]:
        with pytest.raises(KeyError):
            g.sign[e]
        with pytest.raises(KeyError):
            sign(e)


@pytest.mark.parametrize("n", range(8, 14))
def test_path_search_answers_alike_on_finder_and_oracle_inputs(monkeypatch, n):
    # the finder hands the search the mask of its kept -1 rows; that must
    # be the colouring mask itself, so that it reports the path the
    # oracle's path candidate picks, on colourings around the census
    # threshold, where the census route runs, and at random
    search = finders._spanning_path
    [(_, oracle_path)] = _path_candidates(n)
    handed = []

    def recording_search(mask, n):
        found = search(mask, n)
        handed.append((mask, found))
        return found

    monkeypatch.setattr(finders, "_spanning_path", recording_search)
    m = binomial(n, 2)
    t = spanning_path_threshold(n)
    rng = random.Random(n)
    routes = set()
    for _ in range(120):
        minus = rng.choice([t - 1, t, t + 1, t + 2, rng.randint(0, m)])
        mask = sum(1 << i for i in rng.sample(range(m), minus))
        report = find_zero_sum_spanning_path(complete_from_mask(n, mask))
        [(handed_mask, found)] = handed
        handed.clear()
        assert handed_mask == mask
        path = oracle_path(mask)
        if report.found:
            assert report.subgraph.edges == frozenset(path)
        else:
            assert path is None
        routes.add(found and found[0].split()[0])
    assert {"census-route", "path-decomposition" if n % 2 == 0 else "cycle-decomposition"} <= routes


def test_path_finder_not_found_reports_routes():
    g = ColoredGraph.complete_with_minus(6, [(0, 1)])
    report = find_zero_sum_spanning_path(g)
    assert not report.found
    assert "one-signed" in report.certificate
    assert "census threshold not met" in report.certificate


# the greedy linear forest takes 0-4, 3-7, 4-8 and 7-8 from this -1 class
# of K_11 and stops one edge short of the five in 0-4-9-8-7-3
_GREEDY_MISS = ColoredGraph.complete_with_minus(
    11, [(0, 4), (3, 7), (4, 8), (4, 9), (7, 8), (7, 9), (8, 9)]
)


def test_the_greedy_miss_has_a_zero_sum_spanning_path():
    order = [0, 4, 9, 8, 7, 3, 1, 2, 5, 6, 10]
    path = EdgeSubgraph(_GREEDY_MISS, list(zip(order, order[1:])))
    assert is_hamiltonian_path(path) and weight(path) == 0


@pytest.mark.xfail(
    strict=True, reason="the census route's greedy linear forest is not an exact search"
)
def test_path_finder_finds_the_path_the_greedy_misses():
    assert find_zero_sum_spanning_path(_GREEDY_MISS).found


def test_path_finder_chain_bound():
    rng = random.Random(31)
    for _ in range(100):
        g = random_complete(8, rng)
        report = find_zero_sum_spanning_path(g)
        if report.found:
            assert report.chain_replacements <= 2 * 7


def test_guarantees_hold_under_sampling_at_larger_n():
    # exhaustive checks cover n <= 7; here the hypothesis-met colourings of
    # K_10 and K_12 are sampled instead
    rng = random.Random(101)
    hits = 0
    for n in (10, 12):
        m = n * (n - 1) // 2
        tree_bound = ex_forest(n, (n - 1) // 2)
        for _ in range(150):
            g = random_complete(n, rng)
            cs = census(g)
            if cs.minimum > tree_bound:
                report = find_zero_sum_spanning_tree(g)
                assert report.found and abs(report.weight) <= 1
                assert report.chain_replacements <= n - 1
                hits += 1
            if 2 * abs(cs.total_weight) < 3 * (n if n % 2 == 0 else n - 1):
                report = find_zero_sum_spanning_path(g)
                assert report.found and abs(report.weight) <= 1
                hits += 1
    assert hits > 200


# --- diameter-3 finder ---


def test_diam3_finder_hypothesis_gate():
    # all edges at vertex 0 are +1, the rest -1: min census 6 <= 7, but the
    # double star on 0-1 weighs 0
    minus = [e for e in complete_edges(7) if 0 not in e]
    g = ColoredGraph.complete_with_minus(7, minus)
    assert census(g).minimum == 6
    report = find_zero_sum_diam3_tree(g)
    assert report.found and report.weight == 0
    assert tree_diameter(report.subgraph) <= 3
    assert report.certificate == (
        "hypothesis not met: min{e(-1),e(1)}=6 needs > 7 = floor(n/2*floor((n-3)/2)); "
        "double star on 0-1"
    )
    # the tree-sharpness colouring has no light diameter-3 tree at all
    report = find_zero_sum_diam3_tree(make_extremal_graph(TreeSharpness(7)))
    assert not report.found and report.subgraph is None
    assert report.certificate == (
        "hypothesis not met: min{e(-1),e(1)}=3 needs > 7 = floor(n/2*floor((n-3)/2))"
    )


def test_diam3_finder_k7():
    edges = complete_edges(7)
    g = complete_from_mask(7, (1 << 8) - 1)  # 8 -1 edges > 7
    assert census(g).minimum == 8
    report = find_zero_sum_diam3_tree(g)
    assert report.found and report.weight == 0
    assert tree_diameter(report.subgraph) <= 3
    assert report.chain_replacements == 0
    assert report.certificate.endswith("; double star on 0-1")


@pytest.mark.parametrize("n", range(3, 7))
def test_double_star_matches_oracle_scan_on_every_colouring(n):
    # with no hypothesis, the star and double-star rule finds a diameter-3
    # tree of |w| <= 1 exactly when the oracle's family-mask scan finds a
    # member with (n-1)//2 or n//2 -1 edges, and so does the public finder
    _, member_exists = _light_member_scan("diam3", n)
    for mask in range(1 << binomial(n, 2)):
        g = complete_from_mask(n, mask)
        exists = member_exists(mask)
        found = _diam3_tree(g.minus_masks(), n)
        assert (found is not None) == exists, mask
        if found is not None:
            h = EdgeSubgraph._unchecked(g, frozenset(found[1]))
            assert tree_diameter(h) <= 3 and abs(weight(h)) <= 1, mask
        assert find_zero_sum_diam3_tree(g).found == exists, mask


def _checked_diam3_report(g):
    """The diam3 finder's report on g, checked with the graph predicates
    rather than the finder's own validator."""
    report = find_zero_sum_diam3_tree(g)
    assert report.found, report.certificate
    h = report.subgraph
    assert is_spanning_tree(h) and tree_diameter(h) <= 3
    assert weight(h) == report.weight and abs(report.weight) <= 1
    return report


@pytest.mark.parametrize("n", [40, 55, 70, 85, 100])
def test_diam3_finder_at_large_n(n):
    rng = random.Random(3000 + n)
    edges = complete_edges(n)
    # the star-free circulant sits exactly at the threshold; 1-3 extra -1
    # edges, relabelled, put it just past
    star_free = list(make_extremal_graph(StarExtremalCirculant(n, (n - 1) // 2)).edges)
    plus = sorted(set(edges) - set(star_free))
    for _ in range(5):
        perm = list(range(n))
        rng.shuffle(perm)
        minus = star_free + rng.sample(plus, rng.randint(1, 3))
        _checked_diam3_report(
            ColoredGraph.complete_with_minus(n, [(perm[u], perm[v]) for u, v in minus])
        )
    # balanced random colourings
    for _ in range(5):
        _checked_diam3_report(
            ColoredGraph.complete_with_minus(n, rng.sample(edges, len(edges) // 2))
        )
    # every edge at 0 or 1 is +1, so pair 0-1 has no free vertex and its
    # base weight is n-1; half the edges of K_n, drawn from the rest, are -1
    rest = [e for e in edges if e[0] > 1]
    g = ColoredGraph.complete_with_minus(n, rng.sample(rest, len(edges) // 2))
    report = _checked_diam3_report(g)
    assert "; double star on " in report.certificate
    assert not report.certificate.endswith(" on 0-1")


def test_diam3_finder_k9_with_oracle():
    rng = random.Random(77)
    checked = 0
    for _ in range(200):
        mask = rng.getrandbits(36)
        if not 14 <= mask.bit_count() <= 22:
            continue  # threshold floor(9/2*3) = 13
        g = complete_from_mask(9, mask)
        report = find_zero_sum_diam3_tree(g)
        assert report.found and report.weight == 0
        members = {m.edges for m in enumerate_family(Diam3Trees(g))}
        assert report.subgraph.edges in members
        checked += 1
    assert checked > 50


# --- short-path finder ---


def test_path_leq4_length_two():
    g = ColoredGraph.complete_with_minus(6, [(0, 2)])
    report = find_zero_sum_path_leq4(g, 0, 1)
    assert report.found and report.weight == 0 and len(report.subgraph.edges) == 2


def test_path_leq4_matching_sharpness_pair():
    g = make_extremal_graph(ConnectivityMatching(6))
    report = find_zero_sum_path_leq4(g, 0, 1)
    assert not report.found
    report = find_zero_sum_path_leq4(g, 0, 2)
    assert report.found and report.weight == 0


def test_path_leq4_triangle_sharpness_pair():
    for n in (4, 5):
        g = make_extremal_graph(ConnectivitySmall(n))
        report = find_zero_sum_path_leq4(g, 0, 1)
        assert not report.found
        assert "not met" in report.certificate


def test_path_leq4_meets_guarantee_when_census_holds():
    rng = random.Random(55)
    checked = 0
    for _ in range(300):
        g = random_complete(7, rng)
        if census(g).minimum < 4:
            continue
        for x in range(7):
            for y in range(x + 1, 7):
                report = find_zero_sum_path_leq4(g, x, y)
                assert report.found, (g.sign, x, y)
                assert report.weight == 0 and len(report.subgraph.edges) in (2, 4)
        checked += 1
    assert checked > 100


# SHA-256 over (x, y, sorted edges, weight, certificate) of every vertex
# pair of every colouring of K_6, recorded from the finder as it was before
# it read the host's kept -1 masks; any change to its search order shows
PATH_LEQ4_K6_DIGEST = "5ef1b9cc7bd06c5acab5bf30bfb41a2ae03e05dac0b984c5c39f0dc7d3b75b53"


def test_path_leq4_outputs_unchanged_on_every_k6_colouring():
    n = 6
    digest = hashlib.sha256()
    for mask in range(1 << 15):
        g = complete_from_mask(n, mask)
        for x in range(n):
            for y in range(x + 1, n):
                rep = find_zero_sum_path_leq4(g, x, y)
                edges = sorted(rep.subgraph.edges) if rep.subgraph is not None else []
                digest.update(repr((x, y, edges, rep.weight, rep.certificate)).encode())
    assert digest.hexdigest() == PATH_LEQ4_K6_DIGEST


def test_path_leq4_packages_the_mask_search_alone():
    # the public finder adds domain checks and the certificate; its path is
    # the one the search finds on the host's -1 masks alone
    n = 7
    for mask in range(0, 1 << 21, 401):
        g = complete_from_mask(n, mask)
        minus = g.minus_masks()
        for x in range(n):
            for y in range(x + 1, n):
                rep = find_zero_sum_path_leq4(g, x, y)
                found = _short_zero_sum_path(minus, n, x, y)
                if found is None:
                    assert not rep.found and rep.subgraph is None
                    continue
                label, path = found
                assert rep.certificate.startswith(f"{label} path; ")
                assert rep.subgraph.edges == {
                    canonical_edge(a, b) for a, b in zip(path, path[1:])
                }


@pytest.mark.parametrize("n, step", [(2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 401)])
def test_all_pairs_search_answers_as_the_per_pair_search(n, step):
    for mask in range(0, 1 << binomial(n, 2), step):
        minus = complete_from_mask(n, mask).minus_masks()
        expected = [
            (_short_zero_sum_path(minus, n, x, y) or (None, None))[1]
            for x in range(n)
            for y in range(x + 1, n)
        ]
        assert list(_short_zero_sum_paths(minus, n)) == expected


def _minus_count(minus, path):
    return sum((minus[a] >> b) & 1 for a, b in zip(path, path[1:]))


def _check_short_path_search(minus, n, x, y):
    """The search answers iff an explicit enumeration of every x-u-y and
    x-a-b-c-y finds one with half its edges -1; its path is such a one.
    Returns whether it found a path."""
    others = [u for u in range(n) if u not in (x, y)]
    exists = any(_minus_count(minus, [x, u, y]) == 1 for u in others) or any(
        _minus_count(minus, [x, a, b, c, y]) == 2 for a, b, c in itertools.permutations(others, 3)
    )
    found = _short_zero_sum_path(minus, n, x, y)
    assert (found is not None) == exists, (minus, x, y, found)
    if found is None:
        return False
    label, path = found
    assert label == "length-2" or label.startswith("case-"), label
    assert path[0] == x and path[-1] == y and len(set(path)) == len(path) in (3, 5)
    assert 2 * _minus_count(minus, path) == len(path) - 1
    return True


@pytest.mark.parametrize("n", [4, 5])
def test_short_path_search_is_complete_on_every_colouring(n):
    answers = set()
    for mask in range(1 << binomial(n, 2)):
        minus = complete_from_mask(n, mask).minus_masks()
        for x, y in itertools.permutations(range(n), 2):
            answers.add(_check_short_path_search(minus, n, x, y))
    assert answers == {True, False}


@pytest.mark.parametrize("n", range(8, 15))
def test_short_path_search_is_complete_without_length_two_paths(n):
    # every other vertex sees x and y with one sign, -1 for the |B| of them
    # in B; the edges among the others are -1 at the given density
    rng = random.Random(n)
    answers = set()
    for b in sorted({0, 1, 2, (n - 2) // 2}):
        for density in ("none", "one edge", 0.2, 0.5, "all"):
            for _ in range(3):
                x, y = rng.sample(range(n), 2)
                others = [u for u in range(n) if u not in (x, y)]
                B = set(rng.sample(others, b))
                minus = [(x, u) for u in B] + [(y, u) for u in B]
                inner = list(itertools.combinations(others, 2))
                if density == "one edge":
                    minus.append(rng.choice(inner))
                elif density == "all":
                    minus += inner
                elif density != "none":
                    minus += [e for e in inner if rng.random() < density]
                if rng.random() < 0.5:
                    minus.append((x, y))
                g = ColoredGraph.complete_with_minus(n, minus)
                answers.add(_check_short_path_search(g.minus_masks(), n, x, y))
    assert answers == {True, False}


def test_path_leq4_input_validation():
    g = ColoredGraph.complete(6)
    with pytest.raises(DomainError):
        find_zero_sum_path_leq4(g, 0, 0)
    with pytest.raises(DomainError):
        find_zero_sum_path_leq4(g, 0, 6)


# --- matching probe ---


def test_matching_all_plus_k4():
    report = check_zero_sum_matching(ColoredGraph.complete(4))
    assert not report.found


def test_matching_balanced_pair_k4():
    g = ColoredGraph.complete_with_minus(4, [(0, 1)])
    report = check_zero_sum_matching(g)
    assert report.found and report.weight == 0
    assert is_matching(report.subgraph) and len(report.subgraph.edges) == 2


def test_matching_rejects_wrong_order():
    with pytest.raises(DomainError):
        check_zero_sum_matching(ColoredGraph.complete(6))
    with pytest.raises(DomainError):
        check_zero_sum_matching(ColoredGraph.complete(5))


def test_matching_k8_random():
    rng = random.Random(8)
    for _ in range(20):
        g = random_complete(8, rng)
        report = check_zero_sum_matching(g)
        if report.found:
            assert weight(report.subgraph) == 0


def test_matching_search_refuses_past_its_budget():
    # all +1: no zero-sum matching, and about 10^8 search nodes on K_24
    g = ColoredGraph.complete(24)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="max_matchings"):
        check_zero_sum_matching(g, EnumerationBudget(max_matchings=10_000))
    assert time.perf_counter() - start < 1.0
    # K_4 with one -1 edge finds its matching within three search nodes
    g = ColoredGraph.complete_with_minus(4, [(0, 1)])
    assert check_zero_sum_matching(g, EnumerationBudget(max_matchings=3)).found
    with pytest.raises(BudgetExceeded):
        check_zero_sum_matching(g, EnumerationBudget(max_matchings=2))


# --- pinned finder outputs ---


def _every_colouring(n, host_edges, certificate=None):
    """The host once per colouring: bit i of the mask makes the i-th edge of
    host_edges -1."""
    for mask in range(1 << len(host_edges)):
        rows = [(u, v, -1 if (mask >> i) & 1 else 1) for i, (u, v) in enumerate(host_edges)]
        yield ColoredGraph(n, rows, certificate=certificate)


def _k6_colourings():
    return (complete_from_mask(6, mask) for mask in range(1 << 15))


def _k7_sampled_colourings():
    # every 37th mask: the census route fires on these only below its
    # threshold
    return (complete_from_mask(7, mask) for mask in range(0, 1 << 21, 37))


def _planar7_tree_reports():
    from zerosum.extremal import _stacked_planar_host

    edges, cert = _stacked_planar_host(7)
    for g in _every_colouring(7, sorted(edges), cert):
        yield find_zero_sum_spanning_tree(g, MAXIMAL_PLANAR_STACKED)


def _dtree8_tree_reports():
    from zerosum.extremal import _lowest_dtree_edges

    for g in _every_colouring(8, sorted(_lowest_dtree_edges(8, 2))):
        yield find_zero_sum_spanning_tree(g, DTree(2))


FINDER_RUNS = {
    "k6-tree": lambda: map(find_zero_sum_spanning_tree, _k6_colourings()),
    "k6-diam3": lambda: map(find_zero_sum_diam3_tree, _k6_colourings()),
    "k6-path": lambda: map(find_zero_sum_spanning_path, _k6_colourings()),
    "k7-path": lambda: map(find_zero_sum_spanning_path, _k7_sampled_colourings()),
    "planar7-tree": _planar7_tree_reports,
    "dtree8-tree": _dtree8_tree_reports,
}

# SHA-256 over (sorted edges, weight, certificate, chain_replacements) of
# every report of each run, recorded from the finders as they were before
# they read their census bounds from the guarantee table; k7-path was
# recorded before the odd-n route shared its settle step with the other
# finders, and k6-path again when the greedy linear-forest constructor
# replaced the exhaustive search on the census route (108 of its 400
# census-route reports changed, all still valid); k6-diam3 again when the
# double-star rule replaced the walk between two spanning stars (the
# 10,392 formerly walked reports of its 31,616 found ones changed, 384 of
# them to a pair other than 0-1; the found flags did not); k6-diam3,
# k7-path, planar7-tree and dtree8-tree again when the finders stopped
# refusing below their census hypothesis (1,120, 1,317, 884 and 560
# reports changed, each a below-hypothesis refusal that became a validated
# member; every K_6 colouring that k6-tree and k6-path refuse has none)
FINDER_DIGESTS = {
    "k6-tree": "0e5efef7affb0a15cff76703444e7383dee2499b7a2336236c48dbbc2895b3dc",
    "k6-diam3": "298737bba415bb91b973dbffe4875df82f2d27bb52084744c1fc0938e3371a50",
    "k6-path": "9f9fd2d1f2b0863f32e86a6222ed22f689aa23cdb62693a58662c44416f92df9",
    "k7-path": "48b076cdf087eeefe8d2e4086b269f7291518060a7ac8a5e0fb42bf667a28cfb",
    "planar7-tree": "2de22ab07498bde8d85bfd95f6c172d767acd27bdc460c883b7f1c706ebfba84",
    "dtree8-tree": "70496bd3a4fde39fa5421c2f97363118f1958c566e4051b15c2649d25d532daf",
}


def _report_digest(reports) -> str:
    digest = hashlib.sha256()
    for rep in reports:
        edges = sorted(rep.subgraph.edges) if rep.subgraph is not None else []
        digest.update(
            repr((edges, rep.weight, rep.certificate, rep.chain_replacements)).encode()
        )
    return digest.hexdigest()


@pytest.mark.parametrize("run", sorted(FINDER_RUNS))
def test_finder_outputs_unchanged(run):
    assert _report_digest(FINDER_RUNS[run]()) == FINDER_DIGESTS[run]
