import math
import random
import tracemalloc

import pytest

from conftest import complete_from_mask, random_complete
from zerosum.errors import DomainError, GraphFormatError
from zerosum.graphs import (
    COMPLETE,
    ColoredGraph,
    ColorCensus,
    DTree,
    EdgeSubgraph,
    MAXIMAL_PLANAR_STACKED,
    StackedCertificate,
    TRIANGLE_FREE,
    UnionFind,
    census,
    complete_edges,
    greedy_forest,
    host_class_check,
    is_diam3_tree,
    is_forest,
    is_hamiltonian_path,
    is_linear_forest,
    is_matching,
    is_spanning_tree,
    read_edge_list,
    tree_diameter,
    weight,
    write_edge_list,
)


def test_construction_rejects_bad_input():
    with pytest.raises(DomainError):
        ColoredGraph(3, [(0, 0, 1)])  # loop
    with pytest.raises(DomainError):
        ColoredGraph(3, [(0, 1, 1), (1, 0, -1)])  # duplicate
    with pytest.raises(DomainError):
        ColoredGraph(3, [(0, 3, 1)])  # out of range
    with pytest.raises(DomainError):
        ColoredGraph(3, [(0, 1, 0)])  # zero colour
    with pytest.raises(DomainError):
        ColoredGraph(3, [(0, 1, 2)])


def test_graphs_are_immutable():
    g = ColoredGraph.complete(4)
    with pytest.raises(AttributeError):
        g.n = 5
    h = EdgeSubgraph(g, [(0, 1)])
    with pytest.raises(AttributeError):
        h.edges = frozenset()


def test_census_examples():
    assert census(ColoredGraph.complete(4)) == ColorCensus(0, 6, 6)
    triangle = ColoredGraph.complete_with_minus(4, [(0, 1), (0, 2), (1, 2)])
    assert census(triangle) == ColorCensus(3, 3, 0)
    matching = ColoredGraph.complete_with_minus(6, [(0, 1), (2, 3), (4, 5)])
    assert census(matching) == ColorCensus(3, 12, 9)


def test_census_equals_full_subgraph_weight():
    rng = random.Random(5)
    for _ in range(50):
        g = random_complete(6, rng)
        assert census(g).total_weight == weight(EdgeSubgraph(g, g.edges))


def test_weight_examples():
    g = ColoredGraph.complete(5)
    assert weight(EdgeSubgraph(g, [])) == 0
    path = ColoredGraph(
        5, [(0, 1, 1), (1, 2, -1), (2, 3, 1), (3, 4, -1)]
    )
    assert weight(EdgeSubgraph(path, path.edges)) == 0
    with pytest.raises(DomainError):
        EdgeSubgraph(path, [(0, 4)])  # edge not in host


def test_weight_all_spanning_stars_of_k5():
    # independent check: direct summation over every 4-edge star under a
    # fixed colouring, including one with a 2/2 split at the centre
    g = complete_from_mask(5, 0b1010011010)
    for centre in range(5):
        star = EdgeSubgraph(g, [(centre, v) for v in range(5) if v != centre])
        direct = sum(g.sign[e] for e in star.edges)
        assert weight(star) == direct
    balanced = ColoredGraph.complete_with_minus(5, [(0, 1), (0, 2)])
    star = EdgeSubgraph(balanced, [(0, v) for v in range(1, 5)])
    assert weight(star) == 0


def test_parity_law_and_flip():
    rng = random.Random(11)
    for _ in range(100):
        g = random_complete(6, rng)
        edges = list(g.edges)
        rng.shuffle(edges)
        h = EdgeSubgraph(g, edges[: rng.randrange(len(edges))])
        assert weight(h) % 2 == len(h.edges) % 2
        flipped = g.flipped()
        assert weight(EdgeSubgraph(flipped, h.edges)) == -weight(h)
        cf, cg = census(flipped), census(g)
        assert (cf.e_minus, cf.e_plus, cf.total_weight) == (
            cg.e_plus,
            cg.e_minus,
            -cg.total_weight,
        )


def _fresh_minus_masks(g):
    masks = [0] * g.n
    for (u, v), c in g.sign.items():
        if c == -1:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return tuple(masks)


def test_kept_census_and_minus_masks_match_fresh_computation():
    rng = random.Random(23)
    path = ColoredGraph(5, [(0, 1, -1), (1, 2, 1), (2, 3, -1), (3, 4, -1)])
    for g in [path] + [random_complete(7, rng) for _ in range(20)]:
        for h in (g, g.flipped()):
            e_minus = sum(1 for c in h.sign.values() if c == -1)
            fresh = ColorCensus(e_minus, len(h.edges) - e_minus, len(h.edges) - 2 * e_minus)
            assert census(h) == fresh
            assert census(h) is census(h)
            assert h.minus_masks() == _fresh_minus_masks(h)
            assert h.minus_masks() is h.minus_masks()
        # keeping derived data leaves the value unchanged
        same = ColoredGraph(g.n, [(u, v, g.sign[(u, v)]) for u, v in g.edges])
        assert g == same and hash(g) == hash(same)


def test_structural_predicates():
    g = ColoredGraph.complete(6)
    star = EdgeSubgraph(g, [(0, i) for i in range(1, 6)])
    assert is_spanning_tree(star) and tree_diameter(star) == 2
    path4 = EdgeSubgraph(ColoredGraph.complete(4), [(0, 1), (1, 2), (2, 3)])
    assert is_hamiltonian_path(path4)
    double = EdgeSubgraph(g, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    assert is_spanning_tree(double) and tree_diameter(double) == 3
    assert is_forest(EdgeSubgraph(g, [(0, 1), (2, 3)]))
    assert not is_forest(EdgeSubgraph(g, [(0, 1), (1, 2), (0, 2)]))
    assert is_linear_forest(EdgeSubgraph(g, [(0, 1), (1, 2), (3, 4)]))
    assert not is_linear_forest(star)
    assert is_matching(EdgeSubgraph(g, [(0, 1), (2, 3)]))
    assert not is_matching(EdgeSubgraph(g, [(0, 1), (1, 2)]))
    with pytest.raises(DomainError):
        tree_diameter(EdgeSubgraph(g, [(0, 1)]))


@pytest.mark.parametrize("n", range(1, 7))
def test_one_pass_member_tests_match_their_definitions(n):
    g = ColoredGraph.complete(n)
    edges = g.edges
    counts = [0, 0]
    for mask in range(1 << len(edges)):
        h = EdgeSubgraph._unchecked(
            g, frozenset(e for i, e in enumerate(edges) if (mask >> i) & 1)
        )
        tree = is_spanning_tree(h)
        diam3 = tree and tree_diameter(h) <= 3
        path = tree and is_linear_forest(h)
        assert is_diam3_tree(h) == diam3, sorted(h.edges)
        assert is_hamiltonian_path(h) == path, sorted(h.edges)
        counts[0] += diam3
        counts[1] += path
    # diameter-3 trees and Hamiltonian paths of K_n, by their closed forms
    assert counts == [
        1 if n <= 2 else n + n * (n - 1) // 2 * (2 ** (n - 2) - 2),
        max(1, math.factorial(n) // 2),
    ]


def test_spanning_tree_characterization():
    # n-1 edges plus connectivity, nothing else
    rng = random.Random(3)
    g = ColoredGraph.complete(6)
    for _ in range(200):
        edges = rng.sample(g.edges, 5)
        h = EdgeSubgraph(g, edges)
        connected = is_forest(h)  # 5 acyclic edges on 6 vertices must span
        assert is_spanning_tree(h) == connected


def test_host_classes():
    assert not host_class_check(ColoredGraph.complete(3), TRIANGLE_FREE)
    c5 = ColoredGraph(5, [(i, (i + 1) % 5, 1) for i in range(5)])
    assert host_class_check(c5, TRIANGLE_FREE)
    assert host_class_check(ColoredGraph.complete(4), DTree(3))
    assert not host_class_check(ColoredGraph.complete(4), DTree(2))
    book = ColoredGraph(
        5, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (0, 3, 1), (1, 3, 1), (0, 4, 1), (1, 4, 1)]
    )
    assert host_class_check(book, DTree(2))
    assert host_class_check(ColoredGraph.complete(6), COMPLETE)
    assert not host_class_check(c5, COMPLETE)


def test_stacked_planar_certificates():
    from zerosum.extremal import PlanarSharpness, make_extremal_graph

    g = make_extremal_graph(PlanarSharpness(7))
    assert len(g.edges) == 3 * 7 - 6
    assert host_class_check(g, MAXIMAL_PLANAR_STACKED)
    # triangle needs no certificate; anything bigger without one is refused
    assert host_class_check(ColoredGraph.complete(3), MAXIMAL_PLANAR_STACKED)
    assert not host_class_check(ColoredGraph.complete(4), MAXIMAL_PLANAR_STACKED)
    # a certificate that does not replay onto the edge set is rejected
    bogus = ColoredGraph(
        4,
        [(u, v, 1) for u, v in complete_edges(4)],
        certificate=StackedCertificate((0, 1, 2), (((3, (0, 1, 3))),)),
    )
    assert not host_class_check(bogus, MAXIMAL_PLANAR_STACKED)
    good = ColoredGraph(
        4,
        [(u, v, 1) for u, v in complete_edges(4)],
        certificate=StackedCertificate((0, 1, 2), ((3, (0, 1, 2)),)),
    )
    assert host_class_check(good, MAXIMAL_PLANAR_STACKED)


def test_edge_list_round_trip():
    g = ColoredGraph.complete_with_minus(5, [(0, 1), (2, 4)])
    text = write_edge_list(g)
    assert text.splitlines()[0] == "5 10"
    back = read_edge_list(text)
    assert back == g
    assert write_edge_list(back) == text


def test_edge_list_comments_and_certificate_round_trip():
    from zerosum.extremal import PlanarSharpness, make_extremal_graph

    g = make_extremal_graph(PlanarSharpness(9))
    text = write_edge_list(g, header_comments=["construction: planar-sharpness 9"])
    back = read_edge_list(text)
    assert back == g
    assert host_class_check(back, MAXIMAL_PLANAR_STACKED)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "header"),
        ("3\n", "header"),
        ("3 1\n0 1 0\n", "sign 0"),
        ("3 1\n0 1 2\n", "sign"),
        ("3 1\n0 0 1\n", "loop"),
        ("3 1\n0 5 1\n", "out of range"),
        ("3 2\n0 1 1\n1 0 -1\n", "duplicate"),
        ("3 2\n0 1 1\n", "declares 2"),
        ("3 1\n0 1 1\n1 2 1\n", "declares 1"),
        ("3 1\n0 1\n", "u v c"),
        ("# stacked-base: 0 1 x\n3 1\n0 1 1\n", "line 1: stacked-base values"),
        (
            "# stacked-base: 0 1 2\n# stacked-insert: 3 0 1 z\n4 1\n0 1 1\n",
            "line 2: stacked-insert values",
        ),
    ],
)
def test_edge_list_errors(text, fragment):
    with pytest.raises(GraphFormatError) as err:
        read_edge_list(text)
    assert fragment in str(err.value)


def test_edge_list_error_reports_line_number():
    with pytest.raises(GraphFormatError) as err:
        read_edge_list("# comment\n3 2\n0 1 1\n1 2 0\n")
    assert err.value.line_no == 4


def test_is_connected_of_a_huge_edgeless_header_allocates_nothing():
    # too few edges to connect n vertices: no per-vertex array is built
    g = read_edge_list("2000000 0\n")
    tracemalloc.start()
    try:
        connected = g.is_connected()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not connected
    assert peak < 1 << 20


def test_is_connected_of_a_complete_host_runs_no_union_find(monkeypatch):
    from zerosum import graphs

    def refuse(n):
        raise AssertionError("union-find built for a complete host")

    monkeypatch.setattr(graphs, "UnionFind", refuse)
    assert ColoredGraph.complete(7).is_connected()
    assert complete_from_mask(7, 0b1011).is_connected()



def test_greedy_forest_takes_merging_edges_in_order_up_to_the_limit():
    edges = [(3, 4), (0, 1), (1, 3), (0, 4), (2, 5), (0, 3)]
    # the given order is kept; (0,4) and (0,3) close cycles and are skipped
    assert greedy_forest(UnionFind(6), edges, 10) == [(3, 4), (0, 1), (1, 3), (2, 5)]
    uf = UnionFind(6)
    assert greedy_forest(uf, edges, 0) == []
    assert uf.parent == list(range(6))
    # stops at the limit, with only the taken edges merged
    assert greedy_forest(uf, edges, 2) == [(3, 4), (0, 1)]
    assert uf.find(0) == uf.find(1) and uf.find(3) == uf.find(4)
    assert uf.find(1) != uf.find(3)
    # sets the union-find already joins count as one
    uf = UnionFind(6)
    uf.union(0, 4)
    assert greedy_forest(uf, edges, 10) == [(3, 4), (0, 1), (2, 5)]
