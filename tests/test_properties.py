"""Property tests of the edge-list format (round trips and parser errors)
and of the tree finder against an independent reference."""

import itertools
from dataclasses import fields

import pytest

from zerosum.errors import DomainError, GraphFormatError
from zerosum.extremal import CONSTRUCTIONS, construction_from_args, construction_header
from zerosum.finders import find_zero_sum_spanning_tree
from zerosum.graphs import (
    COMPLETE,
    TRIANGLE_FREE,
    ColoredGraph,
    complete_edges,
    is_spanning_tree,
    read_edge_list,
    write_edge_list,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None)


def _round_trips(g: ColoredGraph, header_comments=()) -> None:
    back = read_edge_list(write_edge_list(g, header_comments))
    assert back == g and back.edges == g.edges
    assert back.certificate == g.certificate


@st.composite
def signed_graphs(draw):
    """A signed graph on n <= 8 vertices: each edge of K_n is present or
    not, and each present edge is -1 or +1."""
    n = draw(st.integers(0, 8))
    m = n * (n - 1) // 2
    present = draw(st.integers(0, (1 << m) - 1))
    minus = draw(st.integers(0, (1 << m) - 1))
    rows = [
        (u, v, -1 if (minus >> i) & 1 else 1)
        for i, (u, v) in enumerate(complete_edges(n))
        if (present >> i) & 1
    ]
    return ColoredGraph(n, rows)


@PROPERTY_SETTINGS
@given(signed_graphs(), st.lists(st.text(alphabet="abc xyz:0123456789"), max_size=3))
def test_random_graphs_round_trip(g, comments):
    _round_trips(g, comments)


def _params(cls, values):
    return [v if f.name == "which" else str(v) for f, v in zip(fields(cls), values)]


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_every_construction_round_trips(name):
    cls = CONSTRUCTIONS[name]
    # K_{4t^2} grows fast: t <= 2 is K_16
    ints = range(3) if name == "matching-k4n" else range(10)
    choices = [("clique", "join") if f.name == "which" else ints for f in fields(cls)]
    built = 0
    for values in itertools.product(*choices):
        cid = construction_from_args(name, _params(cls, values))
        try:
            g = cid.build()
        except DomainError:
            continue
        _round_trips(g, [construction_header(cid)])
        built += 1
    assert built


@PROPERTY_SETTINGS
@given(st.data())
def test_larger_constructions_round_trip(data):
    name = data.draw(st.sampled_from(sorted(CONSTRUCTIONS)))
    cls = CONSTRUCTIONS[name]
    top = 2 if name == "matching-k4n" else 40
    values = [
        data.draw(st.sampled_from(("clique", "join")) if f.name == "which" else st.integers(0, top))
        for f in fields(cls)
    ]
    cid = construction_from_args(name, _params(cls, values))
    try:
        g = cid.build()
    except DomainError:
        hypothesis.assume(False)
    _round_trips(g, [construction_header(cid)])


_small_int = st.integers(-2, 9).map(str)
_edge_list_lines = st.one_of(
    st.text(max_size=12),
    st.lists(_small_int, min_size=1, max_size=4).map(" ".join),
    st.lists(_small_int, max_size=5).map(lambda xs: "# stacked-base: " + " ".join(xs)),
    st.lists(_small_int, max_size=5).map(lambda xs: "# stacked-insert: " + " ".join(xs)),
    st.sampled_from(["", "#", "# comment", "3 1", "0 1 0", "0 1 -1", "1 0 1", "x y z"]),
)


@PROPERTY_SETTINGS
@given(st.one_of(st.text(), st.lists(_edge_list_lines, max_size=8).map("\n".join)))
def test_parser_raises_only_format_or_domain_errors(text):
    try:
        g = read_edge_list(text)
    except (GraphFormatError, DomainError):
        return
    _round_trips(g)


@st.composite
def signed_tree_hosts(draw):
    """(host class, signed host) on n <= 14 vertices: K_n, or a connected
    bipartite graph with sides 0..a-1 and a..n-1, made of a random spanning
    tree plus random edges between the sides."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 14))
        host_class, edges = COMPLETE, complete_edges(n)
    else:
        a, b = draw(st.integers(1, 7)), draw(st.integers(1, 7))
        n = a + b
        edges, placed = {(0, a)}, [0, a]
        for v in [*range(1, a), *range(a + 1, n)]:
            u = draw(st.sampled_from([u for u in placed if (u < a) != (v < a)]))
            edges.add((min(u, v), max(u, v)))
            placed.append(v)
        edges |= {(u, v) for u in range(a) for v in range(a, n) if draw(st.booleans())}
        host_class, edges = TRIANGLE_FREE, sorted(edges)
    minus = draw(st.integers(0, (1 << len(edges)) - 1))
    rows = [(u, v, -1 if (minus >> i) & 1 else 1) for i, (u, v) in enumerate(edges)]
    return host_class, ColoredGraph(n, rows)


@PROPERTY_SETTINGS
@given(signed_tree_hosts())
def test_tree_finder_matches_networkx_weight_range(host):
    # spanning-tree weights take every value of one parity between the
    # lightest and the heaviest tree (basis exchange), so a tree with
    # |w| <= 1 exists iff min <= 1 and max >= -1
    nx = pytest.importorskip("networkx")
    host_class, g = host
    h = nx.Graph()
    h.add_weighted_edges_from((u, v, g.sign[u, v]) for u, v in g.edges)
    lo = nx.minimum_spanning_tree(h).size(weight="weight")
    hi = nx.maximum_spanning_tree(h).size(weight="weight")
    report = find_zero_sum_spanning_tree(g, host_class)
    assert report.found == (lo <= 1 and hi >= -1), (g.sign, report.certificate)
    if report.found:
        assert is_spanning_tree(report.subgraph) and abs(report.weight) <= 1
