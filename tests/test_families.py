import hashlib
import random

import pytest

from conftest import complete_from_mask, random_complete
from zerosum.errors import DomainError
from zerosum.families import (
    Diam3Trees,
    ExchangeChain,
    HamiltonianPaths,
    PerfectMatchings,
    SpanningTrees,
    diam3_exchange_chain,
    hampath_exchange_chain,
    interpolate,
    interpolate_traced,
    member_of,
    path_sequence,
    tree_exchange_chain,
)
from zerosum.graphs import ColoredGraph, EdgeSubgraph, weight


def star(g, centre):
    return EdgeSubgraph(g, [(centre, v) for v in range(g.n) if v != centre])


def path_of(g, order):
    return EdgeSubgraph(g, list(zip(order, order[1:])))


def random_tree(g, rng):
    n = g.n
    if n <= 2:
        return EdgeSubgraph(g, g.edges)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    from zerosum.families import _prufer_edges

    return EdgeSubgraph(g, _prufer_edges(tuple(seq), n))


def random_hampath(g, rng):
    order = list(range(g.n))
    rng.shuffle(order)
    return path_of(g, order)


def random_diam3(g, rng):
    n = g.n
    if rng.random() < 0.3 or n < 4:
        return star(g, rng.randrange(n))
    u, v = rng.sample(range(n), 2)
    rest = [x for x in range(n) if x not in (u, v)]
    cut = rng.randrange(1, len(rest))
    rng.shuffle(rest)
    return EdgeSubgraph(
        g, [(u, v)] + [(u, x) for x in rest[:cut]] + [(v, x) for x in rest[cut:]]
    )


# --- spanning-tree chains ---


def test_tree_chain_identity():
    g = ColoredGraph.complete(5)
    t = star(g, 0)
    chain = tree_exchange_chain(t, t)
    assert chain.replacements == 0 and chain.steps == (t,)


def test_tree_chain_star_to_star_k4():
    g = ColoredGraph.complete(4)
    chain = tree_exchange_chain(star(g, 0), star(g, 1), SpanningTrees(g))
    chain.validate(SpanningTrees(g))
    assert chain.replacements <= 3
    assert chain.steps[-1].edges == star(g, 1).edges


def test_tree_chain_disjoint_trees_k6():
    g = ColoredGraph.complete(6)
    t1 = path_of(g, [0, 1, 2, 3, 4, 5])
    t2 = path_of(g, [1, 3, 5, 0, 2, 4])
    assert not (t1.edges & t2.edges)
    chain = tree_exchange_chain(t1, t2)
    chain.validate(SpanningTrees(g))
    assert chain.replacements == 5  # forced: |T \ T'| = 5
    for a, b in zip(chain.steps, chain.steps[1:]):
        assert len(a.edges - b.edges) == 1 and len(b.edges - a.edges) == 1


def test_tree_chain_replacement_count_is_symmetric_difference():
    rng = random.Random(2)
    g = ColoredGraph.complete(7)
    for _ in range(40):
        a, b = random_tree(g, rng), random_tree(g, rng)
        chain = tree_exchange_chain(a, b)
        chain.validate(SpanningTrees(g))
        assert chain.replacements == len(a.edges - b.edges)


def test_tree_chain_rejects_non_trees():
    g = ColoredGraph.complete(4)
    not_tree = EdgeSubgraph(g, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(DomainError):
        tree_exchange_chain(not_tree, star(g, 0))


# --- Hamiltonian-path chains ---


def test_hampath_chain_identity_and_reversal():
    g = ColoredGraph.complete(4)
    p = path_of(g, [0, 1, 2, 3])
    assert hampath_exchange_chain(p, p).replacements == 0
    rev = path_of(g, [3, 2, 1, 0])
    chain = hampath_exchange_chain(p, rev)
    assert chain.replacements == 0  # same edge set


def test_hampath_chain_k4_example():
    g = ColoredGraph.complete(4)
    chain = hampath_exchange_chain(path_of(g, [0, 1, 2, 3]), path_of(g, [0, 2, 1, 3]))
    chain.validate(HamiltonianPaths(g))
    assert len(chain.steps) <= 5
    assert chain.steps[-1].edges == path_of(g, [0, 2, 1, 3]).edges


def test_hampath_chain_random_pairs():
    rng = random.Random(4)
    for n in (2, 3, 5, 8):
        g = ColoredGraph.complete(n)
        kind = HamiltonianPaths(g)
        for _ in range(30):
            a, b = random_hampath(g, rng), random_hampath(g, rng)
            chain = hampath_exchange_chain(a, b)
            chain.validate(kind)
            assert chain.replacements <= 2 * (n - 1)
            assert chain.steps[-1].edges == b.edges


def test_hampath_chain_requires_complete_host():
    g = ColoredGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    p = EdgeSubgraph(g, g.edges)
    with pytest.raises(DomainError):
        hampath_exchange_chain(p, p)


def test_path_sequence_reconstruction():
    g = ColoredGraph.complete(6)
    p = path_of(g, [3, 0, 5, 1, 4, 2])
    seq = path_sequence(p)
    assert path_of(g, seq).edges == p.edges
    assert seq[0] < seq[-1]


# --- diameter-3 chains ---


def test_diam3_chain_star_identity():
    g = ColoredGraph.complete(5)
    s = star(g, 2)
    assert diam3_exchange_chain(s, s).replacements == 0


def test_diam3_chain_double_star_to_adjacent_star():
    # S_{1,2} on 5 vertices: centre 0 holds leaf 2, centre 1 holds leaves 3,4
    g = ColoredGraph.complete(5)
    s12 = EdgeSubgraph(g, [(0, 1), (0, 2), (1, 3), (1, 4)])
    to_heavy = diam3_exchange_chain(s12, star(g, 1))
    to_heavy.validate(Diam3Trees(g))
    assert to_heavy.replacements == 1  # one leaf migrates
    to_light = diam3_exchange_chain(s12, star(g, 0))
    to_light.validate(Diam3Trees(g))
    assert to_light.replacements == 2


def test_diam3_chain_bound_k8():
    rng = random.Random(9)
    g = ColoredGraph.complete(8)
    kind = Diam3Trees(g)
    for _ in range(150):
        a, b = random_diam3(g, rng), random_diam3(g, rng)
        chain = diam3_exchange_chain(a, b)
        chain.validate(kind)
        assert chain.replacements <= 2 * (8 - 2)
        assert chain.steps[-1].edges == b.edges


def test_diam3_chain_rejects_long_trees():
    g = ColoredGraph.complete(6)
    long_path = path_of(g, [0, 1, 2, 3, 4, 5])
    with pytest.raises(DomainError):
        diam3_exchange_chain(long_path, star(g, 0))


# --- interpolation ---


def test_interpolate_returns_zero_weight_input_immediately():
    g = ColoredGraph.complete_with_minus(5, [(0, 1), (0, 2)])
    s = star(g, 0)  # two -1 and two +1 edges
    assert weight(s) == 0
    kind = SpanningTrees(g)
    out, reps = interpolate_traced(kind, s, star(g, 1))
    assert out.edges == s.edges and reps == 0


def test_interpolate_k5_even_edge_count():
    # m = 4 even: the walk must land exactly on weight zero
    rng = random.Random(13)
    g = ColoredGraph.complete_with_minus(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    kind = SpanningTrees(g)
    lo = hi = None
    while lo is None or hi is None:
        t = random_tree(g, rng)
        if weight(t) <= -2 and lo is None:
            lo = t
        if weight(t) >= 2 and hi is None:
            hi = t
    z = interpolate(kind, lo, hi)
    assert weight(z) == 0 and member_of(kind, z)


def test_interpolate_k6_odd_edge_count():
    rng = random.Random(14)
    g = complete_from_mask(6, 0b101010101010101)
    kind = SpanningTrees(g)
    lo = hi = None
    while lo is None or hi is None:
        t = random_tree(g, rng)
        if weight(t) < 0 and lo is None:
            lo = t
        if weight(t) > 0 and hi is None:
            hi = t
    z = interpolate(kind, lo, hi)
    assert abs(weight(z)) == 1


def test_interpolate_accepts_swapped_order():
    g = ColoredGraph.complete_with_minus(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    kind = SpanningTrees(g)
    lo = EdgeSubgraph(g, [(0, 1), (0, 2), (2, 3), (3, 4)])  # weight -2
    hi = star(g, 4)  # weight +2
    assert weight(lo) <= 0 <= weight(hi)
    z = interpolate(kind, hi, lo)  # swapped on purpose
    assert weight(z) == 0


def test_interpolate_names_failed_bound():
    g = ColoredGraph.complete(5)  # all +1
    kind = SpanningTrees(g)
    with pytest.raises(DomainError) as err:
        interpolate(kind, star(g, 0), star(g, 1))
    assert "<= 0" in str(err.value)


def test_interpolate_rejects_non_members():
    g = ColoredGraph.complete(5)
    kind = HamiltonianPaths(g)
    with pytest.raises(DomainError):
        interpolate(kind, star(g, 0), star(g, 1))


def test_interpolated_chain_is_valid_sample():
    # small-scale version of the acceptance invariant, all three kinds
    rng = random.Random(99)
    for n in (5, 6, 7):
        for _ in range(60):
            g = random_complete(n, rng)
            for kind, sampler in (
                (SpanningTrees(g), random_tree),
                (HamiltonianPaths(g), random_hampath),
                (Diam3Trees(g), random_diam3),
            ):
                lo = hi = None
                for _ in range(30):
                    h = sampler(g, rng)
                    w = weight(h)
                    if w <= 0 and lo is None:
                        lo = h
                    if w >= 0 and hi is None:
                        hi = h
                    if lo is not None and hi is not None:
                        break
                if lo is None or hi is None:
                    continue
                steps = []
                z, reps = interpolate_traced(kind, lo, hi, collect=steps)
                assert abs(weight(z)) <= 1
                assert weight(z) % 2 == (n - 1) % 2
                ExchangeChain(tuple(steps)).validate(kind)
                if isinstance(kind, Diam3Trees):
                    assert reps <= 2 * (n - 2)
                if isinstance(kind, HamiltonianPaths):
                    assert reps <= 2 * (n - 1)


# SHA-256 over the members of K_n in the order edge_sets() yields them,
# each as its sorted edge list: for the three families n = 0..7, for
# perfect matchings n = 0, 2, .., 8
MEMBER_ORDER_DIGESTS = {
    "SpanningTrees": "ed7171aab0fc97717dca57ee87c6e344da82691b33d6be6d037377657af31b62",
    "HamiltonianPaths": "21ee653b59337b60bf22fd4b5c323cca0de622ee5879b72f1606193ab418d0aa",
    "Diam3Trees": "230f5ce0cdd507690b14b07559c935e7513bdc5e7310acfc76e0080a63e4ebc3",
    "PerfectMatchings": "64d7e02bdbe13d3f3d61f9e2985f86673b9e57096b288eb067693b462e9a9e36",
}


@pytest.mark.parametrize(
    "kind, orders",
    [(SpanningTrees, range(8)), (HamiltonianPaths, range(8)), (Diam3Trees, range(8))]
    + [(PerfectMatchings, range(0, 9, 2))],
    ids=lambda v: getattr(v, "__name__", ""),
)
def test_member_enumeration_order_unchanged(kind, orders):
    digest = hashlib.sha256()
    for n in orders:
        for edges in kind(ColoredGraph.complete(n)).edge_sets():
            digest.update(repr(sorted(edges)).encode())
    assert digest.hexdigest() == MEMBER_ORDER_DIGESTS[kind.__name__]
