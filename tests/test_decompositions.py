import random

import pytest

from zerosum.decompositions import (
    _zigzag_parts,
    hamilton_cycle_decomposition,
    hamilton_path_decomposition,
)
from zerosum.errors import DomainError
from zerosum.finders import _trimmed
from zerosum.graphs import EdgeSubgraph, binomial, complete_edges, is_hamiltonian_path


def _check_partition(parts, n):
    seen = set()
    for p in parts:
        assert not (seen & p.edges), "parts overlap"
        seen |= p.edges
    assert len(seen) == binomial(n, 2), "parts do not cover K_n"


def test_single_edge_base_case():
    dec = hamilton_path_decomposition(2)
    assert len(dec.parts) == 1 and len(dec.parts[0].edges) == 1


def test_triangle_base_case():
    dec = hamilton_cycle_decomposition(3)
    assert len(dec.parts) == 1 and len(dec.parts[0].edges) == 3


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14])
def test_path_decomposition(n):
    dec = hamilton_path_decomposition(n)
    assert len(dec.parts) == n // 2
    for part in dec.parts:
        assert len(part.edges) == n - 1
        assert is_hamiltonian_path(part)
    _check_partition(dec.parts, n)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15])
def test_cycle_decomposition_and_covering_property(n):
    dec = hamilton_cycle_decomposition(n)
    assert len(dec.parts) == (n - 1) // 2
    host = dec.parts[0].host
    for part in dec.parts:
        assert len(part.edges) == n
        # covering property: removing any single edge leaves a spanning path
        for e in part.edges:
            assert is_hamiltonian_path(EdgeSubgraph(host, part.edges - {e}))
    _check_partition(dec.parts, n)


def test_parity_domain_errors():
    with pytest.raises(DomainError):
        hamilton_path_decomposition(5)
    with pytest.raises(DomainError):
        hamilton_cycle_decomposition(6)
    with pytest.raises(DomainError):
        hamilton_path_decomposition(0)


def test_deterministic_output():
    a = hamilton_path_decomposition(8)
    b = hamilton_path_decomposition(8)
    assert a.orders == b.orders
    assert [p.edges for p in a.parts] == [p.edges for p in b.parts]


@pytest.mark.parametrize("n", range(2, 31))
def test_part_bits_split_the_colouring_mask(n):
    # each part's bits are its edges' canonical bits, and the parts' bits
    # are pairwise disjoint and cover every edge of K_n
    _, parts, part_bits = _zigzag_parts(n, n % 2 == 1)
    index = {e: i for i, e in enumerate(complete_edges(n))}
    seen = 0
    for part, bits in zip(parts, part_bits):
        assert bits == sum(1 << index[e] for e in part)
        assert not seen & bits
        seen |= bits
    assert seen == (1 << binomial(n, 2)) - 1


def _first_edge_dropped(part, sign):
    """The cycle less its first edge, in sorted order, of its weight's sign."""
    s = 1 if sum(map(sign, part)) > 0 else -1
    edges = sorted(part)
    cut = next(j for j, e in enumerate(edges) if sign(e) == s)
    return tuple(edges[:cut] + edges[cut + 1 :])


@pytest.mark.parametrize(
    "n, masks",
    [
        (5, range(1 << 10)),
        (9, [random.Random(9).getrandbits(36) for _ in range(400)]),
        (11, [random.Random(11).getrandbits(55) for _ in range(400)]),
    ],
    ids=["k5-every", "k9-seeded", "k11-seeded"],
)
def test_popcount_cut_is_the_first_edge_of_the_weight_sign(n, masks):
    _, parts, part_bits = _zigzag_parts(n, True)
    index = {e: i for i, e in enumerate(complete_edges(n))}
    for mask in masks:
        def sign(e):
            return -1 if mask >> index[e] & 1 else 1

        for part, bits in zip(parts, part_bits):
            w = n - 2 * (bits & mask).bit_count()
            assert w == sum(map(sign, part))
            assert _trimmed(part, bits, w, mask) == _first_edge_dropped(part, sign)
