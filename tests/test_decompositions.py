import pytest

from zerosum.decompositions import (
    hamilton_cycle_decomposition,
    hamilton_path_decomposition,
)
from zerosum.errors import DomainError
from zerosum.graphs import EdgeSubgraph, binomial, is_hamiltonian_path


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

