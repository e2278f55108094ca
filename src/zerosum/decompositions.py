"""Edge decompositions of K_n into spanning paths or spanning cycles.

The classical zig-zag construction is fixed as the canonical output so
that every run of the package produces identical decompositions: path i
is the rotation by i of the order 0, 1, n-1, 2, n-2, ... which walks
through every circular difference exactly once.

The part orders and edge lists depend only on n, so they are built once
per (n, kind) and kept for the last few orders asked for.  The
spanning-path finder reads these edge lists directly; each call here
binds them to a new all-+1 K_n, and its parts are never kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .graphs import ColoredGraph, EdgeSubgraph, canonical_edge


@dataclass(frozen=True)
class Decomposition:
    """Pairwise edge-disjoint parts covering the full host edge set."""

    parts: tuple[EdgeSubgraph, ...]
    orders: tuple[tuple[int, ...], ...]  # vertex order per part, for display


def _zigzag(n: int, offset: int) -> list[int]:
    """Zig-zag Hamiltonian-path order on 0..n-1 (n even), shifted by offset."""
    # 0, 1, n-1, 2, n-2, ...: consecutive circular differences 1..n-1
    order = [0]
    for t in range(1, n // 2):
        order.append(t)
        order.append(n - t)
    order.append(n // 2)
    return [(x + offset) % n for x in order]


# the parts of K_n hold all C(n,2) of its edges, so only a few orders are kept
@lru_cache(maxsize=4)
def _zigzag_parts(n: int, cycles: bool):
    """(orders, edge lists in canonical order) of the zig-zag paths (or
    cycles through the hub n-1) of K_n."""
    if cycles:
        orders = tuple((n - 1,) + tuple(_zigzag(n - 1, i)) for i in range((n - 1) // 2))
    else:
        orders = tuple(tuple(_zigzag(n, i)) for i in range(n // 2))
    edge_lists = []
    for order in orders:
        edges = {canonical_edge(a, b) for a, b in zip(order, order[1:])}
        if cycles:
            edges.add(canonical_edge(order[-1], order[0]))
        edge_lists.append(tuple(sorted(edges)))
    return orders, tuple(edge_lists)


def _decomposition(n: int, cycles: bool) -> Decomposition:
    orders, edge_lists = _zigzag_parts(n, cycles)
    host = ColoredGraph.complete(n)
    return Decomposition(tuple(EdgeSubgraph(host, e) for e in edge_lists), orders)


def hamilton_path_decomposition(n: int) -> Decomposition:
    """Decompose K_n (n even) into n/2 edge-disjoint Hamiltonian paths."""
    if n < 2 or n % 2 != 0:
        raise DomainError(f"path decomposition needs even n >= 2, got {n}")
    return _decomposition(n, cycles=False)


def hamilton_cycle_decomposition(n: int) -> Decomposition:
    """Decompose K_n (n odd) into (n-1)/2 edge-disjoint Hamiltonian cycles.

    Each cycle is a zig-zag path on the first n-1 vertices closed through
    the hub vertex n-1.  Removing any edge of a cycle leaves a spanning
    path, which is what lets these cycles stand in for paths.
    """
    if n < 3 or n % 2 != 1:
        raise DomainError(f"cycle decomposition needs odd n >= 3, got {n}")
    return _decomposition(n, cycles=True)
