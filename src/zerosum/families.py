"""Closed families of spanning subgraphs and edge-replacement chains.

Three families are supported, each with members of exactly n-1 edges:
spanning trees of a connected host, Hamiltonian paths of a complete host,
and spanning trees of diameter at most 3 of a complete host.  Any two
members are joined by a chain of single edge replacements that stays
inside the family; walking such a chain moves the signed weight in steps
of 0 or +-2, which is what makes weight interpolation work.

Each family is an object bound to its host that carries its membership
test, its chain walk, the EnumerationBudget field that caps its
enumeration and the name of its census guarantee on K_n in
thresholds.GUARANTEES.  Its facts about K_n live on the class, in one
place: members(n, table), the generator of its members of K_n over a
symmetric edge table, and complete_count(n), their closed-form number.
count() and edge_sets() are read off those two (spanning trees of a host
that is not complete have their own); the oracle builds its member tables
and checks its budgets from the same two.  Perfect matchings are an
enumeration-only kind with the same interface minus the chain: copies of
a perfect matching in K_{4n} are not connected under single edge
replacements, so no chain construction exists for them.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import deque
from dataclasses import dataclass
from typing import ClassVar, Iterator, Union

from .errors import BudgetExceeded, DomainError
from .graphs import (
    ColoredGraph,
    EdgeSubgraph,
    binomial,
    canonical_edge,
    is_diam3_tree,
    is_hamiltonian_path,
    is_matching,
    is_spanning_tree,
    tree_diameter,  # noqa: F401  (bench/spans.py wraps the validators by their names here)
    weight,
)


@dataclass(frozen=True)
class ExchangeChain:
    """A sequence of family members, consecutive ones one edge swap apart."""

    steps: tuple[EdgeSubgraph, ...]

    @property
    def replacements(self) -> int:
        return len(self.steps) - 1

    def validate(self, kind: FamilyKind) -> None:
        """Raise DomainError on any violated chain invariant."""
        if not self.steps:
            raise DomainError("chain must contain at least one member")
        for i, h in enumerate(self.steps):
            if not member_of(kind, h):
                raise DomainError(f"chain member {i} is not in the family")
        for i in range(len(self.steps) - 1):
            a, b = self.steps[i].edges, self.steps[i + 1].edges
            if len(a - b) != 1 or len(b - a) != 1:
                raise DomainError(f"steps {i}->{i + 1} are not a single edge replacement")
            dw = abs(weight(self.steps[i + 1]) - weight(self.steps[i]))
            if dw not in (0, 2):
                raise DomainError(f"steps {i}->{i + 1} change weight by {dw}")


def _require_member(kind: FamilyKind, h: EdgeSubgraph, role: str) -> None:
    if not member_of(kind, h):
        raise DomainError(f"{role} is not a member of {type(kind).__name__}")


# --- spanning trees: matroid basis exchange ----------------------------------


def _component_after_removal(edges: set, n: int, e: tuple[int, int]) -> set[int]:
    """Vertex set of the component of e[0] in the tree minus e."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if (u, v) != e:
            adj[u].append(v)
            adj[v].append(u)
    comp = {e[0]}
    queue = deque([e[0]])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in comp:
                comp.add(y)
                queue.append(y)
    return comp


def _tree_chain(t_from: EdgeSubgraph, t_to: EdgeSubgraph) -> Iterator[EdgeSubgraph]:
    host = t_from.host
    yield t_from
    cur = set(t_from.edges)
    target = t_to.edges
    while True:
        extra = sorted(cur - target)
        if not extra:
            return
        e = extra[0]
        comp = _component_after_removal(cur, host.n, e)
        cur.discard(e)
        # any target edge crossing the cut restores a spanning tree and
        # strictly shrinks the symmetric difference
        swap_in = min(
            f for f in target - cur if (f[0] in comp) != (f[1] in comp)
        )
        cur.add(swap_in)
        yield EdgeSubgraph._unchecked(host, frozenset(cur))


def tree_exchange_chain(
    t_from: EdgeSubgraph, t_to: EdgeSubgraph, kind: SpanningTrees | None = None
) -> ExchangeChain:
    """Basis-exchange chain between two spanning trees of one host.

    Uses exactly |E(t_from) \\ E(t_to)| replacements.
    """
    if kind is None:
        kind = SpanningTrees(t_from.host)
    _require_member(kind, t_from, "t_from")
    _require_member(kind, t_to, "t_to")
    return ExchangeChain(tuple(_tree_chain(t_from, t_to)))


# --- Hamiltonian paths: prefix-growing two-swap procedure ---------------------


def path_sequence(h: EdgeSubgraph) -> list[int]:
    """Vertex order of a Hamiltonian path, starting at its smaller endpoint."""
    n = h.host.n
    if n == 1:
        return [0]
    adj = h.adjacency()
    ends = [v for v in range(n) if len(adj[v]) == 1]
    start = min(ends)
    seq = [start]
    prev = -1
    cur = start
    while len(seq) < n:
        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
        seq.append(nxt)
        prev, cur = cur, nxt
    return seq


def _hampath_chain(p_from: EdgeSubgraph, p_to: EdgeSubgraph) -> Iterator[EdgeSubgraph]:
    host = p_from.host
    n = host.n
    yield p_from
    if p_from.edges == p_to.edges or n <= 2:
        return
    target = path_sequence(p_to)
    cur = path_sequence(p_from)
    cur_edges = set(p_from.edges)

    def snapshot():
        return EdgeSubgraph._unchecked(host, frozenset(cur_edges))

    for k in range(n - 1):
        v = target[k]
        pos = cur.index(v)
        if pos == k:
            continue
        if k == 0:
            if pos == n - 1:
                cur.reverse()
                continue
            # one swap moves v to an endpoint: cut before v, reattach the
            # severed tail reversed at the current end
            cur_edges.discard(canonical_edge(cur[pos - 1], cur[pos]))
            cur_edges.add(canonical_edge(cur[pos - 1], cur[n - 1]))
            cur = cur[:pos] + cur[pos:][::-1]
            cur.reverse()
            yield snapshot()
            continue
        if pos < n - 1:
            # swap (a): make v the far endpoint of the unmatched tail
            cur_edges.discard(canonical_edge(cur[pos - 1], cur[pos]))
            cur_edges.add(canonical_edge(cur[pos - 1], cur[n - 1]))
            cur = cur[:pos] + cur[pos:][::-1]
            yield snapshot()
        # swap (b): flip the tail so v lands right after the matched prefix
        cur_edges.discard(canonical_edge(cur[k - 1], cur[k]))
        cur_edges.add(canonical_edge(cur[k - 1], cur[n - 1]))
        cur = cur[:k] + cur[k:][::-1]
        yield snapshot()


def hampath_exchange_chain(p_from: EdgeSubgraph, p_to: EdgeSubgraph) -> ExchangeChain:
    """Chain between Hamiltonian paths of a complete host.

    Grows the prefix that matches the target order, spending at most two
    replacements per placed vertex: at most 2(n-1) in total.
    """
    kind = HamiltonianPaths(p_from.host)
    _require_member(kind, p_from, "p_from")
    _require_member(kind, p_to, "p_to")
    return ExchangeChain(tuple(_hampath_chain(p_from, p_to)))


# --- diameter-3 trees: leaf migration between stars and double stars ---------


def _classify_diam3(h: EdgeSubgraph):
    """Return ("star", centres) or ("double", (u, leaves_u), (v, leaves_v)).

    centres is the set of valid star centres (unique for n >= 3).
    """
    n = h.host.n
    if n <= 2:
        return ("star", set(range(n)))
    adj = h.adjacency()
    internal = sorted(v for v in range(n) if len(adj[v]) >= 2)
    if len(internal) == 1:
        return ("star", {internal[0]})
    if len(internal) == 2:
        u, v = internal
        if canonical_edge(u, v) not in h.edges:
            raise DomainError("tree has diameter greater than 3")
        leaves_u = sorted(x for x in adj[u] if x != v)
        leaves_v = sorted(x for x in adj[v] if x != u)
        return ("double", (u, leaves_u), (v, leaves_v))
    raise DomainError("tree has diameter greater than 3")


def _diam3_chain(t_from: EdgeSubgraph, t_to: EdgeSubgraph) -> Iterator[EdgeSubgraph]:
    host = t_from.host
    yield t_from
    if t_from.edges == t_to.edges:
        return
    cur_edges = set(t_from.edges)

    def apply(swaps):
        for old, new in swaps:
            cur_edges.discard(old)
            cur_edges.add(new)
            yield EdgeSubgraph._unchecked(host, frozenset(cur_edges))

    cls_from = _classify_diam3(t_from)
    cls_to = _classify_diam3(t_to)

    # middle star centre, chosen so that the final phase is a plain leaf
    # migration out of it
    if cls_to[0] == "star":
        c2 = min(cls_to[1])
        final_leaves = None
    else:
        (x, leaves_x), (y, leaves_y) = cls_to[1], cls_to[2]
        heavy, light = (x, y) if len(leaves_x) >= len(leaves_y) else (y, x)
        c2 = heavy
        if cls_from[0] == "double":
            from_centres = {cls_from[1][0], cls_from[2][0]}
            if heavy not in from_centres and light in from_centres:
                c2 = light
        final_leaves = leaves_x if c2 == y else leaves_y
        final_other = x if c2 == y else y

    # phase 1: collapse the start tree onto a single star centre c1
    if cls_from[0] == "star":
        centres = cls_from[1]
        c1 = c2 if c2 in centres else min(centres)
    else:
        (u, leaves_u), (v, leaves_v) = cls_from[1], cls_from[2]
        if c2 in (u, v):
            c1 = c2
        else:
            # migrate the lighter side: p <= q keeps this phase short
            c1 = v if len(leaves_u) <= len(leaves_v) else u
        other = u if c1 == v else v
        other_leaves = leaves_u if c1 == v else leaves_v
        yield from apply(
            (canonical_edge(z, other), canonical_edge(z, c1)) for z in other_leaves
        )

    # phase 2: relocate the star centre
    if c1 != c2:
        yield from apply(
            (canonical_edge(z, c1), canonical_edge(z, c2))
            for z in range(host.n)
            if z not in (c1, c2)
        )

    # phase 3: split the star at c2 back into the target double star
    if cls_to[0] == "double":
        yield from apply(
            (canonical_edge(z, c2), canonical_edge(z, final_other)) for z in final_leaves
        )


def diam3_exchange_chain(t_from: EdgeSubgraph, t_to: EdgeSubgraph) -> ExchangeChain:
    """Chain between spanning trees of diameter <= 3 of a complete host.

    Every intermediate tree has diameter <= 3 and the number of
    replacements never exceeds 2(n-2).
    """
    kind = Diam3Trees(t_from.host)
    _require_member(kind, t_from, "t_from")
    _require_member(kind, t_to, "t_to")
    chain = ExchangeChain(tuple(_diam3_chain(t_from, t_to)))
    assert chain.replacements <= max(0, 2 * (t_from.host.n - 2))
    return chain


# --- enumeration budget -------------------------------------------------------


@dataclass(frozen=True)
class EnumerationBudget:
    """Caps on exhaustive enumerations and searches; a family's budget_field
    names the cap that applies to it."""

    max_spanning_trees: int = 262_144
    max_colorings: int = 32_768
    max_matchings: int = 2_100_000
    max_paths: int = 1_900_000

    def __post_init__(self):
        for name in ("max_spanning_trees", "max_colorings", "max_matchings", "max_paths"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")

    def require(self, field: str, count: int, what: str, shift: int = 0) -> None:
        """Refuse with BudgetExceeded, stating the required budget (see
        stated), when count << shift (of what) exceeds the named field,
        never building it past the field's bit length; every refusal is
        raised here."""
        limit = getattr(self, field)
        if count << min(shift, limit.bit_length()) <= limit:
            return
        need = stated(count, ",", shift)
        raise BudgetExceeded(f"{need} {what}; requires {field} >= {need} (budget is {limit:,})")


def stated(b: int, spec: str = "", shift: int = 0) -> str:
    """b << shift formatted by spec or, past str()'s digit limit, by its size
    (about 10^k) without converting it; shift spares building 2^shift."""
    size = math.log10(abs(b)) + shift * math.log10(2) if b else 0
    if size >= getattr(sys, "get_int_max_str_digits", lambda: 0)() > 0:
        return f"{'-' if b < 0 else ''}about 10^{size:,.0f}"
    return format(b << shift, spec)


DEFAULT_BUDGET = EnumerationBudget()


# --- closed-form counts --------------------------------------------------------


def complete_tree_count(n: int) -> int:
    return 1 if n <= 1 else n ** (n - 2)


def spanning_tree_count(g: ColoredGraph) -> int:
    """Number of spanning trees: n^(n-2) for K_n, else an integer
    Laplacian-minor determinant (fraction-free elimination)."""
    n = g.n
    if n <= 1 or g.is_complete:
        return complete_tree_count(n)
    if not g.is_connected():
        return 0
    size = n - 1
    lap = [[0] * size for _ in range(size)]
    for u, v in g.edges:
        if u < size:
            lap[u][u] += 1
        if v < size:
            lap[v][v] += 1
        if u < size and v < size:
            lap[u][v] -= 1
            lap[v][u] -= 1
    # Bareiss; pivots stay positive because the reduced Laplacian of a
    # connected graph is positive definite
    prev = 1
    for k in range(size - 1):
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                lap[i][j] = (lap[i][j] * lap[k][k] - lap[i][k] * lap[k][j]) // prev
        prev = lap[k][k]
    return lap[size - 1][size - 1]


def hamiltonian_path_count(n: int) -> int:
    return 1 if n <= 1 else math.factorial(n) // 2


def diam3_tree_count(n: int) -> int:
    if n <= 2:
        return 1
    return n + binomial(n, 2) * (2 ** (n - 2) - 2)


def perfect_matching_count(n: int) -> int:
    if n % 2 != 0:
        return 0
    return math.prod(range(1, n, 2))


# --- member edge sets -------------------------------------------------------------


def _edge_table(n: int) -> list[list[tuple[int, int]]]:
    """table[u][v] = the canonical edge uv, for every u != v < n."""
    return [[canonical_edge(u, v) for v in range(n)] for u in range(n)]


def _prufer_edges(seq: tuple[int, ...], n: int, table=None) -> list:
    """The n-1 edges uv of the labelled tree on n >= 2 vertices with
    Pruefer sequence seq, each as table[u][v] of a symmetric table (the
    canonical edge uv by default; the oracle passes its edge bits)."""
    if table is None:
        table = _edge_table(n)
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in seq:
        edges.append(table[leaf][x])
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append(table[leaf][n - 1])
    return edges


def _prufer_trees(n: int, table) -> Iterator[list]:
    """Every labelled tree on n >= 2 vertices once, as _prufer_edges lists
    over table, in lexicographic order of their Pruefer sequences."""
    for seq in itertools.product(range(n), repeat=n - 2):
        yield _prufer_edges(seq, n, table)


def _generic_tree_edge_sets(g: ColoredGraph) -> Iterator[frozenset]:
    """Spanning trees of an arbitrary connected host, each exactly once:
    include/exclude recursion over canonical edge order with a
    connectivity-feasibility prune on the exclude branch."""
    n = g.n
    edges = list(g.edges)
    m = len(edges)

    def find(parent, x):
        while parent[x] != x:
            x = parent[x]
        return x

    def rec(idx, parent, chosen):
        if len(chosen) == n - 1:
            yield frozenset(chosen)
            return
        if m - idx < (n - 1) - len(chosen):
            return
        # excluding everything before idx must still leave the host connectable
        probe = parent.copy()
        merges = 0
        for e in edges[idx:]:
            ru, rv = find(probe, e[0]), find(probe, e[1])
            if ru != rv:
                probe[rv] = ru
                merges += 1
        if merges < (n - 1) - len(chosen):
            return
        u, v = edges[idx]
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            child = parent.copy()
            child[rv] = ru
            yield from rec(idx + 1, child, chosen + [edges[idx]])
        yield from rec(idx + 1, parent, chosen)

    yield from rec(0, list(range(n)), [])


def _hampaths(n: int, table) -> Iterator[list]:
    """Every Hamiltonian path of K_n, n >= 1, once, as the list of its
    edges uv as table[u][v] of a symmetric table, in lexicographic order of
    the vertex sequences that start at their lower end."""
    for perm in itertools.permutations(range(n)):
        if perm[0] > perm[-1]:
            continue
        yield [table[a][b] for a, b in zip(perm, perm[1:])]


def _diam3_trees(n: int, table) -> Iterator[list]:
    """Every spanning tree of K_n of diameter <= 3, n >= 2, once, as the
    list of its edges uv as table[u][v] of a symmetric table: the n stars,
    then for each u < v the double stars on uv, every other vertex hung on
    u or on v (neither side empty)."""
    if n == 2:
        yield [table[0][1]]
        return
    for c in range(n):
        yield [table[c][x] for x in range(n) if x != c]
    for u in range(n):
        for v in range(u + 1, n):
            rest = [x for x in range(n) if x not in (u, v)]
            for pick in range(1, (1 << len(rest)) - 1):
                yield [table[u][v]] + [
                    table[u][x] if (pick >> i) & 1 else table[v][x] for i, x in enumerate(rest)
                ]


def _matchings(n: int, table) -> Iterator[list]:
    """Every perfect matching of K_n, n even, once, as the list of its
    edges uv as table[u][v] of a symmetric table: the lowest unmatched
    vertex is paired with each higher one in turn."""

    def rec(pool, acc):
        if not pool:
            yield acc
            return
        u = pool[0]
        for i in range(1, len(pool)):
            yield from rec(pool[1:i] + pool[i + 1 :], acc + [table[u][pool[i]]])

    return rec(list(range(n)), [])


# --- family objects ---------------------------------------------------------


@dataclass(frozen=True)
class _Family:
    """A family bound to its host.  Each family sets members(n, table), the
    generator of its members of K_n, n >= 2, as lists of edges uv given as
    table[u][v] of a symmetric table, and complete_count(n), their number."""

    host: ColoredGraph

    def count(self) -> int:
        return self.complete_count(self.host.n)

    def edge_sets(self) -> Iterator[frozenset]:
        n = self.host.n
        if n <= 1:
            return iter((frozenset(),))
        return map(frozenset, self.members(n, _edge_table(n)))


@dataclass(frozen=True)
class SpanningTrees(_Family):
    guarantee: ClassVar[str] = "tree"
    budget_field: ClassVar[str] = "max_spanning_trees"
    members = staticmethod(_prufer_trees)
    complete_count = staticmethod(complete_tree_count)
    chain = staticmethod(_tree_chain)

    def __post_init__(self):
        if not self.host.is_connected():
            raise DomainError("spanning-tree family requires a connected host")

    def is_member(self, h: EdgeSubgraph) -> bool:
        return is_spanning_tree(h)

    def count(self) -> int:
        return spanning_tree_count(self.host)

    def edge_sets(self) -> Iterator[frozenset]:
        if self.host.is_complete:
            return super().edge_sets()
        return _generic_tree_edge_sets(self.host)


@dataclass(frozen=True)
class HamiltonianPaths(_Family):
    guarantee: ClassVar[str] = "path-census"
    budget_field: ClassVar[str] = "max_paths"
    members = staticmethod(_hampaths)
    complete_count = staticmethod(hamiltonian_path_count)
    chain = staticmethod(_hampath_chain)

    def __post_init__(self):
        if not self.host.is_complete:
            raise DomainError("Hamiltonian-path family requires a complete host")

    def is_member(self, h: EdgeSubgraph) -> bool:
        return is_hamiltonian_path(h)


@dataclass(frozen=True)
class Diam3Trees(_Family):
    guarantee: ClassVar[str] = "diam3"
    budget_field: ClassVar[str] = "max_spanning_trees"
    members = staticmethod(_diam3_trees)
    complete_count = staticmethod(diam3_tree_count)
    chain = staticmethod(_diam3_chain)

    def __post_init__(self):
        if not self.host.is_complete:
            raise DomainError("diameter-3 tree family requires a complete host")

    def is_member(self, h: EdgeSubgraph) -> bool:
        return is_diam3_tree(h)


@dataclass(frozen=True)
class PerfectMatchings(_Family):
    """Enumeration-only kind for perfect matchings of a complete host.

    Not a FamilyKind: matchings are not connected under single edge
    replacements, so no exchange chain exists for them.
    """

    budget_field: ClassVar[str] = "max_matchings"
    members = staticmethod(_matchings)
    complete_count = staticmethod(perfect_matching_count)

    def __post_init__(self):
        if not self.host.is_complete or self.host.n % 2 != 0:
            raise DomainError("perfect matchings need a complete host of even order")

    def is_member(self, h: EdgeSubgraph) -> bool:
        return is_matching(h) and len(h.edges) == self.host.n // 2


FamilyKind = Union[SpanningTrees, HamiltonianPaths, Diam3Trees]


def member_of(kind: FamilyKind, h: EdgeSubgraph) -> bool:
    return (h.host is kind.host or h.host == kind.host) and kind.is_member(h)


# --- interpolation ------------------------------------------------------------


def interpolate_traced(
    kind: FamilyKind,
    h_lo: EdgeSubgraph,
    h_hi: EdgeSubgraph,
    collect: list | None = None,
) -> tuple[EdgeSubgraph, int]:
    """Walk the chain from h_lo to h_hi and stop at the first member of
    absolute weight at most 1.  Returns (member, replacements walked).

    Accepts the endpoints in either order; requires one non-positive and
    one non-negative weight.  Steps change the weight by 0 or +-2 and all
    weights share the parity of n-1, so the walk cannot skip past zero.
    """
    _require_member(kind, h_lo, "h_lo")
    _require_member(kind, h_hi, "h_hi")
    w_lo, w_hi = weight(h_lo), weight(h_hi)
    if w_lo > w_hi:
        h_lo, h_hi = h_hi, h_lo
        w_lo, w_hi = w_hi, w_lo
    if w_lo > 0:
        raise DomainError(f"no endpoint with weight <= 0: weights are {w_lo}, {w_hi}")
    if w_hi < 0:
        raise DomainError(f"no endpoint with weight >= 0: weights are {w_lo}, {w_hi}")
    replacements = 0
    for step in kind.chain(h_lo, h_hi):
        if collect is not None:
            collect.append(step)
        w = weight(step)
        if abs(w) <= 1:
            assert w == 0 if (kind.host.n - 1) % 2 == 0 else abs(w) == 1
            return step, replacements
        replacements += 1
    raise AssertionError("chain ended without crossing zero")  # unreachable


def interpolate(kind: FamilyKind, h_lo: EdgeSubgraph, h_hi: EdgeSubgraph) -> EdgeSubgraph:
    """First member of weight 0 (n-1 even) or +-1 (n-1 odd) along the chain."""
    member, _ = interpolate_traced(kind, h_lo, h_hi)
    return member
