"""Signed graphs and their subgraphs.

A ColoredGraph is a simple graph on vertices 0..n-1 whose every edge
carries a sign in {-1, +1}.  Edges are stored canonically as (min, max)
pairs; the canonical sorted edge order doubles as the bit order used by
the exhaustive enumeration elsewhere in the package.

All values here are immutable after construction and every operation is
a pure function, so concurrent readers need no coordination.  A
ColoredGraph computes its census and its -1 adjacency masks the first
time they are asked for and keeps them; both depend only on its signs,
so keeping them never changes its value.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

from .errors import DomainError, GraphFormatError


def canonical_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def complete_edges(n: int) -> tuple[tuple[int, int], ...]:
    """All edges of K_n in canonical sorted order."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


@lru_cache(maxsize=8)
def edge_offsets(n: int) -> tuple[int, ...]:
    """off[u] per vertex u of K_n, such that edge uv, u < v, is bit
    off[u] + v of a colouring mask, whose bit i is edge i of
    complete_edges(n); kept for the last few orders asked for."""
    return tuple(u * (2 * n - u - 3) // 2 - 1 for u in range(n))


def adjacency(n: int, edges) -> list[list[int]]:
    """adj[v] lists the neighbours of v, for v < n, through edges."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


class UnionFind:
    """Array-based disjoint sets with path halving; used for forest tests."""

    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; False if they were already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def greedy_forest(uf: UnionFind, edges, limit: int) -> list:
    """The edges, in the order given, that each merge two sets of uf (which
    they then merge), stopping once limit of them are taken."""
    chosen = []
    if limit > 0:
        union = uf.union
        for e in edges:
            if union(*e):
                chosen.append(e)
                if len(chosen) == limit:
                    break
    return chosen


@dataclass(frozen=True)
class StackedCertificate:
    """Construction record of a stacked (recursively triangulated) planar graph.

    base is the starting triangle; insertions lists, in order, each added
    vertex together with the face triangle it was joined to.  The
    certificate is replayed by host_class_check rather than trusting it.
    """

    base: tuple[int, int, int]
    insertions: tuple[tuple[int, tuple[int, int, int]], ...]


class ColoredGraph:
    """Simple graph plus a +-1 sign on every edge."""

    # _census and _minus_masks hold derived data, filled on first use
    __slots__ = ("n", "edges", "sign", "certificate", "_census", "_minus_masks")

    def __init__(self, n, signed_edges, certificate=None):
        if n < 0:
            raise DomainError(f"vertex count must be non-negative, got {n}")
        sign: dict[tuple[int, int], int] = {}
        for u, v, c in signed_edges:
            if u == v:
                raise DomainError(f"loop edge ({u},{v}) not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge ({u},{v}) out of range for n={n}")
            if c not in (-1, 1):
                raise DomainError(f"sign must be -1 or 1, got {c!r} on edge ({u},{v})")
            e = canonical_edge(u, v)
            if e in sign:
                raise DomainError(f"duplicate edge {e}")
            sign[e] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(sign)))
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "_census", None)
        object.__setattr__(self, "_minus_masks", None)

    def __setattr__(self, name, value):
        raise AttributeError("ColoredGraph is immutable")

    @classmethod
    def _unchecked(cls, n, edges, sign, certificate=None):
        """Construction fast path for internal callers with validated input."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "_census", None)
        object.__setattr__(self, "_minus_masks", None)
        return self

    @classmethod
    def complete(cls, n):
        edges = complete_edges(n)
        return cls._unchecked(n, edges, dict.fromkeys(edges, 1))

    @classmethod
    def complete_with_minus(cls, n, minus_edges):
        """K_n with the given edges coloured -1 and everything else +1."""
        minus = {canonical_edge(u, v) for u, v in minus_edges}
        edges = complete_edges(n)
        if not minus <= set(edges):
            raise DomainError(f"minus edges {sorted(minus - set(edges))} not in K_{n}")
        return cls._unchecked(n, edges, {e: (-1 if e in minus else 1) for e in edges})

    @property
    def is_complete(self) -> bool:
        return len(self.edges) == self.n * (self.n - 1) // 2

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def minus_masks(self) -> tuple[int, ...]:
        """Per vertex v, the bitmask whose bit u is set when uv is a -1 edge;
        computed on first use and kept."""
        masks = self._minus_masks
        if masks is None:
            rows = [0] * self.n
            for (u, v), c in self.sign.items():
                if c < 0:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
            masks = tuple(rows)
            object.__setattr__(self, "_minus_masks", masks)
        return masks

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        if len(self.edges) < self.n - 1:
            return False
        if self.is_complete:
            return True
        return len(greedy_forest(UnionFind(self.n), self.edges, self.n - 1)) == self.n - 1

    def flipped(self) -> "ColoredGraph":
        """Same graph with every sign negated."""
        return ColoredGraph._unchecked(
            self.n, self.edges, {e: -c for e, c in self.sign.items()}, self.certificate
        )

    def __eq__(self, other):
        if not isinstance(other, ColoredGraph):
            return NotImplemented
        return self.n == other.n and self.sign == other.sign

    def __hash__(self):
        return hash((self.n, self.edges, tuple(self.sign[e] for e in self.edges)))

    def __repr__(self):
        return f"ColoredGraph(n={self.n}, m={len(self.edges)})"


class EdgeSubgraph:
    """An edge subset of a host graph; its signed weight is always derived."""

    __slots__ = ("host", "edges")

    def __init__(self, host: ColoredGraph, edges):
        edges = frozenset(canonical_edge(u, v) for u, v in edges)
        for e in edges:
            if e not in host.sign:
                raise DomainError(f"edge {e} not present in host graph")
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "edges", edges)

    def __setattr__(self, name, value):
        raise AttributeError("EdgeSubgraph is immutable")

    @classmethod
    def _unchecked(cls, host, edges: frozenset):
        self = object.__new__(cls)
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "edges", edges)
        return self

    def adjacency(self) -> list[list[int]]:
        return adjacency(self.host.n, self.edges)

    def __eq__(self, other):
        if not isinstance(other, EdgeSubgraph):
            return NotImplemented
        return self.edges == other.edges and (self.host is other.host or self.host == other.host)

    def __hash__(self):
        return hash(self.edges)

    def __repr__(self):
        return f"EdgeSubgraph({sorted(self.edges)})"


@dataclass(frozen=True)
class ColorCensus:
    e_minus: int
    e_plus: int
    total_weight: int

    @property
    def minimum(self) -> int:
        return min(self.e_minus, self.e_plus)


def census(g: ColoredGraph) -> ColorCensus:
    """Count the -1 and +1 edges of g; total_weight = e_plus - e_minus.
    Computed on the first call for g and kept by it."""
    cs = g._census
    if cs is None:
        e_minus = sum(1 for c in g.sign.values() if c < 0)
        e_plus = len(g.sign) - e_minus
        cs = ColorCensus(e_minus, e_plus, e_plus - e_minus)
        object.__setattr__(g, "_census", cs)
    return cs


def weight(h: EdgeSubgraph) -> int:
    """Signed weight: the sum of host signs over the subgraph's edges."""
    sign = h.host.sign
    return sum(sign[e] for e in h.edges)


def is_forest(h: EdgeSubgraph) -> bool:
    uf = UnionFind(h.host.n)
    return all(uf.union(u, v) for u, v in h.edges)


def is_spanning_tree(h: EdgeSubgraph) -> bool:
    return len(h.edges) == h.host.n - 1 and is_forest(h)


def is_linear_forest(h: EdgeSubgraph) -> bool:
    """True when the edges form vertex-disjoint paths: no vertex of degree
    above 2 and no cycle, decided in one pass."""
    n = h.host.n
    deg = [0] * n
    uf = UnionFind(n)
    for u, v in h.edges:
        deg[u] += 1
        deg[v] += 1
        if deg[u] > 2 or deg[v] > 2 or not uf.union(u, v):
            return False
    return True


def is_hamiltonian_path(h: EdgeSubgraph) -> bool:
    """True when the edges form a single path through every host vertex:
    a linear forest with n-1 edges has one component."""
    return len(h.edges) == h.host.n - 1 and is_linear_forest(h)


def is_diam3_tree(h: EdgeSubgraph) -> bool:
    """True for a spanning tree of diameter at most 3, from degrees alone.

    Such a tree has at most two vertices of degree >= 2 (two are then
    adjacent: a double star).  With n-1 edges that is also enough, since
    a cycle needs three vertices of degree >= 2, and n-1 acyclic edges
    span the host.
    """
    n = h.host.n
    if len(h.edges) != n - 1:
        return False
    deg = [0] * n
    for u, v in h.edges:
        deg[u] += 1
        deg[v] += 1
    return n - deg.count(1) - deg.count(0) <= 2


def is_matching(h: EdgeSubgraph) -> bool:
    seen = set()
    for u, v in h.edges:
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def _bfs_farthest(adj, start):
    dist = {start: 0}
    queue = deque([start])
    far, far_d = start, 0
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                if dist[y] > far_d:
                    far, far_d = y, dist[y]
                queue.append(y)
    return far, far_d


def tree_diameter(h: EdgeSubgraph) -> int:
    """Edge count of a longest path of a spanning tree."""
    if not is_spanning_tree(h):
        raise DomainError("tree_diameter requires a spanning tree")
    if h.host.n <= 1:
        return 0
    adj = h.adjacency()
    far, _ = _bfs_farthest(adj, 0)
    _, d = _bfs_farthest(adj, far)
    return d


# --- host classes -----------------------------------------------------------
#
# A host class's name is its key in the guarantee table and its CLI choice.


@dataclass(frozen=True)
class Complete:
    name: ClassVar[str] = "complete"

    def contains(self, g: ColoredGraph) -> bool:
        return g.is_complete


@dataclass(frozen=True)
class TriangleFree:
    name: ClassVar[str] = "triangle-free"

    def contains(self, g: ColoredGraph) -> bool:
        adj = g.adjacency()
        return all(not (adj[u] & adj[v]) for u, v in g.edges)


@dataclass(frozen=True)
class DTree:
    d: int
    name: ClassVar[str] = "dtree"

    def contains(self, g: ColoredGraph) -> bool:
        """Recognize graphs built from K_{d+1} by repeatedly attaching a
        vertex to a d-clique: peel simplicial degree-d vertices down to
        K_{d+1}."""
        d = self.d
        if d < 1:
            raise DomainError(f"d must be >= 1, got {d}")
        n = g.n
        if n < d + 1:
            return False
        if len(g.edges) != n * d - (d + 1) * d // 2:
            return False
        adj = g.adjacency()
        alive = set(range(n))
        while len(alive) > d + 1:
            victim = None
            for v in sorted(alive):
                nb = adj[v]
                if len(nb) != d:
                    continue
                if all(b in adj[a] for a in nb for b in nb if a < b):
                    victim = v
                    break
            if victim is None:
                return False
            for w in adj[victim]:
                adj[w].discard(victim)
            adj[victim] = set()
            alive.discard(victim)
        return all(len(adj[v]) == d for v in alive)


@dataclass(frozen=True)
class MaximalPlanarStacked:
    name: ClassVar[str] = "planar"

    def contains(self, g: ColoredGraph) -> bool:
        """Certificate replay.  Graphs without a construction certificate
        are rejected (never a wrong True); the bare triangle is accepted
        directly."""
        n = g.n
        if n == 3:
            return len(g.edges) == 3
        cert = g.certificate
        if not isinstance(cert, StackedCertificate):
            return False
        a, b, c = cert.base
        if len({a, b, c}) != 3 or not all(0 <= x < n for x in (a, b, c)):
            return False
        if len(cert.insertions) != n - 3:
            return False
        placed = {a, b, c}
        edges = {canonical_edge(a, b), canonical_edge(a, c), canonical_edge(b, c)}
        # the starting triangle bounds two plane faces
        faces = Counter({frozenset((a, b, c)): 2})
        for v, (fa, fb, fc) in cert.insertions:
            face = frozenset((fa, fb, fc))
            if v in placed or not (0 <= v < n) or faces[face] <= 0:
                return False
            faces[face] -= 1
            for x in (fa, fb, fc):
                edges.add(canonical_edge(v, x))
            faces[frozenset((v, fa, fb))] += 1
            faces[frozenset((v, fb, fc))] += 1
            faces[frozenset((v, fa, fc))] += 1
            placed.add(v)
        return placed == set(range(n)) and edges == set(g.edges)


COMPLETE = Complete()
TRIANGLE_FREE = TriangleFree()
MAXIMAL_PLANAR_STACKED = MaximalPlanarStacked()


def host_class_check(g: ColoredGraph, host_class) -> bool:
    """Membership test for the supported host classes: host_class.contains(g)."""
    contains = getattr(host_class, "contains", None)
    if contains is None:
        raise DomainError(f"unsupported host class {host_class!r}")
    return contains(g)


# --- edge-list file format ---------------------------------------------------
#
# First line `n m`, then m lines `u v c` with c in {-1, 1}, whitespace
# separated, LF endings.  Lines starting with `#` are comments; the reader
# additionally understands `# stacked-base:`/`# stacked-insert:` comments so
# that stacked-planar certificates survive a round trip through a pipe.

# certificate comment -> (how many integers follow it, what they are)
_CERTIFICATE_COMMENTS = {
    "stacked-base": (3, "three vertices"),
    "stacked-insert": (4, "vertex and face"),
}


def read_edge_list(text: str) -> ColoredGraph:
    """Parse the edge-list format; every error is a GraphFormatError naming
    its line, so the graph is built without checking the edges again."""
    header = None
    sign: dict[tuple[int, int], int] = {}
    cert_base = None
    cert_inserts = []
    declared_m = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if raw.startswith("#"):
            name, colon, rest = raw[1:].strip().partition(":")
            if colon and name in _CERTIFICATE_COMMENTS:
                count, needs = _CERTIFICATE_COMMENTS[name]
                vals = rest.split()
                if len(vals) != count:
                    raise GraphFormatError(f"{name} needs {needs}", line_no)
                try:
                    vals = tuple(int(x) for x in vals)
                except ValueError:
                    raise GraphFormatError(f"{name} values must be integers", line_no) from None
                if name == "stacked-base":
                    cert_base = vals
                else:
                    cert_inserts.append((vals[0], vals[1:]))
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise GraphFormatError("expected header `n m`", line_no)
            try:
                n, declared_m = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError("header values must be integers", line_no) from None
            if n < 0 or declared_m < 0:
                raise GraphFormatError("header values must be non-negative", line_no)
            header = (n, declared_m)
            continue
        if len(parts) != 3:
            raise GraphFormatError("expected edge line `u v c`", line_no)
        try:
            u, v, c = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise GraphFormatError("edge values must be integers", line_no) from None
        if c == 0:
            raise GraphFormatError("sign 0 is not allowed; signs are -1 or 1", line_no)
        if c not in (-1, 1):
            raise GraphFormatError(f"sign must be -1 or 1, got {c}", line_no)
        if u == v:
            raise GraphFormatError(f"loop edge ({u},{v})", line_no)
        if not (0 <= u < header[0] and 0 <= v < header[0]):
            raise GraphFormatError(f"vertex out of range in edge ({u},{v})", line_no)
        e = canonical_edge(u, v)
        if e in sign:
            raise GraphFormatError(f"duplicate edge {e}", line_no)
        sign[e] = c
    if header is None:
        raise GraphFormatError("empty input: missing header line", 1)
    if len(sign) != declared_m:
        raise GraphFormatError(
            f"header declares {declared_m} edges but {len(sign)} were given", 1
        )
    certificate = None
    if cert_base is not None:
        certificate = StackedCertificate(cert_base, tuple(cert_inserts))
    return ColoredGraph._unchecked(header[0], tuple(sorted(sign)), sign, certificate)


def write_edge_list(g: ColoredGraph, header_comments=()) -> str:
    lines = [f"# {comment}" for comment in header_comments]
    if isinstance(g.certificate, StackedCertificate):
        cert = g.certificate
        lines.append("# stacked-base: {} {} {}".format(*cert.base))
        for v, (fa, fb, fc) in cert.insertions:
            lines.append(f"# stacked-insert: {v} {fa} {fb} {fc}")
    lines.append(f"{g.n} {len(g.edges)}")
    for u, v in g.edges:
        lines.append(f"{u} {v} {g.sign[(u, v)]}")
    return "\n".join(lines) + "\n"


def binomial(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)
