"""Deterministic generators for extremal graphs and sharp colourings.

Each construction realizes one tightness witness: a colouring (or a bare
Turan witness, emitted with all edges -1 since that is the colour class
it models) sitting exactly at a guarantee's threshold while the promised
subgraph does not exist.  verify_extremal replays the claimed
non-existence property exhaustively and never guesses: instances too
large for the applicable budget are refused with BudgetExceeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar

from . import finders, oracle
from .errors import DomainError
from .families import HamiltonianPaths, PerfectMatchings, SpanningTrees, spanning_tree_count
from .graphs import (
    ColoredGraph,
    StackedCertificate,
    binomial,
    canonical_edge,
    census,
    complete_edges,
    weight,
)
from .oracle import EnumerationBudget, enumerate_family
from .thresholds import (
    ex_forest,
    ex_star,
    forest_bound_degenerate,
    forest_bound_planar,
    linear_forest_witness_sizes,
    spanning_path_threshold,
)


# --- building blocks -----------------------------------------------------------


def _clique_edges(vertices) -> set:
    vs = sorted(vertices)
    return {(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]}


def _find_linear_forest(
    g: ColoredGraph, sign: int, k: int, budget: EnumerationBudget | None = None
):
    """Exhaustive backtracking search for a k-edge monochromatic linear
    forest; None when the colour class has none.

    Refuses with BudgetExceeded once the search has visited more than the
    budget's max_paths nodes (partial forests), rather than run on.
    """
    budget = budget or oracle.DEFAULT_BUDGET
    limit = budget.max_paths
    if k == 0:
        return frozenset()
    pool = [e for e in g.edges if g.sign[e] == sign]
    if len(pool) < k:
        return None
    deg = [0] * g.n
    comp = list(range(g.n))  # union-find without compression, undoable
    chosen: list[tuple[int, int]] = []
    nodes = 0

    def find(x):
        while comp[x] != x:
            x = comp[x]
        return x

    def rec(start):
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            budget.require("max_paths", nodes, f"linear-forest search nodes on {g.n} vertices")
        if len(chosen) == k:
            return True
        if len(pool) - start < k - len(chosen):
            return False
        for i in range(start, len(pool)):
            u, v = pool[i]
            if deg[u] >= 2 or deg[v] >= 2:
                continue
            ru, rv = find(u), find(v)
            if ru == rv:
                continue
            comp[rv] = ru
            deg[u] += 1
            deg[v] += 1
            chosen.append((u, v))
            if rec(i + 1):
                return True
            comp[rv] = rv
            deg[u] -= 1
            deg[v] -= 1
            chosen.pop()
        return False

    return frozenset(chosen) if rec(0) else None


def _linear_forest_witness_edges(n: int, k: int, which: str) -> set:
    if not 1 <= k <= n - 1:
        raise DomainError(f"need 1 <= k <= n-1, got n={n}, k={k}")
    if which == "clique":
        return _clique_edges(range(k))
    if which == "join":
        s = (k - 1) // 2
        c = (k - 1) % 2
        edges = _clique_edges(range(s))
        edges |= {(u, v) for u in range(s) for v in range(s, n)}
        if c:
            edges.add((s, s + 1))
        return edges
    raise DomainError(f"unknown variant {which!r}; use 'clique' or 'join'")


def _circulant_star_free_edges(n: int, k: int) -> set:
    """Near-regular graph of maximum degree k-1 with exactly
    floor((k-1)n/2) edges."""
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got n={n}, k={k}")
    target = (k - 1) * n // 2
    t = (k - 1) // 2
    edges = {canonical_edge(i, (i + d) % n) for d in range(1, t + 1) for i in range(n)}
    if (k - 1) % 2 == 1:
        if n % 2 == 0:
            edges |= {canonical_edge(i, i + n // 2) for i in range(n // 2)}
        else:
            # a difference class coprime to n is one n-cycle; alternate
            # edges of it form a near-perfect matching; (n-1)/2 is such a
            # class and exceeds t, since k <= n
            d = next(d for d in range(t + 1, (n - 1) // 2 + 1) if math.gcd(d, n) == 1)
            cyc = [(j * d) % n for j in range(n)]
            edges |= {canonical_edge(cyc[i], cyc[i + 1]) for i in range(0, n - 1, 2)}
    if len(edges) != target:
        raise DomainError(f"cannot realize {target} edges with max degree {k - 1} on {n} vertices")
    return edges


def _stacked_planar_host(n: int) -> tuple[set, StackedCertificate]:
    """Stacked triangulation grown by always filling the lexicographically
    smallest available face; every insertion touches only earlier vertices,
    so each vertex prefix induces the stacked triangulation of its size."""
    if n < 3:
        raise DomainError(f"need n >= 3, got {n}")
    faces = {(0, 1, 2): 2}
    edges = {(0, 1), (0, 2), (1, 2)}
    inserts = []
    for v in range(3, n):
        face = min(f for f, cnt in faces.items() if cnt > 0)
        faces[face] -= 1
        a, b, c = face
        edges |= {canonical_edge(v, a), canonical_edge(v, b), canonical_edge(v, c)}
        for tri in ((v, a, b), (v, b, c), (v, a, c)):
            key = tuple(sorted(tri))
            faces[key] = faces.get(key, 0) + 1
        inserts.append((v, face))
    return edges, StackedCertificate((0, 1, 2), tuple(inserts))


def _lowest_dtree_edges(n: int, d: int) -> set:
    """d-tree grown by attaching every new vertex to {0..d-1}."""
    if d < 1 or n < d + 1:
        raise DomainError(f"need n >= d+1 >= 2, got n={n}, d={d}")
    edges = _clique_edges(range(d + 1))
    for v in range(d + 1, n):
        edges |= {(j, v) for j in range(d)}
    return edges


def _all_minus(n: int, edges) -> ColoredGraph:
    return ColoredGraph(n, [(u, v, -1) for u, v in sorted(edges)])


def _balanced_split(n: int):
    """x > n/2 with C(x,2) = x(n-x) + C(n-x,2), if one exists."""
    for x in range(n // 2 + 1, n):
        y = n - x
        if binomial(x, 2) == x * y + binomial(y, 2):
            return x, y
    return None


# --- verification helpers --------------------------------------------------------


def _no_light_member(kind, budget) -> bool:
    return all(abs(weight(member)) > 1 for member in enumerate_family(kind, budget))


def _tree_weight_floor_certified(g: ColoredGraph, k: int, budget) -> bool:
    """No spanning tree of g has |weight| <= 1, shown by the minus class
    containing no k-edge forest; cross-checked by full enumeration when
    the tree count fits the budget."""
    m = g.n - 1
    if len(finders.extract_monochromatic_forest(g, -1, k).edges) >= k:
        return False
    # any spanning tree carries at most k-1 minus edges
    floor = m - 2 * (k - 1)
    if floor <= 1:
        return False
    if spanning_tree_count(g) <= budget.max_spanning_trees:
        if not _no_light_member(SpanningTrees(g), budget):
            return False
    return True


# --- constructions ----------------------------------------------------------------
#
# Each construction is one frozen dataclass: its fields are its CLI
# parameters in order, name is its CLI name, build() returns the graph and
# verify(g, budget) replays the claimed non-existence property on it.


@dataclass(frozen=True)
class TuranLinearForest:
    n: int
    k: int
    which: str  # "clique" (K_k plus isolated vertices) or "join" (dominating set)
    name: ClassVar[str] = "turan-linear-forest"

    def build(self) -> ColoredGraph:
        return _all_minus(self.n, _linear_forest_witness_edges(self.n, self.k, self.which))

    def verify(self, g: ColoredGraph, budget: EnumerationBudget) -> bool:
        expected = linear_forest_witness_sizes(self.n, self.k)[self.which]
        return len(g.edges) == expected and _find_linear_forest(g, -1, self.k, budget) is None


@dataclass(frozen=True)
class ForestExtremal:
    n: int
    k: int
    name: ClassVar[str] = "forest"

    def build(self) -> ColoredGraph:
        if not 1 <= self.k <= self.n:
            raise DomainError(f"need 1 <= k <= n, got n={self.n}, k={self.k}")
        return _all_minus(self.n, _clique_edges(range(self.k)))

    def verify(self, g: ColoredGraph, budget: EnumerationBudget) -> bool:
        k = self.k
        if len(g.edges) != binomial(k, 2):
            return False
        return len(finders.extract_monochromatic_forest(g, -1, k).edges) < k


@dataclass(frozen=True)
class StarExtremalCirculant:
    n: int
    k: int
    name: ClassVar[str] = "star-circulant"

    def build(self) -> ColoredGraph:
        return _all_minus(self.n, _circulant_star_free_edges(self.n, self.k))

    def verify(self, g: ColoredGraph, budget: EnumerationBudget) -> bool:
        deg = [0] * g.n
        for u, v in g.edges:
            deg[u] += 1
            deg[v] += 1
        return len(g.edges) == ex_star(self.n, self.k) and max(deg, default=0) <= self.k - 1


@dataclass(frozen=True)
class PathSharpness:
    n: int
    name: ClassVar[str] = "path-sharpness"

    def build(self) -> ColoredGraph:
        n = self.n
        if n < 3:
            raise DomainError(f"need n >= 3, got {n}")
        k = (n - 1) // 2
        val_clique = binomial(k, 2)
        val_join = len(_linear_forest_witness_edges(n, k, "join"))
        which = "clique" if val_clique >= val_join else "join"
        g = ColoredGraph.complete_with_minus(n, _linear_forest_witness_edges(n, k, which))
        assert census(g).e_minus == spanning_path_threshold(n)
        return g

    def verify(self, g: ColoredGraph, budget: EnumerationBudget) -> bool:
        return _no_light_member(HamiltonianPaths(g), budget)


@dataclass(frozen=True)
class TreeSharpness:
    n: int
    name: ClassVar[str] = "tree-sharpness"

    def build(self) -> ColoredGraph:
        n = self.n
        if n < 3:
            raise DomainError(f"need n >= 3, got {n}")
        k = (n - 1) // 2
        g = ColoredGraph.complete_with_minus(n, _clique_edges(range(k)))
        assert census(g).e_minus == ex_forest(n, k)
        return g

    def verify(self, g: ColoredGraph, budget: EnumerationBudget) -> bool:
        return _no_light_member(SpanningTrees(g), budget)


@dataclass(frozen=True)
class BipartiteSharpness:
    n: int  # bipartite host on 2n+1 vertices; threshold parameter n
    name: ClassVar[str] = "bipartite-sharpness"

    def build(self) -> ColoredGraph:
        np = self.n
        if np < 2:
            raise DomainError(f"need n >= 2, got {np}")
        # connected bipartite host of odd order 2n+1 (parity kills the
        # almost zero-sum escape) holding a balanced complete bipartite
        # core coloured -1
        x_side = list(range(np))
        y_side = list(range(np, 2 * np + 1))
        minus = {
            canonical_edge(u, v) for u in x_side[: np // 2] for v in y_side[: (np + 1) // 2]
        }
        rows = []
        for u in x_side:
            for v in y_side:
                e = canonical_edge(u, v)
                rows.append((e[0], e[1], -1 if e in minus else 1))
        g = ColoredGraph(2 * np + 1, rows)
        assert census(g).e_minus == np * np // 4
        return g

    def verify(self, g: ColoredGraph, budget: EnumerationBudget) -> bool:
        return _tree_weight_floor_certified(g, self.n, budget)


class _SparseHostSharpness:
    """Shared rule of the d-tree and stacked-planar tree witnesses: -1 on
    the host edges inside 0..k-1 with k = (n-1)//2, +1 on the rest, so the
    -1 class holds no k-edge forest."""

    def _colour(self, host_edges, certificate=None) -> ColoredGraph:
        k = (self.n - 1) // 2
        rows = [(u, v, -1 if v < k else 1) for u, v in sorted(host_edges)]
        return ColoredGraph(self.n, rows, certificate=certificate)

    def verify(self, g: ColoredGraph, budget: EnumerationBudget) -> bool:
        return _tree_weight_floor_certified(g, (self.n - 1) // 2, budget)


@dataclass(frozen=True)
class DTreeSharpness(_SparseHostSharpness):
    n: int
    d: int
    name: ClassVar[str] = "dtree-sharpness"

    def build(self) -> ColoredGraph:
        n, d = self.n, self.d
        if n < 2 * d + 2:
            raise DomainError(f"need n >= 2d+2 = {2 * d + 2}, got n={n}")
        g = self._colour(_lowest_dtree_edges(n, d))
        assert census(g).e_minus == forest_bound_degenerate((n - 1) // 2, d)
        return g


@dataclass(frozen=True)
class PlanarSharpness(_SparseHostSharpness):
    n: int
    name: ClassVar[str] = "planar-sharpness"

    def build(self) -> ColoredGraph:
        n = self.n
        if n < 7:
            raise DomainError(f"need n >= 7, got {n}")
        k = (n - 1) // 2
        g = self._colour(*_stacked_planar_host(n))
        assert census(g).e_minus == 3 * k - 6 == forest_bound_planar(k) - 1
        return g


class _ConnectivityWitness:
    """Shared check of the two connectivity witnesses: vertices 0 and 1,
    joined by a -1 edge, have no zero-sum path of length 2 or 4."""

    def verify(self, g: ColoredGraph, budget: EnumerationBudget) -> bool:
        oracle._require_path_masks(g.n, 1, budget)
        if finders.find_zero_sum_path_leq4(g, 0, 1).found:
            return False
        # independent scan over the same path space
        bit = oracle._edge_bits(g.n)
        mask = sum(bit[u][v] for (u, v), c in g.sign.items() if c == -1)
        masks2, masks4 = oracle._short_path_masks(g.n, bit, 0, 1)
        return not oracle._has_short_path(mask, masks2, masks4)


@dataclass(frozen=True)
class ConnectivitySmall(_ConnectivityWitness):
    n: int  # 4 or 5
    name: ClassVar[str] = "connectivity-small"

    def build(self) -> ColoredGraph:
        if self.n not in (4, 5):
            raise DomainError(f"small connectivity witness needs n in {{4,5}}, got {self.n}")
        g = ColoredGraph.complete_with_minus(self.n, [(0, 1), (0, 2), (1, 2)])
        assert census(g).e_minus == 3 == (self.n + 2) // 2
        return g


@dataclass(frozen=True)
class ConnectivityMatching(_ConnectivityWitness):
    n: int  # >= 6
    name: ClassVar[str] = "connectivity-matching"

    def build(self) -> ColoredGraph:
        n = self.n
        if n < 6:
            raise DomainError(f"matching connectivity witness needs n >= 6, got {n}")
        g = ColoredGraph.complete_with_minus(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])
        assert census(g).e_minus == n // 2 == (n + 2) // 2 - 1
        return g


@dataclass(frozen=True)
class NoLength2:
    n: int  # >= 7
    name: ClassVar[str] = "no-length2"

    def build(self) -> ColoredGraph:
        n = self.n
        if n < 7:
            raise DomainError(f"need n >= 7, got {n}")
        anchors = {canonical_edge(0, u) for u in range(2, n)}
        anchors |= {canonical_edge(1, u) for u in range(2, n)}
        extra = binomial(n, 2) // 2 - len(anchors)
        minus = set(anchors)
        for e in complete_edges(n):
            if extra == 0:
                break
            if e not in minus:
                minus.add(e)
                extra -= 1
        g = ColoredGraph.complete_with_minus(n, minus)
        cs = census(g)
        assert abs(cs.e_minus - cs.e_plus) <= 1
        return g

    def verify(self, g: ColoredGraph, budget: EnumerationBudget) -> bool:
        cs = census(g)
        if abs(cs.e_minus - cs.e_plus) > 1:
            return False
        sign = g.sign
        return all(
            sign[canonical_edge(0, u)] + sign[canonical_edge(u, 1)] != 0
            for u in range(2, g.n)
        )


@dataclass(frozen=True)
class NoZeroSumStar:
    n: int
    name: ClassVar[str] = "no-zero-sum-star"

    def build(self) -> ColoredGraph:
        split = _balanced_split(self.n)
        if split is None:
            raise DomainError(f"no balanced split exists for n={self.n}")
        x, _ = split
        g = ColoredGraph.complete_with_minus(self.n, _clique_edges(range(x)))
        cs = census(g)
        assert cs.e_minus == cs.e_plus
        return g

    def verify(self, g: ColoredGraph, budget: EnumerationBudget) -> bool:
        cs = census(g)
        if cs.e_minus != cs.e_plus:
            return False
        for centre in range(g.n):
            star_weight = sum(
                g.sign[canonical_edge(centre, v)] for v in range(g.n) if v != centre
            )
            if abs(star_weight) <= 1:
                return False
        return True


@dataclass(frozen=True)
class MatchingK4n:
    t: int  # host is K_{4t^2}
    name: ClassVar[str] = "matching-k4n"

    def _census(self) -> tuple[int, int]:
        """(e(+1), e(-1)) of the witness."""
        t = self.t
        n = t * t
        return 4 * n * n - t * t + 2 * t - 1, 4 * n * n - n - 2 * t + 1

    def build(self) -> ColoredGraph:
        t = self.t
        if t < 1:
            raise DomainError(f"need t >= 1, got {t}")
        size_a = 2 * t * t + t - 1
        total = 4 * t * t
        minus = _clique_edges(range(size_a)) | _clique_edges(range(size_a, total))
        g = ColoredGraph.complete_with_minus(total, minus)
        cs = census(g)
        assert (cs.e_plus, cs.e_minus) == self._census()
        return g

    def verify(self, g: ColoredGraph, budget: EnumerationBudget) -> bool:
        cs = census(g)
        if (cs.e_plus, cs.e_minus) != self._census():
            return False
        matchings = enumerate_family(PerfectMatchings(g), budget)
        return all(weight(matching) != 0 for matching in matchings)


CONSTRUCTIONS = {
    cls.name: cls
    for cls in (
        TuranLinearForest,
        ForestExtremal,
        StarExtremalCirculant,
        PathSharpness,
        TreeSharpness,
        BipartiteSharpness,
        DTreeSharpness,
        PlanarSharpness,
        ConnectivitySmall,
        ConnectivityMatching,
        NoLength2,
        NoZeroSumStar,
        MatchingK4n,
    )
}


def make_extremal_graph(cid) -> ColoredGraph:
    return cid.build()


def verify_extremal(cid, budget: EnumerationBudget | None = None) -> bool:
    """True iff the construction's claimed non-existence property holds.

    Raises BudgetExceeded instead of guessing when the instance is too
    large to verify exhaustively.
    """
    return cid.verify(cid.build(), budget or oracle.DEFAULT_BUDGET)


# --- CLI plumbing ----------------------------------------------------------------


def construction_from_args(name: str, params: list[str]):
    if name not in CONSTRUCTIONS:
        raise DomainError(f"unknown construction {name!r}; choose from {sorted(CONSTRUCTIONS)}")
    cls = CONSTRUCTIONS[name]
    names = tuple(f.name for f in fields(cls))
    if len(params) != len(names):
        raise DomainError(f"construction {name} takes parameters {names}")
    args = []
    for f, value in zip(fields(cls), params):
        try:
            # the field's declared type parses its parameter text
            args.append({"int": int, "str": str}[f.type](value))
        except ValueError:
            raise DomainError(f"parameter {f.name} must be an integer") from None
    return cls(*args)


def construction_header(cid) -> str:
    params = " ".join(str(getattr(cid, f.name)) for f in fields(cid))
    return f"construction: {cid.name} {params}"
