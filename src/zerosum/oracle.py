"""Brute-force ground truth at desk scale.

Enumerates whole families (spanning trees, Hamiltonian paths,
diameter-3 trees, perfect matchings) and iterates entire colouring
spaces as sign bitmasks over the canonical edge order, confirming for
every colouring that meets a guarantee's hypothesis that (a) the
constructive finder succeeds and (b) an independently enumerated family
member of the promised weight exists.

Enumerations refuse instead of sampling when a budget would be
exceeded.  Colouring ranges shard cleanly: shards share nothing and
their reports merge associatively.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Iterator, Optional, Union

from . import finders
from .errors import BudgetExceeded, DomainError
from .families import Diam3Trees, FamilyKind, HamiltonianPaths, SpanningTrees
from .graphs import (
    ColoredGraph,
    EdgeSubgraph,
    binomial,
    canonical_edge,
    complete_edges,
    is_hamiltonian_path,
    is_matching,
    is_spanning_tree,
    tree_diameter,
)
from .thresholds import ex_forest, ex_star, spanning_path_threshold


@dataclass(frozen=True)
class EnumerationBudget:
    max_spanning_trees: int = 262_144
    max_colorings: int = 32_768
    max_matchings: int = 2_100_000
    max_paths: int = 1_900_000

    def __post_init__(self):
        for name in ("max_spanning_trees", "max_colorings", "max_matchings", "max_paths"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")


DEFAULT_BUDGET = EnumerationBudget()


@dataclass(frozen=True)
class PerfectMatchings:
    """Enumeration tag for perfect matchings of a complete host.

    Not a FamilyKind: matchings are not connected under single edge
    replacements, so no exchange chain exists for them.
    """

    host: ColoredGraph

    def __post_init__(self):
        if not self.host.is_complete or self.host.n % 2 != 0:
            raise DomainError("perfect matchings need a complete host of even order")


# --- closed-form counts --------------------------------------------------------


def spanning_tree_count(g: ColoredGraph) -> int:
    """Number of spanning trees: n^(n-2) for K_n, else an integer
    Laplacian-minor determinant (fraction-free elimination)."""
    n = g.n
    if n <= 1:
        return 1
    if g.is_complete:
        return n ** (n - 2)
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


# --- family enumeration ---------------------------------------------------------


def _prufer_edges(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in seq:
        edges.append(canonical_edge(leaf, x))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append(canonical_edge(leaf, n - 1))
    return edges


def _complete_tree_edge_sets(n: int) -> Iterator[frozenset]:
    if n <= 1:
        yield frozenset()
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield frozenset(_prufer_edges(seq, n))


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


def _hampath_edge_sets(n: int) -> Iterator[frozenset]:
    if n <= 1:
        yield frozenset()
        return
    for perm in itertools.permutations(range(n)):
        if perm[0] > perm[-1]:
            continue
        yield frozenset(canonical_edge(a, b) for a, b in zip(perm, perm[1:]))


def _diam3_edge_sets(n: int) -> Iterator[frozenset]:
    if n <= 2:
        yield from _complete_tree_edge_sets(n)
        return
    for c in range(n):
        yield frozenset(canonical_edge(c, x) for x in range(n) if x != c)
    for u in range(n):
        for v in range(u + 1, n):
            rest = [x for x in range(n) if x not in (u, v)]
            for pick in range(1, (1 << len(rest)) - 1):
                edges = {canonical_edge(u, v)}
                for i, x in enumerate(rest):
                    edges.add(canonical_edge(u, x) if (pick >> i) & 1 else canonical_edge(v, x))
                yield frozenset(edges)


def _matching_edge_sets(n: int) -> Iterator[frozenset]:
    verts = list(range(n))

    def rec(pool, acc):
        if not pool:
            yield frozenset(acc)
            return
        u = pool[0]
        for i in range(1, len(pool)):
            v = pool[i]
            yield from rec(pool[1:i] + pool[i + 1 :], acc + [(u, v)])

    yield from rec(verts, [])


def family_count(g: ColoredGraph, kind) -> int:
    if isinstance(kind, SpanningTrees):
        return spanning_tree_count(g)
    if isinstance(kind, HamiltonianPaths):
        return hamiltonian_path_count(g.n)
    if isinstance(kind, Diam3Trees):
        return diam3_tree_count(g.n)
    if isinstance(kind, PerfectMatchings):
        return perfect_matching_count(g.n)
    raise DomainError(f"unsupported enumeration kind {kind!r}")


def enumerate_family(
    g: ColoredGraph,
    kind: Union[FamilyKind, PerfectMatchings],
    budget: EnumerationBudget | None = None,
) -> Iterator[EdgeSubgraph]:
    """Stream every member of the family exactly once, validated.

    Refuses upfront (BudgetExceeded, stating the required budget) when
    the closed-form member count exceeds the applicable budget field.
    """
    budget = budget or DEFAULT_BUDGET
    if not (kind.host is g or kind.host == g):
        raise DomainError("enumeration kind is bound to a different host")
    count = family_count(g, kind)
    if isinstance(kind, SpanningTrees):
        limit, limit_name = budget.max_spanning_trees, "max_spanning_trees"
    elif isinstance(kind, HamiltonianPaths):
        limit, limit_name = budget.max_paths, "max_paths"
    elif isinstance(kind, Diam3Trees):
        limit, limit_name = budget.max_spanning_trees, "max_spanning_trees"
    else:
        limit, limit_name = budget.max_matchings, "max_matchings"
    if count > limit:
        raise BudgetExceeded(
            f"{count:,} members to enumerate; requires {limit_name} >= {count:,} "
            f"(budget is {limit:,})"
        )

    def generate():
        if isinstance(kind, SpanningTrees):
            sets = (
                _complete_tree_edge_sets(g.n) if g.is_complete else _generic_tree_edge_sets(g)
            )
            check = is_spanning_tree
        elif isinstance(kind, HamiltonianPaths):
            sets = _hampath_edge_sets(g.n)
            check = is_hamiltonian_path
        elif isinstance(kind, Diam3Trees):
            sets = _diam3_edge_sets(g.n)
            check = lambda h: is_spanning_tree(h) and tree_diameter(h) <= 3
        else:
            sets = _matching_edge_sets(g.n)
            check = lambda h: is_matching(h) and len(h.edges) == g.n // 2
        for edge_set in sets:
            member = EdgeSubgraph._unchecked(g, edge_set)
            if not check(member):
                raise AssertionError(f"enumerated member failed validation: {sorted(edge_set)}")
            yield member

    return generate()


# --- exhaustive theorem checks ---------------------------------------------------

THEOREMS = ("tree", "connected", "diam3", "path-census", "path-decomposition")


@dataclass
class TheoremReport:
    theorem: str
    n: int
    lo: int
    hi: int
    hypothesis_met: int = 0
    confirmed: int = 0
    counterexamples: list = field(default_factory=list)

    @property
    def colourings(self) -> int:
        return self.hi - self.lo

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def _graph_from_mask(n: int, edges: tuple, mask: int) -> ColoredGraph:
    sign = {}
    for i, e in enumerate(edges):
        sign[e] = -1 if (mask >> i) & 1 else 1
    return ColoredGraph._unchecked(n, edges, sign)


def _edge_bit_index(edges: tuple) -> dict:
    return {e: i for i, e in enumerate(edges)}


def _mask_of(edge_set, eidx) -> int:
    mask = 0
    for e in edge_set:
        mask |= 1 << eidx[e]
    return mask


def _family_masks(theorem: str, n: int, eidx) -> list[int]:
    if theorem == "tree":
        sets = _complete_tree_edge_sets(n)
    elif theorem == "diam3":
        sets = _diam3_edge_sets(n)
    else:
        sets = _hampath_edge_sets(n)
    return [_mask_of(s, eidx) for s in sets]


def _theorem_table(theorem: str, n: int) -> list:
    """What a theorem's scan looks up for every colouring: the masks of all
    family members, or for connected each vertex pair x, y with the mask
    of the other vertices and the masks of the x..y paths of length 4.
    Built once per exhaustive_theorem_check call."""
    eidx = _edge_bit_index(complete_edges(n))
    if theorem == "connected":
        full = (1 << n) - 1
        return [
            (x, y, full ^ (1 << x) ^ (1 << y), _short_path_masks(n, eidx, x, y)[1])
            for x in range(n)
            for y in range(x + 1, n)
        ]
    return _family_masks(theorem, n, eidx)


def _check_range(theorem: str, n: int, lo: int, hi: int, table: list) -> TheoremReport:
    if theorem == "connected":
        return _connected_core(n, lo, hi, table)
    return _family_core(theorem, n, lo, hi, table)


# a pool worker's copy of the parent's table, set by _init_worker; it is
# inherited through fork, so it is never pickled, and dies with the pool
_worker_table = None


def _init_worker(table: list) -> None:
    global _worker_table
    _worker_table = table


def _check_chunk(bounds) -> TheoremReport:
    theorem, n, lo, hi = bounds
    return _check_range(theorem, n, lo, hi, _worker_table)


def _family_core(theorem: str, n: int, lo: int, hi: int, masks: list) -> TheoremReport:
    edges = complete_edges(n)
    m = len(edges)
    mt = n - 1  # member edge count
    if mt % 2 == 0:
        t1 = t2 = mt // 2
    else:
        t1, t2 = (mt - 1) // 2, (mt + 1) // 2

    k = (n - 1) // 2
    if theorem == "tree":
        bound = ex_forest(n, k) if k >= 1 else 0
        finder = finders.find_zero_sum_spanning_tree

        def hyp(e_minus):
            return e_minus > bound and m - e_minus > bound

    elif theorem == "diam3":
        bound = ex_star(n, k) if k >= 1 else 0
        finder = finders.find_zero_sum_diam3_tree

        def hyp(e_minus):
            return e_minus > bound and m - e_minus > bound

    elif theorem == "path-census":
        bound = spanning_path_threshold(n)
        finder = finders.find_zero_sum_spanning_path

        def hyp(e_minus):
            return e_minus > bound and m - e_minus > bound

    elif theorem == "path-decomposition":
        lim2 = 3 * n if n % 2 == 0 else 3 * (n - 1)
        finder = finders.find_zero_sum_spanning_path

        def hyp(e_minus):
            return 2 * abs(m - 2 * e_minus) < lim2

    else:
        raise DomainError(f"unknown theorem {theorem!r}")

    report = TheoremReport(theorem, n, lo, hi)
    ces = report.counterexamples
    nmasks = len(masks)
    last = 0
    for mask in range(lo, hi):
        e_minus = mask.bit_count()
        if not hyp(e_minus):
            continue
        report.hypothesis_met += 1
        cnt = (masks[last] & mask).bit_count()
        if cnt != t1 and cnt != t2:
            for i in range(nmasks):
                cnt = (masks[i] & mask).bit_count()
                if cnt == t1 or cnt == t2:
                    last = i
                    break
            else:
                ces.append({"mask": mask, "reason": "oracle found no qualifying member"})
                continue
        rep = finder(_graph_from_mask(n, edges, mask))
        if rep.found and abs(rep.weight) <= 1:
            report.confirmed += 1
        else:
            ces.append({"mask": mask, "reason": f"finder failed: {rep.certificate}"})
    return report


def _short_path_masks(n: int, eidx, x: int, y: int):
    """Masks of all x..y paths of length 2 (target one -1 edge) and
    length 4 (target two -1 edges)."""
    others = [u for u in range(n) if u not in (x, y)]
    masks2 = [
        (1 << eidx[canonical_edge(x, u)]) | (1 << eidx[canonical_edge(u, y)]) for u in others
    ]
    masks4 = []
    for a in others:
        for c in others:
            if c <= a:
                continue
            for b in others:
                if b in (a, c):
                    continue
                mask = (
                    (1 << eidx[canonical_edge(x, a)])
                    | (1 << eidx[canonical_edge(a, b)])
                    | (1 << eidx[canonical_edge(b, c)])
                    | (1 << eidx[canonical_edge(c, y)])
                )
                masks4.append(mask)
    return masks2, masks4


def _connected_core(n: int, lo: int, hi: int, pair_masks: list) -> TheoremReport:
    edges = complete_edges(n)
    m = len(edges)
    need = (n + 2) // 2  # ceil((n+1)/2)
    report = TheoremReport("connected", n, lo, hi)
    ces = report.counterexamples
    for mask in range(lo, hi):
        e_minus = mask.bit_count()
        if e_minus < need or m - e_minus < need:
            continue
        report.hypothesis_met += 1
        # per vertex, its -1 neighbours: x-u-y has one -1 edge exactly when
        # u is a -1 neighbour of one of x and y but not of the other
        minus = [0] * n
        rest = mask
        while rest:
            low = rest & -rest
            u, v = edges[low.bit_length() - 1]
            minus[u] |= 1 << v
            minus[v] |= 1 << u
            rest ^= low
        g = _graph_from_mask(n, edges, mask)
        ok = True
        for x, y, others, masks4 in pair_masks:
            if not (minus[x] ^ minus[y]) & others and not any(
                (p & mask).bit_count() == 2 for p in masks4
            ):
                ces.append(
                    {"mask": mask, "pair": [x, y], "reason": "oracle found no short zero-sum path"}
                )
                ok = False
                break
            rep = finders.find_zero_sum_path_leq4(g, x, y)
            if not rep.found or rep.weight != 0 or len(rep.subgraph.edges) > 4:
                ces.append(
                    {"mask": mask, "pair": [x, y], "reason": f"finder failed: {rep.certificate}"}
                )
                ok = False
                break
        if ok:
            report.confirmed += 1
    return report


def exhaustive_theorem_check(
    theorem: str,
    n: int,
    budget: EnumerationBudget | None = None,
    jobs: int = 1,
    shard: Optional[tuple[int, int]] = None,
    emit=None,
) -> TheoremReport:
    """Iterate colouring bitmasks of K_n (a shard or the whole space),
    checking the named guarantee on every colouring meeting its
    hypothesis.  jobs > 1 splits the range across worker processes;
    shards merge associatively.  emit, when given, receives progress
    dictionaries as chunks complete.
    """
    if theorem not in THEOREMS:
        raise DomainError(f"unknown theorem {theorem!r}; choose from {THEOREMS}")
    if n < 2:
        raise DomainError("need n >= 2")
    budget = budget or DEFAULT_BUDGET
    space = 1 << binomial(n, 2)
    lo, hi = shard if shard is not None else (0, space)
    if not (0 <= lo <= hi <= space):
        raise DomainError(f"shard [{lo},{hi}) outside colouring space [0,{space})")
    if hi - lo > budget.max_colorings:
        raise BudgetExceeded(
            f"{hi - lo:,} colourings to check; requires max_colorings >= {hi - lo:,} "
            f"(budget is {budget.max_colorings:,})"
        )
    table = _theorem_table(theorem, n)
    jobs = max(1, jobs)
    if jobs == 1 or hi - lo < 8192:
        report = _check_range(theorem, n, lo, hi, table)
        if emit is not None:
            emit({"type": "progress", "done": hi - lo, "total": hi - lo})
        return report

    chunk_count = jobs * 4
    step = max(1, (hi - lo + chunk_count - 1) // chunk_count)
    chunks = [(a, min(a + step, hi)) for a in range(lo, hi, step)]
    merged = TheoremReport(theorem, n, lo, hi)
    done = 0
    pool = get_context("fork").Pool(processes=jobs, initializer=_init_worker, initargs=(table,))
    with pool:
        for part in pool.imap(_check_chunk, [(theorem, n, a, b) for a, b in chunks]):
            merged.hypothesis_met += part.hypothesis_met
            merged.confirmed += part.confirmed
            merged.counterexamples.extend(part.counterexamples)
            done += part.hi - part.lo
            if emit is not None:
                emit({"type": "progress", "done": done, "total": hi - lo})
    return merged
