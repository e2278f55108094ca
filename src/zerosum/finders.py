"""Constructive finders for zero-sum and almost zero-sum subgraphs.

Each finder checks the census hypothesis of the matching guarantee.  The
spanning-tree and spanning-path finders then extract monochromatic seed
subgraphs, complete them to family members whose weights straddle zero,
and hand the pair to the interpolation walk; the diameter-3 finder picks
a light double star by arithmetic.  Every successful report is
re-validated against the host signs before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .decompositions import hamilton_cycle_decomposition, hamilton_path_decomposition
from .errors import BudgetExceeded, DomainError
from .families import (
    DEFAULT_BUDGET,
    EnumerationBudget,
    HamiltonianPaths,
    SpanningTrees,
    interpolate_traced,
)
from .graphs import (
    COMPLETE,
    ColoredGraph,
    EdgeSubgraph,
    UnionFind,
    canonical_edge,
    census,
    greedy_forest,
    host_class_check,
    is_diam3_tree,
    is_hamiltonian_path,
    is_matching,
    is_spanning_tree,
    tree_diameter,  # noqa: F401  (bench/spans.py wraps the validators by their names here)
    weight,
)
from .thresholds import GUARANTEES


@dataclass(frozen=True)
class FindReport:
    found: bool
    subgraph: Optional[EdgeSubgraph]
    weight: int
    certificate: str
    chain_replacements: int = 0


def extract_monochromatic_forest(g: ColoredGraph, sign: int, k: int) -> EdgeSubgraph:
    """Greedy maximal forest inside one colour class, truncated to k edges.

    A maximal forest of the class is built by the cycle-avoiding pass over
    canonical edge order; the first k edges of it are returned.  When the
    class is too sparse the best (shorter) forest comes back and callers
    treat it as the guarantee's hypothesis not being met.
    """
    if sign not in (-1, 1):
        raise DomainError(f"sign must be -1 or 1, got {sign}")
    if k < 0:
        raise DomainError(f"forest size must be non-negative, got {k}")
    chosen = greedy_forest(UnionFind(g.n), (e for e in g.edges if g.sign[e] == sign), k)
    return EdgeSubgraph._unchecked(g, frozenset(chosen))


def _tree_seed(g: ColoredGraph, sign: int, k: int) -> Optional[EdgeSubgraph]:
    """A spanning tree through the k-edge greedy forest of one colour class
    (see extract_monochromatic_forest), completed with host edges in
    canonical order on the same union-find; None when the class has no
    k-edge forest."""
    uf = UnionFind(g.n)
    tree = greedy_forest(uf, (e for e in g.edges if g.sign[e] == sign), k)
    if len(tree) < k:
        return None
    tree += greedy_forest(uf, g.edges, g.n - 1 - k)
    return EdgeSubgraph._unchecked(g, frozenset(tree))


def _validated(sub: EdgeSubgraph, predicate, certificate: str, replacements: int) -> FindReport:
    w = weight(sub)
    if not predicate(sub):
        raise AssertionError(f"finder produced an invalid subgraph for: {certificate}")
    return FindReport(True, sub, w, certificate, replacements)


def _settle(kind, weights, seed, predicate, direct_text, walked_text) -> Optional[FindReport]:
    """Report from seed members of the given weights, seed(i) building the
    i-th: the first seed with |w| <= 1 directly, otherwise the member the
    chain walk from the lightest seed to the heaviest stops at.  None when
    the seed weights do not straddle zero."""
    for i, w in enumerate(weights):
        if abs(w) <= 1:
            return _validated(seed(i), predicate, direct_text, 0)
    lo = min(range(len(weights)), key=weights.__getitem__)
    hi = max(range(len(weights)), key=weights.__getitem__)
    if not weights[lo] < 0 < weights[hi]:
        return None
    member, reps = interpolate_traced(kind, seed(lo), seed(hi))
    return _validated(member, predicate, walked_text, reps)


def find_zero_sum_spanning_tree(g: ColoredGraph, host_class=COMPLETE) -> FindReport:
    """Spanning tree with |weight| <= 1, certified by the census threshold
    of the host class."""
    if g.n < 2:
        raise DomainError("need at least 2 vertices")
    if not g.is_connected():
        raise DomainError("host must be connected")
    guarantee = GUARANTEES.get(("tree", getattr(host_class, "name", None)))
    if guarantee is None:
        raise DomainError(f"unsupported host class {host_class!r}")
    d = getattr(host_class, "d", 0)
    if not host_class_check(g, host_class):
        raise DomainError(f"host is not {guarantee.host.format(d=d)}")
    n = g.n
    if n < guarantee.min_n(d):
        raise DomainError(
            f"{guarantee.label.format(d=d)} guarantee needs n >= {guarantee.min_n(d)}"
        )
    k = guarantee.k(n)
    holds, descr = guarantee.condition(n, census(g).minimum, d)
    if not holds:
        return FindReport(False, None, 0, f"hypothesis not met: {descr}", 0)
    trees = [_tree_seed(g, s, k) for s in (-1, 1)]
    if None in trees:
        # cannot happen when the threshold arithmetic is right; reported
        # rather than asserted so a caller sees which side fell short
        short = "-1" if trees[0] is None else "+1"
        return FindReport(
            False, None, 0, f"forest extraction fell short on the {short} class ({descr})", 0
        )
    report = _settle(
        SpanningTrees(g),
        [weight(t) for t in trees],
        trees.__getitem__,
        is_spanning_tree,
        f"{descr}; direct completion",
        f"{descr}; interpolated",
    )
    assert report is not None, "seed trees of a met hypothesis straddle zero"
    return report


# --- spanning paths -----------------------------------------------------------


def _linear_forest(g: ColoredGraph, sign: int, k: int) -> Optional[frozenset]:
    """A k-edge linear forest inside one colour class, or None.

    One greedy pass over the class's edges, lowest sum of endpoint class
    degrees first (ties in canonical order): an edge is taken when both
    ends have forest degree < 2 and it does not join the two ends of one
    path.  end[v] is the other end of the path that v ends, v itself while
    v is isolated, so no union-find is needed.
    """
    pool = [e for e in g.edges if g.sign[e] == sign]
    deg = [0] * g.n
    for u, v in pool:
        deg[u] += 1
        deg[v] += 1
    pool.sort(key=lambda e: (deg[e[0]] + deg[e[1]], e))
    forest_deg = [0] * g.n
    end = list(range(g.n))
    chosen = []
    for u, v in pool:
        if len(chosen) == k:
            break
        if forest_deg[u] < 2 and forest_deg[v] < 2 and end[u] != v:
            a, b = end[u], end[v]
            end[a], end[b] = b, a
            forest_deg[u] += 1
            forest_deg[v] += 1
            chosen.append((u, v))
    return frozenset(chosen) if len(chosen) == k else None


def _linear_forest_to_hampath(g: ColoredGraph, forest: frozenset) -> EdgeSubgraph:
    """Complete a linear forest of a complete host to a Hamiltonian path:
    pair each path's ends with _linear_forest's end[] rule, then join the
    paths (a leftover vertex is one on its own) lowest end first, each
    one's far end to the next one's lowest."""
    n = g.n
    deg = [0] * n
    end = list(range(n))
    for u, v in forest:
        a, b = end[u], end[v]
        end[a], end[b] = b, a
        deg[u] += 1
        deg[v] += 1
    edges = set(forest)
    tail = -1
    for v in range(n):
        if deg[v] < 2 and v <= end[v]:
            if tail >= 0:
                edges.add(canonical_edge(tail, v))
            tail = end[v]
    return EdgeSubgraph._unchecked(g, frozenset(edges))


def find_zero_sum_spanning_path(g: ColoredGraph) -> FindReport:
    """Hamiltonian path with |weight| <= 1 of a complete host.

    Tries the decomposition route first: split K_n into spanning paths
    (n even) or spanning cycles (n odd, each trimmed by one edge of its
    weight's sign), use a part directly if it can be, otherwise
    interpolate between the lowest- and highest-weight parts.  When every
    part sits strictly on one side, falls back to the census route:
    half-sized monochromatic linear forests, completion, interpolation.
    """
    if not g.is_complete:
        raise DomainError("host must be complete")
    n = g.n
    if n < 2:
        raise DomainError("need at least 2 vertices")
    kind = HamiltonianPaths(g)

    if n % 2 == 0:
        route = "path-decomposition"
        parts = hamilton_path_decomposition(n, host=g).parts
        weights = [weight(p) for p in parts]
        seed = parts.__getitem__
        direct = "path-decomposition part used directly"
    else:
        route = "cycle-decomposition"
        parts = hamilton_cycle_decomposition(n, host=g).parts
        # n is odd, so no cycle weighs 0; dropping the first edge of its
        # weight's sign moves a cycle's weight one step toward zero
        cycle_weights = [weight(p) for p in parts]
        weights = [w - 1 if w > 0 else w + 1 for w in cycle_weights]

        def seed(i):
            s = 1 if cycle_weights[i] > 0 else -1
            edges = parts[i].edges
            drop = next(e for e in sorted(edges) if g.sign[e] == s)
            return EdgeSubgraph._unchecked(g, edges - {drop})

        direct = "cycle-decomposition part trimmed by one edge"
    report = _settle(kind, weights, seed, is_hamiltonian_path, direct, f"{route} interpolation")
    if report is not None:
        return report
    routes = [f"{route} route failed: all part weights one-signed"]

    guarantee = GUARANTEES["path-census", "complete"]
    if n < guarantee.min_n(0):
        routes.append(f"census route needs n >= {guarantee.min_n(0)}")
    else:
        holds, text = guarantee.condition(n, census(g).minimum)
        if not holds:
            routes.append(text)
        else:
            k = guarantee.k(n)
            forests = [_linear_forest(g, s, k) for s in (-1, 1)]
            if None in forests:
                routes.append("census threshold met but no half-sized linear forest found")
            else:
                paths = [_linear_forest_to_hampath(g, f) for f in forests]
                report = _settle(
                    kind,
                    [weight(p) for p in paths],
                    paths.__getitem__,
                    is_hamiltonian_path,
                    "census-route completion used directly",
                    "census-route interpolation",
                )
                assert report is not None, "census-route seed paths straddle zero"
                return report
    return FindReport(False, None, 0, "; ".join(routes), 0)


# --- diameter-3 trees ---------------------------------------------------------


def _double_star(g: ColoredGraph) -> Optional[tuple[int, int, frozenset]]:
    """The first double star of a complete host with |weight| <= 1, as
    (u, v, edges), or None when no spanning tree of diameter <= 3 is that
    light.

    A tree of diameter <= 3 is a double star on some edge uv, every other
    vertex w hanging on u or on v.  With P of the w seeing u and v both +1,
    M both -1 and the F others free to pick either sign, the reachable
    weights are base +- F in steps of 2, base = f(uv) + P - M; so one of
    |w| <= 1 exists iff |base| <= F + 1.  Pairs are scanned u < v in
    lexicographic order; fixed vertices hang on u, and the first s free
    ones (ascending) take their +1 edge, the rest their -1 edge.
    """
    n = g.n
    minus = g.minus_masks()
    full = (1 << n) - 1
    for u in range(n):
        mu = minus[u]
        for v in range(u + 1, n):
            mv = minus[v]
            others = full ^ (1 << u) ^ (1 << v)
            free = (mu ^ mv) & others
            n_free = free.bit_count()
            n_minus = (mu & mv).bit_count()
            # f(uv) + P - M with P = n-2 - F - M
            base = (-1 if (mu >> v) & 1 else 1) + n - 2 - n_free - 2 * n_minus
            if abs(base) > n_free + 1:
                continue
            s = min(max((n_free - base) // 2, 0), n_free)
            tree = [(u, v)]
            taken = 0
            for w in range(n):
                if w == u or w == v:
                    continue
                a = u
                if (free >> w) & 1:
                    # the first s free vertices take their +1 edge, the rest
                    # their -1 edge; it is vw when uw has the other sign
                    if ((mu >> w) & 1) == (taken < s):
                        a = v
                    taken += 1
                tree.append((a, w) if a < w else (w, a))
            return u, v, frozenset(tree)
    return None


def find_zero_sum_diam3_tree(g: ColoredGraph) -> FindReport:
    """Spanning tree of diameter <= 3 with |weight| <= 1 of a complete host.

    A spanning star of weight |w| <= 1 centred on the vertex of most -1,
    then most +1, edges is used directly; otherwise the first double star
    of that weight (see _double_star) is.
    """
    if not g.is_complete:
        raise DomainError("host must be complete")
    n = g.n
    guarantee = GUARANTEES["diam3", "complete"]
    if n < guarantee.min_n(0):
        raise DomainError(f"need at least {guarantee.min_n(0)} vertices")
    holds, descr = guarantee.condition(n, census(g).minimum)
    if not holds:
        return FindReport(False, None, 0, f"hypothesis not met: {descr}", 0)
    # the -1 star centres on the first vertex of most -1 edges, the +1
    # star on the first of fewest; in K_n the star at a vertex of -1
    # degree d weighs n-1 - 2d
    deg_minus = [m.bit_count() for m in g.minus_masks()]
    for d in (max(deg_minus), min(deg_minus)):
        if abs(n - 1 - 2 * d) <= 1:
            centre = deg_minus.index(d)
            star = frozenset(canonical_edge(centre, x) for x in range(n) if x != centre)
            return _validated(
                EdgeSubgraph._unchecked(g, star),
                is_diam3_tree,
                f"{descr}; spanning star used directly",
                0,
            )
    found = _double_star(g)
    assert found is not None, "a met hypothesis leaves a double star of |weight| <= 1"
    u, v, edges = found
    return _validated(
        EdgeSubgraph._unchecked(g, edges), is_diam3_tree, f"{descr}; double star on {u}-{v}", 0
    )


# --- short zero-sum paths between two vertices --------------------------------


def _path_report(g, vertices, certificate) -> FindReport:
    """Report the path through vertices after checking from the host's -1
    masks that half of its edges are -1, so its weight is 0."""
    minus = g.minus_masks()
    steps = []
    n_minus = 0
    a = vertices[0]
    for b in vertices[1:]:
        steps.append((a, b) if a < b else (b, a))
        n_minus += (minus[a] >> b) & 1
        a = b
    edges = frozenset(steps)
    assert 2 * n_minus == len(edges) == len(vertices) - 1
    return FindReport(True, EdgeSubgraph._unchecked(g, edges), 0, certificate, 0)


def _low(mask: int) -> int:
    """Index of the lowest set bit of a non-zero mask."""
    return (mask & -mask).bit_length() - 1


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _short_zero_sum_path(minus, n: int, x: int, y: int) -> Optional[tuple[str, list]]:
    """The search behind find_zero_sum_path_leq4, read from the per-vertex
    -1 masks of a complete host on n vertices alone: (label, vertices) of
    the first zero-sum x..y path of length 2 or 4 it meets, or None when
    no such path exists.

    Follows the anchored case analysis; when that yields nothing (possible
    only below the census threshold) an exhaustive sweep over all short
    paths decides the answer, so None is reliable.  Candidates are tried
    in ascending vertex order throughout.
    """
    full = (1 << n) - 1
    others = full ^ (1 << x) ^ (1 << y)
    split = (minus[x] ^ minus[y]) & others
    if split:
        return "length-2", [x, _low(split), y]

    # every outside vertex sees x and y with one colour; flip so the
    # +1-anchored side is the larger one (flipping preserves zero sums).
    # neg[u] holds u's -1 neighbours after the flip.
    a_mask = others & ~minus[x]
    if 2 * a_mask.bit_count() < n - 2:
        neg = [full ^ (1 << u) ^ m for u, m in enumerate(minus)]
        a_mask = others & minus[x]
    else:
        neg = minus
    A = list(_bits(a_mask))
    B = list(_bits(others ^ a_mask))

    if len(B) == 0:
        for v in A:
            mn = neg[v] & a_mask
            if mn.bit_count() >= 2:
                second = _low(mn & (mn - 1))
                return "case-1", [x, _low(mn), v, second, y]
    elif len(B) == 1:
        z = B[0]
        zm = neg[z] & a_mask
        if zm.bit_count() >= 2:
            second = _low(zm & (zm - 1))
            return "case-2a", [x, _low(zm), z, second, y]
        if zm:
            u = _low(zm)
            plus_u = a_mask & ~neg[u] & ~(1 << u)
            if plus_u:
                return "case-2b", [x, _low(plus_u), u, z, y]
            rest = a_mask ^ (1 << u)
            if rest.bit_count() >= 2:
                second = _low(rest & (rest - 1))
                return "case-2b", [x, _low(rest), u, second, y]
        else:
            for u in A:
                later = neg[u] & a_mask & ~((2 << u) - 1)
                if later:
                    return "case-2c", [x, u, _low(later), z, y]
    else:
        u, v = A[0], A[1]
        z, w = B[0], B[1]
        if not (neg[u] >> z) & 1 and not (neg[u] >> w) & 1:
            return "case-3", [x, z, u, w, y]
        if not (neg[u] >> z) & 1:
            z, w = w, z
        if not (neg[v] >> u) & 1:
            return "case-3", [x, v, u, z, y]
        if (neg[v] >> z) & 1:
            return "case-3", [x, v, z, u, y]
        return "case-3", [x, z, v, u, y]

    # complete sweep so a negative answer is trustworthy: for each (a, b),
    # the first c whose edges b-c and c-y bring the -1 count of x-a-b-c-y to 2
    my = minus[y]
    for a in _bits(others):
        ma = (minus[x] >> a) & 1
        for b in _bits(others ^ (1 << a)):
            left = 2 - ma - ((minus[a] >> b) & 1)
            mb = minus[b]
            if left == 2:
                ends = mb & my
            elif left == 1:
                ends = mb ^ my
            else:
                ends = ~(mb | my)
            ends &= others & ~((1 << a) | (1 << b))
            if ends:
                return "sweep", [x, a, b, _low(ends), y]
    return None


def find_zero_sum_path_leq4(g: ColoredGraph, x: int, y: int) -> FindReport:
    """Zero-sum path of length 2 or 4 between x and y in a complete host.

    The search (see _short_zero_sum_path) reads the host's kept -1
    adjacency masks; found=False is reliable.  The certificate names the
    case that gave the path and whether the census hypothesis is met.
    """
    if not g.is_complete:
        raise DomainError("host must be complete")
    n = g.n
    if not (0 <= x < n and 0 <= y < n) or x == y:
        raise DomainError(f"invalid vertex pair ({x},{y})")
    met, text = GUARANTEES["connected", "complete"].condition(n, census(g).minimum)
    hyp = f"{text}: " + ("met" if met else "not met")
    found = _short_zero_sum_path(g.minus_masks(), n, x, y)
    if found is None:
        return FindReport(False, None, 0, f"no zero-sum path of length <= 4; {hyp}", 0)
    label, vertices = found
    return _path_report(g, vertices, f"{label} path; {hyp}")


# --- perfect matchings (experimental exhaustive probe) -------------------------


def check_zero_sum_matching(
    g: ColoredGraph, budget: EnumerationBudget | None = None
) -> FindReport:
    """Exhaustive backtracking search for a zero-sum perfect matching of
    K_n with n divisible by 4 (otherwise parity forbids weight 0).

    Refuses with BudgetExceeded once the search has visited more than the
    budget's max_matchings nodes (partial matchings), rather than run on.
    """
    if not g.is_complete:
        raise DomainError("host must be complete")
    n = g.n
    if n % 4 != 0 or n == 0:
        raise DomainError(f"zero-sum perfect matchings need n divisible by 4, got n={n}")
    limit = (budget or DEFAULT_BUDGET).max_matchings
    sign = g.sign
    used = [False] * n
    picked: list[tuple[int, int]] = []
    nodes = 0

    def rec(current: int, remaining: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            raise BudgetExceeded(
                f"zero-sum matching search on K_{n} passed {limit:,} search nodes; "
                f"requires max_matchings > {limit:,}"
            )
        # remaining edges can move the weight by at most `remaining`
        if abs(current) > remaining:
            return False
        if remaining == 0:
            return current == 0
        u = used.index(False)
        used[u] = True
        for v in range(u + 1, n):
            if used[v]:
                continue
            used[v] = True
            picked.append((u, v))
            if rec(current + sign[(u, v)], remaining - 1):
                return True
            picked.pop()
            used[v] = False
        used[u] = False
        return False

    if rec(0, n // 2):
        sub = EdgeSubgraph._unchecked(g, frozenset(picked))
        assert is_matching(sub) and len(sub.edges) == n // 2 and weight(sub) == 0
        return FindReport(True, sub, 0, "exhaustive matching search", 0)
    return FindReport(False, None, 0, "exhaustive matching search: no zero-sum perfect matching", 0)
