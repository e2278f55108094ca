"""Constructive finders for zero-sum and almost zero-sum subgraphs.

The finders answer every colouring; the census condition of the matching
guarantee, and for spanning trees the host class, only writes the
certificate.  The search behind each guarantee's finder reads the
colouring alone, so that the oracle runs it on what it reads off a
colouring mask.  The spanning-tree and spanning-path searches read edge
colours through sign(e), and settle seed members (_tree_seed;
_spanning_path) in one step (_settle): a light seed directly, otherwise
the member the exchange-chain walk from the lightest seed to the
heaviest stops at.  The diameter-3 and short-path searches (_diam3_tree,
_short_zero_sum_path) read per-vertex -1 masks.  Every successful report
is re-validated against the host signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .decompositions import (
    _zigzag_parts,
    hamilton_cycle_decomposition,  # noqa: F401  (bench/spans.py wraps it by its name here)
    hamilton_path_decomposition,  # noqa: F401  (as above)
)
from .errors import DomainError
from .families import (
    DEFAULT_BUDGET,
    EnumerationBudget,
    _hampath_chain,
    _tree_chain,
    _walk,
    interpolate_traced,  # noqa: F401  (as above)
)
from .graphs import (
    COMPLETE,
    ColoredGraph,
    EdgeSubgraph,
    UnionFind,
    canonical_edge,
    census,
    complete_edges,
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
    class has no k-edge forest the whole maximal forest (fewer edges) comes
    back.
    """
    if sign not in (-1, 1):
        raise DomainError(f"sign must be -1 or 1, got {sign}")
    if k < 0:
        raise DomainError(f"forest size must be non-negative, got {k}")
    chosen = greedy_forest(UnionFind(g.n), (e for e in g.edges if g.sign[e] == sign), k)
    return EdgeSubgraph._unchecked(g, frozenset(chosen))


def _tree_seed(n: int, class_edges, host_edges, k: int) -> list:
    """A spanning tree of the host on n vertices through the k-edge greedy
    forest of one colour class (see extract_monochromatic_forest), as its
    edge list: class_edges streams that class's edges and host_edges all
    host edges, each in canonical order, and the completion runs on the
    forest's own union-find.  A class with no k-edge forest gives a short
    seed through its maximal forest: no completion edge has the class's
    sign, so no spanning tree has more edges of that sign (the class's rank
    in the graphic matroid), and a short -1 seed is a lightest tree, a
    short +1 seed a heaviest."""
    uf = UnionFind(n)
    tree = greedy_forest(uf, class_edges, k)
    tree += greedy_forest(uf, host_edges, n - 1 - len(tree))
    return tree


def _validated(sub: EdgeSubgraph, predicate, certificate: str, replacements: int) -> FindReport:
    w = weight(sub)
    if not predicate(sub):
        raise AssertionError(f"finder produced an invalid subgraph for: {certificate}")
    return FindReport(True, sub, w, certificate, replacements)


def _settle(chain, n: int, seeds, sign) -> Optional[tuple]:
    """(edges, replacements) of a member of |weight| <= 1 from seed members
    of one family on n vertices, each given by its edges and weighed
    through sign(e): the first light seed itself (0 replacements),
    otherwise the member the walk along chain from the lightest seed to
    the heaviest stops at (see families._walk).  None when the seed weights
    do not straddle zero."""
    weights = [sum(map(sign, seed)) for seed in seeds]
    for seed, w in zip(seeds, weights):
        if abs(w) <= 1:
            return seed, 0
    lo = weights.index(min(weights))
    hi = weights.index(max(weights))
    if not weights[lo] < 0 < weights[hi]:
        return None
    return _walk(chain, n, seeds[lo], seeds[hi], sign)


def find_zero_sum_spanning_tree(g: ColoredGraph, host_class=COMPLETE) -> FindReport:
    """Spanning tree with |weight| <= 1 on every connected host.  As
    k >= (n-1)//2, a full -1 seed (see _tree_seed) weighs <= 1 and a full
    +1 seed >= -1; so seeds that neither settle nor straddle zero are a
    lightest tree above 1 or a heaviest below -1, and found=False means no
    such tree exists.  The host class only chooses the certificate: its
    census condition when the host is in the class and of an order the
    guarantee covers, otherwise the reason it is not certified."""
    if g.n < 2:
        raise DomainError("need at least 2 vertices")
    if not g.is_connected():
        raise DomainError("host must be connected")
    guarantee = GUARANTEES.get(("tree", getattr(host_class, "name", None)))
    if guarantee is None:
        raise DomainError(f"unsupported host class {host_class!r}")
    d = getattr(host_class, "d", 0)
    n = g.n
    holds = False
    if not host_class_check(g, host_class):
        basis = f"host class not certified: host is not {guarantee.host.format(d=d)}"
    elif n < guarantee.min_n(d):
        label = guarantee.label.format(d=d)
        basis = f"hypothesis not met: {label} guarantee needs n >= {guarantee.min_n(d)}"
    else:
        holds, descr = guarantee.condition(n, census(g).minimum, d)
        basis = descr if holds else f"hypothesis not met: {descr}"
    k = guarantee.k(n)
    edges, sign = g.edges, g.sign
    seeds = [_tree_seed(n, (e for e in edges if sign[e] == s), edges, k) for s in (-1, 1)]
    found = _settle(_tree_chain, n, seeds, sign.__getitem__)
    if found is None:
        assert not holds, "seed trees of a met hypothesis straddle zero"
        return FindReport(False, None, 0, basis, 0)
    tree, reps = found
    how = "interpolated" if reps else "direct completion"
    return _validated(
        EdgeSubgraph._unchecked(g, frozenset(tree)), is_spanning_tree, f"{basis}; {how}", reps
    )


# --- spanning paths -----------------------------------------------------------


def _linear_forest(sign, n: int, s: int, k: int) -> Optional[frozenset]:
    """A k-edge linear forest inside the colour class s of K_n, colours
    read through sign(e), or None.

    One greedy pass over the class's edges, lowest sum of endpoint class
    degrees first (ties in canonical order): an edge is taken when both
    ends have forest degree < 2 and it does not join the two ends of one
    path.  end[v] is the other end of the path that v ends, v itself while
    v is isolated, so no union-find is needed.
    """
    pool = [e for e in complete_edges(n) if sign(e) == s]
    deg = [0] * n
    for u, v in pool:
        deg[u] += 1
        deg[v] += 1
    pool.sort(key=lambda e: (deg[e[0]] + deg[e[1]], e))
    forest_deg = [0] * n
    end = list(range(n))
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


def _linear_forest_to_hampath(n: int, forest: frozenset) -> frozenset:
    """The edges of a Hamiltonian path of K_n through a linear forest: pair
    each path's ends with _linear_forest's end[] rule, then join the paths
    (a leftover vertex is one on its own) lowest end first, each one's far
    end to the next one's lowest."""
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
    return frozenset(edges)


def _spanning_path(sign, n: int) -> Optional[tuple]:
    """The search behind find_zero_sum_spanning_path, reading a colouring of
    K_n, n >= 2, through sign(e) alone: (how, edges, replacements) of the
    first Hamiltonian path with |weight| <= 1 it meets, or None when the
    census route finds no half-sized linear forest in a colour class.

    The decomposition route settles (see _settle) the zig-zag parts of
    K_n: its spanning paths (n even) or its spanning cycles (n odd), each
    cycle trimmed by its first edge, in sorted order, of its weight's sign.
    When every part sits strictly on one side, the census route settles
    the completions of the greedy half-sized linear forests of the two
    colour classes."""
    cycles = n % 2 == 1
    parts = _zigzag_parts(n, cycles)[1]
    if cycles:
        # n is odd, so no cycle weighs 0; dropping the first edge of its
        # weight's sign moves a cycle's weight one step toward zero
        seeds = []
        for part in parts:
            s = 1 if sum(map(sign, part)) > 0 else -1
            cut = next(j for j, e in enumerate(part) if sign(e) == s)
            seeds.append(part[:cut] + part[cut + 1 :])
        route, direct = "cycle-decomposition", "cycle-decomposition part trimmed by one edge"
    else:
        seeds = parts
        route, direct = "path-decomposition", "path-decomposition part used directly"
    found = _settle(_hampath_chain, n, seeds, sign)
    if found is None:
        k = GUARANTEES["path-census", "complete"].k(n)
        forests = [_linear_forest(sign, n, s, k) for s in (-1, 1)]
        if None in forests:
            return None
        seeds = [_linear_forest_to_hampath(n, f) for f in forests]
        found = _settle(_hampath_chain, n, seeds, sign)
        assert found is not None, "census-route seed paths straddle zero"
        route, direct = "census-route", "census-route completion used directly"
    edges, reps = found
    return (f"{route} interpolation" if reps else direct), edges, reps


def find_zero_sum_spanning_path(g: ColoredGraph) -> FindReport:
    """Hamiltonian path with |weight| <= 1 of a complete host, as
    _spanning_path picks it from the host's signs.

    Below the census threshold the census route's certificates start with
    the threshold text, and found=False there carries no proof that no
    such path exists: from n = 11 the greedy linear forest can fall short
    of a class that holds a half-sized one, e.g. K_11 with the -1 class
    {0-4, 3-7, 4-8, 4-9, 7-8, 7-9, 8-9} gets found=False, yet
    0-4-9-8-7-3-1-2-5-6-10 weighs 0.
    """
    if not g.is_complete:
        raise DomainError("host must be complete")
    n = g.n
    if n < 2:
        raise DomainError("need at least 2 vertices")
    found = _spanning_path(g.sign.__getitem__, n)
    if found is None or found[0].startswith("census-route"):
        # the census condition writes only the census route's certificates
        holds, text = GUARANTEES["path-census", "complete"].condition(n, census(g).minimum)
        if found is None:
            why = "census threshold met but no half-sized linear forest found" if holds else text
            route = "cycle-decomposition" if n % 2 else "path-decomposition"
            failed = f"{route} route failed: all part weights one-signed"
            return FindReport(False, None, 0, f"{failed}; {why}", 0)
        if not holds:
            found = (f"{text}; {found[0]}",) + found[1:]
    how, edges, reps = found
    return _validated(EdgeSubgraph._unchecked(g, frozenset(edges)), is_hamiltonian_path, how, reps)


# --- diameter-3 trees ---------------------------------------------------------


def _diam3_tree(minus, n: int) -> Optional[tuple[str, list]]:
    """The search behind find_zero_sum_diam3_tree, read from the per-vertex
    -1 masks of a complete host on n vertices alone: (route, edges) of the
    first spanning tree of diameter <= 3 with |weight| <= 1 it meets, or
    None when no such tree exists.

    In K_n the star at a vertex of -1 degree d weighs n-1 - 2d; the star
    centred on the first vertex of most, then fewest, -1 edges is tried
    first.  Otherwise every such tree is a double star on some edge uv,
    each other vertex w hanging on u or on v.  With P of the w seeing u
    and v both +1, M both -1 and the F others free to pick either sign,
    the reachable weights are base +- F in steps of 2, base = f(uv) + P -
    M; so one of |w| <= 1 exists iff |base| <= F + 1.  Pairs are scanned
    u < v in lexicographic order; fixed vertices hang on u, and the first
    s free ones (ascending) take their +1 edge, the rest their -1 edge.
    """
    deg_minus = [m.bit_count() for m in minus]
    for d in (max(deg_minus), min(deg_minus)):
        if abs(n - 1 - 2 * d) <= 1:
            c = deg_minus.index(d)
            return "spanning star used directly", [canonical_edge(c, x) for x in range(n) if x != c]
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
            return f"double star on {u}-{v}", tree
    return None


def find_zero_sum_diam3_tree(g: ColoredGraph) -> FindReport:
    """Spanning tree of diameter <= 3 with |weight| <= 1 of a complete host,
    on every colouring, as _diam3_tree picks it from the host's -1 masks;
    found=False means none exists."""
    if not g.is_complete:
        raise DomainError("host must be complete")
    n = g.n
    guarantee = GUARANTEES["diam3", "complete"]
    if n < guarantee.min_n(0):
        raise DomainError(f"need at least {guarantee.min_n(0)} vertices")
    holds, descr = guarantee.condition(n, census(g).minimum)
    basis = descr if holds else f"hypothesis not met: {descr}"
    found = _diam3_tree(g.minus_masks(), n)
    if found is None:
        assert not holds, "a met hypothesis leaves a double star of |weight| <= 1"
        return FindReport(False, None, 0, basis, 0)
    route, edges = found
    return _validated(
        EdgeSubgraph._unchecked(g, frozenset(edges)), is_diam3_tree, f"{basis}; {route}", 0
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
    the first zero-sum x..y path of length 2 or 4 it meets, trying vertices
    in ascending order, or None, which is a proof that none exists.

    With no zero-sum x-u-y, flip the signs so that the set A of the other
    vertices seeing x and y both +1 is at least as large as the set B of
    those seeing both -1; a zero-sum x-a-b-c-y then has two -1 edges.
    B empty: xa and cy are +1, so a path exists iff some vertex of A has
    two -1 neighbours in A (case 1).  B = {z}: z with two -1 neighbours a,
    c in A gives x-a-z-c-y (2a).  z with one, u, gives x-r-u-z-y for an r
    in A that is +1 to u, else x-r-u-s-y, else x-z-r-u-y for A = {u, r}
    (2b); A = {u} leaves n = 4, too few vertices.  z with none makes
    x-a-z-c-y all +1, so every path needs a -1 edge uv inside A, and then
    x-u-v-z-y is one (2c).  |B| >= 2: for u, v in A and z, w in B, one of
    x-z-u-w-y, x-v-u-z-y, x-v-z-u-y and x-z-v-u-y has two -1 edges (case 3).
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
            if rest:
                return "case-2b", [x, z, _low(rest), u, y]
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
    return None


def find_zero_sum_path_leq4(g: ColoredGraph, x: int, y: int) -> FindReport:
    """Zero-sum path of length 2 or 4 between x and y in a complete host.

    The search (see _short_zero_sum_path) reads the host's kept -1
    adjacency masks; found=False rests on the proof in its docstring.  The certificate names the
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
    budget = budget or DEFAULT_BUDGET
    limit = budget.max_matchings
    sign = g.sign
    used = [False] * n
    picked: list[tuple[int, int]] = []
    nodes = 0

    def rec(current: int, remaining: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            budget.require("max_matchings", nodes, f"zero-sum matching search nodes on K_{n}")
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
