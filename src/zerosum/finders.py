"""Constructive finders for zero-sum and almost zero-sum subgraphs.

Each finder checks the census hypothesis of the matching guarantee,
extracts monochromatic seed subgraphs, completes them to family members
whose weights straddle zero, and hands the pair to the interpolation
walk.  Every successful report is re-validated against the host signs
before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .decompositions import hamilton_cycle_decomposition, hamilton_path_decomposition
from .errors import BudgetExceeded, DomainError
from .families import (
    DEFAULT_BUDGET,
    Diam3Trees,
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
    host_class_check,
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
    uf = UnionFind(g.n)
    chosen = []
    if k:
        for e in g.edges:
            if g.sign[e] == sign and uf.union(*e):
                chosen.append(e)
                if len(chosen) == k:
                    break
    return EdgeSubgraph._unchecked(g, frozenset(chosen))


def _complete_to_spanning_tree(g: ColoredGraph, base: frozenset) -> EdgeSubgraph:
    """Extend an acyclic edge set to a spanning tree, adding host edges in
    canonical order and skipping cycle creators; stops once n-1 edges are
    in, as every later edge would close a cycle."""
    uf = UnionFind(g.n)
    edges = set(base)
    for u, v in base:
        uf.union(u, v)
    size = g.n - 1
    for e in g.edges:
        if e not in edges and uf.union(*e):
            edges.add(e)
            if len(edges) == size:
                break
    return EdgeSubgraph._unchecked(g, frozenset(edges))


def _validated(sub: EdgeSubgraph, predicate, certificate: str, replacements: int) -> FindReport:
    w = weight(sub)
    if not predicate(sub):
        raise AssertionError(f"finder produced an invalid subgraph for: {certificate}")
    return FindReport(True, sub, w, certificate, replacements)


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
    f_minus = extract_monochromatic_forest(g, -1, k)
    f_plus = extract_monochromatic_forest(g, 1, k)
    if len(f_minus.edges) < k or len(f_plus.edges) < k:
        # cannot happen when the threshold arithmetic is right; reported
        # rather than asserted so a caller sees which side fell short
        short = "-1" if len(f_minus.edges) < k else "+1"
        return FindReport(
            False, None, 0, f"forest extraction fell short on the {short} class ({descr})", 0
        )
    t_minus = _complete_to_spanning_tree(g, f_minus.edges)
    t_plus = _complete_to_spanning_tree(g, f_plus.edges)
    for tree in (t_minus, t_plus):
        if abs(weight(tree)) <= 1:
            return _validated(tree, is_spanning_tree, f"{descr}; direct completion", 0)
    member, reps = interpolate_traced(SpanningTrees(g), t_minus, t_plus)
    return _validated(member, is_spanning_tree, f"{descr}; interpolated", reps)


# --- spanning paths -----------------------------------------------------------


def _first_edge_of_sign(g: ColoredGraph, part: EdgeSubgraph, sign: int):
    for e in sorted(part.edges):
        if g.sign[e] == sign:
            return e
    return None


def _find_linear_forest(g: ColoredGraph, sign: int, k: int):
    """Exhaustive backtracking search for a k-edge monochromatic linear
    forest; None when the colour class has none."""
    if k == 0:
        return frozenset()
    pool = [e for e in g.edges if g.sign[e] == sign]
    if len(pool) < k:
        return None
    deg = [0] * g.n
    comp = list(range(g.n))  # union-find without compression, undoable
    chosen: list[tuple[int, int]] = []

    def find(x):
        while comp[x] != x:
            x = comp[x]
        return x

    def rec(start):
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


def _linear_forest_to_hampath(g: ColoredGraph, forest: frozenset) -> EdgeSubgraph:
    """Complete a linear forest of a complete host to a Hamiltonian path by
    chaining its path segments and the leftover vertices."""
    n = g.n
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in forest:
        adj[u].append(v)
        adj[v].append(u)
    segments = []
    seen = [False] * n
    for v in range(n):
        if seen[v] or len(adj[v]) > 1:
            continue
        seq = [v]
        seen[v] = True
        prev = -1
        cur = v
        while True:
            nxt = [x for x in adj[cur] if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            seq.append(cur)
            seen[cur] = True
        segments.append(seq)
    edges = set(forest)
    for a, b in zip(segments, segments[1:]):
        edges.add(canonical_edge(a[-1], b[0]))
    return EdgeSubgraph._unchecked(g, frozenset(edges))


def find_zero_sum_spanning_path(g: ColoredGraph, fallback_max_n: int = 12) -> FindReport:
    """Hamiltonian path with |weight| <= 1 of a complete host.

    Tries the decomposition route first: split K_n into spanning paths
    (n even) or spanning cycles (n odd), look for a part usable directly,
    otherwise interpolate between the lowest- and highest-weight parts.
    When every part sits strictly on one side, falls back to the census
    route: exhaustive search for half-sized monochromatic linear forests,
    completion, interpolation.  The fallback search runs only for hosts
    with n <= fallback_max_n.
    """
    if not g.is_complete:
        raise DomainError("host must be complete")
    n = g.n
    if n < 2:
        raise DomainError("need at least 2 vertices")
    kind = HamiltonianPaths(g)
    routes = []

    if n % 2 == 0:
        parts = hamilton_path_decomposition(n, host=g).parts
        weights = [weight(p) for p in parts]
        for part, w in zip(parts, weights):
            if abs(w) <= 1:
                return _validated(
                    part, is_hamiltonian_path, "path-decomposition part used directly", 0
                )
        lo = parts[min(range(len(parts)), key=lambda i: weights[i])]
        hi = parts[max(range(len(parts)), key=lambda i: weights[i])]
        if weight(lo) < 0 < weight(hi):
            member, reps = interpolate_traced(kind, lo, hi)
            return _validated(
                member, is_hamiltonian_path, "path-decomposition interpolation", reps
            )
        routes.append("path-decomposition route failed: all part weights one-signed")
    else:
        parts = hamilton_cycle_decomposition(n, host=g).parts
        weights = [weight(p) for p in parts]
        for part, w in zip(parts, weights):
            if abs(w) == 1:
                drop = _first_edge_of_sign(g, part, 1 if w == 1 else -1)
                path = EdgeSubgraph._unchecked(g, part.edges - {drop})
                return _validated(
                    path, is_hamiltonian_path, "cycle-decomposition part trimmed by one edge", 0
                )
        i_lo = min(range(len(parts)), key=lambda i: weights[i])
        i_hi = max(range(len(parts)), key=lambda i: weights[i])
        if weights[i_lo] < 0 < weights[i_hi]:
            e_lo = _first_edge_of_sign(g, parts[i_lo], -1)
            e_hi = _first_edge_of_sign(g, parts[i_hi], 1)
            p_lo = EdgeSubgraph._unchecked(g, parts[i_lo].edges - {e_lo})
            p_hi = EdgeSubgraph._unchecked(g, parts[i_hi].edges - {e_hi})
            for path in (p_lo, p_hi):
                if abs(weight(path)) <= 1:
                    return _validated(
                        path, is_hamiltonian_path, "cycle-decomposition part trimmed by one edge", 0
                    )
            member, reps = interpolate_traced(kind, p_lo, p_hi)
            return _validated(
                member, is_hamiltonian_path, "cycle-decomposition interpolation", reps
            )
        routes.append("cycle-decomposition route failed: all part weights one-signed")

    guarantee = GUARANTEES["path-census", "complete"]
    if n < guarantee.min_n(0):
        routes.append(f"census route needs n >= {guarantee.min_n(0)}")
    else:
        holds, text = guarantee.condition(n, census(g).minimum)
        if not holds:
            routes.append(text)
        elif n > fallback_max_n:
            routes.append(
                f"census threshold met but search skipped: n={n} > budget {fallback_max_n}"
            )
        else:
            k = guarantee.k(n)
            lf_minus = _find_linear_forest(g, -1, k)
            lf_plus = _find_linear_forest(g, 1, k)
            if lf_minus is None or lf_plus is None:
                routes.append("census threshold met but no half-sized linear forest found")
            else:
                p_minus = _linear_forest_to_hampath(g, lf_minus)
                p_plus = _linear_forest_to_hampath(g, lf_plus)
                for path in (p_minus, p_plus):
                    if abs(weight(path)) <= 1:
                        return _validated(
                            path,
                            is_hamiltonian_path,
                            "census-route completion used directly",
                            0,
                        )
                member, reps = interpolate_traced(kind, p_minus, p_plus)
                return _validated(
                    member, is_hamiltonian_path, "census-route interpolation", reps
                )
    return FindReport(False, None, 0, "; ".join(routes), 0)


# --- diameter-3 trees ---------------------------------------------------------


def find_zero_sum_diam3_tree(g: ColoredGraph) -> FindReport:
    """Spanning tree of diameter <= 3 with |weight| <= 1 of a complete host."""
    if not g.is_complete:
        raise DomainError("host must be complete")
    n = g.n
    guarantee = GUARANTEES["diam3", "complete"]
    if n < guarantee.min_n(0):
        raise DomainError(f"need at least {guarantee.min_n(0)} vertices")
    k = guarantee.k(n)
    holds, descr = guarantee.condition(n, census(g).minimum)
    if not holds:
        return FindReport(False, None, 0, f"hypothesis not met: {descr}", 0)
    # a colour class larger than the star threshold has a vertex carrying
    # at least k incident edges of that colour; in K_n a vertex has n-1
    # edges, so its +1 degree is what its -1 degree leaves
    deg_minus = [m.bit_count() for m in g.minus_masks()]
    stars = []
    for deg in (deg_minus, [n - 1 - d for d in deg_minus]):
        centre = max(range(n), key=lambda v: (deg[v], -v))
        assert deg[centre] >= k
        stars.append(
            EdgeSubgraph._unchecked(
                g, frozenset(canonical_edge(centre, x) for x in range(n) if x != centre)
            )
        )
    kind = Diam3Trees(g)
    for sub in stars:
        if abs(weight(sub)) <= 1:
            return _validated(sub, kind.is_member, f"{descr}; spanning star used directly", 0)
    member, reps = interpolate_traced(kind, stars[0], stars[1])
    return _validated(member, kind.is_member, f"{descr}; interpolated", reps)


# --- short zero-sum paths between two vertices --------------------------------


def _path_report(g, vertices, certificate) -> FindReport:
    """Report the path through vertices after checking from the host's -1
    masks that half of its edges are -1, so its weight is 0."""
    minus = g.minus_masks()
    steps = list(zip(vertices, vertices[1:]))
    edges = frozenset(canonical_edge(a, b) for a, b in steps)
    n_minus = sum((minus[a] >> b) & 1 for a, b in steps)
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


def find_zero_sum_path_leq4(g: ColoredGraph, x: int, y: int) -> FindReport:
    """Zero-sum path of length 2 or 4 between x and y in a complete host.

    Follows the anchored case analysis; when that yields nothing (possible
    only below the census threshold) an exhaustive sweep over all short
    paths decides the answer, so found=False is reliable.  Candidates are
    tried in ascending vertex order throughout, read from the host's kept
    -1 adjacency masks.
    """
    if not g.is_complete:
        raise DomainError("host must be complete")
    n = g.n
    if not (0 <= x < n and 0 <= y < n) or x == y:
        raise DomainError(f"invalid vertex pair ({x},{y})")
    met, text = GUARANTEES["connected", "complete"].condition(n, census(g).minimum)
    hyp = f"{text}: " + ("met" if met else "not met")
    minus = g.minus_masks()
    full = (1 << n) - 1
    others = full ^ (1 << x) ^ (1 << y)
    split = (minus[x] ^ minus[y]) & others
    if split:
        return _path_report(g, [x, _low(split), y], f"length-2 path; {hyp}")

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
                return _path_report(g, [x, _low(mn), v, second, y], f"case-1 path; {hyp}")
    elif len(B) == 1:
        z = B[0]
        zm = neg[z] & a_mask
        if zm.bit_count() >= 2:
            second = _low(zm & (zm - 1))
            return _path_report(g, [x, _low(zm), z, second, y], f"case-2a path; {hyp}")
        if zm:
            u = _low(zm)
            plus_u = a_mask & ~neg[u] & ~(1 << u)
            if plus_u:
                return _path_report(g, [x, _low(plus_u), u, z, y], f"case-2b path; {hyp}")
            rest = a_mask ^ (1 << u)
            if rest.bit_count() >= 2:
                second = _low(rest & (rest - 1))
                return _path_report(g, [x, _low(rest), u, second, y], f"case-2b path; {hyp}")
        else:
            for u in A:
                later = neg[u] & a_mask & ~((2 << u) - 1)
                if later:
                    return _path_report(g, [x, u, _low(later), z, y], f"case-2c path; {hyp}")
    else:
        u, v = A[0], A[1]
        z, w = B[0], B[1]
        if not (neg[u] >> z) & 1 and not (neg[u] >> w) & 1:
            return _path_report(g, [x, z, u, w, y], f"case-3 path; {hyp}")
        if not (neg[u] >> z) & 1:
            z, w = w, z
        if not (neg[v] >> u) & 1:
            return _path_report(g, [x, v, u, z, y], f"case-3 path; {hyp}")
        if (neg[v] >> z) & 1:
            return _path_report(g, [x, v, z, u, y], f"case-3 path; {hyp}")
        return _path_report(g, [x, z, v, u, y], f"case-3 path; {hyp}")

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
                return _path_report(g, [x, a, b, _low(ends), y], f"sweep path; {hyp}")
    return FindReport(False, None, 0, f"no zero-sum path of length <= 4; {hyp}", 0)


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
