"""Output checks that do not rely on zerosum.

The census thresholds are written out here from the paper's formulas
(Turan numbers of forests, stars and linear forests), and every returned
subgraph is checked with this file's own union-find, degree and BFS code
against the colouring the benchmark generated.  Nothing here imports the
package under test.
"""

from __future__ import annotations

from collections import deque
from math import comb

# --- census hypotheses --------------------------------------------------------


def tree_bound(n: int) -> int:
    """ex(n, k-edge forest) = C(k,2) with k = floor((n-1)/2)."""
    return comb((n - 1) // 2, 2)


def diam3_bound(n: int) -> int:
    """ex(n, k-edge star) = floor((k-1)n/2) with k = floor((n-1)/2)."""
    return ((n - 1) // 2 - 1) * n // 2


def path_bound(n: int) -> int:
    """ex(n, k-edge linear forest) with k = floor((n-1)/2):
    max{C(k,2), C(n,2) - C(n - floor((k-1)/2), 2) + ((k-1) mod 2)}."""
    k = (n - 1) // 2
    return max(comb(k, 2), comb(n, 2) - comb(n - (k - 1) // 2, 2) + (k - 1) % 2)


def connect_need(n: int) -> int:
    """ceil((n+1)/2): each colour class needs at least this many edges."""
    return (n + 2) // 2


def triangle_free_bound(n: int) -> int:
    """floor(k^2/4) with k = floor(n/2)."""
    k = n // 2
    return k * k // 4


def dtree_bound(n: int, d: int) -> int:
    """Forest-forcing bound of a d-degenerate host, k = floor((n-1)/2)."""
    k = (n - 1) // 2
    return comb(k, 2) if k <= d else k * d - comb(d + 1, 2)


def planar_bound(n: int) -> int:
    """3k - 5 with k = floor((n-1)/2); reaching it suffices."""
    return 3 * ((n - 1) // 2) - 5


def complete_hypothesis(theorem: str, n: int, e_minus: int) -> bool:
    """Census hypothesis of a guarantee on K_n with e_minus edges of sign -1."""
    e_plus = comb(n, 2) - e_minus
    if theorem == "connected":
        need = connect_need(n)
        return e_minus >= need and e_plus >= need
    bound = {"tree": tree_bound, "diam3": diam3_bound, "path-census": path_bound}[theorem](n)
    return e_minus > bound and e_plus > bound


def path_decomposition_hypothesis(n: int, e_minus: int) -> bool:
    """|f(K_n)| below the bound at which a decomposition of K_n into
    spanning paths (n even) or cycles (n odd) has parts of both signs."""
    total = abs(comb(n, 2) - 2 * e_minus)
    return 2 * total < (3 * n if n % 2 == 0 else 3 * (n - 1))


def host_hypothesis(host: str, n: int, e_minus: int, e_plus: int, d: int = 0) -> bool:
    """Spanning-tree census hypothesis for the non-complete host classes."""
    if host == "triangle-free":
        bound = triangle_free_bound(n)
        return e_minus > bound and e_plus > bound
    if host == "dtree":
        bound = dtree_bound(n, d)
        return n >= 2 * d + 2 and e_minus > bound and e_plus > bound
    if host == "planar":
        bound = planar_bound(n)
        return n >= 7 and e_minus >= bound and e_plus >= bound
    raise ValueError(f"unknown host class {host!r}")


def expected_hypothesis_count(theorem: str, n: int, high_popcount: int, free_bits: int) -> int:
    """Colourings of a shard meeting the hypothesis: the shard fixes every
    bit above free_bits, so e_minus = high_popcount + popcount(low bits)."""
    return sum(
        comb(free_bits, j)
        for j in range(free_bits + 1)
        if complete_hypothesis(theorem, n, high_popcount + j)
    )


# --- subgraph checks ----------------------------------------------------------


def _canonical(edges) -> list[tuple[int, int]]:
    return [(u, v) if u < v else (v, u) for u, v in edges]


def _is_spanning_tree(n: int, edges) -> bool:
    if len(edges) != n - 1:
        return False
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[rv] = ru
    return True


def _degrees(n: int, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def _eccentricity(adj, start: int) -> int:
    dist = {start: 0}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return max(dist.values())


def _tree_diameter(n: int, edges) -> int:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return max(_eccentricity(adj, v) for v in range(n)) if n else 0


def _is_xy_path(n: int, edges, x: int, y: int) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    if len(adj[x]) != 1 or len(adj[y]) != 1:
        return False
    prev, cur, steps = -1, x, 0
    while cur != y:
        nxt = [w for w in adj[cur] if w != prev]
        if len(nxt) != 1 or (cur != x and len(adj[cur]) != 2):
            return False
        prev, cur = cur, nxt[0]
        steps += 1
        if steps > len(edges):
            return False
    return steps == len(edges)


def check_output(kind: str, n: int, sign: dict, edges, reported_weight: int, pair=None):
    """Return None when the subgraph is what the finder promised, else the
    reason it is not.

    kind is "tree", "path", "diam3" or "connect"; sign maps every host
    edge (u < v) to -1 or +1 as the benchmark generated it.
    """
    edges = _canonical(edges)
    if len(set(edges)) != len(edges):
        return "repeated edge"
    missing = [e for e in edges if e not in sign]
    if missing:
        return f"edge {missing[0]} not in host"
    w = sum(sign[e] for e in edges)
    if w != reported_weight:
        return f"reported weight {reported_weight} but edges sum to {w}"
    if kind == "connect":
        x, y = pair
        if len(edges) not in (2, 4):
            return f"x-y path has {len(edges)} edges, not 2 or 4"
        if not _is_xy_path(n, edges, x, y):
            return f"edges do not form one path from {x} to {y}"
        return None if w == 0 else f"weight {w}, not 0"
    if not _is_spanning_tree(n, edges):
        return "not a spanning tree"
    if kind == "path" and max(_degrees(n, edges)) > 2:
        return "not a Hamiltonian path"
    if kind == "diam3" and _tree_diameter(n, edges) > 3:
        return "tree diameter above 3"
    if kind not in ("tree", "path", "diam3"):
        raise ValueError(f"unknown output kind {kind!r}")
    target_ok = w == 0 if (n - 1) % 2 == 0 else abs(w) == 1
    return None if target_ok else f"weight {w} with n-1={n - 1}"
