"""Brute-force ground truth at desk scale.

Enumerates whole families (spanning trees, Hamiltonian paths,
diameter-3 trees, perfect matchings) and iterates entire colouring
spaces as sign bitmasks over the canonical edge order.  Each theorem
has one check, built once per call, that one loop runs on every
colouring meeting the hypothesis.  Every check runs the finder's own
search on what it reads off the mask, the per-vertex -1 rows or the
sign of an edge, so no colouring is built into a graph.  A family check
tests every candidate the search hands over against the oracle's own
table of the family's members, and its weight against the colouring;
the connected check tests the path the finder's search returns for
each vertex pair, reading its own path masks only to word a refusal.

Enumerations refuse instead of sampling when a budget would be
exceeded.  Colouring ranges shard cleanly: shards share nothing and
their reports merge associatively.
"""

from __future__ import annotations

import os
import time
from bisect import bisect_left
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import get_context
from typing import Iterator, Optional, Union

from . import finders
from .errors import DomainError
from .families import (
    DEFAULT_BUDGET,
    Diam3Trees,
    EnumerationBudget,
    FamilyKind,
    HamiltonianPaths,
    PerfectMatchings,
    SpanningTrees,
    _tree_chain,
    stated,
)
from .graphs import ColoredGraph, EdgeSubgraph, binomial, complete_edges
from .thresholds import GUARANTEES, decomposition_bound


def _require_path_masks(n: int, pairs: int, budget: EnumerationBudget) -> None:
    """Refuse (BudgetExceeded) when the length-4 path masks of that many
    vertex pairs of K_n, (n-2)(n-3)(n-4)/2 a pair, exceed max_paths."""
    budget.require(
        "max_paths", pairs * (n - 2) * (n - 3) * (n - 4) // 2, "length-4 path masks to build"
    )


def enumerate_family(
    g: ColoredGraph,
    kind: Union[FamilyKind, PerfectMatchings],
    budget: EnumerationBudget | None = None,
) -> Iterator[EdgeSubgraph]:
    """Stream every member of the family exactly once, validated.

    Refuses upfront (BudgetExceeded, stating the required budget) when
    the closed-form member count exceeds the kind's budget field.
    """
    if not (kind.host is g or kind.host == g):
        raise DomainError("enumeration kind is bound to a different host")
    (budget or DEFAULT_BUDGET).require(kind.budget_field, kind.count(), "members to enumerate")

    def generate():
        for edge_set in kind.edge_sets():
            member = EdgeSubgraph._unchecked(g, edge_set)
            if not kind.is_member(member):
                raise AssertionError(f"enumerated member failed validation: {sorted(edge_set)}")
            yield member

    return generate()


# --- exhaustive theorem checks ---------------------------------------------------


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


def _minus_rows(n: int, edges: tuple, mask: int) -> tuple[int, ...]:
    """Per vertex of K_n, the mask of its -1 neighbours in a colouring,
    edges in canonical order: the graph's minus_masks(), read off the mask."""
    minus = [0] * n
    for i in finders._bits(mask):
        u, v = edges[i]
        minus[u] |= 1 << v
        minus[v] |= 1 << u
    return tuple(minus)


def _edge_bits(n: int) -> list[list[int]]:
    """bit[u][v] = bit[v][u] = the bit of edge uv in a colouring mask of K_n."""
    bit = [[0] * n for _ in range(n)]
    for i, (u, v) in enumerate(complete_edges(n)):
        bit[u][v] = bit[v][u] = 1 << i
    return bit


def _member_masks(n: int, members) -> list[int]:
    """The masks of all members of a family of K_n, n >= 2, members(n,
    table) yielding each one's edges uv as table[u][v] of the edge-bit
    table; sorted, so that the family check tests membership by bisection."""
    return sorted(sum(bits) for bits in members(n, _edge_bits(n)))


def _census_met(theorem: str, n: int) -> list[bool]:
    """met[e] tells whether a colouring of K_n with e edges -1 meets the
    theorem's hypothesis, for e = 0..C(n,2)."""
    m = binomial(n, 2)
    if theorem == "path-decomposition":
        bound = decomposition_bound(n)
        return [abs(m - 2 * e) < bound for e in range(m + 1)]
    guarantee = GUARANTEES[theorem, "complete"]
    # below its finder's smallest order a theorem is refused, except
    # connected: its n = 4, 5 counterexamples are the paper's exceptions
    bound = guarantee.bound(n) if theorem == "connected" else guarantee.threshold(n)
    return [guarantee.holds(min(e, m - e), bound) for e in range(m + 1)]


def _mask_signs(n: int):
    """signs(mask), the function sign(e) that reads the +-1 colour of each
    canonical edge e of K_n off a colouring mask."""
    index = {e: i for i, e in enumerate(complete_edges(n))}
    return lambda mask: lambda e: 1 - 2 * (mask >> index[e] & 1)


def _tree_candidates(n: int) -> tuple:
    """The candidates of the tree theorem, in the order tried: the finder's
    seeds through the colouring's -1 and then its +1 edges, read off the
    mask bits in canonical order, then the tree that the finder's settle
    step (finders._settle) walks to between them (on K_3..K_7 the seeds
    always settle)."""
    edges = complete_edges(n)
    full = (1 << len(edges)) - 1
    k = GUARANTEES["tree", "complete"].k(n)
    seed, settle = finders._tree_seed, finders._settle
    signs = _mask_signs(n)

    def minus_seed(mask):
        tree = seed(n, (e for i, e in enumerate(edges) if mask >> i & 1), edges, k)
        return (lambda t: f"seed {sorted(t)} is not a spanning tree"), tree

    def walked(mask):
        seeds = [minus_seed(mask)[1], minus_seed(full ^ mask)[1]]
        found = settle(_tree_chain, n, seeds, signs(mask))
        tree = found[0] if found else ()
        return (lambda t: f"interpolated tree {sorted(t)} is not a light spanning tree"), tree

    return minus_seed, lambda mask: minus_seed(full ^ mask), walked


def _diam3_candidates(n: int) -> tuple:
    """The candidate of the diam3 theorem: the tree the finder's search
    (finders._diam3_tree) picks from the colouring's -1 rows."""
    edges = complete_edges(n)
    search = finders._diam3_tree

    def candidate(mask):
        route, tree = search(_minus_rows(n, edges, mask), n) or ("no light diameter-3 tree", ())
        return (lambda _: route), tree

    return (candidate,)


def _path_candidates(n: int) -> tuple:
    """The candidate of the path theorems: the path that the finder's search
    (finders._spanning_path) picks from the colouring's signs."""
    search = finders._spanning_path
    signs = _mask_signs(n)

    def candidate(mask):
        how, path, _ = search(signs(mask), n) or ("no half-sized linear forest", (), 0)
        return (lambda _: how), path

    return (candidate,)


def _family_table(kind, candidates, n: int, budget: EnumerationBudget):
    """The check of a family theorem on K_n over the sorted masks of all
    members of kind, refused over budget from their closed-form count, and
    candidates(n): functions of a colouring mask, each giving a (refusal,
    edges) pair, in the order tried, refusal(edges) the text of a refusal."""
    budget.require(kind.budget_field, kind.complete_count(n), "members to enumerate")
    members = _member_masks(n, kind.members)
    bit = _edge_bits(n)
    size = len(members)
    candidates = candidates(n)

    def check(mask):
        # every candidate is checked here against the oracle's own member
        # table, so the finder is trusted for nothing: a non-member is
        # refused, a light member (n-1 edges, |weight| <= 1) confirms, and a
        # heavy one passes on to the next candidate or, the last, is refused
        for candidate in candidates:
            why, sub = candidate(mask)
            t = 0
            for u, v in sub:
                t |= bit[u][v]
            i = bisect_left(members, t)
            if i == size or members[i] != t:
                break
            if abs(n - 1 - 2 * (t & mask).bit_count()) <= 1:
                return None
        if any(abs(n - 1 - 2 * (m & mask).bit_count()) <= 1 for m in members):
            return {"reason": f"finder failed: {why(sub)}"}
        return {"reason": "oracle found no qualifying member"}

    return check


def _short_path_masks(n: int, bit, x: int, y: int):
    """Masks of the x..y paths of K_n of length 2, all n-2 of them (target
    one -1 edge), and of length 4, x-a-b-c-y with a < c only (target two
    -1 edges), over the edge-bit table bit.

    That half of the (n-2)(n-3)(n-4) length-4 paths is enough wherever
    no length-2 path is zero-sum, the only case in which the length-4
    masks are read: then every other vertex u sees x and y with one sign
    (f(xu) = f(uy)), so x-a-b-c-y and its mirror x-c-b-a-y carry equally
    many -1 edges."""
    others = [u for u in range(n) if u not in (x, y)]
    masks2 = [bit[x][u] | bit[u][y] for u in others]
    masks4 = []
    for a in others:
        for c in others:
            if c <= a:
                continue
            for b in others:
                if b in (a, c):
                    continue
                masks4.append(bit[x][a] | bit[a][b] | bit[b][c] | bit[c][y])
    return masks2, masks4


def _has_short_path(mask: int, masks2, masks4) -> bool:
    """Whether a colouring mask has a zero-sum x..y path of length 2 or 4,
    given the path masks of x, y from _short_path_masks."""
    return any((p & mask).bit_count() == 1 for p in masks2) or any(
        (p & mask).bit_count() == 2 for p in masks4
    )


def _connected_table(n: int, budget: EnumerationBudget):
    """The check of the connectivity theorem on K_n over each vertex pair x,
    y and its _short_path_masks, refused over max_paths before any is built."""
    _require_path_masks(n, binomial(n, 2), budget)
    bit = _edge_bits(n)
    pair_masks = [
        (x, y, *_short_path_masks(n, bit, x, y)) for x in range(n) for y in range(x + 1, n)
    ]
    edges = complete_edges(n)
    # the finder's search, run on the oracle's own -1 masks; its path is
    # then checked here, so the finder is trusted for nothing
    search = finders._short_zero_sum_path
    vertices = set(range(n))

    def check(mask):
        minus = _minus_rows(n, edges, mask)
        for x, y, masks2, masks4 in pair_masks:
            found = search(minus, n, x, y)
            if found is None:
                if _has_short_path(mask, masks2, masks4):
                    reason = "finder failed: no zero-sum path of length <= 4"
                else:
                    reason = "oracle found no short zero-sum path"
                break
            # x..y with 2 or 4 edges, distinct vertices of K_n, half of
            # the edges -1
            label, path = found
            k = len(path) - 1
            if (
                (k == 2 or k == 4)
                and path[0] == x
                and path[-1] == y
                and len(vertices.intersection(path)) == k + 1
            ):
                n_minus = 0
                a = x
                for b in path[1:]:
                    n_minus += (minus[a] >> b) & 1
                    a = b
                if 2 * n_minus == k:
                    continue
            reason = f"finder failed: {label} path {path} is not a zero-sum x..y path"
            break
        else:
            return None
        return {"pair": [x, y], "reason": reason}

    return check


# theorem -> build(n, budget), giving check(mask) for a colouring of K_n
# that meets the hypothesis: None when it is confirmed, otherwise the
# fields of its counterexample; finders are looked up when it is built
_CHECKS = {
    "tree": partial(_family_table, SpanningTrees, _tree_candidates),
    "connected": _connected_table,
    "diam3": partial(_family_table, Diam3Trees, _diam3_candidates),
    "path-census": partial(_family_table, HamiltonianPaths, _path_candidates),
}
_CHECKS["path-decomposition"] = _CHECKS["path-census"]
THEOREMS = tuple(_CHECKS)


def _check_range(theorem: str, n: int, lo: int, hi: int, table: tuple) -> TheoremReport:
    """The report of colourings lo..hi-1, table the met list and the check."""
    met, check = table
    report = TheoremReport(theorem, n, lo, hi)
    for mask in range(lo, hi):
        if not met[mask.bit_count()]:
            continue
        report.hypothesis_met += 1
        fields = check(mask)
        if fields is None:
            report.confirmed += 1
        else:
            report.counterexamples.append({"mask": mask, **fields})
    return report


# a pool worker's copy of the parent's table, set by _init_worker; it is
# inherited through fork, so it is never pickled, and dies with the pool
_worker_table = None


def _init_worker(table: tuple) -> None:
    global _worker_table
    _worker_table = table


def _check_chunk(bounds) -> TheoremReport:
    theorem, n, lo, hi = bounds
    return _check_range(theorem, n, lo, hi, _worker_table)


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
    hypothesis.  jobs > 1 splits the range across worker processes, at
    most one per CPU; shards merge associatively.  emit, when given,
    receives a progress dictionary as each chunk completes: colourings
    done and in total, seconds elapsed since the call started, the rate
    in colourings/s, and the hypothesis_met and confirmed totals so far.
    """
    if theorem not in THEOREMS:
        raise DomainError(f"unknown theorem {theorem!r}; choose from {THEOREMS}")
    if n < 2:
        raise DomainError("need n >= 2")
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    budget = budget or DEFAULT_BUDGET
    m = binomial(n, 2)
    if shard is None:
        # the whole space of 2^m colourings, refused from m before it is built
        budget.require("max_colorings", 1, "colourings to check", shift=m)
    lo, hi = (0, 1 << m) if shard is None else shard
    if not (0 <= lo <= hi and (hi - 1).bit_length() <= m):
        raise DomainError(f"shard [{stated(lo)},{stated(hi)}) outside colouring space [0,2^{m})")
    budget.require("max_colorings", hi - lo, "colourings to check")
    start = time.perf_counter()
    # one table a call, built here, before any pool: its workers inherit it
    check = _CHECKS[theorem](n, budget)
    table = _census_met(theorem, n), check
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs == 1 or hi - lo < 8192:
        pool, parts = nullcontext(), [_check_range(theorem, n, lo, hi, table)]
    else:
        step = max(1, (hi - lo + jobs * 4 - 1) // (jobs * 4))
        chunks = [(theorem, n, a, min(a + step, hi)) for a in range(lo, hi, step)]
        pool = get_context("fork").Pool(processes=jobs, initializer=_init_worker, initargs=(table,))
        parts = pool.imap(_check_chunk, chunks)
    merged = TheoremReport(theorem, n, lo, hi)
    done = 0
    with pool:
        for part in parts:
            merged.hypothesis_met += part.hypothesis_met
            merged.confirmed += part.confirmed
            merged.counterexamples.extend(part.counterexamples)
            done += part.hi - part.lo
            if emit is not None:
                elapsed = time.perf_counter() - start
                emit({
                    "type": "progress",
                    "done": done,
                    "total": hi - lo,
                    "elapsed_s": round(elapsed, 3),
                    "rate": round(done / elapsed, 1) if elapsed > 0 else None,
                    "hypothesis_met": merged.hypothesis_met,
                    "confirmed": merged.confirmed,
                })
    return merged
