"""Brute-force ground truth at desk scale.

Enumerates whole families (spanning trees, Hamiltonian paths, diameter-3
trees, perfect matchings) and iterates entire colouring spaces as sign
bitmasks over the canonical edge order.  Each theorem has one check,
built once per call over tables of members or vertex pairs built once
per process, that one loop runs on every colouring meeting the
hypothesis, handing it the mask alone.  Every check runs the finder's
own search on the one form of the colouring it needs: the mask, the
edges of its bits, or, for the diam3 and connected checks only, its
per-vertex -1 rows, which each of those checks keeps with one follower
(_rows_follower) that works for any order of masks.  So no colouring
is built into a graph.  The searches hand over edges or paths only, and
each check has one shape: it tests the finder's member (a family check
against the oracle's own table of members and the mask; the connected
check each path's ends against its own list of vertex pairs and its
signs against the mask), and only to word a refusal tests whether one
exists.

Enumerations refuse instead of sampling when a budget would be
exceeded; the budget is checked once per call, also where a table is
already kept.  Colouring ranges shard cleanly: shards share only those
immutable tables, and their reports merge associatively.
"""

from __future__ import annotations

import os
import time
from bisect import bisect_left
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import zip_longest
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
from .graphs import EdgeSubgraph, binomial, complete_edges
from .thresholds import GUARANTEES, decomposition_bound


def _require_path_masks(n: int, pairs: int, budget: EnumerationBudget) -> None:
    """Refuse (BudgetExceeded) when the length-4 path masks of that many
    vertex pairs of K_n, (n-2)(n-3)(n-4)/2 a pair, exceed max_paths."""
    budget.require(
        "max_paths", pairs * (n - 2) * (n - 3) * (n - 4) // 2, "length-4 path masks to build"
    )


def enumerate_family(
    kind: Union[FamilyKind, PerfectMatchings], budget: EnumerationBudget | None = None
) -> Iterator[EdgeSubgraph]:
    """Stream every member of the family on its host exactly once, validated.

    Refuses upfront (BudgetExceeded, stating the required budget) when
    the closed-form member count exceeds the kind's budget field.
    """
    (budget or DEFAULT_BUDGET).require(kind.budget_field, kind.count(), "members to enumerate")

    def generate():
        for edge_set in kind.edge_sets():
            member = EdgeSubgraph._unchecked(kind.host, edge_set)
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


def _rows_follower(n: int):
    """rows(mask): the per-vertex -1 rows of a colouring of K_n (the
    graph's minus_masks(), read off the mask) in one list that starts at
    mask 0 and is kept across calls: each call flips, in both rows, every
    edge whose bit differs from the mask of the call before, so masks may
    come in any order.  A search handed the list and writing into it
    leaves the rows wrong for later masks too; the checks read every
    sign they judge off the mask instead."""
    flips = {1 << i: (u, 1 << u, v, 1 << v) for i, (u, v) in enumerate(complete_edges(n))}
    rows = [0] * n
    last = 0

    def follow(mask):
        nonlocal last
        diff, last = mask ^ last, mask
        while diff:
            low = diff & -diff
            u, bu, v, bv = flips[low]
            rows[u] ^= bv
            rows[v] ^= bu
            diff ^= low
        return rows

    return follow


def _edge_bits(n: int) -> list[list[int]]:
    """bit[u][v] = bit[v][u] = the bit of edge uv in a colouring mask of K_n."""
    bit = [[0] * n for _ in range(n)]
    for i, (u, v) in enumerate(complete_edges(n)):
        bit[u][v] = bit[v][u] = 1 << i
    return bit


@lru_cache(maxsize=4)
def _member_masks(n: int, members) -> tuple[int, ...]:
    """The masks of all members of a family of K_n, n >= 2, members(n,
    table) yielding each one's edges uv as table[u][v] of the edge-bit
    table; sorted, so that the family check tests membership by bisection,
    and kept for the process as a tuple that no caller can change."""
    return tuple(sorted(sum(bits) for bits in members(n, _edge_bits(n))))


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


def _tree_candidates(n: int) -> tuple:
    """The candidates of the tree theorem, in the order tried: the finder's
    seeds through the colouring's -1 and then its +1 edges, read off the
    mask bits in canonical order, then the tree that the finder's settle
    step (finders._settle) walks to between them, or None where it finds
    none (on K_3..K_7 the seeds always settle)."""
    edges = complete_edges(n)
    full = (1 << len(edges)) - 1
    k = GUARANTEES["tree", "complete"].k(n)
    seed, settle = finders._tree_seed, finders._settle

    def minus_seed(mask):
        return seed(n, (e for i, e in enumerate(edges) if mask >> i & 1), edges, k)

    def walked(mask):
        seeds, sign = [minus_seed(mask), minus_seed(full ^ mask)], finders._mask_sign(mask, n)
        found = settle(_tree_chain, n, seeds.__getitem__, finders._weights(seeds, sign), sign)
        return found[0] if found else None

    return (
        ("seed through the -1 edges", minus_seed),
        ("seed through the +1 edges", lambda mask: minus_seed(full ^ mask)),
        ("interpolated tree", walked),
    )


def _diam3_candidates(n: int) -> tuple:
    """The candidate of the diam3 theorem: the tree the finder's search
    (finders._diam3_tree) picks from the colouring's -1 rows, which the
    candidate's own _rows_follower keeps, or None."""
    search, rows = finders._diam3_tree, _rows_follower(n)

    def tree(mask):
        return (search(rows(mask), n) or (None, None))[1]

    return (("diameter-3 tree", tree),)


def _path_candidates(n: int) -> tuple:
    """The candidate of the path theorems: the path that the finder's search
    (finders._spanning_path) picks from the colouring mask, or None."""
    search = finders._spanning_path

    def path(mask):
        return (search(mask, n) or (None, None))[1]

    return (("spanning path", path),)


def _sorted(values):
    """values in sorted order for a refusal's text, or as given where they
    cannot be sorted."""
    try:
        return sorted(values)
    except TypeError:
        return values


def _family_table(kind, candidates, n: int, budget: EnumerationBudget):
    """The check of a family theorem on K_n over the sorted masks of all
    members of kind, refused over budget from their closed-form count on
    every call, also where the masks are already kept, and
    candidates(n): (name, edges) pairs in the order tried, edges(mask) the
    edges a search hands over for the colouring of that mask, or None."""
    budget.require(kind.budget_field, kind.complete_count(n), "members to enumerate")
    members = _member_masks(n, kind.members)
    bit = {e: 1 << i for i, e in enumerate(complete_edges(n))}
    size = len(members)
    candidates = candidates(n)

    def check(mask):
        # every candidate is checked here against the oracle's own member
        # table, so the finder is trusted for nothing: no edges (t = 0) or
        # an edge not of K_n in canonical order (t = -1), whatever its type,
        # is no member and is refused, a light member (n-1 edges, |weight|
        # <= 1) confirms, and a heavy one passes on to the next candidate
        # or, the last, is refused
        for name, edges in candidates:
            sub = edges(mask)
            t = 0
            try:
                for e in sub or ():
                    t |= bit.get(e, -1)
            except TypeError:
                # edges that are not iterable, or an edge that is no key
                t = -1
            i = bisect_left(members, t)
            if i == size or members[i] != t:
                what = "not found" if sub is None else f"{_sorted(sub)} is outside the family"
                break
            if abs(n - 1 - 2 * (t & mask).bit_count()) <= 1:
                return None
        else:
            what = f"{sorted(sub)} has weight {n - 1 - 2 * (t & mask).bit_count()}"
        if any(abs(n - 1 - 2 * (m & mask).bit_count()) <= 1 for m in members):
            return {"reason": f"finder failed: {name} {what}"}
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
    masks2 = tuple(bit[x][u] | bit[u][y] for u in others)
    masks4 = tuple(
        bit[x][a] | bit[a][b] | bit[b][c] | bit[c][y]
        for a in others
        for c in others
        if a < c
        for b in others
        if b != a and b != c
    )
    return masks2, masks4


@lru_cache(maxsize=4)
def _pair_masks(n: int) -> tuple:
    """(x, y, masks2, masks4) for every vertex pair x < y of K_n, in order,
    masks2 and masks4 its _short_path_masks; kept for the process."""
    bit = _edge_bits(n)
    return tuple(
        (x, y, *_short_path_masks(n, bit, x, y)) for x in range(n) for y in range(x + 1, n)
    )


def _has_short_path(mask: int, masks2, masks4) -> bool:
    """Whether a colouring mask has a zero-sum x..y path of length 2 or 4,
    given the path masks of x, y from _short_path_masks."""
    return any((p & mask).bit_count() == 1 for p in masks2) or any(
        (p & mask).bit_count() == 2 for p in masks4
    )


def _connected_table(n: int, budget: EnumerationBudget):
    """The check of the connectivity theorem on K_n.  Each colouring makes
    one call of the finder's all-pairs search on its -1 rows, which the
    check's own _rows_follower keeps, whose paths must run, in order,
    between the oracle's own vertex pairs x < y and be zero-sum in the
    colouring, as read from the mask through the edge-bit table: a pair
    skipped, repeated or swapped fails at the path ends, an early end at
    the fill value ().  The pairs' _pair_masks, refused over max_paths on
    every call before they are built or read, only word a refusal."""
    _require_path_masks(n, binomial(n, 2), budget)
    pair_masks = _pair_masks(n)
    bit = _edge_bits(n)
    # the finder's search, run on the followed -1 rows; its answers are
    # then checked here against the mask alone, so the finder is trusted
    # for nothing, not even to leave the rows it reads as they were
    search, rows = finders._short_zero_sum_paths, _rows_follower(n)
    vertices = set(range(n))

    def check(mask):
        for pair, path in zip_longest(pair_masks, search(rows(mask), n), fillvalue=()):
            if not pair:
                return {"pair": None, "reason": f"finder failed: answer {path} past the last pair"}
            x, y, masks2, masks4 = pair
            if path is None:
                if _has_short_path(mask, masks2, masks4):
                    reason = "finder failed: no zero-sum path of length <= 4"
                else:
                    reason = "oracle found no short zero-sum path"
                break
            try:
                if len(path) == 3:
                    # x-u-y is zero-sum iff u sees x and y with opposite signs
                    u = path[1]
                    if (
                        path[0] == x
                        and path[2] == y
                        and 0 <= u < n
                        and u != x
                        and u != y
                        and (mask & (bit[x][u] | bit[u][y])).bit_count() == 1
                    ):
                        continue
                elif (
                    # x..y with 4 edges, distinct vertices of K_n, two of them -1
                    len(path) == 5
                    and path[0] == x
                    and path[4] == y
                    and len(vertices.intersection(path)) == 5
                ):
                    _, a, b, c, _ = path
                    if (mask & (bit[x][a] | bit[a][b] | bit[b][c] | bit[c][y])).bit_count() == 2:
                        continue
            except (TypeError, LookupError):
                # no sequence of vertices, or a vertex that is no int
                pass
            reason = f"finder failed: {path} is not a zero-sum {x}..{y} path of length 2 or 4"
            break
        else:
            return None
        return {"pair": [x, y], "reason": reason}

    return check


# theorem -> build(n, budget), giving check(mask) for a colouring of K_n
# that meets the hypothesis, the masks in any order: None when it is
# confirmed, otherwise the fields of its counterexample; finders are
# looked up when it is built
_CHECKS = {
    "tree": partial(_family_table, SpanningTrees, _tree_candidates),
    "connected": _connected_table,
    "diam3": partial(_family_table, Diam3Trees, _diam3_candidates),
    "path-census": partial(_family_table, HamiltonianPaths, _path_candidates),
}
_CHECKS["path-decomposition"] = _CHECKS["path-census"]
THEOREMS = tuple(_CHECKS)


def _check_range(theorem: str, n: int, lo: int, hi: int, table: tuple) -> TheoremReport:
    """The report of colourings lo..hi-1, table the met list and the
    check, which reads each met mask alone."""
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
    # the budget checks and the check, once per call, here and before any
    # pool, over member and pair tables built once per process: the pool's
    # workers inherit both
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
