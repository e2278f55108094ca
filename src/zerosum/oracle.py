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

import os
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Iterator, Optional, Union

from . import finders
from .errors import BudgetExceeded, DomainError
from .families import (
    DEFAULT_BUDGET,
    Diam3Trees,
    EnumerationBudget,
    FamilyKind,
    HamiltonianPaths,
    PerfectMatchings,
    SpanningTrees,
)
from .graphs import ColoredGraph, EdgeSubgraph, binomial, canonical_edge, complete_edges
from .thresholds import GUARANTEES, decomposition_bound


def _require_budget(kind, budget: EnumerationBudget) -> None:
    """Refuse (BudgetExceeded, stating the required budget) when the
    closed-form member count of kind exceeds its budget field."""
    count = kind.count()
    limit = getattr(budget, kind.budget_field)
    if count > limit:
        raise BudgetExceeded(
            f"{count:,} members to enumerate; requires {kind.budget_field} >= {count:,} "
            f"(budget is {limit:,})"
        )


def _require_path_masks(n: int, pairs: int, budget: EnumerationBudget) -> None:
    """Refuse (BudgetExceeded) when the length-4 path masks of that many
    vertex pairs of K_n, (n-2)(n-3)(n-4)/2 a pair, exceed max_paths."""
    count = pairs * (n - 2) * (n - 3) * (n - 4) // 2
    if count > budget.max_paths:
        raise BudgetExceeded(
            f"{count:,} length-4 path masks to build; requires max_paths >= {count:,} "
            f"(budget is {budget.max_paths:,})"
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
    _require_budget(kind, budget or DEFAULT_BUDGET)

    def generate():
        for edge_set in kind.edge_sets():
            member = EdgeSubgraph._unchecked(g, edge_set)
            if not kind.is_member(member):
                raise AssertionError(f"enumerated member failed validation: {sorted(edge_set)}")
            yield member

    return generate()


# --- exhaustive theorem checks ---------------------------------------------------

THEOREMS = ("tree", "connected", "diam3", "path-census", "path-decomposition")

# family theorem -> (family whose members the scan looks for, the name of
# its finder, looked up on finders when a scan starts)
_FAMILY_THEOREMS = {
    "tree": (SpanningTrees, "find_zero_sum_spanning_tree"),
    "diam3": (Diam3Trees, "find_zero_sum_diam3_tree"),
    "path-census": (HamiltonianPaths, "find_zero_sum_spanning_path"),
    "path-decomposition": (HamiltonianPaths, "find_zero_sum_spanning_path"),
}


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


def _mask_of(edge_set, eidx) -> int:
    mask = 0
    for e in edge_set:
        mask |= 1 << eidx[e]
    return mask


def _family_masks(family, eidx) -> list[int]:
    return [_mask_of(s, eidx) for s in family.edge_sets()]


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


def _theorem_table(theorem: str, n: int, budget: EnumerationBudget) -> tuple:
    """What a theorem's scan looks up for every colouring: the met list of
    _census_met, and the masks of all family members or, for connected,
    each vertex pair x, y with the mask of the other vertices and the masks
    of the x..y paths of length 4.  Built once per exhaustive_theorem_check
    call; a table larger than its budget field is refused before it is
    built."""
    met = _census_met(theorem, n)
    eidx = {e: i for i, e in enumerate(complete_edges(n))}
    if theorem == "connected":
        _require_path_masks(n, binomial(n, 2), budget)
        full = (1 << n) - 1
        return met, [
            (x, y, full ^ (1 << x) ^ (1 << y), _short_path_masks(n, eidx, x, y)[1])
            for x in range(n)
            for y in range(x + 1, n)
        ]
    family = _FAMILY_THEOREMS[theorem][0](ColoredGraph.complete(n))
    _require_budget(family, budget)
    return met, _family_masks(family, eidx)


def _check_range(theorem: str, n: int, lo: int, hi: int, table: tuple) -> TheoremReport:
    if theorem == "connected":
        return _connected_core(n, lo, hi, table)
    return _family_core(theorem, n, lo, hi, table)


# a pool worker's copy of the parent's table, set by _init_worker; it is
# inherited through fork, so it is never pickled, and dies with the pool
_worker_table = None


def _init_worker(table: tuple) -> None:
    global _worker_table
    _worker_table = table


def _check_chunk(bounds) -> TheoremReport:
    theorem, n, lo, hi = bounds
    return _check_range(theorem, n, lo, hi, _worker_table)


def _family_core(theorem: str, n: int, lo: int, hi: int, table: tuple) -> TheoremReport:
    met, masks = table
    edges = complete_edges(n)
    # -1 edge counts of an n-1 edge member of weight 0 or +-1
    t1, t2 = (n - 1) // 2, n // 2
    finder = getattr(finders, _FAMILY_THEOREMS[theorem][1])
    report = TheoremReport(theorem, n, lo, hi)
    ces = report.counterexamples
    nmasks = len(masks)
    last = 0
    for mask in range(lo, hi):
        if not met[mask.bit_count()]:
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


def _connected_core(n: int, lo: int, hi: int, table: tuple) -> TheoremReport:
    met, pair_masks = table
    edges = complete_edges(n)
    # the finder's search, run on the oracle's own -1 masks; its path is
    # then checked here, so the finder is trusted for nothing
    search = finders._short_zero_sum_path
    vertices = set(range(n))
    report = TheoremReport("connected", n, lo, hi)
    ces = report.counterexamples
    for mask in range(lo, hi):
        if not met[mask.bit_count()]:
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
        for x, y, others, masks4 in pair_masks:
            if not (minus[x] ^ minus[y]) & others and not any(
                (p & mask).bit_count() == 2 for p in masks4
            ):
                reason = "oracle found no short zero-sum path"
                break
            found = search(minus, n, x, y)
            if found is None:
                reason = "finder failed: no zero-sum path of length <= 4"
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
            report.confirmed += 1
            continue
        ces.append({"mask": mask, "pair": [x, y], "reason": reason})
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
    hypothesis.  jobs > 1 splits the range across worker processes, at
    most one per CPU; shards merge associatively.  emit, when given,
    receives progress dictionaries as chunks complete.
    """
    if theorem not in THEOREMS:
        raise DomainError(f"unknown theorem {theorem!r}; choose from {THEOREMS}")
    if n < 2:
        raise DomainError("need n >= 2")
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
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
    table = _theorem_table(theorem, n, budget)
    jobs = min(jobs, os.cpu_count() or 1)
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
