"""Exact extremal edge-count formulas, the guarantee table and the
Master Theorem verdict.

Everything here is integer arithmetic; there is no floating point.  The
formulas give, for each supported family, the largest number of edges a
host can spend on one colour class without being forced to contain the
half-sized monochromatic subgraph that the finders need.  GUARANTEES
turns them into the census condition of every guarantee the finders,
the oracle, the CLI and master_verdict apply; a new guarantee is one
entry there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from .errors import DomainError
from .graphs import EdgeSubgraph, binomial, census


def linear_forest_witness_sizes(n: int, k: int) -> dict[str, int]:
    """Edge counts of the two n-vertex graphs with no linear forest of k
    edges whose larger gives ex_linear_forest: "clique", K_k plus isolated
    vertices, C(k,2); "join", s = floor((k-1)/2) vertices joined to all
    others plus one more edge when c, the parity of k-1, is 1,
    C(n,2) - C(n-s,2) + c."""
    if not 1 <= k <= n - 1:
        raise DomainError(f"need 1 <= k <= n-1, got n={n}, k={k}")
    s = (k - 1) // 2
    return {"clique": binomial(k, 2), "join": binomial(n, 2) - binomial(n - s, 2) + (k - 1) % 2}


def ex_linear_forest(n: int, k: int) -> int:
    """Most edges of an n-vertex graph with no linear forest of k edges:
    the larger of linear_forest_witness_sizes(n, k)."""
    return max(linear_forest_witness_sizes(n, k).values())


def ex_forest(n: int, k: int) -> int:
    """Most edges of an n-vertex graph with no forest of k edges: C(k,2)."""
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got n={n}, k={k}")
    return binomial(k, 2)


def ex_star(n: int, k: int) -> int:
    """Most edges of an n-vertex graph with no k-edge star: floor((k-1)n/2)."""
    if k < 1:
        raise DomainError(f"need k >= 1, got k={k}")
    return (k - 1) * n // 2


def forest_bound_triangle_free(k: int) -> int:
    """Edge threshold whose strict excess forces a k-edge forest in a
    triangle-free host: floor(k^2/4)."""
    if k < 1:
        raise DomainError(f"need k >= 1, got k={k}")
    return k * k // 4


def forest_bound_degenerate(k: int, d: int) -> int:
    """Edge threshold whose strict excess forces a k-edge forest in a
    d-degenerate host."""
    if k < 1 or d < 1:
        raise DomainError(f"need k >= 1 and d >= 1, got k={k}, d={d}")
    if k <= d:
        return binomial(k, 2)
    return k * d - binomial(d + 1, 2)


def forest_bound_planar(k: int) -> int:
    """Edge count at which a planar host is forced to contain a k-edge
    forest (reaching the bound suffices): 3k-5."""
    if k < 3:
        raise DomainError(f"planar forest bound needs k >= 3, got k={k}")
    return 3 * k - 5


def spanning_path_threshold(n: int) -> int:
    """Census threshold for zero-sum or almost zero-sum spanning paths:
    ex(n, half-sized linear forests) = ex_linear_forest(n, floor((n-1)/2))."""
    if n < 3:
        raise DomainError(f"need n >= 3, got n={n}")
    return ex_linear_forest(n, (n - 1) // 2)


@dataclass(frozen=True, eq=False)
class Guarantee:
    """The census condition of one guarantee on one host class.

    The finder needs a monochromatic k(n)-edge subgraph, half a family
    member, in each colour class; min{e(-1), e(1)} above bound(n) forces
    both (reaching it suffices when strict is False).  bound_at(n, k, d)
    evaluates the bound, d being the degeneracy of a d-tree host and 0
    elsewhere.  The guarantee covers orders n >= min_n(d); the tree
    finder answers smaller ones uncertified.  text is the condition as
    certificates print it; label and host name the host class there,
    host also in the certificate for a graph outside the class.
    exact is False when the bound only caps the true threshold from above.
    """

    bound_at: Callable[[int, int, int], int]
    text: str
    strict: bool = True
    min_n: Callable[[int], int] = lambda d: 2
    k: Callable[[int], int] = lambda n: (n - 1) // 2
    exact: bool = True
    label: str = ""
    host: str = ""

    def bound(self, n: int, d: int = 0) -> int:
        return self.bound_at(n, self.k(n), d)

    def threshold(self, n: int, d: int = 0) -> int:
        """bound(n, d), refusing an order the finder does not accept."""
        if n < self.min_n(d):
            raise DomainError(f"need n >= {self.min_n(d)}, got n={n}")
        return self.bound(n, d)

    def holds(self, minimum: int, bound: int) -> bool:
        return minimum > bound if self.strict else minimum >= bound

    # kept per argument tuple: find_zero_sum_path_leq4 asks it again for
    # each vertex pair of one graph, as find-large's connect operations do
    @lru_cache(maxsize=64)
    def condition(self, n: int, minimum: int, d: int = 0) -> tuple[bool, str]:
        """Whether a census minimum meets the condition at order n (which
        also needs n >= min_n(d)), and the condition's certificate text."""
        bound = self.bound(n, d)
        holds = n >= self.min_n(d) and self.holds(minimum, bound)
        label = self.label.format(d=d)
        return holds, self.text.format(minimum=minimum, bound=bound, label=label)


_TREE_TEXT = "{label} host: min{{e(-1),e(1)}}={minimum} needs > {bound}"

# (guarantee, host class) -> census condition.  Guarantees are named as
# the oracle's theorems, host classes as the CLI's --host-class choices.
# On K_1 and K_2 (k = 0) the census minimum is 0, and the tree and diam3
# bounds are 0 there, so their conditions never hold.
GUARANTEES = {
    ("tree", "complete"): Guarantee(
        lambda n, k, d: ex_forest(n, k) if k else 0, _TREE_TEXT,
        label="complete", host="complete",
    ),
    ("tree", "triangle-free"): Guarantee(
        lambda n, k, d: forest_bound_triangle_free(k), _TREE_TEXT,
        k=lambda n: n // 2, label="triangle-free", host="triangle-free",
    ),
    ("tree", "dtree"): Guarantee(
        lambda n, k, d: forest_bound_degenerate(k, d), _TREE_TEXT,
        min_n=lambda d: 2 * d + 2, label="{d}-tree", host="a {d}-tree",
    ),
    ("tree", "planar"): Guarantee(
        lambda n, k, d: forest_bound_planar(k),
        "{label} host: min{{e(-1),e(1)}}={minimum} needs >= {bound}", strict=False,
        min_n=lambda d: 7, label="stacked-planar", host="a certified stacked maximal planar graph",
    ),
    # only the star Turan number is known here; it bounds the true
    # half-family threshold from above, so the condition stays sufficient
    ("diam3", "complete"): Guarantee(
        lambda n, k, d: ex_star(n, k) if k else 0,
        "min{{e(-1),e(1)}}={minimum} needs > {bound} = floor(n/2*floor((n-3)/2))",
        min_n=lambda d: 3, exact=False,
    ),
    ("path-census", "complete"): Guarantee(
        lambda n, k, d: spanning_path_threshold(n),
        "census threshold not met: min{{e(-1),e(1)}}={minimum} <= {bound}", min_n=lambda d: 3,
    ),
    # any two vertices are joined by a zero-sum path of length <= 4
    ("connected", "complete"): Guarantee(
        lambda n, k, d: (n + 2) // 2,
        "census min={minimum}, threshold ceil((n+1)/2)={bound}", strict=False, min_n=lambda d: 6,
    ),
}


def decomposition_bound(n: int) -> int:
    """Master Theorem conditions 2 and 3 on K_n: |f(K_n)| below this forces
    a spanning path of weight at most 1 in absolute value.

    K_n splits into n/2 spanning paths (n even) or (n-1)/2 spanning cycles
    (n odd), so some part weighs at most |f| times the part size over
    C(n,2); the bounds (2+c)/(n-1)*C(n,2) and (3+c)/n*C(n,2), with c the
    parity of n-1, both equal 3*floor(n/2).
    """
    return 3 * (n // 2)


@dataclass(frozen=True)
class ConditionReport:
    holds: bool
    bound: int
    note: str = ""


@dataclass(frozen=True)
class MasterVerdict:
    """Evaluation of the three sufficient conditions for a family on K_n.

    condition1 compares min{e(-1), e(1)} against the family's census
    bound in GUARANTEES; condition2/condition3 compare |f(K_n)| against
    decomposition_bound for even/odd n.  The decomposition conditions are
    reported only when the parts of the decomposition, spanning paths, are
    family members; when absent they are None, not False.
    """

    condition1: ConditionReport
    condition2: Optional[ConditionReport]
    condition3: Optional[ConditionReport]
    c: int
    m: int


def master_verdict(kind) -> MasterVerdict:
    """Evaluate all available sufficient conditions for the family on its host."""
    g = kind.host
    n = g.n
    m = n - 1
    cs = census(g)
    guarantee = GUARANTEES[kind.guarantee, "complete"]
    bound = guarantee.bound(n)
    note = "exact" if guarantee.exact else "upper bound"
    cond1 = ConditionReport(guarantee.holds(cs.minimum, bound), bound, note)

    cond2 = cond3 = None
    path = EdgeSubgraph._unchecked(g, frozenset((v, v + 1) for v in range(m)))
    if g.is_complete and n >= 2 and kind.is_member(path):
        bound = decomposition_bound(n)
        holds = abs(cs.total_weight) < bound
        if n % 2 == 0:
            cond2 = ConditionReport(holds, bound, "path decomposition")
        else:
            cond3 = ConditionReport(holds, bound, "cycle decomposition")
    return MasterVerdict(cond1, cond2, cond3, m % 2, m)
