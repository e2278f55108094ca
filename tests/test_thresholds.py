import argparse
import itertools
from fractions import Fraction

import pytest

from conftest import complete_from_mask
from zerosum import cli, oracle
from zerosum.errors import DomainError
from zerosum.families import Diam3Trees, HamiltonianPaths, SpanningTrees
from zerosum.graphs import ColoredGraph, binomial, complete_edges
from zerosum.thresholds import (
    GUARANTEES,
    decomposition_bound,
    ex_forest,
    ex_linear_forest,
    ex_star,
    forest_bound_degenerate,
    forest_bound_planar,
    forest_bound_triangle_free,
    master_verdict,
    spanning_path_threshold,
)


def test_ex_linear_forest_values():
    assert ex_linear_forest(10, 5) == 17
    assert ex_linear_forest(10, 4) == 10
    # the formula gives 10 at (6,5): max{C(5,2), C(6,2)-C(4,2)+0} = max{10, 9}
    assert ex_linear_forest(6, 5) == 10


def _linear_forest_masks(n, k):
    """All k-edge linear forests of K_n as edge bitmasks (direct check)."""
    edges = complete_edges(n)
    masks = []
    for combo in itertools.combinations(range(len(edges)), k):
        deg = {}
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        ok = True
        for i in combo:
            u, v = edges[i]
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
            if deg[u] > 2 or deg[v] > 2:
                ok = False
                break
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[rv] = ru
        if ok:
            masks.append(sum(1 << i for i in combo))
    return masks


def test_ex_linear_forest_6_5_against_exhaustive_turan_oracle():
    # independent ground truth: the densest 6-vertex graph with no 5-edge
    # linear forest, found by scanning all 2^15 graphs
    lf = _linear_forest_masks(6, 5)
    best = 0
    for mask in range(1 << 15):
        cnt = mask.bit_count()
        if cnt <= best:
            continue
        if not any(m & mask == m for m in lf):
            best = cnt
    assert best == 10 == ex_linear_forest(6, 5)


def test_ex_forest_values():
    assert ex_forest(10, 4) == 6
    assert ex_forest(5, 1) == 0
    assert ex_forest(7, 7) == 21


def test_ex_star_values():
    assert ex_star(7, 3) == 7
    assert ex_star(6, 1) == 0
    assert ex_star(9, 4) == 13


def test_host_class_forest_bounds():
    assert forest_bound_triangle_free(4) == 4
    assert forest_bound_degenerate(5, 2) == 7
    assert forest_bound_degenerate(2, 3) == 1  # C(2,2) branch
    assert forest_bound_degenerate(4, 3) == 6  # k = d+1: both branches agree
    assert forest_bound_planar(5) == 10


def test_spanning_path_threshold_values():
    assert spanning_path_threshold(10) == 10
    assert spanning_path_threshold(7) == 6


def test_spanning_path_threshold_matches_linear_forest_formula():
    for n in range(3, 51):
        assert spanning_path_threshold(n) == ex_linear_forest(n, (n - 1) // 2)


def test_forests_never_harder_than_linear_forests():
    # linear forests are forests, so forbidding them allows more edges
    for n in range(2, 31):
        for k in range(1, n):
            assert ex_linear_forest(n, k) >= ex_forest(n, k)


def test_domain_errors():
    with pytest.raises(DomainError):
        ex_linear_forest(5, 5)
    with pytest.raises(DomainError):
        ex_forest(4, 5)
    with pytest.raises(DomainError):
        ex_star(5, 0)
    with pytest.raises(DomainError):
        forest_bound_planar(2)
    with pytest.raises(DomainError):
        spanning_path_threshold(2)


def test_master_verdict_condition1():
    g = ColoredGraph.complete_with_minus(6, [(0, 1), (0, 2)])
    v = master_verdict(g, SpanningTrees(g))
    assert v.condition1.holds and v.condition1.bound == 1
    assert v.m == 5 and v.c == 1
    # diameter-3 threshold is only an upper bound and says so
    v3 = master_verdict(g, Diam3Trees(g))
    assert v3.condition1.note == "upper bound"


def test_master_verdict_condition2_all_plus_k8():
    g = ColoredGraph.complete(8)
    v = master_verdict(g, HamiltonianPaths(g))
    assert v.condition2 is not None
    assert v.condition2.bound == Fraction(12)
    assert not v.condition2.holds  # |f| = 28 is far beyond 12
    assert v.condition3 is None  # no spanning-cycle decomposition for even n


def test_master_verdict_condition3_balanced_k9():
    edges = complete_edges(9)
    g = complete_from_mask(9, (1 << 18) - 1)  # first 18 edges -1: |f| = 0
    v = master_verdict(g, HamiltonianPaths(g))
    assert v.condition3 is not None and v.condition3.holds
    assert v.condition3.bound == Fraction(12)
    assert v.condition2 is None


def test_master_verdict_strict_at_boundary():
    # |f(K_4)| = 6 and the path-decomposition bound is (2+1)/3*6 = 6: strict
    g = ColoredGraph.complete(4)
    v = master_verdict(g, HamiltonianPaths(g))
    assert v.condition2 is not None and v.condition2.bound == Fraction(6)
    assert not v.condition2.holds


def test_master_verdict_decomposition_availability_for_diam3():
    g4 = ColoredGraph.complete(4)
    assert master_verdict(g4, Diam3Trees(g4)).condition2 is not None  # P_4 has diameter 3
    g3 = ColoredGraph.complete(3)
    assert master_verdict(g3, Diam3Trees(g3)).condition3 is not None
    g8 = ColoredGraph.complete(8)
    v = master_verdict(g8, Diam3Trees(g8))
    assert v.condition2 is None and v.condition3 is None  # P_8 is too long


def test_master_verdict_requires_matching_host():
    g = ColoredGraph.complete(5)
    other = ColoredGraph.complete_with_minus(5, [(0, 1)])
    with pytest.raises(DomainError):
        master_verdict(g, SpanningTrees(other))


def _host_class_choices():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices["find"]._actions if a.dest == "host_class")


def test_guarantee_table_covers_every_theorem_and_host_class():
    for theorem in oracle.THEOREMS:
        # path-decomposition is decided by decomposition_bound, not a census
        assert theorem == "path-decomposition" or (theorem, "complete") in GUARANTEES
    choices = _host_class_choices()
    assert set(choices) == set(cli.HOST_CLASSES)
    for host_class in choices:
        assert ("tree", host_class) in GUARANTEES


# (guarantee, host class) -> its bound at order n and degeneracy d,
# written out from the paper's formula
FORMULAS = {
    ("tree", "complete"): lambda n, d: ex_forest(n, (n - 1) // 2),
    ("tree", "triangle-free"): lambda n, d: forest_bound_triangle_free(n // 2),
    ("tree", "dtree"): lambda n, d: forest_bound_degenerate((n - 1) // 2, d),
    ("tree", "planar"): lambda n, d: forest_bound_planar((n - 1) // 2),
    ("diam3", "complete"): lambda n, d: ex_star(n, (n - 1) // 2),
    ("path-census", "complete"): lambda n, d: spanning_path_threshold(n),
    ("connected", "complete"): lambda n, d: (n + 2) // 2,
}


def _value_or_error(fn, *args):
    try:
        return fn(*args)
    except DomainError:
        return DomainError


def test_guarantee_bounds_equal_the_formulas_they_name():
    assert set(FORMULAS) == set(GUARANTEES)
    for key, guarantee in GUARANTEES.items():
        expected = FORMULAS[key]
        for d in (1, 2, 3) if key[1] == "dtree" else (0,):
            for n in range(3, 41):
                assert _value_or_error(guarantee.bound, n, d) == _value_or_error(
                    expected, n, d
                ), (key, n, d)


def test_decomposition_bound_equals_the_master_theorem_fractions():
    for n in range(2, 41):
        m = n - 1
        c = m % 2
        pairs = binomial(n, 2)
        if n % 2 == 0:
            assert decomposition_bound(n) == Fraction((2 + c) * pairs, m)
        else:
            assert decomposition_bound(n) == Fraction((3 + c) * pairs, m + 1)
