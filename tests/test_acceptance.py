"""Acceptance suite.

One test per criterion; each prints an `ACCEPTANCE <id>: PASS/FAIL` line.
The exhaustive runs iterate full colouring spaces (2^21 colourings for
n = 7) and take several minutes; they shard across available CPUs.
"""

import math
import os
import random
import time
from contextlib import contextmanager

from conftest import complete_from_mask
from zerosum.decompositions import (
    hamilton_cycle_decomposition,
    hamilton_path_decomposition,
)
from zerosum.extremal import (
    BipartiteSharpness,
    ConnectivityMatching,
    ConnectivitySmall,
    DTreeSharpness,
    MatchingK4n,
    NoLength2,
    PathSharpness,
    PlanarSharpness,
    TreeSharpness,
    make_extremal_graph,
    verify_extremal,
)
from zerosum.families import (
    Diam3Trees,
    ExchangeChain,
    HamiltonianPaths,
    SpanningTrees,
    _prufer_edges,
    interpolate_traced,
)
from zerosum.graphs import (
    EdgeSubgraph,
    binomial,
    census,
    is_hamiltonian_path,
    weight,
)
from zerosum.oracle import (
    EnumerationBudget,
    PerfectMatchings,
    enumerate_family,
    exhaustive_theorem_check,
)
from zerosum.thresholds import (
    ex_forest,
    ex_linear_forest,
    ex_star,
    forest_bound_degenerate,
    forest_bound_planar,
    forest_bound_triangle_free,
    spanning_path_threshold,
)

JOBS = os.cpu_count() or 1
BIG = EnumerationBudget(max_colorings=1 << 21)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {label}: FAIL", flush=True)
        raise
    print(f"\nACCEPTANCE {label}: PASS", flush=True)


# --- criterion 1: formula suite -------------------------------------------------


def test_criterion_1_formula_suite():
    with criterion("1 formula suite"):
        start = time.time()
        assert ex_linear_forest(10, 5) == 17
        assert ex_linear_forest(10, 4) == 10
        # the quoted closed form evaluates to max{10, 15-6+0} = 10 at (6, 5);
        # confirmed against the exhaustive Turan scan in test_thresholds
        assert ex_linear_forest(6, 5) == 10
        assert ex_forest(10, 4) == 6
        assert ex_forest(5, 1) == 0
        assert ex_forest(7, 7) == 21
        assert ex_star(7, 3) == 7
        assert ex_star(6, 1) == 0
        assert ex_star(9, 4) == 13
        assert forest_bound_triangle_free(4) == 4
        assert forest_bound_degenerate(5, 2) == 7
        assert forest_bound_planar(5) == 10
        assert spanning_path_threshold(10) == 10
        assert spanning_path_threshold(7) == 6
        for n in range(3, 51):
            assert spanning_path_threshold(n) == ex_linear_forest(n, (n - 1) // 2)
        assert time.time() - start < 1.0


# --- criterion 2: interpolation invariant ---------------------------------------


def _random_tree(g, rng):
    n = g.n
    if n <= 2:
        return EdgeSubgraph._unchecked(g, frozenset(g.edges))
    seq = tuple(rng.randrange(n) for _ in range(n - 2))
    return EdgeSubgraph._unchecked(g, frozenset(_prufer_edges(seq, n)))


def _random_hampath(g, rng):
    order = list(range(g.n))
    rng.shuffle(order)
    from zerosum.graphs import canonical_edge

    return EdgeSubgraph._unchecked(
        g, frozenset(canonical_edge(a, b) for a, b in zip(order, order[1:]))
    )


def _random_diam3(g, rng):
    from zerosum.graphs import canonical_edge

    n = g.n
    if rng.random() < 0.3 or n < 4:
        c = rng.randrange(n)
        edges = [canonical_edge(c, v) for v in range(n) if v != c]
    else:
        u, v = rng.sample(range(n), 2)
        rest = [x for x in range(n) if x not in (u, v)]
        rng.shuffle(rest)
        cut = rng.randrange(1, len(rest))
        edges = [canonical_edge(u, v)]
        edges += [canonical_edge(u, x) for x in rest[:cut]]
        edges += [canonical_edge(v, x) for x in rest[cut:]]
    return EdgeSubgraph._unchecked(g, frozenset(edges))


def test_criterion_2_interpolation_invariant():
    with criterion("2 interpolation invariant"):
        rng = random.Random(20260810)
        samplers = (
            (SpanningTrees, _random_tree, None),
            (HamiltonianPaths, _random_hampath, lambda n: 2 * (n - 1)),
            (Diam3Trees, _random_diam3, lambda n: 2 * (n - 2)),
        )
        for n in range(5, 10):
            m = binomial(n, 2)
            interpolated = 0
            for _ in range(10_000):
                g = complete_from_mask(n, rng.getrandbits(m))
                for kind_cls, sampler, rep_bound in samplers:
                    kind = kind_cls(g)
                    lo = hi = None
                    for _ in range(24):
                        h = sampler(g, rng)
                        w = weight(h)
                        if w <= 0 and lo is None:
                            lo = h
                        if w >= 0 and hi is None:
                            hi = h
                        if lo is not None and hi is not None:
                            break
                    if lo is None or hi is None:
                        continue  # lopsided colouring: no qualifying pair sampled
                    steps = []
                    z, reps = interpolate_traced(kind, lo, hi, collect=steps)
                    w = weight(z)
                    assert abs(w) <= 1 and w % 2 == (n - 1) % 2
                    ExchangeChain(tuple(steps)).validate(kind)
                    if rep_bound is not None:
                        assert reps <= rep_bound(n)
                    interpolated += 1
            assert interpolated > 20_000, f"n={n}: too few qualifying pairs"


# --- criterion 3: exhaustive theorem verification --------------------------------


def _tail(m, bound):
    """Colourings of m edges with min{e(-1), e(1)} <= bound (both tails)."""
    return 2 * sum(binomial(m, i) for i in range(bound + 1))


def test_criterion_3_exhaustive_theorem_verification():
    with criterion("3 exhaustive theorem verification"):
        runs = []

        # spanning-tree guarantee: n = 5, 6 full; n = 7 full 2^21 space
        for n in (5, 6, 7):
            expect = (1 << binomial(n, 2)) - _tail(
                binomial(n, 2), ex_forest(n, (n - 1) // 2)
            )
            runs.append(("tree", n, expect))

        # zero-sum connectivity: n = 6, 7
        for n in (6, 7):
            expect = (1 << binomial(n, 2)) - _tail(binomial(n, 2), (n + 2) // 2 - 1)
            runs.append(("connected", n, expect))

        # diameter-3 guarantee: n = 6, 7
        for n in (6, 7):
            expect = (1 << binomial(n, 2)) - _tail(
                binomial(n, 2), ex_star(n, (n - 1) // 2)
            )
            runs.append(("diam3", n, expect))

        # spanning paths, census form: n = 6, 7
        for n in (6, 7):
            expect = (1 << binomial(n, 2)) - _tail(
                binomial(n, 2), spanning_path_threshold(n)
            )
            runs.append(("path-census", n, expect))

        # spanning paths, decomposition examples: n = 6, 7
        for n in (6, 7):
            m = binomial(n, 2)
            lim2 = 3 * n if n % 2 == 0 else 3 * (n - 1)
            expect = sum(binomial(m, e) for e in range(m + 1) if 2 * abs(m - 2 * e) < lim2)
            runs.append(("path-decomposition", n, expect))

        for theorem, n, expect in runs:
            t0 = time.time()
            report = exhaustive_theorem_check(theorem, n, budget=BIG, jobs=JOBS)
            assert report.passed, (theorem, n, report.counterexamples[:3])
            assert report.hypothesis_met == report.confirmed == expect, (theorem, n)
            print(
                f"  {theorem} n={n}: {report.colourings:,} colourings, "
                f"{report.confirmed:,} confirmed, {time.time() - t0:.0f}s",
                flush=True,
            )


# --- criterion 4: sharpness suite -------------------------------------------------


def test_criterion_4_sharpness_suite():
    with criterion("4 sharpness suite"):
        witnesses = [
            ConnectivitySmall(4),
            ConnectivitySmall(5),
            ConnectivityMatching(6),
            ConnectivityMatching(7),
            ConnectivityMatching(8),
            ConnectivityMatching(9),
            TreeSharpness(7),
            PathSharpness(7),
            BipartiteSharpness(4),
            BipartiteSharpness(5),
            DTreeSharpness(8, 2),
            PlanarSharpness(9),
            NoLength2(7),
        ]
        for cid in witnesses:
            assert verify_extremal(cid), cid

        g = make_extremal_graph(MatchingK4n(2))
        cs = census(g)
        assert (cs.e_plus, cs.e_minus) == (63, 57)
        total = 0
        for matching in enumerate_family(g, PerfectMatchings(g)):
            assert weight(matching) != 0
            total += 1
        assert total == 2_027_025
        assert verify_extremal(MatchingK4n(2))

        # the NoLength2 witness keeps the census nearly balanced
        g = make_extremal_graph(NoLength2(7))
        cs = census(g)
        assert abs(cs.e_minus - cs.e_plus) <= 1


# --- criterion 5: decomposition suite ---------------------------------------------


def test_criterion_5_decomposition_suite():
    with criterion("5 decomposition suite"):
        for n in range(2, 15, 2):
            dec = hamilton_path_decomposition(n)
            seen = set()
            for part in dec.parts:
                assert is_hamiltonian_path(part)
                assert not (seen & part.edges)
                seen |= part.edges
            assert len(seen) == binomial(n, 2)
        for n in range(3, 16, 2):
            dec = hamilton_cycle_decomposition(n)
            host = dec.parts[0].host
            seen = set()
            for part in dec.parts:
                assert len(part.edges) == n
                assert not (seen & part.edges)
                seen |= part.edges
                for e in part.edges:
                    assert is_hamiltonian_path(EdgeSubgraph(host, part.edges - {e}))
            assert len(seen) == binomial(n, 2)


# --- criterion 6: oracle self-checks ----------------------------------------------


def test_criterion_6_oracle_self_checks():
    with criterion("6 oracle self-checks"):
        from zerosum.graphs import ColoredGraph

        for n in range(2, 9):
            g = ColoredGraph.complete(n)
            assert sum(1 for _ in enumerate_family(g, SpanningTrees(g))) == n ** (n - 2)
        for n in range(2, 9):
            g = ColoredGraph.complete(n)
            count = sum(1 for _ in enumerate_family(g, HamiltonianPaths(g)))
            assert count == math.factorial(n) // 2
        for n in range(2, 17, 2):
            g = ColoredGraph.complete(n)
            count = sum(1 for _ in enumerate_family(g, PerfectMatchings(g)))
            assert count == math.prod(range(1, n, 2))


# --- census-route linear-forest constructor ---------------------------------------


def test_linear_forest_constructor_on_every_7_vertex_colour_class():
    # a colouring of K_7 meets the census hypothesis when both colour
    # classes have 7..14 edges; the greedy must find a 3-edge linear
    # forest in every labelled such class
    from zerosum.finders import _linear_forest

    k = 3
    assert spanning_path_threshold(7) == 6
    checked = 0
    for mask in range(1 << 21):
        if not 7 <= mask.bit_count() <= 14:
            continue
        assert _linear_forest(mask, 7, -1, k) is not None, mask
        checked += 1
    assert checked == sum(binomial(21, e) for e in range(7, 15))



# --- diameter-3 double-star rule ---------------------------------------------------


def test_double_star_rule_matches_oracle_scan_on_every_k7_colouring():
    # with no hypothesis, the double-star rule finds a diameter-3 tree of
    # |w| <= 1 on K_7 exactly when the oracle's family-mask scan finds a
    # member with 3 -1 edges; below the census hypothesis, so does the
    # public finder
    from zerosum.families import Diam3Trees
    from zerosum.finders import _diam3_tree, find_zero_sum_diam3_tree
    from zerosum.oracle import _census_met, _member_masks

    n = 7
    met, masks = _census_met("diam3", n), _member_masks(n, Diam3Trees.members)
    light = ((n - 1) // 2, n // 2)
    found = below = 0
    for mask in range(1 << binomial(n, 2)):
        exists = any((m & mask).bit_count() in light for m in masks)
        g = complete_from_mask(n, mask)
        assert (_diam3_tree(g.minus_masks(), n) is not None) == exists, mask
        if not met[mask.bit_count()]:
            assert find_zero_sum_diam3_tree(g).found == exists, mask
            below += 1
        found += exists
    assert 0 < found < 1 << 21 and below == 396_880
