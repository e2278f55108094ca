"""Tests of the benchmark's own checks, inputs and tracer.

Run from the repository root with either of:

    python3 -m unittest discover -s bench
    python3 -m pytest bench
"""

from __future__ import annotations

import unittest
from collections import Counter
from math import comb

import checks
import corpus
import run
from spans import LAYER_METRICS, PATCHES, Tracer

zs = run.import_zerosum()


def k5_sign(minus):
    return {e: -1 if e in minus else 1 for e in corpus.complete_edges(5)}


class OutputCheckTest(unittest.TestCase):
    # K_5 with a zero-sum Hamiltonian path 0-1-2-3-4 (n-1 = 4 is even)
    PATH = [(0, 1), (1, 2), (2, 3), (3, 4)]
    SIGN = k5_sign({(1, 2), (3, 4), (0, 4)})

    def test_valid_outputs_pass(self):
        self.assertIsNone(checks.check_output("path", 5, self.SIGN, self.PATH, 0))
        self.assertIsNone(checks.check_output("tree", 5, self.SIGN, self.PATH, 0))
        star = [(0, 1), (0, 2), (0, 3), (0, 4)]  # weights +1 +1 +1 -1
        self.assertIsNotNone(checks.check_output("diam3", 5, self.SIGN, star, 2))
        star_sign = k5_sign({(0, 1), (0, 4)})
        self.assertIsNone(checks.check_output("diam3", 5, star_sign, star, 0))
        self.assertIsNone(checks.check_output("connect", 5, self.SIGN, [(0, 1), (1, 2)], 0, (0, 2)))

    def test_extra_edge_is_rejected(self):
        edges = self.PATH + [(0, 4)]
        self.assertIsNotNone(checks.check_output("tree", 5, self.SIGN, edges, -1))
        self.assertIsNotNone(checks.check_output("path", 5, self.SIGN, edges, -1))
        connect = [(0, 1), (1, 2), (3, 4)]  # a zero-sum 0-2 path plus a stray edge
        self.assertIsNotNone(checks.check_output("connect", 5, self.SIGN, connect, -1, (0, 2)))

    def test_flipped_sign_is_rejected(self):
        flipped = dict(self.SIGN)
        flipped[(0, 1)] = -1
        # the reported weight no longer matches the generated colouring
        self.assertIsNotNone(checks.check_output("path", 5, flipped, self.PATH, 0))
        # and the true weight misses the target
        self.assertIsNotNone(checks.check_output("path", 5, flipped, self.PATH, -2))

    def test_cycle_is_rejected(self):
        cycle = [(0, 1), (1, 2), (0, 2), (3, 4)]
        self.assertIsNotNone(checks.check_output("tree", 5, k5_sign({(1, 2), (3, 4)}), cycle, 0))
        connect_cycle = [(0, 1), (1, 4), (0, 2), (2, 4)]
        sign = k5_sign({(1, 4), (2, 4)})
        self.assertIsNotNone(checks.check_output("connect", 5, sign, connect_cycle, 0, (0, 4)))

    def test_shape_violations_are_rejected(self):
        spider = [(0, 1), (0, 2), (0, 3), (3, 4)]
        sign = k5_sign({(0, 1), (0, 2)})
        self.assertIsNone(checks.check_output("tree", 5, sign, spider, 0))
        self.assertIsNotNone(checks.check_output("path", 5, sign, spider, 0))
        self.assertIsNotNone(checks.check_output("diam3", 5, self.SIGN, self.PATH, 0))
        host = {(0, 1): 1, (1, 2): -1}
        self.assertIsNotNone(checks.check_output("tree", 3, host, [(0, 1), (0, 2)], 0))

    def test_odd_member_size_needs_weight_one(self):
        sign = {e: 1 for e in corpus.complete_edges(4)}
        sign[(0, 1)] = -1
        self.assertIsNone(checks.check_output("path", 4, sign, [(0, 1), (1, 2), (2, 3)], 1))
        sign[(1, 2)] = -1
        self.assertIsNone(checks.check_output("path", 4, sign, [(0, 1), (1, 2), (2, 3)], -1))
        all_plus = {e: 1 for e in corpus.complete_edges(4)}
        self.assertIsNotNone(checks.check_output("path", 4, all_plus, [(0, 1), (1, 2), (2, 3)], 3))

    def test_real_finder_outputs_pass(self):
        item = corpus.shard_find_inputs(corpus.verify_shards("verify-k7", 5), 5)[0]
        g = zs.graphs.read_edge_list(item.text)
        report = zs.finders.find_zero_sum_spanning_tree(g)
        self.assertTrue(report.found)
        edges = report.subgraph.edges
        self.assertIsNone(checks.check_output("tree", 7, item.sign, edges, report.weight))


def _graphs(n):
    edges = corpus.complete_edges(n)
    for mask in range(1 << len(edges)):
        yield [e for i, e in enumerate(edges) if (mask >> i) & 1]


def _forest_size(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    size = 0
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
            size += 1
    return size


class FormulaTest(unittest.TestCase):
    def test_forest_and_star_bounds_by_brute_force(self):
        for n in (5, 6):
            k = (n - 1) // 2
            graphs = list(_graphs(n))
            no_forest = max(len(g) for g in graphs if _forest_size(n, g) < k)
            self.assertEqual(no_forest, checks.tree_bound(n))
            no_star = max(
                len(g) for g in graphs
                if max((sum(v in e for e in g) for v in range(n)), default=0) < k
            )
            self.assertEqual(no_star, checks.diam3_bound(n))

    def test_bounds_agree_with_the_package(self):
        th = zs.thresholds
        for n in range(7, 80):
            k = (n - 1) // 2
            self.assertEqual(checks.path_bound(n), th.spanning_path_threshold(n))
            self.assertEqual(checks.tree_bound(n), th.ex_forest(n, k))
            self.assertEqual(checks.diam3_bound(n), th.ex_star(n, k))
            self.assertEqual(checks.triangle_free_bound(n), th.forest_bound_triangle_free(n // 2))
            self.assertEqual(checks.dtree_bound(n, 2), th.forest_bound_degenerate(k, 2))
            self.assertEqual(checks.planar_bound(n), th.forest_bound_planar(k))

    def test_formula_count_equals_brute_force_on_small_shards(self):
        rng = corpus.random.Random(7)
        for n, free in ((6, 8), (7, 9), (8, 9)):
            for theorem in ("tree", "diam3", "path-census", "connected"):
                shard = corpus.balanced_shard(theorem, n, free, rng)
                edges = corpus.complete_edges(n)
                brute = 0
                for mask in range(shard.lo, shard.hi):
                    e_minus = sum(1 for i in range(len(edges)) if (mask >> i) & 1)
                    brute += checks.complete_hypothesis(theorem, n, e_minus)
                self.assertEqual(shard.expected_met, brute, (theorem, n))
                report = zs.exhaustive_theorem_check(theorem, n, shard=(shard.lo, shard.hi))
                self.assertEqual(report.hypothesis_met, brute, (theorem, n))
                self.assertEqual(report.confirmed, brute, (theorem, n))

    def test_balanced_shard_popcounts(self):
        for seed in range(5):
            shard = corpus.balanced_shard("tree", 7, 13, corpus.random.Random(seed))
            self.assertEqual(shard.hi - shard.lo, 1 << 13)
            self.assertEqual((shard.lo >> 13).bit_count(), 4)
            # tree at n=7 needs 3 < e(-1) < 18; e(-1) = 4 + popcount of the low bits
            expected = sum(comb(13, j) for j in range(14) if 3 < 4 + j < 18)
            self.assertEqual(shard.expected_met, expected)

    def test_verify_plan_and_find_mix(self):
        for workload, (n, plan) in corpus.VERIFY_PLANS.items():
            shards = corpus.verify_shards(workload, 3)
            self.assertEqual(shards, corpus.verify_shards(workload, 3))
            counts = Counter(shard.theorem for shard in shards)
            self.assertEqual(counts, {t: count for t, (count, _) in plan.items()})
            for shard in shards:
                self.assertEqual(shard.n, n)
                self.assertEqual(shard.hi - shard.lo, 1 << plan[shard.theorem][1])
        finds = corpus.shard_find_inputs(corpus.verify_shards("verify-k7", 3), 3)
        kinds = Counter(item.kind for item in finds)
        expected = {corpus.FINDER_OF[t]: k for t, k in corpus.SHARD_FIND_SAMPLES.items()}
        self.assertEqual(kinds, expected)


class CorpusTest(unittest.TestCase):
    def test_same_seed_same_corpus_and_fixed_make_up(self):
        a = corpus.find_corpus(1, zs.extremal)
        b = corpus.find_corpus(1, zs.extremal)
        c = corpus.find_corpus(2, zs.extremal)
        self.assertEqual([x.text for x in a], [x.text for x in b])
        self.assertEqual([(x.group, x.n) for x in a], [(x.group, x.n) for x in c])
        self.assertNotEqual([x.text for x in a], [x.text for x in c])
        gap_a = [x.text for x in a if x.group == "path-census-gap"]
        gap_c = [x.text for x in c if x.group == "path-census-gap"]
        self.assertEqual(gap_a, gap_c)

    def test_inputs_parse_to_the_generated_colouring(self):
        for item in corpus.find_corpus(3, zs.extremal)[:: 7]:
            g = zs.graphs.read_edge_list(item.text)
            self.assertEqual(g.sign, item.sign)
            if item.host[0] == "planar":
                self.assertTrue(zs.graphs.host_class_check(g, zs.graphs.MAXIMAL_PLANAR_STACKED))


class TracerTest(unittest.TestCase):
    def test_wrappers_pass_through_and_are_removed(self):
        originals = [getattr(getattr(zs, m), a) for m, a, _ in PATCHES]
        shards = corpus.verify_shards("find-large", 1)
        finds = corpus.shard_find_inputs(shards, 1)[:40]
        plain = run.Tally()
        run.run_round(zs, shards[:1], finds, plain)
        tracer = Tracer(zs)
        tracer.install()
        traced = run.Tally()
        try:
            run.run_round(zs, shards[:1], finds, traced)
        finally:
            tracer.uninstall()
        self.assertEqual([getattr(getattr(zs, m), a) for m, a, _ in PATCHES], originals)
        outcome = [(t.attempted, t.failed, t.correct) for t in (plain, traced)]
        self.assertEqual(outcome[0], outcome[1])
        layers = tracer.layer_metrics(1.0)
        self.assertEqual(set(layers), {name for name, _, _ in LAYER_METRICS})
        self.assertEqual(layers["oracle.colourings"], shards[0].hi - shards[0].lo)
        self.assertEqual(layers["finders.tree.calls"], shards[0].expected_met + 40)
        self.assertGreater(layers["graphs.read_edge_list_s"], 0)
        calls, total, self_time = tracer.totals()
        for name in calls:
            self.assertLessEqual(self_time[name], total[name] + 1e-9)


if __name__ == "__main__":
    unittest.main()
