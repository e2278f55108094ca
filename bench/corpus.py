"""Seeded inputs for the benchmark workloads.

Every input is built from the seed alone.  The verify shards fix their
high bits to a balanced pattern, so every seed gives the same popcount
distribution.  The find corpus has a fixed make-up (the sizes and
densities of its slots do not depend on the seed); the seed picks the
colourings, the random hosts and the relabellings.  The census-route gap
inputs are the one part that does not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb

import checks

# workload -> order of K_n, theorem -> (shards, free low bits of each).
# Each shard is one exhaustive_theorem_check call.  The seed draws every
# shard's fixed high bits, and how much work a shard takes depends on
# them: at n=6 one diam3 shard of 2^10 ran from 23k to 28k colourings/s
# across seeds.  Several small shards a theorem average that out, and
# give the best-of-rounds timing short calls that fit in a quiet spell of
# the host.  A theorem gets fewer, larger shards where the call's fixed
# cost, mostly the family table (12 ms for spanning paths at n=7, 3 ms
# for trees at n=6), would pass about a tenth of it.  Trees at n=7 are
# the exception: their 80 ms table is a third of a 2^12 call, but one
# 2^13 call was too long to meet quiet spells and spread 26-31% by run.
VERIFY_PLANS = {
    "verify-k7": (7, {"tree": (2, 12), "diam3": (16, 9), "path-census": (4, 11),
                      "connected": (8, 8)}),
    # the small verify phase of find-large, so that it reports verify_*_cps too
    "find-large": (6, {"tree": (1, 10), "diam3": (16, 7), "path-census": (4, 8),
                       "connected": (4, 6)}),
}

# theorem of the oracle -> finder kind used by the find operations
FINDER_OF = {"tree": "tree", "diam3": "diam3", "path-census": "path", "connected": "connect"}

# find operations per theorem on a verify workload.  Tree and path finds
# take about 0.065 ms at n=7, diam3 0.10 ms and connect 0.19 ms; with equal
# counts the median would fall in the gap between the first two groups
# and the rest, and jump across it from run to run.  With these counts it
# lies inside the diam3 group and the 90th percentile inside connect.
SHARD_FIND_SAMPLES = {"tree": 64, "diam3": 160, "path-census": 64, "connected": 96}
FIND_COPIES = 3  # seeded draws of every find-large slot per round

TREE_COMPLETE_N = (40, 55, 70, 85, 100)
BIPARTITE_HALF = (15, 25, 35, 45)  # host K_{h,h+1} on 2h+1 vertices
DTREE_N = (101, 201, 301)
PLANAR_N = (101, 201, 301)
DIAM3_N = (40, 55, 70, 85, 100)
PATH_CENSUS_N = (9, 10, 11, 12)  # the census route's exhaustive search runs here
PATH_DECOMPOSITION_N = (20, 40, 60, 80)
CONNECT_N = (20, 30, 40)
# near-threshold spanning-path inputs above the census route's size cap;
# built from a fixed seed so that the failures they hit repeat exactly
CENSUS_GAP_N = (13, 14, 15, 16, 18, 20, 25, 30)
CENSUS_GAP_SEED = 20200716


@dataclass(frozen=True)
class Shard:
    theorem: str
    n: int
    lo: int
    hi: int
    expected_met: int


@dataclass(frozen=True)
class FindInput:
    group: str  # corpus slot, for reports
    kind: str  # "tree", "path", "diam3" or "connect"
    n: int
    text: str  # edge-list file contents, as `zerosum find` reads them
    sign: dict  # the generated colouring, canonical edge -> -1/+1
    host: tuple = ("complete",)  # ("complete",), ("triangle-free",), ("dtree", d), ("planar",)
    pairs: tuple = ()  # vertex pairs of a "connect" operation


def complete_edges(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


# --- verify shards ------------------------------------------------------------


def balanced_shard(theorem: str, n: int, free_bits: int, rng: random.Random) -> Shard:
    """A contiguous block of 2^free_bits colourings of K_n whose fixed high
    bits carry floor(h/2) ones among the h = C(n,2) - free_bits of them."""
    high_bits = comb(n, 2) - free_bits
    ones = rng.sample(range(high_bits), high_bits // 2)
    lo = sum(1 << i for i in ones) << free_bits
    expected = checks.expected_hypothesis_count(theorem, n, high_bits // 2, free_bits)
    return Shard(theorem, n, lo, lo + (1 << free_bits), expected)


def verify_shards(workload: str, seed: int) -> list[Shard]:
    n, plan = VERIFY_PLANS[workload]
    rng = random.Random(f"{seed}:shards")
    return [
        balanced_shard(theorem, n, bits, rng)
        for theorem, (count, bits) in plan.items()
        for _ in range(count)
    ]


def shard_find_inputs(shards: list[Shard], seed: int) -> list[FindInput]:
    """Colourings drawn from each theorem's shards that meet its hypothesis,
    each run through the finder one at a time, as `zerosum find` would."""
    rng = random.Random(f"{seed}:shard-finds")
    by_theorem: dict[str, list[Shard]] = {}
    for shard in shards:
        by_theorem.setdefault(shard.theorem, []).append(shard)
    inputs = []
    for theorem, group in by_theorem.items():
        kind = FINDER_OF[theorem]
        picked = 0
        while picked < SHARD_FIND_SAMPLES[theorem]:
            shard = rng.choice(group)
            mask = rng.randrange(shard.lo, shard.hi)
            if not checks.complete_hypothesis(theorem, shard.n, mask.bit_count()):
                continue
            edges = complete_edges(shard.n)
            sign = {e: -1 if (mask >> i) & 1 else 1 for i, e in enumerate(edges)}
            text = edge_list(shard.n, sign)
            pairs = tuple(edges) if kind == "connect" else ()
            inputs.append(FindInput(f"{kind}-n{shard.n}", kind, shard.n, text, sign, pairs=pairs))
            picked += 1
    return inputs


# --- colourings and hosts -----------------------------------------------------


def edge_list(n: int, sign: dict, certificate=None) -> str:
    lines = []
    if certificate is not None:
        base, inserts = certificate
        lines.append("# stacked-base: {} {} {}".format(*base))
        lines.extend(f"# stacked-insert: {v} {a} {b} {c}" for v, (a, b, c) in inserts)
    lines.append(f"{n} {len(sign)}")
    lines.extend(f"{u} {v} {c}" for (u, v), c in sorted(sign.items()))
    return "\n".join(lines) + "\n"


def relabel(n: int, sign: dict, rng: random.Random, certificate=None):
    perm = list(range(n))
    rng.shuffle(perm)
    out = {}
    for (u, v), c in sign.items():
        a, b = perm[u], perm[v]
        out[(a, b) if a < b else (b, a)] = c
    if certificate is not None:
        base, inserts = certificate
        certificate = (
            tuple(perm[x] for x in base),
            tuple((perm[v], tuple(perm[x] for x in face)) for v, face in inserts),
        )
    return out, certificate


def with_extra_minus(sign: dict, extra: int, rng: random.Random) -> dict:
    """Flip `extra` randomly chosen +1 edges to -1."""
    plus = sorted(e for e, c in sign.items() if c == 1)
    out = dict(sign)
    for e in rng.sample(plus, extra):
        out[e] = -1
    return out


def random_colouring(edges, e_minus: int, rng: random.Random) -> dict:
    minus = set(rng.sample(sorted(edges), e_minus))
    return {e: -1 if e in minus else 1 for e in edges}


def random_dtree(n: int, d: int, rng: random.Random) -> set:
    """d-tree grown from K_{d+1} by joining each new vertex to a random
    d-clique."""
    edges = set(combinations(range(d + 1), 2))
    cliques = list(combinations(range(d + 1), d))
    for v in range(d + 1, n):
        clique = rng.choice(cliques)
        edges.update((x, v) for x in clique)
        cliques.extend(tuple(y for y in clique if y != x) + (v,) for x in clique)
    return edges


def random_stacked_planar(n: int, rng: random.Random):
    """Stacked triangulation filling a random face at each step, with its
    construction certificate (base triangle, insertions)."""
    faces = [(0, 1, 2), (0, 1, 2)]
    edges = {(0, 1), (0, 2), (1, 2)}
    inserts = []
    for v in range(3, n):
        i = rng.randrange(len(faces))
        faces[i], faces[-1] = faces[-1], faces[i]
        a, b, c = faces.pop()
        edges.update({(a, v), (b, v), (c, v)})
        faces.extend([(a, b, v), (b, c, v), (a, c, v)])
        inserts.append((v, (a, b, c)))
    return edges, ((0, 1, 2), tuple(inserts))


# --- the find-large corpus ----------------------------------------------------

THEOREM_OF = {kind: theorem for theorem, kind in FINDER_OF.items()}


def _minus_count(sign: dict) -> int:
    return sum(1 for c in sign.values() if c < 0)


def _complete_input(group, kind, n, sign, rng, pairs=()) -> FindInput:
    """A relabelled K_n input; raises if it misses its census hypothesis."""
    sign, _ = relabel(n, sign, rng)
    e_minus = _minus_count(sign)
    holds = checks.complete_hypothesis(THEOREM_OF[kind], n, e_minus)
    if group == "path-decomposition":
        holds = holds and checks.path_decomposition_hypothesis(n, e_minus)
    if not holds:
        raise RuntimeError(f"{group} n={n}: e(-1)={e_minus} misses the census hypothesis")
    return FindInput(group, kind, n, edge_list(n, sign), sign, pairs=pairs)


def _host_input(group, n, sign, host, rng, certificate=None) -> FindInput:
    """A relabelled spanning-tree input on a non-complete host class."""
    sign, certificate = relabel(n, sign, rng, certificate)
    e_minus = _minus_count(sign)
    d = host[1] if host[0] == "dtree" else 0
    if not checks.host_hypothesis(host[0], n, e_minus, len(sign) - e_minus, d):
        raise RuntimeError(f"{group} n={n}: e(-1)={e_minus} misses the census hypothesis")
    return FindInput(group, "tree", n, edge_list(n, sign, certificate), sign, host=host)


def find_corpus(seed: int, ex) -> list[FindInput]:
    """The find-large corpus; ex is zerosum.extremal, which builds the
    sharpness witnesses behind the near-threshold inputs."""
    rng = random.Random(f"{seed}:find-large")
    out = []
    for _ in range(FIND_COPIES):
        out.extend(_seeded_slots(rng, ex))
    out.extend(census_gap_inputs(ex))
    return out


def _seeded_slots(rng: random.Random, ex) -> list[FindInput]:
    """One draw of every seeded slot: sharpness witnesses plus 1-3 extra
    -1 edges, and random colourings up to balance."""
    out = []

    witness = ex.make_extremal_graph

    def near(sign: dict) -> dict:
        return with_extra_minus(sign, rng.randint(1, 3), rng)

    def complete(group, kind, n, sign, pairs=()):
        out.append(_complete_input(group, kind, n, sign, rng, pairs))

    def hosted(group, n, sign, host, certificate=None):
        out.append(_host_input(group, n, sign, host, rng, certificate))

    for n in TREE_COMPLETE_N:
        edges = complete_edges(n)
        half = len(edges) // 2
        complete("tree-complete", "tree", n, near(witness(ex.TreeSharpness(n)).sign))
        for e_minus in ((checks.tree_bound(n) + half) // 2, half):
            complete("tree-complete", "tree", n, random_colouring(edges, e_minus, rng))

    for h in BIPARTITE_HALF:
        n, host = 2 * h + 1, ("triangle-free",)
        g = witness(ex.BipartiteSharpness(h))
        hosted("tree-bipartite", n, near(g.sign), host)
        hosted("tree-bipartite", n, random_colouring(g.edges, len(g.edges) // 2, rng), host)

    for d in (2, 3):
        for n in DTREE_N:
            group, host = f"tree-{d}tree", ("dtree", d)
            hosted(group, n, near(witness(ex.DTreeSharpness(n, d)).sign), host)
            edges = random_dtree(n, d, rng)
            bound = checks.dtree_bound(n, d)
            e_minus = rng.randrange(bound + 1, len(edges) - bound)
            hosted(group, n, random_colouring(edges, e_minus, rng), host)

    for n in PLANAR_N:
        host = ("planar",)
        g = witness(ex.PlanarSharpness(n))
        cert = (g.certificate.base, g.certificate.insertions)
        hosted("tree-planar", n, near(g.sign), host, cert)
        edges, cert = random_stacked_planar(n, rng)
        bound = checks.planar_bound(n)
        e_minus = rng.randrange(bound, len(edges) - bound + 1)
        hosted("tree-planar", n, random_colouring(edges, e_minus, rng), host, cert)

    for n in DIAM3_N:
        edges = complete_edges(n)
        # the star-free circulant is emitted as a bare graph: colour it -1 inside K_n
        star_free = witness(ex.StarExtremalCirculant(n, (n - 1) // 2)).sign
        complete("diam3", "diam3", n, near({e: -1 if e in star_free else 1 for e in edges}))
        complete("diam3", "diam3", n, random_colouring(edges, len(edges) // 2, rng))

    for n in PATH_CENSUS_N:
        edges = complete_edges(n)
        complete("path-census", "path", n, near(witness(ex.PathSharpness(n)).sign))
        complete("path-census", "path", n, random_colouring(edges, len(edges) // 2, rng))

    for n in PATH_DECOMPOSITION_N:
        edges = complete_edges(n)
        fits = [e for e in range(len(edges) + 1) if checks.path_decomposition_hypothesis(n, e)]
        complete("path-decomposition", "path", n, random_colouring(edges, rng.choice(fits), rng))

    for n in CONNECT_N:
        edges = complete_edges(n)
        pairs = tuple(edges)
        complete("connect", "connect", n, near(witness(ex.ConnectivityMatching(n)).sign), pairs)
        complete("connect", "connect", n, random_colouring(edges, len(edges) // 2, rng), pairs)
    return out


def census_gap_inputs(ex) -> list[FindInput]:
    """Spanning-path sharpness witnesses plus 1-3 extra -1 edges, relabelled,
    at n above the census route's size cap.  The census hypothesis holds,
    so a found=False here is the census-route gap.  Seed-independent."""
    rng = random.Random(CENSUS_GAP_SEED)
    out = []
    for n in CENSUS_GAP_N:
        sign = ex.make_extremal_graph(ex.PathSharpness(n)).sign
        sign = with_extra_minus(sign, rng.randint(1, 3), rng)
        out.append(_complete_input("path-census-gap", "path", n, sign, rng))
    return out
