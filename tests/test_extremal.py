import hashlib
import itertools
from dataclasses import fields
from pathlib import Path

import pytest

from zerosum.errors import BudgetExceeded, DomainError
from zerosum.extremal import (
    CONSTRUCTIONS,
    BipartiteSharpness,
    ConnectivityMatching,
    ConnectivitySmall,
    DTreeSharpness,
    ForestExtremal,
    MatchingK4n,
    NoLength2,
    NoZeroSumStar,
    PathSharpness,
    PlanarSharpness,
    StarExtremalCirculant,
    TreeSharpness,
    TuranLinearForest,
    construction_from_args,
    construction_header,
    make_extremal_graph,
    verify_extremal,
)
from zerosum.graphs import (
    DTree,
    MAXIMAL_PLANAR_STACKED,
    TRIANGLE_FREE,
    binomial,
    census,
    host_class_check,
    write_edge_list,
)
from zerosum.oracle import EnumerationBudget
from zerosum.thresholds import (
    ex_linear_forest,
    ex_star,
    forest_bound_degenerate,
    spanning_path_threshold,
)


def test_turan_linear_forest_edge_counts():
    for n in range(4, 12):
        for k in range(1, n):
            s, c = (k - 1) // 2, (k - 1) % 2
            clique = make_extremal_graph(TuranLinearForest(n, k, "clique"))
            join = make_extremal_graph(TuranLinearForest(n, k, "join"))
            assert len(clique.edges) == binomial(k, 2)
            assert len(join.edges) == binomial(n, 2) - binomial(n - s, 2) + c
            assert ex_linear_forest(n, k) == max(len(clique.edges), len(join.edges))


def _contains_k_edge_linear_forest(g, k):
    # test-local backtracking, independent of the package's search routines
    edges = list(g.edges)
    deg = [0] * g.n
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def rec(start, picked):
        if picked == k:
            return True
        if len(edges) - start < k - picked:
            return False
        for i in range(start, len(edges)):
            u, v = edges[i]
            if deg[u] >= 2 or deg[v] >= 2:
                continue
            ru, rv = find(u), find(v)
            if ru == rv:
                continue
            parent[rv] = ru
            deg[u] += 1
            deg[v] += 1
            if rec(i + 1, picked + 1):
                return True
            parent[rv] = rv
            deg[u] -= 1
            deg[v] -= 1
        return False

    return rec(0, 0)


@pytest.mark.parametrize("n", [6, 8, 10])
@pytest.mark.parametrize("which", ["clique", "join"])
def test_turan_witnesses_have_no_k_edge_linear_forest(n, which):
    for k in range(2, n):
        g = make_extremal_graph(TuranLinearForest(n, k, which))
        assert not _contains_k_edge_linear_forest(g, k), (n, k, which)
        assert verify_extremal(TuranLinearForest(n, k, which))


def test_forest_extremal():
    g = make_extremal_graph(ForestExtremal(10, 4))
    assert len(g.edges) == 6 and g.n == 10
    assert verify_extremal(ForestExtremal(10, 4))
    assert verify_extremal(ForestExtremal(7, 7))


def test_star_circulant_grid():
    for n in range(3, 13):
        for k in range(1, n + 1):
            cid = StarExtremalCirculant(n, k)
            g = make_extremal_graph(cid)
            assert len(g.edges) == ex_star(n, k), (n, k)
            assert verify_extremal(cid), (n, k)


def test_path_sharpness_counts():
    g = make_extremal_graph(PathSharpness(7))
    assert census(g).e_minus == spanning_path_threshold(7) == 6


def test_tree_sharpness_counts():
    g = make_extremal_graph(TreeSharpness(7))
    assert census(g).e_minus == 3


def test_bipartite_sharpness_structure():
    g = make_extremal_graph(BipartiteSharpness(4))
    assert g.n == 9 and host_class_check(g, TRIANGLE_FREE)
    assert g.is_connected()
    cs = census(g)
    assert cs.e_minus == 4  # floor(16/4)
    assert len(g.edges) >= 4 * 4 // 2 + 2


def test_dtree_sharpness_structure():
    g = make_extremal_graph(DTreeSharpness(8, 2))
    assert host_class_check(g, DTree(2))
    assert census(g).e_minus == forest_bound_degenerate(3, 2) == 3


def test_planar_sharpness_structure():
    g = make_extremal_graph(PlanarSharpness(9))
    assert host_class_check(g, MAXIMAL_PLANAR_STACKED)
    assert len(g.edges) == 3 * 9 - 6
    assert census(g).e_minus == 3 * 4 - 6


def test_connectivity_witness_counts():
    for n in (6, 7, 8, 9):
        g = make_extremal_graph(ConnectivityMatching(n))
        assert census(g).e_minus == n // 2 == (n + 2) // 2 - 1
    for n in (4, 5):
        g = make_extremal_graph(ConnectivitySmall(n))
        assert census(g).e_minus == 3 == (n + 2) // 2


def test_no_length2_balance():
    g = make_extremal_graph(NoLength2(7))
    cs = census(g)
    assert abs(cs.e_minus - cs.e_plus) <= 1
    assert verify_extremal(NoLength2(7))
    assert verify_extremal(NoLength2(9))


def test_no_zero_sum_star_balanced_splits():
    # solutions to C(x,2) = x(n-x) + C(n-x,2) exist at n = 4, 21, 120
    g = make_extremal_graph(NoZeroSumStar(21))
    cs = census(g)
    assert cs.e_minus == cs.e_plus == 105
    assert verify_extremal(NoZeroSumStar(21))
    with pytest.raises(DomainError):
        make_extremal_graph(NoZeroSumStar(5))


def test_no_zero_sum_star_small_anomaly():
    # n=4 satisfies the balance equation but a spanning star of weight -1
    # exists, so verification honestly fails there
    g = make_extremal_graph(NoZeroSumStar(4))
    assert census(g).e_minus == census(g).e_plus == 3
    assert not verify_extremal(NoZeroSumStar(4))


def test_matching_k4n_counts():
    g = make_extremal_graph(MatchingK4n(2))
    cs = census(g)
    assert g.n == 16
    assert cs.e_plus == 63 and cs.e_minus == 57


def test_matching_k4n_too_large_refuses():
    with pytest.raises(BudgetExceeded):
        verify_extremal(MatchingK4n(3))  # K_36: 35!! matchings


def test_turan_reference_search_refuses_past_its_budget():
    # the exhaustive search visits 148,820 partial forests on this witness
    with pytest.raises(BudgetExceeded, match="max_paths"):
        verify_extremal(TuranLinearForest(12, 8, "join"), EnumerationBudget(max_paths=10_000))
    # 11,173 nodes is the most any witness with n, k <= 8 needs
    assert verify_extremal(TuranLinearForest(8, 7, "clique"), EnumerationBudget(max_paths=11_173))
    with pytest.raises(BudgetExceeded):
        verify_extremal(TuranLinearForest(8, 7, "clique"), EnumerationBudget(max_paths=11_172))


def test_connectivity_witness_refuses_a_path_mask_table_over_budget():
    # one pair of K_8 has 6*5*4/2 = 60 length-4 paths
    assert verify_extremal(ConnectivityMatching(8), EnumerationBudget(max_paths=60))
    with pytest.raises(BudgetExceeded, match="max_paths"):
        verify_extremal(ConnectivityMatching(8), EnumerationBudget(max_paths=59))


def test_bipartite_sharpness_tree_enumeration_cross_check():
    # the 2n=8 instance fits the default tree budget, so verification also
    # walks all 32,000 spanning trees of K_{4,5}
    from zerosum.families import spanning_tree_count

    g = make_extremal_graph(BipartiteSharpness(4))
    assert spanning_tree_count(g) == 4**4 * 5**3
    assert verify_extremal(BipartiteSharpness(4))


def test_construction_args_round_trip():
    cid = construction_from_args("turan-linear-forest", ["10", "5", "join"])
    assert cid == TuranLinearForest(10, 5, "join")
    assert construction_header(cid) == "construction: turan-linear-forest 10 5 join"
    with pytest.raises(DomainError):
        construction_from_args("nope", ["1"])
    with pytest.raises(DomainError):
        construction_from_args("forest", ["1"])
    with pytest.raises(DomainError):
        construction_from_args("forest", ["a", "b"])


def test_domain_validation():
    with pytest.raises(DomainError):
        make_extremal_graph(ConnectivitySmall(6))
    with pytest.raises(DomainError):
        make_extremal_graph(ConnectivityMatching(5))
    with pytest.raises(DomainError):
        make_extremal_graph(PlanarSharpness(6))
    with pytest.raises(DomainError):
        make_extremal_graph(DTreeSharpness(5, 2))
    with pytest.raises(DomainError):
        make_extremal_graph(NoLength2(6))
    with pytest.raises(DomainError):
        make_extremal_graph(TuranLinearForest(5, 5, "clique"))
    with pytest.raises(DomainError):
        make_extremal_graph(TuranLinearForest(6, 3, "other"))


# every construction's CLI parameters, in order; the digest below runs
# each integer field over 0..8 and `which` over these values
CONSTRUCTION_PARAMS = {
    "turan-linear-forest": ("n", "k", "which"),
    "forest": ("n", "k"),
    "star-circulant": ("n", "k"),
    "path-sharpness": ("n",),
    "tree-sharpness": ("n",),
    "bipartite-sharpness": ("n",),
    "dtree-sharpness": ("n", "d"),
    "planar-sharpness": ("n",),
    "connectivity-small": ("n",),
    "connectivity-matching": ("n",),
    "no-length2": ("n",),
    "no-zero-sum-star": ("n",),
    "matching-k4n": ("t",),
}
WHICH_VALUES = ("clique", "join", "x")
# K_36 already refuses its 35!! matchings; t <= 1 keeps the run short
PARAM_LIMITS = {"matching-k4n": 2}

# SHA-256 over, for every parameter set, the edge-list text with its
# construction header and the verify_extremal verdict (or the type and
# message of the DomainError/BudgetExceeded raised instead), then the
# three construction_from_args error messages; recorded before the
# constructions became one class each
CONSTRUCTION_DIGEST = "51030064bc4edcf7a3a8ea6904c59eb4b7d815b31d48e09e200f283f9a58bd24"


def _outcome(call):
    try:
        return repr(call())
    except (DomainError, BudgetExceeded) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_constructions_unchanged():
    digest = hashlib.sha256()
    for name, params in CONSTRUCTION_PARAMS.items():
        limit = PARAM_LIMITS.get(name, 9)
        choices = [WHICH_VALUES if p == "which" else range(limit) for p in params]
        for values in itertools.product(*choices):
            cid = construction_from_args(name, [str(v) for v in values])
            text = _outcome(
                lambda: write_edge_list(
                    make_extremal_graph(cid), header_comments=[construction_header(cid)]
                )
            )
            verdict = _outcome(lambda: verify_extremal(cid))
            digest.update(repr((name, values, text, verdict)).encode())
    for name, params in (("nope", ["1"]), ("forest", ["1"]), ("forest", ["a", "b"])):
        digest.update(_outcome(lambda: construction_from_args(name, params)).encode())
    assert digest.hexdigest() == CONSTRUCTION_DIGEST


def test_construction_params_are_the_class_fields():
    assert {
        name: tuple(f.name for f in fields(cls)) for name, cls in CONSTRUCTIONS.items()
    } == CONSTRUCTION_PARAMS
    assert all(cls.name == name for name, cls in CONSTRUCTIONS.items())


def test_readme_lists_every_construction():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index("Constructions for `zerosum extremal`:")
    paragraph = " ".join(readme[start : readme.index("\n\n", start)].split())
    for name, params in CONSTRUCTION_PARAMS.items():
        usage = " ".join([name] + ["clique|join" if p == "which" else p for p in params])
        assert f"`{usage}`" in paragraph, usage
