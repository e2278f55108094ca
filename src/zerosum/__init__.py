"""Zero-sum and almost zero-sum spanning subgraphs of +-1-coloured graphs."""

from .errors import BudgetExceeded, DomainError, GraphFormatError
from .graphs import (
    COMPLETE,
    Complete,
    ColoredGraph,
    ColorCensus,
    DTree,
    EdgeSubgraph,
    MAXIMAL_PLANAR_STACKED,
    MaximalPlanarStacked,
    StackedCertificate,
    TRIANGLE_FREE,
    TriangleFree,
    census,
    host_class_check,
    is_diam3_tree,
    is_forest,
    is_hamiltonian_path,
    is_linear_forest,
    is_matching,
    is_spanning_tree,
    read_edge_list,
    tree_diameter,
    weight,
    write_edge_list,
)
from .families import (
    Diam3Trees,
    ExchangeChain,
    FamilyKind,
    HamiltonianPaths,
    PerfectMatchings,
    SpanningTrees,
    exchange_chain,
    interpolate,
    interpolate_traced,
    member_of,
)
from .thresholds import (
    MasterVerdict,
    ex_forest,
    ex_linear_forest,
    ex_star,
    forest_bound_degenerate,
    forest_bound_planar,
    forest_bound_triangle_free,
    master_verdict,
    spanning_path_threshold,
)
from .decompositions import (
    Decomposition,
    hamilton_cycle_decomposition,
    hamilton_path_decomposition,
)
from .finders import (
    FindReport,
    check_zero_sum_matching,
    extract_monochromatic_forest,
    find_zero_sum_diam3_tree,
    find_zero_sum_path_leq4,
    find_zero_sum_spanning_path,
    find_zero_sum_spanning_tree,
)
from .oracle import (
    EnumerationBudget,
    TheoremReport,
    enumerate_family,
    exhaustive_theorem_check,
)
from .extremal import (
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
    make_extremal_graph,
    verify_extremal,
)

__version__ = "0.1.0"
