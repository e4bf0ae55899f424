"""Monochromatic components of r-edge-colored bipartite graphs.

A library for building the extremal constructions, checking the component
theorems instance by instance in exact arithmetic, and adversarially
searching colorings for counterexamples or exact min-max values.
"""

__version__ = "0.2.0"

from .bigraph import (
    BipartiteGraph,
    ColoringMismatch,
    Component,
    DegreeProfile,
    DoubleStar,
    DuplicateEdge,
    EdgeColoring,
    EmptyGraph,
    GraphError,
    IndexOutOfRange,
    complete,
    coloring_from_assignment,
    coloring_from_triples,
    degree_profile,
    dumps_canonical,
    from_edge_list,
    from_rows,
    graph_components,
    graph_json,
    largest_double_star,
    largest_mono_component,
    meets_conjecture_degrees,
    mono_components,
    parse_graph_json,
    uncolored_largest_double_star,
)
from .constructions import (
    Certificate,
    ConstructionSpec,
    InvalidSpec,
    blowup,
    complete_minus_circulant,
    construction_certificate,
    cyclic_one_factorization,
    double_star_gap_construction,
    lower_bound_construction,
)
from .analysis import (
    BipartitionReduction,
    GeneralGraph,
    MainComponentsReport,
    StabilityReport,
    Verdict,
    bipartition_avoiding_color,
    check_additive_theorem,
    check_conjecture_instance,
    check_corollary,
    check_tetel_instance,
    check_theorem_two_colors,
    general_from_edge_list,
    general_mono_components,
    main_lemma_report,
    stability_report,
)
from .search import (
    THEOREMS,
    AdditiveChecker,
    ComponentTargetChecker,
    PreconditionViolated,
    SearchConfig,
    SearchOutcome,
    Theorem,
    alpha_frontier,
    exhaustive_verify,
    exists_coloring_below,
    min_max_mono_component,
    random_search,
)
