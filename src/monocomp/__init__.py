"""Monochromatic components of r-edge-colored bipartite graphs.

A library for building the extremal constructions, checking the component
theorems instance by instance in exact arithmetic, and adversarially
searching colorings for counterexamples or exact min-max values.

The public names are lazy (PEP 562): ``import monocomp`` loads no
submodule, and the first use of a name imports the one module that defines
it, so a command or script pays only for the modules it runs.
"""

import importlib

__version__ = "0.2.0"

_EXPORTS = {
    "bigraph": (
        "BipartiteGraph",
        "ColoringMismatch",
        "Component",
        "DegreeProfile",
        "DoubleStar",
        "DuplicateEdge",
        "EdgeColoring",
        "EmptyGraph",
        "GraphError",
        "IndexOutOfRange",
        "complete",
        "coloring_from_assignment",
        "coloring_from_triples",
        "degree_profile",
        "dumps_canonical",
        "from_edge_list",
        "from_rows",
        "graph_components",
        "graph_json",
        "largest_double_star",
        "largest_mono_component",
        "meets_conjecture_degrees",
        "mono_components",
        "parse_graph_json",
        "uncolored_largest_double_star",
    ),
    "constructions": (
        "Certificate",
        "InvalidSpec",
        "blowup",
        "complete_minus_circulant",
        "construction_certificate",
        "cyclic_one_factorization",
        "double_star_gap_construction",
        "lower_bound_construction",
    ),
    "analysis": (
        "BipartitionReduction",
        "GeneralGraph",
        "MainComponentsReport",
        "StabilityReport",
        "Verdict",
        "bipartition_avoiding_color",
        "check_additive_theorem",
        "check_conjecture_instance",
        "check_corollary",
        "check_instance",
        "check_tetel_instance",
        "check_theorem_two_colors",
        "general_from_edge_list",
        "general_mono_components",
        "main_lemma_report",
        "stability_report",
    ),
    "theorems": (
        "THEOREMS",
        "AdditiveChecker",
        "ComponentTargetChecker",
        "PreconditionViolated",
        "Theorem",
    ),
    "search": (
        "SearchConfig",
        "SearchOutcome",
        "alpha_frontier",
        "exhaustive_verify",
        "exists_coloring_below",
        "min_max_mono_component",
        "random_search",
    ),
}
# public name -> the submodule that defines it
_LAZY = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_LAZY)


def __getattr__(name):
    if name in _LAZY:
        value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:  # ``monocomp.search`` after a bare ``import monocomp``
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
