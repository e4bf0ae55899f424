"""The package namespace: every public name is lazy, and each is the object
its defining module holds."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import monocomp

# every name ``monocomp`` exports, with the module that defines it
PUBLIC = {
    "bigraph": [
        "BipartiteGraph", "ColoringMismatch", "Component", "DegreeProfile", "DoubleStar",
        "DuplicateEdge", "EdgeColoring", "EmptyGraph", "GraphError", "IndexOutOfRange",
        "complete", "coloring_from_assignment", "coloring_from_triples", "degree_profile",
        "dumps_canonical", "from_edge_list", "from_rows", "graph_components", "graph_json",
        "largest_double_star", "largest_mono_component", "meets_conjecture_degrees",
        "mono_components", "parse_graph_json", "uncolored_largest_double_star",
    ],
    "constructions": [
        "Certificate", "InvalidSpec", "blowup",
        "complete_minus_circulant", "construction_certificate", "cyclic_one_factorization",
        "double_star_gap_construction", "lower_bound_construction",
    ],
    "analysis": [
        "BipartitionReduction", "GeneralGraph", "MainComponentsReport", "StabilityReport",
        "Verdict", "bipartition_avoiding_color", "check_additive_theorem",
        "check_conjecture_instance", "check_corollary", "check_tetel_instance",
        "check_theorem_two_colors", "general_from_edge_list", "general_mono_components",
        "main_lemma_report", "stability_report",
    ],
    "theorems": [
        "THEOREMS", "AdditiveChecker", "ComponentTargetChecker", "PreconditionViolated",
        "Theorem",
    ],
    "search": [
        "SearchConfig", "SearchOutcome", "alpha_frontier", "exhaustive_verify",
        "exists_coloring_below", "min_max_mono_component", "random_search",
    ],
}
DEFINED_IN = [(name, module) for module, names in PUBLIC.items() for name in names]


def test_all_is_the_public_list():
    assert sorted(monocomp.__all__) == sorted(name for name, _ in DEFINED_IN)
    assert len(DEFINED_IN) == 60


@pytest.mark.parametrize("name, module", DEFINED_IN)
def test_name_is_its_modules_object(name, module):
    defining = importlib.import_module(f"monocomp.{module}")
    assert getattr(monocomp, name) is getattr(defining, name)
    assert name in dir(monocomp)


def test_star_import_binds_every_name():
    ns = {}
    exec("from monocomp import *", ns)
    for name, module in DEFINED_IN:
        assert ns[name] is getattr(importlib.import_module(f"monocomp.{module}"), name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        monocomp.no_such_name
    assert not hasattr(monocomp, "_EXIT_OK")


def test_no_unused_top_level_import():
    # a module-level import that the module never reads is a re-export shim;
    # ``from __future__`` binds no name the code reads, so it is exempt
    unused = []
    for path in sorted(Path(monocomp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{path.name}: {bound}")
    assert unused == []


def test_submodule_attribute_after_bare_import():
    # a fresh interpreter, where ``import monocomp`` has loaded no submodule
    code = (
        "import monocomp\n"
        "assert monocomp.search.random_search is monocomp.random_search\n"
        "assert monocomp.theorems.THEOREMS is monocomp.THEOREMS\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
