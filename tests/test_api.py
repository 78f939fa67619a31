"""The package's public names, pinned, and its modules' imports, all used.

``matchext.__all__`` is every name ``matchext/__init__.py`` binds except the
submodules its imports load, which differ with import order. Adding or
removing a name is an API change: make it here too, on purpose.
"""

import ast
import inspect
from pathlib import Path

import matchext

PUBLIC_NAMES = [
    "Budget", "BudgetExceededError", "CensusResult",
    "CorpusFilters", "CorpusSpec", "DuplicateEdgeError", "ExhaustiveSource",
    "ExtendabilityVerdict", "Failure", "FailureKind", "FamilyInstance",
    "FileSource", "Graph", "GraphFormat", "InadmissibleParametersError",
    "InvalidParametersError",
    "MalformedGraph6Error", "MatchextError", "Matching", "NoOneFactorError",
    "NotAMatchingError", "OutOfRangeError", "ParamRanges", "ParameterCheck",
    "ParseError", "RandomSource", "SearchStats", "SelfLoopError",
    "SubsetMatchingOracle", "THEOREM_IDS", "TheoremReport", "TheoremStatus",
    "TutteCertificate", "VertexSet", "build_h1", "build_h2",
    "canonical_form", "check_parameters", "complete_graph",
    "corpus_graphs", "delete_vertices", "disjoint_union",
    "exhaustive_graphs", "find_tutte_certificate", "has_one_factor",
    "is_k_extendable", "is_n_factor_critical", "is_nk_extendable", "join",
    "load_graph_file", "maximum_matching", "parse_edge_list",
    "parse_graph6", "random_graphs", "resolve_family_ref",
    "resolve_graph_argument", "run_census", "serialize_graph6",
    "verify_failure_witness", "verify_lemma1", "verify_lemma2",
    "verify_theorem1", "verify_theorem2", "verify_theorem3",
    "verify_theorem4", "verify_theoremA", "verify_theoremB",
    "verify_theoremC",
]


def test_public_names_pinned():
    assert sorted(matchext.__all__) == PUBLIC_NAMES
    assert not [name for name in matchext.__all__ if inspect.ismodule(getattr(matchext, name))]


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never mentions, string annotations included."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "returns", None) or getattr(node, "annotation", None)
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                quoted = ast.parse(part.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_detected():
    source = "from __future__ import annotations\nimport os, re\nfrom typing import Any, List\n"
    source += "def f(x: 'List[int]') -> None:\n    return re.sub(x)\n"
    assert _unused_imports(source) == ["os (line 2)", "Any (line 3)"]


def test_modules_use_every_import():
    package = Path(matchext.__file__).parent
    unused = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path.read_text()))
    }
    assert unused == {}
