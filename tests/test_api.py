"""The package's public names, pinned.

``matchext.__all__`` is every name ``matchext/__init__.py`` binds except the
submodules its imports load, which differ with import order. Adding or
removing a name is an API change: make it here too, on purpose.
"""

import inspect

import matchext

PUBLIC_NAMES = [
    "Budget", "BudgetExceededError", "CensusResult", "ComponentReport",
    "CorpusFilters", "CorpusSpec", "DuplicateEdgeError", "ExhaustiveSource",
    "ExtendabilityVerdict", "Failure", "FailureKind", "FamilyInstance",
    "FileSource", "Graph", "GraphFormat", "InadmissibleParametersError",
    "IndexRemap", "InstanceRef", "InvalidParametersError",
    "MalformedGraph6Error", "MatchextError", "Matching", "NoOneFactorError",
    "NotAMatchingError", "OutOfRangeError", "ParamRanges", "ParameterCheck",
    "ParseError", "RandomSource", "SearchStats", "SelfLoopError",
    "SubsetMatchingOracle", "THEOREM_IDS", "TheoremReport", "TheoremStatus",
    "TutteCertificate", "VertexSet", "build_h1", "build_h2",
    "canonical_form", "check_parameters", "complete_graph", "components",
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
