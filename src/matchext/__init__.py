"""matchext: (n, k)-extendability of small graphs with verifiable certificates.

A graph is (n, k)-extendable when deleting any n vertices leaves a graph
that contains a k-matching and in which every k-matching extends to a
1-factor. The package decides this with witnesses in both directions,
builds the H1/H2 sharpness families, and stress-tests the surrounding
edge-deletion theorems over exhaustive and random graph corpora.
"""

from types import ModuleType as _ModuleType

from .census import (
    CensusResult,
    CorpusFilters,
    CorpusSpec,
    ExhaustiveSource,
    FileSource,
    ParamRanges,
    RandomSource,
    corpus_graphs,
    run_census,
)
from .errors import (
    BudgetExceededError,
    DuplicateEdgeError,
    InadmissibleParametersError,
    InvalidParametersError,
    MalformedGraph6Error,
    MatchextError,
    NoOneFactorError,
    NotAMatchingError,
    OutOfRangeError,
    ParseError,
    SelfLoopError,
)
from .extendability import (
    Budget,
    ExtendabilityVerdict,
    Failure,
    FailureKind,
    ParameterCheck,
    SearchStats,
    check_parameters,
    is_k_extendable,
    is_n_factor_critical,
    is_nk_extendable,
    verify_failure_witness,
)
from .families import FamilyInstance, build_h1, build_h2, resolve_family_ref
from .generate import canonical_form, exhaustive_graphs, random_graphs
from .graph import (
    Graph,
    VertexSet,
    complete_graph,
    delete_vertices,
    disjoint_union,
    join,
)
from .graph_io import (
    GraphFormat,
    load_graph_file,
    parse_edge_list,
    parse_graph6,
    resolve_graph_argument,
    serialize_graph6,
)
from .matching import (
    Matching,
    SubsetMatchingOracle,
    TutteCertificate,
    find_tutte_certificate,
    has_one_factor,
    maximum_matching,
)
from .theorems import (
    THEOREM_IDS,
    TheoremReport,
    TheoremStatus,
    verify_lemma1,
    verify_lemma2,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
    verify_theorem4,
    verify_theoremA,
    verify_theoremB,
    verify_theoremC,
)

__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
