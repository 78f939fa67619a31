"""Executable hypothesis-to-conclusion checks for the extension theorems.

Each validator turns one named statement into a per-instance check:

  T1  every G-V(e) k-extendable and |V| >= 2k+4  =>  G (k+1)-extendable
  T2  every G-V(e) (n,k)-extendable             =>  G (n,k+1)-extendable
  TA  every G-V(e) (0,k)-extendable             =>  G (0,k)-extendable
  T3  T2 hypothesis, n > 1, |V| <= 2k+3n+4      =>  G (n+2,k)-extendable
  T4  some 1-factor F with every G-V(e), e in F,
      (n,k)-extendable                          =>  G (n,k)-extendable
  TB  G k-extendable  <=>  every i-matching M gives G-V(M) (k-i)-extendable
  TC  T4 specialized to (0,k) or (n,0)
  L1  G (n,k)-extendable  =>  G (n-2,k+1)-extendable
  L2  G (n,k)-extendable  =>  (n-2,k)- and (n,k-1)-extendable where defined

A COUNTEREXAMPLE status means the hypothesis clauses all verified true and
the conclusion failed with a re-verifiable witness; since the statements
are proved, any counterexample exposes an implementation bug. VACUOUS means
some hypothesis clause failed, and is never folded into CONFIRMED so census
statistics stay honest about coverage. ABORTED means the instance's budget
ran out before the check finished; the row still names the instance.

The edge-deletion hypotheses of T1-T4, TA and TC read the edges e whose
G - V(e) is (n, k)-extendable from extendability._qualifying_edges, which
decides all of them at once and keeps them per (n, k) on the oracle, so
the validators that share an (n, k) on one graph share that work.

The table THEOREMS holds one TheoremSpec per statement: its census grid,
its admissibility rule, the verify flags it reads and its body. The
validators, the census sweep and the verify command all run from it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import BudgetExceededError, InadmissibleParametersError, MatchextError, NoOneFactorError
from .extendability import (
    Budget,
    SearchStats,
    _has_stuck_completion,
    _holds_on_mask,
    _oracle_for,
    _qualifying_edges,
    _stuck_matching,
    _verdict_on_mask,
    admissible,
)
from .graph import Graph
from .graph_io import serialize_graph6
from .matching import (
    Matching,
    SubsetMatchingOracle,
    _blossom_size,
    _one_factors_in_mask,
)


class TheoremStatus(Enum):
    CONFIRMED = "CONFIRMED"
    VACUOUS = "VACUOUS"
    COUNTEREXAMPLE = "COUNTEREXAMPLE"
    INADMISSIBLE = "INADMISSIBLE"
    ABORTED = "ABORTED"


@dataclass(frozen=True)
class TheoremReport:
    """One row: the statement, what was checked (the graph as graph6, its
    provenance, the params), the status, and its evidence."""

    theorem_id: str
    graph6: str
    source: str | None
    params: Mapping[str, object]
    status: TheoremStatus
    hypothesis_detail: Mapping[str, object]
    counterexample: Mapping[str, object] | None = None


# What a body returns: the status, the hypothesis detail, the counterexample payload.
Outcome = tuple[TheoremStatus, dict, "dict | None"]


@dataclass(frozen=True)
class TheoremSpec:
    """One statement: where the census sweeps it, when it applies, how to check it.

    ``params`` turns the validator's keyword arguments (kwargs) into the
    instance params that ``admissible`` and ``body`` see.
    """

    theorem_id: str
    validator: Callable[..., TheoremReport]  # the public verify_* wrapper
    grid: Callable[[int, int], Iterable[dict]]  # census kwargs for (n_max, k_max), in sweep order
    admissible: Callable[[int, bool, dict], bool]  # (|V|, has a 1-factor, params)
    needs: str  # the admissibility rule, for the error message
    needs_factor: bool  # a missing 1-factor raises NoOneFactorError
    flags: Callable[[int | None, int | None, int | None], Iterable[dict]]  # verify kwargs from --n, --k, --i
    body: Callable[[Graph, SubsetMatchingOracle, Budget | None, dict], Outcome]
    params: Callable[..., dict] = dict


@lru_cache(maxsize=1)
def _graph6(g: Graph) -> str:
    """g's graph6 string, kept for the graph last asked about, so all rows on one graph share it."""
    return serialize_graph6(g)


def run_theorem(
    theorem_id: str,
    g: Graph,
    kwargs: Mapping[str, int | None],
    *,
    oracle: SubsetMatchingOracle | None = None,
    budget: Budget | None = None,
    source: str | None = None,
) -> TheoremReport:
    """Check one statement on one graph; what every ``verify_*`` does.

    The report's params come from ``kwargs`` through the entry's ``params``.
    Once ``budget`` runs out the report is ABORTED, on the same instance.
    Raises ValueError when ``oracle`` was built on another graph,
    NoOneFactorError (for entries that need a 1-factor) or
    InadmissibleParametersError when the entry's admissibility fails.
    """
    spec = THEOREMS[theorem_id]
    params = spec.params(**kwargs)
    oracle = _oracle_for(g, oracle)
    has_factor = oracle.is_perfectable(oracle.full_mask)
    if not spec.admissible(g.vertex_count, has_factor, params):
        if spec.needs_factor and not has_factor:
            raise NoOneFactorError(f"theorem {theorem_id} requires a graph with a 1-factor")
        shown = ", ".join(f"{key}={value}" for key, value in params.items())
        raise InadmissibleParametersError(
            f"theorem {theorem_id} needs {spec.needs}; got {shown}, |V|={g.vertex_count}"
        )
    try:
        outcome = spec.body(g, oracle, budget, params)
    except BudgetExceededError:
        outcome = TheoremStatus.ABORTED, {"reason": "budget exceeded"}, None
    return TheoremReport(theorem_id, _graph6(g), source, params, *outcome)


# --- Shared checks ----------------------------------------------------------


def _conclusion_payload(
    oracle: SubsetMatchingOracle, mask: int, n: int, k: int
) -> dict:
    verdict = _verdict_on_mask(oracle, mask, n, k, None)
    return {"params": {"n": n, "k": k}, "conclusion_failure": verdict.failure}


def _conclude(oracle: SubsetMatchingOracle, budget: Budget | None, detail: dict, clauses: dict) -> Outcome:
    """COUNTEREXAMPLE for the first of ``clauses`` that fails on G, else CONFIRMED.

    ``clauses`` maps a detail key to an (n, k) to decide, or to None where
    the clause does not apply; a None key is decided but not recorded.
    """
    failed = []
    for key, nk in clauses.items():
        holds = None if nk is None else _holds_on_mask(oracle, oracle.full_mask, *nk, budget)
        if key is not None:
            detail[key] = holds
        if holds is False:
            failed.append(nk)
    if failed:
        return TheoremStatus.COUNTEREXAMPLE, detail, _conclusion_payload(oracle, oracle.full_mask, *failed[0])
    return TheoremStatus.CONFIRMED, detail, None


# --- Bodies -----------------------------------------------------------------


def _first_edge(rows: Iterable[int]) -> tuple[int, int] | None:
    """First (u, v) with u < v and bit v of rows[u] set, in lexicographic order."""
    for u, row in enumerate(rows):
        above = row >> (u + 1)
        if above:
            return u, u + (above & -above).bit_length()
    return None


def _edge_deletion(
    shift: tuple[int, int],
    lead: Callable[[Graph, dict], dict] = lambda g, p: {"has_edges": g.edge_count > 0},
    key: str = "all_edge_deletions_extendable",
) -> Callable[..., Outcome]:
    """Body of T1/T2/TA/T3: every G - V(e) (n, k)-extendable => G (n, k) + shift.

    ``lead`` gives the detail entries recorded first; unless all are true
    the row is VACUOUS without deleting any edge. The lexicographically
    first edge is decided alone, since on most rows it is the first that
    fails; only when it holds are all edges read from _qualifying_edges.
    """

    def body(g: Graph, oracle: SubsetMatchingOracle, budget: Budget | None, p: dict) -> Outcome:
        n, k = p.get("n", 0), p["k"]
        detail = lead(g, p)
        if not all(detail.values()):
            detail[key] = None
            return TheoremStatus.VACUOUS, detail, None
        u, v = failing = _first_edge(oracle.masks)  # the first edge whose deletion breaks the hypothesis
        if _holds_on_mask(oracle, oracle.full_mask ^ (1 << u) ^ (1 << v), n, k, budget):
            qualifying = _qualifying_edges(oracle, n, k, budget)
            failing = _first_edge([row & ~q for row, q in zip(oracle.masks, qualifying)])
        detail[key] = failing is None
        if failing is not None:
            detail["failing_edge"] = failing
            return TheoremStatus.VACUOUS, detail, None
        return _conclude(oracle, budget, detail, {None: (n + shift[0], k + shift[1])})

    return body


def _one_factor_body(g: Graph, oracle: SubsetMatchingOracle, budget: Budget | None, p: dict) -> Outcome:
    """Body of T4/TC: quantify the edge-deletion hypothesis over 1-factors.

    Some 1-factor has every G - V(e) (n, k)-extendable exactly when the
    spanning subgraph of the edges e that qualify (_qualifying_edges) has a
    1-factor, and the counterexample's factor is that subgraph's
    lexicographically first one.
    """
    n, k = p.get("n", 0), p.get("k", 0)
    detail: dict[str, object] = {"mode": p["mode"]} if "mode" in p else {}
    detail["has_one_factor"] = True
    detail["degenerate"] = n == 0 and k == 0
    if detail["degenerate"]:
        # The conclusion would restate the 1-factor precondition.
        return TheoremStatus.CONFIRMED, detail, None
    full = oracle.full_mask
    conclusion = _holds_on_mask(oracle, full, n, k, budget)
    qualifying = _qualifying_edges(oracle, n, k, budget)
    detail["some_factor_hypothesis"] = 2 * _blossom_size(qualifying, full) == oracle.n
    if not detail["some_factor_hypothesis"]:
        return TheoremStatus.VACUOUS, detail, None
    if conclusion:
        return TheoremStatus.CONFIRMED, detail, None
    payload = _conclusion_payload(oracle, full, n, k)
    payload["factor"] = Matching(next(_one_factors_in_mask(qualifying, full)))
    return TheoremStatus.COUNTEREXAMPLE, detail, payload


def _theoremB_body(g: Graph, oracle: SubsetMatchingOracle, budget: Budget | None, p: dict) -> Outcome:
    """k-extendable iff every i-matching deletion leaves a (k-i)-extendable graph.

    The right-hand side includes "an i-matching exists": the left side's own
    definition demands a k-matching, and without the existence clause an
    i-matching-free graph would fail the biconditional vacuously. It is decided
    in set form over 2i-vertex sets; only a counterexample names its first
    failing i-matching.
    """
    k, i = p["k"], p["i"]
    full = oracle.full_mask
    lhs = _holds_on_mask(oracle, full, 0, k, budget)
    has_i_matching = oracle.size(full) >= i
    stuck = has_i_matching and _has_stuck_completion(oracle, full, -1, i, budget, SearchStats(), k - i)
    rhs = has_i_matching and not stuck
    detail: dict[str, object] = {"lhs_k_extendable": lhs, "has_i_matching": has_i_matching}
    detail["rhs_all_deletions"] = rhs if has_i_matching else None
    if lhs == rhs:
        return TheoremStatus.CONFIRMED, detail, None
    if lhs:
        payload: dict[str, object] = {"direction": "lhs_true_rhs_false"}
        if stuck:
            chosen, used = _stuck_matching(oracle, full, i, budget, SearchStats(), k - i)
            payload["witness_matching"] = Matching(chosen)
            payload["subgraph_failure"] = _verdict_on_mask(oracle, full ^ used, 0, k - i, None).failure
    else:
        payload = {
            "direction": "lhs_false_rhs_true",
            "lhs_failure": _verdict_on_mask(oracle, full, 0, k, None).failure,
        }
    return TheoremStatus.COUNTEREXAMPLE, detail, payload


def _lemma(clauses: Callable[[int, int], dict]) -> Callable[..., Outcome]:
    """Body of L1/L2: G (n, k)-extendable => every applicable clause of ``clauses(n, k)``."""

    def body(g: Graph, oracle: SubsetMatchingOracle, budget: Budget | None, p: dict) -> Outcome:
        detail: dict = {"extendable_n_k": _holds_on_mask(oracle, oracle.full_mask, p["n"], p["k"], budget)}
        if not detail["extendable_n_k"]:
            return TheoremStatus.VACUOUS, detail, None
        return _conclude(oracle, budget, detail, clauses(p["n"], p["k"]))

    return body


# --- Parameters ---------------------------------------------------------------


def _k_grid(n_max: int, k_max: int) -> list[dict]:
    return [{"k": k} for k in range(k_max + 1)]


def _nk_grid(n_min: int) -> Callable[[int, int], list[dict]]:
    return lambda n_max, k_max: [
        {"n": n, "k": k} for n in range(n_min, n_max + 1) for k in range(k_max + 1)
    ]


def _flags(*names: str) -> Callable[..., list[dict]]:
    """One row of the named flags; a None value is a flag the user left out."""
    return lambda n, k, i: [{name: {"n": n, "k": k, "i": i}[name] for name in names}]


def _tb_flags(n: int | None, k: int | None, i: int | None) -> Iterable[dict]:
    """--i alone, or every i in 1..k when it is absent, one row at a time."""
    if i is None and k is not None and k < 1:
        raise MatchextError(f"TB needs --k >= 1 to sweep i over 1..k; got --k {k}")
    splits = [i] if i is not None or k is None else range(1, k + 1)
    return ({"k": k, "i": j} for j in splits)


def _tc_flags(n: int | None, k: int | None, i: int | None) -> list[dict]:
    """One row per mode given: --k for K_EXT, then --n for CRITICAL."""
    if k is None and n is None:
        raise MatchextError("TC needs --k (K_EXT mode) or --n (CRITICAL mode)")
    return [{"k": k}] * (k is not None) + [{"n": n}] * (n is not None)


def _tc_params(k: int | None = None, n: int | None = None) -> dict:
    if (k is None) == (n is None):
        raise InadmissibleParametersError("theorem C takes exactly one of k (K_EXT) or n (CRITICAL)")
    return {"mode": "K_EXT", "k": k} if k is not None else {"mode": "CRITICAL", "n": n}


def _t4_admissible(nv: int, has_factor: bool, p: dict) -> bool:
    n, k = p.get("n", 0), p.get("k", 0)
    return has_factor and (admissible(nv, 0, 0) if n == k == 0 else admissible(nv - 2, n, k))


_T4_NEEDS = "a 1-factor, and n + 2k <= |V| - 4 with |V| - n even unless n = k = 0"


# --- Public validators --------------------------------------------------------
# Each passes its ``oracle``, ``budget`` and ``source`` keywords to run_theorem.


def verify_theorem1(g: Graph, k: int, **context: object) -> TheoremReport:
    """Every G - V(e) k-extendable (with |V| >= 2k+4) makes G (k+1)-extendable."""
    return run_theorem("T1", g, {"k": k}, **context)


def verify_theorem2(g: Graph, n: int, k: int, **context: object) -> TheoremReport:
    """Every G - V(e) (n, k)-extendable makes G (n, k+1)-extendable."""
    return run_theorem("T2", g, {"n": n, "k": k}, **context)


def verify_theorem3(g: Graph, n: int, k: int, **context: object) -> TheoremReport:
    """T2 hypothesis plus |V| <= 2k + 3n + 4 gives (n+2, k)-extendability."""
    return run_theorem("T3", g, {"n": n, "k": k}, **context)


def verify_theorem4(g: Graph, n: int, k: int, **context: object) -> TheoremReport:
    """Some 1-factor whose edge deletions are all (n, k)-extendable forces G to be."""
    return run_theorem("T4", g, {"n": n, "k": k}, **context)


def verify_theoremA(g: Graph, k: int, **context: object) -> TheoremReport:
    """T2 at n=0 with the conclusion weakened to (0, k)-extendability."""
    return run_theorem("TA", g, {"k": k}, **context)


def verify_theoremB(g: Graph, k: int, i: int, **context: object) -> TheoremReport:
    """k-extendable iff every i-matching deletion leaves a (k-i)-extendable graph."""
    return run_theorem("TB", g, {"k": k, "i": i}, **context)


def verify_theoremC(g: Graph, *, k: int | None = None, n: int | None = None, **context: object) -> TheoremReport:
    """T4 specialized: mode K_EXT checks (0, k), mode CRITICAL checks (n, 0)."""
    return run_theorem("TC", g, {"k": k, "n": n}, **context)


def verify_lemma1(g: Graph, n: int, k: int, **context: object) -> TheoremReport:
    """(n, k)-extendable implies (n-2, k+1)-extendable."""
    return run_theorem("L1", g, {"n": n, "k": k}, **context)


def verify_lemma2(g: Graph, n: int, k: int, **context: object) -> TheoremReport:
    """(n, k)-extendable implies (n-2, k)- and (n, k-1)-extendable."""
    return run_theorem("L2", g, {"n": n, "k": k}, **context)


# id, validator, census grid, admissible(|V|, has 1-factor, params), the rule
# in words, needs a 1-factor, verify flags, body[, params from kwargs]
THEOREMS: dict[str, TheoremSpec] = {spec.theorem_id: spec for spec in (
    TheoremSpec(
        "T1", verify_theorem1, _k_grid, lambda nv, hf, p: hf and admissible(nv - 2, 0, p["k"]),
        "a 1-factor and |V| >= 2k + 4", True, _flags("k"),
        _edge_deletion((0, 1), lambda g, p: {"has_one_factor": True}, "all_edge_deletions_k_extendable"),
    ),
    TheoremSpec(
        "T2", verify_theorem2, _nk_grid(0), lambda nv, hf, p: admissible(nv - 2, p["n"], p["k"]),
        "n + 2k <= |V| - 4 and |V| - n even", False, _flags("n", "k"), _edge_deletion((0, 1)),
    ),
    TheoremSpec(
        "T3", verify_theorem3, _nk_grid(2),
        lambda nv, hf, p: p["n"] >= 2 and admissible(nv - 2, p["n"], p["k"]),
        "n > 1, n + 2k <= |V| - 4 and |V| - n even", False, _flags("n", "k"),
        _edge_deletion((2, 0), lambda g, p: {
            "size_bound_ok": g.vertex_count <= 2 * p["k"] + 3 * p["n"] + 4,
            "has_edges": g.edge_count > 0,
        }),
    ),
    TheoremSpec(
        "T4", verify_theorem4, _nk_grid(0), _t4_admissible, _T4_NEEDS, True, _flags("n", "k"),
        _one_factor_body,
    ),
    TheoremSpec(
        "TA", verify_theoremA, _k_grid, lambda nv, hf, p: admissible(nv - 2, 0, p["k"]),
        "2k <= |V| - 4 and |V| even", False, _flags("k"), _edge_deletion((0, 0)),
    ),
    TheoremSpec(
        "TB", verify_theoremB,
        lambda n_max, k_max: ({"k": k, "i": i} for k in range(1, k_max + 1) for i in range(1, k + 1)),
        lambda nv, hf, p: 1 <= p["i"] <= p["k"] and admissible(nv, 0, p["k"]),
        "1 <= i <= k and admissible (0, k)", False, _tb_flags, _theoremB_body,
    ),
    TheoremSpec(
        "TC", verify_theoremC,
        lambda n_max, k_max: _k_grid(n_max, k_max) + [{"n": n} for n in range(1, n_max + 1)],
        _t4_admissible, _T4_NEEDS, True, _tc_flags, _one_factor_body, params=_tc_params,
    ),
    TheoremSpec(
        "L1", verify_lemma1, _nk_grid(2), lambda nv, hf, p: p["n"] >= 2 and admissible(nv, p["n"], p["k"]),
        "n >= 2 and admissible (n, k)", False, _flags("n", "k"), _lemma(lambda n, k: {None: (n - 2, k + 1)}),
    ),
    TheoremSpec(
        "L2", verify_lemma2, _nk_grid(0),
        lambda nv, hf, p: (p["n"] >= 2 or p["k"] >= 1) and admissible(nv, p["n"], p["k"]),
        "n >= 2 or k >= 1, and admissible (n, k)", False, _flags("n", "k"),
        _lemma(lambda n, k: {
            "clause_fewer_vertices": (n - 2, k) if n >= 2 else None,
            "clause_smaller_matching": (n, k - 1) if k >= 1 else None,
        }),
    ),
)}

THEOREM_IDS = tuple(THEOREMS)
