import json
import os
import time
import tracemalloc
from itertools import chain, islice

import pytest

from matchext import (
    Budget,
    CorpusFilters,
    CorpusSpec,
    ExhaustiveSource,
    FileSource,
    Graph,
    InadmissibleParametersError,
    NoOneFactorError,
    ParamRanges,
    RandomSource,
    TheoremStatus,
    complete_graph,
    corpus_graphs,
    disjoint_union,
    exhaustive_graphs,
    random_graphs,
    run_census,
    verify_failure_witness,
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
from matchext import census, cli, reporting, theorems
from matchext.census import clamp_jobs, normalize_theorems
from matchext.matching import SubsetMatchingOracle
from matchext.theorems import THEOREM_IDS, THEOREMS
from matchext.families import build_h2, resolve_family_ref
from matchext.reporting import census_document, render_row, report_to_dict, reports_document, to_json

from conftest import cycle_graph, path_graph, star_graph
from oracles import reference_one_factor_body, theoremB_mismatches

CONFIRMED = TheoremStatus.CONFIRMED
VACUOUS = TheoremStatus.VACUOUS

# The pair cap aborts rows of every theorem here, and T2 has a VACUOUS row
# that names its failing edge.
CAPPED_SPEC = CorpusSpec(FileSource(("h1:1:0", "h2:1:0", "h1:2:0")))
CAPPED_KWARGS = dict(theorems=("T2", "TB", "L2"), ranges=ParamRanges(2, 1), pair_cap=50)


def delete_for_edge(g, u, v):
    from matchext import VertexSet, delete_vertices

    return delete_vertices(g, VertexSet.of([u, v]))


def no_factor_graph_with_edges():
    # K_{1,3} plus two isolated vertices: even order, edges, no 1-factor.
    return disjoint_union([star_graph(3), Graph(1), Graph(1)])


def force_holds(monkeypatch, forced):
    """Decide (n, k) on ``mask`` as true where ``forced(oracle, mask, n, k)`` is, else as it is."""
    real = theorems._holds_on_mask
    monkeypatch.setattr(
        theorems, "_holds_on_mask",
        lambda oracle, mask, n, k, budget: forced(oracle, mask, n, k) or real(oracle, mask, n, k, budget),
    )


def renders_as_json_dumps(report):
    """The verify document of ``report`` is the bytes json.dumps gives for its report dict."""
    doc = {**reports_document([report]), "reports": [report_to_dict(report)]}
    shape = lambda value: reporting._SHAPES[type(value)](value)
    return to_json(reports_document([report])) == json.dumps(doc, indent=2, default=shape) + "\n"


class TestLemmas:
    def test_lemma1_k8(self):
        report = verify_lemma1(complete_graph(8), 2, 0)
        assert report.status is CONFIRMED
        assert report.hypothesis_detail == {"extendable_n_k": True}

    def test_lemma1_vacuous(self):
        report = verify_lemma1(no_factor_graph_with_edges(), 2, 0)
        assert report.status is VACUOUS

    def test_lemma1_needs_n_at_least_2(self):
        with pytest.raises(InadmissibleParametersError):
            verify_lemma1(complete_graph(8), 1, 0)

    def test_lemma2_k8(self):
        report = verify_lemma2(complete_graph(8), 2, 1)
        assert report.status is CONFIRMED
        assert report.hypothesis_detail["clause_fewer_vertices"] is True
        assert report.hypothesis_detail["clause_smaller_matching"] is True

    def test_lemma2_single_clause(self):
        report = verify_lemma2(complete_graph(6), 0, 1)
        assert report.status is CONFIRMED
        assert report.hypothesis_detail["clause_fewer_vertices"] is None

    def test_lemma2_vacuous(self):
        assert verify_lemma2(no_factor_graph_with_edges(), 2, 1).status is VACUOUS

    def test_lemma2_needs_some_clause(self):
        with pytest.raises(InadmissibleParametersError):
            verify_lemma2(complete_graph(6), 0, 0)


class TestTheorem1:
    def test_k6(self):
        assert verify_theorem1(complete_graph(6), 0).status is CONFIRMED

    def test_c6(self):
        assert verify_theorem1(cycle_graph(6), 0).status is CONFIRMED

    def test_requires_one_factor(self):
        with pytest.raises(NoOneFactorError):
            verify_theorem1(no_factor_graph_with_edges(), 0)

    def test_size_precondition(self):
        with pytest.raises(InadmissibleParametersError):
            verify_theorem1(complete_graph(4), 1)


class TestTheorem2:
    def test_k6(self):
        report = verify_theorem2(complete_graph(6), 0, 0)
        assert report.status is CONFIRMED

    def test_edgeless_is_vacuous(self):
        report = verify_theorem2(Graph(6), 0, 0)
        assert report.status is VACUOUS
        assert report.hypothesis_detail["has_edges"] is False

    def test_admissibility(self):
        with pytest.raises(InadmissibleParametersError):
            verify_theorem2(complete_graph(4), 0, 1)  # needs n + 2k <= |V| - 4

    def test_theoremA_k6(self):
        report = verify_theoremA(complete_graph(6), 1)
        assert report.status is CONFIRMED


class TestTheorem3:
    def test_k8(self):
        report = verify_theorem3(complete_graph(8), 2, 0)
        assert report.status is CONFIRMED
        assert report.hypothesis_detail["size_bound_ok"] is True

    def test_h2_2_0_size_clause_fails(self):
        fam = build_h2(2, 0)
        assert fam.graph.vertex_count == 14  # above the 2k + 3n + 4 = 10 bound
        report = verify_theorem3(fam.graph, 2, 0)
        assert report.status is VACUOUS
        assert report.hypothesis_detail["size_bound_ok"] is False

    def test_needs_n_above_1(self):
        with pytest.raises(InadmissibleParametersError):
            verify_theorem3(complete_graph(8), 1, 0)


class TestTheorem4:
    def test_k6(self):
        assert verify_theorem4(complete_graph(6), 0, 1).status is CONFIRMED

    def test_c6_vacuous(self):
        # Every 1-factor of C6 contains an edge whose deletion leaves P4,
        # which is not (0, 1)-extendable; the conclusion itself is true.
        report = verify_theorem4(cycle_graph(6), 0, 1)
        assert report.status is VACUOUS
        assert report.hypothesis_detail["some_factor_hypothesis"] is False

    def test_degenerate_confirmed(self):
        report = verify_theorem4(complete_graph(2), 0, 0)
        assert report.status is CONFIRMED
        assert report.hypothesis_detail["degenerate"] is True

    def test_requires_one_factor(self):
        with pytest.raises(NoOneFactorError):
            verify_theorem4(no_factor_graph_with_edges(), 0, 1)


    @pytest.mark.parametrize(
        "limited",
        [lambda: Budget(pair_cap=0), lambda: Budget(deadline=time.monotonic() - 1)],
        ids=["pair-cap-0", "expired-deadline"],
    )
    def test_warm_row_is_free(self, limited):
        # A warm oracle answers the conclusion and every edge deletion from
        # its caches, so the row walks no set: it is free, and neither a
        # zero cap nor an expired deadline stops it. On a cold oracle the
        # same row walks sets, and the budget stops it.
        g = complete_graph(8)
        oracle = SubsetMatchingOracle(g)
        assert verify_theorem4(g, 0, 1, oracle=oracle).status is CONFIRMED
        budget = limited()
        assert verify_theorem4(g, 0, 1, oracle=oracle, budget=budget).status is CONFIRMED
        assert budget.pairs_charged == 0
        cold = verify_theorem4(g, 0, 1, oracle=SubsetMatchingOracle(g), budget=limited())
        assert cold.status is TheoremStatus.ABORTED

    def test_profile_cut_by_the_cap_is_not_kept(self):
        # The conclusion is cached here, so every unit the row spends is a
        # set that the scan of _qualifying_edges walks, and a cap of 53 units
        # (the edge count plus five) stops the row inside that scan.
        g = random_graphs(1, 12, 12, 0.7, 3)[0]
        oracle = SubsetMatchingOracle(g)
        assert theorems._holds_on_mask(oracle, oracle.full_mask, 2, 1, None)
        capped = verify_theorem4(g, 2, 1, oracle=oracle, budget=Budget(pair_cap=g.edge_count + 5))
        assert capped.status is TheoremStatus.ABORTED
        assert oracle.edge_cache == {}
        fresh = SubsetMatchingOracle(g)
        assert verify_theorem4(g, 2, 1, oracle=oracle) == verify_theorem4(g, 2, 1, oracle=fresh)
        assert theorems._one_factor_body(g, oracle, None, {"n": 2, "k": 1}) == reference_one_factor_body(
            g, SubsetMatchingOracle(g), {"n": 2, "k": 1}
        )


def _one_factor_rows():
    """(g, oracle, params) for every admissible T4 and TC census row at
    n_max = 3, k_max = 2 of the <=6 exhaustive corpus and of the first 10
    graphs of the dense sample G(10..12, 0.8), seed 0, that
    test_golden's census_dense60_full digest pins."""
    small = corpus_graphs(CorpusSpec(ExhaustiveSource(6)))
    dense = islice(corpus_graphs(CorpusSpec(RandomSource(60, 10, 12, 0.8, 0))), 10)
    for _, g in chain(small, dense):
        oracle = SubsetMatchingOracle(g)
        has_factor = oracle.is_perfectable(oracle.full_mask)
        for spec in (THEOREMS["T4"], THEOREMS["TC"]):
            for kwargs in spec.grid(3, 2):
                params = spec.params(**kwargs)
                if spec.admissible(g.vertex_count, has_factor, params):
                    yield g, oracle, params


class TestOneFactorReference:
    """The T4/TC body against the 1-factor walk it replaced (tests/oracles.py)."""

    def test_same_reports_on_small_corpus(self):
        statuses = []
        for g, oracle, p in _one_factor_rows():
            expected = reference_one_factor_body(g, oracle, p)
            assert theorems._one_factor_body(g, oracle, None, p) == expected
            statuses.append(expected[0])
        assert statuses.count(CONFIRMED) > 0 and statuses.count(VACUOUS) > 0

    def test_same_factor_when_the_conclusion_is_forced_to_fail(self, monkeypatch):
        # The statements are proved, so real counterexamples never occur.
        # Make every conclusion fail instead, and check that both bodies
        # name the same lexicographically first qualifying 1-factor.
        decide = theorems._holds_on_mask

        def conclusion_fails(oracle, mask, n, k, *rest):
            return mask != oracle.full_mask and decide(oracle, mask, n, k, *rest)

        monkeypatch.setattr(theorems, "_holds_on_mask", conclusion_fails)
        monkeypatch.setattr(theorems, "_conclusion_payload", lambda *args: {})
        counterexamples = 0
        for g, oracle, p in _one_factor_rows():
            expected = reference_one_factor_body(g, oracle, p)
            assert theorems._one_factor_body(g, oracle, None, p) == expected
            counterexamples += expected[0] is TheoremStatus.COUNTEREXAMPLE
        assert counterexamples > 0


class TestTheoremB:
    def test_k6(self):
        report = verify_theoremB(complete_graph(6), 2, 1)
        assert report.status is CONFIRMED
        assert report.hypothesis_detail["lhs_k_extendable"] is True
        assert report.hypothesis_detail["rhs_all_deletions"] is True

    def test_both_sides_false(self):
        report = verify_theoremB(no_factor_graph_with_edges(), 1, 1)
        assert report.status is CONFIRMED
        assert report.hypothesis_detail["lhs_k_extendable"] is False
        assert report.hypothesis_detail["rhs_all_deletions"] is False

    def test_no_i_matching_still_biconditional(self):
        # 4 isolated vertices: no 1-matching, so the existence clause makes
        # both sides false instead of a vacuous-true RHS.
        report = verify_theoremB(Graph(4), 1, 1)
        assert report.status is CONFIRMED
        assert report.hypothesis_detail["has_i_matching"] is False

    def test_i_range_enforced(self):
        with pytest.raises(InadmissibleParametersError):
            verify_theoremB(complete_graph(6), 1, 2)

    def test_set_form_matches_the_lex_walk_up_to_7_vertices(self):
        # Every admissible (k <= 2, 1 <= i <= k) row; the 429 failing rows
        # also check the witness descent's matching.
        assert theoremB_mismatches(exhaustive_graphs(7), 2) == (479, 429, [])

    def test_set_form_matches_the_lex_walk_on_random_graphs(self):
        # k = 3 needs 8 vertices, and an i of 2 or 3 on 10-12 vertices
        # reaches past the exhaustive corpus.
        graphs = [g for p in (0.5, 0.7, 0.9) for g in random_graphs(50, 8, 12, p, 0)]
        assert theoremB_mismatches(graphs, 3) == (522, 331, [])

    @pytest.mark.parametrize(
        "ref, k, i, charged",
        [("k6", 2, 1, 136), ("k14", 2, 1, 5), ("h1:2:1", 2, 1, 400), ("h1:2:1", 2, 2, 205)],
    )
    def test_pairs_charged_by_one_row(self, ref, k, i, charged):
        # K6 has at most 12 vertices, so every set is looked up: the (0, 2)
        # decision charges the empty set and 15 4-sets, the right side 15
        # 2-sets, and each K4 left decides (0, 1) on the empty set and its 6
        # 2-sets: 16 + 15 + 15 * 7. K14 is one twin class: the decision looks
        # up the empty set and one 4-set, the right side one 2-set, and the
        # K12 it leaves decides (0, 1) on two more sets. Charging per
        # i-matching tried instead costs 275 there (91 edges, each deletion
        # decided on 2 sets).
        g = complete_graph(int(ref[1:])) if ref[0] == "k" else resolve_family_ref(ref).graph
        budget = Budget()
        assert verify_theoremB(g, k, i, budget=budget).status is CONFIRMED
        assert budget.pairs_charged == charged

    @staticmethod
    def _lhs_true_rhs_false(monkeypatch):
        # The statement is proved, so force the left side: on P4 the first
        # 1-matching whose deletion leaves no 1-factor is {12}, and the
        # subgraph failure is decided on the vertices {0, 3} it leaves.
        force_holds(monkeypatch, lambda oracle, mask, n, k: mask == oracle.full_mask)
        return verify_theoremB(path_graph(4), 1, 1)

    def test_lhs_true_rhs_false_payload(self, monkeypatch):
        report = self._lhs_true_rhs_false(monkeypatch)
        assert report.status is TheoremStatus.COUNTEREXAMPLE
        payload = report.counterexample
        assert payload["direction"] == "lhs_true_rhs_false"
        assert payload["witness_matching"].edges == ((1, 2),)
        odd = payload["subgraph_failure"].tutte.odd_components
        assert sorted(c.members for c in odd) == [(0,), (3,)]

    def test_counterexample_row_renders_its_value_objects(self, monkeypatch):
        # The payload holds a Matching and a Failure with its Tutte set,
        # whose vertex sets and edges are tuples; the row is written by hand.
        report = self._lhs_true_rhs_false(monkeypatch)
        failure = {
            "kind": "STUCK_MATCHING",
            "s": [],
            "m": [],
            "tutte": {"s_prime": [], "excess": 2, "odd_components": [[0], [3]]},
        }
        row = {
            "theorem": "TB",
            "graph6": "Ch",
            "source": None,
            "params": {"k": 1, "i": 1},
            "status": "COUNTEREXAMPLE",
            "hypothesis": {"lhs_k_extendable": True, "has_i_matching": True, "rhs_all_deletions": False},
            "counterexample": {
                "direction": "lhs_true_rhs_false",
                "witness_matching": [[1, 2]],
                "subgraph_failure": failure,
            },
        }
        doc = {"schema": "matchext/1", "command": "verify", "reports": [row]}
        assert to_json(reports_document([report])) == json.dumps(doc, indent=2) + "\n"

    def test_lhs_false_rhs_true_payload(self, monkeypatch):
        # P4 is not 1-extendable; force the right side by letting no
        # 1-matching deletion get stuck. The payload names the left side's
        # failure, which re-verifies from scratch.
        monkeypatch.setattr(theorems, "_has_stuck_completion", lambda *args: False)
        g = path_graph(4)
        report = verify_theoremB(g, 1, 1)
        assert report.status is TheoremStatus.COUNTEREXAMPLE
        assert report.hypothesis_detail == {
            "lhs_k_extendable": False, "has_i_matching": True, "rhs_all_deletions": True,
        }
        assert report.counterexample["direction"] == "lhs_false_rhs_true"
        assert verify_failure_witness(g, 0, 1, report.counterexample["lhs_failure"])
        assert renders_as_json_dumps(report)


class TestForcedCounterexamples:
    """_conclude's COUNTEREXAMPLE path, which the proved statements never take
    unforced: the hypothesis is forced true on a graph whose conclusion fails."""

    def test_theorem2_conclusion_fails(self, monkeypatch):
        # Every edge deletion of h1:1:0 is forced (1, 1)-extendable through
        # _qualifying_edges, which decides all of them on an 11-vertex graph
        # (its first edge, decided alone, holds unforced); the graph itself
        # is not (1, 2)-extendable.
        monkeypatch.setattr(theorems, "_qualifying_edges", lambda oracle, n, k, budget: list(oracle.masks))
        g = resolve_family_ref("h1:1:0").graph
        report = verify_theorem2(g, 1, 1)
        assert report.status is TheoremStatus.COUNTEREXAMPLE
        assert report.counterexample["params"] == {"n": 1, "k": 2}
        assert verify_failure_witness(g, 1, 2, report.counterexample["conclusion_failure"])
        assert renders_as_json_dumps(report)

    def test_lemma2_names_the_first_failing_clause(self, monkeypatch):
        # P6 forced (2, 1)-extendable is neither (0, 1)- nor (2, 0)-extendable.
        force_holds(monkeypatch, lambda oracle, mask, n, k: mask == oracle.full_mask and (n, k) == (2, 1))
        g = path_graph(6)
        report = verify_lemma2(g, 2, 1)
        assert report.status is TheoremStatus.COUNTEREXAMPLE
        assert report.hypothesis_detail == {
            "extendable_n_k": True, "clause_fewer_vertices": False, "clause_smaller_matching": False,
        }
        assert report.counterexample["params"] == {"n": 0, "k": 1}
        assert verify_failure_witness(g, 0, 1, report.counterexample["conclusion_failure"])
        assert renders_as_json_dumps(report)


class TestTheoremC:
    def test_modes(self):
        assert verify_theoremC(complete_graph(6), k=1).status is CONFIRMED
        assert verify_theoremC(complete_graph(6), n=2).status is CONFIRMED

    def test_exactly_one_mode(self):
        with pytest.raises(InadmissibleParametersError):
            verify_theoremC(complete_graph(6))
        with pytest.raises(InadmissibleParametersError):
            verify_theoremC(complete_graph(6), k=1, n=1)

    def test_matches_theorem4_specialisations(self):
        for g in (complete_graph(6), cycle_graph(6), complete_graph(8)):
            assert verify_theoremC(g, k=1).status == verify_theorem4(g, 0, 1).status
            assert verify_theoremC(g, n=2).status == verify_theorem4(g, 2, 0).status


def _render_with_pid(report) -> str:
    """A row renderer that tells which process ran it."""
    return f"{os.getpid()} {render_row(report)}"


class TestCensus:
    def test_exhaustive_6_lemmas_no_counterexamples(self):
        result = run_census(
            CorpusSpec(ExhaustiveSource(6)),
            theorems=("L1", "L2"),
            ranges=ParamRanges(2, 1),
        )
        assert result.count(TheoremStatus.COUNTEREXAMPLE) == 0
        assert result.summary["L1"]["CONFIRMED"] > 0
        assert result.summary["L1"]["INADMISSIBLE"] > 0

    def test_random_corpus_no_counterexamples(self):
        spec = CorpusSpec(RandomSource(30, 8, 10, 0.5, seed=7))
        result = run_census(spec, theorems=("T2", "T4"), ranges=ParamRanges(2, 1))
        assert result.count(TheoremStatus.COUNTEREXAMPLE) == 0

    def test_files_corpus_family_ref(self):
        spec = CorpusSpec(FileSource(("h1:2:0",)))
        result = run_census(spec, theorems=("T2",), ranges=ParamRanges(2, 0))
        rows = {
            (r.params["n"], r.params["k"]): r.status
            for r in result.reports
        }
        assert rows[(2, 0)] is CONFIRMED
        assert result.count(TheoremStatus.COUNTEREXAMPLE) == 0

    def test_files_corpus_graph6_file(self, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text("C~\nE~~w\n")  # K4, K6
        spec = CorpusSpec(FileSource((str(path),)))
        result = run_census(spec, theorems=("L2",), ranges=ParamRanges(0, 1))
        assert result.summary["L2"]["CONFIRMED"] == 2

    def test_filters(self):
        spec = CorpusSpec(ExhaustiveSource(4), CorpusFilters(parity="even"))
        assert all(g.vertex_count % 2 == 0 for _, g in corpus_graphs(spec))
        spec = CorpusSpec(ExhaustiveSource(4), CorpusFilters(connected=True))
        assert len(corpus_graphs(spec)) == 1 + 1 + 2 + 6

    def test_random_corpus_streams_through_its_filters(self):
        spec = CorpusSpec(RandomSource(50, 3, 6, 0.5, 0), CorpusFilters(parity="even"))
        stream = corpus_graphs(spec)
        assert iter(stream) is stream
        drawn = random_graphs(50, 3, 6, 0.5, 0)
        expected = [(f"random:{i}", g) for i, g in enumerate(drawn) if g.vertex_count % 2 == 0]
        assert list(stream) == expected
        with pytest.raises(ValueError, match="edge_probability"):
            corpus_graphs(CorpusSpec(RandomSource(5, 3, 6, 1.5, 0)))

    def test_random_census_memory_does_not_grow_with_the_count(self):
        # No row is kept, so a census that draws its graphs one at a time
        # peaks at the same memory for 200 graphs and for 4 000. Holding
        # the 4 000 graphs in a list before the first row took about 1.2 MB more.
        def peak(count: int) -> int:
            tracemalloc.start()
            try:
                result = run_census(
                    CorpusSpec(RandomSource(count, 6, 6, 0.5, 0)), theorems=("TA",),
                    ranges=ParamRanges(0, 0), keep_statuses=(),
                )
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sum(result.summary["TA"].values()) == count
            return peak

        small, large = peak(200), peak(4000)
        assert large < small + (100 << 10)

    @pytest.mark.parametrize("limits", [
        {"pair_cap": -1}, {"timeout": -1.0}, {"timeout": float("nan")},
        {"ranges": ParamRanges(-1, 2)}, {"ranges": ParamRanges(3, -1)},
    ])
    def test_bad_limit_rejected_before_the_corpus(self, monkeypatch, limits):
        # Unchecked, pair_cap=-1 turns all 11 admissible L1 rows of the <= 4
        # corpus into ABORTED rows, and a negative n_max or k_max empties
        # the (n, k) grids, so the census checks nothing and returns.
        monkeypatch.setattr(
            census, "corpus_graphs", lambda spec: pytest.fail("corpus built before the limits were checked")
        )
        with pytest.raises(ValueError, match="must be non-negative"):
            run_census(CorpusSpec(ExhaustiveSource(4)), theorems=["L1"], **limits)

    def test_parameter_grid_bounded(self, monkeypatch):
        # 100 x 100 (n, k) pairs is the most a census sweeps; one more
        # n_max is refused before any row or corpus is built.
        spec = CorpusSpec(FileSource(("h1:1:0",)))
        assert run_census(spec, theorems=["L1"], ranges=ParamRanges(99, 99)).summary["L1"]["CONFIRMED"] > 0
        monkeypatch.setattr(
            census, "corpus_graphs", lambda spec: pytest.fail("corpus built before the grid was checked")
        )
        with pytest.raises(ValueError, match="n_max=100, k_max=99: more than 10000"):
            run_census(spec, theorems=["L1"], ranges=ParamRanges(100, 99))

    def test_no_pool_when_the_clamp_gives_one_job(self, monkeypatch, capsys):
        # clamp_jobs takes an exhaustive corpus's size from its class count,
        # since the pool starts before generation does.
        # census imports Pool from multiprocessing only when it starts one.
        class PoolStarted(Exception):
            pass

        def refuse(*args, **kwargs):
            raise PoolStarted

        monkeypatch.setattr("multiprocessing.Pool", refuse)
        monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
        kwargs = dict(theorems=("L2",), ranges=ParamRanges(1, 1), jobs=2)
        result = run_census(CorpusSpec(FileSource(("h1:1:0",))), **kwargs)
        assert result.summary["L2"]["CONFIRMED"] > 0
        assert cli.main(["census", "--max-vertices", "1", "--jobs", "2"]) == 2
        assert "checked no admissible row" in capsys.readouterr().err
        with pytest.raises(ValueError, match="must be non-negative"):
            run_census(CorpusSpec(ExhaustiveSource(4)), pair_cap=-1, **kwargs)
        with pytest.raises(ValueError, match="limited to 8 vertices"):
            run_census(CorpusSpec(ExhaustiveSource(9)), **kwargs)
        for source in (FileSource(("h1:1:0", "h1:2:0")), ExhaustiveSource(2)):
            with pytest.raises(PoolStarted):
                run_census(CorpusSpec(source), **kwargs)

    def test_pair_cap_aborts_instances(self):
        result = run_census(
            CorpusSpec(FileSource(("h1:1:0", "h1:2:0"))),
            theorems=("T2",),
            ranges=ParamRanges(2, 0),
            pair_cap=50,
        )
        assert result.count(TheoremStatus.ABORTED) > 0
        aborted = [r for r in result.reports if r.status is TheoremStatus.ABORTED]
        assert aborted[0].hypothesis_detail["reason"] == "budget exceeded"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_kept_rows_and_summary_match_the_full_run(self, jobs):
        # The pair cap aborts some rows, so the kept list is not empty, while
        # the rows it drops still count in the summary.
        keep = (TheoremStatus.COUNTEREXAMPLE, TheoremStatus.ABORTED)
        full = run_census(CAPPED_SPEC, **CAPPED_KWARGS)
        kept = run_census(CAPPED_SPEC, jobs=jobs, keep_statuses=keep, **CAPPED_KWARGS)
        assert kept.summary == full.summary
        assert kept.reports == [r for r in full.reports if r.status in keep]
        assert 0 < len(kept.reports) < len(full.reports)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_spliced_rows_equal_json_dumps(self, jobs):
        # Rows rendered where they are checked, spliced by to_json, give the
        # bytes json.dumps gives for the document built from report dicts;
        # keeping only COUNTEREXAMPLE rows leaves "reports": [].
        full = run_census(CAPPED_SPEC, **CAPPED_KWARGS)
        kinds = {(r.status, "failing_edge" in r.hypothesis_detail) for r in full.reports}
        assert {(VACUOUS, True), (TheoremStatus.ABORTED, False)} <= kinds
        for keep in (None, (TheoremStatus.COUNTEREXAMPLE,)):
            built = run_census(CAPPED_SPEC, keep_statuses=keep, **CAPPED_KWARGS)
            doc = {**census_document(built), "reports": [report_to_dict(r) for r in built.reports]}
            rendered = run_census(
                CAPPED_SPEC, jobs=jobs, keep_statuses=keep, render=render_row, **CAPPED_KWARGS
            )
            text = to_json(census_document(rendered))
            assert text == json.dumps(doc, indent=2) + "\n"
            assert ('"reports": []' in text) == (keep is not None)

    def test_rows_are_rendered_in_the_workers(self, monkeypatch):
        monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
        default = run_census(CAPPED_SPEC, jobs=2, **CAPPED_KWARGS)
        assert default.reports
        assert all(isinstance(r, theorems.TheoremReport) for r in default.reports)
        rendered = run_census(CAPPED_SPEC, jobs=2, render=render_row, **CAPPED_KWARGS)
        assert all(type(r) is str for r in rendered.reports)
        assert census_document(rendered) == census_document(default)
        tagged = run_census(CAPPED_SPEC, jobs=2, render=_render_with_pid, **CAPPED_KWARGS)
        pids = {int(row.split(" ", 1)[0]) for row in tagged.reports}
        assert pids and os.getpid() not in pids

    def test_determinism_and_jobs_invariance(self):
        spec = CorpusSpec(RandomSource(12, 5, 8, 0.4, seed=11))
        kwargs = dict(theorems=("L1", "L2", "TB"), ranges=ParamRanges(2, 1))
        doc1 = to_json(census_document(run_census(spec, **kwargs)))
        doc2 = to_json(census_document(run_census(spec, **kwargs)))
        doc_jobs = to_json(census_document(run_census(spec, jobs=2, **kwargs)))
        assert doc1 == doc2 == doc_jobs

    def test_clamp_jobs(self, monkeypatch):
        monkeypatch.setattr(census.os, "cpu_count", lambda: 4)
        assert clamp_jobs(3, 50) == 3
        assert clamp_jobs(10**6, 50) == 4
        assert clamp_jobs(10**6, 2) == 2
        assert clamp_jobs(0, 50) == 1
        assert clamp_jobs(-5, 50) == 1
        assert clamp_jobs(8, 0) == 1
        monkeypatch.setattr(census.os, "cpu_count", lambda: None)
        assert clamp_jobs(8, 50) == 1

    def test_normalize_theorems(self):
        assert normalize_theorems(["L2", "T1", "L1"]) == ("T1", "L1", "L2")
        with pytest.raises(ValueError):
            normalize_theorems(["T9"])

    def test_no_counterexample_payload_on_confirmed(self):
        assert verify_lemma1(complete_graph(8), 2, 0).counterexample is None

    def test_report_soundness_against_naive_oracle(self):
        # Recompute a sample of non-vacuous census rows with the brute-force
        # extendability oracle; statuses must be identical.
        from matchext import parse_graph6
        from oracles import naive_is_nk_extendable

        result = run_census(
            CorpusSpec(ExhaustiveSource(6)),
            theorems=("T2", "L1"),
            ranges=ParamRanges(2, 1),
        )
        sampled = 0
        for report in result.reports:
            if report.status is not CONFIRMED or sampled >= 25:
                continue
            g = parse_graph6(report.graph6)
            n, k = report.params["n"], report.params["k"]
            if report.theorem_id == "L1":
                assert naive_is_nk_extendable(g, n, k)
                assert naive_is_nk_extendable(g, n - 2, k + 1)
            else:
                for u, v in g.edges():
                    sub, _ = delete_for_edge(g, u, v)
                    assert naive_is_nk_extendable(sub, n, k)
                assert naive_is_nk_extendable(g, n, k + 1)
            sampled += 1
        assert sampled == 25


class TestRegistry:
    def test_ids_in_table_order(self):
        assert THEOREM_IDS == ("T1", "T2", "T3", "T4", "TA", "TB", "TC", "L1", "L2")
        assert census._VALIDATORS == {tid: spec.validator for tid, spec in THEOREMS.items()}

    def test_census_admissibility_matches_validators(self):
        # The census skips a row exactly when the validator would refuse it,
        # and the refusal is NoOneFactorError only for a missing 1-factor.
        refused = 0
        for source, g in corpus_graphs(CorpusSpec(ExhaustiveSource(6))):
            oracle = SubsetMatchingOracle(g)
            has_factor = oracle.is_perfectable(oracle.full_mask)
            for tid, spec in THEOREMS.items():
                for kwargs in spec.grid(3, 2):
                    if spec.admissible(g.vertex_count, has_factor, spec.params(**kwargs)):
                        spec.validator(g, **kwargs, oracle=oracle, source=source)
                        continue
                    error = NoOneFactorError if spec.needs_factor and not has_factor else InadmissibleParametersError
                    with pytest.raises(error):
                        spec.validator(g, **kwargs, oracle=oracle, source=source)
                    refused += 1
        assert refused > 0

    @pytest.mark.parametrize("validator, g, kwargs", [
        (verify_theorem2, complete_graph(5), {"n": -1, "k": 0}),
        (verify_lemma2, complete_graph(5), {"n": -1, "k": 1}),
        (verify_theorem1, complete_graph(6), {"k": -1}),
        (verify_theoremA, complete_graph(6), {"k": -1}),
        (verify_theorem4, complete_graph(8), {"n": -2, "k": 0}),
    ], ids=["T2", "L2", "T1", "TA", "T4"])
    def test_negative_parameters_inadmissible(self, validator, g, kwargs):
        # Unchecked, T2 and L2 confirm these rows, and T1, TA and T4 fail
        # inside itertools.combinations with a ValueError.
        with pytest.raises(InadmissibleParametersError):
            validator(g, **kwargs)

    def test_tc_grid_order(self):
        assert THEOREMS["TC"].grid(2, 1) == [{"k": 0}, {"k": 1}, {"n": 1}, {"n": 2}]

    def test_aborted_census_rows_keep_params(self):
        spec = CorpusSpec(FileSource(("h1:2:0",)))
        kwargs = dict(theorems=("TC", "TB"), ranges=ParamRanges(2, 1))
        capped = run_census(spec, pair_cap=1, **kwargs)
        full = run_census(spec, **kwargs)
        assert capped.summary["TC"]["ABORTED"] > 0
        assert [r.params for r in capped.reports] == [r.params for r in full.reports]


class TestReportShape:
    def test_instance_carries_graph6_and_params(self):
        report = verify_theorem2(complete_graph(6), 0, 0, source="unit")
        assert report.graph6 == "E~~w"
        assert report.source == "unit"
        assert report.params == {"n": 0, "k": 0}

    @pytest.mark.parametrize("context", [{"params": {"n": 2, "k": 0}}, {"graph6": "A_"}])
    def test_report_fields_are_not_overridable(self, context):
        # graph6 and params follow from g and the validator's own arguments,
        # so a report cannot name another graph or other parameters.
        with pytest.raises(TypeError):
            verify_theorem2(complete_graph(6), 0, 0, **context)

    @pytest.mark.parametrize("tid, kwargs", [
        ("T2", {"n": 0, "k": 1}), ("TC", {"k": 1}), ("TC", {"n": 2}), ("T1", {"k": 1}),
        ("T3", {"n": 2, "k": 0}), ("T4", {"n": 0, "k": 1}), ("TA", {"k": 1}), ("TB", {"k": 1, "i": 1}),
        ("L1", {"n": 2, "k": 0}), ("L2", {"n": 0, "k": 1}),
    ])
    def test_aborted_row_has_the_confirmed_rows_instance(self, tid, kwargs):
        # Every validator returns ABORTED once its budget runs out, on the
        # instance the uncapped row names, whether or not report_or_abort
        # runs it.
        g = complete_graph(6)
        confirmed, aborted = [
            census.report_or_abort(
                tid, g, kwargs, oracle=SubsetMatchingOracle(g), limits=(None, pair_cap), source="unit"
            )
            for pair_cap in (None, 0)
        ]
        direct = THEOREMS[tid].validator(
            g, **kwargs, oracle=SubsetMatchingOracle(g), budget=Budget(pair_cap=0), source="unit"
        )
        assert confirmed.status is CONFIRMED
        assert confirmed.params == THEOREMS[tid].params(**kwargs)
        for report in (aborted, direct):
            assert report.status is TheoremStatus.ABORTED
            assert report.hypothesis_detail == {"reason": "budget exceeded"}
            assert (report.graph6, report.source, report.params) == (
                confirmed.graph6, confirmed.source, confirmed.params
            )

    def test_foreign_oracle_is_refused(self):
        # An oracle of three disjoint edges would make K6 read VACUOUS.
        oracle = SubsetMatchingOracle(Graph(6, [(0, 1), (2, 3), (4, 5)]))
        with pytest.raises(ValueError, match="another graph"):
            verify_theorem2(complete_graph(6), 0, 1, oracle=oracle)
        assert verify_theorem2(complete_graph(6), 0, 1).status is CONFIRMED

    def test_counterexample_payload_machinery_reverifies(self):
        # Genuine counterexamples cannot occur (the statements are proved),
        # so drive the payload constructor directly on a failing conclusion.
        from matchext.matching import SubsetMatchingOracle
        from matchext.theorems import _conclusion_payload

        g = no_factor_graph_with_edges()
        oracle = SubsetMatchingOracle(g)
        payload = _conclusion_payload(oracle, oracle.full_mask, 0, 0)
        assert payload["params"] == {"n": 0, "k": 0}
        failure = payload["conclusion_failure"]
        assert failure is not None
        assert verify_failure_witness(g, 0, 0, failure)
