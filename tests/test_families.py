import pytest

from matchext import (
    Failure,
    FailureKind,
    TheoremStatus,
    VertexSet,
    delete_vertices,
    find_tutte_certificate,
    is_nk_extendable,
    verify_failure_witness,
    verify_theorem2,
)
from matchext import families
from matchext.families import build_h1, build_h2, resolve_family_ref
from matchext.matching import TutteCertificate

from oracles import naive_is_nk_extendable

SMALL_RANGE = [(n, k) for n in range(3) for k in range(2)]


class TestConstruction:
    @pytest.mark.parametrize("n,k", [(n, k) for n in range(4) for k in range(4)])
    def test_h1_size_formula(self, n, k):
        fam = build_h1(n, k)
        assert fam.graph.vertex_count == 5 * n + 2 * k + 6
        assert len(fam.core) == n
        assert fam.pendant_matching.size == k + 2
        assert all(len(b) == 2 * n + 1 for b in fam.clique_blocks)
        # |V| - n even: admissibility of the sharpness claims is automatic.
        assert (fam.graph.vertex_count - n) % 2 == 0

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(4) for k in range(4)])
    def test_h2_size_formula(self, n, k):
        fam = build_h2(n, k)
        assert fam.graph.vertex_count == 5 * n + 2 * k + 4
        assert len(fam.core) == n + 2
        assert fam.pendant_matching.size == k
        assert (fam.graph.vertex_count - (n + 2)) % 2 == 0

    def test_h1_2_0_layout(self):
        fam = build_h1(2, 0)
        assert fam.graph.vertex_count == 16
        assert fam.clique_blocks[0].members == tuple(range(5))
        assert fam.clique_blocks[1].members == tuple(range(5, 10))
        assert fam.core.members == (10, 11)
        assert fam.pendant_matching.edges == ((12, 13), (14, 15))
        assert fam.graph.edge_count == 2 * 10 + 1 + 2 + 10 * 6

    def test_h1_1_1_size(self):
        assert build_h1(1, 1).graph.vertex_count == 13

    def test_h2_0_0_is_k4_minus_edge(self):
        fam = build_h2(0, 0)
        g = fam.graph
        assert (g.vertex_count, g.edge_count) == (4, 5)
        assert not g.has_edge(0, 1)  # the two K_1 blocks stay non-adjacent

    def test_h2_2_2_size(self):
        assert build_h2(2, 2).graph.vertex_count == 18

    def test_blocks_not_joined_to_each_other(self):
        fam = build_h1(1, 0)
        b0, b1 = fam.clique_blocks
        assert not any(fam.graph.has_edge(u, v) for u in b0 for v in b1)

    def test_parts_follow_vertex_numbering(self):
        # Blocks first, then the core, then the pendant pairs.
        fam = build_h1(1, 1)
        assert fam.clique_blocks[0].members == (0, 1, 2)
        assert fam.clique_blocks[1].members == (3, 4, 5)
        assert fam.core.members == (6,)
        assert fam.pendant_matching.edges == ((7, 8), (9, 10), (11, 12))

    def test_ref_resolution(self):
        fam = resolve_family_ref("h1:2:0")
        assert fam is not None and fam.graph == build_h1(2, 0).graph
        assert resolve_family_ref("h3:1:1") is None
        assert resolve_family_ref("C~") is None
        assert resolve_family_ref("h2:0:0").ref == "h2:0:0"

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            build_h1(-1, 0)

    @pytest.mark.parametrize("n,k", [(0, 0), (1, 2), (3, 1)])
    def test_edge_limit_counts_before_building(self, monkeypatch, n, k):
        # The refusal names the edge count the member would have, computed
        # from n and k alone; an h1/h2 ref of a few digits cannot build more.
        built = {build: build(n, k).graph.edge_count for build in (build_h1, build_h2)}
        monkeypatch.setattr(families, "EDGE_LIMIT", 0)
        for build, edges in built.items():
            with pytest.raises(ValueError, match=f" would have {edges} edges; the limit is 0$"):
                build(n, k)
        with pytest.raises(ValueError, match="the limit is 0"):
            resolve_family_ref("h1:0:0")


def canonical_failure(fam, extra_core: int = 0) -> Failure:
    """The paper's witness: S = core, M = pendant edges, Tutte set on the rest."""
    g = fam.graph
    deleted = VertexSet.of(set(fam.core) | fam.pendant_matching.vertices)
    remainder, kept = delete_vertices(g, deleted)
    cert = find_tutte_certificate(remainder)
    assert cert is not None
    lifted = TutteCertificate(
        s_prime=VertexSet.of(kept[v] for v in cert.s_prime),
        odd_components=tuple(
            VertexSet.of(kept[v] for v in comp) for comp in cert.odd_components
        ),
        deficiency_excess=cert.deficiency_excess,
    )
    return Failure(
        kind=FailureKind.STUCK_MATCHING,
        s=fam.core,
        m=fam.pendant_matching,
        tutte=lifted,
    )


class TestSharpness:
    @pytest.mark.parametrize("n,k", SMALL_RANGE)
    def test_h1_fails_n_k_plus_2(self, n, k):
        fam = build_h1(n, k)
        assert not is_nk_extendable(fam.graph, n, k + 2).holds
        assert verify_failure_witness(fam.graph, n, k + 2, canonical_failure(fam))

    @pytest.mark.parametrize("n", [3, 4])
    def test_h1_n_1_fails_n_3_at_core_and_pendants(self, n):
        # 23 and 28 vertices, k = 3: the witness search finds the stuck
        # 3-matching without listing 3-matchings.
        fam = build_h1(n, 1)
        verdict = is_nk_extendable(fam.graph, n, 3)
        assert not verdict.holds
        assert (verdict.failure.s, verdict.failure.m) == (fam.core, fam.pendant_matching)
        assert verify_failure_witness(fam.graph, n, 3, verdict.failure)
        assert verify_failure_witness(fam.graph, n, 3, canonical_failure(fam))

    @pytest.mark.parametrize("n,k", SMALL_RANGE)
    def test_h2_fails_n_plus_2_k(self, n, k):
        fam = build_h2(n, k)
        assert not is_nk_extendable(fam.graph, n + 2, k).holds
        assert verify_failure_witness(fam.graph, n + 2, k, canonical_failure(fam))

    @pytest.mark.parametrize("n,k", [p for p in SMALL_RANGE if p != (0, 1)])
    def test_h1_edge_deletions_stay_extendable(self, n, k):
        # T2's hypothesis side holds on H1, and its conclusion (n, k+1) with it.
        report = verify_theorem2(build_h1(n, k).graph, n, k)
        assert report.status is TheoremStatus.CONFIRMED

    def test_h1_0_1_breaks_on_a_join_edge(self):
        # With single-vertex blocks the edge-deletion property genuinely
        # fails: removing join edge (0, 2) leaves pendant partner 3 adjacent
        # only to block vertex 1, and the 1-matching {(1, 4)} strands it.
        fam = build_h1(0, 1)
        report = verify_theorem2(fam.graph, 0, 1)
        assert report.status is TheoremStatus.VACUOUS
        assert report.hypothesis_detail["failing_edge"] == (0, 2)
        sub, _ = delete_vertices(fam.graph, VertexSet.of([0, 2]))
        assert not is_nk_extendable(sub, 0, 1).holds
        assert not naive_is_nk_extendable(sub, 0, 1)

    @pytest.mark.parametrize("n,k", SMALL_RANGE)
    def test_h2_core_edge_deletion_breaks_extendability(self, n, k):
        # Deleting the core edge leaves S = remaining core, M = pendants as
        # a stuck pair (two odd blocks survive), so T2's hypothesis fails on
        # every H2 and the instance is vacuous rather than confirmed.
        fam = build_h2(n, k)
        report = verify_theorem2(fam.graph, n, k)
        assert report.status is TheoremStatus.VACUOUS
        core_edge = fam.core.members[:2]
        sub, _ = delete_vertices(fam.graph, VertexSet.of(core_edge))
        assert not is_nk_extendable(sub, n, k).holds

    def test_h1_3_0_exact_witness(self):
        fam = build_h1(3, 0)
        verdict = is_nk_extendable(fam.graph, 3, 2)
        assert not verdict.holds
        f = verdict.failure
        assert f.kind is FailureKind.STUCK_MATCHING
        assert f.s == fam.core
        assert f.m == fam.pendant_matching
        assert f.tutte.s_prime.members == ()
        assert {c.members for c in f.tutte.odd_components} == {
            tuple(range(7)),
            tuple(range(7, 14)),
        }
        assert verify_failure_witness(fam.graph, 3, 2, f)

    def test_h1_3_0_is_3_1_extendable(self):
        assert is_nk_extendable(build_h1(3, 0).graph, 3, 1).holds

    def test_h2_3_0_fails_5_0_at_core(self):
        fam = build_h2(3, 0)
        verdict = is_nk_extendable(fam.graph, 5, 0)
        assert not verdict.holds
        assert verdict.failure.kind is FailureKind.STUCK_MATCHING
        assert verdict.failure.s == fam.core
        assert verify_failure_witness(fam.graph, 5, 0, verdict.failure)

    def test_h2_1_1_is_1_1_extendable(self):
        assert is_nk_extendable(build_h2(1, 1).graph, 1, 1).holds
