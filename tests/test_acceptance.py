"""Acceptance criteria, one test per criterion.

Each test prints one `[acceptance] criterion N PASS` line (run pytest with
-s to see them live); a failing criterion fails its test. The heavyweight
sweeps share the exhaustive corpus, built once per session by the
``corpus_up_to_eight`` fixture.
"""

import json
import time
from itertools import combinations

import pytest

from matchext import (
    CorpusSpec,
    ExhaustiveSource,
    ParamRanges,
    RandomSource,
    TheoremStatus,
    VertexSet,
    delete_vertices,
    exhaustive_graphs,
    find_tutte_certificate,
    is_k_extendable,
    is_n_factor_critical,
    is_nk_extendable,
    maximum_matching,
    random_graphs,
    run_census,
)
from matchext.census import _ordered_map
from matchext.cli import main
from matchext.families import build_h1, build_h2

from oracles import brute_max_deficiency, brute_max_matching_size, reference_blossom_mates

CRITERION_6_THEOREMS = ("T1", "T2", "T3", "T4", "TB", "TC", "L1", "L2")
CRITERION_7_IDENTITIES = 64718


def report(criterion: int, message: str) -> None:
    print(f"[acceptance] criterion {criterion} PASS: {message}")


def masked_one_factor(g, mask: int) -> bool:
    """Blossom on the induced subgraph; primitive for the direct checkers."""
    verts = [v for v in range(g.vertex_count) if mask >> v & 1]
    if len(verts) % 2 == 1:
        return False
    index = {v: i for i, v in enumerate(verts)}
    neighbors = [
        [index[u] for u in g.neighbors(v) if mask >> u & 1] for v in verts
    ]
    return all(m != -1 for m in reference_blossom_mates(len(verts), neighbors))


def test_criterion_1_h1_sharpness_witness(capsys):
    start = time.monotonic()
    code = main(["check", "--n", "2", "--k", "2", "--graph", "h1:2:0"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 1
    failure = doc["failure"]
    assert failure["kind"] == "STUCK_MATCHING"
    assert failure["s"] == [10, 11]
    assert failure["m"] == [[12, 13], [14, 15]]
    assert failure["tutte"]["s_prime"] == []
    assert failure["tutte"]["excess"] == 2
    assert failure["tutte"]["odd_components"] == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
    assert elapsed < 60.0
    with capsys.disabled():
        report(1, f"h1:2:0 not (2,2)-extendable, exact core/pendant witness, {elapsed:.2f}s")


def test_criterion_2_h1_hypothesis_side(capsys):
    start = time.monotonic()
    fam = build_h1(2, 0)
    edges = fam.graph.edges()
    assert len(edges) == 83
    for edge in edges:
        reduced, _ = delete_vertices(fam.graph, VertexSet.of(edge))
        assert is_nk_extendable(reduced, 2, 0).holds, f"edge {edge} fails"
    # One representative edge through the actual CLI path.
    from matchext.graph_io import serialize_graph6

    reduced, _ = delete_vertices(fam.graph, VertexSet.of(edges[0]))
    code = main(["check", "--n", "2", "--k", "0", "--graph", serialize_graph6(reduced)])
    capsys.readouterr()
    assert code == 0
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    with capsys.disabled():
        report(2, f"all 83 edge deletions of h1:2:0 stay (2,0)-extendable, {elapsed:.1f}s")


def test_criterion_3_h2_claim(capsys):
    fam = build_h2(1, 1)
    assert fam.graph.vertex_count == 11
    assert is_nk_extendable(fam.graph, 1, 1).holds
    verdict = is_nk_extendable(fam.graph, 3, 1)
    assert not verdict.holds
    failure = verdict.failure
    assert failure.s == fam.core and failure.s.members == (6, 7, 8)
    assert failure.m == fam.pendant_matching and failure.m.edges == ((9, 10),)
    with capsys.disabled():
        report(3, "h2:1:1 is (1,1)-extendable and fails (3,1) at core/pendant exactly")


@pytest.mark.usefixtures("corpus_up_to_eight")
def test_criterion_4_tutte_certificate_soundness(capsys):
    start = time.monotonic()
    checked = 0
    for g in exhaustive_graphs(8):
        if g.vertex_count % 2 == 1:
            continue
        cert = find_tutte_certificate(g)
        if cert is None:
            continue
        assert cert.deficiency_excess == brute_max_deficiency(g)
        checked += 1
    # Exhaustive generation tops out at 8 vertices (see the generator's
    # contract); a seeded 10-vertex sample supplements the sweep.
    extra = 0
    for g in random_graphs(300, 10, 10, 0.2, seed=20260809):
        cert = find_tutte_certificate(g)
        if cert is None:
            continue
        assert cert.deficiency_excess == brute_max_deficiency(g)
        extra += 1
    elapsed = time.monotonic() - start
    # 1994 of the 12515 even-order classes on <= 8 vertices lack a 1-factor.
    assert checked == 1994
    assert extra > 50
    assert elapsed < 1800.0
    with capsys.disabled():
        report(
            4,
            f"{checked} exhaustive + {extra} sampled 10-vertex 1-factor-free graphs, "
            f"excess == brute-force deficiency, {elapsed:.1f}s",
        )


def test_criterion_5_matching_oracle(capsys):
    start = time.monotonic()
    batches = ((167, 0.2), (167, 0.35), (166, 0.5))
    count = 0
    for i, (size, p) in enumerate(batches):
        for g in random_graphs(size, 8, 12, p, seed=1000 + i):
            assert maximum_matching(g).size == brute_max_matching_size(g)
            count += 1
    elapsed = time.monotonic() - start
    assert count == 500
    assert elapsed < 300.0
    with capsys.disabled():
        report(5, f"blossom == brute force on {count} random graphs (8-12 vertices), {elapsed:.1f}s")


@pytest.mark.usefixtures("corpus_up_to_eight")
def test_criterion_6_zero_counterexample_census(capsys):
    start = time.monotonic()
    result = run_census(
        CorpusSpec(ExhaustiveSource(8)),
        theorems=CRITERION_6_THEOREMS,
        ranges=ParamRanges(n_max=3, k_max=2),
        jobs=2,
        keep_statuses=(TheoremStatus.COUNTEREXAMPLE, TheoremStatus.ABORTED),
    )
    elapsed = time.monotonic() - start
    assert result.count(TheoremStatus.COUNTEREXAMPLE) == 0, result.reports[:3]
    assert result.count(TheoremStatus.ABORTED) == 0
    confirmed = sum(per["CONFIRMED"] for per in result.summary.values())
    assert confirmed > 50000
    assert elapsed < 7200.0
    with capsys.disabled():
        report(
            6,
            f"exhaustive <=8 census, {len(CRITERION_6_THEOREMS)} validators, "
            f"{confirmed} confirmed, 0 counterexamples, {elapsed:.1f}s",
        )


def direct_k_extendable(g, k: int) -> bool:
    """The definition, independently: edge combinations plus blossom calls."""
    full = (1 << g.vertex_count) - 1
    k_matchings = []
    for combo in combinations(g.edges(), k):
        used = 0
        for u, v in combo:
            bits = (1 << u) | (1 << v)
            if used & bits:
                used = -1
                break
            used |= bits
        if used >= 0:
            k_matchings.append((combo, used))
    if not k_matchings:
        return False
    return all(masked_one_factor(g, full & ~used) for _, used in k_matchings)


def direct_factor_critical(g, n: int) -> bool:
    full = (1 << g.vertex_count) - 1
    for subset in combinations(range(g.vertex_count), n):
        mask = full
        for v in subset:
            mask &= ~(1 << v)
        if not masked_one_factor(g, mask):
            return False
    return True


def specialization_identities(g) -> tuple[int, list[tuple[str, int]]]:
    """Criterion 7 on one graph: the number of identities checked and the
    ("k", k) or ("n", n) of each one that fails."""
    nv = g.vertex_count
    checked, failed = 0, []
    for k in range(3):
        if 2 * k <= nv - 2 and nv % 2 == 0:
            if is_k_extendable(g, k).holds != direct_k_extendable(g, k):
                failed.append(("k", k))
            checked += 1
    for n in range(4):
        if n <= nv - 2 and (nv - n) % 2 == 0:
            if is_n_factor_critical(g, n).holds != direct_factor_critical(g, n):
                failed.append(("n", n))
            checked += 1
    return checked, failed


@pytest.mark.usefixtures("corpus_up_to_eight")
def test_criterion_7_specialization_identities(capsys):
    start = time.monotonic()
    graphs = exhaustive_graphs(8)
    checked = 0
    with _ordered_map(2) as mapper:
        for g, (count, failed) in zip(graphs, mapper(specialization_identities, graphs)):
            assert failed == [], (g.edges(), failed)
            checked += count
    assert checked == CRITERION_7_IDENTITIES
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(7, f"{checked} specialization identities on the <=8 census, {elapsed:.1f}s")


def test_criterion_8_census_determinism(tmp_path, capsys):
    random_args = [
        "census", "--random", "25", "--vertices", "6..9", "--seed", "99",
        "--edge-prob", "0.45", "--theorems", "T2,TB,L1,L2",
        "--n-max", "2", "--k-max", "1", "--full",
    ]
    exhaustive_args = [
        "census", "--max-vertices", "5", "--theorems", ",".join(CRITERION_6_THEOREMS),
        "--n-max", "3", "--k-max", "2",
    ]
    outputs = []
    for tag, args in (("r", random_args), ("e", exhaustive_args)):
        pair = []
        for attempt in "ab":
            path = tmp_path / f"{tag}{attempt}.json"
            assert main(args + ["--out", str(path)]) == 0
            pair.append(path.read_bytes())
        assert pair[0] == pair[1]
        outputs.append(len(pair[0]))
    capsys.readouterr()
    with capsys.disabled():
        report(8, f"byte-identical reruns for random and exhaustive censuses ({outputs} bytes)")
