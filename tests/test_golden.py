"""Byte-for-byte goldens of the JSON the CLI emits for fixed inputs and seeds.

The files under golden/ and the digests below were frozen from a build
whose output is trusted; any refactor must reproduce them exactly. The two
larger census documents (1.1 MB and more) are pinned by SHA-256 instead of
being checked in. The certify goldens pin every byte but the values of
the two "stats" counters: those are work counters, which count what the
decision engine looked up, not what it concluded. Their files hold the
counters the CLI prints, and the last test pins them on two graphs of at
most 12 vertices.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from matchext.cli import main

GOLDEN = Path(__file__).parent / "golden"
ALL_IDS = "T1,T2,T3,T4,TA,TB,TC,L1,L2"

FILE_GOLDENS = [
    (["census", "--max-vertices", "5", "--full"], "census_max5_full.json"),
] + [
    (
        ["verify", "--theorems", ALL_IDS, "--n", "2", "--k", "1", "--graph", ref],
        f"verify_{ref.replace(':', '_')}_n2_k1.json",
    )
    for ref in ("h1:2:0", "h1:2:1", "h2:2:0")
] + [
    (["family", "--graph", "h2:1:1", "--parts"], "family_h2_1_1_parts.json"),
]

DIGEST_GOLDENS = [
    (
        ["census", "--max-vertices", "6", "--full"],
        "f02f8e21a7a14f01d43e131b81ed5229ae4adfe8f611131b4b5890a15b1c0d45",
    ),
    (
        ["census", "--random", "60", "--vertices", "10..12", "--edge-prob", "0.8",
         "--seed", "0", "--full"],
        "06813cf37dfe85abefc1e244a12b42984438dc7dc95beee243e3832cc87d4107",
    ),
]


# (graph, n, k, exit code): failures of each kind, one positive verdict, and
# a lazy-oracle instance (h1:3:0 has 21 vertices).
CERTIFY_GOLDENS = [
    ("h1:2:0", 2, 2, 1),
    ("h2:2:1", 4, 1, 1),
    ("h1:3:0", 3, 1, 0),
    ("h2:0:0", 0, 1, 1),
    ("h1:1:2", 1, 3, 1),
]


def _output(argv, tmp_path, exit_code=0) -> bytes:
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == exit_code
    return out.read_bytes()


_COUNTERS = re.compile(rb'("(?:subsets|pairs)_examined": )\d+')


def _without_counters(text: bytes) -> bytes:
    masked, count = _COUNTERS.subn(rb"\1#", text)
    assert count == 2
    return masked


@pytest.mark.parametrize("argv, name", FILE_GOLDENS, ids=[name for _, name in FILE_GOLDENS])
def test_matches_golden_file(argv, name, tmp_path):
    assert _output(argv, tmp_path) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("argv, digest", DIGEST_GOLDENS, ids=["census_max6_full", "census_dense60_full"])
def test_matches_golden_digest(argv, digest, tmp_path):
    assert hashlib.sha256(_output(argv, tmp_path)).hexdigest() == digest


@pytest.mark.parametrize("ref, n, k, exit_code", CERTIFY_GOLDENS, ids=[f"{r}_{n}_{k}" for r, n, k, _ in CERTIFY_GOLDENS])
def test_certify_matches_golden_apart_from_stats(ref, n, k, exit_code, tmp_path):
    argv = ["certify", "--graph", ref, "--n", str(n), "--k", str(k)]
    name = f"certify_{ref.replace(':', '_')}_n{n}_k{k}.json"
    got = _output(argv, tmp_path, exit_code)
    assert _without_counters(got) == _without_counters((GOLDEN / name).read_bytes())


@pytest.mark.parametrize("ref, n, k, counters", [("h2:0:0", 0, 1, (1, 11)), ("h2:1:0", 1, 1, (16, 299))])
def test_certify_counters_on_graphs_of_at_most_12_vertices(ref, n, k, counters, tmp_path):
    # 4 and 9 vertices: the decisions and the stuck-matching descent count,
    # with bitsets, the sets an ascending walk would look up.
    got = json.loads(_output(["certify", "--graph", ref, "--n", str(n), "--k", str(k)], tmp_path, 1))
    assert (got["stats"]["subsets_examined"], got["stats"]["pairs_examined"]) == counters
