"""Byte-for-byte goldens of the JSON the CLI emits for fixed inputs and seeds.

The files under golden/ and the digests below were frozen from a build
whose output is trusted; any refactor must reproduce them exactly. The two
larger census documents (1.1 MB and more) are pinned by SHA-256 instead of
being checked in.
"""

import hashlib
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


def _output(argv, tmp_path) -> bytes:
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("argv, name", FILE_GOLDENS, ids=[name for _, name in FILE_GOLDENS])
def test_matches_golden_file(argv, name, tmp_path):
    assert _output(argv, tmp_path) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("argv, digest", DIGEST_GOLDENS, ids=["census_max6_full", "census_dense60_full"])
def test_matches_golden_digest(argv, digest, tmp_path):
    assert hashlib.sha256(_output(argv, tmp_path)).hexdigest() == digest
