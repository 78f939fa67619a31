#!/usr/bin/env python3
"""Run the exhaustive <= 8 vertex census over all validators and print the
summary table. Equivalent to the acceptance gate's zero-counterexample run.
The same --jobs worker processes first generate the 14k-class corpus, one
parent graph per work unit, and then sweep it; the sweep takes most of the
time, about 20 s in all with --jobs 2 on a 2-core machine.
"""

import argparse
import sys
import time

from matchext import CorpusSpec, ExhaustiveSource, ParamRanges, TheoremStatus, run_census
from matchext.census import STATUS_ORDER
from matchext.theorems import THEOREM_IDS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-vertices", type=int, default=8)
    parser.add_argument("--theorems", default=",".join(THEOREM_IDS))
    parser.add_argument("--n-max", type=int, default=3)
    parser.add_argument("--k-max", type=int, default=2)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()

    t0 = time.time()
    result = run_census(
        CorpusSpec(ExhaustiveSource(args.max_vertices)),
        theorems=[t.strip() for t in args.theorems.split(",")],
        ranges=ParamRanges(args.n_max, args.k_max),
        jobs=args.jobs,
        keep_statuses=(TheoremStatus.COUNTEREXAMPLE, TheoremStatus.ABORTED),
    )
    elapsed = time.time() - t0

    header = "theorem " + " ".join(f"{s:>15}" for s in STATUS_ORDER)
    print(header)
    for tid, per in result.summary.items():
        print(f"{tid:7} " + " ".join(f"{per[s]:15d}" for s in STATUS_ORDER))
    bad = result.count(TheoremStatus.COUNTEREXAMPLE)
    print(f"\n{elapsed:.1f}s, counterexamples: {bad}")
    for r in result.reports[:5]:
        print("  !!", r.theorem_id, r.graph6, dict(r.params))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
