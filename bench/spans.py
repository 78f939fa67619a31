"""Spans around the calls through which one matchext module calls the next.

The wrappers are installed from outside: each replaces a module attribute
(or class attribute) of matchext with a function that records a span and
calls the original. matchext itself carries no counters.

A span is (name, item, parent, start, end, self time). ``item`` is the
instance or corpus graph the span belongs to, so all spans of one item
share it. Self time is the span's duration minus the time its child spans
cover. Spans stay in memory and are written out once, at the end.

Two levels:
  sweep   only the census sweep and corpus construction, so the sweep is
          timed with nothing else slowing it down;
  fine    every layer boundary patched in install_fine below.
Pool workers forked from a traced process inherit the wrappers; there they
call straight through and record nothing.
"""

from __future__ import annotations

import functools
import gzip
import math
import os
from collections import Counter
from time import perf_counter

THEOREM_IDS = ("T1", "T2", "T3", "T4", "TA", "TB", "TC", "L1", "L2")


class Recorder:
    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple | None] = []
        self.stack: list[list] = []  # [span id, time covered by children]
        self.item: str | None = None
        self.counts: Counter = Counter()
        self.lazy_oracles: list = []

    def wrap(self, fn, name, *, before=None, after=None, item_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            outer_item = self.item
            if item_of is not None:
                self.item = item_of(args)
            sid = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1][0] if self.stack else -1
            frame = [sid, 0.0]
            self.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                duration = end - start
                if self.stack:
                    self.stack[-1][1] += duration
                self.spans[sid] = (name, self.item, parent, start, end, duration - frame[1])
                self.item = outer_item
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def count_yields(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for value in fn(*args, **kwargs):
                if os.getpid() == self.pid:
                    self.counts[name] += 1
                yield value

        return wrapper

    def patch(self, targets, attr, name, **hooks):
        """Wrap ``attr`` once and bind the wrapper in every target namespace."""
        original = getattr(targets[0], attr)
        wrapper = self.wrap(original, name, **hooks)
        for target in targets:
            setattr(target, attr, wrapper)
        return wrapper

    # --- summaries -------------------------------------------------------

    def durations(self, name: str, since: int = 0, until: int | None = None) -> list[float]:
        return [s[4] - s[3] for s in self.spans[since:until] if s is not None and s[0] == name]

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        table: dict[str, list] = {}
        for s in self.spans:
            if s is None:
                continue
            row = table.setdefault(s[0], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s[4] - s[3]
            row[2] += s[5]
        return {name: tuple(row) for name, row in table.items()}

    def write(self, path) -> None:
        """All spans as tab-separated lines: id, parent, item, name, start, end, self."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\titem\tname\tstart\tend\tself\n")
            for sid, s in enumerate(self.spans):
                if s is None:
                    continue
                name, item, parent, start, end, self_s = s
                out.write(f"{sid}\t{parent}\t{item}\t{name}\t{start:.9f}\t{end:.9f}\t{self_s:.9f}\n")


def install_sweep(rec: Recorder) -> None:
    from matchext import census, cli

    rec.patch([census, cli], "run_census", "census.run_census")
    rec.patch([census], "corpus_graphs", "census.corpus_graphs")


def install_fine(rec: Recorder) -> None:
    from matchext import census, cli, extendability, families, generate, matching, theorems

    install_sweep(rec)
    counts = rec.counts

    rec.patch([generate], "canonical_form", "generate.canonical_form")
    rec.patch(
        [census], "exhaustive_graphs", "generate.exhaustive_graphs",
        after=lambda result, args: counts.__setitem__("generate.classes", len(result)),
    )
    rec.patch([census], "_census_item", "census.item", item_of=lambda args: args[0][0])

    def theorem_after(result, args):
        if result.hypothesis_detail.get("degenerate") is True:
            counts["census.degenerate"] += 1

    for tid, validator in list(census._VALIDATORS.items()):
        wrapper = rec.wrap(validator, f"theorems.{tid}", after=theorem_after)
        census._VALIDATORS[tid] = wrapper
        setattr(theorems, validator.__name__, wrapper)
    theorems._one_factors_in_mask = rec.count_yields(
        theorems._one_factors_in_mask, "theorems.one_factors"
    )

    def decide_before(args):
        oracle, mask, n, k = args[:4]
        if (mask, n, k) in oracle.nk_cache:
            counts["extendability.nk_cache.hits"] += 1

    def verdict_after(result, args):
        counts["extendability.subsets_examined"] += result.stats.subsets_examined
        counts["extendability.pairs_examined"] += result.stats.pairs_examined

    def oracle_after(result, args):
        if args[0]._lazy is not None:
            rec.lazy_oracles.append(args[0])

    rec.patch([theorems], "_holds_on_mask", "extendability.decide", before=decide_before)
    rec.patch([extendability, theorems], "_verdict_on_mask", "extendability.verdict", after=verdict_after)
    rec.patch([cli], "verify_failure_witness", "extendability.witness_verify")
    rec.patch([extendability], "_gallai_edmonds_tutte", "matching.tutte")
    rec.patch([matching, extendability], "maximum_matching", "matching.maximum_matching")
    oracle_cls = matching.SubsetMatchingOracle
    oracle_cls.__init__ = rec.wrap(oracle_cls.__init__, "matching.oracle.build", after=oracle_after)
    oracle_cls._build_table = rec.wrap(oracle_cls._build_table, "matching.oracle.dense_build")
    rec.patch(
        [cli], "to_json", "reporting.to_json",
        after=lambda result, args: counts.update({"reporting.bytes": len(result.encode())}),
    )
    rec.patch([cli], "census_document", "reporting.document")
    rec.patch([cli], "verdict_document", "reporting.document")
    rec.patch([theorems, census, cli], "serialize_graph6", "graph_io.serialize_graph6")
    rec.patch([families], "build_h1", "families.build")
    rec.patch([families], "build_h2", "families.build")


def fine_metrics(rec: Recorder, commands_end: int) -> dict[str, float]:
    """Per-layer figures of a fine run.

    Spans before ``commands_end`` belong to the workload's commands, later
    ones to a jobs=1 sweep of the same corpus. Generation and corpus
    construction are taken from the commands only (the sweep finds the
    corpus already built); every other layer from all spans, since pool
    workers record none.
    """
    table = rec.self_times()

    def calls(name: str) -> int:
        return table.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return table.get(name, (0, 0.0, 0.0))[1]

    c = rec.counts
    m: dict[str, float] = {}
    m["generate.exhaustive_graphs.s"] = sum(rec.durations("generate.exhaustive_graphs", 0, commands_end))
    m["generate.canonical_form.calls"] = len(rec.durations("generate.canonical_form", 0, commands_end))
    m["generate.canonical_form.s"] = sum(rec.durations("generate.canonical_form", 0, commands_end))
    m["generate.classes"] = c["generate.classes"]
    m["generate.accept_ratio"] = _ratio(c["generate.classes"], m["generate.canonical_form.calls"])
    m["census.corpus_graphs.s"] = sum(rec.durations("census.corpus_graphs", 0, commands_end))
    items = sorted(rec.durations("census.item"))
    m["census.item.calls"] = len(items)
    m["census.item.p50_ms"] = 1000 * _percentile(items, 0.5)
    m["census.item.p90_ms"] = 1000 * _percentile(items, 0.9)
    m["census.degenerate"] = c["census.degenerate"]
    for tid in THEOREM_IDS:
        m[f"theorems.{tid}.calls"] = calls(f"theorems.{tid}")
        m[f"theorems.{tid}.s"] = total(f"theorems.{tid}")
    m["theorems.one_factors"] = c["theorems.one_factors"]
    hits = c["extendability.nk_cache.hits"]
    m["extendability.decide.calls"] = calls("extendability.decide")
    m["extendability.decide.s"] = total("extendability.decide")
    m["extendability.nk_cache.entries"] = calls("extendability.decide") - hits
    m["extendability.nk_cache.hit_ratio"] = _ratio(hits, calls("extendability.decide"))
    m["extendability.verdict.calls"] = calls("extendability.verdict")
    m["extendability.verdict.s"] = total("extendability.verdict")
    m["extendability.subsets_examined"] = c["extendability.subsets_examined"]
    m["extendability.pairs_examined"] = c["extendability.pairs_examined"]
    m["extendability.witness_verify.calls"] = calls("extendability.witness_verify")
    m["extendability.witness_verify.s"] = total("extendability.witness_verify")
    m["matching.oracle.builds"] = calls("matching.oracle.build")
    m["matching.oracle.dense_builds"] = calls("matching.oracle.dense_build")
    m["matching.oracle.build_s"] = total("matching.oracle.build")
    m["matching.lazy.entries"] = sum(len(o._lazy) for o in rec.lazy_oracles)
    m["matching.tutte.calls"] = calls("matching.tutte")
    m["matching.tutte.s"] = total("matching.tutte")
    m["matching.maximum_matching.calls"] = calls("matching.maximum_matching")
    m["matching.maximum_matching.s"] = total("matching.maximum_matching")
    m["reporting.to_json.s"] = total("reporting.to_json")
    m["reporting.document.s"] = total("reporting.document")
    m["reporting.bytes"] = c["reporting.bytes"]
    m["graph_io.serialize_graph6.calls"] = calls("graph_io.serialize_graph6")
    m["graph_io.serialize_graph6.s"] = total("graph_io.serialize_graph6")
    m["families.build.s"] = total("families.build")
    return m


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(len(sorted_values) * q))
    return sorted_values[rank - 1]
