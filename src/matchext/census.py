"""Corpus construction and theorem sweeps over whole graph corpora.

A census applies selected theorem validators to every corpus graph over
every admissible parameter choice in range. Inadmissible (graph, params)
combinations are skipped but tallied, so the summary still shows coverage.
Corpus items are independent work units; with jobs > 1 they are distributed
over worker processes and merged back in corpus order, so the output is
identical for any job count.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import Pool
from typing import ClassVar, Iterable, Sequence

from .extendability import Budget
from .families import resolve_family_ref
from .generate import exhaustive_graphs, random_graphs
from .graph import Graph, components_of_mask
from .graph_io import GraphFormat, load_graph_file, serialize_graph6
from .matching import SubsetMatchingOracle
from . import theorems as th

log = logging.getLogger("matchext.census")

STATUS_ORDER = tuple(s.value for s in th.TheoremStatus)


@dataclass(frozen=True)
class ExhaustiveSource:
    """All isomorphism classes on 1..max_vertices vertices."""

    kind: ClassVar[str] = "exhaustive"
    max_vertices: int


@dataclass(frozen=True)
class RandomSource:
    """Seeded G(n, p) sample, n uniform in [min_vertices, max_vertices]."""

    kind: ClassVar[str] = "random"
    count: int
    min_vertices: int
    max_vertices: int
    edge_probability: float
    seed: int


@dataclass(frozen=True)
class FileSource:
    """graph6 files (one graph per line) and/or family refs like h1:2:0."""

    kind: ClassVar[str] = "files"
    items: tuple[str, ...]


@dataclass(frozen=True)
class CorpusFilters:
    parity: str | None = None  # "even" | "odd"
    connected: bool | None = None


@dataclass(frozen=True)
class CorpusSpec:
    source: ExhaustiveSource | RandomSource | FileSource
    filters: CorpusFilters = field(default_factory=CorpusFilters)


@dataclass(frozen=True)
class ParamRanges:
    n_max: int = 3
    k_max: int = 2


@dataclass
class CensusResult:
    reports: list[th.TheoremReport]
    summary: dict[str, dict[str, int]]
    spec: CorpusSpec
    theorems: tuple[str, ...]
    ranges: ParamRanges

    def count(self, status: th.TheoremStatus) -> int:
        return sum(per[status.value] for per in self.summary.values())


def _passes_filters(g: Graph, filters: CorpusFilters) -> bool:
    if filters.parity == "even" and g.vertex_count % 2 == 1:
        return False
    if filters.parity == "odd" and g.vertex_count % 2 == 0:
        return False
    if filters.connected is not None:
        full = (1 << g.vertex_count) - 1
        connected = len(components_of_mask(g.adjacency_masks, full)) <= 1
        if connected != filters.connected:
            return False
    return True


def corpus_graphs(spec: CorpusSpec) -> list[tuple[str, Graph]]:
    """Materialize the corpus as (source descriptor, graph) pairs."""
    source = spec.source
    items: list[tuple[str, Graph]]
    if isinstance(source, ExhaustiveSource):
        items = [
            (f"exhaustive:{i}", g)
            for i, g in enumerate(exhaustive_graphs(source.max_vertices))
        ]
    elif isinstance(source, RandomSource):
        graphs = random_graphs(
            source.count,
            source.min_vertices,
            source.max_vertices,
            source.edge_probability,
            source.seed,
        )
        items = [(f"random:{i}", g) for i, g in enumerate(graphs)]
    elif isinstance(source, FileSource):
        items = []
        for item in source.items:
            family = resolve_family_ref(item)
            if family is not None:
                items.append((family.ref, family.graph))
            else:
                items.extend(load_graph_file(item, GraphFormat.GRAPH6))
    else:
        raise TypeError(f"unknown corpus source {source!r}")
    return [(name, g) for name, g in items if _passes_filters(g, spec.filters)]


_VALIDATORS = {tid: spec.validator for tid, spec in th.THEOREMS.items()}


def normalize_theorems(theorems: Sequence[str]) -> tuple[str, ...]:
    """The chosen ids in table order."""
    unknown = set(theorems) - set(th.THEOREMS)
    if unknown:
        raise ValueError(f"unknown theorem ids: {sorted(unknown)}")
    return tuple(tid for tid in th.THEOREMS if tid in theorems)


def _census_item(
    item: tuple[str, Graph],
    theorems: tuple[str, ...],
    ranges: ParamRanges,
    limits: tuple[float | None, int | None],
) -> tuple[list[th.TheoremReport], dict[str, int]]:
    """All reports for one corpus graph, plus per-theorem inadmissible tallies."""
    source, g = item
    oracle = SubsetMatchingOracle(g)
    graph6 = serialize_graph6(g)
    has_factor = oracle.is_perfectable(oracle.full_mask)
    reports: list[th.TheoremReport] = []
    inadmissible: dict[str, int] = {tid: 0 for tid in theorems}
    for tid in theorems:
        spec = th.THEOREMS[tid]
        for kwargs in spec.grid(ranges.n_max, ranges.k_max):
            if not spec.admissible(g.vertex_count, has_factor, spec.params(**kwargs)):
                inadmissible[tid] += 1
                continue
            reports.append(th.report_or_abort(
                _VALIDATORS[tid], tid, g, kwargs,
                oracle=oracle, limits=limits, source=source, graph6=graph6,
            ))
    return reports, inadmissible


def clamp_jobs(requested: int, corpus_size: int) -> int:
    """Worker processes to start: min(requested, CPU count, corpus size), at least 1."""
    return max(1, min(requested, os.cpu_count() or 1, corpus_size))


def run_census(
    spec: CorpusSpec,
    theorems: Sequence[str] = th.THEOREM_IDS,
    ranges: ParamRanges = ParamRanges(),
    *,
    timeout: float | None = None,
    pair_cap: int | None = None,
    jobs: int = 1,
    keep_statuses: Iterable[th.TheoremStatus] | None = None,
) -> CensusResult:
    """Run the selected validators over the corpus.

    Deterministic for a fixed spec (including the RANDOM seed) and fixed
    limits: reports come back in corpus order regardless of jobs. Wall-clock
    timeouts can of course abort different instances on different machines;
    use pair_cap when byte-stable output matters.
    """
    chosen = normalize_theorems(theorems)
    Budget.from_limits(timeout, pair_cap)  # rejects a bad limit before any work
    for name, value in (("n_max", ranges.n_max), ("k_max", ranges.k_max)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative; got {value}")
    items = corpus_graphs(spec)
    keep = None if keep_statuses is None else set(keep_statuses)
    summary = {tid: {status: 0 for status in STATUS_ORDER} for tid in chosen}
    reports: list[th.TheoremReport] = []
    worker = partial(
        _census_item, theorems=chosen, ranges=ranges, limits=(timeout, pair_cap)
    )
    jobs = clamp_jobs(jobs, len(items))
    if jobs > 1:
        with Pool(processes=jobs) as pool:
            results = pool.imap(worker, items, chunksize=max(1, len(items) // (jobs * 8)))
            merged = _merge(results, summary, reports, keep, len(items))
    else:
        merged = _merge(map(worker, items), summary, reports, keep, len(items))
    return CensusResult(
        reports=merged, summary=summary, spec=spec, theorems=chosen, ranges=ranges
    )


def _merge(results, summary, reports, keep, total):
    done = 0
    for item_reports, inadmissible in results:
        for report in item_reports:
            summary[report.theorem_id][report.status.value] += 1
            if keep is None or report.status in keep:
                reports.append(report)
        for tid, count in inadmissible.items():
            summary[tid][th.TheoremStatus.INADMISSIBLE.value] += count
        done += 1
        if done % 500 == 0:
            log.info("census progress: %d/%d graphs", done, total)
    return reports
