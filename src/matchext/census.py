"""Corpus construction and theorem sweeps over whole graph corpora.

A census applies selected theorem validators to every corpus graph over
every admissible parameter choice in range. Inadmissible (graph, params)
combinations are skipped but tallied, so the summary still shows coverage.
Corpus items are independent work units, spread over worker processes when
jobs > 1. The work on one graph returns the reports it keeps and its status
counts, added up in corpus order, so the output is the same for any job count.
Given a ``render`` function (the CLI passes ``reporting.render_row``), the
work on one graph returns each kept report as its JSON row text instead, so
a worker pickles text to the parent and the parent holds no report objects.
The same workers generate an exhaustive corpus before they sweep it.
"""

from __future__ import annotations

import os
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence, Sized
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import islice

from .errors import log_info
from .extendability import Budget
from .families import resolve_family_ref
from .generate import Mapper, exhaustive_count, exhaustive_graphs, random_graph_stream
from .graph import Graph, components_of_mask
from .graph_io import GraphFormat, load_graph_file
from .matching import SubsetMatchingOracle
from . import theorems as th

STATUS_ORDER = tuple(s.value for s in th.TheoremStatus)
_MAX_PAIRS = 10_000  # (n, k) pairs in range; about the admissible grid of a 200-vertex graph
_CHUNK_LIMIT = 1_000  # work items per pool chunk; the <= 8 census sends 849


@dataclass(frozen=True)
class ExhaustiveSource:
    """All isomorphism classes on 1..max_vertices vertices."""

    kind = "exhaustive"
    max_vertices: int


@dataclass(frozen=True)
class RandomSource:
    """Seeded G(n, p) sample, n uniform in [min_vertices, max_vertices]."""

    kind = "random"
    count: int
    min_vertices: int
    max_vertices: int
    edge_probability: float
    seed: int


@dataclass(frozen=True)
class FileSource:
    """graph6 files (one graph per line) and/or family refs like h1:2:0."""

    kind = "files"
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
    # The kept rows in corpus order: reports, or their text when rendered.
    reports: list[th.TheoremReport] | list[str]
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


def corpus_graphs(spec: CorpusSpec, mapper: Mapper = map) -> Iterable[tuple[str, Graph]]:
    """The corpus as (source descriptor, graph) pairs; ``mapper`` runs
    exhaustive generation's work per parent graph.

    Exhaustive and file corpora come as a list. A random corpus comes as a
    stream that draws and filters one graph at a time, so no more than one
    of its graphs need be held at once; its arguments are checked by the
    call, before any graph is drawn.
    """
    source = spec.source
    items: list[tuple[str, Graph]]
    if isinstance(source, RandomSource):
        graphs = random_graph_stream(
            source.count,
            source.min_vertices,
            source.max_vertices,
            source.edge_probability,
            source.seed,
        )
        return ((f"random:{i}", g) for i, g in enumerate(graphs) if _passes_filters(g, spec.filters))
    if isinstance(source, ExhaustiveSource):
        items = [
            (f"exhaustive:{i}", g)
            for i, g in enumerate(exhaustive_graphs(source.max_vertices, mapper))
        ]
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


def report_or_abort(
    theorem_id: str, g: Graph, kwargs: Mapping[str, int | None], *,
    oracle: SubsetMatchingOracle, limits: tuple[float | None, int | None], source: str | None,
) -> th.TheoremReport:
    """The report of ``theorem_id``'s validator under a fresh Budget of ``limits``
    (timeout, pair cap), ABORTED once that budget runs out. Every census and
    ``verify`` row runs here."""
    return _VALIDATORS[theorem_id](
        g, **kwargs, oracle=oracle, budget=Budget.from_limits(*limits), source=source
    )


def _census_item(
    item: tuple[str, Graph],
    rows: list[tuple[str, dict, dict]],
    limits: tuple[float | None, int | None],
    keep: frozenset[th.TheoremStatus] | None,
    render: Callable[[th.TheoremReport], str] | None = None,
) -> tuple[list[th.TheoremReport] | list[str], Counter[tuple[str, str]]]:
    """One corpus graph's result over ``rows`` (theorem id, kwargs, params): the
    reports ``keep`` keeps (all when None), in row order, each passed through
    ``render`` when given, and the number of rows per (theorem id, status value)."""
    source, g = item
    oracle = SubsetMatchingOracle(g)
    has_factor = oracle.is_perfectable(oracle.full_mask)
    kept: list = []
    counts: Counter[tuple[str, str]] = Counter()
    for tid, kwargs, params in rows:
        status = th.TheoremStatus.INADMISSIBLE
        if th.THEOREMS[tid].admissible(g.vertex_count, has_factor, params):
            report = report_or_abort(tid, g, kwargs, oracle=oracle, limits=limits, source=source)
            status = report.status
            if keep is None or status in keep:
                kept.append(report if render is None else render(report))
        counts[tid, status.value] += 1
    return kept, counts


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
    render: Callable[[th.TheoremReport], str] | None = None,
) -> CensusResult:
    """Run the selected validators over the corpus.

    Each kept report is passed through ``render`` in the process that
    checked it, when given, and the result holds what it returns.
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
    bounds = f"n_max={ranges.n_max}, k_max={ranges.k_max}"
    if (ranges.n_max + 1) * (ranges.k_max + 1) > _MAX_PAIRS:
        raise ValueError(f"{bounds}: more than {_MAX_PAIRS} (n, k) pairs")
    rows = []
    for tid in chosen:
        grid = list(islice(th.THEOREMS[tid].grid(ranges.n_max, ranges.k_max), _MAX_PAIRS + 1))
        if len(grid) > _MAX_PAIRS:  # TB's grid has k_max(k_max + 1)/2 rows
            raise ValueError(f"{tid}: {bounds}: more than {_MAX_PAIRS} rows per graph")
        rows += [(tid, kwargs, th.THEOREMS[tid].params(**kwargs)) for kwargs in grid]
    keep = None if keep_statuses is None else frozenset(keep_statuses)
    worker = partial(_census_item, rows=rows, limits=(timeout, pair_cap), keep=keep, render=render)
    reports: list = []
    totals: Counter[tuple[str, str]] = Counter()
    # An exhaustive corpus is generated in the pool, so the pool starts first
    # and its size is clamped by the class count; a random corpus streams, so
    # its size is the count drawn; file corpora are read first. Filters can
    # leave fewer graphs than the first two sizes.
    source = spec.source
    if isinstance(source, ExhaustiveSource):
        items, size = None, exhaustive_count(source.max_vertices)
    else:
        items = corpus_graphs(spec)
        size = source.count if isinstance(source, RandomSource) else len(items)
    with _ordered_map(clamp_jobs(jobs, size), size) as mapper:
        if items is None:
            items = corpus_graphs(spec, mapper)
            size = len(items)
        for done, (kept, counts) in enumerate(mapper(worker, items), 1):
            reports.extend(kept)
            totals.update(counts)
            if done % 500 == 0:
                log_info("matchext.census", "census progress: %d/%d graphs", done, size)
    summary = {tid: {s: totals[tid, s] for s in STATUS_ORDER} for tid in chosen}
    return CensusResult(
        reports=reports, summary=summary, spec=spec, theorems=chosen, ranges=ranges
    )


@contextmanager
def _ordered_map(jobs: int, stream_size: int = 0) -> Iterator[Mapper]:
    """An ordered map over ``jobs`` worker processes, or the builtin map when jobs is 1.

    Work is sent in chunks of about 1/8 of each worker's share, of a list's
    length or of ``stream_size`` for items without one, and of at most
    _CHUNK_LIMIT items: a chunk is held whole in both processes, so a
    larger one would let a streamed corpus's memory grow with its size.
    """
    if jobs == 1:
        yield map
        return
    from multiprocessing import Pool  # loaded only by a census that starts workers

    def mapper(fn, items):
        size = len(items) if isinstance(items, Sized) else stream_size
        return pool.imap(fn, items, chunksize=max(1, min(size // (jobs * 8), _CHUNK_LIMIT)))

    with Pool(processes=jobs) as pool:
        yield mapper
