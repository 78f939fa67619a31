"""JSON documents for verdicts, theorem reports, and census summaries.

Every document carries schema "matchext/1". Keys are emitted in a fixed
construction order and no timing data is embedded, so equal inputs (and
seeds) produce byte-identical output.

Documents and rows hold matchext's value objects (``Failure``,
``TutteCertificate``, ``VertexSet``, ``Matching``, ``SearchStats``) as they
are; ``to_json`` writes each one as its JSON shape in ``_SHAPES`` while it
walks the document.

Theorem report rows, in ``verify`` and ``census`` documents alike, are
written by one function, ``render_row``, at the indent their list gives
them. A census hands it to its pool workers, so a row becomes text in the
process that checked it; the document carries the rows as ``RenderedRows``
and ``to_json`` splices their text in.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import asdict
from json.encoder import encode_basestring_ascii as _encode_str

from .census import CensusResult, CorpusSpec
from .extendability import ExtendabilityVerdict, Failure, SearchStats
from .graph import Graph, VertexSet
from .matching import Matching, TutteCertificate
from .theorems import TheoremReport

SCHEMA = "matchext/1"


# The JSON shape of each value object a verdict or row holds; ``_write``
# renders the shape in place of the object.
_SHAPES: dict[type, Callable[[object], object]] = {
    Failure: lambda f: {"kind": f.kind.value, "s": f.s, "m": f.m, "tutte": f.tutte},
    TutteCertificate: lambda t: {
        "s_prime": t.s_prime,
        "excess": t.deficiency_excess,
        "odd_components": t.odd_components,
    },
    VertexSet: lambda s: s.members,
    Matching: lambda m: m.edges,
    SearchStats: asdict,
}


def graph_info(g: Graph, source: str | None = None) -> dict[str, object]:
    info: dict[str, object] = {}
    if source is not None:
        info["source"] = source
    info["vertices"] = g.vertex_count
    info["edges"] = g.edge_count
    return info


def verdict_document(
    verdict: ExtendabilityVerdict,
    *,
    n: int,
    k: int,
    graph: dict[str, object],
    command: str,
    verification: dict[str, object] | None = None,
) -> dict[str, object]:
    doc: dict[str, object] = {
        "schema": SCHEMA,
        "command": command,
        "graph": graph,
        "n": n,
        "k": k,
        "holds": verdict.holds,
        "failure": verdict.failure,
        "stats": verdict.stats,
    }
    if verification is not None:
        doc["verification"] = verification
    return doc


def report_to_dict(report: TheoremReport) -> dict[str, object]:
    return {
        "theorem": report.theorem_id,
        "graph6": report.graph6,
        "source": report.source,
        "params": report.params,
        "status": report.status.value,
        "hypothesis": report.hypothesis_detail,
        "counterexample": report.counterexample,
    }


# Where a document's "reports" list puts its rows: a top-level key's items.
_ROW_INDENT = "\n    "


def render_row(report: TheoremReport) -> str:
    """``report_to_dict(report)`` as JSON text at the row indent of a document."""
    out: list[str] = []
    _write(report_to_dict(report), _ROW_INDENT, out)
    return "".join(out)


class RenderedRows(list):
    """A "reports" list whose items are rows as ``render_row`` writes them;
    ``to_json`` copies their text instead of encoding them."""


def _rows(reports: Iterable[TheoremReport | str]) -> RenderedRows:
    """The rows of a document; a str is a row ``render_row`` already wrote."""
    return RenderedRows(r if isinstance(r, str) else render_row(r) for r in reports)


def reports_document(reports: Iterable[TheoremReport]) -> dict[str, object]:
    return {
        "schema": SCHEMA,
        "command": "verify",
        "reports": _rows(reports),
    }


def _corpus_dict(spec: CorpusSpec) -> dict[str, object]:
    return {
        "source": {"kind": spec.source.kind, **asdict(spec.source)},
        "filters": asdict(spec.filters),
    }


def census_document(result: CensusResult) -> dict[str, object]:
    return {
        "schema": SCHEMA,
        "command": "census",
        "corpus": _corpus_dict(result.spec),
        "theorems": list(result.theorems),
        "params": {"n_max": result.ranges.n_max, "k_max": result.ranges.k_max},
        "summary": {tid: dict(per) for tid, per in result.summary.items()},
        "reports": _rows(result.reports),
    }


_INF = float("inf")


def _scalar(value: object) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INF:
            return "Infinity"
        if value == -_INF:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write(value: object, indent: str, out: list[str]) -> None:
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, item in value.items():
            out.append(sep + _encode_str(key if isinstance(key, str) else _scalar(key)) + ": ")
            sep = "," + inner
            _write(item, inner, out)
        out.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        if type(value) is RenderedRows:
            out += ("[", inner, ("," + inner).join(value), indent, "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            sep = "," + inner
            _write(item, inner, out)
        out.append(indent + "]")
    elif type(value) in _SHAPES:
        _write(_SHAPES[type(value)](value), indent, out)
    else:
        out.append(_scalar(value))


def to_json(document: dict[str, object]) -> str:
    """``json.dumps(document, indent=2)`` plus a newline, byte for byte,
    where a value object counts as its shape in ``_SHAPES`` and a
    ``RenderedRows`` list as the dicts its rows were written from.

    json takes its pure-Python encoder whenever it indents; this writer
    builds the same text in one pass, with json's own string escaping and
    number reprs.
    """
    out: list[str] = []
    _write(document, "\n", out)
    out.append("\n")
    return "".join(out)
