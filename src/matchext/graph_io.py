"""Graph ingestion and serialization: graph6, edge lists, family refs.

graph6 is the standard bit-packed ASCII encoding for small simple graphs:
a size header, then the upper triangle of the adjacency matrix in column
order, 6 bits per printable character (values 63..126). It is the
interchange format here because external exhaustive-graph corpora ship in
it.
"""

from __future__ import annotations

from enum import Enum
from pathlib import Path

from .errors import (
    DuplicateEdgeError,
    MalformedGraph6Error,
    ParseError,
    SelfLoopError,
)
from .families import resolve_family_ref
from .graph import Graph

_HEADER = ">>graph6<<"
_MAX_SHORT_N = 62
_MAX_LONG_N = 258047


class GraphFormat(Enum):
    GRAPH6 = "graph6"
    EDGE_LIST = "edges"


def _check_char(value: int, offset: int) -> int:
    if not (63 <= value <= 126):
        raise MalformedGraph6Error(f"character {value!r} outside graph6 range 63..126", offset)
    return value - 63


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (optionally prefixed with >>graph6<<)."""
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise MalformedGraph6Error("empty graph6 string", 0)
    codes = [ord(c) for c in s]
    pos = 0
    first = _check_char(codes[0], 0)
    if first < 63:
        n = first
        pos = 1
    else:
        if len(codes) >= 2 and codes[1] == 126:
            raise MalformedGraph6Error("graphs beyond 258047 vertices are not supported", 1)
        if len(codes) < 4:
            raise MalformedGraph6Error("truncated extended size header", len(codes))
        n = 0
        for i in (1, 2, 3):
            n = (n << 6) | _check_char(codes[i], i)
        if n <= _MAX_SHORT_N or n > _MAX_LONG_N:
            raise MalformedGraph6Error(f"invalid extended vertex count {n}", 1)
        pos = 4
    bit_count = n * (n - 1) // 2
    need = (bit_count + 5) // 6
    if len(codes) - pos < need:
        raise MalformedGraph6Error(
            f"need {need} data characters for {n} vertices, found {len(codes) - pos}",
            len(codes),
        )
    if len(codes) - pos > need:
        raise MalformedGraph6Error("trailing data after adjacency bits", pos + need)
    edges = []
    bit = 0
    for j in range(1, n):
        for i in range(j):
            value = _check_char(codes[pos + bit // 6], pos + bit // 6)
            if value >> (5 - bit % 6) & 1:
                edges.append((i, j))
            bit += 1
    return Graph(n, edges)


def serialize_graph6(g: Graph) -> str:
    """Canonical graph6 line for g."""
    n = g.vertex_count
    if n > _MAX_LONG_N:
        raise ValueError(f"graph6 output supports at most {_MAX_LONG_N} vertices")
    if n <= _MAX_SHORT_N:
        out = [chr(n + 63)]
    else:
        out = [chr(126), chr((n >> 12 & 63) + 63), chr((n >> 6 & 63) + 63), chr((n & 63) + 63)]
    masks = g.adjacency_masks
    group = 0
    filled = 0
    for j in range(1, n):
        col = masks[j]
        for i in range(j):
            group = (group << 1) | (col >> i & 1)
            filled += 1
            if filled == 6:
                out.append(chr(group + 63))
                group = 0
                filled = 0
    if filled:
        out.append(chr((group << (6 - filled)) + 63))
    return "".join(out)


def parse_edge_list(text: str) -> Graph:
    """Parse the 'n <count>' edge-list format.

    First line is the literal letter n and the vertex count; each further
    line is one 0-based edge "u v". Self-loops and repeated edges are
    rejected with the offending line number.
    """
    lines = text.splitlines()
    header_line = None
    for idx, raw in enumerate(lines, start=1):
        if raw.strip():
            header_line = idx
            break
    if header_line is None:
        raise ParseError("missing 'n <count>' header", 1)
    parts = lines[header_line - 1].split()
    if len(parts) != 2 or parts[0] != "n":
        raise ParseError("expected header 'n <count>'", header_line)
    try:
        count = int(parts[1])
    except ValueError:
        raise ParseError(f"invalid vertex count {parts[1]!r}", header_line) from None
    if not 0 <= count <= _MAX_LONG_N:
        raise ParseError(f"vertex count must be in 0..{_MAX_LONG_N}; got {count}", header_line)
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for idx in range(header_line, len(lines)):
        raw = lines[idx].strip()
        lineno = idx + 1
        if not raw:
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {raw!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint in {raw!r}", lineno) from None
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}", lineno)
        if not (0 <= u < count and 0 <= v < count):
            raise ParseError(f"endpoint outside 0..{count - 1} in {raw!r}", lineno)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdgeError(f"edge {key} repeated", lineno)
        seen.add(key)
        edges.append(key)
    return Graph(count, edges)


def resolve_graph_argument(text: str) -> tuple[str, Graph]:
    """Interpret a --graph value: family ref (h1:<n>:<k> / h2:<n>:<k>) or graph6.

    Returns (stripped text, graph), the pair ``load_graph_file`` yields per graph.
    """
    family = resolve_family_ref(text)
    graph = parse_graph6(text) if family is None else family.graph
    return text.strip(), graph


def load_graph_file(path: str | Path, fmt: GraphFormat) -> list[tuple[str, Graph]]:
    """Read a graph file: graph6 one-per-line, or a single edge-list graph."""
    path = Path(path)
    text = path.read_text()
    if fmt is GraphFormat.EDGE_LIST:
        return [(str(path), parse_edge_list(text))]
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            out.append((f"{path}:{lineno}", parse_graph6(line)))
    return out
