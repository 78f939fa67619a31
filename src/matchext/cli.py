"""Command-line surface.

Commands: check, certify (check plus witness re-verification), family
(emit H1/H2 as graph6), verify (single-instance theorem check), census.
Exit codes: 0 extendable / confirmed-or-vacuous, 1 not extendable /
counterexample, 2 usage or parse errors, 3 aborted by limits.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .census import (
    CorpusFilters,
    CorpusSpec,
    ExhaustiveSource,
    FileSource,
    ParamRanges,
    RandomSource,
    report_or_abort,
    run_census,
)
from .errors import BudgetExceededError, MatchextError, log_info
from .extendability import Budget, is_nk_extendable, verify_failure_witness
from .families import resolve_family_ref
from .graph import Graph
from .graph_io import GraphFormat, load_graph_file, resolve_graph_argument, serialize_graph6
from .matching import SubsetMatchingOracle
from .reporting import (
    SCHEMA,
    census_document,
    graph_info,
    render_row,
    reports_document,
    to_json,
    verdict_document,
)
from . import theorems as th

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_ABORTED = 3


class RunConfig(argparse.Namespace):
    """One validated invocation: the parsed flags, checked before any work.

    The attributes are the names argparse gives the flags. ``from_args``
    normalises four of them: ``theorems`` becomes a tuple of ids, ``format``
    a GraphFormat, ``connected`` a bool or None, and census's ``--vertices``
    becomes ``vertex_min`` / ``vertex_max``. Invalid combinations (two corpus
    sources, missing graph input, unknown theorem ids, a malformed vertex
    range, a negative count or limit, a NaN --timeout) are rejected there
    with a usage error rather than surfacing mid-run.
    """

    @staticmethod
    def from_args(args: argparse.Namespace) -> "RunConfig":
        config = RunConfig(**vars(args))
        command = config.command
        if command in ("verify", "census"):
            ids = tuple(t.strip() for t in config.theorems.split(",") if t.strip())
            unknown = [t for t in ids if t not in th.THEOREM_IDS]
            if unknown:
                raise MatchextError(f"unknown theorem ids: {unknown}")
            if not ids:
                raise MatchextError("--theorems must name at least one validator")
            config.theorems = ids
        if command in ("check", "certify", "verify"):
            if (config.graph is None) == (config.graph_file is None):
                raise MatchextError("provide exactly one of --graph / --graph-file")
            _reject_negative(config, ("n", "k", "i", "timeout", "pair-cap"))
            config.format = GraphFormat(config.format)
        elif command == "census":
            sources = [
                config.max_vertices is not None,
                config.random is not None,
                bool(config.graph or config.graph_file),
            ]
            if sum(sources) != 1:
                raise MatchextError(
                    "choose exactly one corpus: --max-vertices, --random, or --graph/--graph-file"
                )
            _reject_negative(config, ("max-vertices", "random", "n-max", "k-max", "timeout", "pair-cap"))
            if config.random is not None:
                config.vertex_min, config.vertex_max = _parse_vertex_range(config.vertices)
            config.connected = None if config.connected is None else config.connected == "yes"
        return config

    def corpus_spec(self) -> CorpusSpec:
        if self.max_vertices is not None:
            source: object = ExhaustiveSource(self.max_vertices)
        elif self.random is not None:
            source = RandomSource(self.random, self.vertex_min, self.vertex_max, self.edge_prob, self.seed)
        else:
            source = FileSource(tuple(self.graph) + tuple(self.graph_file))
        return CorpusSpec(source, CorpusFilters(parity=self.parity, connected=self.connected))


def _reject_negative(args: argparse.Namespace, flags: tuple[str, ...]) -> None:
    for flag in flags:
        value = getattr(args, flag.replace("-", "_"), None)
        if value is not None and not value >= 0:  # also catches a NaN --timeout
            raise MatchextError(f"--{flag} must be non-negative; got {value}")


def _parse_vertex_range(text: str | None) -> tuple[int, int]:
    if text is None:
        raise MatchextError("--random needs --vertices MIN..MAX")
    if ".." in text:
        lo, hi = text.split("..", 1)
    else:
        lo = hi = text
    try:
        return int(lo), int(hi)
    except ValueError:
        raise MatchextError(f"invalid vertex range {text!r}") from None


def _configure_logging() -> None:
    if "MATCHEXT_LOG" not in os.environ:  # logging stays unloaded, and log_info silent
        return
    import logging
    level = logging.getLevelName(os.environ["MATCHEXT_LOG"].upper())
    if not isinstance(level, int):  # an unknown name maps to the string "Level <name>"
        level = logging.WARNING
    logging.basicConfig(stream=sys.stderr, level=level, format="%(name)s %(levelname)s %(message)s")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="matchext", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--graph", help="graph6 string or family ref h1:<n>:<k> / h2:<n>:<k>")
        p.add_argument("--graph-file", help="path to a graph file")
        p.add_argument(
            "--format",
            choices=[f.value for f in GraphFormat],
            default=GraphFormat.GRAPH6.value,
            help="file format for --graph-file (default graph6)",
        )

    def add_limit_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--timeout", type=float, help="per-instance wall clock budget in seconds")
        p.add_argument(
            "--pair-cap",
            type=int,
            help="per-instance cap on work: one unit per vertex set a search walks; "
            "a cached answer is free",
        )

    def add_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="write JSON here instead of stdout")

    for name in ("check", "certify"):
        p = sub.add_parser(name, help=f"{name} (n, k)-extendability of one graph")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        add_graph_args(p)
        add_limit_args(p)
        add_out(p)

    p = sub.add_parser("family", help="emit an H1/H2 instance as graph6")
    p.add_argument("--graph", required=True, help="family ref h1:<n>:<k> or h2:<n>:<k>")
    p.add_argument("--parts", action="store_true", help="emit JSON with the named parts")
    add_out(p)

    p = sub.add_parser("verify", help="run theorem validators on one graph")
    p.add_argument("--theorems", required=True, help="comma-separated ids from " + ",".join(th.THEOREM_IDS))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--i", type=int, help="matching size for TB (default: sweep 1..k)")
    add_graph_args(p)
    add_limit_args(p)
    add_out(p)

    p = sub.add_parser("census", help="run validators over a graph corpus")
    p.add_argument("--max-vertices", type=int, help="exhaustive isomorph-free corpus up to this size")
    p.add_argument("--random", type=int, metavar="N", help="random corpus of N seeded G(n,p) graphs")
    p.add_argument("--vertices", help="vertex range MIN..MAX (or single value) for --random")
    p.add_argument("--edge-prob", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--graph", action="append", default=[], help="family ref corpus item (repeatable)")
    p.add_argument("--graph-file", action="append", default=[], help="graph6 corpus file (repeatable)")
    p.add_argument("--parity", choices=["even", "odd"], help="keep only this vertex parity")
    p.add_argument("--connected", choices=["yes", "no"], help="keep only (dis)connected graphs")
    p.add_argument("--theorems", default=",".join(th.THEOREM_IDS))
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--k-max", type=int, default=2)
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes, at most the CPU count and corpus size; with --max-vertices the "
        "corpus size is the number of isomorphism classes before filters, as the workers also generate it",
    )
    p.add_argument("--full", action="store_true", help="keep all report rows, not just abnormal ones")
    add_limit_args(p)
    add_out(p)

    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_single_graph(config: RunConfig) -> tuple[str, Graph]:
    if config.graph is not None:
        return resolve_graph_argument(config.graph)
    graphs = load_graph_file(config.graph_file, config.format)
    if len(graphs) != 1:
        raise MatchextError(
            f"{config.graph_file} holds {len(graphs)} graphs; check/verify need exactly one"
        )
    return graphs[0]


def _run_check(config: RunConfig, with_certificate: bool) -> int:
    source, g = _load_single_graph(config)
    budget = Budget.from_limits(config.timeout, config.pair_cap)
    command = "certify" if with_certificate else "check"
    oracle = SubsetMatchingOracle(g)
    try:
        verdict = is_nk_extendable(g, config.n, config.k, budget=budget, oracle=oracle)
    except BudgetExceededError as exc:
        doc = {
            "schema": SCHEMA,
            "command": command,
            "graph": graph_info(g, source),
            "n": config.n,
            "k": config.k,
            "aborted": str(exc),
        }
        _emit(to_json(doc), config.out)
        return EXIT_ABORTED
    finally:
        log_info(
            "matchext.cli", "subset oracle: %d vertices, %d blossom misses, table %s",
            g.vertex_count, oracle.misses, "built" if oracle.table_built else "not built",
        )
    verification = None
    if with_certificate:
        if verdict.failure is not None:
            verification = {
                "witness_reverified": verify_failure_witness(g, config.n, config.k, verdict.failure)
            }
        else:
            verification = {
                "witness_reverified": None,
                "note": "positive verdicts certify by exhaustion over all (S, M) pairs",
            }
    doc = verdict_document(
        verdict,
        n=config.n,
        k=config.k,
        graph=graph_info(g, source),
        command=command,
        verification=verification,
    )
    _emit(to_json(doc), config.out)
    return EXIT_OK if verdict.holds else EXIT_NEGATIVE


def _run_family(config: RunConfig) -> int:
    family = resolve_family_ref(config.graph)
    if family is None:
        raise MatchextError(f"{config.graph!r} is not a family ref (h1:<n>:<k> / h2:<n>:<k>)")
    if not config.parts:
        _emit(serialize_graph6(family.graph) + "\n", config.out)
        return EXIT_OK
    doc = {
        "schema": SCHEMA,
        "command": "family",
        "ref": family.ref,
        "graph6": serialize_graph6(family.graph),
        "vertices": family.graph.vertex_count,
        "edges": family.graph.edge_count,
        "parts": {
            "clique_blocks": family.clique_blocks,
            "core": family.core,
            "pendant_matching": family.pendant_matching,
        },
    }
    _emit(to_json(doc), config.out)
    return EXIT_OK


def _exit_code(counterexample: bool, aborted: bool) -> int:
    """1 if some row is a counterexample, else 3 if some row was aborted, else 0."""
    return EXIT_NEGATIVE if counterexample else EXIT_ABORTED if aborted else EXIT_OK


def _run_verify(config: RunConfig) -> int:
    source, g = _load_single_graph(config)
    oracle = SubsetMatchingOracle(g)
    limits = (config.timeout, config.pair_cap)
    reports: list[th.TheoremReport] = []
    for tid in config.theorems:
        for kwargs in th.THEOREMS[tid].flags(config.n, config.k, config.i):
            missing = [name for name, value in kwargs.items() if value is None]
            if missing:
                raise MatchextError(f"--{missing[0]} is required for {tid}")
            reports.append(report_or_abort(tid, g, kwargs, oracle=oracle, limits=limits, source=source))
    _emit(to_json(reports_document(reports)), config.out)
    statuses = {r.status for r in reports}
    return _exit_code(th.TheoremStatus.COUNTEREXAMPLE in statuses, th.TheoremStatus.ABORTED in statuses)


def _run_census(config: RunConfig) -> int:
    keep = None if config.full else (th.TheoremStatus.COUNTEREXAMPLE, th.TheoremStatus.ABORTED)
    result = run_census(
        config.corpus_spec(),
        theorems=config.theorems,
        ranges=ParamRanges(n_max=config.n_max, k_max=config.k_max),
        timeout=config.timeout,
        pair_cap=config.pair_cap,
        jobs=config.jobs,
        keep_statuses=keep,
        render=render_row,
    )
    if all(result.count(s) == 0 for s in th.TheoremStatus if s is not th.TheoremStatus.INADMISSIBLE):
        raise MatchextError(
            "the census checked no admissible row: the corpus is empty, "
            "or no parameters in range are admissible on any of its graphs"
        )
    _emit(to_json(census_document(result)), config.out)
    return _exit_code(
        result.count(th.TheoremStatus.COUNTEREXAMPLE) > 0, result.count(th.TheoremStatus.ABORTED) > 0
    )


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the diagnostic; exits 2 on usage errors.
        return int(exc.code or 0)
    try:
        config = RunConfig.from_args(args)
        if config.command == "check":
            return _run_check(config, with_certificate=False)
        if config.command == "certify":
            return _run_check(config, with_certificate=True)
        if config.command == "family":
            return _run_family(config)
        if config.command == "verify":
            return _run_verify(config)
        return _run_census(config)  # argparse admits no other command
    except (MatchextError, ValueError, OSError) as exc:
        print(f"matchext: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
