"""Output checks and operation accounting, independent of matchext's code.

A failing family instance is re-verified here from its graph6 input alone:
the deletion set and the stuck matching are checked against the graph, and
the Tutte set is checked to leave more odd components than it has
vertices, which by Tutte's theorem proves that G - S - V(M) has no 1-factor.
"""

from __future__ import annotations

import hashlib
import json

import workloads

ADMISSIBLE_STATUSES = ("CONFIRMED", "VACUOUS", "COUNTEREXAMPLE", "ABORTED")


def parse_graph6(text: str) -> list[set[int]]:
    """Adjacency sets of a graph6 string with at most 62 vertices."""
    codes = [ord(c) - 63 for c in text]
    n = codes[0]
    adj: list[set[int]] = [set() for _ in range(n)]
    bit = 0
    for j in range(1, n):
        for i in range(j):
            if codes[1 + bit // 6] >> (5 - bit % 6) & 1:
                adj[i].add(j)
                adj[j].add(i)
            bit += 1
    return adj


def _has_k_matching(adj: list[set[int]], alive: set[int], k: int) -> bool:
    if k == 0:
        return True
    for u in sorted(alive):
        for v in adj[u] & alive:
            if v > u and _has_k_matching(adj, alive - {u, v}, k - 1):
                return True
    return False


def _odd_components(adj: list[set[int]], alive: set[int]) -> set[tuple[int, ...]]:
    seen: set[int] = set()
    odd = set()
    for root in sorted(alive):
        if root in seen:
            continue
        comp = {root}
        stack = [root]
        while stack:
            for w in adj[stack.pop()] & alive:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        if len(comp) % 2 == 1:
            odd.add(tuple(sorted(comp)))
    return odd


def witness_holds(adj: list[set[int]], n: int, k: int, failure: dict) -> bool:
    """Does the failure witness prove that G is not (n, k)-extendable?"""
    s = set(failure["s"])
    if len(s) != n or len(failure["s"]) != n or not s <= set(range(len(adj))):
        return False
    rest = set(range(len(adj))) - s
    if failure["kind"] == "NO_K_MATCHING":
        return not _has_k_matching(adj, rest, k)
    if failure["kind"] != "STUCK_MATCHING" or failure["m"] is None or failure["tutte"] is None:
        return False
    covered: set[int] = set()
    for u, v in failure["m"]:
        if v not in adj[u] or {u, v} & (covered | s):
            return False
        covered |= {u, v}
    if len(failure["m"]) != k:
        return False
    left = rest - covered
    s_prime = set(failure["tutte"]["s_prime"])
    if not s_prime <= left:
        return False
    odd = _odd_components(adj, left - s_prime)
    reported = {tuple(c) for c in failure["tutte"]["odd_components"]}
    excess = len(odd) - len(s_prime)
    return odd == reported and excess == failure["tutte"]["excess"] and excess >= 2


def verdict_digest(documents: list[dict]) -> str:
    """sha256 of the verdict documents without their work counters."""
    lines = []
    for doc in documents:
        doc = {key: value for key, value in doc.items() if key != "stats"}
        lines.append(json.dumps(doc, sort_keys=True))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def check_family(outputs: list[dict], seed: int) -> tuple[int, list[str]]:
    """(operations attempted, one message per failed operation)."""
    failures = []
    documents = []
    for inst, out in zip(workloads.FAMILY_INSTANCES, outputs):
        label = f"{inst.ref} ({inst.n},{inst.k})"
        want_exit = 0 if inst.holds else 1
        if out["exit"] != want_exit:
            failures.append(f"{label}: exit {out['exit']}, expected {want_exit}")
            continue
        doc = json.loads(out["stdout"])
        documents.append(doc)
        if doc["holds"] is not inst.holds:
            failures.append(f"{label}: holds={doc['holds']}, expected {inst.holds}")
            continue
        if inst.holds:
            continue
        if doc["verification"]["witness_reverified"] is not True:
            failures.append(f"{label}: witness_reverified is not true")
            continue
        adj = parse_graph6(out["argv"][out["argv"].index("--graph") + 1])
        if not witness_holds(adj, inst.n, inst.k, doc["failure"]):
            failures.append(f"{label}: witness does not re-verify")
    if len(outputs) != len(workloads.FAMILY_INSTANCES):
        failures.append(f"{len(outputs)} outputs for {len(workloads.FAMILY_INSTANCES)} instances")
    if seed == workloads.DEFAULT_SEED and not failures:
        digest = verdict_digest(documents)
        if digest != workloads.FAMILY_DIGEST:
            failures.append(f"verdict digest {digest} differs from the pinned one")
    return len(workloads.FAMILY_INSTANCES), failures


def census_ops(summary: dict[str, dict[str, int]]) -> int:
    """Admissible validator reports: every status but INADMISSIBLE."""
    return sum(per[status] for per in summary.values() for status in ADMISSIBLE_STATUSES)


def check_census(workload: str, outputs: list[dict], seed: int) -> tuple[int, list[str]]:
    (out,) = outputs
    failures = [] if out["exit"] == 0 else [f"census exit {out['exit']}, expected 0"]
    if out["exit"] not in (0, 1, 3):  # usage error: no census document
        return 1, failures
    doc = json.loads(out["stdout"])
    summary = doc["summary"]
    ops = census_ops(summary)
    for tid, per in summary.items():
        for status in ("COUNTEREXAMPLE", "ABORTED"):
            failures += [f"{tid}: {status}"] * per[status]
    if workload == "census_dense":
        if doc["reports"]:
            failures.append(f"{len(doc['reports'])} report rows in failures-only output")
        pinned = workloads.DENSE_SUMMARY
    else:
        if len(doc["reports"]) != ops or ops != workloads.EXHAUSTIVE_ROWS:
            failures.append(f"{len(doc['reports'])} report rows, {ops} admissible, expected {workloads.EXHAUSTIVE_ROWS}")
        digest = hashlib.sha256(out["stdout"].encode()).hexdigest()
        if digest != workloads.EXHAUSTIVE_DIGEST:
            failures.append(f"census document digest {digest} differs from the pinned one")
        pinned = workloads.EXHAUSTIVE_SUMMARY
    for tid in sorted(set(pinned) | set(summary)):
        if pinned.get(tid) != summary.get(tid):
            failures.append(f"{tid}: summary {summary.get(tid)}, pinned {pinned.get(tid)}")
    return ops, failures


def check(workload: str, outputs: list[dict], seed: int) -> tuple[int, list[str]]:
    if workload == "family_check":
        return check_family(outputs, seed)
    return check_census(workload, outputs, seed)


def census_ratios(outputs: list[dict]) -> dict[str, float]:
    """Shares of admissible and of CONFIRMED reports, from the census summary."""
    summary = json.loads(outputs[0]["stdout"])["summary"]
    admissible = census_ops(summary)
    inadmissible = sum(per["INADMISSIBLE"] for per in summary.values())
    confirmed = sum(per["CONFIRMED"] for per in summary.values())
    return {
        "census.admissible_ratio": admissible / (admissible + inadmissible) if admissible else 0.0,
        "census.confirmed_ratio": confirmed / admissible if admissible else 0.0,
    }
