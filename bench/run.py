"""matchext benchmark: runs one workload, checks its outputs, prints its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]

Each repetition runs in a fresh interpreter (bench/child.py), so every one
pays for importing matchext and, on census_exhaustive, for generating the
corpus. Repetitions are started while they are expected to end within
--seconds; the metrics are medians over them. setup_s and wall_s are scaled
to a fixed host speed by a reference loop timed during the run (see
child.Speedometer); the raw times are printed as comments. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.

--all runs every workload at the given seed, untraced and traced, prints
the metrics, and rewrites BENCHMARK.json and bench/RECORD.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import child
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

RUN_SECONDS = 40
# Set-up-only starts per run, half before the repetitions and half after.
SETUP_PROBES = 30
# A run must end within 180 s: no repetition starts that would likely end
# after this many seconds, and none may run past it.
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

PER_LAYER = (
    ("generate.exhaustive_graphs.s", "s"),
    ("generate.canonical_form.calls", "count"),
    ("generate.canonical_form.s", "s"),
    ("generate.classes", "count"),
    ("generate.accept_ratio", "ratio"),
    ("census.corpus_graphs.s", "s"),
    ("census.item.calls", "count"),
    ("census.item.p50_ms", "ms"),
    ("census.item.p90_ms", "ms"),
    ("census.sweep.s", "s"),
    ("census.sweep_jobs1.s", "s"),
    ("census.pool.speedup", "ratio"),
    ("census.admissible_ratio", "ratio"),
    ("census.confirmed_ratio", "ratio"),
    ("census.degenerate", "count"),
    *(
        (f"theorems.{tid}.{kind}", unit)
        for tid in ("T1", "T2", "T3", "T4", "TA", "TB", "TC", "L1", "L2")
        for kind, unit in (("calls", "count"), ("s", "s"))
    ),
    ("theorems.one_factors", "count"),
    ("extendability.decide.calls", "count"),
    ("extendability.decide.s", "s"),
    ("extendability.nk_cache.entries", "count"),
    ("extendability.nk_cache.hit_ratio", "ratio"),
    ("extendability.verdict.calls", "count"),
    ("extendability.verdict.s", "s"),
    ("extendability.subsets_examined", "count"),
    ("extendability.pairs_examined", "count"),
    ("extendability.witness_verify.calls", "count"),
    ("extendability.witness_verify.s", "s"),
    ("matching.oracle.builds", "count"),
    ("matching.oracle.dense_builds", "count"),
    ("matching.oracle.build_s", "s"),
    ("matching.lazy.entries", "count"),
    ("matching.tutte.calls", "count"),
    ("matching.tutte.s", "s"),
    ("matching.maximum_matching.calls", "count"),
    ("matching.maximum_matching.s", "s"),
    ("reporting.to_json.s", "s"),
    ("reporting.document.s", "s"),
    ("reporting.bytes", "bytes"),
    ("graph_io.serialize_graph6.calls", "count"),
    ("graph_io.serialize_graph6.s", "s"),
    ("families.build.s", "s"),
    ("cli.commands", "count"),
    ("trace.overhead_s", "s"),
)


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, deadline: float, spans_path: Path | None = None) -> dict:
    """One repetition in a fresh interpreter, killed at ``deadline``; adds setup_s to its result."""
    env = dict(os.environ)
    env.pop("MATCHEXT_LOG", None)
    # Set-up is measured with byte-compiled modules, as an installed package
    # has them; the first, unmeasured set-up of a run compiles them.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    # -S: no site-packages, whose .pth files differ between hosts and are no
    # part of matchext's set-up (it needs only the standard library).
    cmd = [sys.executable, "-S", str(BENCH / "child.py"), workload, str(seed), mode]
    if spans_path is not None:
        cmd.append(str(spans_path))
    started = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        out = None
    finally:
        # Pool workers share the child's session; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if out is None:
        proc.communicate()
        raise BenchError(f"{workload} {mode}: no result within the run's {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode}: exit {proc.returncode}\n{err.strip()}")
    result = json.loads(out)
    result["setup_raw_s"] = result["dispatched"] - started
    result["setup_s"] = result["setup_raw_s"] * child.REFERENCE_NOMINAL_S / result["setup_reference_s"]
    return result


class Tally:
    """Operations attempted and failed over every repetition of a run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.attempted = 0
        self.failures: list[str] = []
        self.ops_per_rep: list[int] = []

    def add(self, rep: dict) -> None:
        ops, failures = checks.check(self.workload, rep["outputs"], self.seed)
        self.attempted += ops
        self.ops_per_rep.append(ops)
        self.failures += failures


def _repeat(until: float, step) -> None:
    """Call step() at least once, and again while one more is expected to end before ``until``."""
    start = time.monotonic()
    count = 0
    while True:
        step()
        count += 1
        now = time.monotonic()
        if now + (now - start) / count > until:
            return


def untraced(workload: str, seed: int, seconds: float, deadline: float, tally: Tally) -> dict[str, float]:
    start = time.monotonic()
    spawn(workload, seed, "setup", deadline)  # byte-compiles matchext; not measured
    probes = [spawn(workload, seed, "setup", deadline) for _ in range(SETUP_PROBES // 2)]
    probes_s = time.monotonic() - start
    reps: list[dict] = []

    def step():
        rep = spawn(workload, seed, "run", deadline)
        tally.add(rep)
        reps.append(rep)

    _repeat(min(start + seconds - probes_s, deadline), step)
    probes += [spawn(workload, seed, "setup", deadline) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    probes += reps
    walls = [rep["wall_s"] for rep in reps]
    scaled = [rep["scaled_s"] for rep in reps]
    print(f"# {workload} seed {seed}: {len(reps)} repetitions, {len(probes)} set-ups")
    print(f"#   raw wall_s per repetition: {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"#   scaled wall_s per repetition: {' '.join(f'{w:.3f}' for w in scaled)}")
    raw_setups = [probe["setup_raw_s"] for probe in probes]
    references_ms = [1000 * rep["reference_s"] for rep in reps]
    print(f"#   mean reference loop ms per repetition: {' '.join(f'{r:.2f}' for r in references_ms)}")
    print(f"#   raw setup_s per set-up: {' '.join(f'{s:.3f}' for s in raw_setups)}")
    print(f"#   raw medians: wall_s {statistics.median(walls):.4f} s, setup_s {statistics.median(raw_setups):.4f} s")
    for index, argv in enumerate(reps[0]["argvs"]):
        median_s = statistics.median(rep["outputs"][index]["seconds"] for rep in reps)
        print(f"#   command {index} raw median {median_s:.4f} s: matchext {' '.join(argv)}")
    return {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "wall_s": statistics.median(scaled),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }


def traced(workload: str, seed: int, seconds: float, deadline: float, tally: Tally) -> dict[str, float]:
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.tsv.gz"
    is_census = workload != "family_check"
    plain_walls, fine_walls, cycles = [], [], []
    self_times: dict = {}
    start = time.monotonic()
    spawn(workload, seed, "setup", deadline)

    def step():
        plain = spawn(workload, seed, "sweep", deadline)
        tally.add(plain)
        plain_walls.append(plain["wall_s"])
        fine = spawn(workload, seed, "fine", deadline, spans_path)
        tally.add(fine)
        fine_walls.append(fine["wall_s"])
        layers = {**plain["layers"], **fine["layers"]}
        if is_census:
            layers.update(checks.census_ratios(plain["outputs"]))
            layers["census.pool.speedup"] = layers["census.sweep_jobs1.s"] / layers["census.sweep.s"]
        self_times.update(fine["self_times"])
        cycles.append(layers)

    _repeat(min(start + seconds, deadline), step)
    metrics = {}
    for name, _unit in PER_LAYER:
        values = [c[name] for c in cycles if name in c]
        metrics[name] = statistics.median(values) if values else 0.0
    metrics["trace.overhead_s"] = statistics.median(fine_walls) - statistics.median(plain_walls)
    print(f"# {workload} seed {seed}: {len(cycles)} traced cycles; spans in {spans_path.relative_to(ROOT)}")
    print("#   last traced cycle: span name       calls     total_s      self_s")
    for name, (calls, total, self_s) in sorted(self_times.items()):
        print(f"#   {name:34s} {calls:7d} {total:11.4f} {self_s:11.4f}")
    idle = sorted(name for name, _ in PER_LAYER if metrics[name] == 0)
    if idle:
        print(f"#   zero on this workload (layer not exercised): {', '.join(idle)}")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Tally]:
    """The run's result line and the tally of its operations."""
    deadline = time.monotonic() + RUN_LIMIT_S
    tally = Tally(workload, seed)
    if not workloads.WORKLOADS[workload].seeded:
        print(f"# {workload} has no seed: --seed {seed} does not change its inputs")
    measure = traced if trace else untraced
    values = measure(workload, seed, seconds, deadline, tally)
    units = dict(PER_LAYER) if trace else {name: unit for name, unit, _, _ in END_TO_END}
    for failure in tally.failures:
        print(f"# FAILED {workload}: {failure}")
    print(f"ops {statistics.median_low(tally.ops_per_rep)} count (per repetition; {tally.attempted} over the run)")
    print(f"ops_failed {len(tally.failures)} count")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    return result, tally


def benchmark_spec() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [{"name": name, "unit": unit, "better": _better(name)} for name, unit in PER_LAYER],
    }


def _better(name: str) -> str:
    higher = (
        "generate.accept_ratio",
        "census.pool.speedup",
        "census.admissible_ratio",
        "census.confirmed_ratio",
        "extendability.nk_cache.hit_ratio",
    )
    return "higher" if name in higher else "lower"


def _machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "commit": commit,
    }


def run_all(seed: int, seconds: float) -> int:
    record = {"machine": _machine(), "seed": seed, "seconds": seconds, "workloads": {}}
    ok = True
    report_rows = {
        "family_check": len(workloads.FAMILY_INSTANCES),
        "census_dense": 0,
        "census_exhaustive": workloads.EXHAUSTIVE_ROWS,
    }
    for name, w in workloads.WORKLOADS.items():
        plain, tally = run_workload(name, seed, seconds, trace=False)
        layers, _ = run_workload(name, seed, seconds, trace=True)
        ok = ok and plain["correct"] and layers["correct"]
        record["workloads"][name] = {
            "why": w.why,
            "seeded": w.seeded,
            "command_lines": [
                ["matchext", *argv]
                for argv in spawn(name, seed, "setup", time.monotonic() + RUN_LIMIT_S)["argvs"]
            ],
            "ops_per_repetition": tally.ops_per_rep[0],
            "classes": layers["metrics"]["generate.classes"]["value"],
            "report_rows": report_rows[name],
            "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
            "ops_failed": plain["failed"] + layers["failed"],
            "per_layer": {k: v["value"] for k, v in layers["metrics"].items()},
        }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_spec(), indent=2) + "\n")
    (BENCH / "RECORD.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload and rewrite the records")
    args = parser.parse_args(argv)
    if (args.workload is None) == (not args.all):
        parser.error("give --workload NAME or --all")
    if not (ROOT / "src" / "matchext" / "__init__.py").is_file():
        print(f"run.py: no matchext sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        result, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
