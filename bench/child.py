"""One repetition of a workload, in a fresh interpreter.

Usage: child.py WORKLOAD SEED MODE [SPANS_PATH]

MODE is one of
  setup   import matchext and build the inputs, then stop;
  run     also run the workload's commands, untraced, timed by the
          Speedometer below;
  sweep   run them with spans only on the census sweep and corpus
          construction, which cost nothing measurable, then, where the
          census is pooled, time the same sweep again on one process;
  fine    run them with spans at every layer boundary, then, where the
          census is pooled, the same sweep on one process for per-item spans.

Prints one JSON object: the monotonic time at which the first command was
dispatched, the reference loop's time right after that, the wall time of
the commands (in mode run also scaled to the nominal host speed), the peak
resident set of this process and its pool workers, every command's exit
code and output, and the per-layer figures of its mode.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# The reference loop, its time at the nominal host speed (about its time on
# the machine in RECORD.json), and how often a run samples it.
REFERENCE_LOOPS = 50_000
REFERENCE_NOMINAL_S = 0.005
SAMPLE_INTERVAL_S = 0.2


def _peak_rss_mb() -> float:
    """Peak resident set of this process and of its reaped pool workers.

    This process's own peak is VmHWM, which belongs to the address space
    made at exec; RUSAGE_SELF would carry over the peak of the process that
    started this one. A forked worker's peak starts from this process's
    resident set at the fork, which is never above VmHWM.
    """
    own_kb = 0
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            own_kb = int(line.split()[1])
    workers_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, workers_kb) / 1024.0


def _reference_s() -> float:
    """Seconds the reference loop takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


class Speedometer:
    """Times the commands as if the host ran at a fixed speed.

    The host is shared, and its speed changes by a third or more from one
    second to the next. A SIGALRM every SAMPLE_INTERVAL_S times the
    reference loop; each interval of work between two samples is scaled by
    REFERENCE_NOMINAL_S over the mean of the loop times at its two ends, and
    the time spent in the loop itself is left out. Timers are not inherited
    across fork, so pool workers are never interrupted.
    """

    def __init__(self) -> None:
        self.intervals: list[float] = []
        self.references = [_reference_s()]
        self.last = time.perf_counter()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def _sample(self, _signum=None, _frame=None) -> None:
        now = time.perf_counter()
        self.references.append(_reference_s())
        self.intervals.append(now - self.last)
        self.last = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """(scaled seconds of work, mean reference loop seconds)."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._sample()
        refs = self.references
        scaled = sum(
            work * 2 * REFERENCE_NOMINAL_S / (a + b)
            for work, a, b in zip(self.intervals, refs, refs[1:])
        )
        return scaled, sum(refs) / len(refs)


def _run_commands(cli, argvs: list[list[str]], rec=None) -> tuple[list[dict], float]:
    outputs = []
    start = time.perf_counter()
    for index, argv in enumerate(argvs):
        if rec is not None:
            rec.item = f"command{index}"
        buf = io.StringIO()
        began = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        seconds = time.perf_counter() - began
        outputs.append({"argv": argv, "exit": code, "stdout": buf.getvalue(), "seconds": seconds})
    return outputs, time.perf_counter() - start


def _jobs1_sweep(cli, census, theorems, argv: list[str]) -> None:
    """The census of ``argv`` again, on one process and without output."""
    config = cli.RunConfig.from_args(cli.build_parser().parse_args(argv))
    keep = None if config.full else (theorems.TheoremStatus.COUNTEREXAMPLE, theorems.TheoremStatus.ABORTED)
    census.run_census(
        config.corpus_spec(),
        theorems=config.theorems,
        ranges=census.ParamRanges(n_max=config.n_max, k_max=config.k_max),
        jobs=1,
        keep_statuses=keep,
    )


def _sweep_seconds(rec, since: int) -> float:
    return sum(rec.durations("census.run_census", since)) - sum(rec.durations("census.corpus_graphs", since))


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, str(SRC))
    import matchext

    if not Path(matchext.__file__).resolve().is_relative_to(SRC):
        print(f"child: imported matchext from {matchext.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from matchext import census, cli, theorems

    import workloads

    rec = None
    if mode in ("sweep", "fine"):
        import spans

        rec = spans.Recorder()
        (spans.install_fine if mode == "fine" else spans.install_sweep)(rec)
    argvs = workloads.command_lines(workload, seed)
    census_argv = argvs[0] if argvs[0][0] == "census" else None
    pooled = census_argv is not None and workloads.WORKLOADS[workload].jobs > 1
    dispatched = time.monotonic()
    # The host's speed right after set-up, by which run.py scales it.
    setup_reference = statistics.median(_reference_s() for _ in range(3))
    result: dict = {"dispatched": dispatched, "setup_reference_s": setup_reference, "argvs": argvs}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    speedometer = Speedometer() if mode == "run" else None
    outputs, wall = _run_commands(cli, argvs, rec)
    if speedometer is not None:
        result["scaled_s"], result["reference_s"] = speedometer.stop()
    result.update(wall_s=wall, peak_rss_mb=_peak_rss_mb(), outputs=outputs)
    layers: dict[str, float] = {}
    if mode == "sweep":
        layers["census.sweep.s"] = layers["census.sweep_jobs1.s"] = _sweep_seconds(rec, 0)
        if pooled:
            since = len(rec.spans)
            _jobs1_sweep(cli, census, theorems, census_argv)
            layers["census.sweep_jobs1.s"] = _sweep_seconds(rec, since)
    if mode == "fine":
        commands_end = len(rec.spans)
        if pooled:
            rec.item = "jobs1_sweep"
            _jobs1_sweep(cli, census, theorems, census_argv)
        layers.update(spans.fine_metrics(rec, commands_end))
        layers["cli.commands"] = len(argvs)
        result["self_times"] = rec.self_times()
        if len(argv) > 3:
            rec.write(argv[3])
    result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
