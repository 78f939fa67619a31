import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import matchext

from matchext import (
    THEOREM_IDS,
    CorpusFilters,
    CorpusSpec,
    ExhaustiveSource,
    FileSource,
    MatchextError,
    RandomSource,
    complete_graph,
    serialize_graph6,
)
from matchext.cli import RunConfig, build_parser, main
from matchext.families import build_h2


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunConfig:
    def parse(self, *argv):
        return RunConfig.from_args(build_parser().parse_args(list(argv)))

    def test_check_config(self):
        config = self.parse("check", "--n", "2", "--k", "1", "--graph", "C~")
        assert (config.command, config.n, config.k, config.graph) == ("check", 2, 1, "C~")

    def test_graph_and_file_rejected_together(self):
        with pytest.raises(MatchextError):
            self.parse("check", "--n", "0", "--k", "0", "--graph", "C~", "--graph-file", "x")

    def test_census_needs_one_source(self):
        with pytest.raises(MatchextError):
            self.parse("census", "--max-vertices", "4", "--random", "5")

    def test_unknown_theorem_rejected(self):
        with pytest.raises(MatchextError):
            self.parse("verify", "--theorems", "T9", "--graph", "C~")

    @pytest.mark.parametrize("command, flag", [
        ("check", "--n"), ("check", "--k"), ("certify", "--n"), ("certify", "--k"),
        ("verify", "--n"), ("verify", "--k"), ("verify", "--i"),
    ])
    def test_negative_parameter_exit_2(self, capsys, command, flag):
        # Unchecked, verify --theorems T2 --n 0 --k -1 reaches
        # itertools.combinations and fails there without naming the flag.
        argv = [command, "--n", "0", "--k", "1", "--graph", "E~~w"]
        if command == "verify":
            argv += ["--theorems", "T2,TB", "--i", "1"]
        argv[argv.index(flag) + 1] = "-1"
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"{flag} must be non-negative" in err

    @pytest.mark.parametrize("argv, flag", [
        (("--max-vertices", "-1"), "--max-vertices"),
        (("--random", "-2", "--vertices", "4"), "--random"),
    ])
    def test_negative_corpus_size_exit_2(self, capsys, argv, flag):
        # Unchecked, both print an empty census and exit 0.
        code, out, err = run_cli(capsys, "census", *argv)
        assert code == 2
        assert out == ""
        assert f"{flag} must be non-negative" in err

    @pytest.mark.parametrize("flag", ["--n-max", "--k-max"])
    def test_negative_range_exit_2(self, capsys, flag):
        # Unchecked, --n-max -1 leaves rows only for T1, TA, TB and TC, and
        # --k-max -1 only TC's CRITICAL rows, and the census exits 0.
        code, out, err = run_cli(capsys, "census", "--max-vertices", "6", flag, "-1")
        assert code == 2
        assert out == ""
        assert f"{flag} must be non-negative; got -1" in err

    @pytest.mark.parametrize("command", ["check", "certify", "verify", "census"])
    @pytest.mark.parametrize("flag, value", [
        ("--timeout", "-1"), ("--pair-cap", "-1"), ("--timeout", "nan"),
    ])
    def test_bad_limit_exit_2(self, capsys, command, flag, value):
        # Unchecked, a negative limit aborts every instance (exit 3), and a
        # NaN --timeout never fires, since every comparison with NaN is false.
        if command == "census":
            argv = ["census", "--max-vertices", "4", "--theorems", "L1"]
        else:
            argv = [command, "--n", "0", "--k", "1", "--graph", "E~~w"]
            if command == "verify":
                argv += ["--theorems", "T2"]
        code, out, err = run_cli(capsys, *argv, flag, value)
        assert code == 2
        assert out == ""
        assert f"{flag} must be non-negative" in err

    @pytest.mark.parametrize("argv, spec, theorems, n_max, k_max, full, jobs", [
        (
            ["--max-vertices", "7", "--jobs", "2", "--full"],
            CorpusSpec(ExhaustiveSource(7)), THEOREM_IDS, 3, 2, True, 2,
        ),
        (
            ["--graph-file", "corpus.g6", "--jobs", "1"],
            CorpusSpec(FileSource(("corpus.g6",))), THEOREM_IDS, 3, 2, False, 1,
        ),
        (
            ["--random", "10", "--vertices", "4..7", "--edge-prob", "0.3", "--seed", "5",
             "--parity", "even", "--connected", "no", "--theorems", "T2,L1", "--n-max", "2", "--k-max", "1"],
            CorpusSpec(RandomSource(10, 4, 7, 0.3, 5), CorpusFilters(parity="even", connected=False)),
            ("T2", "L1"), 2, 1, False, 1,
        ),
    ])
    def test_census_config(self, argv, spec, theorems, n_max, k_max, full, jobs):
        # What a census run (and the benchmark's sweep) reads off the config.
        config = self.parse("census", *argv)
        assert config.corpus_spec() == spec
        assert (config.theorems, config.n_max, config.k_max, config.full, config.jobs) == (
            theorems, n_max, k_max, full, jobs
        )

    def test_vertex_range_parsed_eagerly(self):
        config = self.parse("census", "--random", "3", "--vertices", "4..7")
        assert (config.vertex_min, config.vertex_max) == (4, 7)
        with pytest.raises(MatchextError):
            self.parse("census", "--random", "3", "--vertices", "4..x")


class TestCheck:
    def test_h1_sharpness_exit_1_with_witness(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--n", "2", "--k", "2", "--graph", "h1:2:0")
        assert code == 1
        doc = json.loads(out)
        assert doc["schema"] == "matchext/1"
        assert doc["holds"] is False
        assert doc["failure"]["kind"] == "STUCK_MATCHING"
        assert doc["failure"]["s"] == [10, 11]
        assert doc["failure"]["m"] == [[12, 13], [14, 15]]
        assert doc["failure"]["tutte"]["s_prime"] == []
        assert doc["failure"]["tutte"]["excess"] == 2

    def test_positive_graph_file(self, capsys, tmp_path):
        path = tmp_path / "k2.g6"
        path.write_text(serialize_graph6(complete_graph(2)) + "\n")
        code, out, _ = run_cli(
            capsys, "check", "--n", "0", "--k", "0", "--graph-file", str(path)
        )
        assert code == 0
        assert json.loads(out)["holds"] is True

    def test_edge_list_file(self, capsys, tmp_path):
        path = tmp_path / "k2.edges"
        path.write_text("n 2\n0 1\n")
        code, out, _ = run_cli(
            capsys, "check", "--n", "0", "--k", "0",
            "--graph-file", str(path), "--format", "edges",
        )
        assert code == 0

    def test_inadmissible_params_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "check", "--n", "1", "--k", "0", "--graph", "C~")
        assert code == 2
        assert "inadmissible" in err

    def test_malformed_graph6_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "check", "--n", "0", "--k", "0", "--graph", "C")
        assert code == 2

    @pytest.mark.parametrize("lines", [0, 2])
    def test_graph_file_without_exactly_one_graph_exit_2(self, capsys, tmp_path, lines):
        path = tmp_path / "graphs.g6"
        path.write_text("A_\n" * lines)
        code, out, err = run_cli(capsys, "check", "--n", "0", "--k", "0", "--graph-file", str(path))
        assert (code, out) == (2, "")
        assert f"holds {lines} graphs; check/verify need exactly one" in err

    def test_missing_graph_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "check", "--n", "0", "--k", "0")
        assert code == 2

    def test_pair_cap_abort_exit_3(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--n", "2", "--k", "2", "--graph", "h1:2:0",
            "--pair-cap", "5",
        )
        assert code == 3
        assert "aborted" in json.loads(out)

    def test_usage_error_from_argparse(self, capsys):
        assert main(["check", "--n", "0"]) == 2


class TestCertify:
    def test_failure_witness_reverified(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--n", "2", "--k", "2", "--graph", "h1:2:0")
        assert code == 1
        doc = json.loads(out)
        assert doc["command"] == "certify"
        assert doc["verification"]["witness_reverified"] is True
        assert doc["failure"]["tutte"]["odd_components"] == [
            [0, 1, 2, 3, 4],
            [5, 6, 7, 8, 9],
        ]

    def test_positive_certificate_note(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--n", "0", "--k", "1", "--graph", "E~~w")
        assert code == 0
        doc = json.loads(out)
        assert doc["verification"]["witness_reverified"] is None


class TestFamily:
    def test_graph6_output(self, capsys):
        code, out, _ = run_cli(capsys, "family", "--graph", "h2:0:0")
        assert code == 0
        assert out.strip() == serialize_graph6(build_h2(0, 0).graph)

    def test_parts_output(self, capsys):
        code, out, _ = run_cli(capsys, "family", "--graph", "h1:2:0", "--parts")
        assert code == 0
        doc = json.loads(out)
        assert doc["parts"]["core"] == [10, 11]
        assert doc["parts"]["pendant_matching"] == [[12, 13], [14, 15]]
        assert doc["vertices"] == 16

    def test_non_family_rejected(self, capsys):
        code, _, err = run_cli(capsys, "family", "--graph", "C~")
        assert code == 2


class TestVerify:
    def test_t2_confirmed(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--theorems", "T2", "--n", "0", "--k", "0", "--graph", "E~~w"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["reports"][0]["status"] == "CONFIRMED"
        assert doc["reports"][0]["theorem"] == "T2"

    def test_tb_sweeps_i(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--theorems", "TB", "--k", "2", "--graph", "E~~w"
        )
        assert code == 0
        doc = json.loads(out)
        assert [r["params"]["i"] for r in doc["reports"]] == [1, 2]

    def test_empty_theorem_list_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--theorems", ",", "--graph", "C~")
        assert code == 2
        assert out == ""
        assert "--theorems must name at least one validator" in err

    def test_tb_without_i_needs_positive_k(self, capsys):
        # An empty sweep of i over 1..0 would check nothing and exit 0.
        code, out, err = run_cli(capsys, "verify", "--theorems", "TB", "--k", "0", "--graph", "E~~w")
        assert code == 2
        assert out == ""
        assert "TB needs --k >= 1" in err

    def test_tb_sweep_refused_at_its_first_row(self, capsys):
        # The i-sweep yields one row at a time, so the refused first row ends
        # it before the others exist; a list of all 10^6 rows takes ~200 MB.
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "verify", "--theorems", "TB", "--k", "1000000", "--graph", "E~~w")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert "theorem TB needs 1 <= i <= k and admissible (0, k); got k=1000000, i=1" in err
        assert peak < 5 << 20

    def test_tc_needs_a_mode(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--theorems", "TC", "--graph", "E~~w")
        assert (code, out) == (2, "")
        assert "TC needs --k (K_EXT mode) or --n (CRITICAL mode)" in err

    def test_tc_both_modes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--theorems", "TC", "--k", "1", "--n", "2", "--graph", "E~~w"
        )
        assert code == 0
        doc = json.loads(out)
        assert [r["params"]["mode"] for r in doc["reports"]] == ["K_EXT", "CRITICAL"]

    def test_missing_param_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--theorems", "T2", "--graph", "E~~w")
        assert code == 2
        assert "--n is required" in err

    def test_inadmissible_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "--theorems", "T1", "--k", "1", "--graph", "C~"
        )
        assert code == 2

    def test_budget_abort_exit_3_with_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--theorems", "T2", "--n", "2", "--k", "0",
            "--graph", "h1:2:0", "--pair-cap", "3",
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["reports"][0]["status"] == "ABORTED"

    def test_aborted_tc_row_keeps_mode(self, capsys):
        argv = ["verify", "--theorems", "TC", "--k", "1", "--graph", "h1:2:0"]
        code, out, _ = run_cli(capsys, *argv, "--pair-cap", "1")
        assert code == 3
        aborted = json.loads(out)["reports"][0]
        assert aborted["status"] == "ABORTED"
        assert aborted["params"] == {"mode": "K_EXT", "k": 1}
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["reports"][0]["params"] == aborted["params"]


class TestCensus:
    def test_capped_census_bytes_are_pinned(self, capsys):
        # The pair cap aborts rows of every validator, so these bytes pin
        # what each one charges (the CI runs the same census at --jobs 2).
        # On these 8-11 vertex graphs every search is charged one unit per
        # vertex set it looks up, with no twin reduction (CHANGES.md lists
        # the rows each change of charges moved).
        code, out, _ = run_cli(
            capsys, "census", "--random", "20", "--vertices", "8..11", "--edge-prob", "0.7",
            "--seed", "3", "--full", "--pair-cap", "40", "--jobs", "1",
        )
        assert code == 3
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "c06b82576bc9fb91c3c2ec73aaa82cd3e9405c039f4362985c925676bae109aa"

    def test_small_exhaustive_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--max-vertices", "6",
            "--theorems", "L1,L2", "--n-max", "2", "--k-max", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["L1"]["COUNTEREXAMPLE"] == 0
        assert doc["summary"]["L2"]["COUNTEREXAMPLE"] == 0
        assert doc["reports"] == []  # only abnormal rows kept by default

    def test_determinism_bytes(self, capsys, tmp_path):
        args = [
            "census", "--random", "15", "--vertices", "5..8", "--seed", "7",
            "--theorems", "L2,TB", "--n-max", "2", "--k-max", "1",
        ]
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        assert main(args + ["--out", str(one)]) == 0
        assert main(args + ["--out", str(two)]) == 0
        capsys.readouterr()
        assert one.read_bytes() == two.read_bytes()

    def test_full_flag_keeps_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--max-vertices", "4", "--theorems", "L2",
            "--n-max", "1", "--k-max", "1", "--full",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["reports"]) > 0

    def test_family_corpus(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--graph", "h1:2:0", "--theorems", "T2",
            "--n-max", "2", "--k-max", "0", "--full",
        )
        assert code == 0
        doc = json.loads(out)
        statuses = {
            (r["params"]["n"], r["params"]["k"]): r["status"] for r in doc["reports"]
        }
        assert statuses[(2, 0)] == "CONFIRMED"

    def test_aborted_exit_3(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--graph", "h1:2:0", "--theorems", "T2",
            "--n-max", "2", "--k-max", "0", "--pair-cap", "10",
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["summary"]["T2"]["ABORTED"] > 0

    @pytest.mark.parametrize(
        "argv",
        [("--max-vertices", "0"), ("--max-vertices", "1"), ("--random", "0", "--vertices", "4")],
    )
    def test_census_that_checks_nothing_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "census", *argv)
        assert code == 2
        assert out == ""
        assert "checked no admissible row" in err

    def test_parameter_grid_over_the_limit_exit_2(self):
        # Unbounded, the (n, k) grid would hold 10^12 rows before any graph.
        run, seconds = run_capped("census", "--max-vertices", "4", "--n-max", "1000000", "--k-max", "1000000")
        assert seconds < 1.0
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr == "matchext: n_max=1000000, k_max=1000000: more than 10000 (n, k) pairs\n"

    def test_tb_grid_over_the_limit_exit_2(self, capsys):
        # TB sweeps k_max(k_max + 1)/2 rows per graph: 50 million here, from
        # only 10 000 (n, k) pairs. Its grid streams and is refused at row
        # 10 001, before any graph is built. At 184 bytes per kwargs dict, a
        # list of all 50 million would take over 9 GB.
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code, out, err = run_cli(
                capsys, "census", "--max-vertices", "3", "--theorems", "TB", "--n-max", "0", "--k-max", "9999"
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == "matchext: TB: n_max=0, k_max=9999: more than 10000 rows per graph\n"
        assert peak < 5 << 20

    def test_needs_exactly_one_corpus(self, capsys):
        code, _, err = run_cli(capsys, "census", "--theorems", "L1")
        assert code == 2

    def test_random_needs_vertices(self, capsys):
        code, _, err = run_cli(capsys, "census", "--random", "5", "--theorems", "L1")
        assert code == 2
        assert "--vertices" in err

    def test_parity_filter(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--max-vertices", "5", "--parity", "even",
            "--theorems", "L2", "--n-max", "0", "--k-max", "1", "--full",
        )
        assert code == 0
        doc = json.loads(out)
        # Only even-order graphs can carry admissible (0, 1) instances, and
        # odd-order ones were filtered out before the sweep.
        assert all(r["status"] != "INADMISSIBLE" for r in doc["reports"])

    def test_jobs_flag_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--max-vertices", "4", "--theorems", "L2",
            "--n-max", "1", "--k-max", "1", "--jobs", "2", "--full",
        )
        assert code == 0
        assert json.loads(out)["summary"]["L2"]["COUNTEREXAMPLE"] == 0


class TestOracleLog:
    @pytest.mark.parametrize(
        "argv, line",
        [
            (("check", "--n", "2", "--k", "2", "--graph", "h1:2:1"), "18 vertices, 505 blossom misses, table not built"),
            (("certify", "--n", "0", "--k", "1", "--graph", "E~~w"), "6 vertices, 0 blossom misses, table built"),
        ],
    )
    def test_info_line_on_stderr(self, capsys, argv, line):
        src = str(Path(matchext.__file__).resolve().parents[1])
        env = dict(os.environ, MATCHEXT_LOG="info", PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-m", "matchext", *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert run.returncode == 0
        assert run.stderr.splitlines() == [f"matchext.cli INFO subset oracle: {line}"]
        code, out, _ = run_cli(capsys, *argv)
        assert run.stdout == out


class TestGenerateLog:
    def test_level_lines_on_stderr(self, capsys):
        argv = ("census", "--max-vertices", "4", "--full")
        src = str(Path(matchext.__file__).resolve().parents[1])
        env = dict(os.environ, MATCHEXT_LOG="info", PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-m", "matchext", *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert run.returncode == 0
        assert run.stderr.splitlines() == [
            "matchext.generate INFO level 2: 2 extensions tried, 2 classes",
            "matchext.generate INFO level 3: 6 extensions tried, 4 classes",
            "matchext.generate INFO level 4: 20 extensions tried, 11 classes",
        ]
        code, out, _ = run_cli(capsys, *argv)
        assert run.stdout == out

    def test_pooled_census_matches_one_job(self):
        # At --jobs 2 the pool's workers compute the canonical forms; the
        # parent alone logs each level, once.
        src = str(Path(matchext.__file__).resolve().parents[1])
        env = dict(os.environ, MATCHEXT_LOG="info", PYTHONPATH=src)
        runs = {
            jobs: subprocess.run(
                [sys.executable, "-m", "matchext", "census", "--max-vertices", "6", "--full", "--jobs", jobs],
                env=env, capture_output=True, text=True, timeout=120,
            )
            for jobs in ("1", "2")
        }
        assert runs["1"].returncode == runs["2"].returncode == 0
        assert runs["2"].stdout == runs["1"].stdout
        levels = {
            jobs: [line for line in run.stderr.splitlines() if " level " in line] for jobs, run in runs.items()
        }
        assert [line.split(":")[0] for line in levels["2"]] == [
            f"matchext.generate INFO level {t}" for t in range(2, 7)
        ]
        assert levels["2"] == levels["1"]


SRC = str(Path(matchext.__file__).resolve().parents[1])


def run_capped(*argv):
    """``python -S -m matchext *argv`` and its seconds, in a fresh interpreter
    with 1 GiB of address space, so a build that is not refused dies of
    MemoryError instead of filling the host."""
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-S", "-m", "matchext", *argv], env=dict(os.environ, PYTHONPATH=SRC),
        preexec_fn=cap, capture_output=True, text=True, timeout=60,
    )
    return run, time.perf_counter() - start


def fresh_cli(*argv, log="warning"):
    """Run the CLI in a new interpreter, started with -S so no site hook loads modules."""
    env = dict(os.environ, PYTHONPATH=SRC, MATCHEXT_LOG=log)
    return subprocess.run(
        [sys.executable, "-S", "-m", "matchext", *argv], env=env, capture_output=True, text=True, timeout=120
    )


class TestLogLevel:
    @pytest.mark.parametrize("value", ["basic_format", "_styles", "no-such-level"])
    def test_bad_value_falls_back_to_warning(self, value):
        # Any upper-cased logging attribute used to pass as a level, and
        # basicConfig then died on BASIC_FORMAT's text or the _STYLES dict,
        # exiting 1 on an extendable graph.
        run = fresh_cli("check", "--graph", "h1:1:0", "--n", "1", "--k", "0", log=value)
        assert (run.returncode, run.stderr) == (0, "")
        assert json.loads(run.stdout)["holds"] is True


class TestOneParserPerProcess:
    def test_reused_parser_leaks_no_state(self, capsys):
        # main parses every call with one parser; census's --graph lists
        # must start empty each time, as in a fresh process.
        runs = [
            ("census", "--graph", "h1:1:0", "--graph", "h1:2:0", "--theorems", "L2"),
            ("check", "--n", "1"),
            ("census", "--max-vertices", "4", "--theorems", "L2"),
        ]
        assert build_parser() is build_parser()
        codes = []
        for argv in runs:
            code, out, _ = run_cli(capsys, *argv)
            fresh = fresh_cli(*argv)
            assert (code, out) == (fresh.returncode, fresh.stdout)
            codes.append(code)
        assert codes == [0, 2, 0]
        args = build_parser().parse_args(["census", "--max-vertices", "4"])
        assert (args.graph, args.graph_file) == ([], [])


class TestLazyPoolImport:
    def test_multiprocessing_loaded_only_by_workers(self):
        # Without MATCHEXT_LOG nothing loads logging; no module loads typing,
        # and the corpus sources' ``kind`` stays a class attribute without it.
        script = "\n".join([
            "import dataclasses, os, sys",
            "import matchext, matchext.cli as cli",
            "from matchext import ExhaustiveSource",
            "loaded = lambda: 'multiprocessing' in sys.modules",
            "unneeded = lambda: [m for m in ('logging', 'typing') if m in sys.modules]",
            "assert not loaded() and unneeded() == [], unneeded()",
            "assert ExhaustiveSource(4).kind == 'exhaustive'",
            "assert [f.name for f in dataclasses.fields(ExhaustiveSource)] == ['max_vertices']",
            "assert cli.main(['certify', '--graph', 'h1:1:0', '--n', '1', '--k', '0']) == 0",
            "assert not loaded() and unneeded() == [], unneeded()",
            "assert cli.main(['census', '--max-vertices', '4', '--jobs', '1']) == 0",
            "assert not loaded() and unneeded() == [], unneeded()",
            "if os.cpu_count() >= 2:",
            "    assert cli.main(['census', '--max-vertices', '4', '--jobs', '2']) == 0",
            "    assert loaded()",
        ])
        env = {name: value for name, value in os.environ.items() if name != "MATCHEXT_LOG"}
        run = subprocess.run(
            [sys.executable, "-S", "-c", script], env=dict(env, PYTHONPATH=SRC),
            capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr


class TestShortArgumentBounds:
    # A few characters must not build a graph with millions of edges before
    # any --timeout applies: such arguments are usage errors.
    @pytest.mark.parametrize(
        "argv",
        [
            ("family", "--graph", "h1:100000:0"),
            ("check", "--graph", "h1:100000:0", "--n", "1", "--k", "0"),
            ("certify", "--graph", "h2:100000:0", "--n", "1", "--k", "0"),
            ("verify", "--theorems", "T1", "--k", "0", "--graph", "h1:100000:0"),
            ("census", "--graph", "h1:100000:0"),
            ("census", "--random", "1", "--vertices", "5..100000"),
        ],
    )
    def test_refused_within_a_second(self, argv):
        run, seconds = run_capped(*argv)
        assert seconds < 1.0
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr.startswith("matchext: ") and run.stderr.endswith(" the limit is 1000000\n")
