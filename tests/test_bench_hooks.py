"""The names the benchmark's span recorder (bench/spans.py) patches still exist
and still see what it expects: a traced census records one ``census.item``
span per corpus graph, keyed by the item's source, and validator spans inside;
a traced ``verify`` records a span for each theorem it checks."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json, sys
import spans
from matchext import cli

rec = spans.Recorder()
spans.install_fine(rec)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"exit": code, "spans": [s[:2] for s in rec.spans if s is not None]}))
"""


def traced(*argv):
    """The exit code and the (name, item) of every span of a traced ``matchext`` run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(ROOT / d) for d in ("src", "bench")))
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT, *argv], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    return result["exit"], result["spans"]


def test_fine_spans_on_a_census():
    code, spans = traced("census", "--max-vertices", "4", "--jobs", "1", "--full")
    assert code == 0
    items = [item for name, item in spans if name == "census.item"]
    assert items == [f"exhaustive:{i}" for i in range(18)]
    theorem_items = [item for name, item in spans if name.startswith("theorems.")]
    assert theorem_items and set(theorem_items) <= set(items)


def test_fine_spans_on_verify():
    code, spans = traced("verify", "--theorems", "T2,TB", "--n", "0", "--k", "1", "--graph", "E~~w")
    assert code == 0
    assert [name for name, _ in spans if name.startswith("theorems.")] == ["theorems.T2", "theorems.TB"]
