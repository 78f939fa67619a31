"""The names the benchmark's span recorder (bench/spans.py) patches still exist
and still see what it expects: a traced census records one ``census.item``
span per corpus graph, keyed by the item's source, and validator spans inside."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json
import spans
from matchext import cli

rec = spans.Recorder()
spans.install_fine(rec)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["census", "--max-vertices", "4", "--jobs", "1", "--full"])
print(json.dumps({"exit": code, "spans": [s[:2] for s in rec.spans if s is not None]}))
"""


def test_fine_spans_on_a_census():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(ROOT / d) for d in ("src", "bench")))
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["exit"] == 0
    items = [item for name, item in result["spans"] if name == "census.item"]
    assert items == [f"exhaustive:{i}" for i in range(18)]
    theorem_items = [item for name, item in result["spans"] if name.startswith("theorems.")]
    assert theorem_items and set(theorem_items) <= set(items)
