"""Smoke tests of the scripts under scripts/ and of the benchmark's tracer."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_run_samples_matches_every_annotation():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_samples.py")], capture_output=True, text=True, env=env, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "all annotated samples match"


# Each a layer metric the tracer reads from a name it wraps.  A wrapped name
# that a refactor removes is skipped, not an error, so its metric would read
# 0 while every other test passes.
TRACED_METRICS = (
    "languages.classify_s languages.chars analyses.load_preset_s analyses.run_fact_generation_s "
    "datalog.parse_program_s datalog.stratify_s datalog.evaluate_s datalog.idb_tuples datalog.query_calls "
    "facts.merge_s facts.serialize_s facts.bytes_out"
).split()


def test_the_tracer_wraps_every_layer(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    job = {
        "inputs": [str(ROOT / "samples" / "c" / "scheduler.c")],
        "preset": "callgraph-c",
        "out": str(tmp_path / "out"),
        "run_id": "test",
        "queries": ['calls("main", X)'],
        "spans": str(tmp_path / "spans.jsonl"),
    }
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracing.py"), json.dumps(job)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0 and result["db_equal"]
    assert [name for name in TRACED_METRICS if not result["metrics"][name] > 0] == []
