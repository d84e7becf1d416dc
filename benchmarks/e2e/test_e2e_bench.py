"""Smoke test of the end-to-end benchmark.  Not part of tier-1 (``testpaths``
is ``tests``); run it explicitly:

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

sys.path.insert(0, str(HERE))
import run  # noqa: E402  (also puts src/ on sys.path)
from tracer import LAYERS  # noqa: E402


def test_spec_matches_the_runner():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    declared = [(w["name"], w["why"]) for w in SPEC["workloads"]]
    assert declared == [(w.name, w.why) for w in run.WORKLOADS]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]
    for layer in LAYERS:
        assert {"name": f"{layer}.self_us_per_op", "unit": "us",
                "better": "lower"} in SPEC["per_layer"]


def session_members(session: int) -> list[str]:
    """Processes (zombies too) still in ``session``, from /proc."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            name, fields = stat.read_text().rsplit(")", 1)
        except OSError:
            continue  # gone between the listing and the read
        if int(fields.split()[3]) == session:
            members.append(name)
    return members


def test_smoke_run_emits_every_declared_metric():
    began = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=REPO,
        start_new_session=True,
    )
    stdout, stderr = proc.communicate(timeout=120)
    elapsed = time.monotonic() - began
    assert session_members(proc.pid) == [], "the run left a process behind"
    assert proc.returncode == 0, stdout[-2000:] + stderr[-2000:]
    assert elapsed < 20, f"smoke run took {elapsed:.1f} s"
    results = [json.loads(line) for line in stdout.splitlines()
               if line.startswith("{")]
    # Per workload: the end-to-end run, then the traced run.
    assert len(results) == 2 * len(SPEC["workloads"])
    for i, result in enumerate(results):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = SPEC["per_layer"] if i % 2 else SPEC["end_to_end"]
        assert {m["name"]: m["unit"] for m in declared} == {
            name: m["unit"] for name, m in result["metrics"].items()
        }
        if i % 2:
            assert 0.9 <= result["metrics"]["trace.closure"]["value"] <= 1.1
        else:
            assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS, ids=lambda w: w.name)
def test_spans_form_a_forest_rooted_at_facade_calls(workload):
    _, failed, _, _, tracer = run.trace(workload, seed=0, smoke=True)
    assert failed == 0
    cols = tracer.columns()
    parent, start, end = cols["parent"], cols["start"], cols["end"]
    child = np.flatnonzero(parent >= 0)
    assert len(child) and (parent[child] < child).all()
    assert (start[parent[child]] <= start[child]).all()
    assert (end[child] <= end[parent[child]]).all()
    assert (cols["self_ns"] >= 0).all()
    facade = "sharding.store" if workload.backend else "core.kvstore"
    roots = {tracer.names[i] for i in np.unique(cols["name"][parent < 0])}
    assert roots and all(name.startswith(facade + ":") for name in roots)
    assert (parent[cols["root"]] < 0).all()
