"""Smoke test of the benchmark: every workload in ``--quick`` mode, both passes.

    python -m pytest benchmarks/perf/test_smoke.py -q        (under a minute)

It checks the contract between ``BENCHMARK.json`` and what ``run.py``
emits, and that a workload leaves no process or shared-memory segment
behind.  It measures nothing.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def test_every_declared_name_is_well_formed():
    declared = CONTRACT["workloads"] + CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    names = [entry["name"] for entry in declared]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


#: Every traced run pushes the same battery through the layers, so one
#: workload of each family (pool, server, live) covers the traced pass.
RUNS = [(w, 0) for w in WORKLOADS] + [
    (w, 1) for w in ("census_pool", "serve_miss", "live_subs")]


@pytest.mark.parametrize("workload,trace", RUNS)
def test_quick_run_emits_the_declared_names_and_leaks_nothing(workload, trace):
    shm_before = set(os.listdir("/dev/shm"))
    # Its own session, so that anything it fails to stop can be found.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0, out

    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, out
    assert result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        spans = json.loads((HERE / "out" / f"trace_{workload}.json").read_text())
        assert spans["workload"] == workload and spans["threads"][0]

    deadline = time.monotonic() + 5.0  # the resource tracker outlives its parent briefly
    while _group_alive(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _group_alive(proc.pid), "a process of the run survived it"
    assert set(os.listdir("/dev/shm")) == shm_before
