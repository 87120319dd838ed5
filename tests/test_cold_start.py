"""``repro serve`` imports only the modules serving runs.

A fresh interpreter builds the server the way ``repro serve`` does,
answers one query, feeds one live graph with a standing subscription,
and then reports ``sys.modules``: no simulator, experiment harness,
offline estimator, cluster, baseline model or offline miner may be
among them, and — serving inline — no ``multiprocessing`` module nor
the process pool.  An import that creeps back onto the serve path (a
package ``__init__`` re-export, a module-level import in ``cli.py``)
fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.graph.generators import make_dataset
from repro.graph.loaders import save_snap_text

SRC = Path(__file__).resolve().parents[1] / "src"

#: Packages serving never runs.
FORBIDDEN_PACKAGES = (
    "repro.sim",
    "repro.analysis",
    "repro.approx",
    "repro.cluster",
    "repro.baselines",
)

#: Offline miners serving never runs (it mines with the family walker).
FORBIDDEN_MODULES = tuple(
    f"repro.mining.{name}"
    for name in (
        "presto", "paranjape", "static_mining", "batched", "bruteforce",
        "context", "multi", "mackey",
    )
)

#: The process pool: inline serving (no ``--workers``) never spawns one.
POOL_MODULES = tuple(
    f"repro.mining.{name}" for name in ("pool", "parallel", "shipping")
)


def _is_multiprocessing(module: str) -> bool:
    return module in ("multiprocessing", "_multiprocessing") or module.startswith(
        "multiprocessing."
    )

SERVE_SCRIPT = r"""
import json, sys, threading
from http.client import HTTPConnection

from repro import cli

graph_path, delta = sys.argv[1], int(sys.argv[2])
args = cli._build_parser().parse_args(["serve", "g=" + graph_path, "--port", "0"])
service, server = cli.build_serve_server(args)
threading.Thread(
    target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
).start()


def call(method, path, body):
    conn = HTTPConnection(*server.server_address[:2], timeout=30)
    conn.request(method, path, body=json.dumps(body).encode(),
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    payload = json.loads(resp.read())
    conn.close()
    assert resp.status == 200, (path, resp.status, payload)
    return payload


try:
    answer = call("POST", "/query", {"graph": "g", "motif": "M1", "delta": delta})
    call("POST", "/live", {"name": "feed", "delta": delta})
    call("POST", "/subscriptions", {"graph": "feed", "motif": "M1"})
    ack = call("POST", "/graphs/feed/edges",
               {"edges": [[0, 1, 1], [1, 2, 2], [2, 0, 3]], "flush": True})
finally:
    server.shutdown()
    server.server_close()
    service.close()
print(json.dumps({"count": answer["count"], "released": ack["released"],
                  "modules": sorted(sys.modules)}))
"""


def test_serve_path_loads_no_offline_module(tmp_path):
    graph = make_dataset("email-eu", scale=0.04, seed=3)
    path = tmp_path / "g.txt"
    save_snap_text(graph, str(path))
    delta = max(1, graph.time_span // 30)
    out = subprocess.run(
        [sys.executable, "-c", SERVE_SCRIPT, str(path), str(delta)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["count"] >= 0 and report["released"] == 3
    modules = [m for m in report["modules"] if m.startswith("repro")]
    loaded = [
        m for m in modules
        if m in FORBIDDEN_MODULES
        or any(m == p or m.startswith(p + ".") for p in FORBIDDEN_PACKAGES)
    ]
    assert not loaded, f"repro serve loaded offline modules: {loaded}"
    pool = [
        m for m in report["modules"] if _is_multiprocessing(m) or m in POOL_MODULES
    ]
    assert not pool, f"inline repro serve loaded the process pool: {pool}"
    # What serving does run, so an empty module list cannot pass.
    assert {"repro.service.http", "repro.live.ingest",
            "repro.comine.engine"} <= set(modules)


def test_the_walker_loads_no_process_pool():
    """The family walker sits below every runner: importing it loads
    neither the pool nor the scalar oracle it is checked against."""
    out = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; import repro.comine.engine; "
         "print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert out.returncode == 0, out.stderr
    modules = json.loads(out.stdout)
    assert "repro.comine.engine" in modules
    loaded = [
        m for m in modules
        if _is_multiprocessing(m)
        or m in POOL_MODULES + ("repro.mining.mackey",)
    ]
    assert not loaded, f"import repro.comine.engine loaded: {loaded}"
