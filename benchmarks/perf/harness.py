"""What every workload shares: inputs, the server subprocess, a keep-alive
client, memory and leak probes, and the environment record."""

from __future__ import annotations

import json
import math
import os
import platform
import signal
import subprocess
import sys
import threading
from http.client import HTTPConnection
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
if not (SRC / "repro").is_dir():
    raise SystemExit(f"{SRC / 'repro'} not found: the benchmark runs the program "
                     "from the source tree it sits in")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.graph.generators import make_dataset  # noqa: E402
from repro.graph.temporal_graph import TemporalGraph  # noqa: E402

#: Generator seed of every dataset.  Size and window density define a
#: workload (README, "Workloads"), so ``--seed`` never changes them: it
#: relabels the nodes and draws the traffic.
GRAPH_SEED = 1127


def seeded_graph(dataset: str, scale: float, seed: int) -> TemporalGraph:
    """The workload's dataset with node ids permuted by ``seed``.

    Relabelling keeps every count and every search step, and changes the
    fingerprint, the CSR layout and the hub ids a change could overfit to.
    """
    g = make_dataset(dataset, scale=scale, seed=GRAPH_SEED)
    perm = np.random.default_rng(seed).permutation(g.num_nodes)
    return TemporalGraph.from_arrays(
        perm[g.src], perm[g.dst], g.ts, num_nodes=g.num_nodes
    )


def edge_list(graph: TemporalGraph) -> List[Tuple[int, int, int]]:
    return list(zip(graph.src.tolist(), graph.dst.tolist(), graph.ts.tolist()))


def pct(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile, ``p`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * p / 100)) - 1]


def block_rates(finished: Sequence[float], blocks: int = 15) -> List[float]:
    """Completions per second over ``blocks`` equal runs of consecutive
    completions, from the clock reading at which each one finished."""
    ts = sorted(finished)
    size = max(1, (len(ts) - 1) // blocks)
    return [
        size / (ts[i + size] - ts[i]) for i in range(0, len(ts) - size, size)
    ]


# -- processes, memory, leaks --------------------------------------------------

def children_of(pid: int) -> List[int]:
    """Live direct children of ``pid`` (Linux ``/proc``)."""
    out: List[int] = []
    for task in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            out.extend(int(c) for c in task.read_text().split())
        except OSError:  # the thread ended while we were listing
            continue
    return out


def _hwm_mb(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def tree_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` plus its live descendants."""
    return _hwm_mb(pid) + sum(tree_rss_mb(c) for c in children_of(pid))


def shm_segments() -> Set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


# -- the server under test -----------------------------------------------------

class Client:
    """One keep-alive connection; every caller of this system blocks on
    its reply, so a client is a closed loop by construction."""

    def __init__(self, port: int, timeout_s: float = 60.0) -> None:
        self.conn = HTTPConnection("127.0.0.1", port, timeout=timeout_s)

    def call(
        self, method: str, path: str, body: Optional[Dict] = None
    ) -> Tuple[int, bytes]:
        raw = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if raw else {}
        self.conn.request(method, path, body=raw, headers=headers)
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def ok(self, method: str, path: str, body: Optional[Dict] = None) -> Dict:
        status, raw = self.call(method, path, body)
        if status != 200:
            raise RuntimeError(f"{method} {path} -> HTTP {status}: {raw[:200]!r}")
        return json.loads(raw)

    def close(self) -> None:
        self.conn.close()


def call_once(port: int, method: str, path: str, body: Optional[Dict] = None) -> Dict:
    """One request on a connection of its own: set-up and checks, never
    the timed path (a fresh connection also skips the delayed-ACK stall
    that keep-alive clients of ``service.http`` wait out; see README)."""
    client = Client(port)
    try:
        return client.ok(method, path, body)
    finally:
        client.close()


class Server:
    """``python -m repro serve`` with default flags, on a free port."""

    def __init__(self, graphs: Sequence[str] = ()) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", *graphs, "--port", "0"],
            cwd=str(ROOT),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        watchdog = threading.Timer(60.0, self.proc.kill)
        watchdog.start()
        try:
            seen: List[str] = []
            for line in self.proc.stdout:
                seen.append(line)
                if line.startswith("serving motif queries on http://"):
                    self.port = int(line.rsplit(":", 1)[1])
                    break
            else:
                self.proc.wait()
                raise RuntimeError("server did not start:\n" + "".join(seen))
        finally:
            watchdog.cancel()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """SIGINT takes the CLI's own shutdown path; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# -- the record every result carries -------------------------------------------

def environment(seed: int) -> Dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "git_sha": sha,
    }
