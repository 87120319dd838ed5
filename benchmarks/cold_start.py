"""Cold start of ``repro serve``: modules loaded, import time, time to bind.

    python benchmarks/cold_start.py [CHECKOUT ...] [--runs N] [--graph G]

A checkout is a repo root (default: this one).  For each, prints

- the ``repro`` modules in ``sys.modules`` once ``cli.build_serve_server``
  has bound with one graph registered;
- from ``python -X importtime -m repro serve``, the median self time of
  every ``repro`` module and the cumulative time of ``numpy``;
- the wall time from spawning ``python -m repro serve g=G --port 0`` to
  its ``serving`` line: median and quartiles over ``--runs`` runs.

With several checkouts the runs alternate between them, so drift in the
machine's load falls on all of them alike.  The default graph is the
``serve_*`` benchmark workloads' (email-eu ×0.5).
"""

from __future__ import annotations

import argparse
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]

COUNT = """
import contextlib, io, sys
from repro import cli
args = cli._build_parser().parse_args(["serve", sys.argv[1], "--port", "0"])
with contextlib.redirect_stdout(io.StringIO()):
    service, server = cli.build_serve_server(args)
server.server_close()
service.close()
print(sum(m == "repro" or m.startswith("repro.") for m in sys.modules))
"""


def _env(checkout: Path) -> Dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(checkout / "src"))


def serve_once(checkout: Path, graph: str, importtime: bool) -> Tuple[float, str]:
    """Seconds from spawn to the ``serving`` line, and the stderr."""
    flags = ["-X", "importtime"] if importtime else []
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *flags, "-u", "-m", "repro", "serve", graph,
         "--port", "0"],
        cwd=checkout, env=_env(checkout), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    for line in proc.stdout:
        if line.startswith("serving"):
            break
    elapsed = time.perf_counter() - t0
    proc.send_signal(signal.SIGINT)
    _, err = proc.communicate(timeout=30)
    return elapsed, err


def import_times(stderr: str) -> Tuple[float, float]:
    """``(repro self ms, numpy cumulative ms)`` from ``-X importtime``."""
    repro = numpy = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = line.split(":", 1)[1].split("|")
        name = name.strip()
        if name == "repro" or name.startswith("repro."):
            repro += int(self_us)
        elif name == "numpy":
            numpy += int(cumulative_us)
    return repro / 1e3, numpy / 1e3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs="*", type=Path, default=[ROOT])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--graph", help="SNAP text file to serve")
    args = ap.parse_args(argv)
    checkouts = [c.resolve() for c in args.checkouts]
    with tempfile.TemporaryDirectory() as tmp:
        path = args.graph
        if path is None:
            sys.path.insert(0, str(checkouts[0] / "src"))
            from repro.graph.generators import make_dataset
            from repro.graph.loaders import save_snap_text

            path = str(Path(tmp) / "email-eu.txt")
            save_snap_text(make_dataset("email-eu", scale=0.5, seed=1127), path)
        graph = f"g={path}"
        starts: Dict[Path, List[float]] = {c: [] for c in checkouts}
        imports: Dict[Path, List[Tuple[float, float]]] = {c: [] for c in checkouts}
        for i in range(args.runs):
            for c in checkouts if i % 2 == 0 else checkouts[::-1]:
                starts[c].append(serve_once(c, graph, importtime=False)[0])
                imports[c].append(import_times(serve_once(c, graph, importtime=True)[1]))
        for c in checkouts:
            count = subprocess.run(
                [sys.executable, "-c", COUNT, graph], cwd=c, env=_env(c),
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            ms = [1e3 * s for s in starts[c]]
            q1, _, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else ms * 3
            print(f"{c}\n  repro modules at bind: {count}\n"
                  f"  importtime: repro self {statistics.median(r for r, _ in imports[c]):.1f} ms, "
                  f"numpy {statistics.median(n for _, n in imports[c]):.1f} ms (medians)\n"
                  f"  spawn -> serving: median {statistics.median(ms):.0f} ms, "
                  f"quartiles {q1:.0f}-{q3:.0f} ms over {len(ms)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
