"""Loading and saving temporal graphs in SNAP text format.

The SNAP temporal datasets used by the paper (Table I) are distributed as
whitespace-separated ``src dst timestamp`` lines.  These helpers read and
write that format so real datasets can be swapped in for the synthetic
ones when available.
"""

from __future__ import annotations

import gzip
from array import array
from pathlib import Path
from typing import Union

import numpy as np

from repro.graph.temporal_graph import TemporalGraph

PathLike = Union[str, Path]

#: Edges formatted per ``write`` call by :func:`save_snap_text`.
WRITE_CHUNK = 1 << 16


def _open_text(path: Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t")
    return open(path, mode)


def _timestamp(token: str) -> int:
    # Parse timestamps as exact integers first: going through float
    # would silently corrupt values above 2**53.  Only decimal-formatted
    # columns (e.g. "10.7") take the float (truncating) fallback.
    try:
        return int(token)
    except ValueError:
        return int(float(token))


def load_snap_text(path: PathLike, num_nodes: int | None = None) -> TemporalGraph:
    """Load a temporal graph from a SNAP-format text file.

    Lines starting with ``#`` or ``%`` are treated as comments; blank
    lines are skipped.  Each data line must contain at least three
    whitespace-separated integers ``src dst timestamp``; extra columns
    are ignored.  A timestamp that is not an integer literal is parsed
    as a float and truncated; integer literals stay exact, also above
    2**53.  Every value must fit in int64.  A line that breaks a rule
    raises ``ValueError`` prefixed with ``path:lineno``.

    Cost: one pass over the lines, O(1) Python work per line.  Edges go
    into one int64 buffer (24 bytes per edge), which becomes the graph's
    ``(m, 3)`` input array without a per-edge tuple.
    """
    path = Path(path)
    edges = array("q")  # flat (src, dst, t) triples
    with _open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or parts[0].startswith(("#", "%")):
                continue
            if len(parts) < 3:
                raise ValueError(
                    f"{path}:{lineno}: expected 'src dst t', got {line.strip()!r}"
                )
            try:
                edges.extend((int(parts[0]), int(parts[1]), _timestamp(parts[2])))
            except (ValueError, OverflowError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: cannot read {line.strip()!r} as int64 "
                    f"'src dst t': {exc}"
                ) from None
    arr = np.frombuffer(edges, dtype=np.int64).reshape(-1, 3)
    return TemporalGraph(arr, num_nodes=num_nodes)


def save_snap_text(graph: TemporalGraph, path: PathLike) -> None:
    """Write a temporal graph as SNAP-format ``src dst timestamp`` lines.

    Formats :data:`WRITE_CHUNK` edges at a time straight from the
    ``src``/``dst``/``ts`` arrays; the bytes are those of one
    ``f"{src} {dst} {t}\\n"`` per edge.
    """
    path = Path(path)
    with _open_text(path, "w") as fh:
        for lo in range(0, graph.num_edges, WRITE_CHUNK):
            hi = lo + WRITE_CHUNK
            fh.writelines(map(
                "{} {} {}\n".format,
                graph.src[lo:hi].tolist(),
                graph.dst[lo:hi].tolist(),
                graph.ts[lo:hi].tolist(),
            ))
