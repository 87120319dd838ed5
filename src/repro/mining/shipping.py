"""Shipping: how a graph's arrays reach a worker process.

A dispatcher ships each graph once per worker; the worker keeps it
resident (:class:`~repro.mining.chunks.ResidentGraph`) for every later
chunk.  What travels is a graph's seven backing numpy arrays (edge list
and both CSR adjacency structures) in one of two forms:

- :class:`PickledGraph` — the arrays pickled into the ``("graph", ...)``
  message; what a cluster node gets, since nothing assumes it shares
  the coordinator's address space;
- :class:`GraphShipment` — the arrays placed once in a
  ``multiprocessing.shared_memory`` segment that same-host pool workers
  map zero-copy (the pickled form where shared memory is unavailable).

:func:`adopt_graph` is the worker side of both: views of the arrays go
straight into :meth:`TemporalGraph.from_arrays`, with no CSR rebuild and
no validation.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Dict, Tuple

import numpy as np

from repro.graph.temporal_graph import TemporalGraph
from repro.mining.chunks import ResidentGraph


def _attach_untracked(shm_name: str):
    """Attach to an existing segment without resource-tracker bookkeeping.

    The parent owns (and unlinks) the segment; if every worker also
    registered it, the tracker would warn about double-unregistration at
    shutdown.  Python >= 3.13 exposes ``track=False`` for exactly this;
    older versions need the register call suppressed during attach.
    """
    try:
        return shared_memory.SharedMemory(name=shm_name, track=False)
    except TypeError:  # Python < 3.13
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return shared_memory.SharedMemory(name=shm_name)
        finally:
            resource_tracker.register = original


class PickledGraph:
    """A graph's seven backing arrays, pickled to each worker.

    ``payload`` is what travels in a ``("graph", ...)`` message;
    :func:`adopt_graph` is its worker-side inverse.
    """

    def __init__(self, graph: TemporalGraph) -> None:
        self.num_nodes = graph.num_nodes
        self.payload = ("arrays", {
            name: np.ascontiguousarray(a, dtype=np.int64)
            for name, a in graph.as_arrays().items()
        })

    def close(self) -> None:
        """Nothing outlives the messages."""


def _segment_view(seg, start: int, length: int) -> np.ndarray:
    return np.ndarray((length,), dtype=np.int64, buffer=seg.buf, offset=start * 8)


class GraphShipment(PickledGraph):
    """The arrays placed once in a ``multiprocessing.shared_memory``
    segment that same-host workers adopt zero-copy views of; where
    shared memory is unavailable, the pickled form.  ``close`` unlinks
    the segment."""

    def __init__(self, graph: TemporalGraph) -> None:
        self._seg = None
        arrays = graph.as_arrays()
        try:
            total = sum(len(a) for a in arrays.values())
            self._seg = shared_memory.SharedMemory(create=True, size=max(1, total * 8))
        except OSError:  # pragma: no cover - e.g. /dev/shm unavailable
            super().__init__(graph)
            return
        self.num_nodes = graph.num_nodes
        layout: Dict[str, Tuple[int, int]] = {}
        start = 0
        for name, a in arrays.items():
            _segment_view(self._seg, start, len(a))[:] = np.asarray(a, dtype=np.int64)
            layout[name] = (start, len(a))
            start += len(a)
        self.payload = ("shm", (self._seg.name, layout))

    def close(self) -> None:
        if self._seg is not None:
            self._seg.close()
            try:
                self._seg.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            self._seg = None


def adopt_graph(payload, num_nodes: int) -> ResidentGraph:
    """Worker side of a shipment: no CSR rebuild, no validation."""
    form, body = payload
    seg = None
    if form == "shm":
        name, layout = body
        seg = _attach_untracked(name)
        body = {
            key: _segment_view(seg, start, length)
            for key, (start, length) in layout.items()
        }
    graph = TemporalGraph.from_arrays(num_nodes=num_nodes, validate=False, **body)
    return ResidentGraph(graph, seg)
