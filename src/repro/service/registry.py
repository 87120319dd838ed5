"""Ref-counted registry of resident temporal graphs, keyed by fingerprint.

Clients register a :class:`TemporalGraph` and get back its content
fingerprint; queries then name graphs by fingerprint (or by a friendly
name), so the scheduler, cache and per-graph mining pools all share one
notion of graph identity.

Lifecycle is reference-counted with lazy eviction:

- every :meth:`register` of the same content increments a refcount (the
  graph itself is stored once — registration is idempotent by content);
- :meth:`release` decrements it; at zero the graph moves to a bounded
  LRU *idle* set rather than being dropped immediately, because an
  about-to-return client (or a warm result cache) often re-registers
  the same graph moments later;
- when the idle set exceeds ``max_idle``, the least recently used idle
  graph is evicted and every registered eviction listener fires — the
  service uses this to close the graph's mining pool and invalidate its
  cache entries.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional

from repro.graph.temporal_graph import TemporalGraph
from repro.service.query import UnknownGraph

#: Zero-reference graphs kept resident, least recently used evicted first.
MAX_IDLE_GRAPHS = 4


class _Resident:
    __slots__ = ("graph", "refcount")

    def __init__(self, graph: TemporalGraph) -> None:
        self.graph = graph
        self.refcount = 0


class GraphRegistry:
    """Fingerprint-keyed resident-graph table with ref-counted eviction."""

    def __init__(self, max_idle: int = MAX_IDLE_GRAPHS) -> None:
        if max_idle < 0:
            raise ValueError("max_idle must be non-negative")
        self.max_idle = int(max_idle)
        self._lock = threading.Lock()
        self._resident: Dict[str, _Resident] = {}
        #: Zero-refcount graphs in LRU order (oldest first).
        self._idle: "OrderedDict[str, None]" = OrderedDict()
        self._names: Dict[str, str] = {}
        self._evict_listeners: List[Callable[[str], None]] = []
        self.registered_total = 0
        self.evicted_total = 0

    # -- registration ----------------------------------------------------------

    def register(self, graph: TemporalGraph, name: Optional[str] = None) -> str:
        """Pin ``graph`` in the registry; returns its fingerprint.

        Registering content that is already resident increments its
        refcount instead of storing a second copy.  ``name`` adds a
        friendly alias (later registrations may rebind a name).
        """
        fp = graph.fingerprint()
        with self._lock:
            entry = self._resident.get(fp)
            if entry is None:
                entry = _Resident(graph)
                self._resident[fp] = entry
            entry.refcount += 1
            self._idle.pop(fp, None)
            if name is not None:
                self._names[name] = fp
            self.registered_total += 1
            return fp

    def unbind(self, name: str) -> None:
        """Forget the alias ``name`` (a no-op if it is not bound); the
        graph it named stays resident under its fingerprint."""
        with self._lock:
            self._names.pop(name, None)

    def release(self, fingerprint: str) -> None:
        """Drop one reference; zero-ref graphs become idle-evictable."""
        evicted: List[str] = []
        with self._lock:
            entry = self._resident.get(fingerprint)
            if entry is None:
                raise UnknownGraph(f"unknown graph fingerprint {fingerprint!r}")
            if entry.refcount > 0:
                entry.refcount -= 1
            if entry.refcount == 0:
                self._idle[fingerprint] = None
                self._idle.move_to_end(fingerprint)
                evicted = self._evict_over_limit_locked()
        self._fire_evictions(evicted)

    def _evict_over_limit_locked(self) -> List[str]:
        evicted: List[str] = []
        while len(self._idle) > self.max_idle:
            fp, _ = self._idle.popitem(last=False)
            del self._resident[fp]
            for alias in [n for n, f in self._names.items() if f == fp]:
                del self._names[alias]
            self.evicted_total += 1
            evicted.append(fp)
        return evicted

    def _fire_evictions(self, fingerprints: List[str]) -> None:
        for fp in fingerprints:
            for listener in list(self._evict_listeners):
                listener(fp)

    def add_evict_listener(self, listener: Callable[[str], None]) -> None:
        """``listener(fingerprint)`` fires after a graph is evicted."""
        self._evict_listeners.append(listener)

    # -- lookup ----------------------------------------------------------------

    def get(self, fingerprint: str) -> TemporalGraph:
        with self._lock:
            entry = self._resident.get(fingerprint)
            if entry is None:
                raise UnknownGraph(f"unknown graph fingerprint {fingerprint!r}")
            if entry.refcount == 0:
                # Touch the idle LRU so hot idle graphs survive longest.
                self._idle.move_to_end(fingerprint)
            return entry.graph

    def resolve(self, name_or_fingerprint: str) -> str:
        """Map a friendly name (or a fingerprint) to a fingerprint."""
        with self._lock:
            if name_or_fingerprint in self._names:
                return self._names[name_or_fingerprint]
            if name_or_fingerprint in self._resident:
                return name_or_fingerprint
        raise UnknownGraph(f"unknown graph {name_or_fingerprint!r}")

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._resident

    def names(self) -> Dict[str, str]:
        """Snapshot of the ``name -> fingerprint`` alias table."""
        with self._lock:
            return dict(self._names)

    @property
    def resident_count(self) -> int:
        with self._lock:
            return len(self._resident)

    def refcount(self, fingerprint: str) -> int:
        with self._lock:
            entry = self._resident.get(fingerprint)
            if entry is None:
                raise UnknownGraph(f"unknown graph fingerprint {fingerprint!r}")
            return entry.refcount
