"""Fingerprint-keyed LRU result cache with a byte budget.

Mint's headline insight (§VI-A) is that overlapping motif searches do
massively redundant work; at the serving layer the same redundancy shows
up as *whole repeated queries*.  This cache memoizes completed counts
keyed by ``(graph_fingerprint, canonical_motif, delta)`` — exactly the
triple under which results are provably byte-identical — so a repeat
query costs a dictionary lookup instead of a mining run.

Entries carry an **accuracy tag**: ``"exact"`` for miner output,
``"approx(eps, alpha)"`` for sampled estimates (with the full
error-bound block kept alongside).  The tiering rules are strict:

- an exact entry is never replaced by an approximate one (``put``
  refuses);
- an approximate entry is upgraded in place by an exact result, or
  replaced by a tighter (lower achieved-ε) approximate one;
- ``get`` serves approximate entries only to callers that opted in
  (``accept_approx=True``) — exact queries never see estimates.

Eviction is LRU bounded by **resident** bytes.  An exact result — the
common entry by orders of magnitude — is not kept as an object at all:
its count and its ten :class:`~repro.mining.results.SearchCounters`
fields are one ``bytes`` of eleven packed ``int64`` (121 B), stored
directly as the table's value, and :meth:`ResultCache.get` rebuilds the
:class:`CachedResult` view on a hit.  The key's fingerprint and
canonical motif are interned, so an entry owns only its key tuple and
its δ.  What is booked against ``max_bytes`` is what that keeps
resident — key tuple, δ, packed value and the table slot (~310 B;
``tests/test_service.py`` holds booked and ``tracemalloc``-measured
bytes within a factor of each other) — not the JSON length an earlier
version booked at under a third of the truth.  Approximate entries, and
an exact result whose counters are not exactly the ``SearchCounters``
fields in ``int64``, stay unpacked :class:`CachedResult` objects and
are booked by following their containers.  :meth:`ResultCache.stats`
hands occupancy and hit/miss/eviction accounting to the service
metrics snapshot under the names ``/metrics`` reports them by.
"""

from __future__ import annotations

import struct
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple, Union

from repro.approx.estimate import EXACT
from repro.mining.results import SearchCounters
from repro.service.query import QueryKey


@dataclass(frozen=True)
class CachedResult:
    """An immutable cached count: the mined number plus its counters.

    ``accuracy`` is ``"exact"`` or the ``approx(eps, alpha)`` tag of the
    estimate; approximate entries keep the full error-bound block in
    ``approx`` (the :meth:`ApproxEstimate.stats_dict
    <repro.approx.estimate.ApproxEstimate.stats_dict>` dict) so a cache
    hit can serve the same labelled payload the original run did.
    ``nbytes`` is what the entry is booked at.
    """

    count: int
    counters: Dict[str, int]
    nbytes: int
    accuracy: str = EXACT
    approx: Optional[Dict] = None

    @property
    def is_exact(self) -> bool:
        return self.accuracy == EXACT

    @property
    def achieved_eps(self) -> float:
        """Realized relative error (0.0 for exact entries)."""
        if self.approx is None:
            return 0.0
        return float(self.approx["achieved_eps"])


#: Counter names of a packed entry, in ``SearchCounters`` field order.
_FIELDS = tuple(f.name for f in fields(SearchCounters))
#: A packed exact entry: the count, then one ``int64`` per field.
_PACKED = struct.Struct(f"<{1 + len(_FIELDS)}q")
#: What one entry costs the ``OrderedDict`` itself — hash-table slot,
#: order index and link node, averaged over the table's resize cycle
#: (66–107 B measured from 5,000 to 50,000 entries).
_SLOT_BYTES = 96

#: An unpacked entry's own object: the instance and its attribute dict.
_OBJECT_BYTES = sys.getsizeof(CachedResult(0, {}, 0)) + sys.getsizeof(
    vars(CachedResult(0, {}, 0))
)

#: A stored value: packed exact result, or the unpacked object.
_Stored = Union[bytes, CachedResult]


def _is_approx(stored: _Stored) -> bool:
    return not isinstance(stored, bytes) and not stored.is_exact


def _pack(count: int, counters: Dict[str, int]) -> Optional[bytes]:
    """The packed form of an exact result, or ``None`` when it has no
    faithful one (foreign counter names, a value outside ``int64``)."""
    if len(counters) != len(_FIELDS):
        return None
    try:
        return _PACKED.pack(count, *[counters[name] for name in _FIELDS])
    except (KeyError, struct.error):
        return None


def _sizeof(value) -> int:
    """Resident bytes of a JSON-shaped value, containers followed.
    Shared names and small integers are counted where they appear, so
    this errs high: the budget admits less, never more."""
    size = sys.getsizeof(value)
    if isinstance(value, dict):
        size += sum(_sizeof(k) + _sizeof(v) for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        size += sum(_sizeof(v) for v in value)
    return size


def _nbytes(key: QueryKey, stored: _Stored) -> int:
    """What the entry ``key -> stored`` is booked at."""
    if isinstance(stored, bytes):
        return _key_nbytes(key) + sys.getsizeof(stored)
    return stored.nbytes


def _view(key: QueryKey, stored: Optional[_Stored]) -> Optional[CachedResult]:
    """The entry a caller sees: a packed value unpacked into a fresh
    ``counters`` dict in ``SearchCounters`` field order."""
    if not isinstance(stored, bytes):
        return stored
    count, *values = _PACKED.unpack(stored)
    return CachedResult(count, dict(zip(_FIELDS, values)), _nbytes(key, stored))


def _key_nbytes(key: QueryKey) -> int:
    """What an entry's key keeps resident beyond the interned
    fingerprint and canonical motif: its tuple, its δ and its slot."""
    return sys.getsizeof(key) + sys.getsizeof(key[2]) + _SLOT_BYTES


class ResultCache:
    """Thread-safe LRU cache of mining results, bounded in bytes."""

    def __init__(self, max_bytes: int = 64 * 1024 * 1024) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[QueryKey, _Stored]" = OrderedDict()
        #: The one copy of each fingerprint and canonical motif the
        #: stored keys point at (a query builds fresh ones every time).
        self._shared: Dict = {}
        #: ``(graph_name, version) -> fingerprint`` for mutable graphs,
        #: so superseded versions can be invalidated incrementally.
        self._version_fps: Dict[Tuple[str, int], str] = {}
        self.bytes_used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.refinements = 0

    # -- core ------------------------------------------------------------------

    def _remove(self, key: QueryKey) -> None:
        self.bytes_used -= _nbytes(key, self._entries.pop(key))

    def _intern(self, key: QueryKey) -> QueryKey:
        """``key`` pointing at the shared copies of its fingerprint and
        canonical motif.  The table is rebuilt from the live keys once
        evictions leave it four times their size, so it cannot outlive
        the traffic that filled it."""
        if len(self._shared) > 4 * len(self._entries) + 16:
            self._shared = {part: part for k in self._entries for part in k[:2]}
        fingerprint, motif, delta = key
        return (
            self._shared.setdefault(fingerprint, fingerprint),
            self._shared.setdefault(motif, motif),
            delta,
        )

    def get(self, key: QueryKey, accept_approx: bool = False) -> Optional[CachedResult]:
        """Look up one key.

        Exact entries serve every caller.  Approximate entries serve
        only callers that accept them (``accept_approx=True``) — an
        exact query observing an approx entry counts as a miss and the
        entry stays put (the later exact result will upgrade it).
        """
        with self._lock:
            entry = _view(key, self._entries.get(key))
            if entry is None or (not entry.is_exact and not accept_approx):
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def peek(self, key: QueryKey) -> Optional[CachedResult]:
        """Read without touching LRU order or hit/miss accounting — the
        degraded-serving path's 'anything labelled beats a 504' probe."""
        with self._lock:
            return _view(key, self._entries.get(key))

    def put(
        self,
        key: QueryKey,
        count: int,
        counters: Dict[str, int],
        accuracy: str = EXACT,
        approx: Optional[Dict] = None,
    ) -> bool:
        """Insert (or refresh) a result; returns False if not stored.

        Tiering: exact entries are never downgraded to approximate, and
        an approximate entry is only replaced by an exact result or by
        an estimate with achieved ε no worse than the incumbent's.  An
        entry larger than the whole budget is refused rather than
        evicting the entire cache for one oversized tenant.
        """
        count = int(count)
        counters = {k: int(v) for k, v in counters.items()}
        exact = accuracy == EXACT
        stored: Optional[_Stored] = (
            _pack(count, counters) if exact and approx is None else None
        )
        if stored is None:
            approx = dict(approx) if approx is not None else None
            held = sum(_sizeof(v) for v in (count, counters, accuracy, approx))
            stored = CachedResult(
                count, counters, _key_nbytes(key) + _OBJECT_BYTES + held,
                accuracy, approx,
            )
        nbytes = _nbytes(key, stored)
        if nbytes > self.max_bytes:
            return False
        with self._lock:
            old = self._entries.get(key)
            if old is not None:
                if not _is_approx(old):
                    if not exact:
                        return False  # exact always preferred
                elif exact:
                    self.refinements += 1
                elif stored.achieved_eps > old.achieved_eps:
                    return False  # keep the tighter estimate
                self._remove(key)
            self._entries[self._intern(key)] = stored
            self.bytes_used += nbytes
            while self.bytes_used > self.max_bytes:
                self._remove(next(iter(self._entries)))
                self.evictions += 1
            return True

    # -- maintenance -----------------------------------------------------------

    def invalidate_fingerprint(self, fingerprint: str) -> int:
        """Drop every entry for one graph (fires on registry eviction)."""
        with self._lock:
            doomed = [k for k in self._entries if k[0] == fingerprint]
            for k in doomed:
                self._remove(k)
            for vk in [
                vk for vk, fp in self._version_fps.items() if fp == fingerprint
            ]:
                del self._version_fps[vk]
            return len(doomed)

    def bind_version(
        self, fingerprint: str, graph: str, version: int
    ) -> None:
        """Associate ``fingerprint`` with one version of a mutable graph.

        Entries stay keyed by fingerprint (content identity is what
        makes results provably reusable); the binding lets
        :meth:`invalidate_version` retire exactly one superseded
        version's entries instead of clearing the whole cache when a
        live graph advances.
        """
        with self._lock:
            self._version_fps[(graph, int(version))] = fingerprint

    def invalidate_version(self, graph: str, version: int) -> int:
        """Drop the entries of one (graph, version); returns how many."""
        with self._lock:
            fp = self._version_fps.pop((graph, int(version)), None)
        if fp is None:
            return 0
        return self.invalidate_fingerprint(fp)

    def version_fingerprint(self, graph: str, version: int) -> Optional[str]:
        with self._lock:
            return self._version_fps.get((graph, int(version)))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._shared.clear()
            self.bytes_used = 0

    # -- accounting ------------------------------------------------------------

    @property
    def entry_count(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Hits over lookups since construction (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, int]:
        """Occupancy and accounting, keyed by the names ``/metrics``
        reports them under, plus ``refinements``: approximate entries
        upgraded in place by an exact result."""
        with self._lock:
            return {
                "cache_entries": len(self._entries),
                "approx_cache_entries": sum(map(_is_approx, self._entries.values())),
                "cache_bytes": self.bytes_used,
                "cache_hits": self.hits,
                "cache_misses": self.misses,
                "cache_evictions": self.evictions,
                "refinements": self.refinements,
            }
