"""Benchmark-side spans: name, start, end, parent, and a run id per workload.

Spans are recorded from the benchmark's own files around its calls into
each layer of ``src/repro``; spans inside the program are a later issue.
They stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Nestable spans on the monotonic clock; free when ``enabled`` is off.

    One tracer serves one thread of calls: ``parent`` is the span that
    was open when this one started.  Client threads of a workload each
    get their own tracer sharing the ``run_id`` (see :meth:`fork`).
    """

    def __init__(self, run_id: str, enabled: bool = True) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: List[Dict] = []
        self._stack: List[int] = []
        self._forks: List["Tracer"] = []

    def fork(self) -> "Tracer":
        child = Tracer(self.run_id, self.enabled)
        self._forks.append(child)
        return child

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name, over this tracer and its forks.

        Self time is a span's duration minus the part its child spans
        cover; children of one span never overlap (one thread each).
        """
        totals: Dict[str, float] = {}
        for tracer in [self] + self._forks:
            covered = [0.0] * len(tracer.spans)
            for s in tracer.spans:
                if s["parent"] is not None:
                    covered[s["parent"]] += s["end"] - s["start"]
            for s, child_s in zip(tracer.spans, covered):
                own = (s["end"] - s["start"]) - child_s
                totals[s["name"]] = totals.get(s["name"], 0.0) + own
        return totals

    def write(self, path: Path, extra: Optional[Dict] = None) -> None:
        threads = [t.spans for t in [self] + self._forks]
        body = {"run_id": self.run_id, "threads": threads}
        body.update(extra or {})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(body))
