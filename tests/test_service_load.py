"""Deterministic concurrent-load acceptance test for the serving layer.

Drives the service with 64 concurrent client threads issuing a seeded
query mix in which over half the queries are duplicates of another
in-flight or already-answered query, then asserts the serving layer's
contract all at once:

- **zero wrong answers** — every ``ok`` payload is byte-identical to a
  direct serial miner run for its ``(motif, delta)``;
- **coalesce ratio > 0** — duplicates submitted while the dispatcher is
  gated must ride a single execution;
- **cache hit-rate > 0** — a repeat wave after completion is served
  from the result cache;
- **overload is explicit** — with the dispatcher gated and the bounded
  queue full, further admission raises ``QueryRejected`` (never a
  deadlock, never a silent drop);
- the metrics snapshot reports p50/p99 latency and the shed count.

A second wave re-runs the 64 clients against a pool backend with an
injected backend failure: answers must stay byte-identical while the
per-graph circuit breaker trips into (and back out of) degraded mode.
"""

from __future__ import annotations

import random
import threading
from functools import partial

import pytest

from repro.mining.mackey import MackeyMiner
from repro.mining.parallel import WorkerPool
from repro.motifs.catalog import EVALUATION_MOTIFS
from repro.resilience import FaultPlan
from repro.service import (
    InlineExecutor,
    MotifService,
    QueryRejected,
    build_payload,
    payload_bytes,
)

NUM_CLIENTS = 64
DELTAS = (20, 40)
SEED = 20260805


@pytest.fixture(scope="module")
def load_graph():
    rng = random.Random(7)
    edges = [
        (rng.randrange(12), rng.randrange(12), rng.randrange(200))
        for _ in range(60)
    ]
    edges = [(s, d if d != s else (d + 1) % 12, t) for s, d, t in edges]
    from repro.graph.temporal_graph import TemporalGraph

    return TemporalGraph(edges, num_nodes=12)


@pytest.fixture(scope="module")
def expected_bytes(load_graph):
    """Ground truth payloads per (motif name, delta), mined serially."""
    out = {}
    for motif in EVALUATION_MOTIFS:
        for delta in DELTAS:
            result = MackeyMiner(load_graph, motif, delta).mine()
            out[(motif.name, delta)] = payload_bytes(
                build_payload(
                    load_graph.fingerprint(), motif, delta, result.count,
                    result.counters.as_dict(),
                )
            )
    return out


def client_plan():
    """A seeded query per client: 8 distinct keys for 64 clients (>=50%
    of submissions necessarily duplicate another client's query)."""
    rng = random.Random(SEED)
    keys = [(m, d) for m in EVALUATION_MOTIFS for d in DELTAS]
    return [keys[rng.randrange(len(keys))] for _ in range(NUM_CLIENTS)]


class TestConcurrentLoad:
    def test_acceptance_load(self, load_graph, expected_bytes):
        plan = client_plan()
        assert len(plan) == NUM_CLIENTS
        assert len(set(plan)) <= NUM_CLIENTS // 2  # >=50% duplicates

        with MotifService(max_queue=NUM_CLIENTS, lanes=4) as svc:
            svc.register_graph(load_graph, name="load")

            # -- wave 1: coalescing under concurrency --------------------------
            # Gate the dispatcher so all 64 submissions are in flight
            # together; duplicates must coalesce, deterministically.
            svc.scheduler.pause()
            ready = threading.Barrier(NUM_CLIENTS + 1)
            results = [None] * NUM_CLIENTS
            failures = []

            def client(i: int, motif, delta) -> None:
                try:
                    ready.wait(timeout=30)
                    results[i] = svc.query(load_graph, motif, delta)
                except Exception as exc:  # pragma: no cover - failure path
                    failures.append((i, repr(exc)))

            threads = [
                threading.Thread(target=client, args=(i, m, d))
                for i, (m, d) in enumerate(plan)
            ]
            for t in threads:
                t.start()
            ready.wait(timeout=30)  # every client thread is running
            # Wait until all 64 are admitted (queued or coalesced), then
            # release the dispatcher.
            deadline = threading.Event()
            for _ in range(2000):
                if svc.scheduler.admitted >= NUM_CLIENTS:
                    break
                deadline.wait(0.01)
            assert svc.scheduler.admitted >= NUM_CLIENTS
            svc.scheduler.resume()
            for t in threads:
                t.join(timeout=60)
            assert failures == []

            # Zero wrong answers: byte-identical to the direct miner.
            for (motif, delta), result in zip(plan, results):
                assert result is not None and result.ok
                assert payload_bytes(result.payload) == expected_bytes[
                    (motif.name, delta)
                ]

            m = svc.metrics()
            assert m.coalesce_ratio > 0
            distinct = len(set(plan))
            assert m.coalesced == NUM_CLIENTS - distinct

            # -- wave 2: cache hits --------------------------------------------
            for motif, delta in plan:
                repeat = svc.query(load_graph, motif, delta)
                assert repeat.ok and repeat.source == "cache"
                assert payload_bytes(repeat.payload) == expected_bytes[
                    (motif.name, delta)
                ]
            m = svc.metrics()
            assert m.cache_hit_rate > 0
            assert m.cache_hits >= NUM_CLIENTS

            # -- wave 3: explicit overload -------------------------------------
            # Gate dispatch again and fill the bounded queue with
            # distinct keys; the next distinct query must be shed with
            # an explicit rejection carrying a retry hint.
            svc.scheduler.pause()
            svc.cache.clear()
            admitted = []
            for i in range(NUM_CLIENTS):
                admitted.append(
                    svc.submit(load_graph, EVALUATION_MOTIFS[0], 1000 + i)
                )
            with pytest.raises(QueryRejected) as exc_info:
                svc.submit(load_graph, EVALUATION_MOTIFS[0], 5000)
            assert exc_info.value.retry_after_s > 0
            svc.scheduler.resume()
            # No deadlock and no silent drop: every admitted query
            # still completes with a correct answer.
            overload_results = [p.result() for p in admitted]
            assert all(r.ok for r in overload_results)

            # -- final snapshot -------------------------------------------------
            m = svc.metrics()
            assert m.shed == 1
            assert m.latency_samples > 0
            assert m.latency_p50_s > 0
            assert m.latency_p99_s >= m.latency_p50_s
            rendered = svc.render_metrics()
            assert "shed (rejected)" in rendered
            assert "latency p99 (ms)" in rendered


class TestDegradedLoad:
    """64 concurrent clients against a backend with an injected failure:
    zero wrong answers while the breaker trips into — and back out of —
    degraded mode (the issue's acceptance wave)."""

    def test_injected_failure_wave(self, load_graph, expected_bytes):
        plan_keys = client_plan()
        # Pool backend, hair-trigger breaker, short cooldown; no result
        # cache so the backend actually sees the traffic.
        executor = InlineExecutor(
            partial(WorkerPool, 2), breaker_failures=1, breaker_cooldown_s=0.4,
        )
        fault = FaultPlan.raise_at("executor.batch", [1])
        with fault.installed():
            with MotifService(
                executor=executor, max_queue=NUM_CLIENTS, lanes=4,
                cache_bytes=0,
            ) as svc:
                svc.register_graph(load_graph, name="load")
                ready = threading.Barrier(NUM_CLIENTS + 1)
                results = [None] * NUM_CLIENTS
                failures = []

                def client(i: int, motif, delta) -> None:
                    try:
                        ready.wait(timeout=30)
                        results[i] = svc.query(load_graph, motif, delta)
                    except Exception as exc:  # pragma: no cover
                        failures.append((i, repr(exc)))

                threads = [
                    threading.Thread(target=client, args=(i, m, d))
                    for i, (m, d) in enumerate(plan_keys)
                ]
                for t in threads:
                    t.start()
                ready.wait(timeout=30)
                for t in threads:
                    t.join(timeout=120)
                assert failures == []

                # Zero wrong answers: the injected failure and every
                # degraded (inline) execution still produced payloads
                # byte-identical to the direct serial miner.
                for (motif, delta), result in zip(plan_keys, results):
                    assert result is not None and result.ok, result
                    assert payload_bytes(result.payload) == expected_bytes[
                        (motif.name, delta)
                    ]

                # The failure was real and tripped the breaker into
                # degraded mode...
                assert len(fault.fired) == 1
                m = svc.metrics()
                assert m.errors == 0
                assert m.backend_failures >= 1
                assert m.breaker_opens >= 1
                assert m.degraded_queries >= 1

                # ...and out again: past the cooldown a probe query
                # closes it and the service reports healthy.
                import time as _time

                deadline = _time.monotonic() + 10
                while _time.monotonic() < deadline:
                    _time.sleep(0.45)
                    probe = svc.query(load_graph, EVALUATION_MOTIFS[0],
                                      DELTAS[0])
                    assert probe.ok
                    assert payload_bytes(probe.payload) == expected_bytes[
                        (EVALUATION_MOTIFS[0].name, DELTAS[0])
                    ]
                    if not svc.metrics().degraded:
                        break
                m = svc.metrics()
                assert not m.degraded and m.breakers_open == 0
                assert m.breaker_closes >= 1
                health = svc.health()
                assert health["ok"] and not health["degraded"]
