"""Eviction semantics and memory bounds of the continuation tables.

A partial match rooted at an edge older than ``t_now - δ`` has
``t_limit < t_now`` and can never again be extended (timestamps are
strictly increasing).  The engine must *drop* such partials — not merely
skip them — so continuation-table memory stays proportional to the live
window, even on hub-heavy streams.
"""

from __future__ import annotations

import pytest

from repro.graph.generators import make_dataset
from repro.motifs.catalog import M1, M2, PING_PONG, TWO_CYCLE_RETURN
from repro.streaming import StreamBuffer, StreamingCounter
from repro.streaming.counter import FamilyStreamEngine, MotifStreamEngine, Slot


def partials(engine):
    """Every partial match ``engine`` holds, across its buckets."""
    return [p for bucket in engine._buckets.values() for p in bucket]


class TestEvictionSemantics:
    def test_expired_partial_is_dropped(self):
        engine = MotifStreamEngine(PING_PONG, delta=10)
        engine.advance(0, 1, 0)  # roots a partial, t_limit=10
        assert engine.live_partials == 1
        engine.advance(2, 3, 100)  # far outside the window
        # The stale partial is gone (the new root replaces it).
        assert engine.evicted_total == 1
        assert engine.live_partials == 1
        assert all(p.t_limit >= 100 for p in partials(engine))

    def test_expired_partial_never_re_extended(self):
        # 2cycle-return = A->B, B->A, A->B.  Build a depth-2 partial,
        # expire it, then send the exact edge that would have completed
        # it: the count must stay 0.
        engine = MotifStreamEngine(TWO_CYCLE_RETURN, delta=5)
        engine.advance(0, 1, 0)
        engine.advance(1, 0, 3)  # depth-2 partial now waits for (0, 1)
        assert engine.live_partials >= 1
        assert engine.advance(0, 1, 20) == 0  # would complete if stale
        assert engine.count == 0
        # A fresh in-window sequence still completes normally.
        engine.advance(1, 0, 22)
        engine.advance(0, 1, 24)
        assert engine.count == 1

    def test_eviction_is_exact_at_the_boundary(self):
        # t_limit == t is still extendable (inclusive window); one past
        # is not.
        inside = MotifStreamEngine(PING_PONG, delta=7)
        inside.advance(3, 4, 10)
        inside.advance(4, 3, 17)  # span exactly δ
        assert inside.count == 1

        outside = MotifStreamEngine(PING_PONG, delta=7)
        outside.advance(3, 4, 10)
        outside.advance(4, 3, 18)  # span δ+1: evicted, not matched
        assert outside.count == 0
        assert outside.evicted_total == 1

    def test_zero_delta_evicts_everything(self):
        engine = MotifStreamEngine(M1, delta=0)
        for i, (s, d) in enumerate([(0, 1), (1, 2), (2, 0)]):
            engine.advance(s, d, i)
        assert engine.count == 0
        # Only the newest root can be live at δ=0.
        assert engine.live_partials <= 1


class TestMemoryBounds:
    def test_table_bounded_by_live_window_on_hub_heavy_stream(self):
        """On the hub-heavy wiki-talk generator, the continuation tables
        never exceed what the live window can justify: every stored
        partial is rooted inside the window, and for a 3-edge motif the
        partial count is bounded by window pairs."""
        g = make_dataset("wiki-talk", scale=0.05, seed=23)
        delta = max(1, g.time_span // 25)
        counter = StreamingCounter(M1, delta)
        edges = list(zip(g.src.tolist(), g.dst.tolist(), g.ts.tolist()))
        for lo in range(0, len(edges), 32):
            counter.add_batch(edges[lo:lo + 32])
            t_now = counter.buffer.t_now
            w = counter.window_size
            engine = counter.engines()[0]
            # Heap and buckets agree (no leaked entries).
            assert engine.live_partials == len(partials(engine))
            # Every live partial is rooted inside the window...
            for p in partials(engine):
                assert p.t_limit >= t_now
                assert p.root.time >= t_now - delta
            # ...so depth-1 partials are at most the window edges and
            # depth-2 partials at most ordered window pairs.
            assert engine.live_partials <= w + w * w
        assert counter.evicted_partials > 0, "stream never evicted"
        assert counter.count > 0, "stream never matched (weak test)"

    def test_narrow_branch_bounded_by_its_own_delta_beside_saturating_slot(self):
        """One engine counts M1 at δ and ping-pong at a saturating δ.
        They share only the first edge, so every M1 partial sits on a
        branch only the narrow slot uses: those partials must be rooted
        inside the narrow window and be exactly the ones an M1 engine
        alone holds, however long the saturating slot keeps its own."""
        g = make_dataset("wiki-talk", scale=0.05, seed=23)
        delta = max(1, g.time_span // 25)
        shared = FamilyStreamEngine()
        narrow = shared.add_slot(Slot(M1, delta))
        shared.add_slot(Slot(PING_PONG, 2**63 - 1))
        alone = MotifStreamEngine(M1, delta)
        buffer = StreamBuffer(delta)
        for s, d, t in zip(g.src.tolist(), g.dst.tolist(), g.ts.tolist()):
            _, t_adj = buffer.append(s, d, t)
            shared.step(s, d, t_adj)
            alone.advance(s, d, t_adj)
            branch = [
                p for p in partials(shared)
                if p.t_limit - p.root.time == delta
            ]
            assert all(p.root.time >= t_adj - delta for p in branch)
            assert sorted((p.root.time, p.m2g) for p in branch) == sorted(
                (p.root.time, p.m2g) for p in partials(alone)
            )
        assert narrow.count == alone.count > 0
        assert any(
            p.root.time < t_adj - delta for p in partials(shared)
        ), "the saturating slot kept nothing past the narrow window (weak test)"

    def test_removing_a_slot_requeues_partials_under_the_new_bounds(self):
        """M1 and M2 at δ share one band; removing M2 at δ leaves M2's
        branch to M2 at δ/2, a narrower band.  From the next edge on the
        engine must hold exactly the partials, with the same limits, and
        complete exactly the matches of an engine that never had the
        removed slot."""
        g = make_dataset("wiki-talk", scale=0.05, seed=23)
        delta = max(2, g.time_span // 25)
        plan = [(M1, delta), (M2, delta), (M2, delta // 2)]
        buffer = StreamBuffer(delta)
        edges = [
            (s, d, buffer.append(s, d, t)[1])
            for s, d, t in zip(g.src.tolist(), g.dst.tolist(), g.ts.tolist())
        ]
        shared, survivors = FamilyStreamEngine(), FamilyStreamEngine()
        slots = [shared.add_slot(Slot(m, dl)) for m, dl in plan]
        kept = [survivors.add_slot(Slot(m, dl)) for m, dl in plan if
                (m, dl) != (M2, delta)]
        cut = len(edges) // 2
        for i, edge in enumerate(edges):
            if i == cut:
                shared.remove_slot(slots[1])
                assert shared.slots == [slots[0], slots[2]]
            shared.step(*edge)
            survivors.step(*edge)
            if i < cut:
                continue
            assert [shared.completed.count(s) for s in (slots[0], slots[2])] \
                == [survivors.completed.count(s) for s in kept]
            assert sorted(
                (p.root.time, p.t_limit, p.m2g) for p in partials(shared)
            ) == sorted(
                (p.root.time, p.t_limit, p.m2g) for p in partials(survivors)
            )
            assert shared.live_partials == survivors.live_partials
        assert kept[1].count > 0, "M2 at δ/2 never matched (weak test)"

    def test_peak_live_partials_far_below_total_partials_created(self):
        g = make_dataset("wiki-talk", scale=0.05, seed=23)
        delta = max(1, g.time_span // 25)
        counter = StreamingCounter(M1, delta)
        counter.add_batch(
            zip(g.src.tolist(), g.dst.tolist(), g.ts.tolist())
        )
        created = counter.evicted_partials + counter.live_partials
        # Eviction keeps the resident set a small fraction of all
        # partials ever created on a long bursty stream.
        assert counter.peak_live_partials < created / 2

    def test_window_ring_tracks_delta(self):
        counter = StreamingCounter(M1, delta=10)
        for t in range(0, 100, 5):
            counter.add_edge(t % 3, (t + 1) % 3, t)
            ts = counter.buffer.snapshot().ts
            window = ts[len(ts) - counter.buffer.window_size:]
            assert (window >= counter.buffer.t_now - 10).all()
        assert counter.buffer.window_size == 3  # t, t-5, t-10 inclusive
