"""repro.live — live edge ingestion and standing motif subscriptions.

Turns the serving layer from request/response into ingest/notify:
clients append edge batches to named mutable graphs
(:class:`~repro.live.ingest.LiveGraph`), register standing motif
queries (:class:`~repro.live.subscriptions.Subscription`, views over
one :class:`~repro.live.subscriptions.SharedCounter` slot per distinct
(motif, δ), in one shared stream engine per attach position, and one
:class:`~repro.live.subscriptions.EventGroup` per distinct query) and
receive pushed events — per-window updates and threshold alerts —
through bounded at-least-once outboxes
(:class:`~repro.live.outbox.Outbox`, views of their group's event log).
Every live firing is checkable byte-for-byte against an offline
``repro.streaming`` replay (:mod:`repro.live.oracle`).
"""
