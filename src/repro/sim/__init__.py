"""Mint accelerator cycle-level simulator (paper §V, §VII-C).

The simulator follows the paper's two-phase methodology in spirit:
component latencies come from the paper's RTL-derived numbers (Table II:
1.6 GHz clock, 1-cycle task dequeue, 2-cycle context memory and cache
bank access, 8-channel DDR4-3200), and end-to-end performance is
estimated by a discrete-event engine that models task queue dispatch,
per-PE context/dispatch/search flow, multi-banked caches with MSHRs and
port contention, and DRAM channel/bank/row-buffer timing.

Functional behaviour is decoupled from timing: :mod:`repro.sim.walker`
replays the exact mining algorithm per root task as a typed stream of
context operations and memory accesses, so the simulator's motif counts
are bit-identical to the software reference by construction (enforced by
tests), while the timing engine charges cycles for every event.
"""
