"""Software temporal motif mining algorithms.

- :mod:`repro.mining.mackey` — the Mackey et al. exact chronological
  edge-driven DFS miner (paper Algorithm 1), with optional search index
  memoization (§VI-A) for the "CPU w/ memoization" baseline.
- :mod:`repro.mining.batched` — one motif on the vectorised family
  engine (:mod:`repro.comine.engine`): byte-identical counts/counters
  to the Mackey miner with the per-candidate Python loop replaced by
  numpy frontiers and binary-searched windows (the software analogue
  of Mint's search engine).
- :mod:`repro.mining.bruteforce` — the §II-A definition, enumerated
  exhaustively: the oracle that checks the Mackey miner on small graphs.
- :mod:`repro.mining.context` — the per-search-tree task context of the
  paper's programming model (§IV-B), the functional state the
  simulator's walker (:mod:`repro.sim.walker`) runs on.
- :mod:`repro.mining.static_mining` — static subgraph enumeration
  substrate used by the Paranjape baseline and the FlexMiner model.
- :mod:`repro.mining.paranjape` — static-first exact baseline.
- :mod:`repro.mining.presto` — PRESTO-style uniform window sampling
  approximate counting.
"""
