"""Reproduction of *Mint: An Accelerator For Mining Temporal Motifs* (MICRO 2022).

The package is organized by subsystem:

- :mod:`repro.graph` — temporal graph data structures, loaders, synthetic
  dataset generators and statistics (paper §II-D, Table I).
- :mod:`repro.motifs` — temporal motif representation and the M1–M4
  catalog used in the paper's evaluation (Fig. 9).
- :mod:`repro.mining` — software mining algorithms: the Mackey et al.
  exact miner (Algorithm 1) with search index memoization (§VI-A), the
  vectorised family walker every census and query runs on, a
  brute-force oracle, the Paranjape et al. baseline and the PRESTO
  approximate miner.
- :mod:`repro.sim` — the Mint accelerator cycle-level simulator (§V),
  which runs the task-centric programming model (§IV): task queue,
  context memory, context manager, dispatcher, two-phase search engine,
  multi-banked cache with MSHRs and a DDR4 DRAM model.
- :mod:`repro.baselines` — calibrated CPU/GPU/FlexMiner timing models
  used for the paper's speedup comparisons (§VII-B, §VII-D).
- :mod:`repro.analysis` — experiment orchestration for every table and
  figure, area/power modeling (Fig. 14) and reporting helpers.
- :mod:`repro.streaming` — incremental sliding-window motif counting
  over live edge streams, with the batch miners as differential oracle
  (an online-workload extension beyond the paper).

The names in ``__all__`` load on first use (PEP 562): ``import repro``
imports no subsystem, so each entry point pays only for the modules it
runs, and ``from repro import MintSimulator`` loads the simulator and
nothing else.
"""

__version__ = "1.0.0"

__all__ = [
    "TemporalEdge",
    "TemporalGraph",
    "Motif",
    "M1",
    "M2",
    "M3",
    "M4",
    "motif_by_name",
    "MackeyMiner",
    "count_motifs",
    "PrestoEstimator",
    "ParanjapeMiner",
    "MintConfig",
    "MintSimulator",
    "StreamingCatalogCounter",
    "StreamingCounter",
    "__version__",
]


def __getattr__(name: str):
    if name in ("TemporalEdge", "TemporalGraph"):
        from repro.graph.temporal_graph import TemporalEdge, TemporalGraph
    elif name == "Motif":
        from repro.motifs.motif import Motif
    elif name in ("M1", "M2", "M3", "M4", "motif_by_name"):
        from repro.motifs.catalog import M1, M2, M3, M4, motif_by_name
    elif name in ("MackeyMiner", "count_motifs"):
        from repro.mining.mackey import MackeyMiner, count_motifs
    elif name == "PrestoEstimator":
        from repro.mining.presto import PrestoEstimator
    elif name == "ParanjapeMiner":
        from repro.mining.paranjape import ParanjapeMiner
    elif name == "MintConfig":
        from repro.sim.config import MintConfig
    elif name == "MintSimulator":
        from repro.sim.accelerator import MintSimulator
    elif name in ("StreamingCatalogCounter", "StreamingCounter"):
        from repro.streaming.counter import (
            StreamingCatalogCounter,
            StreamingCounter,
        )
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Bind everything this branch imported, so later lookups of these
    # names never come back here.
    loaded = {k: v for k, v in locals().items() if k in __all__}
    globals().update(loaded)
    return loaded[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
