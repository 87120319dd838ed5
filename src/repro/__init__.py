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
"""

from repro.graph.temporal_graph import TemporalEdge, TemporalGraph
from repro.motifs.motif import Motif
from repro.motifs.catalog import M1, M2, M3, M4, motif_by_name
from repro.mining.mackey import MackeyMiner, count_motifs
from repro.mining.presto import PrestoEstimator
from repro.mining.paranjape import ParanjapeMiner
from repro.sim.config import MintConfig
from repro.sim.accelerator import MintSimulator
from repro.streaming.counter import (
    StreamingCatalogCounter,
    StreamingCounter,
)

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
