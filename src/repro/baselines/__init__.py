"""Calibrated timing models for the paper's baseline platforms (§VII-B/D).

The paper compares Mint against software running on a dual-socket AMD
EPYC 7742 server and an NVIDIA RTX 2080 Ti, and against a modeled
FlexMiner static-mining accelerator.  We cannot run those platforms, so
each is replaced by an analytic timing model that consumes *measured*
operation counters from instrumented runs of our own algorithm
implementations.  Relative shapes across datasets/motifs therefore come
from real algorithm behaviour; absolute scale is set by documented,
physically-motivated cost constants.
"""
