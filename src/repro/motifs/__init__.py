"""Temporal motif representation and the paper's evaluation catalog."""
