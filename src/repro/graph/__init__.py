"""Temporal graph substrate: data structures, loaders, generators, stats."""
