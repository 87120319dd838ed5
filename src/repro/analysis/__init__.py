"""Experiment orchestration, area/power modeling, and reporting."""
