"""Dependency-free ASCII charts for experiment output.

The paper's figures are line/bar charts; rendering them as text keeps
the harness free of plotting dependencies while still letting a human
eyeball the *shapes* (decay of Fig. 7, saturation of Fig. 2, bar heights
of Figs. 10-12) directly in `benchmarks/results/`.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: Optional[int] = None) -> str:
    """A one-line sparkline of ``values`` (downsampled to ``width``)."""
    vals = [float(v) for v in values]
    if not vals:
        return ""
    if width is not None and len(vals) > width > 0:
        stride = len(vals) / width
        vals = [vals[int(i * stride)] for i in range(width)]
    lo, hi = min(vals), max(vals)
    span = hi - lo
    if span == 0:
        return _SPARK_LEVELS[0] * len(vals)
    out = []
    for v in vals:
        idx = int((v - lo) / span * (len(_SPARK_LEVELS) - 1))
        out.append(_SPARK_LEVELS[idx])
    return "".join(out)


def bar_chart(
    items: Mapping[str, float],
    width: int = 40,
    log_scale: bool = False,
    unit: str = "",
) -> str:
    """A horizontal bar chart; one row per labelled value.

    ``log_scale`` renders bar lengths on log10 — the right choice for the
    paper's speedup figures, whose y-axes span four decades.
    """
    if not items:
        return "(empty)"
    labels = list(items)
    values = [float(items[k]) for k in labels]
    if log_scale:
        if any(v <= 0 for v in values):
            raise ValueError("log-scale bars require positive values")
        scaled = [math.log10(v) for v in values]
        floor = min(0.0, min(scaled))
        scaled = [s - floor for s in scaled]
    else:
        scaled = [max(0.0, v) for v in values]
    peak = max(scaled) or 1.0
    label_w = max(len(l) for l in labels)
    lines = []
    for label, value, s in zip(labels, values, scaled):
        bar = "#" * max(1, int(round(s / peak * width)))
        lines.append(f"{label.ljust(label_w)} | {bar} {value:g}{unit}")
    return "\n".join(lines)
