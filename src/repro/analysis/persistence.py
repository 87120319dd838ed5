"""Persist experiment results as JSON.

The benchmark harness renders tables for humans; this module stores the
underlying numbers (``repro experiment all --out``) so runs can be
archived and read back with ``json``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Mapping, Optional, Union

PathLike = Union[str, Path]

SCHEMA_VERSION = 1


class PersistenceError(ValueError):
    """Raised for a value that cannot be archived."""


def _jsonable(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    raise PersistenceError(f"cannot serialize {type(value).__name__}")


def save_run(
    path: PathLike,
    metrics: Mapping[str, Any],
    metadata: Optional[Mapping[str, Any]] = None,
) -> None:
    """Archive a flat-or-nested mapping of experiment metrics as JSON."""
    payload = {
        "schema": SCHEMA_VERSION,
        "metadata": _jsonable(metadata or {}),
        "metrics": _jsonable(metrics),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
