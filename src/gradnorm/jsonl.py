"""Checked records of the JSON-lines instance files.

Line 0 of a file is its header and lines 1, 2, ... its rows, counted without
blank lines.  Every line must hold a JSON object; a line that does not, a
missing key or an entry that is not an array of numbers raises ValueError
naming the file, the line and the key.
"""

from __future__ import annotations

import numpy as np

__all__ = ["record", "number_array"]


def _where(path: str, line: int) -> str:
    return f"{path}: " + ("the header" if line == 0 else f"row {line}")


def record(obj, keys: tuple[str, ...], path: str, line: int) -> dict:
    """``obj``, a parsed line, checked to be an object holding ``keys``."""
    if type(obj) is not dict:
        raise ValueError(f"{_where(path, line)} must be a JSON object, got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{_where(path, line)} has no key {key!r}")
    return obj


def number_array(obj, key: str, path: str, line: int, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """``obj[key]`` of a parsed line as a float array, of ``shape`` unless that
    is None; ``obj`` is checked by ``record`` only when the lookup fails."""
    try:
        a = np.asarray(obj[key], dtype=float)
    except (KeyError, TypeError, ValueError):
        record(obj, (key,), path, line)
        raise ValueError(f"{_where(path, line)}: {key!r} is not an array of numbers") from None
    if shape is not None and a.shape != shape:
        raise ValueError(f"{_where(path, line)}: {key!r} must have shape {shape}, got {a.shape}")
    return a
