"""Helpers that only the tests use."""

from __future__ import annotations

from typing import Callable

import numpy as np


def finite_diff_grad(f: Callable[[np.ndarray], float], x, h: float) -> np.ndarray:
    """Central differences, one-sided at the boundary of the orthant."""
    if h <= 0.0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        step = np.zeros_like(x)
        step[i] = h
        if x[i] >= h:
            g[i] = (f(x + step) - f(x - step)) / (2.0 * h)
        else:
            g[i] = (f(x + step) - f(x)) / h
    return g


def mean_rank(tk) -> float:
    """The mean sampled rank K of a perturbed top-k surrogate."""
    return float(tk.ranks.mean())
