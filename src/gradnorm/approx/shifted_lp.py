"""Shifted l-p surrogate: value(x) = (||x||_q^q + c^q)^(1/q).

The exponent is capped at q = min(p, 1 + ln(dim)) and the shift is
c = (q-1)/epsilon.  The construction sandwiches the l-q norm within an
additive (q-1)/epsilon, and the shift keeps the gradient from collapsing:
the decay factor is at least e^(-epsilon*||y||_q) with no extra slack
(declared delta = 0, comfortably inside the 1/4 budget).
"""

from __future__ import annotations

import math

import numpy as np

from ..norms import NormSpec, lp
from .base import ApproxMeta, GradStableApprox

__all__ = ["ShiftedLpApprox"]


class ShiftedLpApprox(GradStableApprox):
    def __init__(self, dim: int, p: float, epsilon: float):
        if not p >= 1.0:  # NaN compares false
            raise ValueError(f"p must be >= 1 (or inf), got {p}")
        if epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.p = p
        self.q = min(p, 1.0 + math.log(dim))
        self.epsilon = epsilon
        self.shift = (self.q - 1.0) / epsilon
        self.meta = ApproxMeta(epsilon=epsilon, delta=0.0, alpha=1.0, gamma=self.q - 1.0)

    def value(self, x) -> float:
        v = self._vec(x)
        if self.q == 1.0:
            return float(v.sum())
        peak = max(float(v.max()), self.shift)
        if peak == 0.0:
            return 0.0
        s = ((v / peak) ** self.q).sum() + (self.shift / peak) ** self.q
        return float(peak * s ** (1.0 / self.q))

    def gradient(self, x) -> np.ndarray:
        return self.value_and_grad(x)[1]

    def value_and_grad(self, x) -> tuple[float, np.ndarray]:
        v = self._vec(x)
        val = self.value(v)
        if self.q == 1.0:
            return val, np.ones(self.dim)
        if val == 0.0:
            # only possible when shift == 0 (q == 1 handled above); keep safe
            return val, np.zeros(self.dim)
        return val, (v / val) ** (self.q - 1.0)

    def norm_spec(self) -> NormSpec:
        return lp(self.dim, self.q)

    def __repr__(self):
        return (
            f"ShiftedLpApprox(dim={self.dim}, p={self.p:g}, q={self.q:g}, "
            f"epsilon={self.epsilon:g})"
        )
