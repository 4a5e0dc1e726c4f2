"""Log-sum-exp surrogate of the max: SM_eps(x) = ln(sum_i e^(eps*x_i)) / eps.

Dominates the max exactly, overshoots by at most ln(d)/eps, and its gradient
(the softmax weights) never decays by more than e^(-eps*||y||_inf) when the
input grows by y, with no slack term.
"""

from __future__ import annotations

import math

import numpy as np

from ..norms import NormSpec, linf
from .base import ApproxMeta, GradStableApprox

__all__ = ["SoftmaxApprox", "softmax_approx"]


class SoftmaxApprox(GradStableApprox):
    def __init__(self, dim: int, epsilon: float):
        if epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.epsilon = epsilon
        self.meta = ApproxMeta(
            epsilon=epsilon, delta=0.0, alpha=1.0, gamma=math.log(dim)
        )

    def value(self, x) -> float:
        z = self.epsilon * self._vec(x)
        m = z.max()
        return float((m + np.log(np.exp(z - m).sum())) / self.epsilon)

    def gradient(self, x) -> np.ndarray:
        return self.value_and_grad(x)[1]

    def value_and_grad(self, x) -> tuple[float, np.ndarray]:
        z = self.epsilon * self._vec(x)
        m = z.max()
        e = np.exp(z - m)
        s = e.sum()
        return float((m + np.log(s)) / self.epsilon), e / s

    def norm_spec(self) -> NormSpec:
        return linf(self.dim)

    def __repr__(self):
        return f"SoftmaxApprox(dim={self.dim}, epsilon={self.epsilon:g})"


def softmax_approx(dim: int, epsilon: float) -> SoftmaxApprox:
    return SoftmaxApprox(dim, epsilon)
