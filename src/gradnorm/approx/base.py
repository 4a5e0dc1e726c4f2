"""Common interface for gradient-stable norm surrogates.

A surrogate is a monotone, subadditive, convex function on R_+^d together
with declared error metadata: it must dominate ``lower_scale * ||x||``,
stay below ``alpha * ||x|| + gamma / epsilon``, and its gradient may shrink
coordinate-wise by at most ``exp(-stability_scale * epsilon * ||y|| - delta)``
when the input grows by ``y``.  The verify module checks all declared values
empirically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..norms import NormSpec, NormSpecError

__all__ = ["ApproxMeta", "GradStableApprox"]


@dataclass(frozen=True)
class ApproxMeta:
    epsilon: float  # scale parameter of the construction
    delta: float  # stability slack in the gradient inequality
    alpha: float  # multiplicative error of the upper sandwich
    gamma: float  # additive error coefficient (additive term is gamma/epsilon)
    stochastic: bool = False
    seed: int | None = None
    # exp(-stability_scale * epsilon * ||y|| - delta) is the declared gradient
    # decay; 1.0 for the closed-form surrogates, > 1 for compositions whose
    # bookkeeping accumulates scale factors.
    stability_scale: float = 1.0
    # the sandwich lower bound is lower_scale * ||x|| <= value(x); 1.0 except
    # for the raw perturbed top-k estimator, which undershoots by a constant.
    lower_scale: float = 1.0


class GradStableApprox:
    """Value/gradient pair with declared error metadata.

    Subclasses fix ``dim``, ``meta`` and the norm they approximate, and are
    immutable after construction: all evaluations are pure and reuse any
    frozen Monte-Carlo sample set (common random numbers).
    """

    dim: int
    meta: ApproxMeta
    # bound on [value(x+y) - value(x)] / ||y|| in units of the approximated
    # norm; exact for the closed forms, per-sample for the Monte-Carlo ones
    growth_bound: float = 1.0

    def value(self, x) -> float:
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        raise NotImplementedError

    def value_and_grad(self, x) -> tuple[float, np.ndarray]:
        """``(value(x), gradient(x))``; overridden where the two share work."""
        return self.value(x), self.gradient(x)

    def value_stats(self, x) -> tuple[float, float]:
        """(value, standard error); 0.0 except for Monte-Carlo estimators."""
        return self.value(x), 0.0

    def norm_spec(self) -> NormSpec:
        """The norm this surrogate approximates (used in verification)."""
        raise NotImplementedError

    def pair_margin_stats(self, x, y, w1: float, w0: float) -> tuple[np.ndarray, np.ndarray]:
        """Mean and standard error of w1 * grad(x+y) - w0 * grad(x) per coordinate.

        Deterministic surrogates have zero standard error; stochastic ones
        override this with a paired Monte-Carlo estimate on shared samples.
        """
        x = self._vec(x)
        y = self._vec(y)
        mean = w1 * self.gradient(x + y) - w0 * self.gradient(x)
        return mean, np.zeros(self.dim)

    def _vec(self, x) -> np.ndarray:
        v = np.asarray(x, dtype=float)
        if v.ndim != 1 or v.shape[0] != self.dim:
            raise NormSpecError(f"expected vector of dim {self.dim}, got shape {v.shape}")
        return v
