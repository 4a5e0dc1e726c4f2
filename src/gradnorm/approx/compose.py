"""Composition of gradient-stable surrogates, and the two standard builds.

``Leaf`` applies an inner surrogate to a coordinate subset and multiplies by
a positive scale; ``Outer`` feeds the vector of child values through an outer
surrogate (typically a log-sum-exp).  Values compose by evaluation, gradients
by the chain rule, and the declared stability/error metadata accumulates
conservatively across levels.

Both builds take normalized norm specs alone.  ``build_symmetric_approx``
covers any monotone symmetric norm through its ones-vector profile: one
perturbed top-k leaf per dyadic rank 2^j, each leaf scaled so the smoothed
maximum of the leaves dominates the norm itself and overshoots by at most
O(log d) multiplicative plus O(log^2 d)/epsilon additive error.
``build_nested_max_approx`` stacks per-resource surrogates under one more
smoothed maximum: shifted l-p leaves when every inner norm is l-p or linf,
symmetric builds otherwise.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from ..norms import NormSpec, ones_profile
from ..seeding import derive_seed
from .base import ApproxMeta, GradStableApprox
from .shifted_lp import ShiftedLpApprox
from .softmax import SoftmaxApprox
from .topk import TopKApprox

__all__ = [
    "Leaf",
    "Outer",
    "build_symmetric_approx",
    "build_nested_max_approx",
]


class Leaf(GradStableApprox):
    """scale * inner(x[subset]), scattered back to the full coordinate space."""

    def __init__(
        self,
        inner: GradStableApprox,
        dim: int | None = None,
        subset: np.ndarray | None = None,
        scale: float = 1.0,
    ):
        if scale <= 0.0:
            raise ValueError(f"leaf scale must be positive, got {scale}")
        if subset is None:
            self.subset = None
            self.dim = inner.dim if dim is None else dim
            if self.dim != inner.dim:
                raise ValueError("leaf without subset must match the inner dimension")
        else:
            self.subset = np.asarray(subset, dtype=np.intp)
            self.dim = dim if dim is not None else int(self.subset.max()) + 1
            if self.subset.ndim != 1 or len(self.subset) != inner.dim:
                raise ValueError("subset size must equal the inner dimension")
            if self.subset.min() < 0 or self.subset.max() >= self.dim:
                raise ValueError("subset indices out of range")
        self.inner = inner
        self.scale = scale
        self.meta = replace(inner.meta, gamma=scale * inner.meta.gamma)

    def _slice(self, x) -> np.ndarray:
        v = self._vec(x)
        return v if self.subset is None else v[self.subset]

    def value(self, x) -> float:
        return self.scale * self.inner.value(self._slice(x))

    def gradient(self, x) -> np.ndarray:
        return self._scatter(self.scale * self.inner.gradient(self._slice(x)))

    def value_and_grad(self, x) -> tuple[float, np.ndarray]:
        v, g = self.inner.value_and_grad(self._slice(x))
        return self.scale * v, self._scatter(self.scale * g)

    def _scatter(self, g: np.ndarray) -> np.ndarray:
        if self.subset is None:
            return g
        out = np.zeros(self.dim)
        out[self.subset] = g
        return out

    def pair_margin_stats(self, x, y, w1: float, w0: float):
        mean, se = self.inner.pair_margin_stats(
            self._slice(x), self._slice(y), w1 * self.scale, w0 * self.scale
        )
        return self._scatter(mean), self._scatter(se)

    def norm_spec(self) -> NormSpec | None:
        spec = self.inner.norm_spec()
        if spec is None or self.scale == 1.0:
            return spec
        return replace(spec, scale=spec.scale / self.scale)

    def __repr__(self):
        sub = "all" if self.subset is None else f"{len(self.subset)} coords"
        return f"Leaf({self.inner!r}, scale={self.scale:g}, subset={sub})"


class Outer(GradStableApprox):
    """outer(child_1(x), ..., child_r(x)) with chain-rule gradients."""

    def __init__(
        self,
        outer: GradStableApprox,
        children: list[GradStableApprox],
        meta: ApproxMeta,
        norm: NormSpec | None = None,
    ):
        if outer.dim != len(children):
            raise ValueError(
                f"outer expects {outer.dim} inner values, got {len(children)} children"
            )
        dims = {c.dim for c in children}
        if len(dims) != 1:
            raise ValueError(f"children disagree on the input dimension: {sorted(dims)}")
        self.outer = outer
        self.children = list(children)
        self.dim = dims.pop()
        self._norm = norm
        self.meta = meta

    def child_values(self, x) -> np.ndarray:
        return np.array([c.value(x) for c in self.children])

    def value(self, x) -> float:
        return self.outer.value(self.child_values(x))

    def gradient(self, x) -> np.ndarray:
        return self.value_and_grad(x)[1]

    def value_and_grad(self, x) -> tuple[float, np.ndarray]:
        """Each child's value and gradient once, then the chain rule over the
        outer weights."""
        children = [c.value_and_grad(x) for c in self.children]
        value, weights = self.outer.value_and_grad(np.array([v for v, _ in children]))
        g = np.zeros(self.dim)
        for w, (_, child_grad) in zip(weights, children):
            if w != 0.0:
                g += w * child_grad
        return value, g

    def pair_margin_stats(self, x, y, w1: float, w0: float):
        x = self._vec(x)
        y = self._vec(y)
        weights0 = self.outer.gradient(self.child_values(x))
        weights1 = self.outer.gradient(self.child_values(x + y))
        mean = np.zeros(self.dim)
        var = np.zeros(self.dim)
        for a1, a0, child in zip(weights1, weights0, self.children):
            m, se = child.pair_margin_stats(x, y, w1 * a1, w0 * a0)
            mean += m
            var += se * se  # child sample sets are independent
        return mean, np.sqrt(var)

    def norm_spec(self) -> NormSpec | None:
        return self._norm

    def __repr__(self):
        return f"Outer({self.outer!r}, children={len(self.children)})"


def _dyadic_block_count(d: int) -> int:
    """Number of dyadic rank blocks {1},{2},{3,4},...: ceil(log2 d) + 1."""
    return (d - 1).bit_length() + 1


def build_symmetric_approx(
    norm: NormSpec, epsilon: float, samples: int = 2000, seed: int = 0
) -> Outer:
    """Gradient-stable surrogate of the normalized symmetric norm ``norm``.

    One perturbed top-(2^j) leaf per dyadic rank, each built at the noise
    scale matching its profile weight c_k/k so that every leaf's gradient
    decay is controlled by the target norm of the increment.  Leaf scales
    carry a calibration factor making scale * leaf(x) >= (c_k/k) * top_k(x)
    hold exactly on the frozen samples, and the whole stack is multiplied by
    the dyadic block count so the smoothed maximum dominates the norm itself.
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    profile = ones_profile(norm)
    d = norm.dim
    blocks = _dyadic_block_count(d)
    levels = d.bit_length() - 1  # floor(log2 d)
    children: list[Leaf] = []
    kappa_terms = []
    for j in range(levels + 1):
        k = 1 << j
        ck = profile.c[k - 1]
        leaf_eps = epsilon * ck / k
        inner = TopKApprox(d, k, leaf_eps, samples=samples, seed=derive_seed(seed, "leaf", j))
        beta = 1.0 / inner.meta.lower_scale
        children.append(Leaf(inner, scale=blocks * beta * ck / k))
        kappa_terms.append(beta * inner.meta.alpha)
    outer = SoftmaxApprox(len(children), epsilon / blocks)
    leaf_zero = [child.value(np.zeros(d)) for child in children]
    meta = ApproxMeta(
        epsilon=epsilon,
        delta=0.25,
        alpha=blocks * max(kappa_terms),
        gamma=epsilon * max(leaf_zero) + blocks * math.log(len(children)),
        stochastic=True,
        stability_scale=1.0 + max(kappa_terms),
    )
    return Outer(outer, children, meta, norm=norm)


def build_nested_max_approx(
    inner_norms: list[NormSpec], epsilon: float, samples: int = 2000, seed: int = 0
) -> GradStableApprox:
    """Surrogate for max-over-resources of the normalized ``inner_norms``.

    Every inner norm has the machine count m as its dimension, and input
    coordinates are resource-major: [i*m, (i+1)*m) holds resource i's loads.
    When every inner norm is l-p or linf (p = inf), resources use shifted
    l-p leaves, whose error is tighter than symmetric builds'.
    A single resource degenerates to the plain per-resource surrogate.
    """
    r = len(inner_norms)
    if r < 1:
        raise ValueError("need at least one inner norm")
    m = inner_norms[0].dim
    if any(s.dim != m for s in inner_norms):
        raise ValueError("every inner norm must have the same dimension")
    lp_leaves = all(s.kind in ("lp", "linf") for s in inner_norms)

    def make_child(spec: NormSpec, child_seed: int) -> GradStableApprox:
        if lp_leaves:
            return ShiftedLpApprox(m, math.inf if spec.kind == "linf" else spec.p, epsilon)
        return build_symmetric_approx(spec, epsilon, samples=samples, seed=child_seed)

    if r == 1:
        return make_child(inner_norms[0], seed)

    children = []
    for i, spec in enumerate(inner_norms):
        child = make_child(spec, derive_seed(seed, "resource", i))
        block = np.arange(i * m, (i + 1) * m)
        children.append(Leaf(child, dim=m * r, subset=block, scale=1.0))
    cms = [c.meta for c in children]
    alpha = max(m_.alpha for m_ in cms)
    outer = SoftmaxApprox(r, epsilon / max(alpha, 1.0))
    meta = ApproxMeta(
        epsilon=epsilon,
        delta=max(m_.delta for m_ in cms),
        alpha=alpha,
        gamma=max(m_.gamma for m_ in cms) + max(alpha, 1.0) * math.log(r),
        stochastic=any(m_.stochastic for m_ in cms),
        stability_scale=1.0 + max(m_.stability_scale for m_ in cms),
    )
    return Outer(outer, children, meta)
