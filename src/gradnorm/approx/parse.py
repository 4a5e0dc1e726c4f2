"""CLI/config grammar for surrogate builders.

    softmax | slp:<p> | gstopk:<k> | sym | nested:<r>

Every surrogate is built from its normalized target norms alone, and the
builders in ``compose`` derive every structural choice from them.  Epsilon,
sample count and seed are orthogonal knobs supplied by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..norms import NormParseError, NormSpec
from .base import GradStableApprox
from .compose import build_nested_max_approx, build_symmetric_approx
from .shifted_lp import ShiftedLpApprox
from .softmax import SoftmaxApprox
from .topk import TopKApprox

__all__ = ["ApproxSpec", "parse_approx_spec", "build_approx"]

NOISE_CAP = 100_000_000  # top-k noise floats per build: 1.2 GB with their float32 copies


@dataclass(frozen=True)
class ApproxSpec:
    kind: str  # "softmax" | "slp" | "gstopk" | "sym" | "nested"
    p: float | None = None
    k: int | None = None
    r: int | None = None


def parse_approx_spec(text: str) -> ApproxSpec:
    head, sep, rest = text.partition(":")
    if head == "softmax" and not sep:
        return ApproxSpec("softmax")
    if head == "sym" and not sep:
        return ApproxSpec("sym")
    if head == "slp":
        try:
            p = math.inf if rest == "inf" else float(rest)
        except ValueError:
            raise NormParseError(text, len(head) + 1, "a real exponent") from None
        if not p >= 1.0:  # NaN compares false
            raise NormParseError(text, len(head) + 1, "p >= 1")
        return ApproxSpec("slp", p=p)
    if head == "gstopk":
        try:
            k = int(rest)
        except ValueError:
            raise NormParseError(text, len(head) + 1, "an integer rank") from None
        return ApproxSpec("gstopk", k=k)
    if head == "nested":
        try:
            r = int(rest)
        except ValueError:
            raise NormParseError(text, len(head) + 1, "an integer resource count") from None
        return ApproxSpec("nested", r=r)
    raise NormParseError(text, 0, "one of softmax|slp|gstopk|sym|nested")


def build_approx(
    spec: ApproxSpec | str, norms: list[NormSpec], epsilon: float, samples: int = 2000, seed: int = 0
) -> GradStableApprox:
    """The surrogate ``spec`` of the normalized ``norms``: the target norm
    alone, or the inner norms of a vector-scheduling instance in
    resource-major order.  Its dimension is the sum of theirs."""
    if isinstance(spec, str):
        spec = parse_approx_spec(spec)
    dim = sum(s.dim for s in norms)
    if spec.kind in ("gstopk", "sym", "nested"):
        # S*d noise floats per top-k leaf: one leaf for gstopk, at most one per
        # dyadic rank of each norm for sym and nested
        per_sample = dim if spec.kind == "gstopk" else sum(s.dim * s.dim.bit_length() for s in norms)
        if samples * per_sample > NOISE_CAP:
            raise ValueError(f"samples={samples} would draw {samples * per_sample} top-k noise "
                             f"floats, more than the cap of {NOISE_CAP}")
    if spec.kind == "softmax":
        return SoftmaxApprox(dim, epsilon)
    if spec.kind == "slp":
        return ShiftedLpApprox(dim, spec.p, epsilon)
    if spec.kind == "gstopk":
        return TopKApprox(dim, spec.k, epsilon, samples=samples, seed=seed)
    if spec.kind == "sym":
        if len(norms) != 1:
            raise ValueError(f"sym surrogate needs a single norm, got {len(norms)}")
        return build_symmetric_approx(norms[0], epsilon, samples=samples, seed=seed)
    if spec.kind == "nested":
        if len(norms) != spec.r:
            raise ValueError(f"expected {spec.r} inner norms, got {len(norms)}")
        return build_nested_max_approx(norms, epsilon, samples=samples, seed=seed)
    raise ValueError(f"unknown surrogate kind {spec.kind!r}")
