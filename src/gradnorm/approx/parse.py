"""CLI/config grammar for surrogate builders.

    softmax | slp:<p> | gstopk:<k> | sym | nested:<r>

``sym`` derives its structure from the target norm's ones profile, ``nested``
needs the per-resource inner norms and the machine count.  Epsilon, sample
count and seed are orthogonal knobs supplied by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..norms import NormParseError, NormSpec, normalize_spec, ones_profile
from .base import GradStableApprox
from .compose import build_nested_max_approx, build_symmetric_approx
from .shifted_lp import ShiftedLpApprox
from .softmax import SoftmaxApprox
from .topk import TopKApprox

__all__ = ["ApproxSpec", "parse_approx_spec", "build_approx"]


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
        if p < 1.0:
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
    spec: ApproxSpec | str,
    dim: int,
    epsilon: float,
    samples: int = 2000,
    seed: int = 0,
    norm: NormSpec | None = None,
    inner_norms: list[NormSpec] | None = None,
    machines: int | None = None,
) -> GradStableApprox:
    """Instantiate a surrogate for the given context.

    ``norm`` is required for ``sym`` (its ones profile drives the build);
    ``inner_norms`` and ``machines`` are required for ``nested``.
    """
    if isinstance(spec, str):
        spec = parse_approx_spec(spec)
    if spec.kind == "softmax":
        return SoftmaxApprox(dim, epsilon)
    if spec.kind == "slp":
        return ShiftedLpApprox(dim, spec.p, epsilon)
    if spec.kind == "gstopk":
        return TopKApprox(dim, spec.k, epsilon, samples=samples, seed=seed)
    if spec.kind == "sym":
        if norm is None:
            raise ValueError("sym surrogate needs the target norm spec")
        target = normalize_spec(norm)
        return build_symmetric_approx(
            ones_profile(target), epsilon, samples=samples, seed=seed, norm=target
        )
    if spec.kind == "nested":
        if inner_norms is None or machines is None:
            raise ValueError("nested surrogate needs inner norms and the machine count")
        if len(inner_norms) != spec.r:
            raise ValueError(f"expected {spec.r} inner norms, got {len(inner_norms)}")
        if dim != machines * spec.r:
            raise ValueError(f"nested dim must be machines*r = {machines * spec.r}, got {dim}")
        inners = [normalize_spec(s) for s in inner_norms]
        profiles = [ones_profile(s) for s in inners]
        if all(s.kind in ("lp", "linf") for s in inners):
            exponents = [math.inf if s.kind == "linf" else s.p for s in inners]
            return build_nested_max_approx(
                profiles, machines, epsilon, samples=samples, seed=seed,
                inner_norms=inners, lp_exponents=exponents,
            )
        return build_nested_max_approx(
            profiles, machines, epsilon, samples=samples, seed=seed, inner_norms=inners
        )
    raise ValueError(f"unknown surrogate kind {spec.kind!r}")
