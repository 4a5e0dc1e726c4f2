"""Gradient-stable surrogates of monotone norms."""

from .base import ApproxMeta, GradStableApprox
from .compose import (
    Leaf,
    Outer,
    build_nested_max_approx,
    build_symmetric_approx,
)
from .parse import ApproxSpec, build_approx, parse_approx_spec
from .shifted_lp import ShiftedLpApprox
from .softmax import SoftmaxApprox
from .topk import TopKApprox

__all__ = [
    "ApproxMeta",
    "GradStableApprox",
    "SoftmaxApprox",
    "ShiftedLpApprox",
    "TopKApprox",
    "Leaf",
    "Outer",
    "build_symmetric_approx",
    "build_nested_max_approx",
    "ApproxSpec",
    "parse_approx_spec",
    "build_approx",
]
