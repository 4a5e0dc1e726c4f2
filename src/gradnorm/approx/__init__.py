"""Gradient-stable surrogates of monotone norms."""

from .base import ApproxMeta, GradStableApprox
from .compose import (
    Leaf,
    Outer,
    build_nested_max_approx,
    build_symmetric_approx,
)
from .parse import ApproxSpec, build_approx, parse_approx_spec
from .shifted_lp import ShiftedLpApprox, shifted_lp_approx
from .softmax import SoftmaxApprox, softmax_approx
from .topk import TopKApprox, TopKConfig, gs_topk_approx

__all__ = [
    "ApproxMeta",
    "GradStableApprox",
    "SoftmaxApprox",
    "softmax_approx",
    "ShiftedLpApprox",
    "shifted_lp_approx",
    "TopKApprox",
    "TopKConfig",
    "gs_topk_approx",
    "Leaf",
    "Outer",
    "build_symmetric_approx",
    "build_nested_max_approx",
    "ApproxSpec",
    "parse_approx_spec",
    "build_approx",
]
