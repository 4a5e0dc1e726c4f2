"""Property-based tests of the norm grammar and the norm axioms (hypothesis)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from gradnorm.norms import (  # noqa: E402
    eval_norm,
    format_norm_spec,
    linf,
    lp,
    norm_subgradient,
    normalize_spec,
    ordered,
    parse_norm_spec,
    topk,
)

# Fixed examples and no example database: every run tests the same inputs.
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

dims = st.integers(1, 12)
real_p = st.floats(1.0, 64.0).map(lambda p: f"{p:g}").filter(lambda s: s != "1")


@st.composite
def canonical_specs(draw):
    """(text, dim) pairs in the form ``format_norm_spec`` writes."""
    d = draw(dims)
    kind = draw(st.sampled_from(["linf", "l1", "lp", "lp:inf", "topk", "ordered", "orlicz"]))
    if kind == "lp":
        return f"lp:{draw(real_p)}", d
    if kind == "topk":
        return f"topk:{draw(st.integers(1, d))}", d
    if kind == "ordered":
        head = draw(st.floats(1e-3, 1e3))
        tail = draw(st.lists(st.floats(0.0, 1.0), min_size=d - 1, max_size=d - 1))
        weights = [head, *sorted((head * t for t in tail), reverse=True)]
        return "ordered:" + ",".join(f"{w:g}" for w in weights), d
    if kind == "orlicz":
        return f"orlicz:pow:{draw(real_p)}", d
    return kind, d


@PROPERTY
@given(canonical_specs())
def test_format_inverts_parse(case):
    text, d = case
    spec = parse_norm_spec(text, dim=d)
    assert spec.dim == d
    assert format_norm_spec(spec) == text


@st.composite
def norm_and_vectors(draw):
    """A normalized linf, lp, topk or ordered norm and two non-negative vectors."""
    d = draw(dims)
    kind = draw(st.sampled_from(["linf", "lp", "topk", "ordered"]))
    if kind == "linf":
        spec = linf(d)
    elif kind == "lp":
        spec = lp(d, draw(st.one_of(st.floats(1.0, 64.0), st.just(np.inf))))
    elif kind == "topk":
        spec = topk(d, draw(st.integers(1, d)))
    else:
        tail = draw(st.lists(st.floats(0.0, 1.0), min_size=d - 1, max_size=d - 1))
        spec = ordered([1.0, *sorted(tail, reverse=True)])
    coords = st.floats(0.0, 1e6, allow_subnormal=False)
    x, y = (draw(arrays(np.float64, d, elements=coords)) for _ in range(2))
    return normalize_spec(spec), x, y


def slack(*values):
    return 1e-12 * sum(values) + 1e-300


@PROPERTY
@given(norm_and_vectors())
def test_monotone(case):
    spec, x, y = case
    assert eval_norm(spec, x + y) >= eval_norm(spec, x) - slack(eval_norm(spec, x))


@PROPERTY
@given(norm_and_vectors(), st.floats(1e-3, 1e3))
def test_homogeneous(case, c):
    spec, x, _ = case
    nx = eval_norm(spec, x)
    assert abs(eval_norm(spec, c * x) - c * nx) <= 1e3 * slack(c * nx)


@PROPERTY
@given(norm_and_vectors())
def test_subadditive(case):
    spec, x, y = case
    nx, ny = eval_norm(spec, x), eval_norm(spec, y)
    assert eval_norm(spec, x + y) <= nx + ny + slack(nx, ny)


@PROPERTY
@given(norm_and_vectors())
def test_subgradient_is_a_dual_maximizer(case):
    """u >= 0 attains ||x|| at x, and its dual norm <= 1 keeps <u, y> <= ||y||."""
    spec, x, y = case
    u = norm_subgradient(spec, x)
    nx, ny = eval_norm(spec, x), eval_norm(spec, y)
    assert (u >= 0).all()
    assert abs(u @ x - nx) <= 1e3 * slack(nx)
    assert u @ y <= ny + 1e3 * slack(ny)
