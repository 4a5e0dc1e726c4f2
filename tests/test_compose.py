"""Composition nodes: chain rule, and the symmetric / nested builders."""

import math

import numpy as np
import pytest

from gradnorm.approx import (
    Leaf,
    Outer,
    ShiftedLpApprox,
    SoftmaxApprox,
    TopKApprox,
    build_nested_max_approx,
    build_symmetric_approx,
)
from gradnorm.norms import (
    NormSpecError,
    OnesProfile,
    eval_norm,
    l1,
    linf,
    normalize_spec,
    ones_profile,
    ordered,
    topk,
)
from gradnorm.verify import finite_diff_grad


class TestNodes:
    def test_single_leaf_is_identity(self):
        inner = SoftmaxApprox(6, 1.0)
        leaf = Leaf(inner, scale=1.0)
        rng = np.random.default_rng(0)
        x = rng.exponential(1.0, 6)
        assert leaf.value(x) == inner.value(x)
        np.testing.assert_array_equal(leaf.gradient(x), inner.gradient(x))

    def test_disjoint_linear_blocks(self):
        """Softmax over two l1 leaves: gradient constant within each block."""
        blocks = [np.arange(0, 3), np.arange(3, 6)]
        children = [Leaf(ShiftedLpApprox(3, 1.0, 1.0), dim=6, subset=b) for b in blocks]
        node = Outer(SoftmaxApprox(2, 1.0), children)
        rng = np.random.default_rng(1)
        x = rng.exponential(1.0, 6)
        sums = np.array([x[:3].sum(), x[3:].sum()])
        sm = SoftmaxApprox(2, 1.0)
        assert node.value(x) == pytest.approx(sm.value(sums))
        g = node.gradient(x)
        assert np.ptp(g[:3]) < 1e-12 and np.ptp(g[3:]) < 1e-12
        # each block is linear: its softmax weight appears on all 3 coordinates
        assert g.sum() == pytest.approx(3.0)

    def test_outer_validates_shapes(self):
        with pytest.raises(ValueError):
            Outer(SoftmaxApprox(3, 1.0), [Leaf(SoftmaxApprox(4, 1.0))] * 2)
        with pytest.raises(ValueError):
            Leaf(SoftmaxApprox(4, 1.0), dim=6, subset=np.arange(3))
        with pytest.raises(ValueError):
            Leaf(SoftmaxApprox(4, 1.0), scale=0.0)

    def test_chain_rule_random_trees(self):
        """Gradients match central finite differences on 100 random trees."""
        rng = np.random.default_rng(2)
        dim = 16
        for tree_idx in range(100):
            children = []
            for j in range(int(rng.integers(2, 4))):
                kind = rng.integers(3)
                size = int(rng.integers(2, 6))
                subset = rng.choice(dim, size=size, replace=False)
                scale = float(rng.uniform(0.5, 2.0))
                if kind == 0:
                    inner = SoftmaxApprox(size, float(rng.uniform(0.5, 2.0)))
                elif kind == 1:
                    inner = ShiftedLpApprox(size, float(rng.uniform(1.0, 3.0)), 1.0)
                else:
                    inner = TopKApprox(size, int(rng.integers(1, size + 1)), 1.0,
                                           samples=400, seed=int(rng.integers(10_000)))
                children.append(Leaf(inner, dim=dim, subset=subset, scale=scale))
            node = Outer(SoftmaxApprox(len(children), 1.0), children)
            if tree_idx % 3 == 0:  # depth 2
                node = Outer(SoftmaxApprox(2, 0.7), [node, Leaf(ShiftedLpApprox(dim, 2.0, 1.0))])
            x = rng.exponential(1.0, dim)
            g = node.gradient(x)
            fd = finite_diff_grad(node.value, x, 1e-4)
            tol = 1e-3 * max(np.abs(g).max(), 0.1)
            np.testing.assert_allclose(g, fd, atol=tol)


def value_and_grad_cases():
    """Surrogates covering every value_and_grad override, with their labels."""
    spec = normalize_spec(topk(6, 2))
    specs = [normalize_spec(linf(3)), normalize_spec(topk(3, 2))]
    cases = [
        ("softmax", SoftmaxApprox(6, 0.7)),
        ("shifted-lp", ShiftedLpApprox(6, 2.5, 0.5)),
        ("shifted-lp q=1", ShiftedLpApprox(6, 1.0, 0.5)),
        ("topk", TopKApprox(6, 3, 0.5, samples=500, seed=40)),
        ("leaf subset", Leaf(SoftmaxApprox(3, 1.3), dim=6, subset=[4, 0, 2], scale=1.7)),
        ("leaf subset topk", Leaf(TopKApprox(3, 2, 1.0, samples=300, seed=41),
                                  dim=6, subset=[1, 5, 3], scale=0.6)),
        ("sym", build_symmetric_approx(ones_profile(spec), 0.5, samples=400, seed=42, norm=spec)),
        ("nested", build_nested_max_approx([ones_profile(s) for s in specs], 3, 0.5,
                                           samples=300, seed=43, inner_norms=specs)),
    ]
    return [pytest.param(psi, id=label) for label, psi in cases]


class TestValueAndGrad:
    """value_and_grad(x) is exactly (value(x), gradient(x)) for every node kind."""

    @pytest.mark.parametrize("psi", value_and_grad_cases())
    def test_equals_value_and_gradient(self, psi):
        rng = np.random.default_rng(44)
        points = [np.zeros(6), np.full(6, 1e3)] + [rng.exponential(s, 6) for s in (0.1, 1.0, 30.0)]
        for x in points:
            value, grad = psi.value_and_grad(x)
            assert value == psi.value(x)
            assert grad.shape == (6,) and (grad == psi.gradient(x)).all()


def chain_rule_gradient(node, x):
    """Gradient by the chain rule over child gradients, node by node."""
    if isinstance(node, Outer):
        weights = node.outer.gradient(np.array([c.value(x) for c in node.children]))
        g = np.zeros(node.dim)
        for w, child in zip(weights, node.children):
            if w != 0.0:
                g += w * chain_rule_gradient(child, x)
        return g
    if isinstance(node, Leaf):
        return node._scatter(node.scale * chain_rule_gradient(node.inner, node._slice(x)))
    return node.gradient(x)


class TestEvaluationCounts:
    """value_and_grad evaluates every top-k value once, nested builds included."""

    @staticmethod
    def counted(monkeypatch):
        calls = {"value": 0, "gradient": 0}
        for name in calls:
            original = getattr(TopKApprox, name)

            def wrapper(self, x, _original=original, _name=name):
                calls[_name] += 1
                return _original(self, x)

            monkeypatch.setattr(TopKApprox, name, wrapper)
        return calls

    def test_nested_evaluates_each_inner_value_once(self, monkeypatch):
        specs = [normalize_spec(topk(8, 2)), normalize_spec(linf(8))]
        psi = build_nested_max_approx([ones_profile(s) for s in specs], 8, 0.5,
                                      samples=300, seed=45, inner_norms=specs)
        x = np.random.default_rng(46).exponential(1.0, 16)
        calls = self.counted(monkeypatch)
        value = psi.value(x)
        assert calls == {"value": 8, "gradient": 0}  # 2 resources x 4 dyadic leaves
        calls.update(value=0)
        got_value, got_grad = psi.value_and_grad(x)
        assert calls == {"value": 8, "gradient": 8}
        assert got_value == value
        assert (got_grad == chain_rule_gradient(psi, x)).all()

    def test_sym_counts(self, monkeypatch):
        spec = normalize_spec(topk(16, 4))
        psi = build_symmetric_approx(ones_profile(spec), 0.5, samples=300, seed=47, norm=spec)
        x = np.random.default_rng(48).exponential(1.0, 16)
        calls = self.counted(monkeypatch)
        got_value, got_grad = psi.value_and_grad(x)
        assert calls == {"value": 5, "gradient": 5}
        assert got_value == psi.value(x)
        assert (got_grad == chain_rule_gradient(psi, x)).all()


class TestSymmetricBuild:
    def test_l1_profile_dominates_l1(self):
        spec = normalize_spec(l1(16))
        node = build_symmetric_approx(ones_profile(spec), 1.0, samples=1500, seed=3, norm=spec)
        rng = np.random.default_rng(4)
        for _ in range(300):
            x = rng.exponential(1.0, 16) * rng.choice([0.1, 1.0, 10.0])
            assert node.value(x) >= x.sum() - 1e-9

    def test_linf_profile_sandwich_dim64(self):
        eps = 1.0
        spec = normalize_spec(linf(64))
        node = build_symmetric_approx(ones_profile(spec), eps, samples=1500, seed=5, norm=spec)
        a, g = node.meta.alpha, node.meta.gamma
        rng = np.random.default_rng(6)
        for _ in range(200):
            x = rng.exponential(1.0, 64) * rng.choice([0.1, 1.0, 10.0])
            v = node.value(x)
            assert x.max() - 1e-9 <= v <= a * x.max() + g / eps + 1e-9

    def test_topj_profile_sandwich(self):
        spec = normalize_spec(topk(32, 5))
        node = build_symmetric_approx(ones_profile(spec), 0.5, samples=1500, seed=7, norm=spec)
        a, g = node.meta.alpha, node.meta.gamma
        rng = np.random.default_rng(8)
        for _ in range(200):
            x = rng.exponential(1.0, 32)
            n = eval_norm(spec, x)
            assert n - 1e-9 <= node.value(x) <= a * n + g / 0.5 + 1e-9

    def test_declared_sandwich_is_exact_on_samples(self):
        """alpha/gamma come from per-sample inequalities, never violated."""
        spec = normalize_spec(ordered([5.0, 3.0, 2.0, 1.0, 1.0, 0.5, 0.25, 0.0]))
        node = build_symmetric_approx(ones_profile(spec), 2.0, samples=800, seed=9, norm=spec)
        a, g = node.meta.alpha, node.meta.gamma
        rng = np.random.default_rng(10)
        for _ in range(500):
            x = rng.exponential(1.0, 8) * rng.choice([0.01, 1.0, 100.0])
            n = eval_norm(spec, x)
            assert spec_lower(node, x, n)
            assert node.value(x) <= a * n + g / 2.0 + 1e-9

    def test_profile_validation(self):
        with pytest.raises(NormSpecError):
            OnesProfile((2.0, 3.0))  # c_1 != 1
        with pytest.raises(ValueError):
            build_symmetric_approx(ones_profile(normalize_spec(l1(4))), -1.0)

    def test_unsmoothed_leaf_max_brackets_norm(self):
        """max_j (c_k/k) top_k(x) lies in [norm/blocks, norm]."""
        spec = normalize_spec(ordered([4.0, 2.0, 1.5, 1.0, 0.5, 0.5, 0.25, 0.1]))
        prof = ones_profile(spec)
        blocks = (8 - 1).bit_length() + 1
        rng = np.random.default_rng(11)
        for _ in range(500):
            x = rng.exponential(1.0, 8)
            n = eval_norm(spec, x)
            m = max(prof.c[(1 << j) - 1] / (1 << j) * eval_norm(topk(8, 1 << j), x) for j in range(4))
            assert n / blocks - 1e-9 <= m <= n + 1e-9


def spec_lower(node, x, n):
    return node.value(x) >= n - 1e-9


class TestNestedBuild:
    def test_single_resource_collapses(self):
        spec = normalize_spec(topk(6, 2))
        prof = ones_profile(spec)
        a = build_nested_max_approx([prof], 6, 1.0, samples=600, seed=12, inner_norms=[spec])
        b = build_symmetric_approx(prof, 1.0, samples=600, seed=12, norm=spec)
        rng = np.random.default_rng(13)
        for _ in range(20):
            x = rng.exponential(1.0, 6)
            assert a.value(x) == b.value(x)
            np.testing.assert_array_equal(a.gradient(x), b.gradient(x))

    def test_zero_resource_tracks_the_other(self):
        eps = 1.0
        spec = normalize_spec(linf(4))
        profs = [ones_profile(spec)] * 2
        node = build_nested_max_approx(profs, 4, eps, samples=800, seed=14,
                                       inner_norms=[spec, spec])
        child1 = node.children[0].inner
        rng = np.random.default_rng(15)
        slack = math.log(2) * max(node.growth_bound, 1.0) / eps
        for _ in range(50):
            x = np.zeros(8)
            x[:4] = rng.exponential(20.0, 4) + 50.0  # resource 1 dominates
            v1 = child1.value(x[:4])
            v = node.value(x)
            assert v1 - 1e-9 * max(1.0, v1) <= v <= v1 + slack + 1e-9

    def test_objective_lower_bound(self):
        specs = [normalize_spec(linf(4)), normalize_spec(l1(4))]
        profs = [ones_profile(s) for s in specs]
        node = build_nested_max_approx(profs, 4, 0.5, samples=600, seed=16, inner_norms=specs)
        rng = np.random.default_rng(17)
        for _ in range(200):
            x = rng.exponential(1.0, 8)
            objective = max(eval_norm(specs[0], x[:4]), eval_norm(specs[1], x[4:]))
            assert node.value(x) >= objective - 1e-9

    def test_gradient_finite_differences_dim32(self):
        specs = [normalize_spec(linf(16)), normalize_spec(topk(16, 4))]
        profs = [ones_profile(s) for s in specs]
        node = build_nested_max_approx(profs, 16, 1.0, samples=400, seed=18, inner_norms=specs)
        rng = np.random.default_rng(19)
        x = rng.exponential(1.0, 32)
        g = node.gradient(x)
        fd = finite_diff_grad(node.value, x, 1e-4)
        np.testing.assert_allclose(g, fd, atol=1e-3 * max(np.abs(g).max(), 0.1))

    def test_lp_fast_path(self):
        node = build_nested_max_approx(
            [ones_profile(normalize_spec(l1(4)))] * 2, 4, 1.0,
            inner_norms=[normalize_spec(l1(4))] * 2, lp_exponents=[1.0, 1.0],
        )
        x = np.arange(8.0)
        # children are exact l1 sums under a smoothed max
        assert node.value(x) >= max(x[:4].sum(), x[4:].sum())
        assert not node.meta.stochastic
