"""Property-check machinery: oracles, witnesses, reproducibility."""

import json
import math

import numpy as np
import pytest

from gradnorm.approx import (
    ApproxMeta,
    GradStableApprox,
    ShiftedLpApprox,
    SoftmaxApprox,
    TopKApprox,
)
from gradnorm.norms import linf, lp, normalize_spec, topk
from gradnorm.verify import (
    SmoothGameParams,
    check_converse_jensen,
    check_gradient_stability,
    check_sandwich,
    check_smooth_game,
    check_structure,
)
from helpers import finite_diff_grad


class MaxStub(GradStableApprox):
    """The raw max with a one-hot subgradient; the canonical unstable case."""

    def __init__(self, dim):
        self.dim = dim
        self.meta = ApproxMeta(epsilon=1.0, delta=0.25, alpha=1.0, gamma=0.0)

    def value(self, x):
        return float(np.max(x))

    def gradient(self, x):
        g = np.zeros(self.dim)
        g[int(np.argmax(x))] = 1.0
        return g

    def norm_spec(self):
        return linf(self.dim)


class TestFiniteDifferences:
    def test_l1_interior(self):
        f = lambda v: float(np.sum(v))
        g = finite_diff_grad(f, np.array([1.0, 2.0, 3.0]), 1e-6)
        np.testing.assert_allclose(g, 1.0, atol=1e-10)

    def test_softmax_at_zero_is_uniform(self):
        # one-sided at the boundary, so the step must absorb the curvature
        sm = SoftmaxApprox(8, 1.0)
        g = finite_diff_grad(sm.value, np.zeros(8), 1e-7)
        np.testing.assert_allclose(g, 1.0 / 8, atol=1e-8)

    def test_quadratic(self):
        f = lambda v: float(np.sum(v**2))
        g = finite_diff_grad(f, np.array([1.0, 2.0]), 1e-5)
        np.testing.assert_allclose(g, [2.0, 4.0], atol=1e-8)

    def test_one_sided_at_boundary(self):
        f = lambda v: float(np.sum(v))
        g = finite_diff_grad(f, np.zeros(3), 1e-6)
        np.testing.assert_allclose(g, 1.0, atol=1e-9)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda v: 0.0, np.zeros(2), 0.0)


class TestGradientStability:
    def test_softmax_never_violates(self):
        rep = check_gradient_stability(SoftmaxApprox(16, 1.0), trials=500, seed=1)
        assert rep.passed
        assert rep.worst_margin >= -1e-9

    def test_plain_max_fails(self):
        rep = check_gradient_stability(MaxStub(8), trials=300, seed=2)
        assert not rep.passed
        assert rep.violations > 0

    def test_max_flip_witness(self):
        """The textbook counterexample: a tiny spike flips the argmax."""
        stub = MaxStub(2)
        eta = 0.01
        x = np.array([1.0 - eta, 1.0])
        y = np.array([2.0 * eta, 0.0])
        np.testing.assert_array_equal(stub.gradient(x), [0.0, 1.0])
        np.testing.assert_array_equal(stub.gradient(x + y), [1.0, 0.0])
        coeff = math.exp(-1.0 * 2.0 * eta - 0.25)
        margin = stub.gradient(x + y) - coeff * stub.gradient(x)
        assert margin.min() < -0.5  # far beyond any tolerance

    def test_reproducible_reports(self):
        tk = TopKApprox(16, 4, 1.0, samples=4000, seed=3)
        a = check_gradient_stability(tk, trials=50, seed=7, spike_ranks=[4, 5])
        b = check_gradient_stability(tk, trials=50, seed=7, spike_ranks=[4, 5])
        assert a.worst_margin == b.worst_margin
        assert a.to_dict() == b.to_dict()

    def test_topk_declared_delta_passes(self):
        tk = TopKApprox(16, 4, 1.0, samples=20_000, seed=4)
        rep = check_gradient_stability(tk, trials=150, seed=5, spike_ranks=[4, 5])
        assert rep.passed, rep.worst_margin

    def test_topk_declared_delta_passes_at_k_equals_d(self):
        """k = d: a spike that pushes a coordinate to rank d costs a factor q only."""
        tk = TopKApprox(16, 16, 1.0, samples=20_000, seed=4)
        rep = check_gradient_stability(tk, trials=150, seed=5, spike_ranks=[16])
        assert rep.passed, rep.worst_margin

    def test_report_serializes(self):
        rep = check_gradient_stability(SoftmaxApprox(4, 1.0), trials=20, seed=6)
        blob = json.dumps(rep.to_dict(), sort_keys=True)
        assert "worst_margin" in blob


class TestSandwich:
    def test_softmax_vs_linf_exact(self):
        rep = check_sandwich(SoftmaxApprox(16, 0.5), normalize_spec(linf(16)),
                             trials=500, seed=8)
        assert rep.passed
        assert rep.worst_margin >= -1e-9

    def test_shifted_lp_exact(self):
        sl = ShiftedLpApprox(8, 2.0, 1.0)
        rep = check_sandwich(sl, normalize_spec(lp(8, sl.q)), trials=500, seed=9)
        assert rep.passed

    def test_topk_weakened_lower_bound(self):
        """The raw estimator undershoots top-k by its declared lower scale only."""
        tk = TopKApprox(16, 4, 1.0, samples=5000, seed=10)
        rep = check_sandwich(tk, normalize_spec(topk(16, 4)), trials=300, seed=11)
        assert rep.passed
        assert tk.meta.lower_scale < 1.0

    def test_deterministic_surrogates_keep_the_absolute_tolerance(self):
        """Without a value_stats of its own a surrogate reports a standard
        error of 0, so the sandwich tolerance stays ``abs_tol``."""
        stub = MaxStub(6)
        x = np.arange(6.0)
        assert stub.value_stats(x) == (stub.value(x), 0.0)
        for approx, spec in ((stub, linf(6)), (SoftmaxApprox(6, 0.5), normalize_spec(linf(6)))):
            rep = check_sandwich(approx, spec, trials=50, abs_tol=1e-7, seed=14)
            assert rep.tolerance == 1e-7

    def test_wrong_alpha_fails(self):
        tk = TopKApprox(16, 4, 1.0, samples=5000, seed=12)
        rep = check_sandwich(tk, normalize_spec(topk(16, 4)), alpha=0.1, gamma=0.0,
                             trials=300, seed=13)
        assert not rep.passed


class TestSmoothGame:
    def test_linear_passes_at_one_zero(self):
        lin = ShiftedLpApprox(6, 1.0, 1.0)
        rep = check_smooth_game(lin, SmoothGameParams(1.0, 0.0, horizon=10),
                                trials=50, seed=14)
        assert rep.passed
        assert rep.extra["minimal"] == {"lam": 1.0, "mu": 0.0, "score": 1.0}

    def test_horizon_one_reduces_to_monotonicity(self):
        sm = SoftmaxApprox(6, 1.0)
        rep = check_smooth_game(sm, SmoothGameParams(1.0, 0.0, horizon=1),
                                trials=100, seed=15)
        assert rep.passed

    def test_mu_must_stay_below_one(self):
        with pytest.raises(ValueError):
            SmoothGameParams(1.0, 1.0, horizon=5)

    def test_softmax_random_frontier(self):
        sm = SoftmaxApprox(8, 1.0)
        rep = check_smooth_game(sm, SmoothGameParams(2.0, 0.5, horizon=20),
                                trials=50, seed=16)
        assert rep.passed
        assert rep.extra["minimal"]["score"] <= 2.0 / 0.5


class TestConverseJensen:
    def test_linear_equality(self):
        lin = ShiftedLpApprox(6, 1.0, 1.0)
        rep = check_converse_jensen(lin, 1.0, 1.0, trials=30, horizon=10, seed=17)
        assert rep.passed
        assert rep.extra["minimal_factor"] == pytest.approx(1.0, abs=1e-9)
        assert rep.worst_margin >= -1e-9

    def test_softmax_factor_below_e(self):
        sm = SoftmaxApprox(8, 1.0)
        rep = check_converse_jensen(sm, math.e, 1.0, trials=50, horizon=30, seed=18)
        assert rep.passed
        assert rep.extra["minimal_factor"] <= math.e

    def test_jensen_direction_stochastic(self):
        tk = TopKApprox(12, 3, 1.0, samples=2000, seed=19)
        rep = check_converse_jensen(tk, 10.0, 1.0, trials=20, horizon=20, seed=20)
        assert rep.worst_margin >= -rep.tolerance * 100  # paired samples: near exact

    def test_greedy_trace_factor_regression(self):
        """Minimal factor along an actual greedy run's increments, frozen."""
        from gradnorm.approx import build_approx
        from gradnorm.loadbalance import LbInstance, brute_force_opt, run_greedy
        from gradnorm.norms import eval_norm
        from gradnorm.seeding import derive_rng

        spec = normalize_spec(topk(4, 2))
        rng = derive_rng(99, "jensen-trace")
        jobs = [rng.uniform(0, 1, (4, 2)) for _ in range(12)]
        inst = LbInstance(m=4, k=2, T=12, jobs=jobs, norm=spec)
        opt, _ = brute_force_opt(inst)

        def builder(e, s):
            return build_approx("sym", [spec], e, samples=800, seed=s)

        trace = run_greedy(inst, builder, ("given", opt), seed=5)
        psi = builder(trace.phase_epsilons[0], trace.phase_seeds[0])
        steps = np.diff(np.vstack([np.zeros(4), trace.loads]), axis=0)
        cap = max(eval_norm(topk(4, 2), s) for s in steps) + 1e-9
        rep = check_converse_jensen(psi, 10.0, cap, norm=spec, sequences=[steps])
        assert rep.passed
        assert rep.extra["minimal_factor"] == pytest.approx(1.015615862619544, rel=1e-9)


class TestStructure:
    def test_all_surrogates_structurally_sound(self):
        for approx in (
            SoftmaxApprox(8, 1.0),
            ShiftedLpApprox(8, 2.5, 0.5),
            TopKApprox(8, 3, 1.0, samples=1500, seed=21),
        ):
            rep = check_structure(approx, trials=150, seed=22)
            assert rep.passed, (approx, rep.worst_margin)



class TestTrialCount:
    """No trial is no evidence: every check refuses fewer than one."""

    CHECKS = {
        "stability": lambda a, n, t: check_gradient_stability(a, n, trials=t),
        "sandwich": lambda a, n, t: check_sandwich(a, n, trials=t),
        "smoothgame": lambda a, n, t: check_smooth_game(a, SmoothGameParams(2.0, 0.5, 5, 1.0),
                                                        trials=t, norm=n),
        "jensen": lambda a, n, t: check_converse_jensen(a, math.e, 1.0, trials=t, norm=n),
        "structure": lambda a, n, t: check_structure(a, trials=t),
    }

    @pytest.mark.parametrize("name", list(CHECKS))
    @pytest.mark.parametrize("trials", [0, -1])
    def test_refused(self, name, trials):
        with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
            self.CHECKS[name](SoftmaxApprox(4, 1.0), normalize_spec(linf(4)), trials)

    def test_jensen_without_sequences(self):
        with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
            check_converse_jensen(SoftmaxApprox(4, 1.0), math.e, 1.0, sequences=[])
