"""EXP3 core, both bandit loops, and the fixed-mixture benchmarks."""

import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from gradnorm.approx import GradStableApprox, build_approx
from gradnorm.bandits import (
    BanditInstance,
    Exp3State,
    benchmark_fixed_bvc,
    benchmark_fixed_bwk,
    bvc_run,
    bwk_run,
    exp3_sample,
    exp3_update,
    format_bandit_instance,
    project_simplex,
    read_bandit_instance,
)
from gradnorm.harness import atomic_write_text
from gradnorm.norms import eval_norm, eval_norm_rows, l1, linf, lp, normalize_spec, parse_norm_spec, topk
from gradnorm.seeding import derive_rng


def bvc_instance(costs, norm=None):
    T, d, n = costs.shape
    return BanditInstance(n=n, d=d, T=T, costs=costs,
                          norm=norm or normalize_spec(linf(d)))


class TestExp3:
    def test_fresh_state_is_uniform(self):
        state = Exp3State.fresh(4, horizon=100)
        np.testing.assert_allclose(state.distribution(), 0.25)

    def test_zero_losses_keep_uniform(self):
        state = Exp3State.fresh(3, horizon=100)
        rng = derive_rng(0, "t")
        for _ in range(50):
            a, p = exp3_sample(state, rng)
            exp3_update(state, a, p, 0.0)
        np.testing.assert_allclose(state.distribution(), 1.0 / 3)

    def test_losing_arm_decays_monotonically(self):
        state = Exp3State.fresh(2, horizon=200)
        floor = state.phi / 2  # uniform exploration keeps this much probability
        probs = []
        for _ in range(100):
            p = state.distribution()
            probs.append(float(p[0]))
            exp3_update(state, 0, float(p[0]), 1.0)
        assert all(a >= b for a, b in zip(probs, probs[1:]))
        above = [p for p in probs if p > floor * (1 + 1e-9)]
        assert all(a > b for a, b in zip(above, above[1:]))
        assert probs[-1] == pytest.approx(floor)

    def test_loss_contract(self):
        state = Exp3State.fresh(2, horizon=10)
        with pytest.raises(ValueError):
            exp3_update(state, 0, 0.5, 1.5)
        with pytest.raises(ValueError):
            exp3_update(state, 0, 0.5, -0.1)

    def test_weights_stay_representable(self):
        state = Exp3State.fresh(2, horizon=100)
        state.eta = 5.0  # force brutal decay
        for _ in range(2000):
            exp3_update(state, 0, 0.01, 1.0)
        assert np.isfinite(state.weights).all()
        assert state.distribution().sum() == pytest.approx(1.0, abs=1e-12)


class FixedDistribution:
    """Stands in for an Exp3State: exp3_sample only asks for the distribution."""

    def __init__(self, p):
        self.p = np.asarray(p, dtype=float)

    def distribution(self):
        return self.p.copy()


class TestExp3SampleMatchesChoice:
    """exp3_sample is rng.choice(n, p=p), draw for draw, on the same stream."""

    DRAWS = 20_000

    @pytest.mark.parametrize("p", [
        [1.0],
        [0.25, 0.25, 0.25, 0.25],
        [0.7, 0.2, 0.1],
        [0.0, 0.5, 0.0, 0.5],
        [0.0, 0.0, 1.0],
        [1e-12, 1.0 - 2e-12, 1e-12],
        list(np.random.default_rng(1).dirichlet(np.full(9, 0.3))),
    ])
    def test_fixed_distributions(self, p):
        state = FixedDistribution(p)
        ours, ref = np.random.default_rng(21), np.random.default_rng(21)
        for _ in range(self.DRAWS):
            a, prob = exp3_sample(state, ours)
            assert a == int(ref.choice(len(p), p=state.p))
            assert prob == state.p[a]
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_evolving_exp3_state(self):
        state = Exp3State.fresh(5, horizon=self.DRAWS)
        losses = np.random.default_rng(22).random((self.DRAWS, 5))
        ours, ref = derive_rng(3, "bvc"), derive_rng(3, "bvc")
        for t in range(self.DRAWS):
            p = state.distribution()
            expected = int(ref.choice(5, p=p))
            a, prob = exp3_sample(state, ours)
            assert (a, prob) == (expected, p[expected])
            exp3_update(state, a, prob, float(losses[t, a]))
        assert ours.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("p", [
        [0.5, np.nan],
        [1.5, -0.5],
        [0.5, 0.6],
        [np.inf, 0.0],
    ])
    def test_invalid_probabilities_raise_like_choice(self, p):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(len(p), p=p)
        with pytest.raises(ValueError):
            exp3_sample(FixedDistribution(p), np.random.default_rng(0))

    def test_nan_weights_raise(self):
        state = Exp3State.fresh(3, horizon=10)
        state.weights[1] = np.nan
        with pytest.raises(ValueError):
            exp3_sample(state, np.random.default_rng(0))


class SeparateValueAndGradient(GradStableApprox):
    """``psi`` with the base class's value_and_grad: value(x), then gradient(x)."""

    def __init__(self, psi):
        self.psi = psi
        self.dim = psi.dim
        self.meta = psi.meta

    def value(self, x):
        return self.psi.value(x)

    def gradient(self, x):
        return self.psi.gradient(x)


def assert_traces_equal(a, b):
    for name in ("actions", "probs", "losses", "final_cost"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert (a.final_norm, a.total_reward, a.stopped_at) == (b.final_norm, b.total_reward, b.stopped_at)


def reference_run(instance, psi, seed, opt_bwk=None, stop_step=None):
    """The bandit loop as first written: separate gradient and value calls, two
    surrogate values per round normalizer, and rng.choice for the draw.

    A knapsack run stops when ||loads|| + stop_step > B, with stop_step = ||1||
    by default.  Returns the actions, probabilities and losses of the rounds
    played, and the final loads.
    """
    meta = psi.meta
    ones_norm = eval_norm(instance.norm, np.ones(instance.d))
    stop_step = ones_norm if stop_step is None else stop_step
    state = Exp3State.fresh(instance.n, instance.T)
    rng = derive_rng(seed, "bvc" if opt_bwk is None else "bwk")
    loads = np.zeros(instance.d)
    actions, probs, losses = [], [], []
    for t in range(instance.T):
        if opt_bwk is not None and eval_norm(instance.norm, loads) + stop_step > instance.budget:
            break
        grad = psi.gradient(loads)
        chord = psi.value(loads + 1.0) - psi.value(loads)
        inflate = math.exp(min(meta.stability_scale * meta.epsilon * ones_norm + meta.delta, 30.0))
        bound = max(chord * inflate, 1e-12)
        w = state.weights / state.weights.sum()
        p = (1.0 - state.phi) * w + state.phi / len(w)
        a = int(rng.choice(len(p), p=p))
        column = instance.costs[t, :, a]
        if opt_bwk is None:
            loss = min(max(float(grad @ column) / bound, 0.0), 1.0)
        else:
            Z = opt_bwk / float(instance.budget)
            gain = float(instance.rewards[t, a]) - Z * float(grad @ column) / bound
            loss = (1.0 - min(max(gain, -1.0), 1.0)) / 2.0
        exp3_update(state, a, float(p[a]), loss)
        loads += column
        actions.append(a)
        probs.append(float(p[a]))
        losses.append(loss)
    return np.array(actions, dtype=np.int64), np.array(probs), np.array(losses), loads


class TestFusedValueAndGradientRuns:
    """Runs through value_and_grad equal runs through separate value/gradient
    calls, and the loop as first written."""

    @pytest.mark.parametrize("approx", ["softmax", "slp:2", "gstopk:2", "sym"])
    def test_bvc_run(self, approx):
        rng = np.random.default_rng(23)
        norm = normalize_spec(topk(4, 2))
        inst = bvc_instance(rng.uniform(0, 1, (150, 4, 3)), norm=norm)
        psi = build_approx(approx, 4, 0.2, samples=300, seed=24, norm=norm)
        trace = bvc_run(inst, psi, seed=25)
        assert_traces_equal(trace, bvc_run(inst, SeparateValueAndGradient(psi), seed=25))
        actions, probs, losses, loads = reference_run(inst, psi, seed=25)
        np.testing.assert_array_equal(trace.actions, actions)
        np.testing.assert_array_equal(trace.probs, probs)
        np.testing.assert_array_equal(trace.losses, losses)
        np.testing.assert_array_equal(trace.final_cost, loads)

    @pytest.mark.parametrize("approx", ["softmax", "sym"])
    def test_bwk_run(self, approx):
        rng = np.random.default_rng(26)
        T = 200
        rewards = rng.uniform(0, 1, (T, 3))
        costs = rng.uniform(0, 1, (T, 2, 3))
        rewards[:, 2] = 0.0
        costs[:, :, 2] = 0.0
        norm = normalize_spec(linf(2))
        inst = BanditInstance(n=3, d=2, T=T, costs=costs, norm=norm, rewards=rewards,
                              budget=60.0, null_action=2)
        psi = build_approx(approx, 2, 0.05, samples=300, seed=27, norm=norm)
        runs = [bwk_run(inst, p, opt_bwk=40.0, seed=28, allow_small_budget=True)
                for p in (psi, SeparateValueAndGradient(psi))]
        assert runs[0].stopped_at < T  # the stop rule is covered too
        assert_traces_equal(*runs)
        actions, probs, losses, loads = reference_run(inst, psi, seed=28, opt_bwk=40.0)
        assert len(actions) == runs[0].stopped_at
        np.testing.assert_array_equal(runs[0].actions[: len(actions)], actions)
        np.testing.assert_array_equal(runs[0].probs[: len(probs)], probs)
        np.testing.assert_array_equal(runs[0].losses[: len(losses)], losses)
        np.testing.assert_array_equal(runs[0].final_cost, loads)


class TestBvcRun:
    def test_single_action_accumulates_exactly(self):
        rng = np.random.default_rng(0)
        costs = rng.uniform(0, 1, (50, 3, 1))
        inst = bvc_instance(costs)
        psi = build_approx("softmax", 3, 0.1)
        trace = bvc_run(inst, psi, seed=1)
        assert (trace.actions == 0).all()
        np.testing.assert_allclose(trace.final_cost, costs[:, :, 0].sum(axis=0))

    def test_zero_costs_stay_uniform(self):
        inst = bvc_instance(np.zeros((200, 2, 2)))
        psi = build_approx("softmax", 2, 1.0)
        trace = bvc_run(inst, psi, seed=2)
        assert trace.final_norm == 0.0
        assert abs((trace.actions == 0).mean() - 0.5) < 0.15

    def test_losses_normalized(self):
        rng = np.random.default_rng(3)
        inst = bvc_instance(rng.uniform(0, 1, (100, 2, 3)))
        psi = build_approx("softmax", 2, 0.5)
        trace = bvc_run(inst, psi, seed=4)
        assert (trace.losses >= 0.0).all() and (trace.losses <= 1.0).all()

    def test_rejects_reward_instances(self):
        inst = BanditInstance(n=2, d=2, T=5, costs=np.zeros((5, 2, 2)),
                              norm=normalize_spec(linf(2)),
                              rewards=np.zeros((5, 2)))
        with pytest.raises(ValueError):
            bvc_run(inst, build_approx("softmax", 2, 1.0))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        inst = bvc_instance(rng.uniform(0, 1, (100, 2, 2)))
        psi = build_approx("softmax", 2, 0.5)
        a = bvc_run(inst, psi, seed=6)
        b = bvc_run(inst, psi, seed=6)
        np.testing.assert_array_equal(a.actions, b.actions)
        np.testing.assert_array_equal(a.losses, b.losses)

    def test_gradient_sum_bounded_by_rise(self):
        """Linearized gains never exceed the surrogate's total increase."""
        rng = np.random.default_rng(7)
        inst = bvc_instance(rng.uniform(0, 1, (60, 3, 2)))
        psi = build_approx("gstopk:2", 3, 0.5, samples=2000, seed=8)
        trace = bvc_run(inst, psi, seed=9)
        loads = np.zeros(3)
        grad_sum = 0.0
        for t in range(inst.T):
            step = inst.costs[t, :, trace.actions[t]]
            grad_sum += float(psi.gradient(loads) @ step)
            loads += step
        rise = psi.value(loads) - psi.value(np.zeros(3))
        assert grad_sum <= rise + 1e-4 * max(1.0, rise)


class TestBwkRun:
    def make_instance(self, T=400, budget=None):
        # arm 0: reward 1 cost (1,1); arm 1: reward 0.1 cost 0; arm 2: null
        rewards = np.zeros((T, 3))
        rewards[:, 0] = 1.0
        rewards[:, 1] = 0.1
        costs = np.zeros((T, 2, 3))
        costs[:, :, 0] = 1.0
        return BanditInstance(n=3, d=2, T=T, costs=costs,
                              norm=normalize_spec(linf(2)), rewards=rewards,
                              budget=budget if budget is not None else T / 4,
                              null_action=2)

    def test_hard_feasibility_many_seeds(self):
        inst = self.make_instance()
        psi = build_approx("softmax", 2, 0.01)
        for seed in range(10):
            trace = bwk_run(inst, psi, opt_bwk=100.0, seed=seed)
            assert eval_norm(inst.norm, trace.final_cost) <= inst.budget

    def test_null_absorption(self):
        inst = self.make_instance(T=200, budget=20.0)
        psi = build_approx("softmax", 2, 0.05)
        trace = bwk_run(inst, psi, opt_bwk=30.0, seed=3, allow_small_budget=True)
        assert trace.stopped_at < 200
        assert (trace.actions[trace.stopped_at:] == 2).all()
        assert np.isnan(trace.losses[trace.stopped_at:]).all()

    def test_huge_budget_tracks_best_arm(self):
        T = 5000
        rng = np.random.default_rng(4)
        rewards = np.zeros((T, 3))
        rewards[:, 0] = (rng.random(T) < 0.7).astype(float)
        rewards[:, 1] = (rng.random(T) < 0.3).astype(float)
        costs = np.zeros((T, 2, 3))
        inst = BanditInstance(n=3, d=2, T=T, costs=costs,
                              norm=normalize_spec(linf(2)), rewards=rewards,
                              budget=float(2 * T), null_action=2)
        psi = build_approx("softmax", 2, 0.001)
        trace = bwk_run(inst, psi, opt_bwk=float(rewards[:, 0].sum()), seed=5)
        best = rewards[:, 0].sum()
        regret_scale = 4 * np.sqrt(T * 3 * np.log(3))
        assert trace.total_reward >= best - regret_scale

    def test_small_budget_guard(self):
        inst = self.make_instance(T=100, budget=3.0)
        psi = build_approx("softmax", 2, 0.1)
        with pytest.raises(ValueError):
            bwk_run(inst, psi, opt_bwk=10.0, seed=6)
        with pytest.warns(RuntimeWarning):
            bwk_run(inst, psi, opt_bwk=10.0, seed=6, allow_small_budget=True)

    def test_missing_null_action(self):
        T = 10
        inst = BanditInstance(n=2, d=2, T=T, costs=np.zeros((T, 2, 2)),
                              norm=normalize_spec(linf(2)),
                              rewards=np.zeros((T, 2)), budget=5.0)
        with pytest.raises(ValueError):
            bwk_run(inst, build_approx("softmax", 2, 1.0), opt_bwk=1.0)

    def random_instance(self, norm):
        """300 rounds, two random arms and a null arm, a budget of 40 all-ones steps."""
        rng = np.random.default_rng(40)
        T, d = 300, norm.dim
        rewards = rng.uniform(0, 1, (T, 3))
        costs = rng.uniform(0, 1, (T, d, 3))
        rewards[:, 2] = 0.0
        costs[:, :, 2] = 0.0
        spec = normalize_spec(norm)
        return BanditInstance(n=3, d=d, T=T, costs=costs, norm=spec, rewards=rewards,
                              budget=40.0 * eval_norm(spec, np.ones(d)), null_action=2)

    @pytest.mark.parametrize("norm", [linf(8), topk(8, 3), lp(8, 2.0), l1(8)])
    def test_stops_one_all_ones_step_before_the_budget(self, norm):
        """At the stop ||loads|| + ||1|| > B, a round earlier not, and the final cost fits."""
        inst = self.random_instance(norm)
        ones = eval_norm(inst.norm, np.ones(inst.d))
        trace = bwk_run(inst, build_approx("softmax", inst.d, 0.1), opt_bwk=50.0, seed=41)
        stop = trace.stopped_at
        assert 0 < stop < inst.T
        final = eval_norm(inst.norm, trace.final_cost)
        assert final + ones > inst.budget
        assert final <= inst.budget
        loads = np.zeros(inst.d)
        for t in range(stop - 1):
            loads += inst.costs[t, :, trace.actions[t]]
        assert eval_norm(inst.norm, loads) + ones <= inst.budget

    @pytest.mark.parametrize("norm", [linf(8), topk(8, 3)])
    def test_rounds_before_the_old_stop_are_unchanged(self, norm):
        """The old rule stopped at ||loads|| + d > B; the rounds it played are played the
        same, and play goes on past its stop, so the reward can only rise."""
        inst = self.random_instance(norm)
        psi = build_approx("softmax", inst.d, 0.1)
        trace = bwk_run(inst, psi, opt_bwk=50.0, seed=41)
        actions, probs, losses, _ = reference_run(inst, psi, seed=41, opt_bwk=50.0,
                                                  stop_step=float(inst.d))
        old_stop = len(actions)
        assert old_stop < trace.stopped_at
        np.testing.assert_array_equal(trace.actions[:old_stop], actions)
        np.testing.assert_array_equal(trace.probs[:old_stop], probs)
        np.testing.assert_array_equal(trace.losses[:old_stop], losses)
        old_reward = 0.0
        for t, a in enumerate(actions):
            old_reward += float(inst.rewards[t, a])
        assert trace.total_reward >= old_reward

    def test_zero_rewards_zero_total(self):
        T = 50
        costs = np.zeros((T, 2, 2))
        inst = BanditInstance(n=2, d=2, T=T, costs=costs,
                              norm=normalize_spec(linf(2)),
                              rewards=np.zeros((T, 2)), budget=float(T),
                              null_action=1)
        psi = build_approx("softmax", 2, 0.1)
        trace = bwk_run(inst, psi, opt_bwk=1.0, seed=7)
        assert trace.total_reward == 0.0


def bwk_instance(costs, rewards, budget, norm=None):
    T, d, n = costs.shape
    return BanditInstance(n=n, d=d, T=T, costs=costs, norm=norm or normalize_spec(linf(d)),
                          rewards=rewards, budget=budget)


def recursive_grid_points(n, resolution):
    """Every point of the simplex grid of step 1/resolution, by recursion over
    lexicographic integer compositions."""

    def rec(parts, total):
        if parts == 1:
            return np.array([[total]], dtype=np.int64)
        blocks = []
        for head in range(total + 1):
            tail = rec(parts - 1, total - head)
            block = np.empty((tail.shape[0], parts), dtype=np.int64)
            block[:, 0] = head
            block[:, 1:] = tail
            blocks.append(block)
        return np.vstack(blocks)

    return rec(n, resolution) / resolution


def grid_norm(name, d):
    """The norms that the LP oracle of tests/test_offline_lp.py cannot check
    (lp, ordered, Orlicz) next to two that it can (linf, top-k)."""
    text = {"linf": "linf", "topk": f"topk:{min(3, d)}", "lp": "lp:2.5",
            "ordered": "ordered:" + ",".join(str(0.5 ** i) for i in range(d)),
            "orlicz": "orlicz:pow:2"}[name]
    return normalize_spec(parse_norm_spec(text, dim=d))


def grid_slack(spec, value):
    """The benchmarks close their bracket to 1e-9 relative; the Orlicz
    subgradient is a central difference, about 2e-7 accurate."""
    return (1e-6 if spec.kind == "orlicz" else 1e-9) * max(1.0, abs(value))


def full_batch_grid_bvc(instance, resolution=60):
    """The least norm over every grid point of the simplex, scored in one batch."""
    grid = recursive_grid_points(instance.n, resolution)
    return float(eval_norm_rows(instance.norm, grid @ instance.total_costs.T).min())


def full_batch_grid_bwk(instance, resolution=30):
    """The most reward over every grid point of {x >= 0, sum x <= 1} within
    the budget (a slack coordinate, dropped), scored in one batch; x = 0 is
    always among them."""
    grid = recursive_grid_points(instance.n + 1, resolution)[:, : instance.n]
    feasible = grid[eval_norm_rows(instance.norm, grid @ instance.total_costs.T) <= instance.budget]
    return float((feasible @ instance.total_rewards).max())


def assert_bvc_beats_grid(instance, x, value, bound):
    assert (x >= 0).all() and x.sum() == pytest.approx(1.0, abs=1e-12)
    assert value == eval_norm(instance.norm, instance.total_costs @ x)
    slack = grid_slack(instance.norm, value)
    assert abs(value - bound) <= slack
    grid_best = full_batch_grid_bvc(instance)
    assert value <= grid_best + slack and bound <= grid_best + slack


def assert_bwk_beats_grid(instance, x, value, bound):
    assert (x >= 0).all() and x.sum() <= 1.0 + 1e-12
    assert eval_norm(instance.norm, instance.total_costs @ x) <= instance.budget
    assert value == float(instance.total_rewards @ x)
    slack = grid_slack(instance.norm, value)
    assert abs(value - bound) <= slack
    grid_best = full_batch_grid_bwk(instance)
    assert value >= grid_best - slack and bound >= grid_best - slack


class TestChunkedGrid:
    """Brute force over a simplex grid, every point scored in one batch, as
    an oracle for the benchmarks: the returned mixture is feasible, and
    neither its value nor the certified bound is beaten by any grid point."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("norm", ["linf", "topk", "lp", "ordered", "orlicz"])
    def test_equals_full_batch(self, n, norm):
        d = 8
        rng = np.random.default_rng(90 + n)
        for costs in (rng.uniform(0, 1, (30, d, n)), rng.integers(0, 2, (30, d, n)).astype(float)):
            inst = bvc_instance(costs, grid_norm(norm, d))
            assert_bvc_beats_grid(inst, *benchmark_fixed_bvc(inst))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bvc_grid_point_equals_full_batch(self, n):
        """Action 0 costs most in every coordinate, so mixing it in only
        costs more: the benchmark leaves the vertex e_0."""
        rng = np.random.default_rng(100 + n)
        for norm in (linf(4), lp(4, 3.0)):
            costs = rng.uniform(0, 0.5, (20, 4, n))
            costs[:, :, 0] = 1.0
            inst = bvc_instance(costs, normalize_spec(norm))
            x, value, bound = benchmark_fixed_bvc(inst)
            assert_bvc_beats_grid(inst, x, value, bound)
            assert n == 1 or value < eval_norm(inst.norm, inst.total_costs[:, 0])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bwk_equals_full_batch(self, n):
        rng = np.random.default_rng(110 + n)
        d = 3
        for norm in ("linf", "lp", "ordered", "orlicz"):
            costs = rng.uniform(0, 1, (20, d, n))
            inst = bwk_instance(costs, rng.uniform(0, 1, (20, n)), 5.0, grid_norm(norm, d))
            x, value, bound = benchmark_fixed_bwk(inst)
            assert_bwk_beats_grid(inst, x, value, bound)
            assert value > 0.0  # the budget admits more than the zero mixture


class TestBenchmarks:
    def test_bvc_single_action(self):
        rng = np.random.default_rng(8)
        inst = bvc_instance(rng.uniform(0, 1, (20, 3, 1)))
        x, value, bound = benchmark_fixed_bvc(inst)
        np.testing.assert_allclose(x, [1.0])
        assert value == bound == eval_norm(inst.norm, inst.total_costs[:, 0])

    def test_bvc_symmetric_two_arm(self):
        T = 30
        costs = np.zeros((T, 2, 2))
        costs[:, 0, 0] = 1.0
        costs[:, 1, 1] = 1.0
        inst = bvc_instance(costs)
        x, value, bound = benchmark_fixed_bvc(inst)
        e1_value = eval_norm(inst.norm, inst.total_costs[:, 0])
        assert value <= e1_value + 1e-9
        assert value == pytest.approx(T / 2, rel=1e-9)
        assert bound == pytest.approx(T / 2, rel=1e-9)

    def test_bvc_identical_columns_merge(self):
        """Duplicate columns are one action: the mixture and value do not
        depend on how many copies an instance carries."""
        rng = np.random.default_rng(13)
        costs = rng.uniform(0, 1, (20, 3, 2))
        x, value, _ = benchmark_fixed_bvc(bvc_instance(costs))
        x3, value3, bound3 = benchmark_fixed_bvc(bvc_instance(costs[:, :, [0, 1, 1]]))
        assert value3 == pytest.approx(value, rel=1e-9)
        assert abs(value3 - bound3) <= 1e-9 * value3
        assert x3[2] == 0.0 and x3.sum() == pytest.approx(1.0, abs=1e-12)

    def test_bwk_zero_budget(self):
        T = 20
        rewards = np.zeros((T, 2))
        rewards[:, 0] = 1.0
        costs = np.zeros((T, 2, 2))
        costs[:, :, 0] = 1.0  # rewarding arm always costs
        inst = BanditInstance(n=2, d=2, T=T, costs=costs,
                              norm=normalize_spec(linf(2)), rewards=rewards,
                              budget=0.0, null_action=1)
        x, opt, bound = benchmark_fixed_bwk(inst)
        assert opt == pytest.approx(0.0, abs=1e-9)
        assert bound == pytest.approx(0.0, abs=1e-9)

    def test_bwk_only_the_zero_mixture_is_feasible(self):
        """With B = 0 and every arm costly, only x = 0 is feasible, and the
        bound is exact."""
        rng = np.random.default_rng(120)
        inst = bwk_instance(rng.uniform(0.1, 1, (10, 2, 3)), rng.uniform(0, 1, (10, 3)), 0.0)
        x, value, bound = benchmark_fixed_bwk(inst)
        assert (x == 0.0).all() and value == 0.0 and bound == 0.0

    def test_bwk_zero_budget_keeps_free_arms(self):
        """At B = 0 a zero-cost arm with reward still carries the whole mixture."""
        costs = np.ones((10, 2, 3))
        costs[:, :, 1] = 0.0
        rewards = np.full((10, 3), 0.5)
        x, value, bound = benchmark_fixed_bwk(bwk_instance(costs, rewards, 0.0))
        assert x[0] == x[2] == 0.0
        assert value == pytest.approx(5.0, rel=1e-9) and bound == pytest.approx(5.0, rel=1e-9)

    def test_bwk_single_arm_linear_scaling(self):
        T = 40
        reward = 0.8
        rewards = np.full((T, 1), reward)
        costs = np.ones((T, 1, 1))
        inst = BanditInstance(n=1, d=1, T=T, costs=costs,
                              norm=normalize_spec(l1(1)), rewards=rewards,
                              budget=T / 2.0)
        x, opt, bound = benchmark_fixed_bwk(inst)
        assert x[0] == pytest.approx(0.5, rel=1e-9)
        assert opt == pytest.approx(reward * T / 2, rel=1e-9)
        assert bound == pytest.approx(reward * T / 2, rel=1e-9)

    def test_bvc_peak_memory_bounded(self):
        """The n = 4 grid this replaced peaked at about 230 MB in one batch;
        the ellipsoid keeps n-vectors and one n x n matrix."""
        rng = np.random.default_rng(96)
        inst = bvc_instance(rng.uniform(0, 1, (20, 8, 4)))
        tracemalloc.start()
        try:
            benchmark_fixed_bvc(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100e6

    def test_bwk_peak_memory_bounded(self):
        """The n = 4 grid this replaced peaked at about 630 MB in one batch."""
        rng = np.random.default_rng(97)
        inst = bwk_instance(rng.uniform(0, 1, (20, 4, 4)), rng.uniform(0, 1, (20, 4)), 8.0,
                            normalize_spec(topk(4, 2)))
        tracemalloc.start()
        try:
            benchmark_fixed_bwk(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6

    def test_projection(self):
        y = np.array([0.8, 0.3, -0.4])
        x = project_simplex(y)
        assert x.sum() == pytest.approx(1.0)
        assert (x >= 0).all()
        np.testing.assert_allclose(project_simplex(np.array([2.0, 0.0])), [1.0, 0.0])


class TestBanditIO:
    def test_roundtrip_bwk(self, tmp_path):
        rng = np.random.default_rng(11)
        T = 12
        rewards = rng.uniform(0, 1, (T, 3))
        rewards[:, 2] = 0.0
        costs = rng.uniform(0, 1, (T, 2, 3))
        costs[:, :, 2] = 0.0
        inst = BanditInstance(n=3, d=2, T=T, costs=costs,
                              norm=normalize_spec(linf(2)), rewards=rewards,
                              budget=4.0, null_action=2)
        path = str(tmp_path / "bwk.jsonl")
        atomic_write_text(path, format_bandit_instance(inst))
        back = read_bandit_instance(path)
        assert (back.n, back.d, back.T, back.budget, back.null_action) == (3, 2, T, 4.0, 2)
        np.testing.assert_allclose(back.costs, costs)
        np.testing.assert_allclose(back.rewards, rewards)

    def test_roundtrip_bvc(self, tmp_path):
        rng = np.random.default_rng(12)
        inst = bvc_instance(rng.uniform(0, 1, (6, 2, 2)))
        path = str(tmp_path / "bvc.jsonl")
        atomic_write_text(path, format_bandit_instance(inst))
        back = read_bandit_instance(path)
        assert back.rewards is None and back.budget is None

    def write_rows(self, tmp_path, rows, T):
        path = str(tmp_path / "rows.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"n": 2, "d": 1, "T": T, "norm": "linf"}) + "\n")
            for _ in range(rows):
                fh.write(json.dumps({"C": [[0.5, 0.25]]}) + "\n")
        return path

    def test_fewer_rows_than_header(self, tmp_path):
        with pytest.raises(ValueError, match="2 rows, but the header's T is 3"):
            read_bandit_instance(self.write_rows(tmp_path, 2, 3))

    def test_more_rows_than_header(self, tmp_path):
        with pytest.raises(ValueError, match="more than the header's T=3 rows"):
            read_bandit_instance(self.write_rows(tmp_path, 4, 3))

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write_rows(tmp_path, 3, 3)
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text.replace("\n", "\n\n"))
        np.testing.assert_array_equal(read_bandit_instance(path).costs, np.full((3, 1, 2), [[0.5, 0.25]]))

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            BanditInstance(n=1, d=1, T=1, costs=np.full((1, 1, 1), 2.0),
                           norm=normalize_spec(l1(1)))
        with pytest.raises(ValueError):
            BanditInstance(n=2, d=1, T=1, costs=np.ones((1, 1, 2)),
                           norm=normalize_spec(l1(1)),
                           rewards=np.zeros((1, 2)), null_action=0)

    @pytest.mark.parametrize("header, message", [
        ({"n": 2, "d": 1, "T": 0}, "T must be an integer >= 1, got 0"),
        ({"n": 0, "d": 1, "T": 1}, "n must be an integer >= 1, got 0"),
        ({"n": 2.5, "d": 1, "T": 1}, "n must be an integer >= 1, got 2.5"),
    ])
    def test_bad_sizes_rejected(self, tmp_path, header, message):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "norm": "linf"}) + "\n")
            fh.write(json.dumps({"C": [[0.5, 0.25]]}) + "\n")
        with pytest.raises(ValueError, match=message):
            read_bandit_instance(path)
        for argv in (["bvc", "run"], ["bench", "bvc"]):
            proc = subprocess.run([sys.executable, "-m", "gradnorm.cli", *argv, "--instance", path],
                                  capture_output=True, text=True)
            assert proc.returncode == 2 and message in proc.stderr and "Traceback" not in proc.stderr
