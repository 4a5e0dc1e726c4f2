"""EXP3 core, both bandit loops, and the fixed-mixture benchmarks."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import gradnorm.bandits as bd
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
    _grid_points,
    _project_capped_simplex,
    _subgradient_minimize,
)
from gradnorm.harness import atomic_write_text
from gradnorm.norms import eval_norm, eval_norm_rows, l1, linf, lp, normalize_spec, topk
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


def reference_run(instance, psi, seed, opt_bwk=None):
    """The bandit loop as first written: separate gradient and value calls, two
    surrogate values per round normalizer, and rng.choice for the draw.

    Returns the actions, probabilities and losses of the rounds played, and
    the final loads.
    """
    meta = psi.meta
    ones_norm = eval_norm(instance.norm, np.ones(instance.d))
    state = Exp3State.fresh(instance.n, instance.T)
    rng = derive_rng(seed, "bvc" if opt_bwk is None else "bwk")
    loads = np.zeros(instance.d)
    actions, probs, losses = [], [], []
    for t in range(instance.T):
        if opt_bwk is not None and eval_norm(instance.norm, loads) + instance.d > instance.budget:
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


def recursive_grid_points(n, resolution):
    """The grid as first written: lexicographic integer compositions by recursion."""

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


def whole_grid(n, resolution):
    """Every block of the streamed grid, stacked into one array."""
    grid = np.empty((math.comb(resolution + n - 1, n - 1), n))
    row = 0
    for block in _grid_points(n, resolution):
        grid[row : row + len(block)] = block
        row += len(block)
    assert row == len(grid)
    return grid


class TestGridPoints:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("resolution", [1, 2, 3, 7, 24])
    def test_equals_recursive_grid(self, n, resolution):
        expected = recursive_grid_points(n, resolution)
        grid = whole_grid(n, resolution)
        assert grid.shape == expected.shape and grid.dtype == expected.dtype
        assert (grid == expected).all()

    def test_equals_recursive_grid_at_benchmark_size(self):
        assert (whole_grid(3, 200) == recursive_grid_points(3, 200)).all()
        assert (whole_grid(4, 100) == recursive_grid_points(4, 100)).all()

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_one_block_per_head(self, n):
        blocks = list(_grid_points(n, 24))
        assert len(blocks) == 25
        for head, block in enumerate(blocks):
            assert (block[:, 0] == head / 24).all()
            assert len(block) == math.comb(24 - head + n - 2, n - 2)


def full_batch_benchmark_fixed_bvc(instance):
    """benchmark_fixed_bvc with the whole grid scored in one batch."""
    M = instance.total_costs
    f = lambda x: eval_norm(instance.norm, M @ x)
    candidates = [np.eye(instance.n)[0]]
    if instance.n <= 4:
        grid = whole_grid(instance.n, 200)
        candidates.append(grid[int(np.argmin(eval_norm_rows(instance.norm, grid @ M.T)))])
    if instance.n > 1:
        candidates.append(bd._subgradient_minimize(f, instance.n))
    best = min(candidates, key=f)
    return best, f(best)


def full_batch_benchmark_fixed_bwk(instance):
    """benchmark_fixed_bwk with the whole grid scored in one batch."""
    M, R, B = instance.total_costs, instance.total_rewards, instance.budget
    spec, n = instance.norm, instance.n
    cost = lambda x: eval_norm(spec, M @ x)
    feasible = lambda x: x if cost(x) <= B else x * (B / cost(x) if cost(x) > 0 else 0.0)
    candidates = [np.zeros(n)]
    if n <= 4:
        grid = whole_grid(n + 1, 200 if n <= 3 else 100)[:, :n]
        ok = eval_norm_rows(spec, grid @ M.T) <= B + 1e-12
        if ok.any():
            candidates.append(grid[ok][int(np.argmax(grid[ok] @ R))])
    lo, hi = 0.0, max(float(R.max()), 1.0)
    for _ in range(12):
        x_hi = bd._subgradient_minimize(
            lambda x: float(R @ x) - hi * cost(x), n, project=_project_capped_simplex, sign=-1.0
        )
        if cost(x_hi) <= B + 1e-9:
            break
        hi *= 2.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        x_mid = bd._subgradient_minimize(
            lambda x: float(R @ x) - mid * cost(x), n, project=_project_capped_simplex, sign=-1.0
        )
        candidates.append(feasible(x_mid))
        if cost(x_mid) > B:
            lo = mid
        else:
            hi = mid
    best = max(candidates, key=lambda x: float(R @ x))
    return best, float(R @ best)


def bwk_instance(costs, rewards, budget, norm=None):
    T, d, n = costs.shape
    return BanditInstance(n=n, d=d, T=T, costs=costs, norm=norm or normalize_spec(linf(d)),
                          rewards=rewards, budget=budget)


def blocks_attaining(values_per_block, best):
    return sum(1 for v in values_per_block if (v == best).any())


@pytest.fixture
def descent_never_wins(monkeypatch):
    """Descent that returns e_0 (bvc) or 0 (bwk): points that the grid beats or
    ties, so the returned mixture is the grid's choice."""
    monkeypatch.setattr(bd, "_subgradient_minimize",
                        lambda f, n, **kw: np.zeros(n) if "project" in kw else np.eye(n)[0])


class TestChunkedGrid:
    """The grid is streamed and scored one block at a time; the point and
    value stay those of one batch over the whole grid, ties included."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("norm", ["linf", "topk", "lp"])
    def test_equals_full_batch(self, n, norm):
        d = 8
        spec = {"linf": linf(d), "topk": topk(d, 3), "lp": lp(d, 2.5)}[norm]
        rng = np.random.default_rng(90 + n)
        for costs in (rng.uniform(0, 1, (30, d, n)), rng.integers(0, 2, (30, d, n)).astype(float)):
            inst = bvc_instance(costs, normalize_spec(spec))
            x, value = benchmark_fixed_bvc(inst)
            want_x, want_value = full_batch_benchmark_fixed_bvc(inst)
            assert (x == want_x).all() and value == want_value

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bvc_grid_point_equals_full_batch(self, n, descent_never_wins):
        rng = np.random.default_rng(100 + n)
        for norm in (linf(4), lp(4, 3.0)):
            costs = rng.uniform(0, 0.5, (20, 4, n))
            costs[:, :, 0] = 1.0  # e_0 costs most: the grid point is returned
            inst = bvc_instance(costs, normalize_spec(norm))
            x, value = benchmark_fixed_bvc(inst)
            want_x, want_value = full_batch_benchmark_fixed_bvc(inst)
            assert (x == want_x).all() and value == want_value
            assert n == 1 or value < eval_norm(inst.norm, inst.total_costs[:, 0])

    def test_bvc_tie_across_blocks_keeps_the_first(self, descent_never_wins):
        """||(x0 + x1, x2)||_inf is least at x2 = 1/2, in the blocks of every
        head x0 <= 1/2: the first such row, (0, 1/2, 1/2), is returned."""
        costs = np.array([[[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]])
        inst = bvc_instance(costs)
        x, value = benchmark_fixed_bvc(inst)
        assert (x == [0.0, 0.5, 0.5]).all() and value == 0.5
        want_x, want_value = full_batch_benchmark_fixed_bvc(inst)
        assert (x == want_x).all() and value == want_value
        M = inst.total_costs
        per_block = [eval_norm_rows(inst.norm, b @ M.T) for b in _grid_points(3, 200)]
        assert blocks_attaining(per_block, value) > 1

    def test_bvc_tie_within_a_block_keeps_the_first(self, descent_never_wins):
        """||x0||: every row of the head-0 block is a minimum; its first row,
        (0, 0, 1), is returned."""
        inst = bvc_instance(np.array([[[1.0, 0.0, 0.0]]]))
        x, value = benchmark_fixed_bvc(inst)
        assert (x == [0.0, 0.0, 1.0]).all() and value == 0.0
        want_x, want_value = full_batch_benchmark_fixed_bvc(inst)
        assert (x == want_x).all() and value == want_value

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bwk_equals_full_batch(self, n, descent_never_wins):
        rng = np.random.default_rng(110 + n)
        d = 1 if n == 4 else 3  # keeps the one-batch copy of the n = 4 grid small
        for norm in (linf(d), lp(d, 2.0)):
            costs = rng.uniform(0, 1, (20, d, n))
            inst = bwk_instance(costs, rng.uniform(0, 1, (20, n)), 5.0, normalize_spec(norm))
            x, value = benchmark_fixed_bwk(inst)
            want_x, want_value = full_batch_benchmark_fixed_bwk(inst)
            assert (x == want_x).all() and value == want_value
            assert value > 0.0  # the grid point, not the zero mixture

    def test_bwk_tie_across_blocks_keeps_the_first(self, descent_never_wins):
        """Reward x0 + x1 under the budget x0 + x1 <= 1/2: every head block up
        to 1/2 holds a best row; the first of them is returned."""
        costs = np.ones((2, 1, 2))
        inst = bwk_instance(costs, np.full((2, 2), 0.5), 1.0)
        x, value = benchmark_fixed_bwk(inst)
        want_x, want_value = full_batch_benchmark_fixed_bwk(inst)
        assert (x == want_x).all() and value == want_value
        assert value == pytest.approx(0.5)
        M, R = inst.total_costs, inst.total_rewards
        per_block = [np.where(eval_norm_rows(inst.norm, b[:, :2] @ M.T) <= 1.0 + 1e-12,
                              b[:, :2] @ R, -np.inf) for b in _grid_points(3, 200)]
        assert blocks_attaining(per_block, value) > 1

    def test_bwk_tie_within_a_block_keeps_the_first(self, descent_never_wins):
        """Reward x0 under the budget x0 <= 1/2: every row of the head-1/2
        block is a best row; its first, x = (1/2, 0), is returned."""
        inst = bwk_instance(np.array([[[1.0, 0.0]]]), np.array([[1.0, 0.0]]), 0.5)
        x, value = benchmark_fixed_bwk(inst)
        assert (x == [0.5, 0.0]).all() and value == 0.5
        want_x, want_value = full_batch_benchmark_fixed_bwk(inst)
        assert (x == want_x).all() and value == want_value

    def test_bwk_only_the_zero_mixture_is_feasible(self, descent_never_wins):
        """With B = 0 and every arm costly, the grid's only feasible point is
        its slack vertex x = 0 (a grid always has it)."""
        rng = np.random.default_rng(120)
        inst = bwk_instance(rng.uniform(0.1, 1, (10, 2, 3)), rng.uniform(0, 1, (10, 3)), 0.0)
        x, value = benchmark_fixed_bwk(inst)
        want_x, want_value = full_batch_benchmark_fixed_bwk(inst)
        assert (x == want_x).all() and value == want_value
        assert (x == 0.0).all() and value == 0.0

    def test_peak_memory_bounded(self):
        """n = 4 scores 1.37M grid points; one batch peaked at about 230 MB."""
        rng = np.random.default_rng(96)
        inst = bvc_instance(rng.uniform(0, 1, (20, 8, 4)))
        tracemalloc.start()
        try:
            benchmark_fixed_bvc(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100e6

    def test_bwk_peak_memory_bounded(self, descent_never_wins):
        """n = 4 scores 4.6M grid points; one batch peaked at about 630 MB.
        The stubbed descent only keeps the traced run short: it allocates
        n-vectors."""
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


class TestBenchmarks:
    def test_bvc_single_action(self):
        rng = np.random.default_rng(8)
        inst = bvc_instance(rng.uniform(0, 1, (20, 3, 1)))
        x, value = benchmark_fixed_bvc(inst)
        np.testing.assert_allclose(x, [1.0])
        assert value == pytest.approx(eval_norm(inst.norm, inst.total_costs[:, 0]))

    def test_bvc_symmetric_two_arm(self):
        T = 30
        costs = np.zeros((T, 2, 2))
        costs[:, 0, 0] = 1.0
        costs[:, 1, 1] = 1.0
        inst = bvc_instance(costs)
        x, value = benchmark_fixed_bvc(inst)
        e1_value = eval_norm(inst.norm, inst.total_costs[:, 0])
        assert value <= e1_value + 1e-9
        assert value == pytest.approx(T / 2, rel=0.01)

    def test_bvc_grid_and_descent_agree(self):
        rng = np.random.default_rng(9)
        inst = bvc_instance(rng.uniform(0, 1, (20, 3, 3)))
        M = inst.total_costs
        f = lambda x: eval_norm(inst.norm, M @ x)
        grid = whole_grid(3, 200)
        grid_best = min(f(g) for g in grid[np.random.default_rng(0).choice(len(grid), 4000)])
        grid_best = min(grid_best, float(min(f(g) for g in grid[::7])))
        pgd = f(_subgradient_minimize(f, 3))
        full_grid = min(f(g) for g in grid[:: max(1, len(grid) // 20000)])
        assert abs(pgd - full_grid) <= 0.01 * max(full_grid, 1e-9)

    def test_bwk_zero_budget(self):
        T = 20
        rewards = np.zeros((T, 2))
        rewards[:, 0] = 1.0
        costs = np.zeros((T, 2, 2))
        costs[:, :, 0] = 1.0  # rewarding arm always costs
        inst = BanditInstance(n=2, d=2, T=T, costs=costs,
                              norm=normalize_spec(linf(2)), rewards=rewards,
                              budget=0.0, null_action=1)
        x, opt = benchmark_fixed_bwk(inst)
        assert opt == pytest.approx(0.0, abs=1e-9)

    def test_bwk_single_arm_linear_scaling(self):
        T = 40
        reward = 0.8
        rewards = np.full((T, 1), reward)
        costs = np.ones((T, 1, 1))
        inst = BanditInstance(n=1, d=1, T=T, costs=costs,
                              norm=normalize_spec(l1(1)), rewards=rewards,
                              budget=T / 2.0)
        x, opt = benchmark_fixed_bwk(inst)
        assert x[0] == pytest.approx(0.5, abs=0.01)
        assert opt == pytest.approx(reward * T / 2, rel=0.01)

    def test_bwk_grid_and_bisection_agree(self):
        rng = np.random.default_rng(10)
        T = 25
        rewards = rng.uniform(0, 1, (T, 3))
        costs = rng.uniform(0, 1, (T, 2, 3))
        inst = BanditInstance(n=3, d=2, T=T, costs=costs,
                              norm=normalize_spec(linf(2)), rewards=rewards,
                              budget=0.4 * T)
        x, opt = benchmark_fixed_bwk(inst)
        # exhaustive check on the certified grid
        grid = whole_grid(4, 100)[:, :3]
        feasible = eval_norm_rows(inst.norm, grid @ inst.total_costs.T) <= inst.budget
        grid_opt = float((grid[feasible] @ inst.total_rewards).max())
        assert opt >= grid_opt * 0.99
        assert eval_norm(inst.norm, inst.total_costs @ x) <= inst.budget + 1e-9

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
