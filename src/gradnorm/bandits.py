"""Adversarial bandits with vector costs and with knapsack budgets.

Both problems run one round loop: an importance-weighted exponential-weights
learner (EXP3) over scalarized per-round feedback.  The vector-cost problem
feeds losses that linearize the surrogate of the accumulated cost through its
gradient, normalized by a per-round upper bound so they land in [0, 1].  The
knapsack variant mixes reward and scaled gradient-cost into one gain and keeps
the budget as a hard constraint: play stops once ||loads|| + ||1|| > B (for a
monotone norm, one step of cost in [0, 1]^d adds at most ||1||), and only the
null action is played after that.

Offline benchmarks optimize a fixed mixture over actions: a simplex grid
cross-checked against projected (sub/super)gradient descent, so reported
values are certified by feasible points.  The grid is streamed one block at
a time and each block is scored as it comes, keeping the first best point,
so no benchmark holds the whole grid.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement
from typing import Callable, Iterator

import numpy as np

from .approx.base import GradStableApprox
from .norms import NormSpec, eval_norm, eval_norm_rows, format_norm_spec, normalize_spec, parse_norm_spec
from .seeding import derive_rng

__all__ = [
    "BanditInstance",
    "BanditTrace",
    "Exp3State",
    "exp3_sample",
    "exp3_update",
    "bvc_run",
    "bwk_run",
    "benchmark_fixed_bvc",
    "benchmark_fixed_bwk",
    "project_simplex",
    "read_bandit_instance",
    "format_bandit_instance",
]


@dataclass
class BanditInstance:
    n: int
    d: int
    T: int
    costs: np.ndarray  # (T, d, n) in [0, 1]
    norm: NormSpec
    rewards: np.ndarray | None = None  # (T, n) in [0, 1]; None for vector costs
    budget: float | None = None
    null_action: int | None = None

    def __post_init__(self):
        if self.costs.shape != (self.T, self.d, self.n):
            raise ValueError(f"costs must be (T={self.T}, d={self.d}, n={self.n})")
        if not (self.costs >= 0).all() or not (self.costs <= 1).all():  # NaN fails too
            raise ValueError("cost entries must lie in [0, 1]")
        if self.rewards is not None:
            if self.rewards.shape != (self.T, self.n):
                raise ValueError(f"rewards must be (T={self.T}, n={self.n})")
            if not (self.rewards >= 0).all() or not (self.rewards <= 1).all():
                raise ValueError("reward entries must lie in [0, 1]")
        if self.budget is not None and not math.isfinite(self.budget):
            raise ValueError(f"budget must be finite, got {self.budget}")
        if self.null_action is not None:
            a = self.null_action
            if not 0 <= a < self.n:
                raise ValueError(f"null action {a} out of range")
            if self.costs[:, :, a].any():
                raise ValueError("null action must have zero cost")
            if self.rewards is not None and self.rewards[:, a].any():
                raise ValueError("null action must have zero reward")

    @property
    def total_costs(self) -> np.ndarray:
        """(d, n) summed cost matrix."""
        return self.costs.sum(axis=0)

    @property
    def total_rewards(self) -> np.ndarray:
        return self.rewards.sum(axis=0)


@dataclass
class BanditTrace:
    actions: np.ndarray  # (T,)
    probs: np.ndarray  # (T,) sampling probability of the played action
    losses: np.ndarray  # (T,) loss fed to the learner (nan after a stop)
    final_cost: np.ndarray  # (d,)
    final_norm: float
    total_reward: float
    stopped_at: int  # first all-null round for budgeted runs, else T


# --- EXP3 core ----------------------------------------------------------------


@dataclass
class Exp3State:
    weights: np.ndarray
    eta: float
    phi: float  # uniform exploration mix

    @classmethod
    def fresh(cls, n: int, horizon: int):
        eta = math.sqrt(math.log(max(n, 2)) / (horizon * n))
        phi = min(1.0, math.sqrt(n * math.log(max(n, 2)) / horizon))
        return cls(weights=np.ones(n), eta=eta, phi=phi)

    def distribution(self) -> np.ndarray:
        w = self.weights / self.weights.sum()
        return (1.0 - self.phi) * w + self.phi / len(self.weights)


_PROB_SUM_TOL = math.sqrt(np.finfo(np.float64).eps)


def exp3_sample(state: Exp3State, rng: np.random.Generator) -> tuple[int, float]:
    """One draw from the EXP3 distribution, by inverse CDF.

    The same draw from the same stream as ``rng.choice(n, p=p)``: one
    ``rng.random()`` looked up in the normalized cumulative sum, and the same
    validation of ``p``.
    """
    p = state.distribution()
    if not p.min() >= 0.0:  # NaN fails too
        raise ValueError(f"probabilities must be non-negative numbers, got {p}")
    cdf = p.cumsum()
    total = float(cdf[-1])
    if not abs(total - 1.0) <= _PROB_SUM_TOL:
        raise ValueError(f"probabilities must sum to 1, got {p}")
    cdf /= total
    a = int(cdf.searchsorted(rng.random(), side="right"))
    return a, float(p[a])


def exp3_update(state: Exp3State, action: int, prob: float, loss: float) -> Exp3State:
    """Importance-weighted update; ``loss`` must already be normalized to [0, 1]."""
    if not 0.0 <= loss <= 1.0:
        raise ValueError(f"loss must be in [0, 1], got {loss}")
    state.weights[action] *= math.exp(-state.eta * loss / prob)
    peak = state.weights.max()
    if peak < 1e-100:  # keep weights representable over long horizons
        state.weights /= peak
    return state


# --- per-round scalarization ---------------------------------------------------


def _inflation(psi: GradStableApprox, ones_norm: float) -> float:
    """Gradient-stability factor of the all-ones step, fixed for a run."""
    meta = psi.meta
    return math.exp(min(meta.stability_scale * meta.epsilon * ones_norm + meta.delta, 30.0))


def _round_normalizer(
    psi: GradStableApprox, loads: np.ndarray, value: float, inflate: float
) -> float:
    """Upper bound on <grad psi(loads), c> over cost columns c in [0,1]^d.

    Chord bound from ``value = psi(loads)`` inflated by ``_inflation``, so the
    bound holds for the declared surrogate class as a whole.
    """
    chord = psi.value(loads + 1.0) - value
    return max(chord * inflate, 1e-12)


def _play(
    instance: BanditInstance,
    psi: GradStableApprox,
    seed: int,
    scalarize: Callable[[int, int, float, float], float],
    budget: float | None = None,
) -> BanditTrace:
    """The EXP3 round loop of both problems: each round draws an action, feeds
    ``scalarize(t, action, <grad psi(loads), column>, normalizer)`` to the learner
    and adds the column to the loads.  With a ``budget``, play stops at the first
    round where ``||loads|| + ||1|| > budget``, and every later round plays the null
    action with probability 1 and a NaN loss.
    """
    if psi.dim != instance.d:
        raise ValueError("surrogate dimension must match the cost dimension")
    T = instance.T
    ones_norm = eval_norm(instance.norm, np.ones(instance.d))
    inflate = _inflation(psi, ones_norm)
    state = Exp3State.fresh(instance.n, T)
    rng = derive_rng(seed, "bvc" if budget is None else "bwk")
    loads = np.zeros(instance.d)
    actions = np.empty(T, dtype=np.int64)
    probs = np.empty(T)
    losses = np.empty(T)
    rewards = instance.rewards
    total_reward = 0.0
    stopped_at = T
    for t in range(T):
        if budget is not None and eval_norm(instance.norm, loads) + ones_norm > budget:
            stopped_at = t
            actions[t:] = instance.null_action
            probs[t:] = 1.0
            losses[t:] = np.nan
            break
        value, grad = psi.value_and_grad(loads)
        norm_bound = _round_normalizer(psi, loads, value, inflate)
        a, p = exp3_sample(state, rng)
        column = instance.costs[t, :, a]
        loss = scalarize(t, a, float(grad @ column), norm_bound)
        exp3_update(state, a, p, loss)
        loads += column
        if rewards is not None:
            total_reward += float(rewards[t, a])
        actions[t] = a
        probs[t] = p
        losses[t] = loss
    return BanditTrace(
        actions=actions,
        probs=probs,
        losses=losses,
        final_cost=loads,
        final_norm=eval_norm(instance.norm, loads),
        total_reward=total_reward,
        stopped_at=stopped_at,
    )


def bvc_run(instance: BanditInstance, psi: GradStableApprox, seed: int = 0) -> BanditTrace:
    """Bandits with vector costs: minimize the norm of the accumulated cost."""
    if instance.rewards is not None:
        raise ValueError("vector-cost instance must not carry rewards")
    return _play(instance, psi, seed, lambda t, a, dot, bound: min(max(dot / bound, 0.0), 1.0))


def bwk_run(
    instance: BanditInstance,
    psi: GradStableApprox,
    opt_bwk: float,
    seed: int = 0,
    allow_small_budget: bool = False,
) -> BanditTrace:
    """Bandits with knapsacks: maximize reward subject to norm(total cost) <= B.

    The budget is enforced unconditionally: play stops (null action forever)
    as soon as one more worst-case step could overflow it.
    """
    if instance.rewards is None:
        raise ValueError("knapsack instance needs rewards")
    if instance.null_action is None:
        raise ValueError("knapsack instance needs a null action")
    if instance.budget is None or instance.budget <= 0.0:
        raise ValueError("knapsack instance needs a positive budget")
    if opt_bwk <= 0.0:
        raise ValueError("opt_bwk must be positive")
    B = float(instance.budget)
    meta = psi.meta
    required = 4.0 * (meta.alpha + meta.gamma) * eval_norm(instance.norm, np.ones(instance.d))
    if B < required:
        msg = f"budget {B:g} below the analyzed regime 4*(alpha+gamma)*||1|| = {required:g}"
        if allow_small_budget:
            warnings.warn(msg, RuntimeWarning, stacklevel=2)
        else:
            raise ValueError(msg + " (pass allow_small_budget=True to run anyway)")
    Z = opt_bwk / B

    def loss(t: int, a: int, dot: float, bound: float) -> float:
        gain = float(instance.rewards[t, a]) - Z * dot / bound
        return (1.0 - min(max(gain, -1.0), 1.0)) / 2.0

    return _play(instance, psi, seed, loss, budget=B)


# --- offline fixed-mixture benchmarks -----------------------------------------


def project_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1} (sort-based)."""
    u = np.sort(y)[::-1]
    cum = (np.cumsum(u) - 1.0) / np.arange(1, len(y) + 1)
    rho = np.nonzero(u > cum)[0][-1]
    return np.maximum(y - cum[rho], 0.0)


def _project_capped_simplex(y: np.ndarray) -> np.ndarray:
    """Projection onto {x >= 0, sum x <= 1}."""
    x = np.maximum(y, 0.0)
    return x if x.sum() <= 1.0 else project_simplex(y)


def _grid_points(n: int, resolution: int) -> Iterator[np.ndarray]:
    """Integer-composition grid on the unit simplex, exact and duplicate-free,
    yielded as one block of rows per value of the first part.

    Rows are the compositions of ``resolution`` into n nonnegative parts in
    lexicographic order, divided by ``resolution``.  After a head value h,
    the other n - 1 parts are the gaps between 0, n - 2 nondecreasing cut
    points in [0, rest] (rest = resolution - h) and rest.
    ``combinations_with_replacement`` yields the cut points in lexicographic
    order, and lexicographic cut points give lexicographic gaps.  A block has
    at most comb(resolution + n - 2, n - 2) rows.
    """
    if n == 1:
        yield np.ones((1, 1))
        return
    for head in range(resolution + 1):
        rest = resolution - head
        rows = math.comb(rest + n - 2, n - 2)
        block = np.empty((rows, n))
        block[:, 0] = head
        if n == 2:
            block[:, 1] = rest
        else:
            cuts = np.fromiter(
                chain.from_iterable(combinations_with_replacement(range(rest + 1), n - 2)),
                dtype=np.int64,
                count=rows * (n - 2),
            ).reshape(rows, n - 2)
            block[:, 1] = cuts[:, 0]
            np.subtract(cuts[:, 1:], cuts[:, :-1], out=block[:, 2:-1])
            np.subtract(rest, cuts[:, -1], out=block[:, -1])
        block /= resolution
        yield block


def _subgradient_minimize(
    f: Callable[[np.ndarray], float],
    n: int,
    project: Callable[[np.ndarray], np.ndarray] = project_simplex,
    sign: float = 1.0,
) -> np.ndarray:
    """Projected subgradient descent (ascent for sign=-1) with c/sqrt(t) steps, 500 of them."""
    x = project(np.full(n, 1.0 / n))
    best_x, best_v = x.copy(), f(x)
    verts = [f(project(np.eye(n)[j])) for j in range(n)]
    step0 = max(max(abs(v) for v in verts), 1.0)
    h = 1e-6
    for it in range(1, 501):
        g = np.zeros(n)
        fx = f(x)
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            g[j] = (f(x + e) - fx) / h
        gn = np.linalg.norm(g)
        if gn < 1e-14:
            break
        x = project(x - sign * (step0 / (gn * math.sqrt(it))) * 0.5 * g)
        v = f(x)
        if sign * v < sign * best_v:
            best_x, best_v = x.copy(), v
        if it % 50 == 0:
            x = 0.5 * (x + best_x)  # mild restart toward the incumbent
    return best_x


def benchmark_fixed_bvc(instance: BanditInstance) -> tuple[np.ndarray, float]:
    """Best fixed action mixture for vector costs: min ||sum_t C_t x|| on the simplex.

    Grid search at resolution 1/200 for n <= 4, projected subgradient descent
    otherwise; when both run, the better point wins.  The grid is scored one
    block at a time and its first minimum is kept.  The returned value is
    exact for the returned mixture.
    """
    M = instance.total_costs
    spec = instance.norm

    def f(x: np.ndarray) -> float:
        return eval_norm(spec, M @ x)

    candidates = [np.eye(instance.n)[0]]
    if instance.n <= 4:
        best_v, best_x = math.inf, None
        for block in _grid_points(instance.n, 200):
            vals = eval_norm_rows(spec, block @ M.T)
            j = int(np.argmin(vals))
            if vals[j] < best_v:
                best_v, best_x = vals[j], block[j]
        candidates.append(best_x)
    if instance.n > 1:
        candidates.append(_subgradient_minimize(f, instance.n))
    best = min(candidates, key=f)
    return best, f(best)


def benchmark_fixed_bwk(instance: BanditInstance) -> tuple[np.ndarray, float]:
    """Best fixed mixture for knapsacks: max sum_t <r_t, x> s.t. ||sum_t C_t x|| <= B.

    Solved by bisection on a Lagrangian penalty around projected supergradient
    ascent, cross-checked for small n by a grid scored one block at a time,
    keeping its first feasible maximum.  Infeasible iterates are
    scaled back onto the budget surface (the constraint is homogeneous in x),
    so every candidate is feasible and the reported value is a certified
    lower bound on the optimum.
    """
    if instance.rewards is None:
        raise ValueError("knapsack benchmark needs rewards")
    if instance.budget is None or instance.budget < 0:
        raise ValueError("knapsack benchmark needs B >= 0")
    M = instance.total_costs
    R = instance.total_rewards
    B = float(instance.budget)
    spec = instance.norm
    n = instance.n

    def cost(x: np.ndarray) -> float:
        return eval_norm(spec, M @ x)

    def feasible(x: np.ndarray) -> np.ndarray:
        c = cost(x)
        return x if c <= B else x * (B / c if c > 0 else 0.0)

    candidates = [np.zeros(n)]
    if n <= 4:
        resolution = 200 if n <= 3 else 100
        best_r, best_x = -math.inf, None
        for block in _grid_points(n + 1, resolution):  # a slack coordinate allows sum < 1
            feasible_rows = block[eval_norm_rows(spec, block[:, :n] @ M.T) <= B + 1e-12, :n]
            if len(feasible_rows):
                rewards = feasible_rows @ R
                j = int(np.argmax(rewards))
                if rewards[j] > best_r:
                    best_r, best_x = rewards[j], feasible_rows[j]
        candidates.append(best_x)  # x = 0, the slack vertex, is always feasible
    lo, hi = 0.0, max(float(R.max()), 1.0)
    for _ in range(12):  # make sure the penalty cap actually binds the constraint
        x_hi = _subgradient_minimize(
            lambda x: float(R @ x) - hi * cost(x), n, project=_project_capped_simplex, sign=-1.0
        )
        if cost(x_hi) <= B + 1e-9:
            break
        hi *= 2.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        x_mid = _subgradient_minimize(
            lambda x: float(R @ x) - mid * cost(x), n, project=_project_capped_simplex, sign=-1.0
        )
        candidates.append(feasible(x_mid))
        if cost(x_mid) > B:
            lo = mid
        else:
            hi = mid
    best = max(candidates, key=lambda x: float(R @ x))
    return best, float(R @ best)


# --- instance files (JSON lines) ----------------------------------------------


def format_bandit_instance(instance: BanditInstance) -> str:
    header: dict = {
        "n": instance.n,
        "d": instance.d,
        "T": instance.T,
        "norm": format_norm_spec(instance.norm),
    }
    if instance.budget is not None:
        header["B"] = instance.budget
    if instance.null_action is not None:
        header["null"] = instance.null_action
    lines = [json.dumps(header, sort_keys=True)]
    for t in range(instance.T):
        row: dict = {"C": instance.costs[t].tolist()}
        if instance.rewards is not None:
            row["r"] = instance.rewards[t].tolist()
        lines.append(json.dumps(row, sort_keys=True))
    return "\n".join(lines) + "\n"


def read_bandit_instance(path: str) -> BanditInstance:
    """Parse a JSON-lines instance one row at a time into its arrays."""
    with open(path) as fh:
        lines = (line for line in (raw.strip() for raw in fh) if line)
        first = next(lines, None)
        if first is None:
            raise ValueError(f"empty instance file {path}")
        header = json.loads(first)
        n, d, T = header["n"], header["d"], header["T"]
        costs = np.empty((T, d, n))
        rewards = None
        rows = 0
        for line in lines:
            if rows == T:
                raise ValueError(f"{path}: more than the header's T={T} rows")
            row = json.loads(line)
            if rows == 0 and "r" in row:
                rewards = np.empty((T, n))
            costs[rows] = row["C"]
            if rewards is not None:
                rewards[rows] = row["r"]
            rows += 1
    if rows != T:
        raise ValueError(f"{path}: {rows} rows, but the header's T is {T}")
    return BanditInstance(
        n=n,
        d=d,
        T=T,
        costs=costs,
        norm=normalize_spec(parse_norm_spec(header["norm"], dim=d)),
        rewards=rewards,
        budget=header.get("B"),
        null_action=header.get("null"),
    )
