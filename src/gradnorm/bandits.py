"""Adversarial bandits with vector costs and with knapsack budgets.

Both problems run one round loop: an importance-weighted exponential-weights
learner (EXP3) over scalarized per-round feedback.  The vector-cost problem
feeds losses that linearize the surrogate of the accumulated cost through its
gradient, normalized by a per-round upper bound so they land in [0, 1].  The
knapsack variant mixes reward and scaled gradient-cost into one gain and keeps
the budget as a hard constraint: play stops once ||loads|| + ||1|| > B (for a
monotone norm, one step of cost in [0, 1]^d adds at most ||1||), and only the
null action is played after that.

Offline benchmarks optimize a fixed mixture over actions, the benchmark the
regret bounds are stated against.  One central-cut ellipsoid loop solves both
over the capped simplex, cutting with exact subgradients from
``norms.norm_subgradient``.  Each returns a feasible mixture, its value and
a bound on the optimum on the other side, closed to a relative 1e-9 unless
the cut cap derived from n runs out first.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .approx.base import GradStableApprox
from .norms import NormSpec, eval_norm, format_norm_spec, norm_subgradient, normalize_spec, parse_norm_spec
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
        self.check_sizes(self.n, self.d, self.T)
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

    @staticmethod
    def check_sizes(n, d, T) -> None:
        """Raise ValueError unless n, d and T are integers >= 1."""
        for name, size in (("n", n), ("d", d), ("T", T)):
            if isinstance(size, bool) or not isinstance(size, (int, np.integer)) or size < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {size!r}")

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

_BRACKET_TOL = 1e-9  # relative width of a closed benchmark bracket


def project_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1} (sort-based)."""
    u = np.sort(y)[::-1]
    cum = (np.cumsum(u) - 1.0) / np.arange(1, len(y) + 1)
    rho = np.nonzero(u > cum)[0][-1]
    return np.maximum(y - cum[rho], 0.0)


def _merge_columns(M: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Sorted indices of one column per distinct column of M, the first in
    ``order``: identical columns are one action to a fixed mixture."""
    return np.sort(order[np.unique(M.T[order], axis=0, return_index=True)[1]])


def _ellipsoid(
    m: int,
    oracle: Callable[[np.ndarray], tuple[float | None, np.ndarray]],
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, float, float]:
    """Central-cut ellipsoid minimization over K = {z in R^m : z >= 0, sum z <= 1}.

    At a centre z in K, ``oracle(z)`` returns the objective and a subgradient
    g at a feasible z, or ``None`` and a g with g . (z* - z) <= 0 at every
    feasible z*.  The ellipsoid {c + J w : |w| <= 1} keeps every optimum, so
    the last feasible (value, g, z), or the feasible ``start``, bounds the
    optimum from below by value + g . (c - z) - |J'g|.  Returns the best
    feasible point, its value and that bound, once they are within
    ``_BRACKET_TOL`` relative or after enough cuts to shrink the volume by
    ``_BRACKET_TOL ** (m + 2)``.
    """
    c, J = np.full(m, 1.0 / (m + 1)), np.eye(m)  # the unit ball around c holds K
    grow = m / math.sqrt(m * m - 1.0) if m > 1 else 0.5
    squash = 1.0 - math.sqrt((m - 1.0) / (m + 1.0)) if m > 1 else 0.0
    best, best_z, cut, lower = math.inf, None, None, -math.inf
    if start is not None:
        best, g = oracle(start)
        best_z, cut = start, (best, g, start)
    for _ in range(math.ceil(2 * (m + 1) * (m + 2) * math.log(1.0 / _BRACKET_TOL))):
        g = float(c.sum() > 1.0) - (c < 0.0)  # normals of the sides of K that c violates
        if not g.any():
            value, g = oracle(c)
            if value is not None:
                if value < best:
                    best, best_z = value, c
                cut = (value, g, c)
        if cut is not None:
            value, h, z = cut
            lower = max(lower, value + float(h @ (c - z)) - float(np.linalg.norm(J.T @ h)))
            if best - lower <= _BRACKET_TOL * max(1.0, abs(best)):
                break
        Jg = J.T @ g
        width = float(np.linalg.norm(Jg))
        if not width > 0.0:  # the ellipsoid is flat along g
            break
        p = Jg / width
        Jp = J @ p
        c = c - Jp / (m + 1)
        J = grow * (J - squash * np.outer(Jp, p))
    return best_z, best, lower


def benchmark_fixed_bvc(instance: BanditInstance) -> tuple[np.ndarray, float, float]:
    """Best fixed action mixture for vector costs: min ||sum_t C_t x|| on the simplex.

    Returns x, ``value = ||M x||`` and a certified ``bound`` <= the optimum.
    The ellipsoid runs on y, with x = (y, 1 - sum y) over the distinct
    columns, and cuts with M'u for the norm's dual maximizer u at M x.
    """
    M = instance.total_costs
    spec = instance.norm
    keep = _merge_columns(M, np.arange(instance.n))
    head, last = keep[:-1], keep[-1]

    def embed(y: np.ndarray) -> np.ndarray:
        x = np.zeros(instance.n)
        x[head] = y
        x[last] = 1.0 - y.sum()
        return x

    def oracle(y: np.ndarray) -> tuple[float, np.ndarray]:
        v = M @ embed(y)
        g = M.T @ norm_subgradient(spec, v)
        return eval_norm(spec, v), g[head] - g[last]

    y, value, bound = _ellipsoid(len(head), oracle)
    return embed(y), value, bound


def benchmark_fixed_bwk(instance: BanditInstance) -> tuple[np.ndarray, float, float]:
    """Best fixed mixture for knapsacks: max sum_t <r_t, x> s.t. ||sum_t C_t x|| <= B
    over x >= 0, sum x <= 1.

    Returns a feasible x, ``value = <R, x>`` and a certified ``bound`` >= the
    optimum.  Over the distinct columns that can help, the ellipsoid cuts
    with M'u at centres over budget and with R at feasible ones.
    """
    if instance.rewards is None:
        raise ValueError("knapsack benchmark needs rewards")
    if instance.budget is None or instance.budget < 0:
        raise ValueError("knapsack benchmark needs B >= 0")
    M = instance.total_costs
    R = instance.total_rewards
    B = float(instance.budget)
    spec = instance.norm
    keep = _merge_columns(M, np.argsort(-R, kind="stable"))  # the best-paid of each
    keep = keep[R[keep] > 0.0]  # a column without reward only adds cost
    if B == 0.0:  # no interior: only a zero-cost column can carry weight
        keep = keep[~M[:, keep].any(axis=0)]

    def embed(z: np.ndarray) -> np.ndarray:
        x = np.zeros(instance.n)
        x[keep] = z
        return x

    def oracle(z: np.ndarray) -> tuple[float | None, np.ndarray]:
        x = embed(z)
        v = M @ x
        if eval_norm(spec, v) > B:
            return None, (M.T @ norm_subgradient(spec, v))[keep]
        return -float(R @ x), -R[keep]

    z, _, lower = _ellipsoid(len(keep), oracle, start=np.zeros(len(keep)))
    x = embed(z)
    return x, float(R @ x), 0.0 - lower  # 0.0 - keeps a zero bound from printing as -0


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
        BanditInstance.check_sizes(n, d, T)
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
