"""Empirical property checks for gradient-stable surrogates.

Each check samples randomized probes (reproducibly, from a seed), evaluates
the claimed inequality, and returns a machine-readable ``CheckReport`` with
the worst observed margin and a witness input.  Deterministic surrogates are
held to an absolute tolerance; Monte-Carlo ones get three standard errors of
paired-sample slack.  These checks stand in for analytic proofs: declared
metadata that fails here is wrong, not unlucky.

Every check keeps its own trial body (random streams, draw order, margin
formulas) and feeds each margin to one ``_Tally``, which refuses fewer than
one trial (no trial is no evidence), counts violations and keeps the worst
margin with its tolerance and witness.  A report's
``tolerance`` is the tolerance applied at the worst margin for the
gradient-stability and sandwich checks (``abs_tol``, or three standard
errors where larger), ``abs_tol`` for the smooth-game and structure checks,
and the base relative tolerance for the converse-Jensen check (each trial
scales it by ``max(1, |rise|)``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .approx.base import GradStableApprox
from .norms import NormSpec, eval_norm
from .seeding import derive_rng

__all__ = [
    "CheckReport",
    "SmoothGameParams",
    "check_gradient_stability",
    "check_sandwich",
    "check_smooth_game",
    "check_converse_jensen",
    "check_structure",
]


@dataclass
class CheckReport:
    name: str
    trials: int
    violations: int
    worst_margin: float
    witness: dict
    tolerance: float
    passed: bool
    seed: int
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return _jsonable(asdict(self))


class _Tally:
    """Violation count, and the worst margin with its tolerance and witness."""

    def __init__(self, tolerance: float, trials: int):
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials!r}")
        self.trials = trials
        self.violations = 0
        self.worst = math.inf
        self.tolerance = tolerance
        self.witness: dict = {}

    def add(self, margin, tol, witness: Callable[[], dict], violated: bool | None = None) -> None:
        """Count ``margin < -tol`` (or ``violated``); ``witness()`` runs on a new worst."""
        if margin < -tol if violated is None else violated:
            self.violations += 1
        if margin < self.worst:
            self.worst = float(margin)
            self.tolerance = tol
            self.witness = witness()

    def report(self, name: str, seed: int, extra: dict | None = None,
               tolerance: float | None = None) -> CheckReport:
        return CheckReport(
            name=name,
            trials=self.trials,
            violations=self.violations,
            worst_margin=self.worst,
            witness=self.witness,
            tolerance=self.tolerance if tolerance is None else tolerance,
            passed=self.violations == 0,
            seed=seed,
            extra={} if extra is None else extra,
        )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


@dataclass
class SmoothGameParams:
    lam: float
    mu: float
    horizon: int
    step_cap: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.mu < 1.0:
            raise ValueError(f"mu must be in [0, 1), got {self.mu}")
        if self.lam <= 0.0 or self.horizon < 1:
            raise ValueError("need lam > 0 and horizon >= 1")


def _sample_point(rng: np.random.Generator, dim: int, epsilon: float) -> np.ndarray:
    """Mixed-scale probe: exponential coordinates at 0.1/eps, 1/eps or 10/eps."""
    scale = rng.choice([0.1, 1.0, 10.0]) / epsilon
    x = rng.exponential(scale, dim)
    if rng.random() < 0.3:
        x[rng.random(dim) < 0.5] = 0.0
    return x


def _sample_increment(
    rng: np.random.Generator,
    dim: int,
    cap: float,
    norm_of: Callable[[np.ndarray], float],
    x: np.ndarray,
    spike_ranks: Sequence[int] | None,
) -> np.ndarray:
    """Random / dense / rank-boundary-spike increments with norm at most cap."""
    u = cap * (0.05 + 0.95 * rng.random())
    mode = rng.integers(3)
    if mode == 0:
        y = rng.exponential(1.0, dim)
        if rng.random() < 0.5:
            y[rng.random(dim) < 0.5] = 0.0
    elif mode == 1:
        y = np.ones(dim)
    else:
        if spike_ranks:
            rank = int(rng.choice(np.asarray(spike_ranks)))
        else:
            rank = int(rng.integers(1, dim + 1))
        rank = min(max(rank, 1), dim)
        target = np.argsort(-x, kind="stable")[rank - 1]
        y = np.zeros(dim)
        y[target] = 1.0
    n = norm_of(y)
    return y * (u / n) if n > 0 else y


def check_gradient_stability(
    approx: GradStableApprox,
    norm: NormSpec | None = None,
    *,
    delta: float | None = None,
    trials: int = 1000,
    y_cap: float = 1.0,
    abs_tol: float = 1e-9,
    spike_ranks: Sequence[int] | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> CheckReport:
    """Coordinate-wise grad(x+y) >= exp(-eps*||y|| - delta) * grad(x).

    ``||y||`` is the approximated norm itself (``norm`` defaults to the
    surrogate's own declaration), and eps is the declared stability scale.
    Trials derive independent streams from (seed, index), so running them on
    ``jobs`` threads changes nothing but the wall time.
    """
    spec = norm if norm is not None else approx.norm_spec()
    if spec is None:
        raise ValueError("no norm spec available for the stability exponent")
    meta = approx.meta
    dlt = meta.delta if delta is None else delta
    eps_stab = meta.epsilon * meta.stability_scale
    dim = approx.dim
    norm_of = lambda v: eval_norm(spec, v)

    def one_trial(t: int):
        rng = derive_rng(seed, "stability", t)
        x = _sample_point(rng, dim, meta.epsilon)
        y = _sample_increment(rng, dim, y_cap, norm_of, x, spike_ranks)
        coeff = math.exp(-eps_stab * norm_of(y) - dlt)
        margin, se = approx.pair_margin_stats(x, y, 1.0, coeff)
        tol = np.maximum(abs_tol, 3.0 * se)
        i = int(np.argmin(margin))
        return bool((margin < -tol).any()), float(margin[i]), float(tol[i]), i, x, y, coeff

    tally = _Tally(abs_tol, trials)
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(one_trial, range(trials)))
    else:
        results = [one_trial(t) for t in range(trials)]

    for t, (bad, margin_min, tol_min, i, x, y, coeff) in enumerate(results):
        tally.add(margin_min, tol_min, violated=bad,
                  witness=lambda: {"x": x, "y": y, "coordinate": i, "coeff": coeff, "trial": t})
    return tally.report("gradient-stability", seed,
                        {"delta": dlt, "stability_epsilon": eps_stab, "y_cap": y_cap})


def check_sandwich(
    approx: GradStableApprox,
    spec: NormSpec | None = None,
    alpha: float | None = None,
    gamma: float | None = None,
    *,
    trials: int = 1000,
    abs_tol: float = 1e-9,
    seed: int = 0,
) -> CheckReport:
    """lower_scale*||x|| <= value(x) <= alpha*||x|| + gamma/eps on sampled x."""
    spec = spec if spec is not None else approx.norm_spec()
    if spec is None:
        raise ValueError("no norm spec to sandwich against")
    meta = approx.meta
    a = meta.alpha if alpha is None else alpha
    g = meta.gamma if gamma is None else gamma
    additive = g / meta.epsilon
    low = meta.lower_scale

    tally = _Tally(abs_tol, trials)
    for t in range(trials):
        rng = derive_rng(seed, "sandwich", t)
        x = _sample_point(rng, approx.dim, meta.epsilon)
        n = eval_norm(spec, x)
        v, se = approx.value_stats(x)
        tol = max(abs_tol, 3.0 * se)
        lower_margin = v - low * n
        upper_margin = (a * n + additive) - v
        for margin, side in ((lower_margin, "lower"), (upper_margin, "upper")):
            tally.add(margin, tol,
                      lambda: {"x": x, "side": side, "value": v, "norm": n, "trial": t})
    return tally.report("sandwich", seed, {"alpha": a, "gamma": g, "lower_scale": low})


def _increasing_sequences(
    rng: np.random.Generator, horizon: int, dim: int, cap: float, norm_of
) -> np.ndarray:
    """(T, d) non-negative increments, each with norm at most cap."""
    steps = np.empty((horizon, dim))
    for t in range(horizon):
        y = rng.exponential(1.0, dim)
        if rng.random() < 0.3:
            y[rng.random(dim) < 0.5] = 0.0
        n = norm_of(y)
        u = cap * (0.05 + 0.95 * rng.random())
        steps[t] = y * (u / n) if n > 0 else y
    return steps


def check_smooth_game(
    approx: GradStableApprox,
    params: SmoothGameParams,
    *,
    trials: int = 100,
    norm: NormSpec | None = None,
    abs_tol: float = 1e-9,
    seed: int = 0,
) -> CheckReport:
    """Total one-step gains of one increasing sequence against another.

    Evaluates  sum_t [Psi(L^(t-1) + y*_t) - Psi(L^(t-1))]  <=
    lam * Psi(L*_T) + mu * (Psi(L^T) - Psi(0))  on generated pairs, reports
    pass/fail at the supplied (lam, mu) and the feasible grid point with the
    smallest lam/(1-mu) score.
    """
    spec = norm if norm is not None else approx.norm_spec()
    norm_of = (lambda v: eval_norm(spec, v)) if spec is not None else (lambda v: float(np.max(v)))
    dim = approx.dim
    T = params.horizon
    lams = np.round(np.arange(1.0, 4.0001, 0.05), 4)
    mus = np.round(np.arange(0.0, 0.951, 0.05), 4)

    psi0 = approx.value(np.zeros(dim))
    rows = []
    tally = _Tally(abs_tol, trials)
    for t in range(trials):
        rng = derive_rng(seed, "smoothgame", t)
        steps_star = _increasing_sequences(rng, T, dim, params.step_cap, norm_of)
        steps_alg = _increasing_sequences(rng, T, dim, params.step_cap, norm_of)
        loads = np.cumsum(steps_alg, axis=0)
        lhs = 0.0
        prev = np.zeros(dim)
        psi_prev = psi0
        for s in range(T):
            lhs += approx.value(prev + steps_star[s]) - psi_prev
            prev = loads[s]
            psi_prev = approx.value(prev)
        a = approx.value(steps_star.sum(axis=0))
        b = psi_prev - psi0
        rows.append((lhs, a, b))
        margin = params.lam * a + params.mu * b - lhs
        tally.add(margin, abs_tol, lambda: {"lhs": lhs, "opt_term": a, "alg_term": b, "trial": t})

    arr = np.asarray(rows)
    feasible = []
    for mu in mus:
        ok = lams[None, :] * arr[:, 1:2] + mu * arr[:, 2:3] + abs_tol >= arr[:, 0:1]
        idx = np.nonzero(ok.all(axis=0))[0]
        if idx.size:
            feasible.append((float(lams[idx[0]]), float(mu)))
    best = min(feasible, key=lambda p: p[0] / (1.0 - p[1])) if feasible else None
    return tally.report("smooth-game", seed, {
        "lam": params.lam,
        "mu": params.mu,
        "minimal": {"lam": best[0], "mu": best[1], "score": best[0] / (1.0 - best[1])}
        if best
        else None,
        "frontier": feasible,
    })


def check_converse_jensen(
    approx: GradStableApprox,
    factor_bound: float,
    step_cap: float,
    *,
    trials: int = 100,
    horizon: int = 50,
    norm: NormSpec | None = None,
    abs_tol: float | None = None,
    seed: int = 0,
    sequences: list[np.ndarray] | None = None,
) -> CheckReport:
    """Both directions of the gradient-sum estimate of the total increase.

    Jensen direction (exact up to estimator noise):
        Psi(L^T) - Psi(0) >= sum_t <grad Psi(L^(t-1)), y_t>
    Converse (the gradient-stability dividend), reported as minimal factor:
        Psi(L^T) - Psi(0) <= factor * sum_t <grad Psi(L^(t-1)), y_t> + slack

    ``sequences`` replaces the random increment generator with explicit
    (T, d) step arrays, e.g. the per-round increments of an algorithm trace.
    """
    spec = norm if norm is not None else approx.norm_spec()
    norm_of = (lambda v: eval_norm(spec, v)) if spec is not None else (lambda v: float(np.max(v)))
    dim = approx.dim
    tol = abs_tol if abs_tol is not None else (1e-6 if approx.meta.stochastic else 1e-9)
    if sequences is not None:
        trials = len(sequences)

    min_factor = 1.0
    tally = _Tally(tol, trials)
    for t in range(trials):
        if sequences is not None:
            steps = np.asarray(sequences[t], dtype=float)
            horizon = steps.shape[0]
        else:
            rng = derive_rng(seed, "jensen", t)
            steps = _increasing_sequences(rng, horizon, dim, step_cap, norm_of)
        if max(norm_of(s) for s in steps) > step_cap * (1.0 + 1e-9):
            raise ValueError("increment generator exceeded the step cap")
        prev = np.zeros(dim)
        grad_sum = 0.0
        for s in range(horizon):
            grad_sum += float(approx.gradient(prev) @ steps[s])
            prev = prev + steps[s]
        rise = approx.value(prev) - approx.value(np.zeros(dim))
        scale_tol = tol * max(1.0, abs(rise))
        tally.add(rise - grad_sum, scale_tol,
                  lambda: {"rise": rise, "grad_sum": grad_sum, "trial": t})
        if grad_sum > 0:
            min_factor = max(min_factor, (rise - scale_tol) / grad_sum)
        if rise > factor_bound * grad_sum + scale_tol:  # counted, but not a margin
            tally.violations += 1
    return tally.report(
        "converse-jensen", seed,
        {"minimal_factor": min_factor, "factor_bound": factor_bound, "step_cap": step_cap},
        tolerance=tol,
    )


def check_structure(
    approx: GradStableApprox,
    *,
    trials: int = 300,
    abs_tol: float = 1e-9,
    seed: int = 0,
) -> CheckReport:
    """Monotonicity, midpoint convexity and subadditivity on random probes."""
    dim = approx.dim
    tally = _Tally(abs_tol, trials)
    for t in range(trials):
        rng = derive_rng(seed, "structure", t)
        x = _sample_point(rng, dim, approx.meta.epsilon)
        y = _sample_point(rng, dim, approx.meta.epsilon)
        vx, vy = approx.value(x), approx.value(y)
        scale_tol = abs_tol * max(1.0, abs(vx) + abs(vy))
        checks = {
            "monotone": approx.value(x + y) - vx,
            "midpoint-convex": 0.5 * (vx + vy) - approx.value(0.5 * (x + y)),
            "subadditive": vx + vy - approx.value(x + y),
        }
        for kind, margin in checks.items():
            tally.add(margin, scale_tol, lambda: {"x": x, "y": y, "kind": kind, "trial": t})
    return tally.report("structure", seed, tolerance=abs_tol)
