"""Greedy online load balancing over a gradient-stable surrogate.

Jobs arrive one at a time; job t is an m x k matrix whose column j is the
load vector incurred by processing option j.  The greedy rule picks the
option minimizing the surrogate of the accumulated loads, with the surrogate
scale set to 1/guess for the current optimum guess; in ``auto`` mode the
guess doubles (and the surrogate is rebuilt at the new scale) whenever the
true norm of the loads outgrows a fixed multiple of the guess.

Vector scheduling is the same loop over resource-major flattened loads with
a max-of-inner-norms objective and a nested surrogate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .approx.base import GradStableApprox
from .norms import NormSpec, eval_norm_rows, format_norm_spec, normalize_spec, parse_norm_spec
from .seeding import derive_seed

__all__ = [
    "LbInstance",
    "LbTrace",
    "greedy_step",
    "run_greedy",
    "brute_force_opt",
    "read_lb_instance",
    "format_lb_instance",
]

BRUTE_FORCE_CAP = 2_000_000
BRUTE_FORCE_BLOCK = 1 << 18  # load floats scored at once by brute_force_opt

# builder(dim, epsilon, seed) -> surrogate
ApproxBuilder = Callable[[int, float, int], GradStableApprox]


@dataclass
class LbInstance:
    m: int
    k: int
    T: int
    jobs: list[np.ndarray]  # plain: (m, k); vector scheduling: (k, m, r)
    norm: NormSpec | None = None
    r: int | None = None
    inner: list[NormSpec] | None = None

    def __post_init__(self):
        if self.m < 1 or self.k < 1:
            raise ValueError(f"need m >= 1 machines and k >= 1 options, got m={self.m} k={self.k}")
        if self.T < 1 or self.T != len(self.jobs):
            raise ValueError(f"expected {self.T} jobs, got {len(self.jobs)}")
        shape = (self.k, self.m, self.r) if self.is_vector_scheduling else (self.m, self.k)
        for t, job in enumerate(self.jobs):
            if job.shape != shape:
                raise ValueError(f"job {t} has shape {job.shape}, expected {shape}")
            if not np.isfinite(job).all():
                raise ValueError(f"job {t} has non-finite loads")
            if (job < 0).any():
                raise ValueError(f"job {t} has negative loads")
        if self.is_vector_scheduling:
            if len(self.inner) != self.r:
                raise ValueError("need one inner norm per resource")
        elif self.norm is None:
            raise ValueError("plain instance needs a norm")

    @property
    def is_vector_scheduling(self) -> bool:
        return self.r is not None

    @property
    def dim(self) -> int:
        return self.m * self.r if self.is_vector_scheduling else self.m

    def columns(self, t: int) -> np.ndarray:
        """(dim, k) candidate load increments of round t (resource-major)."""
        job = self.jobs[t]
        if not self.is_vector_scheduling:
            return job
        # (k, m, r) -> per option flatten resource-major: [i*m + machine]
        return job.transpose(0, 2, 1).reshape(self.k, -1).T

    def objective(self, loads: np.ndarray) -> float:
        """True objective: the norm, or max of inner norms over resource blocks."""
        return float(self.objective_rows(loads[None, :])[0])

    def objective_rows(self, loads: np.ndarray) -> np.ndarray:
        if not self.is_vector_scheduling:
            return eval_norm_rows(self.norm, loads)
        vals = [
            eval_norm_rows(spec, loads[:, i * self.m : (i + 1) * self.m])
            for i, spec in enumerate(self.inner)
        ]
        return np.max(vals, axis=0)


@dataclass
class LbTrace:
    choices: np.ndarray  # (T,) option index per round
    loads: np.ndarray  # (T, dim) accumulated loads after each round
    psi_values: np.ndarray  # (T,) surrogate value after each round
    phases: np.ndarray  # (T,) guess-doubling phase index per round
    phase_epsilons: list[float]
    phase_seeds: list[int]
    phase_guesses: list[float]
    final_norm: float
    final_psi: float
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "choices": self.choices.tolist(),
            "loads": self.loads.tolist(),
            "psi_values": self.psi_values.tolist(),
            "phases": self.phases.tolist(),
            "phase_epsilons": self.phase_epsilons,
            "phase_seeds": self.phase_seeds,
            "phase_guesses": self.phase_guesses,
            "final_norm": self.final_norm,
            "final_psi": self.final_psi,
            "extra": self.extra,
        }


def greedy_step(psi: GradStableApprox, loads: np.ndarray, columns: np.ndarray) -> tuple[int, float]:
    """(j, psi(loads + column_j)) for the argmin j; ties go to the lowest index."""
    best_j = 0
    best_v = None
    for j in range(columns.shape[1]):
        v = psi.value(loads + columns[:, j])
        if best_v is None or v < best_v:
            best_v = v
            best_j = j
    return best_j, best_v


def run_greedy(
    instance: LbInstance,
    builder: ApproxBuilder,
    opt_mode: tuple[str, float],
    seed: int = 0,
    theta: float = 8.0,
) -> LbTrace:
    """Greedy run; ``opt_mode`` is ("given", opt) or ("auto", initial_guess)."""
    mode, value = opt_mode
    if mode not in ("given", "auto"):
        raise ValueError(f"opt_mode must be 'given' or 'auto', got {mode!r}")
    if value <= 0.0:
        raise ValueError("optimum guess must be positive")
    if not (theta > 0.0 and math.isfinite(theta)):
        raise ValueError(f"theta must be positive and finite, got {theta!r}")
    dim = instance.dim
    guess = float(value)
    phase = 0
    phase_seeds = [derive_seed(seed, "phase", 0)]
    phase_epsilons = [1.0 / guess]
    phase_guesses = [guess]
    psi = builder(dim, 1.0 / guess, phase_seeds[0])

    loads = np.zeros(dim)
    choices = np.empty(instance.T, dtype=np.int64)
    loads_hist = np.empty((instance.T, dim))
    psi_vals = np.empty(instance.T)
    phases = np.empty(instance.T, dtype=np.int64)
    for t in range(instance.T):
        if mode == "auto":
            margin = psi.meta.alpha + psi.meta.gamma
            while instance.objective(loads) > theta * margin * guess:
                guess *= 2.0
                phase += 1
                phase_seeds.append(derive_seed(seed, "phase", phase))
                phase_epsilons.append(1.0 / guess)
                phase_guesses.append(guess)
                psi = builder(dim, 1.0 / guess, phase_seeds[-1])
        cols = instance.columns(t)
        j, psi_vals[t] = greedy_step(psi, loads, cols)
        loads = loads + cols[:, j]
        choices[t] = j
        loads_hist[t] = loads
        phases[t] = phase
    return LbTrace(
        choices=choices,
        loads=loads_hist,
        psi_values=psi_vals,
        phases=phases,
        phase_epsilons=phase_epsilons,
        phase_seeds=phase_seeds,
        phase_guesses=phase_guesses,
        final_norm=instance.objective(loads),
        final_psi=float(psi_vals[-1]) if instance.T else 0.0,
        extra={"mode": mode, "theta": theta, "seed": seed},
    )


def brute_force_opt(instance: LbInstance, cap: int = BRUTE_FORCE_CAP) -> tuple[float, tuple[int, ...]]:
    """Exact offline optimum by exhaustive enumeration (k^T sequences).

    Ties are broken toward the lexicographically smallest assignment.  The
    sequences are scored in blocks of at most ``BRUTE_FORCE_BLOCK`` load
    floats: each block holds consecutive prefixes of the first T - s jobs,
    each with all k^s suffixes of the last s jobs.  Jobs are added to the
    loads in arrival order, so every sum is the same float whatever the block.
    """
    k, T, dim = instance.k, instance.T, instance.dim
    total = k**T
    if total > cap:
        raise ValueError(f"k^T = {total} exceeds the enumeration cap {cap}")
    rows = max(1, BRUTE_FORCE_BLOCK // dim)
    s = 0
    while s < T and k ** (s + 1) <= rows:
        s += 1
    p = T - s
    per_block = max(1, rows // k**s)
    cols = [instance.columns(t).T for t in range(T)]  # (k, dim) per job
    block_min, block_arg = [], []
    for lo in range(0, k**p, per_block):
        prefix = np.arange(lo, min(lo + per_block, k**p))
        loads = np.zeros((len(prefix), dim))
        for t in range(p):
            loads = loads + cols[t][prefix // k ** (p - 1 - t) % k]
        for t in range(p, T):
            loads = (loads[:, None, :] + cols[t][None, :, :]).reshape(-1, dim)
        values = instance.objective_rows(loads)
        j = int(np.argmin(values))
        block_min.append(values[j])
        block_arg.append(lo * k**s + j)
    # the first block minimum is the first minimum overall (NaN first, as in argmin)
    b = int(np.argmin(block_min))
    assignment = []
    idx = block_arg[b]
    for _ in range(T):
        assignment.append(idx % k)
        idx //= k
    return float(block_min[b]), tuple(reversed(assignment))


# --- instance files (JSON lines) ---------------------------------------------


def format_lb_instance(instance: LbInstance) -> str:
    header: dict = {"m": instance.m, "k": instance.k, "T": instance.T}
    if instance.is_vector_scheduling:
        header["r"] = instance.r
        header["inner"] = [format_norm_spec(s) for s in instance.inner]
        header["norm"] = header["inner"][0]
    else:
        header["norm"] = format_norm_spec(instance.norm)
    lines = [json.dumps(header, sort_keys=True)]
    lines += [json.dumps({"C": job.tolist()}) for job in instance.jobs]
    return "\n".join(lines) + "\n"


def read_lb_instance(path: str) -> LbInstance:
    with open(path) as fh:
        lines = [line for line in (raw.strip() for raw in fh) if line]
    if not lines:
        raise ValueError(f"empty instance file {path}")
    header = json.loads(lines[0])
    m, k, T = header["m"], header["k"], header["T"]
    jobs = [np.asarray(json.loads(line)["C"], dtype=float) for line in lines[1:]]
    if "r" in header:
        inner = [normalize_spec(parse_norm_spec(s, dim=m)) for s in header["inner"]]
        return LbInstance(m=m, k=k, T=T, jobs=jobs, r=header["r"], inner=inner)
    norm = normalize_spec(parse_norm_spec(header["norm"], dim=m))
    return LbInstance(m=m, k=k, T=T, jobs=jobs, norm=norm)
