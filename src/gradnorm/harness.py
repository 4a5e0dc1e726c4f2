"""Instance generation, experiment orchestration and result persistence.

Everything is reproducible from a master seed: per-component streams are
derived by hashing (seed, labels), outputs are written atomically (temp file
plus rename) and numbers are serialized via ``repr`` so two runs of the same
config produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bandits as bd
from . import loadbalance as lb
from . import verify as vf
from .approx import build_approx, parse_approx_spec
from .norms import normalize_spec, parse_norm_spec
from .seeding import derive_rng, derive_seed

__all__ = [
    "GeneratorSpec",
    "generate",
    "run_experiment",
    "atomic_write_text",
    "write_csv",
]

GENERATOR_FAMILIES = ("uniform", "diagonal", "spike", "stochastic-bandit")
SIZE_CAP = 5_000_000  # total floats per generated instance


# --- atomic persistence --------------------------------------------------------


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value) -> str:
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def dump_json(path: str, obj) -> None:
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n")


# --- instance generators --------------------------------------------------------


@dataclass
class GeneratorSpec:
    problem: str  # lb | vs | bwk | bvc
    family: str = "uniform"
    m: int = 3
    k: int = 2
    T: int = 8
    n: int = 2
    d: int = 2
    r: int = 1
    scale: float = 1.0
    seed: int = 0
    norm: str = "linf"
    inner: list[str] | None = None
    budget: float | None = None
    reward_means: list[float] | None = None

    def __post_init__(self):
        if self.family not in GENERATOR_FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; pick from {GENERATOR_FAMILIES}")
        if min(self.m, self.k, self.T, self.n, self.d, self.r) < 1:
            raise ValueError("all sizes must be >= 1")
        if self.scale <= 0:
            raise ValueError("scale must be positive")


def _lb_jobs(spec: GeneratorSpec, rng: np.random.Generator) -> list[np.ndarray]:
    m, k, T = spec.m, spec.k, spec.T
    jobs = []
    for t in range(T):
        if spec.family == "uniform":
            job = rng.uniform(0.0, spec.scale, (m, k))
        elif spec.family == "diagonal":
            if m != k:
                raise ValueError("diagonal family needs m == k")
            job = np.diag(rng.uniform(0.1, 1.0, m) * spec.scale)
        else:  # spike: one concentrated option vs one spread option, plus noise
            job = np.zeros((m, k))
            job[t % m, 0] = spec.scale
            for j in range(1, k):
                job[:, j] = spec.scale / m * (1.0 + 0.1 * rng.random(m))
        jobs.append(job)
    return jobs


def _vs_jobs(spec: GeneratorSpec, rng: np.random.Generator) -> list[np.ndarray]:
    m, k, T, r = spec.m, spec.k, spec.T, spec.r
    jobs = []
    for t in range(T):
        if spec.family == "diagonal":
            if m != k:
                raise ValueError("diagonal family needs m == k")
            job = np.zeros((k, m, r))
            for j in range(k):
                job[j, j, :] = rng.uniform(0.1, 1.0, r) * spec.scale
        elif spec.family == "spike":
            job = np.zeros((k, m, r))
            job[0, t % m, :] = spec.scale
            for j in range(1, k):
                job[j] = spec.scale / m * (1.0 + 0.1 * rng.random((m, r)))
        else:
            job = rng.uniform(0.0, spec.scale, (k, m, r))
        jobs.append(job)
    return jobs


def _bandit_arrays(spec: GeneratorSpec, rng: np.random.Generator):
    n, d, T = spec.n, spec.d, spec.T
    if spec.family == "stochastic-bandit":
        means = spec.reward_means or [0.5 + 0.4 * (a % 2) for a in range(n)]
        if len(means) != n:
            raise ValueError("need one reward mean per arm")
        cost_rates = rng.uniform(0.0, 1.0, (d, n))
        rewards = (rng.random((T, n)) < np.asarray(means)[None, :]).astype(float)
        costs = (rng.random((T, d, n)) < cost_rates[None, :, :]).astype(float)
    elif spec.family == "spike":
        rewards = rng.uniform(0.0, 1.0, (T, n))
        costs = np.zeros((T, d, n))
        for a in range(n):
            costs[:, a % d, a] = 1.0
    else:
        rewards = rng.uniform(0.0, 1.0, (T, n))
        costs = rng.uniform(0.0, 1.0, (T, d, n))
    return rewards, np.clip(costs, 0.0, 1.0)


def generate(spec: GeneratorSpec, path: str) -> None:
    """Emit the JSON-lines instance; byte-identical for identical specs."""
    rng = derive_rng(spec.seed, "gen", spec.problem, spec.family)
    if spec.problem == "lb":
        if spec.m * spec.k * spec.T > SIZE_CAP:
            raise ValueError("instance size exceeds the generator cap")
        inst = lb.LbInstance(
            m=spec.m, k=spec.k, T=spec.T, jobs=_lb_jobs(spec, rng),
            norm=normalize_spec(parse_norm_spec(spec.norm, dim=spec.m)),
        )
        atomic_write_text(path, lb.format_lb_instance(inst))
    elif spec.problem == "vs":
        if spec.m * spec.k * spec.T * spec.r > SIZE_CAP:
            raise ValueError("instance size exceeds the generator cap")
        inner_texts = spec.inner or [spec.norm] * spec.r
        inner = [normalize_spec(parse_norm_spec(s, dim=spec.m)) for s in inner_texts]
        inst = lb.LbInstance(
            m=spec.m, k=spec.k, T=spec.T, jobs=_vs_jobs(spec, rng), r=spec.r, inner=inner
        )
        atomic_write_text(path, lb.format_lb_instance(inst))
    elif spec.problem in ("bwk", "bvc"):
        if spec.n * spec.d * spec.T > SIZE_CAP:
            raise ValueError("instance size exceeds the generator cap")
        rewards, costs = _bandit_arrays(spec, rng)
        kwargs: dict = {}
        if spec.problem == "bwk":
            null = spec.n - 1
            costs[:, :, null] = 0.0
            rewards[:, null] = 0.0
            kwargs = {
                "rewards": rewards,
                "budget": spec.budget if spec.budget is not None else spec.T / 4.0,
                "null_action": null,
            }
        inst = bd.BanditInstance(
            n=spec.n, d=spec.d, T=spec.T, costs=costs,
            norm=normalize_spec(parse_norm_spec(spec.norm, dim=spec.d)), **kwargs,
        )
        atomic_write_text(path, bd.format_bandit_instance(inst))
    else:
        raise ValueError(f"unknown problem {spec.problem!r}")


# --- experiment orchestration ----------------------------------------------------


def _approx_builder(approx_text: str, samples: int, instance=None):
    spec = parse_approx_spec(approx_text)
    if isinstance(instance, lb.LbInstance) and instance.is_vector_scheduling:
        inner, machines = instance.inner, instance.m
    else:
        inner, machines = None, None
    norm = getattr(instance, "norm", None)

    def builder(dim: int, epsilon: float, seed: int):
        return build_approx(
            spec, dim, epsilon, samples=samples, seed=seed,
            norm=norm, inner_norms=inner, machines=machines,
        )

    return builder


def _parse_opt_mode(text: str) -> tuple[str, float]:
    mode, sep, value = text.partition(":")
    if mode not in ("given", "auto") or not sep:
        raise ValueError(f"opt mode must be given:<v> or auto:<v0>, got {text!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"opt value must be finite, got {text!r}")
    return mode, v


def _lb_single(instance, approx_text, opt_text, samples, theta, seed):
    builder = _approx_builder(approx_text, samples, instance)
    trace = lb.run_greedy(instance, builder, _parse_opt_mode(opt_text), seed=seed, theta=theta)
    return trace


def run_experiment(config: dict) -> dict:
    """Dispatch a config to the right module, aggregate over seeds, persist.

    Returns the summary dict; ``summary["passed"]`` is False on any check
    violation or on a ratio above the configured regression bound.
    """
    def _cfg(key, default=None):
        value = config.get(key)
        return default if value is None else value

    problem = _cfg("problem")
    out = _cfg("out")
    master = int(_cfg("seed", 0))
    jobs = int(_cfg("jobs", 1))
    if problem in ("lb", "vs"):
        instance = lb.read_lb_instance(config["instance"])
        seeds = _expand_seeds(config, master)
        theta = float(_cfg("theta", 8.0))
        samples = int(_cfg("samples", 2000))
        approx_text = _cfg("approx", "sym" if not instance.is_vector_scheduling else f"nested:{instance.r}")
        opt_text = _cfg("opt", "auto:1.0")
        benchmark = _cfg("benchmark")
        if benchmark is None:
            if instance.k**instance.T <= lb.BRUTE_FORCE_CAP:
                benchmark = brute_force_value(instance)
            else:
                benchmark = _parse_opt_mode(opt_text)[1]

        def one(run_seed: int):
            trace = _lb_single(instance, approx_text, opt_text, samples, theta, run_seed)
            return trace

        traces = _parallel(one, seeds, jobs)
        rows = [
            [s, t.final_norm, benchmark, _ratio(t.final_norm, benchmark)]
            for s, t in zip(seeds, traces)
        ]
        summary = _summarize(config, [r[3] for r in rows])
        if out:
            write_csv(out, ["seed", "final_norm", "benchmark", "ratio"], rows)
            dump_json(_summary_path(out), summary)
        return summary
    if problem in ("bwk", "bvc"):
        instance = bd.read_bandit_instance(config["instance"])
        seeds = _expand_seeds(config, master)
        samples = int(_cfg("samples", 2000))
        approx_text = _cfg("approx", "softmax" if instance.norm.kind == "linf" else "sym")
        if problem == "bvc":
            _, bench = bd.benchmark_fixed_bvc(instance)
            eps = float(_cfg("epsilon", 1.0 / max(bench, 1.0)))
        else:
            _, bench = bd.benchmark_fixed_bwk(instance)
            opt_in = float(_cfg("opt", bench))
        rows = []

        def one(idx_seed):
            idx, run_seed = idx_seed
            psi_seed = derive_seed(run_seed, "approx")
            if problem == "bvc":
                psi = build_approx(approx_text, instance.d, eps, samples=samples,
                                   seed=psi_seed, norm=instance.norm)
                tr = bd.bvc_run(instance, psi, seed=run_seed)
                ratio = _ratio(tr.final_norm, bench)
            else:
                meta_probe = build_approx(approx_text, instance.d, 1.0, samples=samples,
                                          seed=psi_seed, norm=instance.norm)
                ag = meta_probe.meta.alpha + meta_probe.meta.gamma
                eps_k = float(_cfg("epsilon", ag / opt_in))
                psi = build_approx(approx_text, instance.d, eps_k, samples=samples,
                                   seed=psi_seed, norm=instance.norm)
                tr = bd.bwk_run(instance, psi, opt_in, seed=run_seed,
                                allow_small_budget=bool(_cfg("allow_small_budget", False)))
                ratio = _ratio(tr.total_reward, bench)
            return [run_seed, tr.total_reward, tr.final_norm, tr.stopped_at, bench, ratio]

        rows = _parallel(one, list(enumerate(seeds)), jobs)
        ratios = [r[5] for r in rows]
        summary = _summarize(config, ratios)
        if out:
            write_csv(
                out,
                ["seed", "total_reward", "final_norm_cost", "stopped_at", "benchmark_value", "ratio"],
                rows,
            )
            dump_json(_summary_path(out), summary)
        return summary
    if problem == "verify":
        report = run_verify_config(config)
        summary = {
            "problem": "verify",
            "passed": report.passed,
            "worst_margin": report.worst_margin,
            "violations": report.violations,
            "trials": report.trials,
        }
        if out:
            dump_json(out, report.to_dict())
        return summary
    raise ValueError(f"unknown problem {problem!r}")


def _ratio(value: float, benchmark: float) -> float:
    """value / benchmark; 1.0 when both are 0, an error for any other zero benchmark."""
    if benchmark > 0:
        return value / benchmark
    if value == 0 and benchmark == 0:
        return 1.0
    raise ValueError(f"the benchmark is {benchmark!r}, not positive: run value {value!r} has no ratio")


def brute_force_value(instance) -> float:
    value, _ = lb.brute_force_opt(instance)
    return value


def run_verify_config(config: dict) -> vf.CheckReport:
    dim = int(config.get("dim", 8))
    epsilon = float(config.get("epsilon", 1.0))
    samples = int(config.get("samples", 100_000))
    seed = int(config.get("seed", 0))
    trials = int(config.get("trials", 1000))
    norm = normalize_spec(parse_norm_spec(config.get("norm", "linf"), dim=dim))
    approx = build_approx(
        config.get("approx", "softmax"), dim, epsilon,
        samples=samples, seed=derive_seed(seed, "approx"), norm=norm,
    )
    check = config.get("check", "stability")
    if check == "stability":
        return vf.check_gradient_stability(
            approx, norm,
            delta=config.get("delta"),
            trials=trials,
            y_cap=float(config.get("y_cap", 1.0)),
            seed=seed,
        )
    if check == "sandwich":
        return vf.check_sandwich(approx, norm, trials=trials, seed=seed)
    if check == "smoothgame":
        params = vf.SmoothGameParams(
            lam=float(config.get("lam", 2.0)),
            mu=float(config.get("mu", 0.5)),
            horizon=int(config.get("horizon", 50)),
            step_cap=float(config.get("step_cap", 1.0 / epsilon)),
        )
        return vf.check_smooth_game(approx, params, trials=trials, norm=norm, seed=seed)
    if check == "jensen":
        return vf.check_converse_jensen(
            approx,
            float(config.get("factor", math.e)),
            float(config.get("step_cap", 1.0 / epsilon)),
            trials=trials,
            horizon=int(config.get("horizon", 50)),
            norm=norm,
            seed=seed,
        )
    if check == "structure":
        return vf.check_structure(approx, trials=trials, seed=seed)
    raise ValueError(f"unknown check {check!r}")


def _expand_seeds(config: dict, master: int) -> list[int]:
    seeds = config.get("seeds", 1)
    if isinstance(seeds, int):
        return [derive_seed(master, "run", i) for i in range(seeds)]
    return [int(s) for s in seeds]


def _parallel(fn, items, jobs: int):
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _summarize(config: dict, ratios: list[float]) -> dict:
    arr = np.asarray(ratios, dtype=float)
    bound = config.get("max_ratio")
    passed = bool(bound is None or (arr <= float(bound)).all())
    return {
        "problem": config.get("problem"),
        "runs": len(ratios),
        "mean_ratio": float(arr.mean()) if len(ratios) else math.nan,
        "std_ratio": float(arr.std(ddof=1)) if len(ratios) > 1 else 0.0,
        "max_ratio": float(arr.max()) if len(ratios) else math.nan,
        "max_ratio_bound": bound,
        "passed": passed,
    }


def _summary_path(out: str) -> str:
    root, _ = os.path.splitext(out)
    return root + ".summary.json"
