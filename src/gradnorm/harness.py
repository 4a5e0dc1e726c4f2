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
import sys
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
    "greedy_runner",
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


def dump_json(path: str | None, obj) -> None:
    """Write ``obj`` as JSON to ``path``, or to stdout when ``path`` is empty."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if path:
        atomic_write_text(path, text)
    else:
        sys.stdout.write(text)


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
        means = [0.5 + 0.4 * (a % 2) for a in range(n)]
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


def _get(config: dict, key: str, default=None):
    """``config[key]``, with a missing key and an explicit None both giving ``default``."""
    value = config.get(key)
    return default if value is None else value


def _approx_builder(config: dict, instance, default: str):
    """``builder(dim, epsilon, seed)`` for the config's surrogate, ``default`` when unset."""
    spec = parse_approx_spec(_get(config, "approx", default))
    samples = int(_get(config, "samples", 2000))
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


def greedy_runner(config: dict):
    """``(instance, opt_mode, run)`` for an ``lb``/``vs`` config; ``run(seed)`` is one greedy trace.

    The instance file is read once.  The surrogate defaults to ``nested:<r>``
    on a vector-scheduling instance and to ``sym`` otherwise.
    """
    instance = lb.read_lb_instance(config["instance"])
    if config.get("problem") == "vs" and not instance.is_vector_scheduling:
        raise ValueError("vs run needs an instance with resource structure")
    default = f"nested:{instance.r}" if instance.is_vector_scheduling else "sym"
    builder = _approx_builder(config, instance, default)
    opt_mode = _parse_opt_mode(_get(config, "opt", "auto:1.0"))
    theta = float(_get(config, "theta", 8.0))

    def run(seed: int) -> lb.LbTrace:
        return lb.run_greedy(instance, builder, opt_mode, seed=seed, theta=theta)

    return instance, opt_mode, run


def run_experiment(config: dict) -> dict:
    """Run a config over its seeds, summarize the ratios, persist.

    Returns the summary dict; ``summary["passed"]`` is False on a ratio above
    the configured regression bound.  With ``out`` set, the per-seed rows go
    to that CSV and the summary next to it as ``<out>.summary.json``.
    """
    problem = config.get("problem")
    seeds = _expand_seeds(config)
    if problem in ("lb", "vs"):
        instance, opt_mode, run = greedy_runner(config)
        benchmark = _get(config, "benchmark")
        if benchmark is None:
            if instance.k**instance.T <= lb.BRUTE_FORCE_CAP:
                benchmark, _ = lb.brute_force_opt(instance)
            else:
                benchmark = opt_mode[1]
        header = ["seed", "final_norm", "benchmark", "ratio"]

        def one(seed: int) -> list:
            final = run(seed).final_norm
            return [seed, final, benchmark, _ratio(final, benchmark)]
    elif problem in ("bwk", "bvc"):
        instance = bd.read_bandit_instance(config["instance"])
        builder = _approx_builder(config, instance, "softmax" if instance.norm.kind == "linf" else "sym")
        if problem == "bvc":
            _, bench, _ = bd.benchmark_fixed_bvc(instance)
            eps = float(_get(config, "epsilon", 1.0 / max(bench, 1.0)))
        else:
            _, bench, _ = bd.benchmark_fixed_bwk(instance)
            opt_in = float(_get(config, "opt", bench))
            if not (opt_in > 0 and math.isfinite(opt_in)):
                raise ValueError(f"bwk opt (the benchmark when --opt is unset) must be positive "
                                 f"and finite, got {opt_in!r}")
            allow_small_budget = bool(_get(config, "allow_small_budget", False))
        header = ["seed", "total_reward", "final_norm_cost", "stopped_at", "benchmark_value", "ratio"]

        def one(seed: int) -> list:
            psi_seed = derive_seed(seed, "approx")
            if problem == "bvc":
                tr = bd.bvc_run(instance, builder(instance.d, eps, psi_seed), seed=seed)
                value = tr.final_norm
            else:
                eps_k = _get(config, "epsilon")
                if eps_k is None:
                    probe = builder(instance.d, 1.0, psi_seed).meta
                    eps_k = (probe.alpha + probe.gamma) / opt_in
                psi = builder(instance.d, float(eps_k), psi_seed)
                tr = bd.bwk_run(instance, psi, opt_in, seed=seed, allow_small_budget=allow_small_budget)
                value = tr.total_reward
            return [seed, tr.total_reward, tr.final_norm, tr.stopped_at, bench, _ratio(value, bench)]
    else:
        raise ValueError(f"unknown problem {problem!r}")

    rows = _parallel(one, seeds, int(_get(config, "jobs", 1)))
    summary = _summarize(config, [row[-1] for row in rows])
    out = _get(config, "out")
    if out:
        write_csv(out, header, rows)
        dump_json(_summary_path(out), summary)
    return summary


def _ratio(value: float, benchmark: float) -> float:
    """value / benchmark; 1.0 when both are 0, an error for any other zero benchmark."""
    if benchmark > 0:
        return value / benchmark
    if value == 0 and benchmark == 0:
        return 1.0
    raise ValueError(f"the benchmark is {benchmark!r}, not positive: run value {value!r} has no ratio")


def run_verify_config(config: dict) -> vf.CheckReport:
    dim = int(config.get("dim", 16))
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _expand_seeds(config: dict) -> list[int]:
    """Run seeds: ``seeds`` is a count of seeds derived from ``seed``, or a list of seeds."""
    seeds = _get(config, "seeds", 1)
    if _is_int(seeds) and seeds >= 1:
        return [derive_seed(int(_get(config, "seed", 0)), "run", i) for i in range(seeds)]
    if isinstance(seeds, list) and seeds and all(_is_int(s) for s in seeds):
        return seeds
    raise ValueError(f"seeds must be a count >= 1 or a non-empty list of integers, got {seeds!r}")


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
        "mean_ratio": float(arr.mean()),
        "std_ratio": float(arr.std(ddof=1)) if len(ratios) > 1 else 0.0,
        "max_ratio": float(arr.max()),
        "max_ratio_bound": bound,
        "passed": passed,
    }


def _summary_path(out: str) -> str:
    root, _ = os.path.splitext(out)
    return root + ".summary.json"
