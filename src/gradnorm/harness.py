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
from dataclasses import MISSING, dataclass, fields

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


# --- config entries ----------------------------------------------------------------


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_KINDS = {  # kind -> (what a config entry of that kind must be, its test)
    int: ("an integer", _is_int),
    float: ("a finite number",
            lambda v: (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max),
    str: ("a string", lambda v: isinstance(v, str)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    "norms": ("a string or a list", lambda v: isinstance(v, (str, list))),
    "seeds": ("a count >= 1 or a non-empty list of integers",
              lambda v: v >= 1 if _is_int(v) else isinstance(v, list) and v != [] and all(map(_is_int, v))),
}


def _get(config: dict, key: str, default, kind):
    """``config[key]`` if it is of ``kind``, a key of ``_KINDS``; else a ``ValueError`` naming the key.

    A missing or null entry gives ``default`` (``MISSING`` makes the key required);
    a float entry may be any finite int or float and is returned as a float.
    """
    value = config.get(key)
    if value is None:
        if default is MISSING:
            raise ValueError(f"{key} is required")
        return default
    what, ok = _KINDS[kind]
    if not ok(value):
        raise ValueError(f"{key} must be {what}, got {value!r}")
    return float(value) if kind is float else value


# --- instance generators --------------------------------------------------------


_UNUSED = {  # problem -> the gen entries it does not read
    "lb": ("n", "d", "r", "inner", "budget"), "vs": ("n", "d", "budget"),
    "bwk": ("m", "k", "r", "inner"), "bvc": ("m", "k", "r", "inner", "budget")}


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
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale!r}")
        if self.problem in ("bwk", "bvc") and self.scale != 1.0:
            raise ValueError(f"scale must be 1.0 for {self.problem}, whose costs lie in [0, 1], "
                             f"got {self.scale!r}")
        if self.budget is not None and self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget!r}")

    @classmethod
    def from_config(cls, config: dict) -> GeneratorSpec:
        """The spec of a ``gen`` config; ``inner`` may be a comma-separated string."""
        kinds = {"problem": str, "inner": "norms", "budget": float}  # else the default's type
        spec = cls(**{f.name: _get(config, f.name, f.default, kinds.get(f.name, type(f.default)))
                      for f in fields(cls)})
        unused = [key for key in _UNUSED.get(spec.problem, ()) if config.get(key) is not None]
        if unused:
            raise ValueError(f"{unused[0]} is not used by --problem {spec.problem}")
        if isinstance(spec.inner, str):
            spec.inner = spec.inner.split(",")
        return spec


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
    if spec.problem in ("lb", "vs"):
        if spec.m * spec.k * spec.T * (spec.r if spec.problem == "vs" else 1) > SIZE_CAP:
            raise ValueError("instance size exceeds the generator cap")
        if spec.problem == "lb":
            norm = normalize_spec(parse_norm_spec(spec.norm, dim=spec.m))
            inst = lb.LbInstance(m=spec.m, k=spec.k, T=spec.T, jobs=_lb_jobs(spec, rng), norm=norm)
        else:
            inner = [normalize_spec(parse_norm_spec(s, dim=spec.m))
                     for s in spec.inner or [spec.norm] * spec.r]
            inst = lb.LbInstance(m=spec.m, k=spec.k, T=spec.T, jobs=_vs_jobs(spec, rng), r=spec.r,
                                 inner=inner)
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


def _approx_builder(config: dict, norms: list, default: str):
    """``builder(epsilon, seed)``: the config's surrogate of ``norms``, ``default`` when unset."""
    spec = parse_approx_spec(_get(config, "approx", default, str))
    samples = _get(config, "samples", 2000, int)
    return lambda epsilon, seed: build_approx(spec, norms, epsilon, samples=samples, seed=seed)


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
    instance = lb.read_lb_instance(_get(config, "instance", MISSING, str))
    if _get(config, "problem", None, str) == "vs" and not instance.is_vector_scheduling:
        raise ValueError("vs run needs an instance with resource structure")
    if instance.is_vector_scheduling:
        builder = _approx_builder(config, instance.inner, f"nested:{instance.r}")
    else:
        builder = _approx_builder(config, [instance.norm], "sym")
    opt_mode = _parse_opt_mode(_get(config, "opt", "auto:1.0", str))
    theta = _get(config, "theta", 8.0, float)

    def run(seed: int) -> lb.LbTrace:
        return lb.run_greedy(instance, builder, opt_mode, seed=seed, theta=theta)

    return instance, opt_mode, run


def run_experiment(config: dict) -> dict:
    """Run a config over its seeds, summarize the ratios, persist.

    Returns the summary dict; ``summary["passed"]`` is False on a ratio above
    the configured regression bound.  With ``out`` set, the per-seed rows go
    to that CSV and the summary next to it as ``<out>.summary.json``.
    """
    problem = _get(config, "problem", None, str)
    seeds = _expand_seeds(config)
    jobs = _get(config, "jobs", 1, int)
    bound = _get(config, "max_ratio", None, float)
    out = _get(config, "out", None, str)
    if problem in ("lb", "vs"):
        instance, opt_mode, run = greedy_runner(config)
        benchmark = _get(config, "benchmark", None, float)
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
        instance = bd.read_bandit_instance(_get(config, "instance", MISSING, str))
        builder = _approx_builder(config, [instance.norm], "softmax" if instance.norm.kind == "linf" else "sym")
        if problem == "bvc":
            _, bench, _ = bd.benchmark_fixed_bvc(instance)
            eps = _get(config, "epsilon", 1.0 / max(bench, 1.0), float)
        else:
            _, bench, _ = bd.benchmark_fixed_bwk(instance)
            opt_in = _get(config, "opt", bench, float)
            if not (opt_in > 0 and math.isfinite(opt_in)):
                raise ValueError(f"bwk opt (the benchmark when --opt is unset) must be positive "
                                 f"and finite, got {opt_in!r}")
            allow_small_budget = _get(config, "allow_small_budget", False, bool)
            eps = _get(config, "epsilon", None, float)
        header = ["seed", "total_reward", "final_norm_cost", "stopped_at", "benchmark_value", "ratio"]

        def one(seed: int) -> list:
            psi_seed = derive_seed(seed, "approx")
            if problem == "bvc":
                tr = bd.bvc_run(instance, builder(eps, psi_seed), seed=seed)
                value = tr.final_norm
            else:
                eps_k = eps
                if eps_k is None:
                    probe = builder(1.0, psi_seed).meta
                    eps_k = (probe.alpha + probe.gamma) / opt_in
                psi = builder(eps_k, psi_seed)
                tr = bd.bwk_run(instance, psi, opt_in, seed=seed, allow_small_budget=allow_small_budget)
                value = tr.total_reward
            return [seed, tr.total_reward, tr.final_norm, tr.stopped_at, bench, _ratio(value, bench)]
    else:
        raise ValueError(f"unknown problem {problem!r}")

    rows = _parallel(one, seeds, jobs)
    summary = _summarize(problem, bound, [row[-1] for row in rows])
    if out:
        write_csv(out, header, rows)
        dump_json(os.path.splitext(out)[0] + ".summary.json", summary)
    return summary


def _ratio(value: float, benchmark: float) -> float:
    """value / benchmark; 1.0 when both are 0, an error for any other zero benchmark."""
    if benchmark > 0:
        return value / benchmark
    if value == 0 and benchmark == 0:
        return 1.0
    raise ValueError(f"the benchmark is {benchmark!r}, not positive: run value {value!r} has no ratio")


def run_verify_config(config: dict) -> vf.CheckReport:
    dim = _get(config, "dim", 16, int)
    epsilon = _get(config, "epsilon", 1.0, float)
    seed = _get(config, "seed", 0, int)
    trials = _get(config, "trials", 1000, int)
    norm = normalize_spec(parse_norm_spec(_get(config, "norm", "linf", str), dim=dim))
    approx = build_approx(
        _get(config, "approx", "softmax", str), [norm], epsilon,
        samples=_get(config, "samples", 100_000, int), seed=derive_seed(seed, "approx"),
    )
    check = _get(config, "check", "stability", str)
    step_cap = _get(config, "step_cap", 1.0 / epsilon, float)  # epsilon > 0 once built
    horizon = _get(config, "horizon", 50, int)
    if check == "stability":
        return vf.check_gradient_stability(
            approx, norm, delta=_get(config, "delta", None, float), trials=trials,
            y_cap=_get(config, "y_cap", 1.0, float), seed=seed,
        )
    if check == "sandwich":
        return vf.check_sandwich(approx, norm, trials=trials, seed=seed)
    if check == "smoothgame":
        params = vf.SmoothGameParams(
            _get(config, "lam", 2.0, float), _get(config, "mu", 0.5, float), horizon, step_cap,
        )
        return vf.check_smooth_game(approx, params, trials=trials, norm=norm, seed=seed)
    if check == "jensen":
        return vf.check_converse_jensen(
            approx, _get(config, "factor", math.e, float), step_cap,
            trials=trials, horizon=horizon, norm=norm, seed=seed,
        )
    if check == "structure":
        return vf.check_structure(approx, trials=trials, seed=seed)
    raise ValueError(f"unknown check {check!r}")


def _expand_seeds(config: dict) -> list[int]:
    """Run seeds: ``seeds`` is a count of seeds derived from ``seed``, or a list of seeds."""
    seeds = _get(config, "seeds", 1, "seeds")
    if _is_int(seeds):
        return [derive_seed(_get(config, "seed", 0, int), "run", i) for i in range(seeds)]
    return seeds


def _parallel(fn, items, jobs: int):
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _summarize(problem: str, bound: float | None, ratios: list[float]) -> dict:
    arr = np.asarray(ratios, dtype=float)
    passed = bool(bound is None or (arr <= bound).all())
    return {
        "problem": problem,
        "runs": len(ratios),
        "mean_ratio": float(arr.mean()),
        "std_ratio": float(arr.std(ddof=1)) if len(ratios) > 1 else 0.0,
        "max_ratio": float(arr.max()),
        "max_ratio_bound": bound,
        "passed": passed,
    }
