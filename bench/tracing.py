"""Span tracing installed from outside the program.

``Tracer.install`` replaces the public functions and methods listed in
``SPANS`` with wrappers that record one span per call: its name, the
function it wraps, its start and end, and the span that was open when it was
called.  Spans are kept in flat arrays in memory and written out once, at the
end.  Nothing under ``src/`` knows about the tracer; ``uninstall`` restores
the original objects.

The benchmark traces one process with one thread, so the spans of a command
nest strictly and a span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import array
import functools
import gzip
import importlib
import math
import sys
import time

# span name -> (module, attribute path) of every callable it wraps.  Where a
# module imported a function by name, the copies are replaced too.
SPANS = {
    "cli.main": [("gradnorm.cli", "main")],
    "harness.generate": [("gradnorm.harness", "generate")],
    "harness.run_experiment": [("gradnorm.harness", "run_experiment")],
    "harness.run_verify_config": [("gradnorm.harness", "run_verify_config")],
    "io.read_instance": [("gradnorm.loadbalance", "read_lb_instance"),
                         ("gradnorm.bandits", "read_bandit_instance")],
    "io.format_instance": [("gradnorm.loadbalance", "format_lb_instance"),
                           ("gradnorm.bandits", "format_bandit_instance")],
    "io.write": [("gradnorm.harness", "atomic_write_text")],
    "loadbalance.run_greedy": [("gradnorm.loadbalance", "run_greedy")],
    "loadbalance.greedy_step": [("gradnorm.loadbalance", "greedy_step")],
    "bandits.bvc_run": [("gradnorm.bandits", "bvc_run")],
    "bandits.bwk_run": [("gradnorm.bandits", "bwk_run")],
    "bandits.exp3_sample": [("gradnorm.bandits", "exp3_sample")],
    "bandits.exp3_update": [("gradnorm.bandits", "exp3_update")],
    "bandits.benchmark_fixed_bvc": [("gradnorm.bandits", "benchmark_fixed_bvc")],
    "bandits.benchmark_fixed_bwk": [("gradnorm.bandits", "benchmark_fixed_bwk")],
    "bandits.project_simplex": [("gradnorm.bandits", "project_simplex")],
    "verify.check_gradient_stability": [("gradnorm.verify", "check_gradient_stability")],
    "approx.compose.build": [("gradnorm.approx.compose", "build_symmetric_approx")],
    "approx.compose.outer_value": [("gradnorm.approx.compose", "Outer.value")],
    "approx.compose.outer_gradient": [("gradnorm.approx.compose", "Outer.gradient")],
    "approx.compose.leaf": [("gradnorm.approx.compose", "Leaf.value"),
                            ("gradnorm.approx.compose", "Leaf.gradient"),
                            ("gradnorm.approx.compose", "Leaf.pair_margin_stats")],
    "approx.topk.build": [("gradnorm.approx.topk", "TopKApprox.__init__")],
    "approx.topk.value": [("gradnorm.approx.topk", "TopKApprox.value")],
    "approx.topk.gradient": [("gradnorm.approx.topk", "TopKApprox.gradient")],
    "approx.topk.pair_margin_stats": [("gradnorm.approx.topk", "TopKApprox.pair_margin_stats")],
    "approx.softmax.value": [("gradnorm.approx.softmax", "SoftmaxApprox.value")],
    "approx.softmax.gradient": [("gradnorm.approx.softmax", "SoftmaxApprox.gradient")],
    "norms.eval_norm": [("gradnorm.norms", "eval_norm")],
    "norms.eval_norm_rows": [("gradnorm.norms", "eval_norm_rows")],
}

# Spans called many times per command also report per-call latency.
PER_CALL = (
    "loadbalance.greedy_step",
    "bandits.exp3_sample",
    "bandits.exp3_update",
    "approx.compose.outer_value",
    "approx.compose.outer_gradient",
    "approx.topk.value",
    "approx.topk.gradient",
    "approx.topk.pair_margin_stats",
    "approx.softmax.value",
    "approx.softmax.gradient",
    "norms.eval_norm",
)


# Computed bytes moved by one top-k kernel call on S samples of dimension d:
# every full pass over an (S, d) array counts one read or one write, and a
# sort counts one read and one write.  These are a model, not a measurement.
def topk_bytes(method: str, S: int, d: int, k: int) -> int:
    if method == "value":  # float64: add noise, sort a copy, cumsum in place
        return (24 if k == 1 else 48) * S * d
    # float32 membership: add noise (8), copy (8) and sort (8), compare (4 + 1),
    # tie check and column sums over the bool mask (2)
    membership = 31 * S * d
    if method == "gradient":
        return membership
    return 2 * membership + 6 * S * d  # pair: two masks, their AND and three sums


class Tracer:
    # Span arrays are allocated once, up front, and never freed while the
    # program runs: freeing a large block raises the C allocator's mmap
    # threshold, which changes the speed of the program being measured.
    CAPACITY = 1 << 20

    def __init__(self):
        self.names: list[str] = []  # span name per name id
        self.funcs: list[str] = []  # wrapped function per func id
        cap = self.CAPACITY
        # (repeating a one-element array allocates once and frees nothing)
        self.name_id = array.array("i", [0]) * cap
        self.func_id = array.array("i", [0]) * cap
        self.parent = array.array("l", [0]) * cap
        self.start = array.array("d", [0.0]) * cap
        self.end = array.array("d", [0.0]) * cap
        self._n = [0]  # spans recorded so far
        self.counts = {"approx.topk.rows": 0, "approx.topk.value.bytes_computed": 0,
                       "approx.topk.gradient.bytes_computed": 0,
                       "approx.topk.pair_margin_stats.bytes_computed": 0}
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return self._n[0]

    def _grow(self) -> None:
        for arr in (self.name_id, self.func_id, self.parent, self.start, self.end):
            arr.extend(arr)

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        for name, targets in SPANS.items():
            nid = len(self.names)
            self.names.append(name)
            for module_name, path in targets:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self._wrap(original, nid, path)
                self._replace(owner, attr, original, wrapper)
                if not outer:  # copies bound by `from module import name`
                    for mod_name, mod in list(sys.modules.items()):
                        if mod_name.startswith("gradnorm") and mod is not owner:
                            for key, value in list(vars(mod).items()):
                                if value is original:
                                    self._replace(mod, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _replace(self, owner, attr, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, nid: int, path: str):
        fid = len(self.funcs)
        self.funcs.append(path)
        name_id, func_id, parent = self.name_id, self.func_id, self.parent
        start, end, stack, clock = self.start, self.end, self._stack, time.perf_counter
        kernel = path.partition(".")[2] if path.startswith("TopKApprox.") else None
        if kernel not in ("value", "gradient", "pair_margin_stats"):
            kernel = None
        counts, n = self.counts, self._n

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = n[0]
            if idx == len(name_id):
                self._grow()
            n[0] = idx + 1
            name_id[idx] = nid
            func_id[idx] = fid
            parent[idx] = stack[-1]
            stack.append(idx)
            start[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                if kernel is not None:
                    cfg = args[0].cfg
                    rows = cfg.samples * (2 if kernel == "pair_margin_stats" else 1)
                    counts["approx.topk.rows"] += rows
                    counts[f"approx.topk.{kernel}.bytes_computed"] += topk_bytes(
                        kernel, cfg.samples, cfg.dim, cfg.k)

        return traced

    # --- output ----------------------------------------------------------

    def write(self, path: str) -> None:
        """All spans as gzip CSV: id, parent, name, function, start_s, end_s."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,function,start_s,end_s\n")
            for i in range(len(self)):
                fh.write(f"{i},{self.parent[i]},{self.names[self.name_id[i]]},"
                         f"{self.funcs[self.func_id[i]]},{self.start[i]!r},{self.end[i]!r}\n")

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded, as {name: (value, unit)}."""
        n = len(self)
        names, funcs = self.names, self.funcs
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        per_name: dict[str, list[int]] = {name: [] for name in names}
        for i in range(n):
            per_name[names[self.name_id[i]]].append(i)

        out: dict[str, tuple[float, str]] = {}
        for name, idx in per_name.items():
            out[f"{name}.calls"] = (len(idx), "count")
            out[f"{name}.self_s"] = (sum(dur[i] - child[i] for i in idx), "s")
            if name in PER_CALL:
                p50, tail = latency_us(sorted(dur[i] for i in idx))
                out[f"{name}.p50_us"] = (p50, "us")
                out[f"{name}.tail_us"] = (tail, "us")

        def is_(i, name):
            return i >= 0 and names[self.name_id[i]] == name

        # psi evaluations per job: surrogate values asked for by the greedy
        # loop, over its rounds (one greedy_step per job)
        jobs = len(per_name["loadbalance.greedy_step"])
        psi_evals = sum(
            1 for i in range(n)
            if funcs[self.func_id[i]].endswith(".value")
            and (is_(self.parent[i], "loadbalance.greedy_step")
                 or is_(self.parent[i], "loadbalance.run_greedy"))
        )
        out["loadbalance.psi_evals_per_job"] = (psi_evals / jobs if jobs else 0.0, "1")

        # child values re-evaluated inside Outer.gradient, per gradient call
        grads = len(per_name["approx.compose.outer_gradient"])
        child_evals = sum(
            1 for i in range(n)
            if funcs[self.func_id[i]].endswith(".value")
            and is_(self.parent[i], "approx.compose.outer_gradient")
        )
        out["approx.compose.child_evals_per_call"] = (child_evals / grads if grads else 0.0, "1")

        # norm evaluations made anywhere inside an offline benchmark
        offline = {"bandits.benchmark_fixed_bvc", "bandits.benchmark_fixed_bwk"}
        under = [False] * n
        for i in range(n):  # a parent always has a smaller id than its children
            p = self.parent[i]
            under[i] = p >= 0 and (under[p] or names[self.name_id[p]] in offline)
        out["bandits.offline.norm_evals"] = (
            sum(1 for i in range(n) if under[i] and names[self.name_id[i]].startswith("norms.")),
            "count",
        )
        for key, value in self.counts.items():
            out[key] = (value, "B" if key.endswith("bytes_computed") else "count")
        return out


def latency_us(durations: list[float]) -> tuple[float, float]:
    """(median, tail) of sorted durations in microseconds.

    The tail is the highest of p99.99, p99.9, p99 and p90 that has at least
    ten samples beyond it; with fewer than 100 samples it is the maximum.
    """
    n = len(durations)
    if n == 0:
        return 0.0, 0.0

    def pct(p: float) -> float:  # nearest rank
        rank = min(n, max(1, math.ceil(p / 100.0 * n - 1e-9)))
        return durations[rank - 1] * 1e6

    for p in (99.99, 99.9, 99.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return pct(50.0), pct(p)
    return pct(50.0), durations[-1] * 1e6
