"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/selftest/selftest_bench.py

The file name does not match pytest's default ``test_*.py`` pattern, so the
repository's own test run does not collect it; name it explicitly as above.
It checks that every metric BENCHMARK.json names is emitted with its unit,
that the span wrappers nest correctly, and that a bad output or a refused
command is counted as a failed operation.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

W = workloads.WORKLOADS
TINY = {
    "lb-sym": dataclasses.replace(
        W["lb-sym"],
        gen=("--problem", "lb", "--m", "8", "--k", "3", "--T", "12", "--norm", "topk:2"),
        runs=((*W["lb-sym"].runs[0], "--samples", "200"),),
    ),
    "bwk-sym": dataclasses.replace(
        W["bwk-sym"],
        gen=("--problem", "bwk", "--n", "5", "--d", "4", "--T", "300", "--budget", "150",
             "--norm", "topk:2"),
        runs=((*W["bwk-sym"].runs[0], "--samples", "200"),),
    ),
    "bvc-softmax": dataclasses.replace(
        W["bvc-softmax"],
        gen=("--problem", "bvc", "--n", "3", "--d", "4", "--T", "300", "--norm", "linf"),
    ),
    "verify-topk": dataclasses.replace(
        W["verify-topk"],
        runs=tuple(
            ("verify", "--check", "stability", "--approx", f"gstopk:{k}", "--norm", f"topk:{k}",
             "--dim", "8", "--samples", "2000", "--trials", "5")
            for k in (2, 8)
        ),
    ),
}


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec


def test_workloads_match_benchmark_json():
    spec = declared()
    assert [w["name"] for w in spec["workloads"]] == list(W)
    assert set(TINY) == set(W)


def test_verify_quality_follows_margin_and_verdict():
    bound = {m["name"]: m["bound"] for m in declared()["end_to_end"]}["quality"]
    typical = workloads.verify_quality(0, 6.0, 1.0)  # top-4 of 16: margin about 6 tolerances
    # the seed-to-seed swing of the margin stays well inside the bound ...
    assert abs(workloads.verify_quality(0, 5.5, 1.0) / typical - 1) < bound / 3
    assert abs(workloads.verify_quality(0, 6.5, 1.0) / typical - 1) < bound / 3
    # ... while a margin or a tolerance moved to 2.5 tolerances, or a violation, trips it
    assert workloads.verify_quality(0, 2.5, 1.0) / typical - 1 > bound
    assert workloads.verify_quality(0, 6.0, 2.4) / typical - 1 > bound
    assert workloads.verify_quality(1, -2.0, 1.0) / typical - 1 > 1.0


@pytest.mark.parametrize("name", list(TINY))
def test_every_named_metric_is_emitted_with_its_unit(name, tmp_path):
    spec = declared()
    for trace, key, listed in ((False, "end_to_end", spec["end_to_end"]),
                               (True, "per_layer", spec["per_layer"])):
        report = run.run_benchmark(TINY[name], seed=7, seconds=0.0, trace=trace,
                                   workdir=str(tmp_path / key))
        assert report["failed"] == 0, report["errors"]
        emitted = report[key]
        assert list(emitted) == [m["name"] for m in listed]
        for metric in listed:
            value, unit = emitted[metric["name"]]
            assert unit == metric["unit"], metric["name"]
            assert isinstance(value, (int, float)) and value == value, metric["name"]


def test_spans_nest(tmp_path):
    import gradnorm.loadbalance as lb
    from gradnorm import cli

    p = workloads.plan(TINY["lb-sym"], seed=3, workdir=str(tmp_path))
    originals = (cli.main, lb.greedy_step, lb.eval_norm)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(p["gen"]) == 0
        assert cli.main(p["runs"][0]) == 0
    finally:
        tracer.uninstall()
    assert (cli.main, lb.greedy_step, lb.eval_norm) == originals

    n = len(tracer)
    assert n > 0
    name = [tracer.names[tracer.name_id[i]] for i in range(n)]
    for i in range(n):
        par = tracer.parent[i]
        assert tracer.start[i] <= tracer.end[i]
        if par < 0:
            assert name[i] == "cli.main"
            continue
        assert par < i
        assert tracer.start[par] <= tracer.start[i] and tracer.end[i] <= tracer.end[par]
    parents = {}
    for i in range(n):
        if tracer.parent[i] >= 0:
            parents.setdefault(name[i], set()).add(name[tracer.parent[i]])
    assert parents["loadbalance.greedy_step"] == {"loadbalance.run_greedy"}
    assert parents["approx.topk.value"] <= {"approx.compose.leaf", "approx.topk.build"}
    assert parents["approx.compose.leaf"] <= {"approx.compose.outer_value", "approx.compose.build"}
    # the greedy loop asks for k values per job plus one for the chosen option
    metrics = tracer.metrics()
    k = int(workloads.flag(TINY["lb-sym"].gen, "--k"))
    assert metrics["loadbalance.psi_evals_per_job"][0] == k + 1
    # self times partition the traced time of the top-level spans
    total = sum(tracer.end[i] - tracer.start[i] for i in range(n) if tracer.parent[i] < 0)
    selfs = sum(v for key, (v, _) in metrics.items() if key.endswith(".self_s"))
    assert selfs == pytest.approx(total, rel=1e-9)


def test_bad_output_is_a_failed_operation(tmp_path, monkeypatch):
    import gradnorm.loadbalance as lb

    p = workloads.plan(TINY["lb-sym"], seed=3, workdir=str(tmp_path))
    assert not worker.operation(p["gen"], "gen", discard=False)["errors"]
    assert not worker.operation(p["runs"][0], "lb", discard=False)["errors"]

    real = lb.run_greedy

    def drops_a_round(*args, **kwargs):
        trace = real(*args, **kwargs)
        trace.choices = trace.choices[:-1]
        return trace

    monkeypatch.setattr(lb, "run_greedy", drops_a_round)
    op = worker.operation(p["runs"][0], "lb", discard=False)
    assert op["rc"] == 0 and op["errors"]

    def nan_norm(*args, **kwargs):
        trace = real(*args, **kwargs)
        trace.final_norm = float("nan")
        return trace

    monkeypatch.setattr(lb, "run_greedy", nan_norm)
    op = worker.operation(p["runs"][0], "lb", discard=False)
    assert op["rc"] == 0 and op["errors"]


def test_refused_verify_is_a_failed_operation(tmp_path):
    argv = list(workloads.plan(TINY["verify-topk"], seed=3, workdir=str(tmp_path))["runs"][0])
    argv[argv.index("--approx") + 1] = "gstopk:99"  # k > dim: a usage error, exit 2
    op = worker.operation(argv, "verify", discard=False)
    assert op["rc"] == 2 and op["errors"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lb-sym", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
