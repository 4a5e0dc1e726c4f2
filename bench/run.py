"""gradnorm benchmark: one workload, one seed, printed as metrics.

    python3 bench/run.py --workload lb-sym --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and uses the program in ``src/``.
Set-up is timed in fresh processes (import gradnorm, then ``gen``): up to
SETUPS_MAX of them, fewer (but at least SETUPS_MIN) when they are slow.
Then iterations of the workload's main commands run, each in its own fresh
process, through the public CLI entry point, until ``--seconds`` is spent.
Every output is checked.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (README.md); with
``--trace 1`` they are the per-layer spans and counts of one traced
iteration.  The exit code is 0 when every operation passed its checks, 1
when one failed, and 2 when the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS_MIN, SETUPS_MAX = 5, 21
SETUP_BUDGET_S = 8.0  # wall time after which no set-up beyond SETUPS_MIN starts
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def worker(task: dict, workdir: str) -> dict:
    """Run bench/worker.py in a fresh interpreter on one thread; its result."""
    result_path = os.path.join(workdir, f"{task['role']}-result.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(task), result_path],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{task['role']} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{task['role']} worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    with open(result_path) as fh:
        return json.load(fh)


def metadata(w: workloads.Workload, seed: int, sizes: dict, versions: dict) -> dict:
    src = os.path.join(ROOT, "src")
    lines = 0
    for base, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name)) as fh:
                    lines += sum(1 for _ in fh)
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "workload": w.name,
        "seeds": workloads.seeds(seed),
        "instance_sizes": sizes,
        "commit": commit,
        "nproc": os.cpu_count(),
        **versions,
        "src_lines": lines,  # information only, not a gated metric
    }


def run_benchmark(w: workloads.Workload, seed: int, seconds: float, trace: bool,
                  workdir: str) -> dict:
    """All operations and metrics of one benchmark run, as a report dict."""
    os.makedirs(workdir, exist_ok=True)
    setups = []
    start = time.perf_counter()
    while len(setups) < SETUPS_MAX and (
            len(setups) < SETUPS_MIN or time.perf_counter() - start < SETUP_BUDGET_S):
        i = len(setups)  # each set-up writes a new file, as a user's gen does
        gen = workloads.plan(w, seed, workdir, tag=f"-setup{i}" if i else "")["gen"]
        setups.append(worker({"role": "setup", "gen": gen}, workdir))
        if i and gen:
            os.remove(workloads.flag(gen, "--out"))

    p = workloads.plan(w, seed, workdir)
    task = {"role": "run", "kind": w.kind, "gen": None, "runs": p["runs"], "trace": False}
    runs = []
    budget = seconds / 2.0 if trace else seconds
    start = time.perf_counter()
    while True:  # one fresh process per iteration; stop before one would overrun
        t0 = time.perf_counter()
        runs.append(worker(task, workdir))
        now = time.perf_counter()
        if now - start + (now - t0) > budget:
            break
    traced = None
    if trace:
        tp = workloads.plan(w, seed, workdir, tag="-traced")
        traced = worker({"role": "run", "kind": w.kind, "gen": tp["gen"], "runs": tp["runs"],
                         "trace": True, "spans": os.path.join(workdir, "spans.csv.gz")}, workdir)

    setup_ops = [op for s in setups for op in s["ops"]]
    # The same inputs must give byte-identical files: every set-up the same
    # instance, and every run (traced or not) of a command the same output.
    groups = [setup_ops] + [list(g) for g in zip(*(r["ops"] for r in runs))]
    if traced is not None:
        groups[0] = groups[0] + traced["gen"]
        for group, op in zip(groups[1:], traced["ops"]):
            group.append(op)
    for group in groups:
        for op in group[1:]:
            if op.get("sha256") != group[0].get("sha256"):
                op["errors"].append("output differs from the first run of the same command")
    ops = [op for group in groups for op in group]

    first = runs[0]["ops"]
    q_name = q_raw = q_gated = None
    configs = []  # verify's per-config verdicts and margins, printed but not gated
    if all(not op["errors"] for op in first):
        q_name, q_raw, q_gated = workloads.quality(w.kind, [op["fields"] for op in first])
        if w.kind == "verify":
            configs = [{"approx": workloads.flag(op["argv"], "--approx"), **op["fields"]}
                       for op in first]
    run_times = [sum(op["seconds"] for op in r["ops"]) for r in runs]
    if setup_ops:
        sizes = setup_ops[0]["fields"].get("sizes", {})
    else:  # no instance: the sizes are the command's own
        sizes = {key: workloads.flag(first[0]["argv"], f"--{key}") for key in ("dim", "samples", "trials")}
    report = {
        "meta": metadata(w, seed, sizes, runs[0]["versions"]),
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["errors"]),
        "errors": [e for op in ops for e in op["errors"]],
        "sha256": {"instance": setup_ops[0].get("sha256") if setup_ops else None,
                   "outputs": [op.get("sha256") for op in first]},
        "setup_s": [s["setup_s"] for s in setups],
        "run_s": run_times,
        "peak_rss_kb": [r["peak_rss_kb"] for r in runs],
        "quality": {"name": q_name, "value": q_raw, "configs": configs},
        "end_to_end": {
            "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
            "run_s": (statistics.median(run_times), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in runs) / 1024.0, "MB"),
            "quality": (q_gated, "1"),
        },
    }
    if traced is not None:
        traced_s = sum(op["seconds"] for op in traced["ops"])
        layers = dict(traced["layers"])
        layers["trace.overhead_ratio"] = (traced_s / statistics.median(run_times), "1")
        frac = first[0]["fields"].get("rounds_played_frac", 0.0) if w.kind == "bwk" else 0.0
        layers["bandits.bwk.rounds_played_frac"] = (frac, "1")
        report["per_layer"] = layers
        report["traced_run_s"] = traced_s
    return report


def print_report(report: dict, trace: bool) -> None:
    meta = report["meta"]
    print(f"workload {meta['workload']}  seeds {meta['seeds']}")
    print(f"instance {meta['instance_sizes']}  sha256 {report['sha256']['instance']}")
    print(f"outputs sha256 {report['sha256']['outputs']}")
    print(f"commit {meta['commit']}  nproc {meta['nproc']}  python {meta['python']}  "
          f"numpy {meta['numpy']}  src lines {meta['src_lines']}")
    print(f"setup_s each {['%.4f' % v for v in report['setup_s']]}")
    print(f"run_s each   {['%.4f' % v for v in report['run_s']]}")
    q = report["quality"]
    print(f"quality      {q['name']} = {q['value']}")
    for c in q["configs"]:
        print(f"  {c['approx']}: violations {c['violations']}  worst_margin {c['worst_margin']:.6g}  "
              f"tolerance {c['tolerance']:.6g}  margin/tolerance {c['worst_margin'] / c['tolerance']:.3f}")
    metrics = report["per_layer"] if trace else report["end_to_end"]
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<48} {shown:>16} {unit}")
    if trace:
        print(f"traced run_s {report['traced_run_s']:.4f} against untraced "
              f"{report['end_to_end']['run_s'][0]:.4f}")
    print(f"operations attempted {report['attempted']} failed {report['failed']}")
    for err in report["errors"]:
        print(f"  FAILED: {err}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gradnorm", "cli.py")):
        print(f"error: no gradnorm sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".bench_work", f"{w.name}-seed{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        report = run_benchmark(w, args.seed, args.seconds, bool(args.trace), workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:  # keep the report and spans, drop instances and outputs
        for name in os.listdir(workdir) if os.path.isdir(workdir) else []:
            if name.startswith(("instance", "out")):
                os.remove(os.path.join(workdir, name))
    with open(os.path.join(workdir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print_report(report, bool(args.trace))
    metrics = report["per_layer"] if args.trace else report["end_to_end"]
    correct = report["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
