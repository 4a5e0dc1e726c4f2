"""One fresh benchmark process: set up once, or run a workload's commands once.

    python3 bench/worker.py '<task json>' <result.json>

The task says which role to play:

* ``setup``: import gradnorm and run ``gen``, timed together; this is what a
  user pays before the first run.
* ``run``: import gradnorm, then call the public CLI entry point
  ``gradnorm.cli.main`` in process for each of the workload's main commands,
  each timed.  With ``trace``, the span wrappers are installed first, and a
  ``gen`` (when the workload has one) is traced after the main commands.

Every command's output is checked after its timer stops.  The result file
holds per-operation times, exit codes, sha256 digests and check errors.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import workloads


def call_cli(argv: list[str]):
    """(exit code, seconds, stderr tail) of one in-process CLI call."""
    from gradnorm import cli

    sink_out, sink_err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code
    except Exception:  # a traceback is a failed operation, not a crash of the benchmark
        rc = "traceback"
        sink_err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    return rc, seconds, sink_err.getvalue()[-2000:]


def operation(argv: list[str], kind: str, discard: bool) -> dict:
    """Run, time and check one command; ``discard`` deletes its output files
    afterwards, so the next run writes new files as a user's first run does."""
    rc, seconds, err = call_cli(argv)
    op = {"argv": argv, "kind": kind, "rc": rc, "seconds": seconds}
    try:
        errors, fields = workloads.CHECKS[kind](argv, rc)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        errors, fields = [f"output unreadable: {type(exc).__name__}: {exc}"], {}
    if rc == "traceback":
        errors.insert(0, err)
    out = workloads.flag(argv, "--out")
    if os.path.exists(out):
        op["sha256"] = workloads.sha256_file(out)
        if discard:
            for path in (out, os.path.splitext(out)[0] + ".summary.json"):
                if os.path.exists(path):
                    os.remove(path)
    op["errors"] = errors
    op["fields"] = fields
    return op


def setup(task: dict) -> dict:
    t0 = time.perf_counter()
    import gradnorm.cli  # noqa: F401  (the import is part of set-up)

    import_s = time.perf_counter() - t0
    ops = [operation(task["gen"], "gen", discard=False)] if task["gen"] else []
    return {"setup_s": import_s + sum(op["seconds"] for op in ops), "ops": ops}


def run(task: dict) -> dict:
    import numpy

    import gradnorm.cli  # noqa: F401  (imported before timing: set-up covers it)

    tracer = None
    if task["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        ops = [operation(argv, task["kind"], discard=True) for argv in task["runs"]]
        # after the main commands, so their memory allocator state is that of
        # an untraced run's fresh process
        gen = [operation(task["gen"], "gen", discard=True)] if task["gen"] else []
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "gen": gen,
        "ops": ops,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__},
    }
    if tracer is not None:
        tracer.write(task["spans"])
        result["layers"] = tracer.metrics()
    return result


def main(argv: list[str]) -> int:
    task = json.loads(argv[1])
    result = setup(task) if task["role"] == "setup" else run(task)
    with open(argv[2], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
