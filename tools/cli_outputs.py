"""Fingerprint every shape of ``gradnorm`` command line.

Runs a fixed matrix of CLI commands, in order, in one fresh temporary
directory and prints one line per command: its name, its exit code, and the
sha256 (its first 16 hex digits) of its stdout, of its stderr and of every
file it created or changed.  The temporary directory's path is replaced by
``<tmp>``, and the ``src/`` path by ``<src>``, in stdout and stderr before
hashing, so two runs of the same code print identical lines.

    python tools/cli_outputs.py > a.txt     # in one checkout
    python tools/cli_outputs.py > b.txt     # in another
    diff a.txt b.txt

The CLI is run from the ``src/`` of the checkout this file lives in.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

VERIFY = ("--approx", "softmax", "--norm", "linf", "--dim", "6", "--trials", "30",
          "--samples", "200", "--seed", "3")

# (name, argv, config written to cfg-<name>.json and passed as --config, or None)
COMMANDS = [
    ("gen-lb", ["gen", "--problem", "lb", "--m", "3", "--k", "2", "--T", "8", "--seed", "42",
                "--norm", "topk:2", "--out", "lb.jsonl"], None),
    ("gen-vs", ["gen", "--problem", "vs", "--m", "3", "--k", "2", "--T", "6", "--r", "2",
                "--inner", "linf,l1", "--seed", "4", "--out", "vs.jsonl"], None),
    ("gen-bvc", ["gen", "--problem", "bvc", "--n", "3", "--d", "2", "--T", "60", "--seed", "5",
                 "--out", "bvc.jsonl"], None),
    ("gen-bwk", ["gen", "--problem", "bwk", "--n", "3", "--d", "4", "--T", "400",
                 "--family", "stochastic-bandit", "--budget", "150", "--norm", "topk:2",
                 "--seed", "6", "--out", "bwk.jsonl"], None),
    ("gen-bwk-small", ["gen", "--problem", "bwk", "--n", "3", "--d", "4", "--T", "60",
                       "--budget", "30", "--norm", "topk:2", "--seed", "6",
                       "--out", "bwk-small.jsonl"], None),
    ("gen-bwk-linf", ["gen", "--problem", "bwk", "--n", "3", "--d", "8", "--T", "400",
                      "--budget", "100", "--norm", "linf", "--seed", "7",
                      "--out", "bwk-linf.jsonl"], None),
    ("gen-bvc-spike", ["gen", "--problem", "bvc", "--family", "spike", "--n", "6", "--d", "2",
                       "--T", "60", "--seed", "8", "--out", "bvc-spike.jsonl"], None),
    ("gen-bwk-zero", ["gen", "--problem", "bwk", "--n", "3", "--d", "4", "--T", "60",
                      "--budget", "0", "--norm", "topk:2", "--seed", "9",
                      "--out", "bwk-zero.jsonl"], None),
    ("gen-bad-family", ["gen", "--problem", "lb", "--family", "diagonal", "--m", "3", "--k", "2",
                        "--out", "x.jsonl"], None),
    *[(f"verify-{check}", ["verify", *VERIFY, "--check", check, "--out", f"{check}.json"], None)
      for check in ("stability", "sandwich", "smoothgame", "jensen", "structure")],
    ("verify-stdout", ["verify", *VERIFY, "--check", "structure"], None),
    ("verify-fail", ["verify", "--approx", "gstopk:4", "--norm", "topk:4", "--dim", "16",
                     "--check", "stability", "--trials", "20", "--seed", "4", "--samples", "500",
                     "--delta", "-0.5", "--out", "fail.json"], None),
    ("verify-config", ["verify", *VERIFY, "--check", "structure", "--out", "cfg.json"],
     {"trials": 9}),
    ("lb-run-file", ["lb", "run", "--instance", "lb.jsonl", "--samples", "300", "--seed", "7",
                     "--out", "lb-trace.json"], None),
    ("lb-run-stdout", ["lb", "run", "--instance", "lb.jsonl", "--approx", "softmax",
                       "--opt", "given:2.0", "--seed", "7"], None),
    ("lb-run-max-ratio", ["lb", "run", "--instance", "lb.jsonl", "--approx", "softmax",
                          "--max-ratio", "0.5"], None),
    ("lb-run-seeds-file", ["lb", "run", "--instance", "lb.jsonl", "--approx", "softmax",
                           "--seeds", "3", "--seed", "1", "--out", "lb-seeds.csv"], None),
    ("lb-run-seeds-stdout", ["lb", "run", "--instance", "lb.jsonl", "--samples", "300",
                             "--seeds", "2", "--jobs", "2"], None),
    ("lb-run-seeds-max-ratio", ["lb", "run", "--instance", "lb.jsonl", "--approx", "softmax",
                                "--seeds", "2", "--max-ratio", "1.0", "--out", "lb-mr.csv"], None),
    ("lb-run-config", ["lb", "run", "--instance", "lb.jsonl", "--out", "lb-cfg.csv"],
     {"approx": "softmax", "seeds": 2, "theta": 4.0, "opt": "auto:0.25", "benchmark": 3.0}),
    ("lb-run-on-vs", ["lb", "run", "--instance", "vs.jsonl", "--samples", "300",
                      "--out", "lb-on-vs.json"], None),
    ("vs-run-file", ["vs", "run", "--instance", "vs.jsonl", "--samples", "300", "--seed", "2",
                     "--opt", "given:1.5", "--out", "vs-trace.json"], None),
    ("vs-run-stdout", ["vs", "run", "--instance", "vs.jsonl", "--samples", "300"], None),
    ("vs-run-seeds-file", ["vs", "run", "--instance", "vs.jsonl", "--samples", "300",
                           "--seeds", "2", "--out", "vs-seeds.csv"], None),
    ("vs-run-on-lb", ["vs", "run", "--instance", "lb.jsonl"], None),
    ("lb-brute-file", ["lb", "brute", "--instance", "lb.jsonl", "--out", "brute.json"], None),
    ("lb-brute-stdout", ["lb", "brute", "--instance", "vs.jsonl"], None),
    ("bvc-run-file", ["bvc", "run", "--instance", "bvc.jsonl", "--seeds", "2", "--seed", "3",
                      "--out", "bvc.csv"], None),
    ("bvc-run-stdout", ["bvc", "run", "--instance", "bvc.jsonl", "--approx", "slp:2",
                        "--epsilon", "0.5"], None),
    ("bwk-run-file", ["bwk", "run", "--instance", "bwk.jsonl", "--samples", "300",
                      "--seeds", "2", "--out", "bwk.csv"], None),
    ("bwk-run-opt", ["bwk", "run", "--instance", "bwk.jsonl", "--samples", "300", "--opt", "60",
                     "--max-ratio", "0.5", "--out", "bwk-opt.csv"], None),
    ("bwk-run-small-budget", ["bwk", "run", "--instance", "bwk-small.jsonl"], None),
    ("bwk-run-linf", ["bwk", "run", "--instance", "bwk-linf.jsonl", "--seeds", "2",
                      "--out", "bwk-linf.csv"], None),
    ("bench-bvc", ["bench", "bvc", "--instance", "bvc.jsonl", "--out", "bench-bvc.json"], None),
    ("bench-bwk", ["bench", "bwk", "--instance", "bwk.jsonl"], None),
    ("bench-bvc-spike", ["bench", "bvc", "--instance", "bvc-spike.jsonl",
                         "--out", "bench-bvc-spike.json"], None),
    ("bench-bwk-zero", ["bench", "bwk", "--instance", "bwk-zero.jsonl"], None),
    ("usage-no-command", [], None),
    ("usage-bad-choice", ["verify", "--check", "nonsense"], None),
    ("usage-missing-instance", ["lb", "run", "--instance", "missing.jsonl"], None),
    ("usage-bad-approx", ["lb", "run", "--instance", "lb.jsonl", "--approx", "bogus"], None),
    ("usage-bad-opt", ["lb", "run", "--instance", "lb.jsonl", "--opt", "given:nan"], None),
    ("usage-bad-norm", ["verify", "--norm", "topk:x", "--dim", "4"], None),
    ("usage-lb-seeds-0", ["lb", "run", "--instance", "lb.jsonl", "--approx", "softmax",
                          "--seeds", "0"], None),
    ("usage-lb-seeds-negative", ["lb", "run", "--instance", "lb.jsonl", "--approx", "softmax",
                                 "--seeds", "-3"], None),
    ("usage-bvc-seeds-0", ["bvc", "run", "--instance", "bvc.jsonl", "--seeds", "0"], None),
    ("usage-seeds-float", ["bvc", "run", "--instance", "bvc.jsonl"], {"seeds": 2.0}),
    ("usage-seeds-string", ["bvc", "run", "--instance", "bvc.jsonl"], {"seeds": "12"}),
    ("usage-config-not-object", ["bvc", "run", "--instance", "bvc.jsonl"], [1, 2]),
    ("usage-bwk-opt-0", ["bwk", "run", "--instance", "bwk.jsonl", "--samples", "300",
                         "--opt", "0"], None),
    ("usage-lb-theta-0", ["lb", "run", "--instance", "lb.jsonl", "--approx", "softmax",
                          "--theta", "0"], None),
    ("verify-config-null", ["verify", *VERIFY, "--check", "structure", "--out", "null.json"],
     {"dim": None}),
    ("gen-config-null", ["gen", "--problem", "lb", "--seed", "42", "--out", "lb-null.jsonl"],
     {"m": None}),
    ("usage-config-approx-int", ["bvc", "run", "--instance", "bvc.jsonl"], {"approx": 5}),
    ("usage-config-bool-string", ["bwk", "run", "--instance", "bwk-small.jsonl"],
     {"allow_small_budget": "false"}),
    ("usage-verify-epsilon-nan", ["verify", *VERIFY, "--check", "structure", "--epsilon", "nan"],
     None),
    ("usage-verify-trials-0", ["verify", *VERIFY, "--check", "structure", "--trials", "0"], None),
    ("usage-gen-budget-negative", ["gen", "--problem", "bwk", "--budget", "-3",
                                   "--out", "bwk-negative.jsonl"], None),
]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def snapshot(root: str) -> dict[str, str]:
    files = {}
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                files[name] = sha(fh.read())
    return files


def main() -> int:
    env = {**os.environ, "PYTHONPATH": SRC}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, config in COMMANDS:
            if config is not None:
                cfg = f"cfg-{name}.json"
                with open(os.path.join(tmp, cfg), "w") as fh:
                    json.dump(config, fh)
                argv = [*argv, "--config", cfg]
            before = snapshot(tmp)
            proc = subprocess.run([sys.executable, "-m", "gradnorm.cli", *argv], cwd=tmp,
                                  env=env, capture_output=True)
            after = snapshot(tmp)
            changed = [f"{f}={h}" for f, h in after.items() if before.get(f) != h]
            out, err = (s.replace(tmp.encode(), b"<tmp>").replace(SRC.encode(), b"<src>")
                        for s in (proc.stdout, proc.stderr))
            print(name, f"exit={proc.returncode}", f"stdout={sha(out)}", f"stderr={sha(err)}",
                  *changed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
