"""Command-line entry point.

    gradnorm verify --approx softmax --norm linf --dim 16 --check stability ...
    gradnorm lb run --instance jobs.jsonl --approx sym --opt auto:1 --seed 7 --out trace.json
    gradnorm lb brute --instance jobs.jsonl
    gradnorm vs run --instance vs.jsonl --opt given:3.2 --out trace.json
    gradnorm bwk run --instance arms.jsonl --opt 650 --seeds 20 --out results.csv
    gradnorm bvc run --instance arms.jsonl --seeds 20 --out results.csv
    gradnorm bench bwk --instance arms.jsonl
    gradnorm gen --problem lb --family uniform --m 3 --k 2 --T 8 --seed 42 --out jobs.jsonl

Every subcommand accepts ``--config file.json``, a JSON object whose entries
override the flags.  A flag not given is absent, and ``harness._get`` reads
each entry with its one default: null means the default, an integer option
takes a JSON integer, a number must be finite, and other options take a
string or true/false.  Config-only keys: ``benchmark`` (``lb``/``vs run
--seeds``) and ``lam``, ``mu``, ``horizon``, ``step_cap``, ``factor``
(``verify``).  ``harness`` turns each ``run`` config into runs: without
``--seeds``, ``lb``/``vs run`` writes one trace JSON (to stdout when ``--out``
is not given); with ``--seeds N``, and for ``bwk``/``bvc run``, it writes a
CSV plus ``<out>.summary.json``.  Exit codes: 0 all checks/runs pass,
1 violation or ratio regression, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING

from . import __version__
from . import bandits as bd
from . import harness
from . import loadbalance as lb
from .norms import NormParseError, NormSpecError

USAGE_ERROR = 2
CHECK_FAILED = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gradnorm", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"gradnorm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name, **kwargs):
        # a flag that is not given is absent from the config, so the harness default applies
        p = subparsers.add_parser(name, argument_default=argparse.SUPPRESS, **kwargs)
        p.add_argument("--config", help="JSON file whose entries override the flags")
        return p

    p = command(sub, "verify", help="run a property check on a surrogate")
    p.add_argument("--approx")
    p.add_argument("--norm")
    p.add_argument("--dim", type=int)
    p.add_argument("--check", choices=["stability", "sandwich", "smoothgame", "jensen", "structure"])
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--y-cap", dest="y_cap", type=float)
    p.add_argument("--out")

    for name, help_text in (("lb", "online generalized load balancing"),
                            ("vs", "online vector scheduling"),
                            ("bwk", "bwk bandit runs"), ("bvc", "bvc bandit runs")):
        gsub = sub.add_parser(name, help=help_text).add_subparsers(dest="subcommand", required=True)
        p = command(gsub, "run")
        p.add_argument("--instance", required=True)
        p.add_argument("--approx")
        if name in ("lb", "vs"):
            p.add_argument("--opt", help="given:<v> or auto:<v0>")
            p.add_argument("--theta", type=float)
        else:
            p.add_argument("--epsilon", type=float)
        if name == "bwk":
            p.add_argument("--opt", type=float, help="known optimum value")
            p.add_argument("--allow-small-budget", dest="allow_small_budget", action="store_true")
        for flag in ("seed", "seeds", "samples", "jobs"):
            p.add_argument(f"--{flag}", type=int)
        p.add_argument("--max-ratio", dest="max_ratio", type=float)
        p.add_argument("--out")
        if name == "lb":
            p = command(gsub, "brute")
            p.add_argument("--instance", required=True)
            p.add_argument("--out")

    p = command(sub, "bench", help="offline fixed-mixture benchmarks")
    p.add_argument("kind", choices=["bwk", "bvc"])
    p.add_argument("--instance", required=True)
    p.add_argument("--out")

    p = command(sub, "gen", help="generate a random instance file")
    p.add_argument("--problem", required=True, choices=["lb", "vs", "bwk", "bvc"])
    p.add_argument("--family", choices=list(harness.GENERATOR_FAMILIES))
    for size in ("m", "k", "T", "n", "d", "r"):
        p.add_argument(f"--{size}", type=int)
    p.add_argument("--scale", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--norm")
    p.add_argument("--inner", help="comma-separated inner norms for vs")
    p.add_argument("--budget", type=float)
    p.add_argument("--out", required=True)
    return parser


def _apply_config(args: argparse.Namespace) -> dict:
    """Namespace -> config dict, with --config entries taking precedence."""
    config = {k: v for k, v in vars(args).items() if k not in ("command", "subcommand", "config")}
    path = getattr(args, "config", None)
    if path:
        with open(path) as fh:
            entries = json.load(fh)
        if not isinstance(entries, dict):
            raise ValueError(f"config file {path} must hold a JSON object, got {type(entries).__name__}")
        config.update(entries)
    return config


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (NormSpecError, NormParseError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def _dispatch(args: argparse.Namespace) -> int:
    cfg = _apply_config(args)
    cmd = args.command
    if cmd == "gen":
        spec = harness.GeneratorSpec.from_config(cfg)
        out = harness._get(cfg, "out", MISSING, str)
        harness.generate(spec, out)
        print(f"generated {spec.problem}/{spec.family} instance at {out}")
        return 0

    out = harness._get(cfg, "out", None, str)
    if cmd == "verify":
        report = harness.run_verify_config(cfg)
        harness.dump_json(out, report.to_dict())
        print(f"check={report.name} passed={report.passed} worst_margin={report.worst_margin:g}")
        return 0 if report.passed else CHECK_FAILED

    if getattr(args, "subcommand", None) == "run":
        cfg["problem"] = cmd
        if cmd in ("lb", "vs") and cfg.get("seeds") is None:
            bound = harness._get(cfg, "max_ratio", None, float)
            _, _, run = harness.greedy_runner(cfg)
            trace = run(harness._get(cfg, "seed", 0, int))
            harness.dump_json(out, trace.to_dict())
            print(f"{cmd} final_norm={trace.final_norm:g} final_psi={trace.final_psi:g}")
            return 0 if bound is None or trace.final_norm <= bound else CHECK_FAILED
        summary = harness.run_experiment(cfg)
        print(
            f"{cmd} runs={summary['runs']} mean_ratio={summary['mean_ratio']:g} "
            f"max_ratio={summary['max_ratio']:g} passed={summary['passed']}"
        )
        return 0 if summary["passed"] else CHECK_FAILED

    instance = harness._get(cfg, "instance", MISSING, str)
    if cmd == "lb" and args.subcommand == "brute":
        value, assignment = lb.brute_force_opt(lb.read_lb_instance(instance))
        harness.dump_json(out, {"value": value, "assignment": list(assignment)})
        print(f"brute value={value:g}")
        return 0

    if cmd == "bench":
        benchmark = bd.benchmark_fixed_bvc if args.kind == "bvc" else bd.benchmark_fixed_bwk
        x, value, bound = benchmark(bd.read_bandit_instance(instance))
        harness.dump_json(out, {"x": x.tolist(), "value": value, "bound": bound})
        print(f"bench {args.kind} value={value:g} bound={bound:g}")
        return 0

    raise ValueError(f"unhandled command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
