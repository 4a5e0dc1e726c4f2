"""Command-line entry point.

    gradnorm verify --approx softmax --norm linf --dim 16 --check stability ...
    gradnorm lb run --instance jobs.jsonl --approx sym --opt auto:1 --seed 7 --out trace.json
    gradnorm lb brute --instance jobs.jsonl
    gradnorm vs run --instance vs.jsonl --opt given:3.2 --out trace.json
    gradnorm bwk run --instance arms.jsonl --opt 650 --seeds 20 --out results.csv
    gradnorm bvc run --instance arms.jsonl --seeds 20 --out results.csv
    gradnorm bench bwk --instance arms.jsonl
    gradnorm gen --problem lb --family uniform --m 3 --k 2 --T 8 --seed 42 --out jobs.jsonl

Every subcommand accepts ``--config file.json`` whose entries override the
flags.  Exit codes: 0 all checks/runs pass, 1 violation or ratio regression,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

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

    def add_config(p):
        p.add_argument("--config", help="JSON file whose entries override the flags")
        return p

    p = add_config(sub.add_parser("verify", help="run a property check on a surrogate"))
    p.add_argument("--approx", default="softmax")
    p.add_argument("--norm", default="linf")
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--check", default="stability",
                   choices=["stability", "sandwich", "smoothgame", "jensen", "structure"])
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--y-cap", dest="y_cap", type=float, default=1.0)
    p.add_argument("--out")

    lbp = sub.add_parser("lb", help="online generalized load balancing")
    lbsub = lbp.add_subparsers(dest="subcommand", required=True)
    p = add_config(lbsub.add_parser("run"))
    p.add_argument("--instance", required=True)
    p.add_argument("--approx", default="sym")
    p.add_argument("--opt", default="auto:1.0", help="given:<v> or auto:<v0>")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=None, help="multi-seed experiment mode")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--theta", type=float, default=8.0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--max-ratio", dest="max_ratio", type=float, default=None)
    p.add_argument("--out")
    p = add_config(lbsub.add_parser("brute"))
    p.add_argument("--instance", required=True)
    p.add_argument("--out")

    vsp = sub.add_parser("vs", help="online vector scheduling")
    vssub = vsp.add_subparsers(dest="subcommand", required=True)
    p = add_config(vssub.add_parser("run"))
    p.add_argument("--instance", required=True)
    p.add_argument("--approx", default=None, help="defaults to nested:<r> from the instance")
    p.add_argument("--opt", default="auto:1.0")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=None)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--theta", type=float, default=8.0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--max-ratio", dest="max_ratio", type=float, default=None)
    p.add_argument("--out")

    for name in ("bwk", "bvc"):
        gp = sub.add_parser(name, help=f"{name} bandit runs")
        gsub = gp.add_subparsers(dest="subcommand", required=True)
        p = add_config(gsub.add_parser("run"))
        p.add_argument("--instance", required=True)
        p.add_argument("--approx", default=None)
        if name == "bwk":
            p.add_argument("--opt", type=float, default=None, help="known optimum value")
            p.add_argument("--allow-small-budget", dest="allow_small_budget", action="store_true")
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--seeds", type=int, default=1)
        p.add_argument("--samples", type=int, default=2000)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--max-ratio", dest="max_ratio", type=float, default=None)
        p.add_argument("--out")

    p = add_config(sub.add_parser("bench", help="offline fixed-mixture benchmarks"))
    p.add_argument("kind", choices=["bwk", "bvc"])
    p.add_argument("--instance", required=True)
    p.add_argument("--out")

    p = add_config(sub.add_parser("gen", help="generate a random instance file"))
    p.add_argument("--problem", required=True, choices=["lb", "vs", "bwk", "bvc"])
    p.add_argument("--family", default="uniform", choices=list(harness.GENERATOR_FAMILIES))
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--T", type=int, default=8)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--norm", default="linf")
    p.add_argument("--inner", default=None, help="comma-separated inner norms for vs")
    p.add_argument("--budget", type=float, default=None)
    p.add_argument("--out", required=True)
    return parser


def _apply_config(args: argparse.Namespace) -> dict:
    """Namespace -> config dict, with --config entries taking precedence."""
    config = {k: v for k, v in vars(args).items() if k not in ("command", "subcommand", "config")}
    path = getattr(args, "config", None)
    if path:
        with open(path) as fh:
            config.update(json.load(fh))
    return config


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out:
        harness.atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


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
    if cmd == "verify":
        report = harness.run_verify_config(cfg)
        _emit(report.to_dict(), cfg.get("out"))
        print(f"check={report.name} passed={report.passed} worst_margin={report.worst_margin:g}")
        return 0 if report.passed else CHECK_FAILED

    if cmd in ("lb", "vs") and args.subcommand == "run":
        cfg["problem"] = cmd
        instance = lb.read_lb_instance(cfg["instance"])
        if cmd == "vs" and not instance.is_vector_scheduling:
            raise ValueError("vs run needs an instance with resource structure")
        if cfg.get("approx") is None:
            cfg["approx"] = f"nested:{instance.r}" if instance.is_vector_scheduling else "sym"
        if cfg.get("seeds") is not None:
            summary = harness.run_experiment(cfg)
            print(
                f"{cmd} runs={summary['runs']} mean_ratio={summary['mean_ratio']:g} "
                f"max_ratio={summary['max_ratio']:g} passed={summary['passed']}"
            )
            return 0 if summary["passed"] else CHECK_FAILED
        builder = harness._approx_builder(cfg["approx"], int(cfg.get("samples", 2000)), instance)
        trace = lb.run_greedy(
            instance,
            builder,
            harness._parse_opt_mode(cfg.get("opt", "auto:1.0")),
            seed=int(cfg.get("seed", 0)),
            theta=float(cfg.get("theta", 8.0)),
        )
        _emit(trace.to_dict(), cfg.get("out"))
        print(f"{cmd} final_norm={trace.final_norm:g} final_psi={trace.final_psi:g}")
        bound = cfg.get("max_ratio")
        return 0 if bound is None or trace.final_norm <= float(bound) else CHECK_FAILED

    if cmd == "lb" and args.subcommand == "brute":
        instance = lb.read_lb_instance(cfg["instance"])
        value, assignment = lb.brute_force_opt(instance)
        _emit({"value": value, "assignment": list(assignment)}, cfg.get("out"))
        print(f"brute value={value:g}")
        return 0

    if cmd in ("bwk", "bvc") and args.subcommand == "run":
        cfg["problem"] = cmd
        summary = harness.run_experiment(cfg)
        print(
            f"{cmd} runs={summary['runs']} mean_ratio={summary['mean_ratio']:g} "
            f"max_ratio={summary['max_ratio']:g} passed={summary['passed']}"
        )
        return 0 if summary["passed"] else CHECK_FAILED

    if cmd == "bench":
        instance = bd.read_bandit_instance(cfg["instance"])
        if args.kind == "bvc":
            x, value = bd.benchmark_fixed_bvc(instance)
        else:
            x, value = bd.benchmark_fixed_bwk(instance)
        _emit({"x": x.tolist(), "value": value}, cfg.get("out"))
        print(f"bench {args.kind} value={value:g}")
        return 0

    if cmd == "gen":
        inner = cfg.get("inner")
        spec = harness.GeneratorSpec(
            problem=cfg["problem"],
            family=cfg.get("family", "uniform"),
            m=int(cfg.get("m", 3)),
            k=int(cfg.get("k", 2)),
            T=int(cfg.get("T", 8)),
            n=int(cfg.get("n", 2)),
            d=int(cfg.get("d", 2)),
            r=int(cfg.get("r", 1)),
            scale=float(cfg.get("scale", 1.0)),
            seed=int(cfg.get("seed", 0)),
            norm=cfg.get("norm", "linf"),
            inner=inner.split(",") if isinstance(inner, str) else inner,
            budget=cfg.get("budget"),
        )
        harness.generate(spec, cfg["out"])
        print(f"generated {cfg['problem']}/{spec.family} instance at {cfg['out']}")
        return 0

    raise ValueError(f"unhandled command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
