"""Generators, experiment orchestration, atomic outputs and the CLI contract."""

import json
import math
import os
import subprocess
import sys
from dataclasses import MISSING

import numpy as np
import pytest

from gradnorm.harness import (
    GeneratorSpec,
    _get,
    atomic_write_text,
    dump_json,
    generate,
    run_experiment,
    run_verify_config,
    write_csv,
)
from gradnorm.approx import build_approx
from gradnorm.bandits import benchmark_fixed_bwk, bwk_run, read_bandit_instance
from gradnorm.loadbalance import (
    LbInstance,
    brute_force_opt,
    format_lb_instance,
    read_lb_instance,
    run_greedy,
)
from gradnorm.norms import linf, normalize_spec
from gradnorm.seeding import derive_seed


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "gradnorm.cli", *args],
        capture_output=True,
        text=True,
    )


class TestSeeding:
    def test_labels_give_independent_streams(self):
        a = derive_seed(1, "x", 0)
        b = derive_seed(1, "x", 1)
        c = derive_seed(2, "x", 0)
        assert len({a, b, c}) == 3

    def test_stable_values(self):
        assert derive_seed(0, "run", 0) == derive_seed(0, "run", 0)


class TestGenerate:
    def test_byte_identical(self, tmp_path):
        spec = GeneratorSpec(problem="lb", family="uniform", m=3, k=2, T=5, seed=9)
        p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        generate(spec, p1)
        generate(spec, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_diagonal_loads_one_machine_per_option(self, tmp_path):
        path = str(tmp_path / "diag.jsonl")
        generate(GeneratorSpec(problem="lb", family="diagonal", m=3, k=3, T=4, seed=1), path)
        inst = read_lb_instance(path)
        for job in inst.jobs:
            for j in range(3):
                assert np.count_nonzero(job[:, j]) == 1
                assert job[j, j] > 0

    def test_diagonal_requires_square(self, tmp_path):
        with pytest.raises(ValueError):
            generate(GeneratorSpec(problem="lb", family="diagonal", m=3, k=2, T=2, seed=1),
                     str(tmp_path / "x.jsonl"))

    def test_bandit_families(self, tmp_path):
        for family in ("uniform", "spike", "stochastic-bandit"):
            path = str(tmp_path / f"{family}.jsonl")
            generate(GeneratorSpec(problem="bwk", family=family, n=3, d=2, T=10, seed=2), path)
            from gradnorm.bandits import read_bandit_instance

            inst = read_bandit_instance(path)
            assert inst.null_action == 2
            assert inst.costs.max() <= 1.0

    def test_size_cap(self, tmp_path):
        with pytest.raises(ValueError):
            generate(GeneratorSpec(problem="lb", m=1000, k=1000, T=1000, seed=0),
                     str(tmp_path / "big.jsonl"))


class TestAtomicOutputs:
    def test_no_temp_residue(self, tmp_path):
        path = str(tmp_path / "out" / "res.txt")
        atomic_write_text(path, "hello")
        assert open(path).read() == "hello"
        assert os.listdir(os.path.dirname(path)) == ["res.txt"]

    def test_failed_rename_leaves_no_partial(self, tmp_path, monkeypatch):
        path = str(tmp_path / "res.txt")

        def boom(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            atomic_write_text(path, "partial")
        assert not os.path.exists(path)
        assert os.listdir(tmp_path) == []

    def test_json_refuses_non_finite(self, tmp_path):
        path = str(tmp_path / "s.json")
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                dump_json(path, {"mean_ratio": bad})
        assert os.listdir(tmp_path) == []

    def test_csv_floats_roundtrip(self, tmp_path):
        path = str(tmp_path / "r.csv")
        write_csv(path, ["a", "b"], [[1, 0.1 + 0.2], [2, 1e-17]])
        lines = open(path).read().splitlines()
        assert float(lines[1].split(",")[1]) == 0.1 + 0.2
        assert float(lines[2].split(",")[1]) == 1e-17


class TestRunExperiment:
    def test_verify_softmax_stability(self):
        report = run_verify_config({
            "approx": "softmax", "norm": "linf", "dim": 8,
            "check": "stability", "trials": 100, "seed": 1, "samples": 100,
        })
        assert report.passed is True

    def test_verify_dim_defaults_to_the_cli_default(self):
        config = {"check": "stability", "trials": 5, "samples": 100}
        report = run_verify_config(config).to_dict()
        assert report == run_verify_config({**config, "dim": 16}).to_dict()
        assert len(report["witness"]["x"]) == 16

    def test_lb_single_round_ratio_one(self, tmp_path):
        rng = np.random.default_rng(3)
        inst = LbInstance(m=3, k=2, T=1, jobs=[rng.uniform(0, 1, (3, 2))],
                          norm=normalize_spec(linf(3)))
        path = str(tmp_path / "i.jsonl")
        atomic_write_text(path, format_lb_instance(inst))
        out = str(tmp_path / "res.csv")
        summary = run_experiment({
            "problem": "lb", "instance": path, "approx": "softmax",
            "opt": "auto:0.5", "seeds": 3, "seed": 0, "out": out,
        })
        assert summary["max_ratio"] == pytest.approx(1.0)
        rows = open(out).read().splitlines()[1:]
        assert len(rows) == 3

    def test_csv_ratio_recomputes(self, tmp_path):
        path = str(tmp_path / "i.jsonl")
        generate(GeneratorSpec(problem="bvc", family="uniform", n=2, d=2, T=40, seed=4), path)
        out = str(tmp_path / "res.csv")
        run_experiment({
            "problem": "bvc", "instance": path, "approx": "softmax",
            "seeds": 2, "seed": 1, "out": out, "samples": 200,
        })
        for line in open(out).read().splitlines()[1:]:
            cells = line.split(",")
            final_norm, bench, ratio = float(cells[2]), float(cells[4]), float(cells[5])
            assert ratio == pytest.approx(final_norm / bench, abs=1e-9)

    def test_seed_extension_keeps_prefix(self, tmp_path):
        path = str(tmp_path / "i.jsonl")
        generate(GeneratorSpec(problem="bvc", family="uniform", n=2, d=2, T=30, seed=5), path)
        outs = []
        for count in (2, 3):
            out = str(tmp_path / f"res{count}.csv")
            run_experiment({
                "problem": "bvc", "instance": path, "approx": "softmax",
                "seeds": count, "seed": 7, "out": out, "samples": 200,
            })
            outs.append(open(out).read().splitlines())
        assert outs[0][:3] == outs[1][:3]  # header + first two rows unchanged

    def test_regression_bound_fails_summary(self, tmp_path):
        path = str(tmp_path / "i.jsonl")
        generate(GeneratorSpec(problem="bvc", family="uniform", n=2, d=2, T=30, seed=6), path)
        summary = run_experiment({
            "problem": "bvc", "instance": path, "approx": "softmax",
            "seeds": 1, "seed": 0, "samples": 200, "max_ratio": 1e-9,
        })
        assert summary["passed"] is False

    def test_parallel_matches_serial(self, tmp_path):
        path = str(tmp_path / "i.jsonl")
        generate(GeneratorSpec(problem="bvc", family="uniform", n=2, d=2, T=30, seed=8), path)
        base = {"problem": "bvc", "instance": path, "approx": "softmax",
                "seeds": 4, "seed": 3, "samples": 200}
        s1 = run_experiment({**base, "out": str(tmp_path / "a.csv"), "jobs": 1})
        s2 = run_experiment({**base, "out": str(tmp_path / "b.csv"), "jobs": 4})
        assert open(tmp_path / "a.csv").read() == open(tmp_path / "b.csv").read()
        assert s1 == s2


class TestCli:
    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert "gradnorm" in proc.stdout

    def test_usage_error_exit_2(self):
        assert run_cli("verify", "--check", "nonsense").returncode == 2
        assert run_cli("lb", "run", "--instance", "/no/such/file.jsonl").returncode == 2

    def test_verify_pass_exit_0(self, tmp_path):
        out = str(tmp_path / "rep.json")
        proc = run_cli("verify", "--approx", "softmax", "--norm", "linf", "--dim", "6",
                       "--check", "stability", "--trials", "50", "--seed", "3",
                       "--samples", "100", "--out", out)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(open(out).read())
        assert report["passed"] is True

    def test_verify_fail_exit_1(self):
        # zero slack budget on the stochastic surrogate is unattainable
        proc = run_cli("verify", "--approx", "gstopk:4", "--norm", "topk:4", "--dim", "16",
                       "--check", "stability", "--trials", "100", "--seed", "4",
                       "--samples", "2000", "--delta", "-0.5")
        assert proc.returncode == 1, proc.stdout + proc.stderr

    def test_gen_and_run_byte_identical(self, tmp_path):
        inst = str(tmp_path / "i.jsonl")
        proc = run_cli("gen", "--problem", "lb", "--family", "uniform", "--m", "3",
                       "--k", "2", "--T", "6", "--seed", "11", "--out", inst)
        assert proc.returncode == 0
        traces = []
        for name in ("t1.json", "t2.json"):
            out = str(tmp_path / name)
            proc = run_cli("lb", "run", "--instance", inst, "--approx", "softmax",
                           "--opt", "given:2.0", "--seed", "5", "--out", out)
            assert proc.returncode == 0, proc.stderr
            traces.append(open(out, "rb").read())
        assert traces[0] == traces[1]

    def test_config_overrides_flags(self, tmp_path):
        cfg = str(tmp_path / "cfg.json")
        json.dump({"trials": 9}, open(cfg, "w"))
        out = str(tmp_path / "rep.json")
        proc = run_cli("verify", "--approx", "softmax", "--dim", "4", "--check",
                       "structure", "--trials", "50", "--samples", "100",
                       "--config", cfg, "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(open(out).read())["trials"] == 9

    def test_bench_and_brute(self, tmp_path):
        inst = str(tmp_path / "b.jsonl")
        run_cli("gen", "--problem", "bvc", "--n", "2", "--d", "2", "--T", "20",
                "--seed", "2", "--out", inst)
        proc = run_cli("bench", "bvc", "--instance", inst)
        assert proc.returncode == 0
        lbinst = str(tmp_path / "l.jsonl")
        run_cli("gen", "--problem", "lb", "--m", "2", "--k", "2", "--T", "4",
                "--seed", "2", "--out", lbinst)
        proc = run_cli("lb", "brute", "--instance", lbinst)
        assert proc.returncode == 0
        assert "value=" in proc.stdout


def trace_json(trace) -> str:
    return json.dumps(trace.to_dict(), sort_keys=True, indent=2, allow_nan=False) + "\n"


class TestCliMatchesLibrary:
    """CLI output files hold exactly what the library calls they stand for return."""

    def test_vs_run_defaults_to_nested(self, tmp_path):
        path = str(tmp_path / "vs.jsonl")
        generate(GeneratorSpec(problem="vs", m=3, k=2, T=6, r=2, inner=["linf", "l1"], seed=4),
                 path)
        out = str(tmp_path / "t.json")
        proc = run_cli("vs", "run", "--instance", path, "--samples", "300", "--seed", "2",
                       "--out", out)
        assert proc.returncode == 0, proc.stderr
        inst = read_lb_instance(path)

        def nested(dim, eps, seed):
            return build_approx("nested:2", dim, eps, samples=300, seed=seed,
                                inner_norms=inst.inner, machines=inst.m)

        trace = run_greedy(inst, nested, ("auto", 1.0), seed=2, theta=8.0)
        assert open(out).read() == trace_json(trace)
        assert proc.stdout == (f"vs final_norm={trace.final_norm:g} "
                               f"final_psi={trace.final_psi:g}\n")

    def test_lb_run_on_vector_instance_defaults_to_nested(self, tmp_path):
        # the default surrogate comes from the instance for lb run as for vs run
        path = str(tmp_path / "vs.jsonl")
        generate(GeneratorSpec(problem="vs", m=3, k=2, T=5, r=2, seed=6), path)
        outs = []
        for cmd in ("lb", "vs"):
            out = str(tmp_path / f"{cmd}.json")
            proc = run_cli(cmd, "run", "--instance", path, "--samples", "300", "--out", out)
            assert proc.returncode == 0, proc.stderr
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]

    def test_lb_run_seeds(self, tmp_path):
        path = str(tmp_path / "lb.jsonl")
        generate(GeneratorSpec(problem="lb", m=3, k=2, T=7, seed=8, norm="topk:2"), path)
        out = str(tmp_path / "r.csv")
        proc = run_cli("lb", "run", "--instance", path, "--samples", "300", "--seeds", "3",
                       "--seed", "5", "--out", out)
        assert proc.returncode == 0, proc.stderr
        inst = read_lb_instance(path)
        bench, _ = brute_force_opt(inst)

        def sym(dim, eps, seed):
            return build_approx("sym", dim, eps, samples=300, seed=seed, norm=inst.norm)

        rows, ratios = [], []
        for i in range(3):
            seed = derive_seed(5, "run", i)
            final = run_greedy(inst, sym, ("auto", 1.0), seed=seed).final_norm
            ratios.append(final / bench)
            rows.append([seed, final, bench, final / bench])
        expected = str(tmp_path / "expected.csv")
        write_csv(expected, ["seed", "final_norm", "benchmark", "ratio"], rows)
        assert open(out).read() == open(expected).read()
        summary = json.load(open(str(tmp_path / "r.summary.json")))
        assert (summary["runs"], summary["mean_ratio"], summary["max_ratio"]) == (
            3, float(np.mean(ratios)), max(ratios))

    def test_bwk_run(self, tmp_path):
        path = str(tmp_path / "bwk.jsonl")
        generate(GeneratorSpec(problem="bwk", n=3, d=2, T=200, seed=9), path)
        out = str(tmp_path / "r.csv")
        proc = run_cli("bwk", "run", "--instance", path, "--samples", "300", "--seeds", "2",
                       "--seed", "1", "--out", out)
        assert proc.returncode == 0, proc.stderr
        inst = read_bandit_instance(path)
        _, bench, _ = benchmark_fixed_bwk(inst)
        rows = []
        for i in range(2):
            seed = derive_seed(1, "run", i)
            psi_seed = derive_seed(seed, "approx")
            meta = build_approx("softmax", inst.d, 1.0, seed=psi_seed, norm=inst.norm).meta
            psi = build_approx("softmax", inst.d, (meta.alpha + meta.gamma) / bench,
                               seed=psi_seed, norm=inst.norm)
            tr = bwk_run(inst, psi, bench, seed=seed)
            rows.append([seed, tr.total_reward, tr.final_norm, tr.stopped_at, bench,
                         tr.total_reward / bench])
        expected = str(tmp_path / "expected.csv")
        write_csv(expected, ["seed", "total_reward", "final_norm_cost", "stopped_at",
                             "benchmark_value", "ratio"], rows)
        assert open(out).read() == open(expected).read()


class TestNonFiniteInput:
    """NaN or inf input exits 2 with a message, never a traceback or a NaN result."""

    def lb_file(self, tmp_path, value):
        path = str(tmp_path / "lb.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"m": 2, "k": 2, "T": 2, "norm": "linf"}) + "\n")
            fh.write(json.dumps({"C": [[0.5, 1.0], [1.0, 0.5]]}) + "\n")
            fh.write(json.dumps({"C": [[value, 1.0], [1.0, 0.5]]}) + "\n")
        return path

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_lb_load(self, tmp_path, value):
        out = str(tmp_path / "t.json")
        proc = run_cli("lb", "run", "--instance", self.lb_file(tmp_path, value),
                       "--approx", "softmax", "--out", out)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "job 1 has non-finite loads" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not os.path.exists(out)

    def test_bvc_cost(self, tmp_path):
        path = str(tmp_path / "bvc.jsonl")
        run_cli("gen", "--problem", "bvc", "--n", "2", "--d", "2", "--T", "5",
                "--seed", "3", "--out", path)
        lines = open(path).read().splitlines()
        row = json.loads(lines[2])
        row["C"][0][0] = math.nan
        lines[2] = json.dumps(row, sort_keys=True)
        open(path, "w").write("\n".join(lines) + "\n")
        proc = run_cli("bvc", "run", "--instance", path)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "cost entries must lie in [0, 1]" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bwk_budget(self, tmp_path):
        path = str(tmp_path / "bwk.jsonl")
        run_cli("gen", "--problem", "bwk", "--n", "3", "--d", "2", "--T", "5",
                "--seed", "3", "--out", path)
        lines = open(path).read().splitlines()
        header = json.loads(lines[0])
        header["B"] = math.nan
        lines[0] = json.dumps(header, sort_keys=True)
        open(path, "w").write("\n".join(lines) + "\n")
        proc = run_cli("bwk", "run", "--instance", path)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "budget must be finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("opt", ["given:nan", "given:inf", "auto:nan"])
    def test_opt_value(self, tmp_path, opt):
        path = self.lb_file(tmp_path, 0.25)
        proc = run_cli("lb", "run", "--instance", path, "--approx", "softmax", "--opt", opt)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "opt value must be finite" in proc.stderr
        assert proc.stdout == ""

    def test_non_finite_result_is_not_written(self):
        # no trials would leave the worst margin at +inf: the check refuses them
        proc = run_cli("verify", "--approx", "softmax", "--dim", "4", "--check",
                       "structure", "--trials", "0", "--samples", "100")
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "error: trials must be >= 1, got 0" in proc.stderr
        assert proc.stdout == ""


class TestOutOfContractInput:
    """Malformed instances and undefined ratios exit 2 with a message."""

    def bandit_file(self, tmp_path, rows_kept, extra_rows=0):
        path = str(tmp_path / "bwk.jsonl")
        run_cli("gen", "--problem", "bwk", "--n", "3", "--d", "2", "--T", "30",
                "--budget", "20", "--seed", "3", "--out", path)
        lines = open(path).read().splitlines()
        lines = lines[: 1 + rows_kept] + lines[1 : 1 + extra_rows]
        open(path, "w").write("\n".join(lines) + "\n")
        return path

    def test_bandit_file_with_fewer_rows_than_t(self, tmp_path):
        path = self.bandit_file(tmp_path, rows_kept=20)
        proc = run_cli("bwk", "run", "--instance", path, "--allow-small-budget")
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "20 rows, but the header's T is 30" in proc.stderr
        assert "Traceback" not in proc.stderr and "passed" not in proc.stdout

    def test_bandit_file_with_more_rows_than_t(self, tmp_path):
        path = self.bandit_file(tmp_path, rows_kept=30, extra_rows=1)
        proc = run_cli("bvc", "run", "--instance", path)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "more than the header's T=30 rows" in proc.stderr
        assert "Traceback" not in proc.stderr

    def lb_file(self, tmp_path, header, jobs):
        path = str(tmp_path / "lb.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"norm": "linf", **header}) + "\n")
            for job in jobs:
                fh.write(json.dumps({"C": job}) + "\n")
        return path

    @pytest.mark.parametrize("header,jobs,message", [
        ({"m": 2, "k": 0, "T": 1}, [[[], []]], "need m >= 1 machines and k >= 1 options"),
        ({"m": 0, "k": 2, "T": 1}, [[]], "dim must be >= 1"),  # the norm is parsed first
    ], ids=["k=0", "m=0"])
    def test_lb_instance_without_machines_or_options(self, tmp_path, header, jobs, message):
        proc = run_cli("lb", "run", "--instance", self.lb_file(tmp_path, header, jobs),
                       "--approx", "softmax")
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_all_zero_instance_ratio_is_one(self, tmp_path):
        path = self.lb_file(tmp_path, {"m": 2, "k": 2, "T": 2}, [[[0.0, 0.0], [0.0, 0.0]]] * 2)
        out = str(tmp_path / "res.csv")
        proc = run_cli("lb", "run", "--instance", path, "--approx", "softmax",
                       "--seeds", "1", "--out", out)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert open(out).read().splitlines()[1].split(",")[1:] == ["0.0", "0.0", "1.0"]
        summary = json.load(open(str(tmp_path / "res.summary.json")))
        assert summary["mean_ratio"] == summary["max_ratio"] == 1.0

    def test_positive_norm_over_zero_benchmark(self, tmp_path):
        path = self.lb_file(tmp_path, {"m": 2, "k": 2, "T": 1}, [[[1.0, 2.0], [1.0, 2.0]]])
        config = str(tmp_path / "cfg.json")
        with open(config, "w") as fh:
            json.dump({"benchmark": 0.0}, fh)
        out = str(tmp_path / "res.csv")
        proc = run_cli("lb", "run", "--instance", path, "--approx", "softmax",
                       "--seeds", "1", "--config", config, "--out", out)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "the benchmark is 0.0, not positive" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not os.path.exists(out)

    @pytest.mark.parametrize("cmd,seeds", [("lb", "0"), ("lb", "-3"), ("bvc", "0")])
    def test_seed_count_below_one(self, tmp_path, cmd, seeds):
        if cmd == "lb":
            path = self.lb_file(tmp_path, {"m": 2, "k": 2, "T": 1}, [[[1.0, 2.0], [1.0, 2.0]]])
        else:
            path = self.bandit_file(tmp_path, rows_kept=30)
        proc = run_cli(cmd, "run", "--instance", path, "--approx", "softmax", "--seeds", seeds)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert f"seeds must be a count >= 1 or a non-empty list of integers, got {seeds}" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("seeds", [2.0, "12", [], [1, 2.5], True])
    def test_config_seeds_of_the_wrong_type(self, tmp_path, seeds):
        config = str(tmp_path / "cfg.json")
        with open(config, "w") as fh:
            json.dump({"seeds": seeds}, fh)
        out = str(tmp_path / "res.csv")
        proc = run_cli("bvc", "run", "--instance", self.bandit_file(tmp_path, rows_kept=30),
                       "--config", config, "--out", out)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "seeds must be a count >= 1 or a non-empty list of integers" in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        assert not os.path.exists(out)

    @pytest.mark.parametrize("entries", [[1, 2], "seeds", 3])
    def test_config_that_is_not_an_object(self, tmp_path, entries):
        config = str(tmp_path / "cfg.json")
        with open(config, "w") as fh:
            json.dump(entries, fh)
        proc = run_cli("verify", "--dim", "4", "--check", "structure", "--config", config)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert f"config file {config} must hold a JSON object" in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    def test_vs_run_on_plain_instance(self, tmp_path):
        path = self.lb_file(tmp_path, {"m": 2, "k": 2, "T": 1}, [[[1.0, 2.0], [1.0, 2.0]]])
        for extra in ([], ["--seeds", "2"]):
            proc = run_cli("vs", "run", "--instance", path, *extra)
            assert proc.returncode == 2, proc.stdout + proc.stderr
            assert "vs run needs an instance with resource structure" in proc.stderr
            assert proc.stdout == ""

    @pytest.mark.parametrize("extra", [["--opt", "0"], ["--opt", "0", "--epsilon", "0.5"],
                                       ["--opt", "-2"], ["--opt", "inf"], ["--opt", "nan"]],
                             ids=["0", "0-with-epsilon", "negative", "inf", "nan"])
    def test_bwk_opt_not_positive_and_finite(self, tmp_path, extra):
        out = str(tmp_path / "res.csv")
        proc = run_cli("bwk", "run", "--instance", self.bandit_file(tmp_path, rows_kept=30),
                       "--allow-small-budget", *extra, "--out", out)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        if extra[1] in ("inf", "nan"):  # refused by the config reader, before the opt check
            assert f"error: opt must be a finite number, got {extra[1]}" in proc.stderr
        else:
            assert "must be positive and finite, got" in proc.stderr and "bwk opt" in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        assert not os.path.exists(out)

    def test_bwk_zero_benchmark_without_opt(self, tmp_path):
        path = self.bandit_file(tmp_path, rows_kept=30)
        header, *rows = open(path).read().splitlines()
        rows = [json.loads(line) for line in rows]
        for row in rows:
            row["r"] = [0.0] * len(row["r"])
        lines = [header, *(json.dumps(row, sort_keys=True) for row in rows)]
        open(path, "w").write("\n".join(lines) + "\n")
        proc = run_cli("bwk", "run", "--instance", path, "--allow-small-budget")
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert ("bwk opt (the benchmark when --opt is unset) must be positive and finite, "
                "got 0.0") in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    @pytest.mark.parametrize("opt", ["auto:1.0", "given:2.0"])
    @pytest.mark.parametrize("theta", ["0", "-1", "inf", "nan"])
    def test_theta_not_positive_and_finite(self, tmp_path, opt, theta):
        path = self.lb_file(tmp_path, {"m": 2, "k": 2, "T": 1}, [[[1.0, 2.0], [1.0, 2.0]]])
        proc = run_cli("lb", "run", "--instance", path, "--approx", "softmax",
                       "--opt", opt, "--theta", theta)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        if theta in ("inf", "nan"):  # refused by the config reader, before run_greedy
            assert f"error: theta must be a finite number, got {theta}" in proc.stderr
        else:
            assert "theta must be positive and finite, got" in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    @pytest.fixture
    def files(self, tmp_path):
        """Small lb, bvc and bwk instances, and the directory they live in."""
        paths = {"tmp": str(tmp_path)}
        for problem, sizes in (("lb", {"m": 3, "k": 2, "T": 4}), ("bvc", {"n": 3, "d": 2, "T": 30}),
                               ("bwk", {"n": 3, "d": 2, "T": 30, "budget": 20.0})):
            paths[problem] = str(tmp_path / f"{problem}.jsonl")
            generate(GeneratorSpec(problem=problem, seed=3, **sizes), paths[problem])
        return paths

    VERIFY = ("verify", "--dim", "4", "--trials", "5", "--samples", "100", "--check", "structure")

    @pytest.mark.parametrize("argv,config,key", [
        (("bvc", "run", "--instance", "{bvc}"), {"approx": 5}, "approx"),
        (("gen", "--problem", "vs", "--out", "{tmp}/x.jsonl"), {"inner": 5}, "inner"),
        (("lb", "run", "--instance", "{lb}", "--seeds", "2"), {"out": 5}, "out"),
        (("lb", "run", "--instance", "{lb}"), {"instance": 0}, "instance"),
        (VERIFY, {"dim": 16.7}, "dim"),
        (VERIFY, {"seed": 3.0}, "seed"),
        (("bwk", "run", "--instance", "{bwk}"), {"allow_small_budget": "false"},
         "allow_small_budget"),
        (("lb", "run", "--instance", "{lb}", "--approx", "softmax", "--seeds", "2"),
         {"max_ratio": "2"}, "max_ratio"),
        (("gen", "--problem", "lb", "--scale", "nan", "--out", "{tmp}/x.jsonl"), None, "scale"),
        (("lb", "run", "--instance", "{lb}", "--approx", "softmax", "--max-ratio", "nan"), None,
         "max_ratio"),
        ((*VERIFY, "--epsilon", "nan"), None, "epsilon"),
        ((*VERIFY, "--epsilon", "inf"), None, "epsilon"),
        ((*VERIFY[:3], "--trials", "0"), None, "trials"),
        (("gen", "--problem", "bwk", "--budget", "-3", "--out", "{tmp}/x.jsonl"), None, "budget"),
    ], ids=["approx-5", "inner-5", "out-5", "instance-0", "dim-16.7", "seed-3.0",
            "allow-small-budget-string", "max-ratio-string", "scale-nan", "max-ratio-nan",
            "epsilon-nan", "epsilon-inf", "trials-0", "budget-negative"])
    def test_config_entry_out_of_contract(self, files, argv, config, key):
        argv = [a.format(**files) for a in argv]
        if config is not None:
            path = os.path.join(files["tmp"], "cfg.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            argv += ["--config", path]
        proc = run_cli(*argv)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert f"error: {key} must be" in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        assert not os.path.exists(os.path.join(files["tmp"], "x.jsonl"))

    @pytest.mark.parametrize("argv,config", [
        (("verify", "--trials", "5", "--samples", "100", "--check", "structure"), {"dim": None}),
        (("verify", "--dim", "4", "--samples", "100", "--check", "structure"), {"trials": None}),
        (("gen", "--problem", "lb", "--seed", "2", "--out", "{tmp}/x.jsonl"), {"m": None}),
    ], ids=["verify-dim", "verify-trials", "gen-m"])
    def test_null_entry_is_the_default(self, files, argv, config):
        argv = [a.format(**files) for a in argv]
        path = os.path.join(files["tmp"], "cfg.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        runs = []
        for extra in ([], ["--config", path]):
            proc = run_cli(*argv, *extra)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            out = os.path.join(files["tmp"], "x.jsonl")
            runs.append((proc.stdout, open(out).read() if os.path.exists(out) else None))
        assert runs[0] == runs[1]


class TestConfigReader:
    """``harness._get``: one rule per kind for every config entry."""

    @pytest.mark.parametrize("value,kind,expected", [
        (None, int, "default"), (3, int, 3), (3, float, 3.0), (2.5, float, 2.5),
        ("sym", str, "sym"), (False, bool, False), ([1, 2], "seeds", [1, 2]),
        ("linf,l1", "norms", "linf,l1"), (["linf"], "norms", ["linf"]),
    ])
    def test_accepts(self, value, kind, expected):
        got = _get({"key": value}, "key", "default", kind)
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize("value,kind", [
        (3.0, int), (True, int), ("3", int), (True, float), (math.nan, float), (math.inf, float),
        (10**400, float), ("1.0", float), (5, str), ("false", bool), (0, bool), (0, "seeds"),
        ([], "seeds"), ([1.0], "seeds"), (5, "norms"),
    ])
    def test_refuses(self, value, kind):
        with pytest.raises(ValueError, match=r"^key must be .*, got "):
            _get({"key": value}, "key", None, kind)

    def test_missing_required_key(self):
        with pytest.raises(ValueError, match="instance is required"):
            _get({"instance": None}, "instance", MISSING, str)

    def test_generator_spec_from_config(self):
        spec = GeneratorSpec.from_config({"problem": "vs", "m": None, "inner": "linf,l1", "r": 2})
        assert spec == GeneratorSpec(problem="vs", inner=["linf", "l1"], r=2)
        assert GeneratorSpec.from_config({"problem": "vs", "inner": ["linf", "l1"], "r": 2}) == spec

    def test_generator_budget(self):
        assert GeneratorSpec(problem="bwk", budget=0.0).budget == 0.0
        with pytest.raises(ValueError, match="budget must be >= 0"):
            GeneratorSpec(problem="bwk", budget=-3.0)

    def test_integer_benchmark_and_bound_are_written_as_floats(self, tmp_path):
        path = str(tmp_path / "lb.jsonl")
        generate(GeneratorSpec(problem="lb", m=3, k=2, T=4, seed=1), path)
        out = str(tmp_path / "res.csv")
        summary = run_experiment({"problem": "lb", "instance": path, "approx": "softmax",
                                  "seeds": 1, "benchmark": 3, "max_ratio": 2, "out": out})
        assert open(out).read().splitlines()[1].split(",")[2] == "3.0"
        assert summary["max_ratio_bound"] == 2.0 and type(summary["max_ratio_bound"]) is float
