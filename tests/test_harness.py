"""Generators, experiment orchestration, atomic outputs and the CLI contract."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from gradnorm.harness import (
    GeneratorSpec,
    atomic_write_text,
    dump_json,
    generate,
    run_experiment,
    write_csv,
)
from gradnorm.loadbalance import LbInstance, read_lb_instance, write_lb_instance
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
        summary = run_experiment({
            "problem": "verify", "approx": "softmax", "norm": "linf", "dim": 8,
            "check": "stability", "trials": 100, "seed": 1, "samples": 100,
        })
        assert summary["passed"] is True

    def test_lb_single_round_ratio_one(self, tmp_path):
        rng = np.random.default_rng(3)
        inst = LbInstance(m=3, k=2, T=1, jobs=[rng.uniform(0, 1, (3, 2))],
                          norm=normalize_spec(linf(3)))
        path = str(tmp_path / "i.jsonl")
        write_lb_instance(path, inst)
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
        # no trials leave the worst margin at +inf, which JSON cannot carry
        proc = run_cli("verify", "--approx", "softmax", "--dim", "4", "--check",
                       "structure", "--trials", "0", "--samples", "100")
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "not JSON compliant" in proc.stderr
        assert "Infinity" not in proc.stdout


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
