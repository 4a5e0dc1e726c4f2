"""Greedy load balancing: steps, traces, brute force, vector scheduling."""

import json
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from gradnorm import loadbalance
from gradnorm.approx import ShiftedLpApprox, SoftmaxApprox, build_approx
from gradnorm.loadbalance import (
    LbInstance,
    brute_force_opt,
    format_lb_instance,
    greedy_step,
    read_lb_instance,
    run_greedy,
)
from gradnorm.harness import GeneratorSpec, atomic_write_text, generate
from gradnorm.norms import eval_norm, l1, linf, normalize_spec, topk

# exhaustive optimum of the seed-42 uniform generator instance, frozen once
GOLDEN_UNIFORM_M3K2T8_SEED42 = 3.615046426380739
GOLDEN_ASSIGNMENT = (1, 0, 1, 0, 1, 1, 0, 0)


def softmax_builder_for(dim):
    def build(eps, seed):
        return SoftmaxApprox(dim, eps)

    return build


def sym_builder_for(norm):
    def build(eps, seed):
        return build_approx("sym", [norm], eps, samples=800, seed=seed)

    return build


def random_instance(rng, m=3, k=2, T=8, norm=None):
    jobs = [rng.uniform(0.0, 1.0, (m, k)) for _ in range(T)]
    return LbInstance(m=m, k=k, T=T, jobs=jobs, norm=norm or normalize_spec(linf(m)))


class TestGreedyStep:
    def test_linear_picks_min_total_mass(self):
        psi = ShiftedLpApprox(3, 1.0, 1.0)
        C = np.array([[1.0, 0.2], [1.0, 0.2], [0.0, 1.5]])
        j, v = greedy_step(psi, np.zeros(3), C)
        assert j == 1  # 1.9 < 2.0
        assert v == psi.value(np.zeros(3) + C[:, j])

    def test_sharp_softmax_tracks_max(self):
        psi = SoftmaxApprox(3, 50.0)
        C = np.diag([3.0, 1.0, 2.0])
        j, v = greedy_step(psi, np.zeros(3), C)
        assert j == 1
        assert v == psi.value(np.zeros(3) + C[:, j])

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(0)
        psi = SoftmaxApprox(3, 1.0)
        loads = rng.uniform(0, 2, 3)
        C = rng.uniform(0, 1, (3, 2))
        values = [psi.value(loads + C[:, j]) for j in range(2)]
        j, v = greedy_step(psi, loads, C)
        assert j == int(np.argmin(values))
        assert v == psi.value(loads + C[:, j])

    def test_tie_breaks_low_index(self):
        psi = ShiftedLpApprox(2, 1.0, 1.0)
        C = np.array([[0.5, 0.5], [0.5, 0.5]])
        j, v = greedy_step(psi, np.zeros(2), C)
        assert j == 0
        assert v == psi.value(np.zeros(2) + C[:, j])


class TestBruteForce:
    def test_single_round_is_min_column(self):
        inst = LbInstance(
            m=2, k=3, T=1,
            jobs=[np.array([[3.0, 1.0, 2.0], [0.0, 1.0, 0.5]])],
            norm=normalize_spec(linf(2)),
        )
        value, assignment = brute_force_opt(inst)
        assert value == pytest.approx(1.0)
        assert assignment == (1,)

    def test_all_zero_jobs(self):
        inst = LbInstance(m=2, k=2, T=3, jobs=[np.zeros((2, 2))] * 3,
                          norm=normalize_spec(linf(2)))
        assert brute_force_opt(inst)[0] == 0.0

    def test_golden_instance(self, tmp_path):
        path = str(tmp_path / "golden.jsonl")
        generate(GeneratorSpec(problem="lb", family="uniform", m=3, k=2, T=8,
                               seed=42, norm="linf"), path)
        value, assignment = brute_force_opt(read_lb_instance(path))
        assert value == pytest.approx(GOLDEN_UNIFORM_M3K2T8_SEED42, rel=1e-12)
        assert assignment == GOLDEN_ASSIGNMENT

    def test_cap_refused(self):
        rng = np.random.default_rng(1)
        inst = random_instance(rng, T=8)
        with pytest.raises(ValueError):
            brute_force_opt(inst, cap=100)


def full_enumeration_opt(instance):
    """Reference: every k^T load vector in one array, the first minimum decoded."""
    loads = np.zeros((1, instance.dim))
    for t in range(instance.T):
        cols = instance.columns(t).T
        loads = (loads[:, None, :] + cols[None, :, :]).reshape(-1, instance.dim)
    values = instance.objective_rows(loads)
    idx = best = int(np.argmin(values))
    assignment = []
    for _ in range(instance.T):
        assignment.append(idx % instance.k)
        idx //= instance.k
    return float(values[best]), tuple(reversed(assignment))


def tied_instance(rng, m=3, k=3, T=6):
    # small integer loads: many assignments share the optimum
    jobs = [rng.integers(0, 3, (m, k)).astype(float) for _ in range(T)]
    return LbInstance(m=m, k=k, T=T, jobs=jobs, norm=normalize_spec(topk(m, 2)))


def vs_brute_instance(rng):
    jobs = [rng.uniform(0, 1, (2, 3, 2)) for _ in range(7)]
    inner = [normalize_spec(linf(3)), normalize_spec(l1(3))]
    return LbInstance(m=3, k=2, T=7, jobs=jobs, r=2, inner=inner)


class TestBlockedBruteForce:
    """Blocked enumeration returns exactly what one full enumeration returns."""

    @pytest.mark.parametrize("block", [1, 5, 24, 64, 1000, loadbalance.BRUTE_FORCE_BLOCK])
    @pytest.mark.parametrize("make", [
        lambda rng: random_instance(rng, T=9, norm=normalize_spec(topk(3, 2))),
        tied_instance,
        lambda rng: tied_instance(rng, m=2, k=5, T=3),
        lambda rng: LbInstance(m=2, k=2, T=5, jobs=[np.ones((2, 2))] * 5,
                               norm=normalize_spec(l1(2))),
        vs_brute_instance,
    ], ids=["uniform", "ties-k3", "ties-k5", "all-tied", "vector"])
    def test_matches_full_enumeration(self, monkeypatch, make, block):
        monkeypatch.setattr(loadbalance, "BRUTE_FORCE_BLOCK", block)
        for seed in range(3):
            inst = make(np.random.default_rng(seed))
            assert brute_force_opt(inst) == full_enumeration_opt(inst)

    def test_all_tied_picks_first_assignment(self, monkeypatch):
        monkeypatch.setattr(loadbalance, "BRUTE_FORCE_BLOCK", 4)
        inst = LbInstance(m=2, k=3, T=4, jobs=[np.ones((2, 3))] * 4,
                          norm=normalize_spec(linf(2)))
        assert brute_force_opt(inst) == (4.0, (0, 0, 0, 0))

    def test_peak_memory_is_bounded(self):
        # 2^18 assignments of 16 machines: one full enumeration peaks at about 68 MB
        rng = np.random.default_rng(5)
        inst = random_instance(rng, m=16, k=2, T=18)
        tracemalloc.start()
        try:
            brute_force_opt(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestRunGreedy:
    def test_single_round_is_optimal(self):
        rng = np.random.default_rng(2)
        inst = random_instance(rng, T=1)
        opt, _ = brute_force_opt(inst)
        trace = run_greedy(inst, softmax_builder_for(inst.dim), ("given", max(opt, 1e-9)), seed=3)
        assert trace.final_norm == pytest.approx(opt)

    def test_identical_machines_ratio_one(self):
        rng = np.random.default_rng(3)
        jobs = [np.tile(rng.uniform(0, 1, (3, 1)), (1, 2)) for _ in range(6)]
        inst = LbInstance(m=3, k=2, T=6, jobs=jobs, norm=normalize_spec(linf(3)))
        opt, _ = brute_force_opt(inst)
        trace = run_greedy(inst, softmax_builder_for(inst.dim), ("given", opt), seed=4)
        assert trace.final_norm == pytest.approx(opt, rel=1e-12)

    def test_trace_reconstruction_and_telescoping(self):
        rng = np.random.default_rng(4)
        inst = random_instance(rng)
        opt, _ = brute_force_opt(inst)
        trace = run_greedy(inst, softmax_builder_for(inst.dim), ("given", opt), seed=5)
        # loads reconstruct exactly from the recorded choices
        loads = np.zeros(3)
        psi = SoftmaxApprox(3, trace.phase_epsilons[0])
        lhs = 0.0
        for t in range(inst.T):
            step = inst.columns(t)[:, trace.choices[t]]
            lhs += psi.value(loads + step) - psi.value(loads)
            loads = loads + step
            np.testing.assert_array_equal(loads, trace.loads[t])
        assert lhs == pytest.approx(trace.final_psi - psi.value(np.zeros(3)), abs=1e-6)
        assert trace.final_norm <= trace.final_psi + 1e-9

    def test_greedy_dominance_recheck(self):
        """Every recorded choice beats the alternatives on the frozen samples."""
        norm = normalize_spec(topk(4, 2))
        rng = np.random.default_rng(5)
        jobs = [rng.uniform(0, 1, (4, 2)) for _ in range(6)]
        inst = LbInstance(m=4, k=2, T=6, jobs=jobs, norm=norm)
        builder = sym_builder_for(norm)
        opt, _ = brute_force_opt(inst)
        trace = run_greedy(inst, builder, ("given", opt), seed=6)
        psi = builder(trace.phase_epsilons[0], trace.phase_seeds[0])
        prev = np.zeros(4)
        for t in range(inst.T):
            cols = inst.columns(t)
            chosen = psi.value(prev + cols[:, trace.choices[t]])
            for j in range(inst.k):
                assert chosen <= psi.value(prev + cols[:, j]) + 1e-12
            prev = trace.loads[t]

    def test_sym_psi_values_equal_value_of_loads(self):
        """The value greedy_step returns is the surrogate of the loads it leaves."""
        norm = normalize_spec(topk(8, 2))
        rng = np.random.default_rng(9)
        inst = random_instance(rng, m=8, k=3, T=12, norm=norm)
        builder = sym_builder_for(norm)
        trace = run_greedy(inst, builder, ("auto", 0.05), seed=8)
        assert len(trace.phase_seeds) >= 2  # covers a rebuild of the surrogate
        for t in range(inst.T):
            phase = trace.phases[t]
            psi = builder(trace.phase_epsilons[phase], trace.phase_seeds[phase])
            assert trace.psi_values[t] == psi.value(trace.loads[t])

    def test_auto_double_rebuilds_and_keeps_loads(self):
        rng = np.random.default_rng(6)
        inst = random_instance(rng, T=12)
        trace = run_greedy(inst, softmax_builder_for(inst.dim), ("auto", 1e-3), seed=7)
        assert len(trace.phase_seeds) >= 2  # tiny initial guess forces doubling
        assert trace.phases[-1] == len(trace.phase_seeds) - 1
        assert (np.diff(trace.phase_guesses) > 0).all()
        # loads are kept across phases: reconstruction still matches
        loads = sum(
            inst.columns(t)[:, trace.choices[t]] for t in range(inst.T)
        )
        np.testing.assert_allclose(loads, trace.loads[-1])

    def test_ratio_against_brute_force_stays_modest(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for i in range(10):
            inst = random_instance(rng, m=4, k=2, T=10)
            opt, _ = brute_force_opt(inst)
            trace = run_greedy(inst, softmax_builder_for(inst.dim), ("given", opt), seed=i)
            worst = max(worst, trace.final_norm / opt)
        assert worst <= 2.0  # far below the alpha+gamma guarantee at m=4

    def test_invalid_modes(self):
        rng = np.random.default_rng(8)
        inst = random_instance(rng, T=2)
        with pytest.raises(ValueError):
            run_greedy(inst, softmax_builder_for(inst.dim), ("nope", 1.0))
        with pytest.raises(ValueError):
            run_greedy(inst, softmax_builder_for(inst.dim), ("auto", 0.0))


class TestVectorScheduling:
    def vs_instance(self, rng, m=3, k=2, T=6, r=2):
        jobs = [rng.uniform(0, 1, (k, m, r)) for _ in range(T)]
        inner = [normalize_spec(linf(m)) for _ in range(r)]
        return LbInstance(m=m, k=k, T=T, jobs=jobs, r=r, inner=inner)

    def test_flattening_is_resource_major(self):
        job = np.arange(12.0).reshape(1, 3, 4)  # k=1, m=3, r=4
        inst = LbInstance(m=3, k=1, T=1, jobs=[job], r=4,
                          inner=[normalize_spec(linf(3))] * 4)
        col = inst.columns(0)[:, 0]
        # resource i occupies coordinates [i*m, (i+1)*m)
        np.testing.assert_array_equal(col[:3], job[0, :, 0])
        np.testing.assert_array_equal(col[3:6], job[0, :, 1])

    def test_single_resource_matches_plain_run_bitwise(self):
        rng = np.random.default_rng(9)
        m, k, T = 3, 2, 6
        tensors = [rng.uniform(0, 1, (k, m, 1)) for _ in range(T)]
        norm = normalize_spec(topk(m, 2))
        vs_inst = LbInstance(m=m, k=k, T=T, jobs=tensors, r=1, inner=[norm])
        plain_jobs = [t[:, :, 0].T for t in tensors]
        plain = LbInstance(m=m, k=k, T=T, jobs=plain_jobs, norm=norm)

        def nested_builder(eps, seed):
            return build_approx("nested:1", [norm], eps, samples=800, seed=seed)

        a = run_greedy(vs_inst, nested_builder, ("given", 2.0), seed=11)
        b = run_greedy(plain, sym_builder_for(norm), ("given", 2.0), seed=11)
        np.testing.assert_array_equal(a.choices, b.choices)
        np.testing.assert_array_equal(a.psi_values, b.psi_values)
        assert a.final_norm == b.final_norm

    def test_zero_resource_reduces(self):
        rng = np.random.default_rng(10)
        m, k, T = 3, 2, 6
        tensors = []
        for _ in range(T):
            t = np.zeros((k, m, 2))
            t[:, :, 0] = rng.uniform(0, 1, (k, m))
            tensors.append(t)
        inner = [normalize_spec(linf(m))] * 2
        inst = LbInstance(m=m, k=k, T=T, jobs=tensors, r=2, inner=inner)

        def nested_builder(eps, seed):
            return build_approx("nested:2", inner, eps, samples=800, seed=seed)

        trace = run_greedy(inst, nested_builder, ("given", 2.0), seed=12)
        # objective equals the live resource's norm exactly
        assert trace.final_norm == pytest.approx(
            eval_norm(inner[0], trace.loads[-1][:m])
        )
        assert trace.loads[-1][m:].max() == 0.0

    def test_against_brute_force(self):
        rng = np.random.default_rng(11)
        inst = self.vs_instance(rng)
        opt, _ = brute_force_opt(inst)

        def nested_builder(eps, seed):
            return build_approx("nested:2", inst.inner, eps, samples=600, seed=seed)

        trace = run_greedy(inst, nested_builder, ("given", opt), seed=13)
        assert trace.final_norm / opt <= 2.5


class TestInstanceIO:
    def test_roundtrip_plain(self, tmp_path):
        rng = np.random.default_rng(13)
        inst = random_instance(rng)
        path = str(tmp_path / "plain.jsonl")
        atomic_write_text(path, format_lb_instance(inst))
        back = read_lb_instance(path)
        assert (back.m, back.k, back.T) == (3, 2, 8)
        for a, b in zip(inst.jobs, back.jobs):
            np.testing.assert_allclose(a, b)
        assert back.norm.kind == "linf"

    def test_roundtrip_vector(self, tmp_path):
        rng = np.random.default_rng(14)
        jobs = [rng.uniform(0, 1, (2, 3, 2)) for _ in range(4)]
        inner = [normalize_spec(linf(3)), normalize_spec(l1(3))]
        inst = LbInstance(m=3, k=2, T=4, jobs=jobs, r=2, inner=inner)
        path = str(tmp_path / "vs.jsonl")
        atomic_write_text(path, format_lb_instance(inst))
        back = read_lb_instance(path)
        assert back.r == 2
        assert [s.kind for s in back.inner] == ["linf", "lp"]
        for a, b in zip(inst.jobs, back.jobs):
            np.testing.assert_allclose(a, b)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LbInstance(m=2, k=2, T=1, jobs=[np.zeros((3, 2))], norm=normalize_spec(linf(2)))
        with pytest.raises(ValueError):
            LbInstance(m=2, k=2, T=1, jobs=[-np.ones((2, 2))], norm=normalize_spec(linf(2)))

    @pytest.mark.parametrize("lines, message", [
        ([[3, 2, 1]], "the header must be a JSON object, got list"),
        ([{"m": 2, "k": 2, "T": 1}], "the header has no key 'norm'"),
        ([{"m": 2, "T": 1, "norm": "linf"}], "the header has no key 'k'"),
        ([{"m": 2, "k": 2, "T": 1, "r": 2}], "the header has no key 'inner'"),
        ([{"m": 2, "k": 2, "T": 1, "r": 2, "inner": 5}], "'inner' must be a list of norm specs"),
        ([{"m": "2", "k": 2, "T": 1, "norm": "linf"}, {"C": [[1, 2], [3, 4]]}],
         "the header's 'm' must be an integer, got '2'"),
        ([{"m": 2, "k": 2, "T": 1.5, "norm": "linf"}, {"C": [[1, 2], [3, 4]]}],
         "the header's 'T' must be an integer, got 1.5"),
        ([{"m": 2, "k": 2, "T": 1, "norm": 5}, {"C": [[1, 2], [3, 4]]}], "a norm spec must be a string"),
        ([{"m": 2, "k": 2, "T": 1, "norm": "linf"}, [3, 2, 1]], "row 1 must be a JSON object, got list"),
        ([{"m": 2, "k": 2, "T": 1, "norm": "linf"}, {"c": 1}], "row 1 has no key 'C'"),
        ([{"m": 2, "k": 2, "T": 1, "norm": "linf"}, {"C": {"a": 1}}], "row 1: 'C' is not an array of numbers"),
    ])
    def test_malformed_records_exit_2(self, tmp_path, lines, message):
        """A line that is not an object, a missing key or a bad entry raises
        ValueError naming the line and the key, and ``lb run`` exits 2."""
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as fh:
            fh.write("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(ValueError, match=re.escape(message)):
            read_lb_instance(path)
        proc = subprocess.run([sys.executable, "-m", "gradnorm.cli", "lb", "run", "--instance", path,
                               "--approx", "softmax"], capture_output=True, text=True)
        assert proc.returncode == 2 and message in proc.stderr and "Traceback" not in proc.stderr

    def test_needs_a_machine_and_an_option(self):
        with pytest.raises(ValueError, match="k >= 1"):
            LbInstance(m=2, k=0, T=1, jobs=[np.zeros((2, 0))], norm=normalize_spec(linf(2)))
        with pytest.raises(ValueError, match="m >= 1"):
            LbInstance(m=0, k=2, T=1, jobs=[np.zeros((0, 2))], norm=normalize_spec(linf(1)))
