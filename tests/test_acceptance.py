"""Release acceptance suite.

One test per criterion, each printing a PASS/FAIL line.  Frozen constants
were measured at first build with tools/freeze_baselines.py; regression
tolerances are part of each criterion.  Run with ``pytest -v -s``.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from gradnorm.approx import (
    ShiftedLpApprox,
    SoftmaxApprox,
    TopKApprox,
    build_approx,
    build_symmetric_approx,
)
from gradnorm.bandits import (
    BanditInstance,
    Exp3State,
    benchmark_fixed_bvc,
    benchmark_fixed_bwk,
    bvc_run,
    bwk_run,
    exp3_sample,
    exp3_update,
)
from gradnorm.loadbalance import LbInstance, brute_force_opt, run_greedy
from gradnorm.norms import (
    eval_norm,
    linf,
    lp,
    normalize_spec,
    ones_profile,
    ordered,
    topk,
)
from gradnorm.seeding import derive_rng, derive_seed
from gradnorm.verify import (
    SmoothGameParams,
    check_converse_jensen,
    check_gradient_stability,
    check_smooth_game,
)

MASTER = 20260810


def report(criterion: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail})", flush=True)
    assert passed, f"{criterion}: {detail}"


# --- frozen first-build baselines (tools/freeze_baselines.py) -------------------

COMPOSITION_CONSTANTS = {
    "ordered-0": (1.8295541235587442, 2.5661764004817575),
    "ordered-1": (1.77501442445671, 2.5669603223216875),
    "ordered-2": (1.8125658065126657, 2.5614200703889924),
    "ordered-3": (1.6950173459134625, 2.569059993649746),
    "ordered-4": (1.7492112930755819, 2.557693315861424),
    "top-2": (2.156531525701452, 2.5657871452963095),
    "top-8": (2.372642883866621, 2.5695126888853816),
    "top-32": (2.162332445236789, 2.574293100960167),
}

FRONTIER_BASELINES = {
    "softmax": {"lam": 1.0, "mu": 0.0, "score": 1.0, "jensen_factor": 1.129842809040842},
    "gstopk": {"lam": 1.0, "mu": 0.0, "score": 1.0, "jensen_factor": 1.1503190283804423},
}

GREEDY_RATIO_BASELINES = {
    "linf": 1.2686473235206055,
    "l2": 1.0160018666030495,
    "top2": 1.1125298313176395,
    "ordered": 1.030987957434172,
}

BANDIT_BASELINES = {
    "bvc_mean_ratio": 1.018214,
    "bwk_mean_ratio": 0.32534661555660044,
}


# --- criterion 1: softmax gradient stability is exact ---------------------------


def test_criterion_01_softmax_stability():
    t0 = time.perf_counter()
    eps = 1.0
    worst = math.inf
    for d in (4, 16, 64):
        rng = derive_rng(MASTER, "c1", d)
        n = 100_000
        x = rng.exponential(1.0, (n, d)) * rng.choice([0.1, 1.0, 10.0], size=(n, 1))
        y = rng.exponential(0.5, (n, d))
        y[rng.random((n, d)) < 0.3] = 0.0

        def grads(m):
            z = eps * m
            e = np.exp(z - z.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        bound = np.exp(-eps * y.max(axis=1, keepdims=True))
        margin = grads(x + y) - bound * grads(x)
        worst = min(worst, float(margin.min()))
    elapsed = time.perf_counter() - t0
    report(
        "01 softmax-stability",
        worst >= -1e-9 and elapsed < 10.0,
        f"worst={worst:.2e} over 3x100000 pairs, {elapsed:.1f}s",
    )


# --- criterion 2: shifted l-p sandwich is exact ----------------------------------


def test_criterion_02_shifted_lp_sandwich():
    t0 = time.perf_counter()
    eps = 0.5
    worst = math.inf
    for p in (1.5, 2.0, 4.0, math.inf):
        sl = ShiftedLpApprox(8, p, eps)
        rng = derive_rng(MASTER, "c2", str(p))
        for _ in range(1000):
            x = rng.exponential(1.0, 8) * rng.choice([0.1, 1.0, 10.0])
            nq = float(np.sum(x**sl.q) ** (1.0 / sl.q))
            v = sl.value(x)
            scale = max(nq, 1.0)
            worst = min(worst, (v - nq) / scale, (nq + sl.shift - v) / scale)
    elapsed = time.perf_counter() - t0
    report(
        "02 shifted-lp-sandwich",
        worst >= -1e-9 and elapsed < 5.0,
        f"worst relative margin={worst:.2e}, {elapsed:.1f}s",
    )


# --- criterion 3: perturbed top-k stability at delta = 1/4 -----------------------


def test_criterion_03_topk_stability():
    t0 = time.perf_counter()
    failures = []
    details = []
    for k in (1, 4, 16):
        for d in (16, 64):
            for eps in (0.1, 1.0):
                tk = TopKApprox(d, k, eps, samples=100_000,
                                    seed=derive_seed(MASTER, "c3", k, d, str(eps)))
                rep = check_gradient_stability(
                    tk,
                    normalize_spec(topk(d, k)),
                    delta=0.25,
                    trials=1000,
                    y_cap=1.0,
                    spike_ranks=[k, min(k + 1, d)],
                    seed=derive_seed(MASTER, "c3probes", k, d, str(eps)),
                    jobs=2,
                )
                details.append(f"k={k},d={d},eps={eps}: worst={rep.worst_margin:.4f}")
                if not rep.passed:
                    failures.append((k, d, eps, rep.worst_margin, rep.violations))
    elapsed = time.perf_counter() - t0
    report(
        "03 topk-stability",
        not failures and elapsed < 600.0,
        f"12 configs x 1000 probes at S=100000, {elapsed:.0f}s; " + ", ".join(details)
        + (f"; failures={failures}" if failures else ""),
    )


# --- criterion 4: symmetric composition sandwich ---------------------------------

LN_D64 = math.log(64)


def _composition_norms():
    norms = {}
    for i in range(5):
        rng = derive_rng(MASTER, "c4norm", i)
        w = np.sort(rng.uniform(0.0, 1.0, 64))[::-1]
        w[0] = 1.0
        norms[f"ordered-{i}"] = normalize_spec(ordered(w))
    for j in (2, 8, 32):
        norms[f"top-{j}"] = normalize_spec(topk(64, j))
    return norms


def measure_composition_constants(epsilon: float = 1.0, samples: int = 4000) -> dict:
    """(C1, C2) per norm; also asserts the zero-slack lower sandwich."""
    out = {}
    for label, spec in _composition_norms().items():
        node = build_symmetric_approx(
            ones_profile(spec), epsilon, samples=samples,
            seed=derive_seed(MASTER, "c4build", label), norm=spec,
        )
        psi0 = node.value(np.zeros(64))
        rng = derive_rng(MASTER, "c4probe", label)
        c1 = 0.0
        for _ in range(1000):
            x = rng.exponential(1.0, 64) * rng.choice([0.1, 1.0, 10.0])
            n = eval_norm(spec, x)
            v = node.value(x)
            assert v >= n - 1e-9 * max(n, 1.0), f"lower sandwich broken for {label}"
            c1 = max(c1, (v - psi0) / (LN_D64 * n))
        out[label] = (c1, epsilon * psi0 / LN_D64**2)
    return out


def test_criterion_04_composition_sandwich():
    measured = measure_composition_constants()
    regressions = []
    for label, (c1, c2) in measured.items():
        f1, f2 = COMPOSITION_CONSTANTS[label]
        if c1 > 1.05 * f1 or c2 > 1.05 * f2:
            regressions.append((label, c1, f1, c2, f2))
    worst_c1 = max(c1 for c1, _ in measured.values())
    worst_c2 = max(c2 for _, c2 in measured.values())
    report(
        "04 composition-sandwich",
        not regressions,
        f"8 norms, lower sandwich exact, C1<= {worst_c1:.2f}, C2 <= {worst_c2:.2f}"
        + (f"; regressions={regressions}" if regressions else ""),
    )


# --- criterion 5: smooth-game and converse-Jensen frontiers ----------------------


def measure_frontiers() -> dict:
    out = {}
    surrogates = {
        "softmax": SoftmaxApprox(16, 1.0),
        "gstopk": TopKApprox(16, 4, 1.0, samples=2000,
                                 seed=derive_seed(MASTER, "c5build")),
    }
    norms = {"softmax": normalize_spec(linf(16)), "gstopk": normalize_spec(topk(16, 4))}
    for label, approx in surrogates.items():
        game = check_smooth_game(
            approx,
            SmoothGameParams(lam=3.0, mu=0.9, horizon=50, step_cap=1.0),
            trials=1000,
            norm=norms[label],
            seed=derive_seed(MASTER, "c5game", label),
        )
        jens = check_converse_jensen(
            approx, 10.0, 1.0, trials=1000, horizon=50,
            norm=norms[label], seed=derive_seed(MASTER, "c5jens", label),
        )
        best = game.extra["minimal"]
        out[label] = {
            "lam": best["lam"],
            "mu": best["mu"],
            "score": best["score"],
            "jensen_factor": jens.extra["minimal_factor"],
        }
    return out


def test_criterion_05_frontiers():
    measured = measure_frontiers()
    bad = []
    for label, vals in measured.items():
        frozen = FRONTIER_BASELINES[label]
        if vals["score"] > 1.10 * frozen["score"]:
            bad.append((label, "score", vals["score"], frozen["score"]))
        if vals["jensen_factor"] > 1.10 * frozen["jensen_factor"]:
            bad.append((label, "jensen", vals["jensen_factor"], frozen["jensen_factor"]))
    detail = ", ".join(
        f"{l}: score={v['score']:.3f} jensen={v['jensen_factor']:.3f}"
        for l, v in measured.items()
    )
    report("05 frontiers", not bad, detail + (f"; regressions={bad}" if bad else ""))


# --- criterion 6: greedy against the exhaustive oracle ---------------------------


def _greedy_families():
    rng = derive_rng(MASTER, "c6weights")
    w = np.sort(rng.uniform(0.0, 1.0, 4))[::-1]
    w[0] = 1.0
    return {
        "linf": (normalize_spec(linf(4)), "softmax"),
        "l2": (normalize_spec(lp(4, 2.0)), "slp:2"),
        "top2": (normalize_spec(topk(4, 2)), "sym"),
        "ordered": (normalize_spec(ordered(w)), "sym"),
    }


def measure_greedy_ratios() -> dict:
    out = {}
    for label, (spec, approx_text) in _greedy_families().items():
        worst = 0.0
        for i in range(50):
            rng = derive_rng(MASTER, "c6inst", label, i)
            jobs = [rng.uniform(0.0, 1.0, (4, 2)) for _ in range(12)]
            inst = LbInstance(m=4, k=2, T=12, jobs=jobs, norm=spec)
            opt, _ = brute_force_opt(inst)

            def builder(dim, eps, seed, _s=spec, _a=approx_text):
                return build_approx(_a, dim, eps, samples=800, seed=seed, norm=_s)

            trace = run_greedy(inst, builder, ("given", opt),
                               seed=derive_seed(MASTER, "c6run", label, i))
            worst = max(worst, trace.final_norm / opt)
        out[label] = worst
    return out


def test_criterion_06_greedy_vs_brute():
    t0 = time.perf_counter()
    measured = measure_greedy_ratios()
    regressions = [
        (label, value, GREEDY_RATIO_BASELINES[label])
        for label, value in measured.items()
        if value > GREEDY_RATIO_BASELINES[label] + 1e-9
    ]
    # identical machines: every option is the same, ratio exactly 1
    rng = derive_rng(MASTER, "c6identical")
    jobs = [np.tile(rng.uniform(0, 1, (4, 1)), (1, 2)) for _ in range(10)]
    inst = LbInstance(m=4, k=2, T=10, jobs=jobs, norm=normalize_spec(linf(4)))
    opt, _ = brute_force_opt(inst)
    trace = run_greedy(
        inst, lambda d, e, s: build_approx("softmax", d, e), ("given", opt), seed=1
    )
    identical_ok = trace.final_norm == opt
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{l}={v:.3f}" for l, v in measured.items())
    report(
        "06 greedy-vs-brute",
        not regressions and identical_ok and elapsed < 300.0,
        f"{detail}; identical-machines ratio exactly 1: {identical_ok}; {elapsed:.0f}s"
        + (f"; regressions={regressions}" if regressions else ""),
    )


# --- criterion 7: vector scheduling consistency ----------------------------------


def test_criterion_07_vector_scheduling_consistency():
    spec = normalize_spec(topk(3, 2))
    rng = derive_rng(MASTER, "c7jobs")
    tensors = [rng.uniform(0.0, 1.0, (2, 3, 1)) for _ in range(8)]
    vs_inst = LbInstance(m=3, k=2, T=8, jobs=tensors, r=1, inner=[spec])
    plain = LbInstance(m=3, k=2, T=8, jobs=[t[:, :, 0].T for t in tensors], norm=spec)
    seed = derive_seed(MASTER, "c7run")

    def nested1(dim, eps, s):
        return build_approx("nested:1", dim, eps, samples=800, seed=s,
                            inner_norms=[spec], machines=3)

    def sym(dim, eps, s):
        return build_approx("sym", dim, eps, samples=800, seed=s, norm=spec)

    a = run_greedy(vs_inst, nested1, ("given", 2.0), seed=seed)
    b = run_greedy(plain, sym, ("given", 2.0), seed=seed)
    bitwise = (
        np.array_equal(a.choices, b.choices)
        and np.array_equal(a.psi_values, b.psi_values)
        and np.array_equal(a.loads, b.loads)
        and a.final_norm == b.final_norm
    )

    # degenerate second resource: objective matches the single-resource run
    spec_inf = normalize_spec(linf(3))
    tensors2 = []
    for t in range(8):
        job = np.zeros((2, 3, 2))
        job[:, :, 0] = tensors[t][:, :, 0]
        tensors2.append(job)
    inst2 = LbInstance(m=3, k=2, T=8, jobs=tensors2, r=2, inner=[spec_inf, spec_inf])
    inst1 = LbInstance(m=3, k=2, T=8, jobs=[t[:, :, :1] for t in tensors2], r=1,
                       inner=[spec_inf])

    def nested2(dim, eps, s):
        return build_approx("nested:2", dim, eps, samples=800, seed=s,
                            inner_norms=[spec_inf, spec_inf], machines=3)

    def nested1b(dim, eps, s):
        return build_approx("nested:1", dim, eps, samples=800, seed=s,
                            inner_norms=[spec_inf], machines=3)

    guess = 2.0
    t2 = run_greedy(inst2, nested2, ("given", guess), seed=seed)
    t1 = run_greedy(inst1, nested1b, ("given", guess), seed=seed)
    probe = nested2(6, 1.0 / guess, derive_seed(seed, "phase", 0))
    slack = math.log(2) * max(probe.growth_bound, 1.0) * guess  # ln(r)/eps_out
    degenerate_ok = abs(t2.final_norm - t1.final_norm) <= slack + 1e-9
    report(
        "07 vector-scheduling-consistency",
        bitwise and degenerate_ok,
        f"r=1 bitwise={bitwise}; degenerate diff={abs(t2.final_norm - t1.final_norm):.3g}"
        f" <= {slack:.3g}",
    )


# --- criterion 8: EXP3 regret sanity ----------------------------------------------


def test_criterion_08_exp3_regret():
    t0 = time.perf_counter()
    T, n = 100_000, 2
    means = np.array([0.5, 0.3])
    regrets = []
    for s in range(20):
        rng = derive_rng(MASTER, "c8", s)
        rewards = (rng.random((T, n)) < means).astype(float)
        state = Exp3State.fresh(n, T)
        total = 0.0
        for t in range(T):
            a, p = exp3_sample(state, rng)
            r = rewards[t, a]
            total += r
            exp3_update(state, a, p, 1.0 - r)
        best = rewards.sum(axis=0).max()
        regrets.append(best - total)
    mean_regret = float(np.mean(regrets))
    bound = 4.0 * math.sqrt(T * n * math.log(n))
    elapsed = time.perf_counter() - t0
    report(
        "08 exp3-regret",
        mean_regret <= bound and elapsed < 60.0,
        f"mean regret {mean_regret:.0f} <= {bound:.0f}, {elapsed:.0f}s",
    )


# --- criteria 9 + 10: budgeted bandit runs ---------------------------------------

_BANDIT_CACHE: dict = {}


def _bvc_instance(T=100_000):
    costs = np.zeros((T, 2, 2))
    costs[:, 0, 0] = 1.0
    costs[:, 1, 1] = 1.0
    return BanditInstance(n=2, d=2, T=T, costs=costs, norm=normalize_spec(linf(2)))


def _bwk_instance(T=100_000):
    rewards = np.zeros((T, 3))
    rewards[:, 0] = 1.0
    rewards[:, 1] = 0.1
    costs = np.zeros((T, 2, 3))
    costs[:, :, 0] = 1.0
    return BanditInstance(n=3, d=2, T=T, costs=costs, norm=normalize_spec(linf(2)),
                          rewards=rewards, budget=T / 4.0, null_action=2)


def _bandit_runs():
    if _BANDIT_CACHE:
        return _BANDIT_CACHE
    bvc_inst = _bvc_instance()
    _, bvc_bench, _ = benchmark_fixed_bvc(bvc_inst)
    psi = SoftmaxApprox(2, 1.0 / bvc_bench)
    bvc_traces = [bvc_run(bvc_inst, psi, seed=derive_seed(MASTER, "c10bvc", s))
                  for s in range(20)]

    bwk_inst = _bwk_instance()
    _, opt_bwk, _ = benchmark_fixed_bwk(bwk_inst)
    psi_k = SoftmaxApprox(2, (1.0 + math.log(2)) / opt_bwk)
    bwk_traces = [
        bwk_run(bwk_inst, psi_k, opt_bwk, seed=derive_seed(MASTER, "c10bwk", s))
        for s in range(20)
    ]
    # budget stress: tiny budget relative to the analyzed regime
    stress_inst = _bwk_instance(T=2000)
    stress_psi = SoftmaxApprox(2, 0.01)
    import warnings

    stress = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for s in range(5):
            inst = BanditInstance(n=3, d=2, T=2000, costs=stress_inst.costs,
                                  norm=stress_inst.norm, rewards=stress_inst.rewards,
                                  budget=25.0, null_action=2)
            stress.append((inst, bwk_run(inst, stress_psi, opt_bwk=50.0,
                                         seed=derive_seed(MASTER, "c9stress", s),
                                         allow_small_budget=True)))
    _BANDIT_CACHE.update({
        "bvc": (bvc_inst, bvc_bench, bvc_traces),
        "bwk": (bwk_inst, opt_bwk, bwk_traces),
        "stress": stress,
    })
    return _BANDIT_CACHE


def measure_bandit_baselines() -> dict:
    runs = _bandit_runs()
    _, bvc_bench, bvc_traces = runs["bvc"]
    _, opt_bwk, bwk_traces = runs["bwk"]
    return {
        "bvc_mean_ratio": float(np.mean([t.final_norm for t in bvc_traces]) / bvc_bench),
        "bwk_mean_ratio": float(np.mean([t.total_reward for t in bwk_traces]) / opt_bwk),
    }


def test_criterion_09_bwk_feasibility():
    runs = _bandit_runs()
    bwk_inst, _, bwk_traces = runs["bwk"]
    checked = 0
    ok = True
    groups = [(bwk_inst, bwk_traces)] + [(inst, [t]) for inst, t in runs["stress"]]
    for inst, traces in groups:
        for trace in traces:
            checked += 1
            if eval_norm(inst.norm, trace.final_cost) > inst.budget:
                ok = False
            if not (trace.actions[trace.stopped_at:] == inst.null_action).all():
                ok = False
    report("09 bwk-feasibility", ok, f"{checked} runs, zero budget violations,"
           " null absorption after every stop")


def test_criterion_10_bandit_benchmarks():
    measured = measure_bandit_baselines()
    bad = []
    if measured["bvc_mean_ratio"] > 1.10 * BANDIT_BASELINES["bvc_mean_ratio"]:
        bad.append(("bvc", measured["bvc_mean_ratio"]))
    if measured["bwk_mean_ratio"] < 0.90 * BANDIT_BASELINES["bwk_mean_ratio"]:
        bad.append(("bwk", measured["bwk_mean_ratio"]))
    report(
        "10 bandit-benchmarks",
        not bad,
        f"bvc mean cost ratio {measured['bvc_mean_ratio']:.3f}, "
        f"bwk mean reward ratio {measured['bwk_mean_ratio']:.3f} over 20 seeds"
        + (f"; regressions={bad}" if bad else ""),
    )


# --- criterion 11: CLI determinism -------------------------------------------------


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "gradnorm.cli", *args],
                          capture_output=True, text=True)


def test_criterion_11_cli_determinism(tmp_path):
    inst = str(tmp_path / "i.jsonl")
    binst = str(tmp_path / "b.jsonl")
    commands = [
        ("gen-lb", ["gen", "--problem", "lb", "--m", "3", "--k", "2", "--T", "6",
                    "--seed", "3", "--out", inst]),
        ("gen-bvc", ["gen", "--problem", "bvc", "--n", "2", "--d", "2", "--T", "50",
                     "--seed", "4", "--out", binst]),
        ("verify", ["verify", "--approx", "softmax", "--norm", "linf", "--dim", "8",
                    "--check", "stability", "--trials", "100", "--seed", "5",
                    "--samples", "100", "--out", None]),
        ("lb-run", ["lb", "run", "--instance", inst, "--approx", "sym", "--opt",
                    "given:2.0", "--seed", "6", "--samples", "400", "--out", None]),
        ("bvc-run", ["bvc", "run", "--instance", binst, "--approx", "softmax",
                     "--seeds", "2", "--seed", "7", "--samples", "100", "--out", None]),
        ("bench", ["bench", "bvc", "--instance", binst, "--out", None]),
    ]
    mismatches = []
    for name, args in commands:
        outputs = []
        for attempt in (0, 1):
            out_path = str(tmp_path / f"{name}-{attempt}.out")
            argv = [a if a is not None else out_path for a in args]
            proc = _cli(*argv)
            assert proc.returncode == 0, f"{name}: {proc.stderr}"
            target = out_path if None in args else (inst if name == "gen-lb" else binst)
            outputs.append(open(target, "rb").read())
        if outputs[0] != outputs[1]:
            mismatches.append(name)
    report(
        "11 cli-determinism",
        not mismatches,
        f"{len(commands)} commands run twice, byte-identical outputs"
        + (f"; mismatches={mismatches}" if mismatches else ""),
    )
