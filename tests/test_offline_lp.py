"""The offline fixed-mixture benchmarks against exact oracles.

For polyhedral norms both benchmarks are linear programs.  The top-k norm
is written as in Ogryczak and Tamir (2003),

    top_k(v) = min_t  k*t + sum_i max(v_i - t, 0),

with linf = top_1, so ||M x|| <= c becomes  M x - t - s <= 0,
k*t + sum(s) <= c, s >= 0.  scipy's HiGHS solver is a test-only oracle:
the library itself depends on numpy alone.  The lp, ordered and Orlicz
norms are checked against an exhaustive simplex grid instead, in
tests/test_bandits.py::TestChunkedGrid.
"""

import itertools

import numpy as np
import pytest

from gradnorm.bandits import benchmark_fixed_bvc, benchmark_fixed_bwk, read_bandit_instance
from gradnorm.harness import GeneratorSpec, generate
from gradnorm.norms import eval_norm

SOLVER_SLACK = 1e-7  # relative; HiGHS stops at its own feasibility tolerances
BRACKET = 1e-9  # the benchmarks' own closing width, relative


def topk_epigraph(instance):
    """LP rows over z = (x, t, s) with ``A z <= 0`` and ``cost . z >= ||M x||``."""
    spec = instance.norm
    assert spec.kind in ("linf", "topk") and spec.scale == 1.0
    k = 1 if spec.kind == "linf" else spec.k
    M = instance.total_costs
    d, n = M.shape
    A = np.hstack([M, -np.ones((d, 1)), -np.eye(d)])
    cost = np.concatenate([np.zeros(n), [k], np.ones(d)])
    bounds = [(0, None)] * n + [(None, None)] + [(0, None)] * d
    return A, cost, bounds


def lp_bvc(instance):
    """min ||M x|| over the simplex."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    A, cost, bounds = topk_epigraph(instance)
    n, d = instance.n, instance.d
    simplex = np.concatenate([np.ones(n), np.zeros(1 + d)])[None, :]
    res = linprog(cost, A_ub=A, b_ub=np.zeros(d), A_eq=simplex, b_eq=[1.0], bounds=bounds,
                  method="highs")
    assert res.status == 0, res.message
    return res.fun


def lp_bwk(instance):
    """max <R, x> s.t. ||M x|| <= B, x >= 0, sum x <= 1."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    A, cost, bounds = topk_epigraph(instance)
    n, d = instance.n, instance.d
    A_ub = np.vstack([A, cost, np.concatenate([np.ones(n), np.zeros(1 + d)])])
    b_ub = np.concatenate([np.zeros(d), [instance.budget, 1.0]])
    reward = np.concatenate([instance.total_rewards, np.zeros(1 + d)])
    res = linprog(-reward, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return -res.fun


def instance(tmp_path, **spec):
    path = str(tmp_path / "inst.jsonl")
    generate(GeneratorSpec(**spec), path)
    return read_bandit_instance(path)


def scale(value):
    return max(1.0, abs(value))


def check_bvc(inst, x, value, bound):
    assert (x >= 0).all() and x.sum() == pytest.approx(1.0, abs=1e-12)
    assert value == eval_norm(inst.norm, inst.total_costs @ x)
    assert np.isfinite(bound) and abs(value - bound) <= BRACKET * scale(value)


def check_bwk(inst, x, value, bound):
    assert (x >= 0).all() and x.sum() <= 1.0 + 1e-12
    assert eval_norm(inst.norm, inst.total_costs @ x) <= inst.budget
    assert value == float(inst.total_rewards @ x)
    assert np.isfinite(bound) and abs(bound - value) <= BRACKET * scale(value)


def norm_text(norm, d):
    return "linf" if norm == "linf" else f"topk:{min(3, d)}"


MATRIX = list(itertools.product(["linf", "topk"], [1, 2, 4, 6, 12], [1, 2, 8, 16],
                                ["uniform", "spike", "stochastic-bandit"]))
IDS = [f"{norm}-n{n}-d{d}-{family}" for norm, n, d, family in MATRIX]


@pytest.mark.parametrize("norm, n, d, family", MATRIX, ids=IDS)
def test_bvc_brackets_the_lp(tmp_path, norm, n, d, family):
    inst = instance(tmp_path, problem="bvc", family=family, n=n, d=d, T=60,
                    norm=norm_text(norm, d), seed=100 * n + d)
    x, value, bound = benchmark_fixed_bvc(inst)
    check_bvc(inst, x, value, bound)
    opt = lp_bvc(inst)
    assert value >= opt - SOLVER_SLACK * scale(opt)
    assert bound <= opt + SOLVER_SLACK * scale(opt)


@pytest.mark.parametrize("budget", [None, 0.0], ids=["null", "zero-budget"])
@pytest.mark.parametrize("norm, n, d, family", MATRIX, ids=IDS)
def test_bwk_brackets_the_lp(tmp_path, norm, n, d, family, budget):
    """Generated bwk instances carry a null action; None is the default B = T/4."""
    inst = instance(tmp_path, problem="bwk", family=family, n=n, d=d, T=60, budget=budget,
                    norm=norm_text(norm, d), seed=100 * n + d)
    x, value, bound = benchmark_fixed_bwk(inst)
    check_bwk(inst, x, value, bound)
    opt = lp_bwk(inst)
    assert value <= opt + SOLVER_SLACK * scale(opt)
    assert bound >= opt - SOLVER_SLACK * scale(opt)


@pytest.mark.parametrize("spec", [
    dict(n=6, d=11, T=200, norm="linf", seed=5),  # the old descent was 8.1e-4 high
    dict(n=4, d=8, T=100, norm="topk:3", seed=3),  # the old grid and descent, 1.9e-5 high
])
def test_bvc_is_feasible_and_within_one_percent_above_the_lp(tmp_path, spec):
    inst = instance(tmp_path, problem="bvc", **spec)
    x, value, bound = benchmark_fixed_bvc(inst)
    check_bvc(inst, x, value, bound)
    opt = lp_bvc(inst)
    assert value <= 1.01 * opt
    assert abs(value - opt) <= SOLVER_SLACK * scale(opt)


def test_bwk_is_feasible_and_within_one_percent_below_the_lp(tmp_path):
    """The gen-bwk shape of tools/cli_outputs.py, where the old grid and
    bisection were 0.43% low."""
    inst = instance(tmp_path, problem="bwk", family="stochastic-bandit", n=3, d=4, T=400,
                    budget=150.0, norm="topk:2", seed=6)
    x, value, bound = benchmark_fixed_bwk(inst)
    check_bwk(inst, x, value, bound)
    opt = lp_bwk(inst)
    assert value >= 0.99 * opt
    assert abs(value - opt) <= SOLVER_SLACK * scale(opt)
