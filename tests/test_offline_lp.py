"""The offline fixed-mixture benchmarks against an exact linear program.

For polyhedral norms both benchmarks are linear programs.  The top-k norm
is written as in Ogryczak and Tamir (2003),

    top_k(v) = min_t  k*t + sum_i max(v_i - t, 0),

with linf = top_1, so ||M x|| <= c becomes  M x - t - s <= 0,
k*t + sum(s) <= c, s >= 0.  scipy's HiGHS solver is a test-only oracle:
the library itself depends on numpy alone.
"""

import numpy as np
import pytest

from gradnorm.bandits import benchmark_fixed_bvc, benchmark_fixed_bwk, read_bandit_instance
from gradnorm.harness import GeneratorSpec, generate
from gradnorm.norms import eval_norm

linprog = pytest.importorskip("scipy.optimize").linprog

SOLVER_SLACK = 1e-7  # relative; HiGHS stops at its own feasibility tolerances


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
    A, cost, bounds = topk_epigraph(instance)
    n, d = instance.n, instance.d
    simplex = np.concatenate([np.ones(n), np.zeros(1 + d)])[None, :]
    res = linprog(cost, A_ub=A, b_ub=np.zeros(d), A_eq=simplex, b_eq=[1.0], bounds=bounds,
                  method="highs")
    assert res.status == 0, res.message
    return res.fun


def lp_bwk(instance):
    """max <R, x> s.t. ||M x|| <= B, x >= 0, sum x <= 1."""
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


@pytest.mark.parametrize("spec", [
    dict(n=6, d=11, T=200, norm="linf", seed=5),  # projected descent only
    dict(n=4, d=8, T=100, norm="topk:3", seed=3),  # grid and descent
])
def test_bvc_is_feasible_and_within_one_percent_above_the_lp(tmp_path, spec):
    inst = instance(tmp_path, problem="bvc", **spec)
    x, value = benchmark_fixed_bvc(inst)
    assert (x >= 0).all() and x.sum() == pytest.approx(1.0, abs=1e-12)
    assert value == eval_norm(inst.norm, inst.total_costs @ x)
    opt = lp_bvc(inst)
    assert value >= opt * (1.0 - SOLVER_SLACK)
    assert value <= 1.01 * opt


def test_bwk_is_feasible_and_within_one_percent_below_the_lp(tmp_path):
    """The gen-bwk shape of tools/cli_outputs.py."""
    inst = instance(tmp_path, problem="bwk", family="stochastic-bandit", n=3, d=4, T=400,
                    budget=150.0, norm="topk:2", seed=6)
    x, value = benchmark_fixed_bwk(inst)
    assert (x >= 0).all() and x.sum() <= 1.0 + 1e-12
    assert eval_norm(inst.norm, inst.total_costs @ x) <= inst.budget + 1e-12
    assert value == float(inst.total_rewards @ x)
    opt = lp_bwk(inst)
    assert value <= opt * (1.0 + SOLVER_SLACK)
    assert value >= 0.99 * opt
