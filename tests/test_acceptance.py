"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Empirical criteria use
pinned instances, hyperparameters, and seeds; tolerances are stated inline.
"""

import math
import time

import numpy as np
import pytest
import yaml

from refprice import (
    Instance,
    NoiseSpec,
    clairvoyant_value,
    greedy_price,
    regret_sweep,
    run_episode,
    solve_curve,
    true_policy_params,
    two_price_policy,
)
from refprice.cli import main as cli_main
from refprice.harness import SimEnv
from refprice.policies import LearnGreedyState
from refprice.validate import (
    check_binary_vs_linear,
    check_dense_vs_recursion,
    check_foc_residual,
    check_reset_brute_force,
    random_instance,
)

from oracles import gradient_z_scores

# Reference instance for the fixed-price suboptimality construction.
INST_GAP = Instance(a=1.0, b=2.0, eta_plus=0.5, eta_minus=0.5, p_max=4 / 3, p_ratio_bound=1.0)

# Learning-sweep instance: as above but with a little headroom over the
# demand-nonnegativity boundary, so no constraint is active at the truth.
INST_LEARN = Instance(a=1.0, b=2.05, eta_plus=0.5, eta_minus=0.5, p_max=4 / 3, p_ratio_bound=1.025)

# Reset-overhead instance: weak reference effect, targets just above the
# ratio bound, so reset plans stay short.
INST_RESET = Instance(a=1.0, b=1.05, eta_plus=0.05, eta_minus=0.05, p_max=1.0, p_ratio_bound=0.525)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_c01_two_price_gap_per_round():
    start = time.perf_counter()
    T = 100000
    rec_two = run_episode(INST_GAP, NoiseSpec.none(), {"kind": "two_price", "alpha": 0.3}, T, 0.0, 0)
    rec_fix = run_episode(INST_GAP, NoiseSpec.none(), {"kind": "optimal_fixed"}, T, 0.0, 0)
    gap = (rec_two.expected_total - rec_fix.expected_total) / T
    elapsed = time.perf_counter() - start
    ok = abs(gap - 0.0318) <= 0.003 and elapsed < 1.0
    report(1, ok, f"per-round two-price gap {gap:.5f} (target 0.0318 +- 0.003), {elapsed:.2f}s")


def test_c02_two_price_values():
    p_u, p_d = two_price_policy(INST_GAP, 0.3)
    ok = abs(p_u - 1.2787) <= 5e-4 and abs(p_d - 0.926) <= 5e-4
    report(2, ok, f"p_u={p_u:.5f} (1.2787 +- 5e-4), p_d={p_d:.5f} (0.926 +- 5e-4)")


def test_c03_solver_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    dense = check_dense_vs_recursion(rng, n_cases=50)
    scan = check_binary_vs_linear(rng, n_cases=100, max_T=500)
    elapsed = time.perf_counter() - start
    ok = dense.passed and scan.passed and elapsed < 30.0
    report(3, ok, f"{dense.detail}; {scan.detail}; {elapsed:.1f}s")


def test_c04_foc_residual():
    rng = np.random.default_rng(404)
    worst = 0.0
    for horizon in (100, 1000, 10000):
        for r1 in (0.0, 0.6, INST_GAP.p_max):
            curve = solve_curve(true_policy_params(INST_GAP), r1, 1, horizon, INST_GAP.p_max)
            from refprice import foc_residual

            worst = max(worst, foc_residual(curve, true_policy_params(INST_GAP)))
    extra = check_foc_residual(rng, horizons=(100, 1000, 10000), n_cases=3)
    ok = worst <= 1e-8 and extra.passed
    report(4, ok, f"max residual {worst:.2e} (pinned instance); {extra.detail}")


def best_grid_sequence_value(inst, T, r1, n_grid=21):
    grid = np.linspace(0.0, inst.p_max, n_grid)
    total = 0.0
    ref_sum = np.array(r1)
    for t in range(1, T + 1):
        shape = [1] * T
        shape[t - 1] = n_grid
        p_t = grid.reshape(shape)
        r_t = ref_sum / t
        gap = r_t - p_t
        eta = np.where(gap >= 0, inst.eta_plus, inst.eta_minus)
        total = total + p_t * (inst.b - inst.a * p_t + eta * gap)
        ref_sum = ref_sum + p_t
    return float(total.max())


def test_c05_exhaustive_small_horizon():
    start = time.perf_counter()
    worst_margin = np.inf
    for r1 in (0.0, 0.7, INST_GAP.p_max):
        best = best_grid_sequence_value(INST_GAP, 5, r1)
        worst_margin = min(worst_margin, clairvoyant_value(INST_GAP, r1, 5) - best)
    elapsed = time.perf_counter() - start
    ok = worst_margin >= -0.01 and elapsed < 60.0
    report(5, ok, f"curve minus best 21^5 grid sequence >= {worst_margin:+.4f} (limit -0.01), {elapsed:.1f}s")


def test_c06_markdown_invariant():
    rng = np.random.default_rng(606)
    violations = 0
    for _ in range(1000):
        inst = random_instance(rng, symmetric=bool(rng.integers(0, 2)))
        theta = true_policy_params(inst)
        horizon = int(rng.integers(5, 300))
        curve = solve_curve(theta, rng.uniform(0, inst.p_max), 1, horizon, inst.p_max)
        if not np.all(np.diff(curve.prices) <= 1e-12):
            violations += 1
    report(6, violations == 0, f"{violations} non-markdown curves in 1000 random instances")


def test_c07_gradient_unbiasedness():
    # Monte Carlo, 3 standard errors: 10 points, 10^6 draws per shock kind.
    worst_z = max(gradient_z_scores(np.random.default_rng(707), 10, 10**6))
    report(7, worst_z <= 3.0, f"max |z| {worst_z:.2f} (limit 3)")


@pytest.mark.slow
def test_c08_greedy_learner_rate():
    start = time.perf_counter()
    inst = INST_GAP
    r_t = inst.p_ratio_bound + 0.5 * (inst.p_max - inst.p_ratio_bound)
    d = 0.5 * (r_t - inst.p_ratio_bound)
    true_p = greedy_price(inst, r_t)
    noise = NoiseSpec.bounded_uniform(0.1)
    budgets = [100, 1000, 10000, 100000]
    errs = []
    fewest_rounds = []
    for budget in budgets:
        per_seed = []
        rounds = []
        for s in range(20):
            seed_rng = np.random.default_rng(1234 + s)
            # Room to spare: every seed reaches its full learning budget.
            env = SimEnv(inst, noise, 10 * budget + 50, r_t, seed_rng)
            learner = LearnGreedyState(r_target=r_t, d=d, budget=budget, p_max=inst.p_max, rng=seed_rng)
            learner.run(env)
            per_seed.append(abs(learner.estimate() - true_p))
            rounds.append(learner.learn_rounds)
        errs.append(float(np.mean(per_seed)))
        fewest_rounds.append(min(rounds))
    slope = float(np.polyfit(np.log(budgets), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - start
    ok = -0.65 <= slope <= -0.35 and elapsed < 300.0
    report(
        8,
        ok,
        f"error slope {slope:.3f} in [-0.65, -0.35], errors {np.round(errs, 4).tolist()}, "
        f"fewest learn rounds {fewest_rounds} of {budgets}, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_c09_regret_rates():
    start = time.perf_counter()
    noise = NoiseSpec.bounded_uniform(0.05)
    p_rb, p_max = INST_LEARN.p_ratio_bound, INST_LEARN.p_max
    delta = p_max - p_rb
    spec = {
        "kind": "learn_then_earn",
        "c_t1": 3.0,
        "ra": p_rb + 0.45 * delta,
        "rb": p_rb + 0.85 * delta,
    }
    T_list = [1000, 10000, 100000]
    _, slope_learn = regret_sweep(INST_LEARN, noise, spec, T_list, 24, p_max, base_seed=0)
    _, slope_fixed = regret_sweep(
        INST_LEARN, noise, {"kind": "optimal_fixed"}, T_list, 24, p_max, base_seed=0
    )
    elapsed = time.perf_counter() - start
    ok = (
        slope_learn is not None
        and 0.40 <= slope_learn <= 0.65
        and slope_fixed is not None
        and 0.90 <= slope_fixed <= 1.05
        and elapsed < 900.0
    )
    report(
        9,
        ok,
        f"learner slope {slope_learn:.3f} in [0.40, 0.65]; fixed slope {slope_fixed:.3f} in [0.90, 1.05]; {elapsed:.0f}s",
    )


def test_c10_reset_ref():
    rng = np.random.default_rng(1010)
    brute = check_reset_brute_force(rng, n_cases=1000)
    spec = {"kind": "learn_then_earn", "ra": 0.585, "rb": 0.615, "t1_budget": 4000}
    worst_ratio = 0.0
    for s in range(3):
        rec = run_episode(INST_RESET, NoiseSpec.bounded_uniform(0.05), spec, 50000, 0.585, 900 + s)
        worst_ratio = max(worst_ratio, rec.meta["reset_rounds"] / rec.meta["t1_budget"])
    ok = brute.passed and worst_ratio <= 3.0
    report(10, ok, f"{brute.detail}; worst reset rounds {worst_ratio:.2f} x T1 (limit 3)")


def test_c11_sweep_determinism(tmp_path):
    cfg = {
        "instance": {
            "a": 1.0,
            "b": 2.05,
            "eta_plus": 0.5,
            "eta_minus": 0.5,
            "p_max": 4 / 3,
            "p_ratio_bound": 1.025,
        },
        "noise": {"kind": "bounded_uniform", "half_width": 0.05},
        "policy": {"kind": "learn_then_earn", "c_t1": 2.0},
        "run": {"T_list": [300, 900], "seeds": 3, "base_seed": 17, "r1": 4 / 3},
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert cli_main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        outs.append((out / "regret.csv").read_bytes())
    ok = outs[0] == outs[1]
    report(11, ok, f"two sweep runs produced {'identical' if ok else 'DIFFERENT'} CSV bytes")
