import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refprice import (
    NoiseSpec,
    PolicyParams,
    SolverError,
    foc_residual,
    run_episode,
    solve_curve,
    true_policy_params,
)
from refprice import curve as curve_module
from refprice.policies import PlannedPolicy
from refprice.validate import (
    check_curve_lipschitz,
    curve_from_markdown_start,
    dense_solve,
    dominance_margin,
    linear_scan_markdown_start,
    random_instance,
    random_theta,
    scalar_solve_curve,
    segment_initial_price,
    solve_segment,
)


def test_terminal_round_formula():
    prices, refs = solve_segment(PolicyParams(1 / 6, 2 / 3), 1.0, 10, 10)
    assert prices[0] == pytest.approx(5 / 6, abs=1e-12)
    assert refs[0] == 1.0


def test_dense_decoupled_when_c1_zero():
    assert np.allclose(dense_solve(PolicyParams(0.0, 0.8), 1.0, 3, 12), 0.8)


def test_dense_one_by_one():
    theta = PolicyParams(0.2, 0.6)
    assert dense_solve(theta, 0.7, 9, 9)[0] == pytest.approx(0.2 * 0.7 + 0.6, abs=1e-12)


def test_dense_vs_recursion_random(rng):
    worst = 0.0
    n_done = 0
    while n_done < 50:
        p_max = rng.uniform(0.6, 2.0)
        theta = random_theta(rng, p_max)
        horizon = int(rng.integers(2, 201))
        markdown_start = int(rng.integers(1, horizon + 1))
        r_md = rng.uniform(0.0, p_max)
        if dominance_margin(theta.c1, markdown_start, horizon) <= 0:
            continue
        dense = dense_solve(theta, r_md, markdown_start, horizon)
        fast, _ = solve_segment(theta, r_md, markdown_start, horizon)
        scan = solve_curve(theta, r_md, markdown_start, horizon, 2.0 * max(r_md, dense.max()))
        assert scan.markdown_start == markdown_start
        worst = max(worst, np.max(np.abs(dense - fast)), np.max(np.abs(dense - scan.prices)))
        n_done += 1
    assert worst <= 1e-8


def test_dense_refuses_without_dominance():
    theta = PolicyParams(0.45, 0.7)
    assert dominance_margin(theta.c1, 1, 500) <= 0
    with pytest.raises(SolverError):
        dense_solve(theta, 1.0, 1, 500)
    with pytest.raises(SolverError):
        solve_segment(theta, 1.0, 1, 500)


def test_both_step_conventions_agree(inst_symmetric):
    # step written with raw demand parameters vs with (c1, c2)
    inst = inst_symmetric
    theta = true_policy_params(inst)
    eta, a = inst.eta_plus, inst.a
    for t in (1, 5, 40, 999):
        r = 1.1
        with_c1 = theta.c1 * r / (t + 1 + theta.c1)
        with_eta = eta * r / (2 * (a + eta) * (t + 1) + eta)
        assert with_c1 == pytest.approx(with_eta, abs=1e-15)


def test_foc_residual_small(rng):
    for horizon in (50, 400, 3000):
        inst = random_instance(rng)
        theta = true_policy_params(inst)
        curve = solve_curve(theta, rng.uniform(0, inst.p_max), 1, horizon, inst.p_max)
        assert foc_residual(curve, theta) <= 1e-8


def test_infeasible_markdown_start_returns_none(inst_symmetric):
    theta = true_policy_params(inst_symmetric)
    # from the ceiling reference with a long tail the first round is infeasible
    assert curve_from_markdown_start(theta, inst_symmetric.p_max, 1, 1, 300, inst_symmetric.p_max) is None
    # far below the true start the system can lose dominance entirely
    with pytest.raises(SolverError):
        curve_from_markdown_start(theta, inst_symmetric.p_max, 1, 1, 100000, inst_symmetric.p_max)


def test_solve_curve_strict_markdown_from_ceiling(inst_symmetric):
    # small horizon: c2 + c1*p_max <= p_max and the first round is interior
    inst = inst_symmetric
    theta = true_policy_params(inst)
    assert theta.c2 + theta.c1 * inst.p_max <= inst.p_max
    curve = solve_curve(theta, inst.p_max, 1, 10, inst.p_max)
    assert curve.markdown_start == 1
    assert curve.markdown_start == linear_scan_markdown_start(theta, inst.p_max, 1, 10, inst.p_max)
    assert np.all(np.diff(curve.prices) < 0)


def test_solve_curve_plateau_shape(inst_symmetric):
    inst = inst_symmetric
    theta = true_policy_params(inst)
    curve = solve_curve(theta, 0.2, 1, 2000, inst.p_max)
    assert curve.markdown_start > 1
    plateau = curve.prices[: curve.markdown_start - 1]
    assert np.all(plateau == inst.p_max)
    seg = curve.prices[curve.markdown_start - 1 :]
    assert np.all(np.diff(seg) <= 1e-12)
    # strictly decreasing wherever the reference is positive (drop the final
    # round, whose price is set by the closed-form terminal rule)
    assert np.all(np.diff(seg[:-1]) < 0)


def test_binary_matches_linear_scan(rng):
    for _ in range(30):
        inst = random_instance(rng, symmetric=bool(rng.integers(0, 2)))
        theta = true_policy_params(inst)
        horizon = int(rng.integers(5, 301))
        r_start = rng.uniform(0, inst.p_max)
        curve = solve_curve(theta, r_start, 1, horizon, inst.p_max)
        assert curve.markdown_start == linear_scan_markdown_start(
            theta, r_start, 1, horizon, inst.p_max
        )


def test_sweep_matches_linear_scan_late_start(rng):
    for t_start in range(1, 11):
        inst = random_instance(rng)
        theta = true_policy_params(inst)
        horizon = t_start + int(rng.integers(1, 2000))
        r_start = rng.uniform(0, inst.p_max)
        curve = solve_curve(theta, r_start, t_start, horizon, inst.p_max)
        assert curve.markdown_start == linear_scan_markdown_start(
            theta, r_start, t_start, horizon, inst.p_max
        )


@settings(derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    symmetric=st.booleans(),
    true_theta=st.booleans(),
    t_start=st.integers(1, 40),
    length=st.integers(0, 460),
    r_share=st.floats(0.0, 1.0),
)
def test_sweep_property(seed, symmetric, true_theta, t_start, length, r_share):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, symmetric=symmetric)
    theta = true_policy_params(inst) if true_theta else random_theta(rng, inst.p_max)
    horizon = t_start + length
    r_start = r_share * inst.p_max
    args = (theta, r_start, t_start, horizon, inst.p_max)
    try:
        scan = linear_scan_markdown_start(*args)
    except SolverError:
        with pytest.raises(SolverError):
            solve_curve(*args)
        return
    curve = solve_curve(*args)
    assert curve.markdown_start == scan
    assert np.all(np.diff(curve.prices) <= 0.0)
    assert np.all(curve.prices >= 0.0) and np.all(curve.prices <= inst.p_max)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    symmetric=st.booleans(),
    true_theta=st.booleans(),
    horizon=st.integers(1, 3000),
    start_share=st.floats(0.0, 1.0),
    r_share=st.floats(0.0, 1.0),
    chunk=st.sampled_from([curve_module.CHUNK, 5, 64]),
)
def test_scan_matches_scalar_oracle(
    seed, symmetric, true_theta, horizon, start_share, r_share, chunk
):
    # Small chunks put many chunk boundaries inside short horizons.
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, symmetric=symmetric)
    theta = true_policy_params(inst) if true_theta else random_theta(rng, inst.p_max)
    t_start = 1 + int(start_share * (horizon - 1))
    args = (theta, r_share * inst.p_max, t_start, horizon, inst.p_max)
    try:
        oracle = scalar_solve_curve(*args)
    except SolverError:
        with mock.patch.object(curve_module, "CHUNK", chunk), pytest.raises(SolverError):
            solve_curve(*args)
        return
    with mock.patch.object(curve_module, "CHUNK", chunk):
        curve = solve_curve(*args)
    assert curve.markdown_start == oracle.markdown_start
    assert np.max(np.abs(curve.prices - oracle.prices)) <= 1e-12
    assert np.all(np.diff(curve.prices) <= 0.0)
    assert np.all(curve.prices >= 0.0) and np.all(curve.prices <= inst.p_max)


def test_roll_matches_scalar_steps():
    """``_roll`` against scalar loops of the step at every length 1-300: a
    single step, blocks of one step (n < 32), and for each block length up
    to 6 a last block of every fill, from one step to full.  Forward it
    rolls (p, S); backward it rolls the covector (u, v) -> (u + v, e*u + v)
    as the swapped pair (v, u) over the reversed steps.  Each path agrees
    with its scalar loop to a few ulps of the path's largest entry (6.8e-15
    at worst over 900 random cases of each direction; roll and loop each sit
    within about 3e-15 of exact rational arithmetic)."""
    rng = np.random.default_rng(5)
    for n in range(1, 301):
        c1, t0 = rng.uniform(0.0, 0.5), int(rng.integers(1, 10**6))
        t = np.arange(t0, t0 + n, dtype=float)
        e = -c1 / (t * (t + 1.0 + c1))
        p, total = rng.uniform(0.0, 2.0), t0 * rng.uniform(0.0, 2.0)
        out = np.empty(n), np.empty(n)
        last = curve_module._roll(e, p, total, *out)
        forward = []
        for step in e:
            p, total = p + step * total, total + p
            forward.append((p, total))
        u, v = 1.0, -c1 / (t0 + n)
        back = np.empty(n), np.empty(n)
        back_last = curve_module._roll(e[::-1], v, u, *back)
        backward = []
        for step in e[::-1]:
            u, v = u + v, step * u + v
            backward.append((v, u))
        for got, end, want in ((out, last, forward), (back, back_last, backward)):
            want = np.array(want).T
            assert end == (got[0][-1], got[1][-1])
            for path, exact in zip(got, want):
                assert np.max(np.abs(path - exact)) <= 1e-14 * np.max(np.abs(exact))


@pytest.mark.parametrize("chunk", [curve_module.CHUNK, 2048])
def test_solve_curve_memory_is_bounded_by_the_chunk(inst_symmetric, monkeypatch, chunk):
    """Over its two outputs (16 B a round), a long solve holds a few
    ``CHUNK``-round temporaries at most: neither pass keeps a value for
    every round, nor does the plateau before the markdown start."""
    monkeypatch.setattr(curve_module, "CHUNK", chunk)
    theta = true_policy_params(inst_symmetric)
    T = 2 * 10**5
    tracemalloc.start()
    try:
        solve_curve(theta, inst_symmetric.p_max, 1, T, inst_symmetric.p_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 16 * T <= 16 * 8 * curve_module.CHUNK


def _mp_segment(theta, r_md, markdown_start, horizon):
    """Prices of the optimality segment in 50-digit arithmetic: the one-step
    rule rolled from the initial price that meets the final-round condition
    (the final price is affine in the initial one)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        c1, c2 = mpmath.mpf(theta.c1), mpmath.mpf(theta.c2)

        def roll(p):
            prices, total = [], markdown_start * mpmath.mpf(r_md)
            for t in range(markdown_start, horizon + 1):
                prices.append(p)
                p, total = p - c1 * total / (t * (t + 1 + c1)), total + p
            return prices, (total - prices[-1]) / horizon

        def excess(p0):
            prices, r_T = roll(p0)
            return prices[-1] - c1 * r_T - c2

        f0 = excess(mpmath.mpf(0))
        prices, _ = roll(-f0 / (excess(mpmath.mpf(1)) - f0))
        return np.array([float(p) for p in prices])


def test_scan_and_scalar_oracle_against_mpmath():
    rng = np.random.default_rng(2024)
    for k in range(8):
        inst = random_instance(rng, symmetric=k % 2 == 0)
        theta = true_policy_params(inst) if k < 4 else random_theta(rng, inst.p_max)
        horizon = int(rng.integers(2, 2001))
        curve = solve_curve(theta, rng.uniform(0, inst.p_max), 1, horizon, inst.p_max)
        m = curve.markdown_start
        r_md = curve.refs[m - 1]
        exact = _mp_segment(theta, r_md, m, horizon)
        scalar, _ = solve_segment(theta, r_md, m, horizon)
        assert np.max(np.abs(curve.prices[m - 1 :] - exact)) <= 1e-13
        assert np.max(np.abs(scalar - exact)) <= 1e-13


def test_final_price_does_not_rise():
    # The closed-form final price c1*r_T + c2 sits an ulp above the rolled
    # price of round T-1 here; the curve keeps the rolled one.
    rng = np.random.default_rng(0)
    inst = random_instance(rng, symmetric=False)
    theta = random_theta(rng, inst.p_max)
    curve = solve_curve(theta, 1.4e-16, 2, 3, inst.p_max)
    assert curve.markdown_start == 2
    assert curve.prices[1] <= curve.prices[0]
    assert curve.prices[1] == pytest.approx(theta.c1 * curve.refs[1] + theta.c2, rel=1e-15)


def test_long_horizon_markdown_start(inst_symmetric):
    inst = inst_symmetric
    theta = true_policy_params(inst)
    curve = solve_curve(theta, inst.p_max, 1, 10**6, inst.p_max)
    assert curve.markdown_start == 83120
    assert foc_residual(curve, theta) <= 1e-8
    assert np.all(np.diff(curve.prices) <= 0.0)
    # The solver against the scalar oracle over a long horizon.
    scan = solve_curve(theta, inst.p_max, 1, 10**5, inst.p_max)
    oracle = scalar_solve_curve(theta, inst.p_max, 1, 10**5, inst.p_max)
    assert scan.markdown_start == oracle.markdown_start == 8312
    assert np.max(np.abs(scan.prices - oracle.prices)) <= 1e-12
    assert np.all(np.diff(scan.prices) <= 0.0)


def test_markdown_invariant_sample(rng):
    for _ in range(100):
        inst = random_instance(rng, symmetric=bool(rng.integers(0, 2)))
        theta = true_policy_params(inst)
        horizon = int(rng.integers(5, 300))
        curve = solve_curve(theta, rng.uniform(0, inst.p_max), 1, horizon, inst.p_max)
        assert np.all(np.diff(curve.prices) <= 1e-12)
        assert np.all(curve.prices >= -1e-12) and np.all(curve.prices <= inst.p_max + 1e-12)


def test_curve_value_monotone_in_start_reference(rng):
    # The same solved curve, posted from a higher starting reference, earns
    # at least as much.
    def value(inst, prices, r1):
        policy = PlannedPolicy("markdown_oracle", prices)
        return run_episode(inst, NoiseSpec.none(), policy, len(prices), r1, 0).expected_total

    for _ in range(20):
        inst = random_instance(rng, symmetric=bool(rng.integers(0, 2)))
        theta = true_policy_params(inst)
        curve = solve_curve(theta, rng.uniform(0, inst.p_max), 1, int(rng.integers(5, 100)), inst.p_max)
        r = rng.uniform(0, inst.p_max)
        r_hi = rng.uniform(r, inst.p_max)
        assert value(inst, curve.prices, r_hi) >= value(inst, curve.prices, r) - 1e-12


def test_segment_initial_price_matches_dense(rng):
    theta = PolicyParams(0.15, 0.55)
    assert segment_initial_price(theta, 0.9, 4, 120) == pytest.approx(
        dense_solve(theta, 0.9, 4, 120)[0], abs=1e-10
    )


def test_curve_lipschitz_logged_only(rng):
    result = check_curve_lipschitz(rng, n_cases=10)
    assert result.passed  # informational: never asserts the bound itself
