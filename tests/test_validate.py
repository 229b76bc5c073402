import math
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refprice import NoiseSpec, PolicyParams, SolverError, solve_curve, true_policy_params
from refprice.cli import main
from refprice.curve import FEASIBILITY_TOL
from refprice.policies import RESET_TOL
from refprice import validate
from refprice.validate import (
    brute_force_reset,
    check_gradient_unbiased,
    curve_from_markdown_start,
    dominance_margin,
    linear_scan_markdown_start,
    random_instance,
    random_theta,
    scalar_solve_curve,
    segment_initial_price,
    shock_mean_p_value,
)

# `refprice validate` on the shipped default config (base seed 0).
VALIDATE_GOLDEN = """\
PASS dense_vs_recursion: max abs diff 4.663e-15
PASS binary_vs_linear_scan: 0 mismatches in 100 cases
PASS foc_residual: max residual 6.439e-15
PASS reset_brute_force: 0 plan mismatches, max target error 1.656e-13
PASS gradient_unbiased: max kappa-average error 3.6e-17 x b*p_max/d (limit 1e-12), min shock-mean p-value 0.72 (limit 1e-09)
PASS curve_lipschitz_logged: 0 bound violations in 50 cases (worst ratio 0.08); informational
all checks passed
"""


def test_reset_brute_force_counts_oracle_miss(monkeypatch):
    monkeypatch.setattr(validate, "brute_force_reset", lambda *args, **kwargs: None)
    result = validate.check_reset_brute_force(np.random.default_rng(0), n_cases=5)
    assert result.passed is False
    assert result.detail.startswith("5 plan mismatches")


DEFAULT_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "default.yaml")


def _refuse(*args, **kwargs):
    raise AssertionError("a process was started")


@pytest.fixture
def no_processes(monkeypatch):
    """Forking raises."""

    monkeypatch.setattr(os, "fork", _refuse)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_validate_stdout_golden(capsys, no_processes, threads):
    assert main(["validate", "--config", DEFAULT_CONFIG, "--threads", str(threads)]) == 0
    assert capsys.readouterr().out == VALIDATE_GOLDEN


def test_run_all_starts_no_process(no_processes):
    assert all(r.passed for r in validate.run_all(0))


@pytest.mark.parametrize("reason", ["thread", "no_fork"])
def test_run_all_alone_where_it_may_not_fork(monkeypatch, reason):
    """With another thread running, or with fork not on offer, run_all gives
    the same results and still starts no process."""
    expected = validate.run_all(0)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if reason == "thread":
        thread.start()
        monkeypatch.setattr(os, "fork", _refuse)
    else:
        monkeypatch.delattr(os, "fork")
    try:
        assert validate.run_all(0) == expected
    finally:
        stop.set()
        if reason == "thread":
            thread.join()


def _without_kappa(price, demand, kappa, d):
    return price * demand / d


def _over_2d(price, demand, kappa, d):
    return price * demand * kappa / (2.0 * d)


@pytest.mark.parametrize("estimate", [_without_kappa, _over_2d])
def test_gradient_check_fails_a_wrong_estimator(monkeypatch, estimate):
    assert check_gradient_unbiased(np.random.default_rng(0)).passed
    monkeypatch.setattr(validate, "one_point_estimate", estimate)
    assert not check_gradient_unbiased(np.random.default_rng(0)).passed


@pytest.mark.parametrize("kind", ["bounded_uniform", "gaussian"])
def test_gradient_check_fails_a_shock_with_nonzero_mean(monkeypatch, kind):
    draw_array = NoiseSpec.draw_array

    def shifted(noise, rng, n):
        shocks = draw_array(noise, rng, n)
        return shocks + 0.01 if noise.kind == kind else shocks

    monkeypatch.setattr(NoiseSpec, "draw_array", shifted)
    assert not check_gradient_unbiased(np.random.default_rng(0)).passed


def test_shock_mean_bounds_at_the_false_alarm_rate():
    """The bounds the gradient check's docstring states for 10^5 shocks."""
    n, rate = 10**5, validate.SHOCK_FALSE_ALARM
    uniform, gaussian = NoiseSpec.bounded_uniform(0.2), NoiseSpec.gaussian(0.2)
    assert shock_mean_p_value(uniform, 4.2e-3, n) < rate < shock_mean_p_value(uniform, -4.1e-3, n)
    assert shock_mean_p_value(gaussian, -3.9e-3, n) < rate < shock_mean_p_value(gaussian, 3.8e-3, n)
    assert shock_mean_p_value(uniform, 0.0, n) == shock_mean_p_value(gaussian, 0.0, n) == 1.0


@pytest.mark.parametrize("solver", [solve_curve, scalar_solve_curve, linear_scan_markdown_start])
@pytest.mark.parametrize(
    "t_start, r_share", [(0, 0.5), (31, 0.5), (1, -0.1), (1, 1.1), (30, 1.1)]
)
def test_solvers_reject_out_of_range_start(inst_symmetric, solver, t_start, r_share):
    inst = inst_symmetric
    with pytest.raises(ValueError):
        solver(true_policy_params(inst), r_share * inst.p_max, t_start, 30, inst.p_max)


def curve_building_scan(theta, r_start, t_start, horizon, p_max):
    """Reference for linear_scan_markdown_start: build the curve at every
    start and take the first one curve_from_markdown_start accepts."""
    for t_md in range(t_start, horizon + 1):
        try:
            if curve_from_markdown_start(theta, r_start, t_start, t_md, horizon, p_max) is not None:
                return t_md
        except SolverError:
            continue
    raise SolverError("no feasible markdown start found by linear scan")


def pin_initial_price(theta, r_start, t_start, t_md, horizon, p_max, target):
    """theta with c2 moved so that the segment started at t_md opens at
    ``target``; the initial price is affine in c2.  theta itself when no
    positive c2 does it or the segment has no solution."""
    r_md = (t_start * r_start + (t_md - t_start) * p_max) / t_md
    try:
        p0 = segment_initial_price(theta, r_md, t_md, horizon)
        slope = segment_initial_price(PolicyParams(theta.c1, theta.c2 + 1.0), r_md, t_md, horizon) - p0
    except SolverError:
        return theta
    c2 = theta.c2 + (target - p0) / slope
    return PolicyParams(theta.c1, c2) if c2 > 0.0 else theta


@settings(derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    symmetric=st.booleans(),
    true_theta=st.booleans(),
    t_start=st.integers(1, 40),
    length=st.integers(0, 460),
    r_share=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    edge=st.one_of(st.none(), st.tuples(st.floats(0.0, 1.0), st.booleans(), st.floats(-2.0, 2.0))),
)
def test_linear_scan_matches_curve_building_scan(
    seed, symmetric, true_theta, t_start, length, r_share, edge
):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, symmetric=symmetric)
    theta = true_policy_params(inst) if true_theta else random_theta(rng, inst.p_max)
    horizon = t_start + length
    r_start = r_share * inst.p_max
    if edge is not None:
        # Put one start's initial price within a few FEASIBILITY_TOL of 0 or
        # p_max, where only the tolerance decides it.
        md_share, at_ceiling, offset = edge
        target = (inst.p_max if at_ceiling else 0.0) + offset * FEASIBILITY_TOL
        t_md = t_start + int(md_share * length)
        theta = pin_initial_price(theta, r_start, t_start, t_md, horizon, inst.p_max, target)
    args = (theta, r_start, t_start, horizon, inst.p_max)
    try:
        expected = curve_building_scan(*args)
    except SolverError:
        with pytest.raises(SolverError):
            linear_scan_markdown_start(*args)
        return
    assert linear_scan_markdown_start(*args) == expected


def scalar_linear_scan(theta, r_start, t_start, horizon, p_max):
    """Reference for linear_scan_markdown_start: one start at a time, each
    decided by segment_initial_price."""
    for t_md in range(t_start, horizon + 1):
        r_md = (t_start * r_start + (t_md - t_start) * p_max) / t_md
        try:
            p0 = segment_initial_price(theta, r_md, t_md, horizon)
        except SolverError:
            continue
        if not (p0 < -FEASIBILITY_TOL or p0 > p_max + FEASIBILITY_TOL):
            return t_md
    raise SolverError("no feasible markdown start found by linear scan")


def recording_scan(args, width):
    """linear_scan_markdown_start with the first chunk ``width`` starts wide;
    returns its result (None on SolverError) and every chunk it rolled as
    (first start, r_md, denominators, initial prices)."""
    chunks = []
    roll = validate._segment_initial_prices

    def spy(theta, r_md, first, horizon):
        denom, p0 = roll(theta, r_md, first, horizon)
        chunks.append((first, r_md, denom, p0))
        return denom, p0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(validate, "_segment_initial_prices", spy)
        mp.setattr(validate, "SCAN_CHUNK", width)
        try:
            return linear_scan_markdown_start(*args), chunks
        except SolverError:
            return None, chunks


def assert_scan_matches_scalar(theta, r_start, t_start, horizon, p_max, width):
    """The chunked scan, first chunk ``width`` starts wide, returns the
    scalar scan's start (or raises its SolverError).  Every start it rolls
    gets segment_initial_price's r_md, initial price and SolverError, to the
    bit; the chunks run from the first start that passes dominance, double
    in width, and end at the returned start or at the horizon.  Returns the
    start (None on SolverError) and the chunks."""
    args = (theta, r_start, t_start, horizon, p_max)
    got, chunks = recording_scan(args, width)
    try:
        assert got == scalar_linear_scan(*args)
    except SolverError:
        assert got is None
    first = t_start
    while first < horizon and dominance_margin(theta.c1, first, horizon) <= 0.0:
        first += 1
    for i, (chunk_first, r_md, denom, p0) in enumerate(chunks):
        assert chunk_first == first and len(r_md) == min(width << i, horizon + 1 - first)
        for j in range(len(r_md)):
            t_md = first + j
            r_md_scalar = (t_start * r_start + (t_md - t_start) * p_max) / t_md
            assert float(r_md[j]).hex() == r_md_scalar.hex()
            try:
                p0_scalar = segment_initial_price(theta, r_md_scalar, t_md, horizon)
            except SolverError:
                assert t_md < horizon
                assert dominance_margin(theta.c1, t_md, horizon) <= 0.0 or abs(denom[j]) < 1e-12
                continue
            assert abs(denom[j]) >= 1e-12 or t_md == horizon
            assert float(p0[j]).hex() == p0_scalar.hex()
        first += len(r_md)
    if got is None:
        assert first == horizon + 1
    else:
        assert chunks[-1][0] <= got < first
    return got, chunks


SCAN_WIDTHS = [1, 3, validate.SCAN_CHUNK]


@pytest.mark.parametrize("width", SCAN_WIDTHS)
def test_linear_scan_edge_starts(width):
    # The first feasible start lies past the default first chunk, behind
    # starts that fail dominance.
    theta = PolicyParams(0.3692214232506552, 0.6903545904521928)
    args = (theta, 0.3963408196247614, 5, 320, 1.3072149698289173)
    got, chunks = assert_scan_matches_scalar(*args, width)
    assert got == 235 and len(chunks) > 1
    assert dominance_margin(theta.c1, 5, 320) <= 0.0 and chunks[0][0] > 5
    # Only the horizon start is feasible.
    theta = PolicyParams(0.1712756069501382, 0.9701797407771093)
    args = (theta, 0.24538626603452368, 8, 15, 1.0789976554298106)
    assert assert_scan_matches_scalar(*args, width)[0] == 15
    # No start is feasible.
    theta = PolicyParams(0.36767868958872574, 0.6937067751068329)
    args = (theta, 0.885314245757298, 2, 394, 0.9206131369790599)
    assert assert_scan_matches_scalar(*args, width)[0] is None


@settings(derandomize=True, deadline=None)
@given(
    c1=st.floats(0.0, 0.49),
    c2_share=st.floats(0.05, 1.5),
    p_max=st.floats(0.5, 2.0),
    t_start=st.integers(1, 10),
    length=st.integers(0, 400),
    r_share=st.floats(0.0, 1.0),
    width=st.sampled_from(SCAN_WIDTHS),
)
def test_linear_scan_initial_prices_bit_identical(
    c1, c2_share, p_max, t_start, length, r_share, width
):
    theta = PolicyParams(c1, c2_share * p_max)
    assert_scan_matches_scalar(theta, r_share * p_max, t_start, t_start + length, p_max, width)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    c1=st.floats(0.0, 0.5, exclude_max=True),
    horizon=st.integers(2, 2000),
    start_share=st.floats(0.0, 1.0),
)
def test_dominant_starts_have_large_denominators(c1, horizon, start_share):
    """For c1 in PolicyParams' range [0, 0.5), every start that passes the
    dominance test has a final-round denominator of at least 0.1 in size,
    far from the 1e-12 rule; the denominator depends on c1, the start and
    the horizon alone.  It equals the dominance margin only on a one-step
    segment, where the margin is above 0.5, and stays near 0.2 where the
    margin nears 0."""
    first = 1 + int(start_share * (horizon - 1))
    while first < horizon and dominance_margin(c1, first, horizon) <= 0.0:
        first += 1
    theta = PolicyParams(c1, 1.0)
    denom, _ = validate._segment_initial_prices(theta, np.zeros(horizon + 1 - first), first, horizon)
    assert np.min(np.abs(denom)) >= 0.1


def brute_force_reset_loop(t, r_t, r_target, p_max, n_max=10000):
    """Reference for brute_force_reset: one N at a time."""
    if abs(r_t - r_target) <= RESET_TOL:
        return 0
    eps = 1e-12 * max(1.0, p_max, t * max(r_t, r_target))
    extreme = p_max if r_t < r_target else 0.0
    for n in range(n_max + 1):
        final = (t + n + 1) * r_target - t * r_t - n * extreme
        if -eps <= final <= p_max + eps:
            return n
    return None


def reset_targets_at_edge(t, r_t, p_max, n, raising, at_ceiling):
    """Two adjacent targets between which the reference's N = n correction
    crosses the edge -eps (or p_max + eps) of the accepted range, when the
    extreme price is p_max (``raising``) or 0; the correction grows with the
    target, so a few ulp steps from the closed-form target find them."""

    def accepted(target):
        eps = 1e-12 * max(1.0, p_max, t * max(r_t, target))
        extreme = p_max if r_t < target else 0.0
        final = (t + n + 1) * target - t * r_t - n * extreme
        return -eps <= final <= p_max + eps

    extreme = p_max if raising else 0.0
    edge = p_max if at_ceiling else 0.0
    guess = (edge + t * r_t + n * extreme) / (t + n + 1)
    eps = 1e-12 * max(1.0, p_max, t * max(r_t, guess))
    target = (edge + (eps if at_ceiling else -eps) + t * r_t + n * extreme) / (t + n + 1)
    # Towards the edge: up when accepted at the ceiling or rejected at the floor.
    up = accepted(target) == at_ceiling
    for _ in range(64):
        step = float(np.nextafter(target, math.inf if up else -math.inf))
        if accepted(step) != accepted(target):
            return target, step
        target = step
    return target, target


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    edge=st.one_of(st.none(), st.tuples(st.booleans(), st.booleans())),
    n_max=st.one_of(st.just(10000), st.integers(0, 3000)),
    width=st.sampled_from([3, 64, validate.RESET_CHUNK]),
)
def test_brute_force_reset_matches_loop(seed, edge, n_max, width):
    rng = np.random.default_rng(seed)
    t = int(rng.integers(1, 500))
    p_max = rng.uniform(0.5, 2.0)
    r_t = rng.uniform(0.0, p_max)
    if edge is None:
        r_targets = (rng.uniform(0.0, p_max),)
    else:
        # Put the correction of some N within an ulp of the accepted range.
        n = int(rng.integers(0, 3000))
        r_targets = reset_targets_at_edge(t, r_t, p_max, n, *edge)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(validate, "RESET_CHUNK", width)
        for r_target in r_targets:
            args = (t, r_t, r_target, p_max, n_max)
            assert brute_force_reset(*args) == brute_force_reset_loop(*args)
