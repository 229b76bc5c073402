import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refprice import PolicyParams, SolverError, solve_curve, true_policy_params
from refprice.cli import main
from refprice.curve import FEASIBILITY_TOL
from refprice import validate
from refprice.validate import (
    _gradient_z_scores,
    check_gradient_unbiased,
    curve_from_markdown_start,
    linear_scan_markdown_start,
    random_instance,
    random_theta,
    scalar_solve_curve,
    segment_initial_price,
)

# `refprice validate` on the shipped default config (base seed 0).
VALIDATE_GOLDEN = """\
PASS dense_vs_recursion: max abs diff 4.663e-15
PASS binary_vs_linear_scan: 0 mismatches in 100 cases
PASS foc_residual: max residual 2.365e-14
PASS reset_brute_force: 0 plan mismatches, max target error 1.656e-13
PASS gradient_unbiased: max |z| 1.93 (limit 3)
PASS curve_lipschitz_logged: 0 bound violations in 50 cases (worst ratio 0.07); informational
all checks passed
"""


def test_reset_brute_force_counts_oracle_miss(monkeypatch):
    monkeypatch.setattr(validate, "brute_force_reset", lambda *args, **kwargs: None)
    result = validate.check_reset_brute_force(np.random.default_rng(0), n_cases=5)
    assert result.passed is False
    assert result.detail.startswith("5 plan mismatches")


def test_validate_stdout_golden(capsys):
    cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "default.yaml")
    assert main(["validate", "--config", cfg]) == 0
    assert capsys.readouterr().out == VALIDATE_GOLDEN


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


def allocating_gradient_z_scores(rng, n_points, n_draws):
    """Reference for _gradient_z_scores: the same draws, with a fresh array
    for every step of the estimate."""
    scores = []
    for _ in range(n_points):
        inst = random_instance(rng, symmetric=bool(rng.integers(0, 2)))
        r = rng.uniform(inst.p_ratio_bound, inst.p_max)
        d = 0.5 * (r - inst.p_ratio_bound)
        p = rng.uniform(d, r - d)
        target = inst.b + inst.eta_plus * r - 2.0 * (inst.a + inst.eta_plus) * p
        for shocks in (
            rng.uniform(-0.2, 0.2, size=n_draws),
            rng.normal(0.0, 0.2, size=n_draws),
        ):
            kappa = rng.integers(0, 2, size=n_draws) * 2.0 - 1.0
            pt = p + kappa * d
            demand = inst.b - inst.a * pt + inst.eta_plus * (r - pt) + shocks
            g = pt * demand * kappa / d
            se = float(np.std(g, ddof=1) / math.sqrt(n_draws))
            scores.append(abs(float(np.mean(g)) - target) / se)
    return scores


@pytest.mark.parametrize("seed", [0, 1, 707, 2024])
def test_gradient_z_bit_identical_to_allocating_expression(seed):
    expected = allocating_gradient_z_scores(np.random.default_rng(seed), 3, 10**4)
    got = list(_gradient_z_scores(np.random.default_rng(seed), 3, 10**4))
    assert [z.hex() for z in got] == [z.hex() for z in expected]
    result = check_gradient_unbiased(np.random.default_rng(seed), n_points=3, n_draws=10**4)
    assert result.detail == f"max |z| {max([0.0, *expected]):.2f} (limit 3)"
