"""Cross-oracle consistency checks backing the ``validate`` CLI command.

Each check pits a fast implementation against an independent slow oracle:
dense linear solve vs the scan's segment and the scalar O(T) recursion, the
scan's markdown start vs linear scan, closed-form reset plans vs brute force,
the one-point gradient estimate vs the analytic derivative, and the
optimality-condition residual of solved curves.  The slow oracles themselves
live here, outside the production path: the dense system, the scalar
recursion (``solve_segment``, ``curve_from_markdown_start`` and the backward
sweep ``scalar_solve_curve``, the solver the scan replaced), the linear scan
and the brute-force reset.  The linear scan decides each candidate start
from its segment's initial price alone, the value ``curve_from_markdown_start``
tests, and builds no curve.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .curve import (
    FEASIBILITY_TOL,
    PriceCurve,
    SolverError,
    foc_residual,
    harmonic_range,
    solve_curve,
)
from .model import Instance, PolicyParams, true_policy_params
from .policies import RESET_TOL, reset_ref

FOC_TOL = 1e-8
ORACLE_TOL = 1e-8


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def dominance_margin(c1: float, markdown_start: int, horizon: int) -> float:
    """1 - c1 * sum_{s=markdown_start+1}^{horizon} 1/s; positive iff the curve
    system is strictly diagonally dominant."""
    return 1.0 - c1 * harmonic_range(markdown_start + 1, horizon)


def segment_initial_price(
    theta: PolicyParams, r_md: float, markdown_start: int, horizon: int
) -> float:
    """Initial price of the optimality segment on [markdown_start, horizon].

    Every quantity along the one-step rule is affine in the unknown initial
    price, so one forward pass with coefficient pairs pins it from the
    final-round condition p_T = c1*r_T + c2.
    """
    c1, c2 = theta.c1, theta.c2
    if markdown_start == horizon:
        return c1 * r_md + c2
    if dominance_margin(c1, markdown_start, horizon) <= 0.0:
        raise SolverError(
            "curve system on [%d, %d] is not diagonally dominant (c1=%g)"
            % (markdown_start, horizon, c1)
        )
    # p_t = pa*p0 + pb, r_t = ra*p0 + rb as functions of the initial price p0.
    pa, pb = 1.0, 0.0
    ra, rb = 0.0, r_md
    for t in range(markdown_start, horizon):
        step = c1 / (t + 1.0 + c1)
        pa, pb, ra, rb = (
            pa - step * ra,
            pb - step * rb,
            (t * ra + pa) / (t + 1.0),
            (t * rb + pb) / (t + 1.0),
        )
    denom = pa - c1 * ra
    if abs(denom) < 1e-12:
        raise SolverError("degenerate final-round condition")
    return (c1 * rb + c2 - pb) / denom


def solve_segment(
    theta: PolicyParams, r_md: float, markdown_start: int, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """O(T) solution of the optimality conditions on [markdown_start, horizon].

    Returns (prices, refs) with refs[0] = r_md: the one-step rule rolled
    forward from the initial price that meets the final-round condition.
    """
    if markdown_start > horizon:
        raise ValueError("markdown_start must not exceed the horizon")
    c1, c2 = theta.c1, theta.c2
    n = horizon - markdown_start + 1
    if n == 1:
        p = c1 * r_md + c2
        return np.array([p]), np.array([r_md])
    p0 = segment_initial_price(theta, r_md, markdown_start, horizon)

    prices = np.empty(n)
    refs = np.empty(n)
    p, r = p0, r_md
    total = markdown_start * r_md
    for i, t in enumerate(range(markdown_start, horizon + 1)):
        prices[i] = p
        refs[i] = r
        if t == horizon:
            break
        p = p - c1 * r / (t + 1.0 + c1)
        total += prices[i]
        r = total / (t + 1.0)
    # Final round satisfies p_T = c1*r_T + c2 by construction of p0; assign the
    # closed form so the terminal identity holds to the last bit, unless that
    # sits an ulp above the rolled price before it: a markdown never rises.
    prices[-1] = min(c1 * refs[-1] + c2, prices[-2])
    return prices, refs


def curve_from_markdown_start(
    theta: PolicyParams,
    r_start: float,
    t_start: int,
    markdown_start: int,
    horizon: int,
    p_max: float,
) -> Optional[PriceCurve]:
    """Curve that holds p_max before ``markdown_start`` and then follows the
    optimality segment.  Returns None when the segment's initial price falls
    outside [0, p_max] (the plateau would have to be longer)."""
    if not (1 <= t_start <= markdown_start <= horizon):
        raise ValueError("need 1 <= t_start <= markdown_start <= horizon")
    if not (0.0 <= r_start <= p_max + FEASIBILITY_TOL):
        raise ValueError(f"r_start {r_start} outside [0, {p_max}]")
    r_md = (t_start * r_start + (markdown_start - t_start) * p_max) / markdown_start
    seg_prices, seg_refs = solve_segment(theta, r_md, markdown_start, horizon)
    p0 = seg_prices[0]
    if p0 < -FEASIBILITY_TOL or p0 > p_max + FEASIBILITY_TOL:
        return None
    seg_prices[0] = min(max(p0, 0.0), p_max)

    n_plateau = markdown_start - t_start
    prices = np.concatenate([np.full(n_plateau, p_max), seg_prices])
    if n_plateau:
        t = np.arange(t_start, markdown_start, dtype=float)
        plateau_refs = (t_start * r_start + (t - t_start) * p_max) / t
        refs = np.concatenate([plateau_refs, seg_refs])
    else:
        refs = seg_refs
    return PriceCurve(t_start=t_start, markdown_start=markdown_start, prices=prices, refs=refs)


def scalar_solve_curve(
    theta: PolicyParams, r_start: float, t_start: int, horizon: int, p_max: float
) -> PriceCurve:
    """Scalar oracle for ``solve_curve``: find the smallest feasible markdown
    start in one backward sweep and return the full curve.

    The final-round condition p_T - c1*r_T = c2 is linear in the state
    (p_T, r_T).  Pulling its covector (u, v) back through the one-step maps,
    round T down to t_start, gives the segment's initial price for every
    start s in one pass: p_s = (c2 - v_s*r_md(s)) / u_s.  A start is a
    candidate when the system on [s, T] is diagonally dominant,
    |u_s| >= 1e-12 and p_s lies in [0, p_max] up to FEASIBILITY_TOL, the
    conditions ``curve_from_markdown_start`` checks.  The curve is built by
    ``curve_from_markdown_start`` at the smallest candidate it accepts, so it
    equals the exhaustive linear scan's.
    """
    if not 1 <= t_start <= horizon:
        raise ValueError("need 1 <= t_start <= horizon")
    if not (0.0 <= r_start <= p_max + FEASIBILITY_TOL):
        raise ValueError(f"r_start {r_start} outside [0, {p_max}]")
    c1, c2 = theta.c1, theta.c2
    lo, hi = -FEASIBILITY_TOL, p_max + FEASIBILITY_TOL
    base = t_start * r_start
    u, v = 1.0, -c1  # covector of round t
    tail = 0.0  # sum_{j > t} 1/j
    starts = array("q")  # candidates, latest first
    for t in range(horizon, t_start - 1, -1):
        # The dominance margin only shrinks as t falls: no earlier round can
        # start the markdown either.
        if c1 * tail >= 1.0:
            break
        r_md = (base + (t - t_start) * p_max) / t
        if abs(u) >= 1e-12 and lo <= (c2 - v * r_md) / u <= hi:
            starts.append(t)
        tail += 1.0 / t
        u, v = u + v / t, v * (t - 1) / t - u * c1 / (t + c1)
    for t_md in reversed(starts):
        # The exact recheck can disagree below an ulp at the boundary; the
        # next candidate then starts the markdown.
        try:
            curve = curve_from_markdown_start(theta, r_start, t_start, t_md, horizon, p_max)
        except SolverError:
            continue
        if curve is not None:
            return curve
    raise SolverError("no feasible markdown start")


@dataclass(frozen=True)
class FocSystem:
    """Dense form of the optimality conditions on [markdown_start, horizon].

    Row/column k corresponds to round s_k = markdown_start + k; off-diagonal
    entry (i, j) is -c1 / s_max(i,j) and the right-hand side is
    c1 * markdown_start * r_md / s_k + c2.
    """

    markdown_start: int
    horizon: int
    theta: PolicyParams
    r_md: float

    @property
    def n(self) -> int:
        return self.horizon - self.markdown_start + 1

    def rounds(self) -> np.ndarray:
        return np.arange(self.markdown_start, self.horizon + 1, dtype=float)

    def matrix(self) -> np.ndarray:
        s = self.rounds()
        a = -self.theta.c1 / np.maximum.outer(s, s)
        np.fill_diagonal(a, 1.0)
        return a

    def rhs(self) -> np.ndarray:
        s = self.rounds()
        return self.theta.c1 * self.markdown_start * self.r_md / s + self.theta.c2

    def dominance_margin(self) -> float:
        return dominance_margin(self.theta.c1, self.markdown_start, self.horizon)


def dense_solve(system: FocSystem) -> np.ndarray:
    """Solve the dense system directly.  Test oracle; O(n^3), keep n small."""
    if system.dominance_margin() <= 0.0:
        raise SolverError("system is not strictly diagonally dominant")
    return np.linalg.solve(system.matrix(), system.rhs())


def linear_scan_markdown_start(
    theta: PolicyParams, r_start: float, t_start: int, horizon: int, p_max: float
) -> int:
    """Smallest feasible markdown start by exhaustive scan (test oracle).

    Tries every start from ``t_start`` to ``horizon`` in turn and decides each
    from its segment's initial price alone: a start is feasible when
    ``segment_initial_price`` succeeds and lands in [0, p_max] up to
    FEASIBILITY_TOL, the test ``curve_from_markdown_start`` makes before it
    builds a curve.  No curve is built.
    """
    if not 1 <= t_start <= horizon:
        raise ValueError("need 1 <= t_start <= horizon")
    if not (0.0 <= r_start <= p_max + FEASIBILITY_TOL):
        raise ValueError(f"r_start {r_start} outside [0, {p_max}]")
    for t_md in range(t_start, horizon + 1):
        r_md = (t_start * r_start + (t_md - t_start) * p_max) / t_md
        try:
            p0 = segment_initial_price(theta, r_md, t_md, horizon)
        except SolverError:
            continue
        # Negated as in curve_from_markdown_start, so a NaN is decided alike.
        if not (p0 < -FEASIBILITY_TOL or p0 > p_max + FEASIBILITY_TOL):
            return t_md
    raise SolverError("no feasible markdown start found by linear scan")


def random_instance(rng: np.random.Generator, symmetric: bool = True) -> Instance:
    """A random instance satisfying interior-maximizer and nonnegative-demand
    constraints, with moderate headroom above b/(2a)."""
    a = rng.uniform(0.5, 1.5)
    eta_minus = rng.uniform(0.02, 0.95) * a
    eta_plus = eta_minus if symmetric else rng.uniform(0.02, 0.95) * a
    p_max = rng.uniform(0.6, 2.0)
    lo = (a + eta_minus) * p_max
    hi = 2.0 * a * p_max
    b = lo + rng.uniform(0.02, 0.9) * (hi - lo)
    ratio = b / (2.0 * a)
    p_ratio_bound = ratio + rng.uniform(0.0, 0.3) * (p_max - ratio)
    return Instance(
        a=a,
        b=b,
        eta_plus=eta_plus,
        eta_minus=eta_minus,
        p_max=p_max,
        p_ratio_bound=p_ratio_bound,
    )


def random_theta(rng: np.random.Generator, p_max: float) -> PolicyParams:
    """A policy parameter in the well-posed region (c2 at least p_max/2)."""
    return PolicyParams(rng.uniform(0.02, 0.4), rng.uniform(0.5, 0.75) * p_max)


def check_dense_vs_recursion(rng: np.random.Generator, n_cases: int = 50) -> CheckResult:
    """Dense solve of random segments vs the scalar recursion and the scan."""
    worst = 0.0
    for _ in range(n_cases):
        p_max = rng.uniform(0.6, 2.0)
        theta = random_theta(rng, p_max)
        horizon = int(rng.integers(2, 201))
        markdown_start = int(rng.integers(1, horizon + 1))
        r_md = rng.uniform(0.0, p_max)
        system = FocSystem(
            markdown_start=markdown_start, horizon=horizon, theta=theta, r_md=r_md
        )
        if system.dominance_margin() <= 0.0:
            continue
        dense = dense_solve(system)
        scalar, _ = solve_segment(theta, r_md, markdown_start, horizon)
        # Started at markdown_start under a ceiling above every price, the
        # scan's curve is the segment alone.
        scan = solve_curve(theta, r_md, markdown_start, horizon, 2.0 * max(r_md, dense.max()))
        for fast in (scalar, scan.prices):
            worst = max(worst, float(np.max(np.abs(dense - fast))))
    return CheckResult(
        "dense_vs_recursion", worst <= ORACLE_TOL, f"max abs diff {worst:.3e}"
    )


def check_binary_vs_linear(
    rng: np.random.Generator, n_cases: int = 100, max_T: int = 500
) -> CheckResult:
    """Markdown start of ``solve_curve``'s scan vs the exhaustive linear
    scan, on random symmetric and asymmetric instances."""
    mismatches = 0
    for _ in range(n_cases):
        inst = random_instance(rng, symmetric=bool(rng.integers(0, 2)))
        theta = true_policy_params(inst)
        horizon = int(rng.integers(5, max_T + 1))
        r_start = rng.uniform(0.0, inst.p_max)
        fast = solve_curve(theta, r_start, 1, horizon, inst.p_max)
        scan = linear_scan_markdown_start(theta, r_start, 1, horizon, inst.p_max)
        if fast.markdown_start != scan:
            mismatches += 1
    return CheckResult(
        "binary_vs_linear_scan", mismatches == 0, f"{mismatches} mismatches in {n_cases} cases"
    )


def check_foc_residual(
    rng: np.random.Generator, horizons=(100, 1000, 10000), n_cases: int = 5
) -> CheckResult:
    worst = 0.0
    for horizon in horizons:
        for _ in range(n_cases):
            inst = random_instance(rng)
            theta = true_policy_params(inst)
            r_start = rng.uniform(0.0, inst.p_max)
            curve = solve_curve(theta, r_start, 1, horizon, inst.p_max)
            worst = max(worst, foc_residual(curve, theta))
    return CheckResult("foc_residual", worst <= FOC_TOL, f"max residual {worst:.3e}")


def brute_force_reset(t: int, r_t: float, r_target: float, p_max: float, n_max: int = 10000):
    """Smallest N such that N extreme prices plus one in-range correction hit
    the target average exactly.  Exhaustive oracle for reset plans."""
    if abs(r_t - r_target) <= RESET_TOL:
        return 0
    eps = 1e-12 * max(1.0, p_max, t * max(r_t, r_target))
    extreme = p_max if r_t < r_target else 0.0
    for n in range(n_max + 1):
        final = (t + n + 1) * r_target - t * r_t - n * extreme
        if -eps <= final <= p_max + eps:
            return n
    return None


def check_reset_brute_force(rng: np.random.Generator, n_cases: int = 1000) -> CheckResult:
    bad = 0
    worst_err = 0.0
    for _ in range(n_cases):
        p_max = rng.uniform(0.5, 2.0)
        t = int(rng.integers(1, 500))
        r_t = rng.uniform(0.0, p_max)
        r_target = rng.uniform(0.05 * p_max, 0.95 * p_max)
        plan = reset_ref(t, r_t, r_target, p_max)
        oracle_n = brute_force_reset(t, r_t, r_target, p_max)
        # An oracle miss counts as a mismatch; test it before using oracle_n.
        if oracle_n is None:
            bad += 1
            continue
        expect_rounds = 0 if abs(r_t - r_target) <= RESET_TOL else oracle_n + 1
        if len(plan) != expect_rounds:
            bad += 1
            continue
        total = t * r_t + sum(plan)
        achieved = total / (t + len(plan)) if plan else r_t
        worst_err = max(worst_err, abs(achieved - r_target))
    passed = bad == 0 and worst_err <= RESET_TOL
    return CheckResult(
        "reset_brute_force",
        passed,
        f"{bad} plan mismatches, max target error {worst_err:.3e}",
    )


def _gradient_z_scores(
    rng: np.random.Generator, n_points: int, n_draws: int
) -> Iterator[float]:
    """|z| of the Monte-Carlo mean of the one-point gradient estimate against
    the analytic revenue derivative, for each point and shock kind in turn.

    The estimate is computed into four buffers allocated once; each step keeps
    the operand order of ``((pt*demand)*kappa)/d`` with
    ``demand = ((b - a*pt) + eta_plus*(r - pt)) + shocks``, so every z is
    bit-identical to evaluating that expression with fresh arrays.
    """
    kappa, pt, demand, g = (np.empty(n_draws) for _ in range(4))
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
            np.multiply(rng.integers(0, 2, size=n_draws), 2.0, out=kappa)
            np.subtract(kappa, 1.0, out=kappa)
            np.multiply(kappa, d, out=pt)
            np.add(p, pt, out=pt)
            np.multiply(inst.a, pt, out=demand)
            np.subtract(inst.b, demand, out=demand)
            np.subtract(r, pt, out=g)  # the reference gap, until g is overwritten below
            np.multiply(inst.eta_plus, g, out=g)
            np.add(demand, g, out=demand)
            np.add(demand, shocks, out=demand)
            np.multiply(pt, demand, out=g)
            np.multiply(g, kappa, out=g)
            np.divide(g, d, out=g)
            se = float(np.std(g, ddof=1) / math.sqrt(n_draws))
            yield abs(float(np.mean(g)) - target) / se


def check_gradient_unbiased(
    rng: np.random.Generator, n_points: int = 10, n_draws: int = 10**6
) -> CheckResult:
    """Monte-Carlo mean of the one-point gradient estimate vs the analytic
    revenue derivative, under bounded and gaussian shocks."""
    worst_z = max([0.0, *_gradient_z_scores(rng, n_points, n_draws)])
    return CheckResult("gradient_unbiased", worst_z <= 3.0, f"max |z| {worst_z:.2f} (limit 3)")


def check_curve_lipschitz(rng: np.random.Generator, n_cases: int = 50) -> CheckResult:
    """Empirical curve sensitivity to the policy parameter.

    The bound 10 * p_max * ||dtheta|| * (1 + ln(T/t1)) has an unspecified
    constant, so violations are reported, never asserted.
    """
    violations = 0
    worst_ratio = 0.0
    for _ in range(n_cases):
        inst = random_instance(rng)
        theta = true_policy_params(inst)
        horizon = int(rng.integers(30, 300))
        r_start = rng.uniform(0.0, inst.p_max)
        thetas = []
        for _ in range(2):
            c1 = min(max(theta.c1 + rng.uniform(-0.05, 0.05), 0.0), 0.45)
            c2 = max(theta.c2 + rng.uniform(-0.05, 0.05) * inst.p_max, 1e-3)
            thetas.append(PolicyParams(c1, c2))
        curves = [solve_curve(th, r_start, 1, horizon, inst.p_max) for th in thetas]
        diff = float(np.max(np.abs(curves[0].prices - curves[1].prices)))
        dtheta = math.hypot(thetas[0].c1 - thetas[1].c1, thetas[0].c2 - thetas[1].c2)
        if dtheta == 0.0:
            continue
        bound = 10.0 * inst.p_max * dtheta * (1.0 + math.log(horizon))
        worst_ratio = max(worst_ratio, diff / bound)
        if diff > bound:
            violations += 1
    return CheckResult(
        "curve_lipschitz_logged",
        True,
        f"{violations} bound violations in {n_cases} cases (worst ratio {worst_ratio:.2f}); informational",
    )


def run_all(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    return [
        check_dense_vs_recursion(rng),
        check_binary_vs_linear(rng),
        check_foc_residual(rng),
        check_reset_brute_force(rng),
        check_gradient_unbiased(rng),
        check_curve_lipschitz(rng),
    ]
