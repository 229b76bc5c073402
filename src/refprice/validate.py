"""Cross-oracle consistency checks backing the ``validate`` CLI command.

Each check pits a fast implementation against an independent slow oracle:
dense linear solve vs ``solve_curve``'s segment and the scalar O(T)
recursion, ``solve_curve``'s markdown start vs linear scan, closed-form reset
plans vs brute force, and the optimality-condition residual of solved curves.
The gradient check tests the learner's one-point estimate in closed form: its
kappa-average against the analytic derivative, and the mean of each shock
kind against a bound with a stated false-alarm rate.  The slow oracles
themselves live here, outside the production path: the dense system, the
scalar recursion (``solve_segment``, ``curve_from_markdown_start`` and the
backward sweep ``scalar_solve_curve``, the oracle for ``solve_curve``), the
linear scan and the brute-force reset.  The linear scan decides each
candidate start from its segment's initial price alone, the value
``curve_from_markdown_start`` tests, and builds no curve; it scans a batch of
cases at once, rolling a chunk of starts of every open case together, each
start's initial price bit-identical to ``segment_initial_price``'s.  The
brute-force reset tests a chunk of plan lengths per numpy pass.  The
markdown-start check solves its cases one by one and scans them in one batch;
the Lipschitz check skips a case whose perturbed parameter has no feasible
markdown start, and counts it.

Each check draws all it needs first, in a draw half that returns the
draws, and then evaluates them without drawing: ``run_all`` replays draw
halves alone to bring a forked group's generator to the state its first
check meets.  ``run_all`` runs the checks from one generator, in order, as
up to ``threads`` contiguous groups in forked processes, with the same
results for any number.  The dense check always runs in the calling
process and uses its BLAS thread count: CLI runs use one BLAS thread unless
``OPENBLAS_NUM_THREADS`` is set, and library callers get whatever their own
process set.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curve import (
    FEASIBILITY_TOL,
    PriceCurve,
    SolverError,
    foc_residual,
    harmonic_range,
    solve_curve,
)
from .harness import _fork, _workers
from .model import Instance, NoiseSpec, PolicyParams, expected_demand, true_policy_params
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
    # Guards inputs outside PolicyParams' range: for c1 in [0, 0.5) a start
    # that passes dominance has |denom| >= 0.1 (tests/test_validate.py).
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


def dense_solve(theta: PolicyParams, r_md: float, markdown_start: int, horizon: int) -> np.ndarray:
    """Solve the optimality conditions on [markdown_start, horizon] in dense
    form directly.  Test oracle; O(n^3), keep n small.

    Row/column k corresponds to round s_k = markdown_start + k; off-diagonal
    entry (i, j) is -c1 / s_max(i,j) and the right-hand side is
    c1 * markdown_start * r_md / s_k + c2.
    """
    if dominance_margin(theta.c1, markdown_start, horizon) <= 0.0:
        raise SolverError("system is not strictly diagonally dominant")
    s = np.arange(markdown_start, horizon + 1, dtype=float)
    a = -theta.c1 / np.maximum.outer(s, s)
    np.fill_diagonal(a, 1.0)
    return np.linalg.solve(a, theta.c1 * markdown_start * r_md / s + theta.c2)


def _segment_initial_prices(c1, c2, horizon, start, r_md) -> tuple[np.ndarray, np.ndarray]:
    """``segment_initial_price`` for many rows at once, from any cases.

    Each argument is a float array with one value per row: row j is the
    segment on [start[j], horizon[j]] opened at reference r_md[j] under
    the policy parameter (c1[j], c2[j]), rolled as its coefficient pairs
    (pa, pb) and (ra, rb).  The rows are aligned on the rounds they have
    left, horizon - start: sorted by it, longest first, the rows still
    moving at each step are a leading block.  Each step applies the one-step
    rule to that block with the scalar loop's operations and operand order,
    at each row's own round t, so every row ends bit-identical to the scalar
    roll.  Returns the final-round condition's denominators and the initial
    prices, in the rows' order; no start is tested here.
    """
    order = np.argsort(start - horizon, kind="stable")
    left = (horizon - start)[order]
    k = len(order)
    # moving[i] counts the rows with more than i rounds left.
    moving = np.searchsorted(-left, -np.arange(left[0] if k else 0.0), side="left")
    del left
    c1s, t = c1[order], start[order]  # t: each row's round
    p = np.zeros((2, k))  # rows pa, pb
    p[0] = 1.0
    r = np.zeros((2, k))  # rows ra, rb
    r[1] = r_md[order]
    dp = np.empty((2, k))  # step*(ra, rb); row 0 holds the step first
    for m in moving.tolist():
        pm, rm, dm, tm, cm = p[:, :m], r[:, :m], dp[:, :m], t[:m], c1s[:m]
        step = dm[0]
        np.add(tm, 1.0, out=step)
        step += cm
        np.divide(cm, step, out=step)
        np.multiply(rm[1], step, out=dm[1])
        np.multiply(rm[0], step, out=dm[0])
        rm *= tm
        rm += pm
        tm += 1.0
        rm /= tm
        pm -= dm
    # dp becomes the sorted (denominator, initial price), and p its unsorted
    # copy: the outputs take no memory beyond the roll's.  (A take in "clip"
    # mode fills its out unbuffered; every index is in range.)
    np.multiply(c1s, r[0], out=dp[0])
    np.subtract(p[0], dp[0], out=dp[0])
    np.multiply(c1s, r[1], out=dp[1])
    dp[1] += np.take(c2, order, out=t, mode="clip")
    dp[1] -= p[1]
    dp[1] /= dp[0]
    p[:, order] = dp
    return p[0], p[1]


# Candidate starts in a case's first chunk of the linear scan; each later
# chunk doubles.  A chunk rolls every round from its first start to the
# horizon.
SCAN_CHUNK = 128


def linear_scan_markdown_starts(cases) -> list[Optional[int]]:
    """Smallest feasible markdown start of each case by exhaustive scan
    (test oracle); None for a case where no start is feasible.

    Each case is a tuple (theta, r_start, t_start, horizon, p_max).  Its
    starts from ``t_start`` to ``horizon`` are tried in ascending order, each
    decided from its segment's initial price alone by the rules of
    ``segment_initial_price`` and ``curve_from_markdown_start``: a start
    before the horizon needs a diagonally dominant system and a final-round
    denominator of at least 1e-12 in size, and its initial price must lie in
    [0, p_max] up to FEASIBILITY_TOL.  No curve is built.  A case tries its
    starts in chunks, ``SCAN_CHUNK`` starts at first and doubling, and its
    first feasible start wins.  Round k rolls chunk k of every case still
    open in one call of ``_segment_initial_prices``, bit-identical to
    ``segment_initial_price``.
    """
    firsts = []
    for theta, r_start, t_start, horizon, p_max in cases:
        if not 1 <= t_start <= horizon:
            raise ValueError("need 1 <= t_start <= horizon")
        if not (0.0 <= r_start <= p_max + FEASIBILITY_TOL):
            raise ValueError(f"r_start {r_start} outside [0, {p_max}]")
        first = t_start
        # The dominance margin grows with the start, by c1/(start + 1) a step,
        # far above its sum's rounding, so the starts that fail it are a
        # leading run; they are never rolled.  The horizon start needs no test.
        while first < horizon and dominance_margin(theta.c1, first, horizon) <= 0.0:
            first += 1
        firsts.append(first)
    c1, c2, base, t_start, horizon, p_max = np.array(
        [(th.c1, th.c2, t * r, t, h, pm) for th, r, t, h, pm in cases], dtype=float
    ).reshape(-1, 6).T
    first = np.array(firsts, dtype=float)
    found = np.full(len(cases), -1.0)
    scan = np.arange(len(cases))  # the cases still open, ascending

    def rows(x):
        """One value of ``x`` per row of this round, from its case."""
        return np.repeat(x[scan], sizes)

    width = SCAN_CHUNK
    # Overflow and NaN pass silently, as they do in the scalar loop's floats.
    with np.errstate(all="ignore"):
        while len(scan):
            sizes = np.minimum(width, horizon[scan] + 1.0 - first[scan]).astype(int)
            ends = np.cumsum(sizes)
            t_md = np.arange(float(ends[-1]))
            t_md += rows(first) - np.repeat(ends - sizes, sizes)
            r_md = (rows(base) + (t_md - rows(t_start)) * rows(p_max)) / t_md
            denom, p0 = _segment_initial_prices(rows(c1), rows(c2), rows(horizon), t_md, r_md)
            # Negated as in curve_from_markdown_start, so a NaN is decided alike.
            # The denominator rule guards c1 outside [0, 0.5), as in
            # segment_initial_price.
            out = (p0 < -FEASIBILITY_TOL) | (p0 > rows(p_max) + FEASIBILITY_TOL)
            hit = np.flatnonzero(~(np.abs(denom) < 1e-12) & ~out)
            # A case's rows are consecutive and ascend, so its first hit wins.
            hit_at, at = np.unique(np.searchsorted(ends, hit, side="right"), return_index=True)
            found[scan[hit_at]] = t_md[hit[at]]
            first[scan] += sizes
            scan = scan[(found[scan] < 0.0) & (first[scan] <= horizon[scan])]
            width *= 2
    return [int(x) if x >= 0.0 else None for x in found]


def linear_scan_markdown_start(
    theta: PolicyParams, r_start: float, t_start: int, horizon: int, p_max: float
) -> int:
    """Smallest feasible markdown start by exhaustive scan (test oracle): one
    case of ``linear_scan_markdown_starts``.  Raises SolverError when no
    start is feasible."""
    (start,) = linear_scan_markdown_starts([(theta, r_start, t_start, horizon, p_max)])
    if start is None:
        raise SolverError("no feasible markdown start found by linear scan")
    return start


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


def _dense_cases(rng: np.random.Generator, n_cases: int = 50) -> list:
    """The draws of ``check_dense_vs_recursion``: (theta, r_md,
    markdown_start, horizon) per case."""
    cases = []
    for _ in range(n_cases):
        p_max = rng.uniform(0.6, 2.0)
        theta = random_theta(rng, p_max)
        horizon = int(rng.integers(2, 201))
        markdown_start = int(rng.integers(1, horizon + 1))
        r_md = rng.uniform(0.0, p_max)
        cases.append((theta, r_md, markdown_start, horizon))
    return cases


def check_dense_vs_recursion(rng: np.random.Generator, n_cases: int = 50) -> CheckResult:
    """Dense solve of random segments vs the scalar recursion and
    ``solve_curve``."""
    worst = 0.0
    for theta, r_md, markdown_start, horizon in _dense_cases(rng, n_cases):
        if dominance_margin(theta.c1, markdown_start, horizon) <= 0.0:
            continue
        dense = dense_solve(theta, r_md, markdown_start, horizon)
        scalar, _ = solve_segment(theta, r_md, markdown_start, horizon)
        # Started at markdown_start under a ceiling above every price, the
        # solved curve is the segment alone.
        ceiling = 2.0 * max(r_md, dense.max())
        curve = solve_curve(theta, r_md, markdown_start, horizon, ceiling)
        for fast in (scalar, curve.prices):
            worst = max(worst, float(np.max(np.abs(dense - fast))))
    return CheckResult(
        "dense_vs_recursion", worst <= ORACLE_TOL, f"max abs diff {worst:.3e}"
    )


def _scan_cases(rng: np.random.Generator, n_cases: int = 100, max_T: int = 500) -> list:
    """The draws of ``check_binary_vs_linear``: one ``solve_curve`` argument
    tuple (theta, r_start, 1, horizon, p_max) per case."""
    cases = []
    for _ in range(n_cases):
        inst = random_instance(rng, symmetric=bool(rng.integers(0, 2)))
        theta = true_policy_params(inst)
        horizon = int(rng.integers(5, max_T + 1))
        r_start = rng.uniform(0.0, inst.p_max)
        cases.append((theta, r_start, 1, horizon, inst.p_max))
    return cases


def check_binary_vs_linear(
    rng: np.random.Generator, n_cases: int = 100, max_T: int = 500
) -> CheckResult:
    """Markdown start of ``solve_curve``'s backward pass vs the exhaustive
    linear scan, on random symmetric and asymmetric instances.  Each case is
    solved, and the scan decides all of them in one batch."""
    cases = _scan_cases(rng, n_cases, max_T)
    fast = [solve_curve(*case).markdown_start for case in cases]
    mismatches = sum(f != s for f, s in zip(fast, linear_scan_markdown_starts(cases)))
    return CheckResult(
        "binary_vs_linear_scan", mismatches == 0, f"{mismatches} mismatches in {n_cases} cases"
    )


def _foc_cases(
    rng: np.random.Generator, horizons=(100, 1000, 10000), n_cases: int = 5
) -> list:
    """The draws of ``check_foc_residual``: (inst, r_start, horizon) per
    case, ``n_cases`` per horizon."""
    cases = []
    for horizon in horizons:
        for _ in range(n_cases):
            inst = random_instance(rng)
            cases.append((inst, rng.uniform(0.0, inst.p_max), horizon))
    return cases


def check_foc_residual(
    rng: np.random.Generator, horizons=(100, 1000, 10000), n_cases: int = 5
) -> CheckResult:
    """Optimality-condition residual of solved curves."""
    worst = 0.0
    for inst, r_start, horizon in _foc_cases(rng, horizons, n_cases):
        theta = true_policy_params(inst)
        curve = solve_curve(theta, r_start, 1, horizon, inst.p_max)
        worst = max(worst, foc_residual(curve, theta))
    return CheckResult("foc_residual", worst <= FOC_TOL, f"max residual {worst:.3e}")


# Values of N that ``brute_force_reset`` tests per numpy pass.
RESET_CHUNK = 512


def brute_force_reset(t: int, r_t: float, r_target: float, p_max: float, n_max: int = 10000):
    """Smallest N such that N extreme prices plus one in-range correction hit
    the target average exactly.  Exhaustive oracle for reset plans.

    Tests N = 0, 1, ..., n_max in order, ``RESET_CHUNK`` values per numpy
    pass, each with the correction ``(t + N + 1)*r_target - t*r_t - N*extreme``;
    None when no N up to n_max works.
    """
    if abs(r_t - r_target) <= RESET_TOL:
        return 0
    eps = 1e-12 * max(1.0, p_max, t * max(r_t, r_target))
    extreme = p_max if r_t < r_target else 0.0
    for lo in range(0, n_max + 1, RESET_CHUNK):
        n = np.arange(lo, min(lo + RESET_CHUNK, n_max + 1), dtype=float)
        # (t + n + 1)*r_target - t*r_t - n*extreme; the integer sum is exact.
        final = (n + (t + 1)) * r_target
        final -= t * r_t
        final -= n * extreme
        accepted = final >= -eps
        accepted &= final <= p_max + eps
        hit = int(accepted.argmax())
        if accepted[hit]:
            return lo + hit
    return None


def _reset_cases(rng: np.random.Generator, n_cases: int = 1000) -> list:
    """The draws of ``check_reset_brute_force``: (t, r_t, r_target, p_max)
    per case."""
    cases = []
    for _ in range(n_cases):
        p_max = rng.uniform(0.5, 2.0)
        t = int(rng.integers(1, 500))
        r_t = rng.uniform(0.0, p_max)
        r_target = rng.uniform(0.05 * p_max, 0.95 * p_max)
        cases.append((t, r_t, r_target, p_max))
    return cases


def check_reset_brute_force(rng: np.random.Generator, n_cases: int = 1000) -> CheckResult:
    """Closed-form reset plans vs ``brute_force_reset``."""
    bad = 0
    worst_err = 0.0
    for t, r_t, r_target, p_max in _reset_cases(rng, n_cases):
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


# The gradient check's limits: the kappa-average's error relative to
# b*p_max/d, and the false-alarm rate of each shock-mean comparison.
GRADIENT_TOL = 1e-12
SHOCK_FALSE_ALARM = 1e-9


def one_point_estimate(price: float, demand: float, kappa: float, d: float) -> float:
    """The learner's gradient estimate from one round posted at
    ``price`` = p + kappa*d, as ``LearnGreedyState.run`` computes it."""
    return price * demand * kappa / d


def shock_mean_p_value(noise: NoiseSpec, mean: float, n: int) -> float:
    """Bound on the probability that the mean of ``n`` shocks of ``noise``
    lies at least |mean| from 0 if the shocks have mean 0: Hoeffding's for
    bounded-uniform shocks, the normal tail for gaussian ones."""
    if noise.kind == "bounded_uniform":
        return min(1.0, 2.0 * math.exp(-n * mean**2 / (2.0 * noise.half_width**2)))
    return math.erfc(abs(mean) * math.sqrt(n / 2.0) / noise.std)


def _gradient_draws(
    rng: np.random.Generator, n_points: int = 10, n_shocks: int = 10**5
) -> tuple[list, list]:
    """The draws of ``check_gradient_unbiased``: (inst, r, d, p) per point,
    then the mean of ``n_shocks`` draws of each shock kind, as (noise, mean)
    pairs."""
    points = []
    for _ in range(n_points):
        inst = random_instance(rng, symmetric=bool(rng.integers(0, 2)))
        r = rng.uniform(inst.p_ratio_bound, inst.p_max)
        d = 0.5 * (r - inst.p_ratio_bound)
        points.append((inst, r, d, rng.uniform(d, r - d)))
    means = [
        (noise, float(np.mean(noise.draw_array(rng, n_shocks))))
        for noise in (NoiseSpec.bounded_uniform(0.2), NoiseSpec.gaussian(0.2))
    ]
    return points, means


def check_gradient_unbiased(
    rng: np.random.Generator, n_points: int = 10, n_shocks: int = 10**5
) -> CheckResult:
    """The one-point gradient estimate is unbiased for the revenue
    derivative b + eta_plus*r - 2*(a + eta_plus)*p, in two exact parts.

    Demand is linear in the shock and E_kappa[(p + kappa*d)*kappa/d] = 1, so
    the estimate's mean is its kappa-average at shock 0 plus the shock mean.
    (i) At ``n_points`` random points (p - d, p + d both at most r), the
    kappa-average at shock 0 must equal the derivative: revenue is quadratic
    in the price there, so the central difference is exact but for rounding.
    Its error is measured against b*p_max/d, the size of the terms, not the
    derivative, which can be near 0, and must stay within ``GRADIENT_TOL``.
    (ii) For bounded-uniform shocks of half-width 0.2 and gaussian ones of
    std 0.2, the mean of ``n_shocks`` draws from ``NoiseSpec.draw_array``
    must have a ``shock_mean_p_value`` of at least ``SHOCK_FALSE_ALARM``:
    at 10^5 draws, |mean| up to 4.1e-3 and 3.9e-3.  The check fails on
    correct code with probability at most 2e-9.  The Monte-Carlo check it
    replaced (10 points, 10^6 draws per noise kind, |z| at most 3) failed
    ``run_all`` at 12 of the 200 base seeds 0-199.
    """
    points, means = _gradient_draws(rng, n_points, n_shocks)
    worst = 0.0
    for inst, r, d, p in points:
        target = inst.b + inst.eta_plus * r - 2.0 * (inst.a + inst.eta_plus) * p
        average = 0.5 * sum(
            one_point_estimate(price, expected_demand(inst, price, r), kappa, d)
            for kappa, price in ((-1.0, p - d), (1.0, p + d))
        )
        worst = max(worst, abs(average - target) / (inst.b * inst.p_max / d))
    p_value = min(shock_mean_p_value(noise, mean, n_shocks) for noise, mean in means)
    return CheckResult(
        "gradient_unbiased",
        worst <= GRADIENT_TOL and p_value >= SHOCK_FALSE_ALARM,
        f"max kappa-average error {worst:.1e} x b*p_max/d (limit {GRADIENT_TOL:g}), "
        f"min shock-mean p-value {p_value:.2g} (limit {SHOCK_FALSE_ALARM:g})",
    )


def _lipschitz_cases(rng: np.random.Generator, n_cases: int = 50) -> list:
    """The draws of ``check_curve_lipschitz``: (inst, r_start, horizon,
    thetas) per case, ``thetas`` the two perturbed parameters."""
    cases = []
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
        cases.append((inst, r_start, horizon, thetas))
    return cases


def check_curve_lipschitz(rng: np.random.Generator, n_cases: int = 50) -> CheckResult:
    """Empirical curve sensitivity to the policy parameter.

    The bound 10 * p_max * ||dtheta|| * (1 + ln(T/t1)) has an unspecified
    constant, so violations are reported, never asserted.  A case where a
    perturbed parameter has no feasible markdown start is skipped and
    counted.
    """
    violations = 0
    infeasible = 0
    worst_ratio = 0.0
    for inst, r_start, horizon, thetas in _lipschitz_cases(rng, n_cases):
        try:
            curves = [solve_curve(th, r_start, 1, horizon, inst.p_max) for th in thetas]
        except SolverError:
            infeasible += 1
            continue
        diff = float(np.max(np.abs(curves[0].prices - curves[1].prices)))
        dtheta = math.hypot(thetas[0].c1 - thetas[1].c1, thetas[0].c2 - thetas[1].c2)
        if dtheta == 0.0:
            continue
        bound = 10.0 * inst.p_max * dtheta * (1.0 + math.log(horizon))
        worst_ratio = max(worst_ratio, diff / bound)
        if diff > bound:
            violations += 1
    skipped = f"; {infeasible} with no feasible start" if infeasible else ""
    return CheckResult(
        "curve_lipschitz_logged",
        True,
        f"{violations} bound violations in {n_cases} cases (worst ratio {worst_ratio:.2f})"
        f"{skipped}; informational",
    )


def run_all(seed: int = 0, threads: int = 1) -> list[CheckResult]:
    """Every check, in order, from one generator seeded with ``seed``.

    The six checks are cut into W = ``_workers(threads, 6)`` contiguous
    groups, group k holding checks 6k//W to 6(k+1)//W - 1, and run through
    ``harness._fork``: group 0 in this process, each other in a child
    forked before group 0 starts, so every process holds the generator in
    its start state.  A group first replays the draws of every check before
    it, then runs its own checks whole, so each check sees the generator
    state it sees in one process, and the results are the same for any W.
    Group 0 holds the dense check, the only BLAS caller.  A check that
    raises in a child is raised here; a child that dies is an ``OSError``
    (see ``_fork``).  With ``threads`` 1 no process is started.
    """
    # (draw half, whole check), looked up per call so that a rebound name is used
    checks = [
        (_dense_cases, check_dense_vs_recursion),
        (_scan_cases, check_binary_vs_linear),
        (_foc_cases, check_foc_residual),
        (_reset_cases, check_reset_brute_force),
        (_gradient_draws, check_gradient_unbiased),
        (_lipschitz_cases, check_curve_lipschitz),
    ]
    n = _workers(threads, len(checks))
    rng = np.random.default_rng(seed)

    def group(k: int) -> list[CheckResult]:
        first, end = len(checks) * k // n, len(checks) * (k + 1) // n
        for draw, _ in checks[:first]:
            draw(rng)
        return [check(rng) for _, check in checks[first:end]]

    return [res for part in _fork("validate", group, n) for res in part]
