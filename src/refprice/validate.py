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
tests, and builds no curve; it rolls a chunk of starts at once, each start's
initial price bit-identical to ``segment_initial_price``'s.  The brute-force
reset tests a chunk of plan lengths per numpy pass, and the gradient check
evaluates the estimate from its two perturbed prices, drawing the shocks
into two buffers allocated once, turning each into its own estimate in place
and computing its mean and variance there, so that it holds no more than two
float64 arrays of its draw count at once.

``run_all`` draws the cases of the four deterministic checks first, then
evaluates them, all but the first while one forked helper runs the
Monte-Carlo gradient check and the Lipschitz check from the generator as it
stands; the results are those of running the checks one after another.  The
dense check's small solves run on one OpenBLAS thread.
"""

from __future__ import annotations

import ctypes
import functools
import math
import multiprocessing
import os
from array import array
from contextlib import contextmanager
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
from .harness import fork_usable
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


def _segment_initial_prices(
    theta: PolicyParams, r_md: np.ndarray, first: int, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """``segment_initial_price`` for the starts first, first+1, ... at once.

    Row j holds the coefficient pairs (pa, pb) and (ra, rb) of start
    first + j and starts moving at round first + j, so the rows already
    moving are a leading block.  Each round applies the one-step rule to that
    block with the scalar loop's operations and operand order, so every row
    ends bit-identical to the scalar roll.  Returns the final-round
    condition's denominators and the initial prices; no start is tested here.
    """
    c1, c2 = theta.c1, theta.c2
    k = len(r_md)
    p = np.zeros((k, 2))  # columns pa, pb
    p[:, 0] = 1.0
    r = np.zeros((k, 2))  # columns ra, rb
    r[:, 1] = r_md
    step = np.empty((k, 2))
    for t in range(first, horizon):
        m = t - first + 1
        pm, rm, sm = (p, r, step) if m >= k else (p[:m], r[:m], step[:m])
        np.multiply(rm, c1 / (t + 1.0 + c1), out=sm)
        rm *= t
        rm += pm
        rm /= t + 1.0
        pm -= sm
    denom = p[:, 0] - c1 * r[:, 0]
    return denom, (c1 * r[:, 1] + c2 - p[:, 1]) / denom


# Candidate starts in the first chunk of the linear scan; each later chunk
# doubles.  A chunk rolls every round from its first start to the horizon.
SCAN_CHUNK = 128


def linear_scan_markdown_start(
    theta: PolicyParams, r_start: float, t_start: int, horizon: int, p_max: float
) -> int:
    """Smallest feasible markdown start by exhaustive scan (test oracle).

    Tries every start from ``t_start`` to ``horizon`` in ascending order and
    decides each from its segment's initial price alone, by the rules of
    ``segment_initial_price`` and ``curve_from_markdown_start``: a start
    before the horizon needs a diagonally dominant system and a final-round
    denominator of at least 1e-12 in size, and its initial price must lie in
    [0, p_max] up to FEASIBILITY_TOL.  No curve is built.  The initial prices
    of a chunk of starts are rolled together by ``_segment_initial_prices``,
    bit-identical to ``segment_initial_price``; chunks start at
    ``SCAN_CHUNK`` starts and double, and the first feasible start wins.
    """
    if not 1 <= t_start <= horizon:
        raise ValueError("need 1 <= t_start <= horizon")
    if not (0.0 <= r_start <= p_max + FEASIBILITY_TOL):
        raise ValueError(f"r_start {r_start} outside [0, {p_max}]")
    first = t_start
    # The dominance margin grows with the start, by c1/(start + 1) a step, far
    # above its sum's rounding, so the starts that fail it are a leading run;
    # they are never rolled.  The horizon start needs no test.
    while first < horizon and dominance_margin(theta.c1, first, horizon) <= 0.0:
        first += 1
    width = SCAN_CHUNK
    base = t_start * r_start
    # Overflow and NaN pass silently, as they do in the scalar loop's floats.
    with np.errstate(all="ignore"):
        while first <= horizon:
            t_md = np.arange(first, min(first + width, horizon + 1), dtype=float)
            r_md = (base + (t_md - t_start) * p_max) / t_md
            denom, p0 = _segment_initial_prices(theta, r_md, first, horizon)
            # Negated as in curve_from_markdown_start, so a NaN is decided alike.
            # The denominator rule guards c1 outside [0, 0.5), as in
            # segment_initial_price.
            out = (p0 < -FEASIBILITY_TOL) | (p0 > p_max + FEASIBILITY_TOL)
            feasible = np.flatnonzero(~(np.abs(denom) < 1e-12) & ~out)
            if len(feasible):
                return first + int(feasible[0])
            first += len(t_md)
            width *= 2
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


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the body with OpenBLAS on one thread, then restore its thread
    count; a no-op where numpy loaded no OpenBLAS that can be found.

    The dense oracle's systems have at most 200 rows: a second BLAS thread
    gains nothing there, and one left spinning takes a core from the rest.
    Only the OpenBLAS already loaded from numpy's bundled libraries is
    opened (``RTLD_NOLOAD``), and its thread count is changed for the body
    alone; no environment variable is set.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


@functools.cache
def _openblas_threads():
    """The get and set functions of the OpenBLAS thread count in the library
    numpy loaded from its wheel's ``numpy.libs``, or None."""
    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:
        return None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = sorted(name for name in os.listdir(libs) if "openblas" in name)
    except OSError:  # no such directory
        return None
    for name in names:
        try:
            lib = ctypes.CDLL(os.path.join(libs, name), mode=noload | os.RTLD_LAZY)
        except OSError:  # not loaded
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


def _dense_cases(rng: np.random.Generator, n_cases: int = 50) -> list[FocSystem]:
    cases = []
    for _ in range(n_cases):
        p_max = rng.uniform(0.6, 2.0)
        theta = random_theta(rng, p_max)
        horizon = int(rng.integers(2, 201))
        markdown_start = int(rng.integers(1, horizon + 1))
        r_md = rng.uniform(0.0, p_max)
        cases.append(
            FocSystem(markdown_start=markdown_start, horizon=horizon, theta=theta, r_md=r_md)
        )
    return cases


def _dense_vs_recursion(cases: list[FocSystem]) -> CheckResult:
    worst = 0.0
    with _one_blas_thread():
        for system in cases:
            if system.dominance_margin() <= 0.0:
                continue
            dense = dense_solve(system)
            theta, r_md = system.theta, system.r_md
            scalar, _ = solve_segment(theta, r_md, system.markdown_start, system.horizon)
            # Started at markdown_start under a ceiling above every price, the
            # scan's curve is the segment alone.
            ceiling = 2.0 * max(r_md, dense.max())
            scan = solve_curve(theta, r_md, system.markdown_start, system.horizon, ceiling)
            for fast in (scalar, scan.prices):
                worst = max(worst, float(np.max(np.abs(dense - fast))))
    return CheckResult(
        "dense_vs_recursion", worst <= ORACLE_TOL, f"max abs diff {worst:.3e}"
    )


def check_dense_vs_recursion(rng: np.random.Generator, **sizes) -> CheckResult:
    """Dense solve of random segments vs the scalar recursion and the scan;
    ``sizes`` as for ``_dense_cases``."""
    return _dense_vs_recursion(_dense_cases(rng, **sizes))


def _binary_cases(
    rng: np.random.Generator, n_cases: int = 100, max_T: int = 500
) -> list[tuple[Instance, int, float]]:
    cases = []
    for _ in range(n_cases):
        inst = random_instance(rng, symmetric=bool(rng.integers(0, 2)))
        horizon = int(rng.integers(5, max_T + 1))
        cases.append((inst, horizon, rng.uniform(0.0, inst.p_max)))
    return cases


def _binary_vs_linear(cases: list[tuple[Instance, int, float]]) -> CheckResult:
    mismatches = 0
    for inst, horizon, r_start in cases:
        theta = true_policy_params(inst)
        fast = solve_curve(theta, r_start, 1, horizon, inst.p_max)
        scan = linear_scan_markdown_start(theta, r_start, 1, horizon, inst.p_max)
        if fast.markdown_start != scan:
            mismatches += 1
    return CheckResult(
        "binary_vs_linear_scan", mismatches == 0, f"{mismatches} mismatches in {len(cases)} cases"
    )


def check_binary_vs_linear(rng: np.random.Generator, **sizes) -> CheckResult:
    """Markdown start of ``solve_curve``'s scan vs the exhaustive linear
    scan, on random symmetric and asymmetric instances; ``sizes`` as for
    ``_binary_cases``."""
    return _binary_vs_linear(_binary_cases(rng, **sizes))


def _foc_cases(
    rng: np.random.Generator, horizons=(100, 1000, 10000), n_cases: int = 5
) -> list[tuple[Instance, int, float]]:
    cases = []
    for horizon in horizons:
        for _ in range(n_cases):
            inst = random_instance(rng)
            cases.append((inst, horizon, rng.uniform(0.0, inst.p_max)))
    return cases


def _foc_residual(cases: list[tuple[Instance, int, float]]) -> CheckResult:
    worst = 0.0
    for inst, horizon, r_start in cases:
        theta = true_policy_params(inst)
        curve = solve_curve(theta, r_start, 1, horizon, inst.p_max)
        worst = max(worst, foc_residual(curve, theta))
    return CheckResult("foc_residual", worst <= FOC_TOL, f"max residual {worst:.3e}")


def check_foc_residual(rng: np.random.Generator, **sizes) -> CheckResult:
    """Optimality-condition residual of solved curves; ``sizes`` as for
    ``_foc_cases``."""
    return _foc_residual(_foc_cases(rng, **sizes))


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


def _reset_cases(
    rng: np.random.Generator, n_cases: int = 1000
) -> list[tuple[float, int, float, float]]:
    cases = []
    for _ in range(n_cases):
        p_max = rng.uniform(0.5, 2.0)
        t = int(rng.integers(1, 500))
        r_t = rng.uniform(0.0, p_max)
        cases.append((p_max, t, r_t, rng.uniform(0.05 * p_max, 0.95 * p_max)))
    return cases


def _reset_brute_force(cases: list[tuple[float, int, float, float]]) -> CheckResult:
    bad = 0
    worst_err = 0.0
    for p_max, t, r_t, r_target in cases:
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


def check_reset_brute_force(rng: np.random.Generator, **sizes) -> CheckResult:
    """Closed-form reset plans vs ``brute_force_reset``; ``sizes`` as for
    ``_reset_cases``."""
    return _reset_brute_force(_reset_cases(rng, **sizes))


# The gradient check draws its sign bits and builds its estimate this many
# draws at a time.  Even, so that every slice but the last draws its bits from
# whole 64-bit outputs and the sliced draws equal one draw of them all.
BITS_CHUNK = 2**16


def _gradient_z_scores(
    rng: np.random.Generator, n_points: int, n_draws: int
) -> Iterator[float]:
    """|z| of the Monte-Carlo mean of the one-point gradient estimate against
    the analytic revenue derivative, for each point and shock kind in turn.

    The estimate is ``((pt*demand)*kappa)/d`` with
    ``demand = ((b - a*pt) + eta_plus*(r - pt)) + shocks`` and kappa = ±1, so
    pt, the demand before its shock and pt*kappa each take two values,
    computed once in scalar form.  A point's shocks are drawn into two
    buffers of ``n_draws`` allocated once for all points, and each becomes
    its own estimate, in place, ``BITS_CHUNK`` draws at a time: the slice's
    sign bits are drawn, its base demand gathered into a scratch buffer and
    added, its pt*kappa gathered into the same buffer and multiplied, and the
    slice divided by d.  The mean and the sample variance are then computed
    in the buffer itself (the squared deviations overwrite the estimates), so
    no more than those two float64 arrays of ``n_draws`` are alive at once.
    The shocks are scaled and shifted in numpy's own operations and order,
    addition commutes, a sign flip is exact and commutes with rounding, and
    numpy's bounded-integer draw starts each call on a fresh 64-bit output,
    so every z and the generator state after the check are bit-identical to
    evaluating the expression with fresh arrays and one bit draw per shock
    array.
    """
    scratch = np.empty(min(n_draws, BITS_CHUNK))
    uniform, normal = np.empty(n_draws), np.empty(n_draws)
    for _ in range(n_points):
        inst = random_instance(rng, symmetric=bool(rng.integers(0, 2)))
        r = rng.uniform(inst.p_ratio_bound, inst.p_max)
        d = 0.5 * (r - inst.p_ratio_bound)
        p = rng.uniform(d, r - d)
        target = inst.b + inst.eta_plus * r - 2.0 * (inst.a + inst.eta_plus) * p
        kappas = (-1.0, 1.0)  # indexed by the drawn bit
        pt = [p + kappa * d for kappa in kappas]
        base = np.array([inst.b - inst.a * x + inst.eta_plus * (r - x) for x in pt])
        signed_pt = np.array([x * kappa for x, kappa in zip(pt, kappas)])
        # uniform(-0.2, 0.2) and normal(0.0, 0.2) as numpy computes them,
        # low + (high - low)*u and loc + scale*z, in the buffers.
        rng.random(out=uniform)
        uniform *= 0.4
        uniform += -0.2
        rng.standard_normal(out=normal)
        normal *= 0.2
        normal += 0.0
        for g in (uniform, normal):
            for lo in range(0, n_draws, BITS_CHUNK):
                part = g[lo : lo + BITS_CHUNK]
                buf = scratch[: len(part)]
                bits = rng.integers(0, 2, size=len(part))
                # The bits are 0 or 1, so "clip" changes no index; "raise"
                # would gather through a temporary copy.
                np.take(base, bits, out=buf, mode="clip")
                part += buf
                np.take(signed_pt, bits, out=buf, mode="clip")
                part *= buf
                part /= d
                del bits  # before the next slice's are drawn
            # np.mean and np.std(ddof=1), bit for bit, in g's own memory.
            mean = np.add.reduce(g) / n_draws
            g -= mean
            g *= g
            se = float(np.sqrt(np.add.reduce(g) / (n_draws - 1)) / math.sqrt(n_draws))
            yield abs(float(mean) - target) / se


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


# The checks that draw every case before evaluating any, as (draw,
# evaluate) pairs in the order they run.
_DRAWN_CHECKS = (
    (_dense_cases, _dense_vs_recursion),
    (_binary_cases, _binary_vs_linear),
    (_foc_cases, _foc_residual),
    (_reset_cases, _reset_brute_force),
)


def _monte_carlo_checks(rng: np.random.Generator) -> list[CheckResult]:
    """The checks that follow the drawn ones, in order."""
    return [check_gradient_unbiased(rng), check_curve_lipschitz(rng)]


def _send_monte_carlo_checks(rng: np.random.Generator, send) -> None:
    """The helper process's work: run ``_monte_carlo_checks`` and send their
    results through the connection ``send``."""
    send.send(_monte_carlo_checks(rng))


def run_all(seed: int = 0, threads: int = 1) -> list[CheckResult]:
    """Every check, in order, from one generator seeded with ``seed``.

    The cases of the drawn checks are drawn first, in order; their
    evaluation draws nothing, so the generator then stands where it would
    after running them.  With ``threads`` > 1 this process evaluates the
    dense check, then forks one helper with the generator as it stands,
    which runs the Monte-Carlo gradient check and the Lipschitz check and
    sends back their results while this process evaluates the other drawn
    cases; ``threads`` = 1, or a process that may not fork (see
    ``harness.fork_usable``), runs them all here.  The results do not depend
    on ``threads``.

    A helper that fails raises ``OSError``; on any failure the helper is
    terminated, and it is always joined before this returns or raises.
    """
    rng = np.random.default_rng(seed)
    drawn = [(evaluate, draw(rng)) for draw, evaluate in _DRAWN_CHECKS]
    if threads < 2 or not fork_usable():
        return [evaluate(cases) for evaluate, cases in drawn] + _monte_carlo_checks(rng)
    # A fork stops OpenBLAS's threads, and setting their count afterwards
    # starts them again, one spinning for about 0.1 s beside the helper: the
    # dense check, which sets it, runs before the fork.
    (evaluate, cases), *drawn = drawn
    results = [evaluate(cases)]
    fork = multiprocessing.get_context("fork")
    receive, send = fork.Pipe(duplex=False)
    with receive, send:
        helper = fork.Process(target=_send_monte_carlo_checks, args=(rng, send))
        helper.start()
        try:
            send.close()  # so that the helper's death reads as EOF
            results += [evaluate(cases) for evaluate, cases in drawn]
            try:
                results += receive.recv()
            except EOFError:  # the helper died first; its exit code says how
                pass
            helper.join()
            if helper.exitcode != 0:
                raise OSError(
                    "validate process 1 (gradient and Lipschitz checks): "
                    f"exited with code {helper.exitcode}"
                )
            return results
        finally:
            helper.terminate()  # a no-op once the helper has been joined
            helper.join()
            helper.close()
