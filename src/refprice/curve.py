"""Markdown price-curve computation.

A curve over rounds [t_start, T] holds the ceiling price p_max up to some
round ``markdown_start`` and then follows the first-order optimality
condition

    p_t = c2 + c1 * (r_t + sum_{s > t} p_s / s),      t in [markdown_start, T],

where r_t is the running-average reference induced by the curve itself.  The
segment is the solution of a dense linear system; it is computed here in O(T)
by rolling the equivalent one-step rule

    p_{t+1} = p_t - c1 * r_t / (t + 1 + c1)

forward from an initial price chosen so the final-round condition
p_T = c1 * r_T + c2 holds.  ``markdown_start`` is the first round whose
initial price is feasible, found for all candidate rounds at once by pulling
that final-round condition back in one backward sweep.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import Instance, PolicyParams, expected_demand_vec

# Initial prices within this distance of the [0, p_max] boundary still count
# as feasible; they are snapped onto the boundary.
FEASIBILITY_TOL = 1e-12


class SolverError(RuntimeError):
    """The curve system is outside the solver's guaranteed regime."""


def harmonic_range(lo: int, hi: int) -> float:
    """Sum of 1/s for s in [lo, hi]; zero when the range is empty."""
    if hi < lo:
        return 0.0
    return float(np.sum(1.0 / np.arange(lo, hi + 1, dtype=float)))


def dominance_margin(c1: float, markdown_start: int, horizon: int) -> float:
    """1 - c1 * sum_{s=markdown_start+1}^{horizon} 1/s; positive iff the curve
    system is strictly diagonally dominant."""
    return 1.0 - c1 * harmonic_range(markdown_start + 1, horizon)


@dataclass
class PriceCurve:
    """A price path over rounds [t_start, T] with its induced references."""

    t_start: int
    markdown_start: int
    prices: np.ndarray
    refs: np.ndarray

    def __post_init__(self) -> None:
        self.prices = np.asarray(self.prices, dtype=float)
        self.refs = np.asarray(self.refs, dtype=float)
        if self.prices.shape != self.refs.shape:
            raise ValueError("prices and refs must have equal length")
        if len(self.prices) and not (self.t_start <= self.markdown_start <= self.horizon):
            raise ValueError("markdown_start outside [t_start, horizon]")

    @property
    def horizon(self) -> int:
        return self.t_start + len(self.prices) - 1


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


def solve_curve(
    theta: PolicyParams, r_start: float, t_start: int, horizon: int, p_max: float
) -> PriceCurve:
    """Find the smallest feasible markdown start in one backward sweep and
    return the full curve.

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


def induced_references(prices: np.ndarray, t_start: int, r_start: float) -> np.ndarray:
    """Running-average references along a given price path, r[0] = r_start."""
    prices = np.asarray(prices, dtype=float)
    n = len(prices)
    t = np.arange(t_start, t_start + n, dtype=float)
    sums = t_start * r_start + np.concatenate([[0.0], np.cumsum(prices[:-1])])
    return sums / t


def curve_value(inst: Instance, curve: PriceCurve, r_actual: float) -> float:
    """Total expected revenue of posting the curve's prices starting from
    reference ``r_actual`` (which may differ from the curve's own start)."""
    if len(curve.prices) == 0:
        return 0.0
    refs = induced_references(curve.prices, curve.t_start, r_actual)
    demand = expected_demand_vec(inst, curve.prices, refs)
    return float(np.sum(curve.prices * demand))


def foc_residual(curve: PriceCurve, theta: PolicyParams) -> float:
    """Largest violation of p_t = c2 + c1*(r_t + sum_{s>t} p_s/s) on the
    markdown segment [markdown_start, T]."""
    i0 = curve.markdown_start - curve.t_start
    prices = curve.prices[i0:]
    refs = curve.refs[i0:]
    s = np.arange(curve.markdown_start, curve.horizon + 1, dtype=float)
    ratios = prices / s
    tail = np.concatenate([np.cumsum(ratios[::-1])[::-1][1:], [0.0]])
    resid = prices - theta.c2 - theta.c1 * (refs + tail)
    return float(np.max(np.abs(resid)))
