"""Markdown price-curve computation.

A curve over rounds [t_start, T] holds the ceiling price p_max up to some
round ``markdown_start`` and then follows the first-order optimality
condition

    p_t = c2 + c1 * (r_t + sum_{s > t} p_s / s),      t in [markdown_start, T],

where r_t is the running-average reference induced by the curve itself.  The
condition is equivalent to the one-step rule
p_{t+1} = p_t - c1 * r_t / (t + 1 + c1) with the final-round condition
p_T = c1 * r_T + c2.  Both are linear in the state x_t = (p_t, S_t), where
S_t = t * r_t is the running total of prices:

    x_{t+1} = M_t x_t,      M_t = [[1, -c1 / (t (t + 1 + c1))], [1, 1]],

so a whole solve is a product of 2x2 maps, each the step (p, S) -> (p + e S, S + p)
with e = M_t[0, 1].  Pulled back through M_t, a covector (u, v) becomes
(u + v, e u + v): the same step on the swapped pair (v, u).  So one primitive,
``_roll``, serves both passes of ``solve_curve``: rolled backward, the covector
of the final-round condition finds the markdown start; rolled forward, the
state gives the segment.  ``refprice.validate``'s scalar recursion is its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .model import PolicyParams

# Initial prices within this distance of the [0, p_max] boundary still count
# as feasible; they are snapped onto the boundary.
FEASIBILITY_TOL = 1e-12

# Rounds per roll of a pass: temporaries stay O(CHUNK) whatever the horizon.
CHUNK = 1 << 14


class SolverError(RuntimeError):
    """The curve system is outside the solver's guaranteed regime."""


def harmonic_range(lo: int, hi: int) -> float:
    """Sum of 1/s for s in [lo, hi]; zero when the range is empty."""
    if hi < lo:
        return 0.0
    if hi == lo:  # one term, as at T = 1 on every round of the myopic path
        return 1.0 / lo
    return float(np.sum(1.0 / np.arange(lo, hi + 1, dtype=float)))


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


def _roll(e, p, s, out_p, out_s):
    """Roll the state (p, s) through the steps (p, s) -> (p + e_i*s, s + p),
    writing the state after step i to out_p[i] and out_s[i]; returns the
    last state.

    The n steps are cut into blocks of isqrt(n/8), and all blocks are stepped
    at once from the basis states (1, 0) and (0, 1), one numpy operation per
    step.  A short loop chains the block starts, and each round's state is
    then its block's start combined with the two basis paths."""
    n = len(e)
    b = max(1, isqrt(n // 8))
    k = -(-n // b)
    # steps[j, i] is step j of block i; the last block is padded with
    # repeats of e, which no output reads.
    steps = np.resize(e, (k, b)).T.copy()
    # (ps, ss)[j, 0, i]: block i after step j from (1, 0); [j, 1, i] from (0, 1).
    ps, ss = np.empty((b, 2, k)), np.empty((b, 2, k))
    ps[0, 0], ps[0, 1], ss[0] = 1.0, steps[0], 1.0
    for j in range(1, b):
        ps[j] = ps[j - 1] + steps[j] * ss[j - 1]
        ss[j] = ss[j - 1] + ps[j - 1]
    ends = (x.tolist() for x in (ps[-1, 0], ps[-1, 1], ss[-1, 0], ss[-1, 1]))
    starts = []
    for pa, pb, sa, sb in zip(*ends):
        starts.append((p, s))
        p, s = pa * p + pb * s, sa * p + sb * s
    p0s, s0s = np.array(starts).T
    for paths, out in ((ps, out_p), (ss, out_s)):
        out[:] = (paths[:, 0] * p0s + paths[:, 1] * s0s).T.ravel()[:n]
    return float(out_p[-1]), float(out_s[-1])


def solve_curve(
    theta: PolicyParams, r_start: float, t_start: int, horizon: int, p_max: float
) -> PriceCurve:
    """The markdown curve over [t_start, horizon] from reference r_start.

    Two passes of ``_roll``, ``CHUNK`` rounds at a time, with w = (1, -c1/T)
    the covector of the final-round condition w . x_T = c2:

    1. From round T down, the covector (u_s, v_s) = w M_{T-1} ... M_s of
       each round s, rolled as (v, u), until the system on [s, T] stops being
       diagonally dominant (c1 * sum_{j>s} 1/j >= 1).  The margin only
       shrinks as s falls, so no earlier round can start the markdown.  Each
       dominant round gives the initial price p_s = (c2 - v_s * S_s) / u_s,
       S_s the running total after a plateau at p_max.  The markdown start m
       is the lowest round with |u_s| >= 1e-12 and p_s in [0, p_max] up to
       FEASIBILITY_TOL.
    2. The segment is rolled forward from x_m = (p_m, S_m).  Then p_m is
       snapped onto [0, p_max], the final price takes its closed form
       c1*r_T + c2, and a running minimum makes the prices exactly
       non-increasing: the final price is min(c1*r_T + c2, p_{T-1}).

    Raises SolverError when no round can start the markdown.
    """
    if not 1 <= t_start <= horizon:
        raise ValueError("need 1 <= t_start <= horizon")
    if not (0.0 <= r_start <= p_max + FEASIBILITY_TOL):
        raise ValueError(f"r_start {r_start} outside [0, {p_max}]")
    c1, c2 = theta.c1, theta.c2
    # Allocated first, so that a horizon too large for memory fails before the
    # O(T) passes; np.empty touches no page.
    n = horizon - t_start + 1
    prices, refs = np.empty(n), np.empty(n)

    # Pass 1, rounds [lo, hi) from the top; round T is the last resort.
    base = t_start * r_start
    lo_p, hi_p = -FEASIBILITY_TOL, p_max + FEASIBILITY_TOL
    p0 = c2 + c1 / horizon * (base + (horizon - t_start) * p_max)
    start = horizon if lo_p <= p0 <= hi_p else None
    v, u, tail, hi = -c1 / horizon, 1.0, 0.0, horizon
    while hi > t_start:
        lo = max(hi - CHUNK, t_start)
        # tails[i] = sum_{j > hi-i} 1/j, summed from round T down.
        tails = np.cumsum(np.append(tail, 1.0 / np.arange(hi, lo, -1.0)))
        m = int(np.count_nonzero(c1 * tails[1:] < 1.0))
        if not m:
            break
        s = np.arange(hi - 1.0, hi - 1.0 - m, -1.0)
        vs, us = prices[:m], refs[:m]  # scratch: pass 2 overwrites both
        v, u = _roll(-c1 / (s * (s + 1.0 + c1)), v, u, vs, us)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = (c2 - vs * (base + (s - t_start) * p_max)) / us
        feasible = (np.abs(us) >= 1e-12) & (lo_p <= p) & (p <= hi_p)
        if feasible.any():
            i = m - 1 - int(np.argmax(feasible[::-1]))
            start, p0 = hi - 1 - i, float(p[i])
        if m < hi - lo:
            break
        tail, hi = tails[-1], lo
    if start is None:
        raise SolverError("no feasible markdown start")

    # Pass 2: the plateau, then the segment rolled forward from x_m.
    i0 = start - t_start
    prices[:i0] = p_max
    for lo in range(0, i0 + 1, CHUNK):
        k = np.arange(lo, min(lo + CHUNK, i0 + 1), dtype=float)
        refs[lo : lo + len(k)] = (base + k * p_max) / (k + t_start)
    x = (p0, base + i0 * p_max)
    for lo in range(start, horizon, CHUNK):
        s = np.arange(lo, min(lo + CHUNK, horizon), dtype=float)
        out = slice(lo + 1 - t_start, lo + 1 - t_start + len(s))
        x = _roll(-c1 / (s * (s + 1.0 + c1)), *x, prices[out], refs[out])
        refs[out] /= s + 1.0
    if start < horizon:
        prices[-1] = c1 * refs[-1] + c2
    prices[i0] = min(max(p0, 0.0), p_max)
    np.minimum.accumulate(prices, out=prices)
    return PriceCurve(t_start=t_start, markdown_start=start, prices=prices, refs=refs)


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
