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

so a whole solve is a product of 2x2 maps.  ``solve_curve`` forms those
products with log-depth doubling scans in numpy, ``CHUNK`` rounds at a time,
and never loops over rounds in Python.  The scalar recursion it replaced lives
on in ``refprice.validate`` as the oracle for the scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PolicyParams

# Initial prices within this distance of the [0, p_max] boundary still count
# as feasible; they are snapped onto the boundary.
FEASIBILITY_TOL = 1e-12

# Rounds per chunk of a scan: temporaries stay O(CHUNK) whatever the horizon.
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


def _maps(c1: float, lo: int, hi: int) -> list[np.ndarray]:
    """Entries (a, b, c, d) of the maps M_t for t in [lo, hi), one array each."""
    t = np.arange(lo, hi, dtype=float)
    return [np.ones_like(t), -c1 / (t * (t + 1.0 + c1)), np.ones_like(t), np.ones_like(t)]


def _mul(x, y, out, tmp):
    """Products x @ y of 2x2 matrices given by their entries (a, b, c, d),
    written into the four arrays ``out``; ``tmp`` is a work array of their
    length.  Entry a is xa*ya + xb*yc, summed in that order, and so on."""
    xa, xb, xc, xd = x
    ya, yb, yc, yd = y
    terms = ((xa, ya, xb, yc), (xa, yb, xb, yd), (xc, ya, xd, yc), (xc, yb, xd, yd))
    for dst, (u, v, w, z) in zip(out, terms):
        np.multiply(u, v, out=dst)
        np.multiply(w, z, out=tmp)
        dst += tmp
    return out


def _left(y, m):
    """Covector y = (u, v) times the 2x2 matrix (or matrices) m."""
    return y[0] * m[0] + y[1] * m[2], y[0] * m[1] + y[1] * m[3]


def _scan(m: list[np.ndarray], forward: bool) -> list[np.ndarray]:
    """Running products of the maps m in place, by log-depth doubling: entry
    i becomes M_i ... M_0 when ``forward``, else M_{n-1} ... M_i.  Each
    step's products go to buffers allocated once per call."""
    n = len(m[0])
    buf, tmp = np.empty((4, n)), np.empty(n)
    step = 1
    while step < n:
        k = n - step
        prods = _mul([x[step:] for x in m], [x[:-step] for x in m], buf[:, :k], tmp[:k])
        dst = slice(step, None) if forward else slice(None, -step)
        for x, p in zip(m, prods):
            x[dst] = p
        step *= 2
    return m


def _product(m: list[np.ndarray]) -> list[float]:
    """M_{n-1} ... M_0 of the maps m, by pairwise reduction."""
    while len(m[0]) > 1:
        if len(m[0]) % 2:
            m = [np.append(x, e) for x, e in zip(m, (1.0, 0.0, 0.0, 1.0))]
        k = len(m[0]) // 2
        m = _mul([x[1::2] for x in m], [x[::2] for x in m], np.empty((4, k)), np.empty(k))
    return [float(x[0]) for x in m]


def solve_curve(
    theta: PolicyParams, r_start: float, t_start: int, horizon: int, p_max: float
) -> PriceCurve:
    """The markdown curve over [t_start, horizon] from reference r_start.

    Three chunked passes over the maps M_t, with w = (1, -c1/T) the
    covector of the final-round condition w . x_T = c2:

    1. From round T down, the covector y_s = w M_{T-1} ... M_s is carried
       to each chunk boundary, until the system on [s, T] stops being
       diagonally dominant (c1 * sum_{j>s} 1/j >= 1).  The margin only
       shrinks as s falls, so no earlier round can start the markdown.
    2. Chunk by chunk from there up, the suffix products give (u_s, v_s) =
       y_s for every round s at once, and with it the segment's initial
       price p_s = (c2 - v_s * S_s) / u_s, where S_s is the running total
       after a plateau at p_max.  The markdown start m is the first round
       with |u_s| >= 1e-12 and p_s in [0, p_max] up to FEASIBILITY_TOL.
    3. The segment is rolled forward from x_m = (p_m, S_m) into the output
       arrays by prefix products.  Then p_m is snapped onto [0, p_max], the
       final price takes its closed form c1*r_T + c2, and a running minimum
       makes the prices exactly non-increasing, so that the final price is
       min(c1*r_T + c2, p_{T-1}).

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

    # Pass 1: chunks [lo, hi) of dominant starts, highest first, with y_hi.
    chunks = []
    y, tail, hi = (1.0, -c1 / horizon), 0.0, horizon
    while hi > t_start:
        lo = max(hi - CHUNK, t_start)
        # tails[i] = sum_{j > lo+i} 1/j, summed from round T down.
        tails = np.cumsum(np.append(tail, 1.0 / np.arange(hi, lo, -1.0)))[::-1]
        dominant = c1 * tails[:-1] < 1.0
        if not dominant[0]:
            chunks.append((hi - int(np.count_nonzero(dominant)), hi, y))
            break
        chunks.append((lo, hi, y))
        tail = tails[0]
        if lo > t_start:
            y = _left(y, _product(_maps(c1, lo, hi)))
        hi = lo

    # Pass 2: the first feasible start, ascending; round T closes the list.
    base = t_start * r_start
    lo_p, hi_p = -FEASIBILITY_TOL, p_max + FEASIBILITY_TOL
    start, p0 = horizon, c2 + c1 / horizon * (base + (horizon - t_start) * p_max)
    for lo, hi, y in reversed(chunks):
        u, v = _left(y, _scan(_maps(c1, lo, hi), forward=False))
        s = np.arange(lo, hi, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = (c2 - v * (base + (s - t_start) * p_max)) / u
        feasible = (np.abs(u) >= 1e-12) & (lo_p <= p) & (p <= hi_p)
        if feasible.any():
            i = int(np.argmax(feasible))
            start, p0 = lo + i, float(p[i])
            break
    else:
        if not lo_p <= p0 <= hi_p:
            raise SolverError("no feasible markdown start")

    # Pass 3: the plateau, then the segment rolled forward from x_m.
    i0 = start - t_start
    prices[:i0] = p_max
    t = np.arange(t_start, start + 1, dtype=float)
    refs[: i0 + 1] = (base + (t - t_start) * p_max) / t
    prices[i0] = p0
    x = (p0, base + i0 * p_max)
    for lo in range(start, horizon, CHUNK):
        hi = min(lo + CHUNK, horizon)
        a, b, c, d = _scan(_maps(c1, lo, hi), forward=True)
        p, total = a * x[0] + b * x[1], c * x[0] + d * x[1]
        prices[lo + 1 - t_start : hi + 1 - t_start] = p
        refs[lo + 1 - t_start : hi + 1 - t_start] = total / np.arange(lo + 1.0, hi + 1.0)
        x = (p[-1], total[-1])
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
