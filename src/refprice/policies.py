"""Pricing policies: fixed, two-price, myopic greedy, markdown oracle, and the
explore-then-exploit learner with its reference-reset and greedy-price-learning
subroutines.

A policy is a single-episode object driven block by block:
``next_block(t, r)`` returns the run of prices to post from round t on, given
the current reference r, and ``observe(t, demands)`` feeds back the realized
demands of the rounds actually posted (the harness cuts a block at the
horizon).  The planned kinds are price paths fixed before the episode
starts: ``make_policy`` builds each path and one ``PlannedPolicy`` posts it
in one block.  The learner returns a reset plan, a single learning price, or
its exploitation tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .curve import PriceCurve, SolverError, harmonic_range, solve_curve
from .model import Instance, PolicyParams, revenue, true_policy_params

# A reference counts as "on target" when within this absolute tolerance; the
# reset plan lands targets exactly in exact arithmetic.
RESET_TOL = 1e-9


# ---------------------------------------------------------------------------
# closed-form baseline prices
# ---------------------------------------------------------------------------


def fixed_price_value(
    inst: Instance, p: float | np.ndarray, r1: float, T: int
) -> float | np.ndarray:
    """Total expected revenue of posting price p for all T rounds from r1;
    ``p`` may also be an array of prices, each valued on its own.

    Under the averaging dynamics r_t - p = (r1 - p)/t, so the reference term
    telescopes into a harmonic factor:  T*p*(b-a*p) + eta*p*(r1-p)*H_T.
    """
    inst.check_price(np.min(p))
    inst.check_price(np.max(p))
    inst.check_price(r1, "reference")
    eta = np.where(r1 >= p, inst.eta_plus, inst.eta_minus)
    h = harmonic_range(1, T)
    return T * p * (inst.b - inst.a * p) + eta * p * (r1 - p) * h


def optimal_fixed_price(inst: Instance, r1: float, T: int) -> float:
    """Best fixed price over T rounds starting from reference r1.

    Symmetric reference effects admit the closed form
    (T*b + eta*r1*H_T) / (2*(T*a + eta*H_T)); otherwise fall back to a grid
    search over the exact total-revenue formula.
    """
    if inst.symmetric:
        eta = inst.eta_plus
        h = harmonic_range(1, T)
        p = (T * inst.b + eta * r1 * h) / (2.0 * (T * inst.a + eta * h))
        return min(max(p, 0.0), inst.p_max)
    grid = np.linspace(0.0, inst.p_max, 10001)
    return float(grid[int(np.argmax(fixed_price_value(inst, grid, r1, T)))])


def two_price_policy(inst: Instance, alpha: float, T: Optional[int] = None):
    """High/low price pair of the two-price construction for symmetric effects.

    The high price p_u is posted for the first alpha*T rounds, then the policy
    drops to p_d.  Returns (p_u, p_d) or (p_u, p_d, switch_round) when T is
    given; switch_round is the last round at p_u.
    """
    if not inst.symmetric:
        raise ValueError("two-price construction requires symmetric reference effects")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    a, b, eta = inst.a, inst.b, inst.eta_plus
    ln = math.log(1.0 / alpha)
    denom = 2.0 * (a * (1.0 - alpha) + eta * alpha * ln) - (eta * ln) ** 2 * alpha / (2.0 * a)
    if denom <= 0.0:
        raise ValueError("two-price denominator is not positive for these parameters")
    p_d = ((1.0 - alpha) * b + eta * alpha * (b / (2.0 * a)) * ln) / denom
    p_u = (b + eta * p_d * ln) / (2.0 * a)
    if T is None:
        return p_u, p_d
    return p_u, p_d, int(math.floor(alpha * T + 1e-9))


def two_price_per_round_gain(inst: Instance, alpha: float) -> float:
    """Asymptotic per-round revenue of the two-price pair minus b^2/(4a),
    the per-round ceiling of any fixed price from a zero reference."""
    p_u, p_d = two_price_policy(inst, alpha)
    a, b, eta = inst.a, inst.b, inst.eta_plus
    ln = math.log(1.0 / alpha)
    gain = (
        alpha * p_u * (b - a * p_u)
        + (1.0 - alpha) * p_d * (b - a * p_d)
        + eta * p_d * alpha * (p_u - p_d) * ln
    )
    return gain - b * b / (4.0 * a)


def myopic_greedy_step(inst: Instance, r: float) -> float:
    """Price maximizing the single-round revenue over [0, p_max] at reference r.

    The revenue is concave-quadratic on each side of p = r; compare the two
    clipped vertices.
    """
    inst.check_price(r, "reference")
    gain_vertex = (inst.b + inst.eta_plus * r) / (2.0 * (inst.a + inst.eta_plus))
    cand_gain = min(max(gain_vertex, 0.0), min(r, inst.p_max))
    loss_vertex = (inst.b + inst.eta_minus * r) / (2.0 * (inst.a + inst.eta_minus))
    cand_loss = min(max(loss_vertex, r), inst.p_max)
    if revenue(inst, cand_gain, r) >= revenue(inst, cand_loss, r):
        return cand_gain
    return cand_loss


# ---------------------------------------------------------------------------
# reference reset
# ---------------------------------------------------------------------------


def reset_ref(t: int, r_t: float, r_target: float, p_max: float) -> list[float]:
    """Shortest price plan moving the running-average reference to r_target.

    The count-t average r_t plus the plan's prices must average to r_target:
    post the extreme price (p_max going up, 0 going down) for N rounds and a
    single interior correction price.  Membership uses the closed interval
    [0, p_max]; the open-interval variant can be empty on exact boundary hits.

    Returns the plan; it is empty when the reference is already on target.
    """
    if not (0.0 <= r_t <= p_max and 0.0 <= r_target <= p_max):
        raise ValueError("references must lie in [0, p_max]")
    if abs(r_t - r_target) <= RESET_TOL:
        return []
    eps = 1e-12 * max(1.0, p_max, t * max(r_t, r_target))

    def in_range(x: float) -> bool:
        return -eps <= x <= p_max + eps

    if r_t < r_target:
        base = (t + 1) * r_target - t * r_t
        slope = r_target - p_max
        if slope >= 0.0:  # r_target == p_max: the average can never get there
            raise ValueError("target reference p_max is unreachable from below")
        n = max(0, math.ceil((base - p_max) / (p_max - r_target) - 1e-9))
        while not in_range(base + n * slope):
            n += 1
        while n > 0 and in_range(base + (n - 1) * slope):
            n -= 1
        final = base + n * slope
        plan = [p_max] * n + [min(max(final, 0.0), p_max)]
    else:
        base = (t + 1) * r_target - t * r_t
        if r_target <= 0.0:  # zero target: average of positive history never hits 0
            raise ValueError("target reference 0 is unreachable from above")
        n = max(0, math.ceil(-base / r_target - 1e-9))
        while not in_range(base + n * r_target):
            n += 1
        while n > 0 and in_range(base + (n - 1) * r_target):
            n -= 1
        final = base + n * r_target
        plan = [0.0] * n + [min(max(final, 0.0), p_max)]
    return plan


# ---------------------------------------------------------------------------
# zeroth-order greedy-price learning
# ---------------------------------------------------------------------------


@dataclass
class LearnGreedyState:
    """Reset-then-perturb learner for the greedy price at a fixed reference.

    Driven block by block like a policy: ``next_block(t, r)`` returns the
    ``reset_ref`` plan towards r_target while the reference is off target,
    and otherwise one price perturbed by +-d with a fair sign drawn from
    ``rng``; ``observe(t, demands)`` takes the projected one-point-gradient
    step after a learning round and counts the rounds posted after a reset.
    Iterates live in [d, r_target - d]; the returned estimate is the average
    of the iterates before each update.
    """

    r_target: float
    d: float
    budget: int
    p_max: float
    rng: np.random.Generator
    s: int = 1
    p_hat: float = field(init=False)
    sum_iterates: float = 0.0
    reset_rounds: int = 0
    # (kappa, price) of the learning round awaiting its demand.
    pending: Optional[tuple[float, float]] = None

    def __post_init__(self) -> None:
        if self.budget < 4:
            raise ValueError("learning budget must be at least 4")
        if self.d <= 0.0 or self.r_target - self.d <= self.d:
            raise ValueError("need 0 < d < r_target/2")
        self.p_hat = 0.5 * (self.d + (self.r_target - self.d))

    @property
    def done(self) -> bool:
        return self.s > self.budget

    @property
    def learn_rounds(self) -> int:
        return self.s - 1

    def next_block(self, t: int, r: float) -> list[float]:
        if abs(r - self.r_target) > RESET_TOL:
            return reset_ref(t, r, self.r_target, self.p_max)
        kappa = 1.0 if self.rng.random() < 0.5 else -1.0
        price = self.p_hat + kappa * self.d
        self.pending = (kappa, price)
        return [price]

    def observe(self, t: int, demands: Sequence[float]) -> None:
        if self.pending is None:
            # A reset plan, counted as posted: the horizon may cut it short.
            self.reset_rounds += len(demands)
            return
        kappa, price = self.pending
        self.pending = None
        self.sum_iterates += self.p_hat
        g = price * float(demands[0]) * kappa / self.d
        p = self.p_hat + g / (2.0 * self.p_max * self.s)
        self.p_hat = min(max(p, self.d), self.r_target - self.d)
        self.s += 1

    def estimate(self) -> float:
        if self.s == 1:
            return self.p_hat
        return self.sum_iterates / (self.s - 1)


# ---------------------------------------------------------------------------
# episode policies
# ---------------------------------------------------------------------------


class Policy:
    """Block-driven pricing policy for a single episode."""

    kind = "abstract"

    def next_block(self, t: int, r: float) -> Sequence[float]:
        """Prices to post from round t on, given the reference r at round t;
        never empty."""
        raise NotImplementedError

    def observe(self, t: int, demands: Sequence[float]) -> None:
        """Realized demands of the block that started at round t, one per
        round posted."""

    def meta(self) -> dict:
        return {}


class PlannedPolicy(Policy):
    """A price path fixed before the episode starts, posted as one block."""

    def __init__(self, kind: str, prices: np.ndarray):
        self.kind = kind
        self.prices = prices

    def next_block(self, t: int, r: float) -> np.ndarray:
        return self.prices[t - 1 :]


def myopic_greedy_path(inst: Instance, r1: float, T: int) -> np.ndarray:
    """The single-round revenue maximizer at every round.

    Its prices never depend on demand, so the whole path is rolled up front
    with the simulator's exact running total: the reference after round t is
    (r1 + p_1 + ... + p_t) / (t + 1), summed in order.
    """
    prices = []
    total, r = r1, r1
    for count in range(2, T + 2):
        p = myopic_greedy_step(inst, r)
        prices.append(p)
        total += p
        r = total / count
    return np.array(prices)


def markdown_curve(
    inst: Instance, r1: float, T: int, theta: Optional[PolicyParams] = None
) -> PriceCurve:
    """The markdown curve over rounds 1..T for an episode starting at r1.

    With symmetric effects the curve is computed from the episode's actual
    starting reference (the exact optimum); otherwise from p_max, the
    near-optimal choice, and posted against whatever reference realizes.
    """
    theta = theta if theta is not None else true_policy_params(inst)
    r_start = r1 if inst.symmetric else inst.p_max
    return solve_curve(theta, r_start, 1, T, inst.p_max)


def default_t1_budget(p_max: float, T: int, c: float = 1.0) -> int:
    """Exploration budget per phase: c * p_max^2 * sqrt(T / (1 + p_max))."""
    return max(4, int(round(c * p_max * p_max * math.sqrt(T / (1.0 + p_max)))))


def default_exploration_refs(p_max: float, p_ratio_bound: float) -> tuple[float, float]:
    """Two reference targets inside the validity window (p_ratio_bound, p_max)."""
    delta = p_max - p_ratio_bound
    return p_max - 2.0 * delta / 3.0, p_max - delta / 3.0


class LearnThenEarn(Policy):
    """Explore-then-exploit learner.

    Learns greedy-price estimates at two reference targets with one
    ``LearnGreedyState`` each, passing the current learner's blocks through
    as they are; then solves the two-by-two linear system for the policy
    parameter and posts the markdown curve computed from p_max at the entry
    round for the rest of the horizon.  Only p_max and
    p_ratio_bound are used; the demand parameters stay hidden.
    """

    kind = "learn_then_earn"

    def __init__(
        self,
        p_max: float,
        p_ratio_bound: float,
        T: int,
        rng: np.random.Generator,
        t1_budget: Optional[int] = None,
        ra: Optional[float] = None,
        rb: Optional[float] = None,
        c_t1: float = 1.0,
    ):
        defaults = default_exploration_refs(p_max, p_ratio_bound)
        self.ra = defaults[0] if ra is None else ra
        self.rb = defaults[1] if rb is None else rb
        if not (p_ratio_bound < self.ra < self.rb < p_max):
            raise ValueError("need p_ratio_bound < ra < rb < p_max")
        self.p_max = p_max
        self.p_ratio_bound = p_ratio_bound
        self.T = T
        self.t1 = t1_budget if t1_budget is not None else default_t1_budget(p_max, T, c_t1)
        if self.t1 < 4:
            raise ValueError("exploration budget must be at least 4")
        self.learners = [
            LearnGreedyState(
                r_target=target,
                d=0.5 * (target - p_ratio_bound),
                budget=self.t1,
                p_max=p_max,
                rng=rng,
            )
            for target in (self.ra, self.rb)
        ]
        self.phase = 0
        self.t2: Optional[int] = None
        self.theta_hat: Optional[PolicyParams] = None
        self.exploit_prices: Optional[np.ndarray] = None
        self.degenerate = False

    def next_block(self, t: int, r: float) -> Sequence[float]:
        while self.phase < 2 and self.learners[self.phase].done:
            self.phase += 1
        if self.phase < 2:
            return self.learners[self.phase].next_block(t, r)
        if self.exploit_prices is None:
            self._start_exploit(t)
        return self.exploit_prices[t - self.t2 :]

    def observe(self, t: int, demands: Sequence[float]) -> None:
        if self.phase < 2:
            self.learners[self.phase].observe(t, demands)

    def _start_exploit(self, t: int) -> None:
        p_a = self.learners[0].estimate()
        p_b = self.learners[1].estimate()
        gap = self.rb - self.ra
        raw_c1 = (p_b - p_a) / gap
        # Project the estimate onto the parameter set the model constraints
        # imply, all of it known to the learner: c1 < 1/4; c2 >= p_max/2
        # (demand stays nonnegative at the ceiling price); and
        # c2 <= p_ratio_bound*(1 - 2*c1), since c2/(1 - 2*c1) equals the
        # ratio bounded by p_ratio_bound.  Jointly these cap c1 as below and
        # keep the exploitation solve feasible.
        c1_cap = min(0.249, 0.5 * (1.0 - self.p_max / (2.0 * self.p_ratio_bound)))
        c1 = min(max(raw_c1, 0.0), c1_cap)
        if c1 == raw_c1:
            c2 = (p_a * self.rb - p_b * self.ra) / gap
        else:
            # Slope was clamped: keep the affine map anchored at the center of
            # the learned prices instead of extrapolating with the raw slope.
            c2 = 0.5 * (p_a + p_b) - c1 * 0.5 * (self.ra + self.rb)
        c2 = min(max(c2, 0.5 * self.p_max), self.p_ratio_bound * (1.0 - 2.0 * c1))
        self.theta_hat = PolicyParams(c1, c2)
        self.t2 = t
        try:
            curve = solve_curve(self.theta_hat, self.p_max, t, self.T, self.p_max)
            self.exploit_prices = curve.prices
        except SolverError:
            # Clamped estimates can put the curve outside the solvable regime;
            # hold the ceiling price instead of crashing the episode.
            self.degenerate = True
            self.exploit_prices = np.full(self.T - t + 1, self.p_max)

    def meta(self) -> dict:
        reset_rounds = [learner.reset_rounds for learner in self.learners]
        out = {
            "t1_budget": self.t1,
            "ra": self.ra,
            "rb": self.rb,
            "t2": self.t2,
            "reset_rounds": sum(reset_rounds),
            "reset_rounds_by_phase": reset_rounds,
            "learn_rounds_by_phase": [learner.learn_rounds for learner in self.learners],
            "degenerate": self.degenerate,
            "p_hat_a": self.learners[0].estimate(),
            "p_hat_b": self.learners[1].estimate(),
        }
        if self.theta_hat is not None:
            out["c1_hat"] = self.theta_hat.c1
            out["c2_hat"] = self.theta_hat.c2
        return out


def make_policy(
    spec: dict, inst: Instance, T: int, r1: float, rng: np.random.Generator
) -> Policy:
    """Build a fresh single-episode policy from a config-style mapping."""
    kind = spec["kind"]
    if kind == "fixed":
        return PlannedPolicy(kind, np.full(T, float(spec["price"])))
    if kind == "optimal_fixed":
        return PlannedPolicy(kind, np.full(T, optimal_fixed_price(inst, r1, T)))
    if kind == "two_price":
        p_u, p_d, switch = two_price_policy(inst, float(spec["alpha"]), T)
        prices = np.full(T, p_d)
        prices[:switch] = p_u
        return PlannedPolicy(kind, prices)
    if kind == "myopic_greedy":
        return PlannedPolicy(kind, myopic_greedy_path(inst, r1, T))
    if kind == "markdown_oracle":
        theta = spec.get("theta")
        if theta is not None:
            theta = PolicyParams(float(theta[0]), float(theta[1]))
        return PlannedPolicy(kind, markdown_curve(inst, r1, T, theta).prices)
    if kind == "learn_then_earn":
        return LearnThenEarn(
            inst.p_max,
            inst.p_ratio_bound,
            T,
            rng,
            t1_budget=spec.get("t1_budget"),
            ra=spec.get("ra"),
            rb=spec.get("rb"),
            c_t1=1.0 if spec.get("c_t1") is None else float(spec["c_t1"]),
        )
    raise ValueError(f"unknown policy kind {kind!r}")
