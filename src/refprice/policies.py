"""Pricing policies: fixed, two-price, myopic greedy, markdown oracle, and the
explore-then-exploit learner with its reference-reset and greedy-price-learning
subroutines.

A policy is a single-episode object that posts into the simulator itself:
``play(env)`` posts every round of a ``SimEnv`` up to its horizon.  The
planned kinds are price paths fixed before the episode starts:
``make_policy`` builds each path and one ``PlannedPolicy`` posts it with one
``post_block``.  The best fixed price and the myopic greedy price are one
closed form, ``optimal_fixed_price``, at horizon T and at T = 1.  The
learner runs its two ``LearnGreedyState`` exploration kernels, which post
reset plans and learning rounds with local state, then posts its
exploitation tail as one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .curve import PriceCurve, SolverError, harmonic_range, solve_curve
from .model import BOUNDARY_TOL, DomainError, Instance, PolicyParams, true_policy_params

# A reference counts as "on target" when within this absolute tolerance; the
# reset plan lands targets exactly in exact arithmetic.
RESET_TOL = 1e-9
# Reset plans at least this long go to ``SimEnv.post_block``; shorter ones,
# and every learning round, are posted inline by ``LearnGreedyState.run``.
# Measured on a 2-vCPU Xeon (Python 3.11, numpy 2.4): a ``post_block`` call
# costs 31-35 us up to a few hundred rounds; an inline round costs 0.33 us
# when its shock is read from the draw buffer or is zero, and 0.77 us when it
# is a scalar generator call, so the break-even lies at 40-100 rounds.  The
# learner's plans are either short or far longer: on ``learning_sweep`` (4
# seeds) 11,749 plans are under 32 rounds and the other 12 at least 128, and
# c08's (budgets 10^2-10^4) are all under 32, so every cutover from 32 to
# 128 posts them the same way.
BLOCK_CUTOVER = 32
# Doubles that ``LearnGreedyState.run`` draws at a time into its buffer:
# about 20 ns each, and a rewind gives back half of them on average.  Must
# exceed BLOCK_CUTOVER, so one refill covers any inline plan.
DRAW_BUFFER = 1024


# ---------------------------------------------------------------------------
# closed-form baseline prices
# ---------------------------------------------------------------------------


def fixed_price_value(inst: Instance, p: float, r1: float, T: int) -> float:
    """Total expected revenue of posting price p for all T rounds from r1.

    Under the averaging dynamics r_t - p = (r1 - p)/t, so the reference term
    telescopes into a harmonic factor:  T*p*(b-a*p) + eta*p*(r1-p)*H_T.
    """
    inst.check_price(p)
    inst.check_price(r1, "reference")
    eta = inst.eta_plus if r1 >= p else inst.eta_minus
    h = harmonic_range(1, T)
    return T * p * (inst.b - inst.a * p) + eta * p * (r1 - p) * h


def optimal_fixed_price(inst: Instance, r1: float, T: int) -> float:
    """Best fixed price over T rounds starting from reference r1.

    The reference never crosses a fixed price, so ``fixed_price_value`` is a
    concave quadratic on each side of p = r1, with eta+ below and eta- above.
    Each side's maximizer is its vertex (T*b + eta*r1*H_T) / (2*(T*a + eta*H_T))
    clipped to [0, min(r1, p_max)] and [r1, p_max] respectively; the better
    of the two is the optimum.  A side whose vertex is clipped onto r1 never
    beats the other, whose interval also holds r1, so it loses without a
    value comparison: rounding cannot pick r1 over a vertex a few ulps away,
    and on symmetric instances the result is the vertex itself, to the bit.
    At T = 1 this is the single-round revenue maximizer at reference r1.
    """
    inst.check_price(r1, "reference")
    h = harmonic_range(1, T)

    def vertex(eta: float) -> float:
        return (T * inst.b + eta * r1 * h) / (2.0 * (T * inst.a + eta * h))

    gain = min(max(vertex(inst.eta_plus), 0.0), min(r1, inst.p_max))
    loss = min(max(vertex(inst.eta_minus), r1), inst.p_max)
    if loss == r1 or (
        gain != r1 and fixed_price_value(inst, gain, r1, T) >= fixed_price_value(inst, loss, r1, T)
    ):
        return gain
    return loss


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


# ---------------------------------------------------------------------------
# reference reset
# ---------------------------------------------------------------------------


def _reset_plan(t: int, r_t: float, r_target: float, p_max: float):
    """``reset_ref``'s plan as (extreme, n, correction): n rounds at the
    extreme price, then one at the correction; None when on target."""
    if not (0.0 <= r_t <= p_max and 0.0 <= r_target <= p_max):
        raise ValueError("references must lie in [0, p_max]")
    if abs(r_t - r_target) <= RESET_TOL:
        return None
    # The larger reference of the two is the target going up, else r_t.
    if r_t < r_target:
        extreme, scale = p_max, t * r_target
    else:
        extreme, scale = 0.0, t * r_t
    if r_target == extreme:  # the average reaches an extreme only if every price is it
        raise ValueError(f"target reference {r_target} is unreachable from {r_t}")
    # eps = 1e-12 * max(1, p_max, t * max(r_t, r_target)), without the calls.
    if scale < p_max:
        scale = p_max
    if scale < 1.0:
        scale = 1.0
    eps = 1e-12 * scale
    lo, hi = -eps, p_max + eps
    base = (t + 1) * r_target - t * r_t
    slope = r_target - extreme
    n = math.ceil((base - extreme) / (extreme - r_target) - 1e-9)
    if n < 0:
        n = 0
    while not lo <= base + n * slope <= hi:
        n += 1
    while n > 0 and lo <= base + (n - 1) * slope <= hi:
        n -= 1
    # min(max(correction, 0.0), p_max), without the calls.
    correction = base + n * slope
    if correction < 0.0:
        correction = 0.0
    elif correction > p_max:
        correction = p_max
    return extreme, n, correction


def reset_ref(t: int, r_t: float, r_target: float, p_max: float) -> list[float]:
    """Shortest price plan moving the running-average reference to r_target.

    The count-t average r_t plus the plan's prices must average to r_target:
    post the extreme price (p_max going up, 0 going down) for N rounds and a
    single interior correction price.  Membership uses the closed interval
    [0, p_max]; the open-interval variant can be empty on exact boundary hits.

    Returns the plan; it is empty when the reference is already on target.
    """
    plan = _reset_plan(t, r_t, r_target, p_max)
    return [] if plan is None else [plan[0]] * plan[1] + [plan[2]]


# ---------------------------------------------------------------------------
# zeroth-order greedy-price learning
# ---------------------------------------------------------------------------


@dataclass
class LearnGreedyState:
    """Reset-then-perturb learner for the greedy price at a fixed reference.

    ``run(env)`` is its exploration kernel.  While the reference is off
    target it posts the ``reset_ref`` plan towards r_target; on target, one
    learning round at a price perturbed by +-d with a fair sign drawn from
    ``rng``, then the projected one-point-gradient step on that round's
    demand.  Iterates live in [d, r_target - d]; the returned estimate is
    the average of the iterates before each update.  ``reset_rounds``
    counts the reset rounds posted: the horizon may cut a plan short.
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

    def __post_init__(self) -> None:
        if self.budget < 4:
            raise ValueError("learning budget must be at least 4")
        if self.d <= 0.0 or self.r_target - self.d <= self.d:
            raise ValueError("need 0 < d < r_target/2")
        self.p_hat = 0.5 * (self.d + (self.r_target - self.d))

    @property
    def learn_rounds(self) -> int:
        return self.s - 1

    def run(self, env) -> None:
        """Post reset plans, cut at the horizon, and learning rounds into
        ``env``, a ``SimEnv``, until the budget is spent or the horizon is
        reached.  Learning rounds and plans under ``BLOCK_CUTOVER`` rounds
        are posted here with ``post_block``'s arithmetic, domain checks and
        draws, the sign before the round's shock, and stored through
        memoryviews of the env's arrays; longer plans go to ``post_block``.
        A round's expected demand is computed once: its realized demand is
        that plus the shock, and its expected revenue the price times it.

        The draw source is chosen once per call.  Under bounded-uniform or
        no noise, when the signs come from the env's own generator and it is
        a ``PCG64``/``PCG64DXSM`` with no 32-bit half word pending, every
        sign and shock is one ``random()`` double, popped from a list drawn
        ``DRAW_BUFFER`` at a time and stored last draw first.  Before each
        ``post_block`` call and on every exit, raise included, the unused
        doubles, the list's length, are given back with
        ``bit_generator.advance``, which leaves the generator where the
        scalar calls leave it.  Otherwise (gaussian shocks, whose ziggurat
        takes a variable number of words; a sign generator of its own; any
        other bit generator) each draw is one scalar call.

        A price or reference out of range raises ``DomainError`` as the
        round-by-round loop does: the env's ``t`` and ``total`` (so its
        ``r``) and the learner's state are left after the last round posted,
        and ``reset_rounds`` does not count the plan that failed.
        """
        inst, noise, T, rng = env.inst, env.noise, env.T, env.rng
        a, b, eta_plus, eta_minus = inst.a, inst.b, inst.eta_plus, inst.eta_minus
        lo, hi = -BOUNDARY_TOL, inst.p_max + BOUNDARY_TOL
        unif, gauss = noise.kind == "bounded_uniform", noise.kind == "gaussian"
        low, width, std = -noise.half_width, 2.0 * noise.half_width, noise.std
        bitgen = rng.bit_generator
        buffered = (
            self.rng is rng
            and not gauss
            and type(bitgen) in (np.random.PCG64, np.random.PCG64DXSM)
            and not bitgen.state["has_uint32"]  # advance clears a pending half word
        )
        buf = []  # the unused buffered doubles, the next one last
        random, normal, coin = rng.random, rng.standard_normal, self.rng.random
        if buffered:
            random = coin = buf.pop
        columns = (env.prices, env.refs, env.demands, env.expected_revenue)
        prices, refs, demands, revenues = map(memoryview, columns)
        r_target, d, budget, p_max = self.r_target, self.d, self.budget, self.p_max
        step_scale, p_top = 2.0 * p_max, r_target - d
        t, total, r = env.t, env.total, env.r
        s, p_hat, sum_iterates = self.s, self.p_hat, self.sum_iterates
        try:
            while s <= budget and t <= T:
                learn = abs(r - r_target) <= RESET_TOL
                if learn:
                    m = 1
                else:
                    extreme, n, correction = _reset_plan(t, r, r_target, p_max)
                    m = min(n + 1, T - t + 1)
                    if m >= BLOCK_CUTOVER:
                        if buffered:
                            bitgen.advance(-len(buf))
                            buf.clear()
                        plan = np.full(m, extreme)
                        plan[n:] = correction  # nothing when the horizon cut the plan
                        env.t, env.total = t, total
                        try:
                            env.post_block(plan)
                        finally:  # it may raise after posting a chunk
                            t, total, r = env.t, env.total, env.r
                        self.reset_rounds += m
                        continue
                    plan = [extreme] * n + [correction] if m > n else [extreme] * m
                if buffered and len(buf) <= m:  # m rounds take at most m + 1 draws
                    bitgen.advance(-len(buf))
                    buf[:] = rng.random(DRAW_BUFFER)[::-1].tolist()
                if learn:
                    kappa = 1.0 if coin() < 0.5 else -1.0
                    plan = (p_hat + kappa * d,)
                for price in plan:
                    if not lo <= price <= hi:
                        raise DomainError(f"price {price} outside [0, {inst.p_max}]")
                    if not lo <= r <= hi:
                        raise DomainError(f"reference {r} outside [0, {inst.p_max}]")
                    gap = r - price
                    shock = low + width * random() if unif else std * normal() if gauss else 0.0
                    expected = b - a * price + (eta_plus if gap >= 0.0 else eta_minus) * gap
                    demand = expected + shock
                    prices[t - 1], refs[t - 1], demands[t - 1] = price, r, demand
                    revenues[t - 1] = price * expected
                    total += price
                    t += 1
                    r = total / t
                if learn:
                    sum_iterates += p_hat
                    g = price * demand * kappa / d
                    # min(max(p_hat + step, d), p_top), without the calls.
                    p_hat += g / (step_scale * s)
                    if p_hat < d:
                        p_hat = d
                    if p_top < p_hat:
                        p_hat = p_top
                    s += 1
                else:
                    self.reset_rounds += m
        finally:
            if buffered:
                bitgen.advance(-len(buf))
            env.t, env.total = t, total
            self.s, self.p_hat, self.sum_iterates = s, p_hat, sum_iterates

    def estimate(self) -> float:
        if self.s == 1:
            return self.p_hat
        return self.sum_iterates / (self.s - 1)


# ---------------------------------------------------------------------------
# episode policies
# ---------------------------------------------------------------------------


class Policy:
    """Pricing policy for a single episode."""

    kind = "abstract"

    def play(self, env) -> None:
        """Post every round of ``env``, a ``SimEnv``, from its current round
        to the horizon."""
        raise NotImplementedError

    def meta(self) -> dict:
        return {}


class PlannedPolicy(Policy):
    """A price path fixed before the episode starts, posted as one block."""

    def __init__(self, kind: str, prices: np.ndarray):
        self.kind = kind
        self.prices = prices

    def play(self, env) -> None:
        env.post_block(self.prices[env.t - 1 : env.T])


def myopic_greedy_path(inst: Instance, r1: float, T: int) -> np.ndarray:
    """The single-round revenue maximizer, ``optimal_fixed_price`` with
    T = 1, at every round.

    Its prices never depend on demand, so the whole path is rolled up front
    with the simulator's exact running total: the reference after round t is
    (r1 + p_1 + ... + p_t) / (t + 1), summed in order.
    """
    prices = np.empty(T)
    total, r = r1, r1
    for t in range(1, T + 1):
        p = optimal_fixed_price(inst, r, 1)
        prices[t - 1] = p
        total += p
        r = total / (t + 1)
    return prices


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
    """Exploration budget per phase: c * p_max^2 * sqrt(T / (1 + p_max)).
    Raises ``ValueError`` where that is not finite."""
    budget = c * p_max * p_max * math.sqrt(T / (1.0 + p_max))
    if not math.isfinite(budget):
        raise ValueError(
            f"exploration budget c * p_max^2 * sqrt(T / (1 + p_max)) is {budget}, c = {c!r}"
        )
    return max(4, int(round(budget)))


def default_exploration_refs(p_max: float, p_ratio_bound: float) -> tuple[float, float]:
    """Two reference targets inside the validity window (p_ratio_bound, p_max)."""
    delta = p_max - p_ratio_bound
    return p_max - 2.0 * delta / 3.0, p_max - delta / 3.0


class LearnThenEarn(Policy):
    """Explore-then-exploit learner.

    Learns greedy-price estimates at two reference targets by running one
    ``LearnGreedyState`` each into the episode in turn; then solves the
    two-by-two linear system for the policy parameter and posts the markdown
    curve computed from p_max at the entry round for the rest of the horizon.  Only p_max and
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
        self.t2: Optional[int] = None
        self.theta_hat: Optional[PolicyParams] = None
        self.degenerate = False

    def play(self, env) -> None:
        for learner in self.learners:
            learner.run(env)
        if env.t <= env.T:
            env.post_block(self._exploit_prices(env.t))

    def _exploit_prices(self, t: int) -> np.ndarray:
        """Estimate the policy parameter, then solve the tail from round t."""
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
            return solve_curve(self.theta_hat, self.p_max, t, self.T, self.p_max).prices
        except SolverError:
            # Clamped estimates can put the curve outside the solvable regime;
            # hold the ceiling price instead of crashing the episode.
            self.degenerate = True
            return np.full(self.T - t + 1, self.p_max)

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
    spec: dict, inst: Instance, T: int, r1: float, rng: Optional[np.random.Generator]
) -> Policy:
    """Build a policy from a config-style mapping.  Only ``learn_then_earn``
    uses ``rng``, and it is for one episode; every other kind is a planned
    path, built from no draw, which any number of episodes may share."""
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
