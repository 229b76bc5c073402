"""Round-by-round oracles for the simulator and the exploration kernel.

``post`` posts one round into a ``SimEnv`` the scalar way: ``expected_demand``
with its domain checks, then one ``NoiseSpec.draw``.  ``BlockLearner`` is
``LearnGreedyState`` driven block by block, a reset plan or one learning
price per block, and ``run_blocks`` is the loop that drove it, with every
round posted through ``post``.  ``SimEnv.post_block`` and
``LearnGreedyState.run`` must match them bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from refprice.model import expected_demand
from refprice.policies import RESET_TOL, LearnGreedyState, reset_ref


def post(env, price: float) -> float:
    if env.t > env.T:
        raise RuntimeError("episode horizon exhausted")
    expected = expected_demand(env.inst, price, env.r)
    demand = expected + env.noise.draw(env.rng)
    i = env.t - 1
    env.prices[i] = price
    env.refs[i] = env.r
    env.demands[i] = demand
    env.total += price
    env.count += 1
    env.r = env.total / env.count
    env.t += 1
    return demand


@dataclass
class BlockLearner(LearnGreedyState):
    # (kappa, price) of the learning round awaiting its demand.
    pending: Optional[tuple[float, float]] = None

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


def run_blocks(learner: BlockLearner, env) -> None:
    while learner.s <= learner.budget and env.t <= env.T:
        block = learner.next_block(env.t, env.r)[: env.T - env.t + 1]
        learner.observe(env.t, [post(env, p) for p in block])
