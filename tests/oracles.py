"""Round-by-round oracles for the simulator and the exploration kernel, and
the Monte-Carlo oracle of the gradient estimate.

``post`` posts one round into a ``SimEnv`` the scalar way: ``expected_demand``
with its domain checks, then one ``NoiseSpec.draw``; the round's expected
revenue is the price times that expected demand.  ``BlockLearner`` is
``LearnGreedyState`` driven block by block, a reset plan or one learning
price per block, and ``run_blocks`` is the loop that drove it, with every
round posted through ``post``.  ``SimEnv.post_block`` and
``LearnGreedyState.run`` must match them bit for bit.

``gradient_z_scores`` measures the one-point gradient estimate's bias by
Monte Carlo, the statistic of acceptance criterion c07.

``write_csv_rowwise`` is the row-by-row CSV writer, ``repr`` of every cell:
``harness._write_csv`` and its numpy cell formatter must match it byte for
byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from refprice.model import expected_demand
from refprice.policies import RESET_TOL, LearnGreedyState, reset_ref
from refprice.validate import random_instance


def post(env, price: float) -> float:
    if env.t > env.T:
        raise RuntimeError("episode horizon exhausted")
    expected = expected_demand(env.inst, price, env.r)
    demand = expected + env.noise.draw(env.rng)
    i = env.t - 1
    env.prices[i] = price
    env.refs[i] = env.r
    env.demands[i] = demand
    env.expected_revenue[i] = price * expected
    env.total += price
    env.t += 1
    env.r = env.total / env.t
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


def gradient_z_scores(rng, n_points, n_draws):
    """|z| of the Monte-Carlo mean of the one-point gradient estimate against
    the analytic revenue derivative, for each random point and shock kind
    (uniform on [-0.2, 0.2], gaussian with std 0.2) in turn, from
    ``n_draws`` shocks and signs each."""
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


def write_csv_rowwise(path, meta, header, blocks, footer=(), threads=1):
    """The row-by-row writer that the chunked ``_write_csv`` replaced: the
    ``# key=value`` lines of ``meta`` in key order, the header, every row as
    the ``repr`` of its ``.tolist()`` cells, then the footer.  ``threads`` is
    taken and ignored, so that this can stand in for ``_write_csv``."""
    with open(path, "w") as f:
        for key, value in sorted(meta.items()):
            f.write(f"# {key}={value}\n")
        f.write(header + "\n")
        for columns in blocks:
            cells = [np.asarray(column).tolist() for column in columns]
            f.writelines(",".join(map(repr, row)) + "\n" for row in zip(*cells))
        for line in footer:
            f.write(line + "\n")
