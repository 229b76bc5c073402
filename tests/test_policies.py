import json

import numpy as np
import pytest
from numpy.random import MT19937, PCG64, PCG64DXSM, SFC64, Philox
from hypothesis import given, settings
from hypothesis import strategies as st

from refprice import (
    Instance,
    PolicyParams,
    NoiseSpec,
    expected_demand,
    greedy_price,
    make_policy,
    optimal_fixed_price,
    reset_ref,
    revenue,
    run_episode,
    solve_curve,
    true_policy_params,
    two_price_policy,
)
from refprice.curve import harmonic_range
from refprice.harness import BLOCK_CHUNK, SimEnv
from refprice.model import DomainError
from refprice.policies import (
    RESET_TOL,
    LearnGreedyState,
    LearnThenEarn,
    fixed_price_value,
    two_price_per_round_gain,
)
from refprice.validate import brute_force_reset, random_instance

from oracles import BlockLearner, run_blocks


# ---------------------------------------------------------------------------
# fixed and two-price baselines
# ---------------------------------------------------------------------------


def test_optimal_fixed_price_zero_reference(inst_symmetric):
    inst = inst_symmetric
    T = 500
    h = harmonic_range(1, T)
    p = optimal_fixed_price(inst, 0.0, T)
    assert p == pytest.approx(T * inst.b / (2 * (T * inst.a + inst.eta_plus * h)), abs=1e-12)
    assert p < inst.b / (2 * inst.a)


def test_optimal_fixed_price_no_reference_effect():
    inst = Instance(a=1.0, b=1.5, eta_plus=0.0, eta_minus=0.0, p_max=1.0, p_ratio_bound=0.75)
    assert optimal_fixed_price(inst, 0.3, 100) == pytest.approx(0.75, abs=1e-12)


def test_optimal_fixed_price_grid_oracle(inst_symmetric):
    inst = inst_symmetric
    T, r1 = 300, 0.4
    p = optimal_fixed_price(inst, r1, T)
    grid = np.linspace(0.0, inst.p_max, 10001)
    values = [fixed_price_value(inst, g, r1, T) for g in grid]
    assert p == pytest.approx(grid[np.argmax(values)], abs=inst.p_max / 10000 + 1e-9)


def test_optimal_fixed_price_asymmetric_fallback():
    inst = Instance(a=1.0, b=1.6, eta_plus=0.2, eta_minus=0.5, p_max=1.0, p_ratio_bound=0.8)
    p = optimal_fixed_price(inst, 0.9, 200)
    grid = np.linspace(0.0, inst.p_max, 10001)
    values = [fixed_price_value(inst, g, 0.9, 200) for g in grid]
    assert fixed_price_value(inst, p, 0.9, 200) >= max(values)
    assert p == pytest.approx(grid[np.argmax(values)], abs=inst.p_max / 10000)


def grid_fixed_price_values(inst, r1, T):
    """Values of the fixed prices on a 10,001-point grid over [0, p_max],
    with ``fixed_price_value``'s arithmetic."""
    grid = np.linspace(0.0, inst.p_max, 10001)
    eta = np.where(r1 >= grid, inst.eta_plus, inst.eta_minus)
    return T * grid * (inst.b - inst.a * grid) + eta * grid * (r1 - grid) * harmonic_range(1, T)


def symmetric_fixed_price(inst, r1, T):
    """The closed form that served symmetric instances alone."""
    eta = inst.eta_plus
    h = harmonic_range(1, T)
    p = (T * inst.b + eta * r1 * h) / (2.0 * (T * inst.a + eta * h))
    return min(max(p, 0.0), inst.p_max)


def single_round_price(inst, r):
    """The single-round rule that the myopic policy used: the better of the
    two clipped vertices by ``revenue``."""
    gain_vertex = (inst.b + inst.eta_plus * r) / (2.0 * (inst.a + inst.eta_plus))
    cand_gain = min(max(gain_vertex, 0.0), min(r, inst.p_max))
    loss_vertex = (inst.b + inst.eta_minus * r) / (2.0 * (inst.a + inst.eta_minus))
    cand_loss = min(max(loss_vertex, r), inst.p_max)
    if revenue(inst, cand_gain, r) >= revenue(inst, cand_loss, r):
        return cand_gain
    return cand_loss


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    symmetric=st.booleans(),
    T=st.one_of(st.just(1), st.integers(1, 3000)),
    u=st.floats(0.0, 1.0),
    ulps=st.one_of(st.none(), st.integers(-3, 3)),
)
def test_optimal_fixed_price_is_the_two_vertex_optimum(seed, symmetric, T, u, ulps):
    inst = random_instance(np.random.default_rng(seed), symmetric=symmetric)
    if ulps is None:
        r1 = u * inst.p_max
    else:
        # r1 at the point where the eta+ vertex equals r1, moved by ulps.
        r1 = T * inst.b / (2.0 * T * inst.a + inst.eta_plus * harmonic_range(1, T))
        for _ in range(abs(ulps)):
            r1 = float(np.nextafter(r1, np.inf if ulps > 0 else -np.inf))
    p = optimal_fixed_price(inst, r1, T)
    best = np.max(grid_fixed_price_values(inst, r1, T))
    # Slack for the last bits of the value's rounding, not for the price.
    assert fixed_price_value(inst, p, r1, T) >= best - 1e-12 * abs(best)
    if symmetric:
        assert p.hex() == symmetric_fixed_price(inst, r1, T).hex()
    if T == 1 and ulps is None:
        assert p == single_round_price(inst, r1)


def test_two_price_reference_values(inst_symmetric):
    p_u, p_d = two_price_policy(inst_symmetric, 0.3)
    assert p_u == pytest.approx(1.2787, abs=5e-4)
    assert p_d == pytest.approx(0.926, abs=5e-4)
    assert two_price_per_round_gain(inst_symmetric, 0.3) == pytest.approx(0.0318, abs=5e-4)


def test_two_price_degenerates_without_reference_effect():
    inst = Instance(a=1.0, b=1.5, eta_plus=0.0, eta_minus=0.0, p_max=1.0, p_ratio_bound=0.75)
    p_u, p_d = two_price_policy(inst, 0.3)
    assert p_u == pytest.approx(0.75, abs=1e-12)
    assert p_d == pytest.approx(0.75, abs=1e-12)


def test_two_price_switch_round(inst_symmetric):
    p_u, p_d, switch = two_price_policy(inst_symmetric, 0.3, T=100000)
    assert switch == 30000


def test_two_price_rejects_bad_alpha(inst_symmetric):
    with pytest.raises(ValueError):
        two_price_policy(inst_symmetric, 0.0)
    with pytest.raises(ValueError):
        two_price_policy(inst_symmetric, 1.0)


# ---------------------------------------------------------------------------
# myopic greedy
# ---------------------------------------------------------------------------


def test_myopic_greedy_in_validity_range(inst_symmetric):
    inst = inst_symmetric
    for r in (1.05, 1.2, inst.p_max):
        assert optimal_fixed_price(inst, r, 1) == pytest.approx(greedy_price(inst, r), abs=1e-12)


def test_myopic_greedy_zero_reference(inst_symmetric):
    inst = inst_symmetric
    p = optimal_fixed_price(inst, 0.0, 1)
    grid = np.linspace(0.0, inst.p_max, 200001)
    values = grid * (inst.b - inst.a * grid - inst.eta_minus * grid)
    assert p == pytest.approx(grid[np.argmax(values)], abs=1e-4)


def test_myopic_greedy_grid_oracle(rng):
    for _ in range(100):
        inst = random_instance(rng, symmetric=bool(rng.integers(0, 2)))
        r = rng.uniform(0.0, inst.p_max)
        p = optimal_fixed_price(inst, r, 1)
        grid = np.linspace(0.0, inst.p_max, 20001)
        values = [revenue(inst, g, r) for g in grid]
        best = grid[int(np.argmax(values))]
        assert revenue(inst, p, r) >= max(values) - 1e-9
        assert p == pytest.approx(best, abs=1e-4)


# ---------------------------------------------------------------------------
# reference reset
# ---------------------------------------------------------------------------


def test_reset_ref_trivial():
    assert reset_ref(5, 0.7, 0.7, 1.0) == []


def test_reset_ref_example():
    plan = reset_ref(3, 0.5, 0.6, 1.0)
    assert len(plan) == 1
    assert plan[0] == pytest.approx(0.9, abs=1e-12)
    assert (3 * 0.5 + plan[0]) / 4 == pytest.approx(0.6, abs=1e-15)


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(
    p_max=st.floats(0.5, 2.0),
    t=st.integers(1, 2000),
    r_share=st.floats(0.0, 1.0),
    target_share=st.floats(0.05, 0.95),
)
def test_reset_ref_matches_brute_force(p_max, t, r_share, target_share):
    # Every plan stays in [0, p_max], lands on the target and is as short as
    # the brute force allows.  The brute force only searches up to the plan's
    # length: its default cap runs out for targets near 0.
    r_t = r_share * p_max
    r_target = target_share * p_max
    plan = reset_ref(t, r_t, r_target, p_max)
    assert all(0.0 <= q <= p_max for q in plan)
    achieved = (t * r_t + sum(plan)) / (t + len(plan))
    assert abs(achieved - r_target) <= RESET_TOL
    if abs(r_t - r_target) <= RESET_TOL:
        assert plan == []
    else:
        assert brute_force_reset(t, r_t, r_target, p_max, n_max=len(plan)) == len(plan) - 1


def test_reset_ref_unreachable_targets():
    with pytest.raises(ValueError):
        reset_ref(5, 0.5, 1.0, 1.0)  # exact ceiling from below
    with pytest.raises(ValueError):
        reset_ref(5, 0.5, 0.0, 1.0)  # exact zero from above


# ---------------------------------------------------------------------------
# greedy-price learning
# ---------------------------------------------------------------------------


def test_gradient_estimate_exact_under_enumerated_signs(inst_symmetric):
    # average the two-point estimates at p=0.5, d=0.1, r=1: exactly dR/dp
    inst = inst_symmetric
    p, d, r = 0.5, 0.1, 1.0
    values = []
    for kappa in (-1.0, 1.0):
        price = p + kappa * d
        values.append(price * expected_demand(inst, price, r) * kappa / d)
    avg = 0.5 * sum(values)
    analytic = inst.b + inst.eta_plus * r - 2 * (inst.a + inst.eta_plus) * p
    assert analytic == pytest.approx(1.0, abs=1e-12)
    assert avg == pytest.approx(analytic, abs=1e-12)


class FixedSign:
    """Stands in for the learner's rng: ``random()`` picks the sign kappa."""

    def __init__(self, kappa):
        self.u = 0.25 if kappa > 0 else 0.75

    def random(self):
        return self.u


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("s", [7, 50, 400])
def test_greedy_learner_mean_step_is_the_derivative(symmetric, s):
    # With zero shocks the revenue is quadratic in the price, so the steps
    # taken after kappa = +1 and kappa = -1 average to exactly dR/dp over
    # 2 p_max s; an estimator without kappa or with 1/(2d) misses it.  Both
    # prices stay below r, so only eta_plus enters the demand.
    inst = random_instance(np.random.default_rng(11 + symmetric), symmetric=symmetric)
    r = inst.p_ratio_bound + 0.5 * (inst.p_max - inst.p_ratio_bound)
    d = 0.25 * r
    p_hat = 0.45 * r
    steps = []
    for kappa in (1.0, -1.0):
        # Budget s: the kernel posts exactly one learning round, on target.
        learner = LearnGreedyState(r_target=r, d=d, budget=s, p_max=inst.p_max, rng=FixedSign(kappa))
        learner.p_hat, learner.s = p_hat, s
        env = SimEnv(inst, NoiseSpec.none(), 5, r, np.random.default_rng(0))
        learner.run(env)
        assert env.t == 2 and learner.s == s + 1 and learner.reset_rounds == 0
        assert env.prices[0] == p_hat + kappa * d
        assert env.demands[0] == expected_demand(inst, env.prices[0], r)
        assert d < learner.p_hat < r - d  # interior: the projection did not clip
        steps.append(learner.p_hat - p_hat)
    analytic = inst.b + inst.eta_plus * r - 2.0 * (inst.a + inst.eta_plus) * p_hat
    assert 0.5 * (steps[0] + steps[1]) == pytest.approx(
        analytic / (2.0 * inst.p_max * s), abs=1e-12
    )


def test_greedy_learner_iterates_stay_projected(inst_symmetric):
    inst = inst_symmetric
    r_target = 1.2
    d = 0.5 * (r_target - inst.p_ratio_bound)
    rng = np.random.default_rng(5)
    env = SimEnv(inst, NoiseSpec.gaussian(3.0), 3000, r_target, rng)
    learner = LearnGreedyState(r_target=r_target, d=d, budget=500, p_max=inst.p_max, rng=rng)
    # Raising the budget one round at a time checks every iterate.
    for budget in range(1, 501):
        learner.budget = budget
        learner.run(env)
        assert learner.learn_rounds == budget or env.t > env.T
        assert d <= learner.p_hat <= r_target - d
    assert d <= learner.estimate() <= r_target - d


def test_greedy_learner_converges_with_noise(inst_symmetric):
    inst = inst_symmetric
    r_target = 1.0 + 0.5 * (inst.p_max - 1.0)
    true_p = greedy_price(inst, r_target)
    errs = []
    for seed in range(6):
        rng = np.random.default_rng(100 + seed)
        env = SimEnv(inst, NoiseSpec.bounded_uniform(0.1), 40000, r_target, rng)
        learner = LearnGreedyState(
            r_target=r_target,
            d=0.5 * (r_target - inst.p_ratio_bound),
            budget=8000,
            p_max=inst.p_max,
            rng=rng,
        )
        learner.run(env)
        errs.append(abs(learner.estimate() - true_p))
        assert learner.learn_rounds == 8000
        assert learner.learn_rounds + learner.reset_rounds == env.t - 1
    assert np.mean(errs) < 0.08


NOISES = (NoiseSpec.none(), NoiseSpec.bounded_uniform(0.3), NoiseSpec.gaussian(0.4))
# The conftest instance; hypothesis tests take no function-scoped fixtures.
INST = Instance(a=1.0, b=2.0, eta_plus=0.5, eta_minus=0.5, p_max=4.0 / 3.0, p_ratio_bound=1.0)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    noise=st.sampled_from(NOISES),
    budget=st.integers(4, 300),
    split=st.integers(1, 300),
    T=st.one_of(st.integers(1, 400), st.integers(BLOCK_CHUNK - 100, BLOCK_CHUNK + 2000)),
    seed=st.integers(0, 2**32 - 1),
    r_target=st.one_of(
        st.floats(INST.p_max - 1e-6, INST.p_max - 5e-7),
        st.floats(5e-7, 1e-6),
        st.floats(INST.p_max - 0.06, INST.p_max - 0.005),
        st.floats(0.05, INST.p_max - 0.05),
    ),
    d_share=st.floats(0.01, 0.99),
    r1_share=st.one_of(st.none(), st.floats(0.0, 1.0)),
)
def test_kernel_matches_block_loop(noise, budget, split, T, seed, r_target, d_share, r1_share):
    # The kernel against the per-block loop with every round posted by the
    # scalar oracle.  Targets within 1e-6 of p_max or of 0 make plans that
    # the horizon cuts, some past BLOCK_CHUNK; targets 0.005-0.06 below p_max
    # make plans of tens of rounds, around BLOCK_CUTOVER.  The kernel runs in
    # two calls, the budget raised in between.
    inst = INST
    d = 0.5 * d_share * r_target
    r1 = r_target if r1_share is None else r1_share * inst.p_max
    sides = []
    for kernel in (True, False):
        rng = np.random.default_rng(seed)
        env = SimEnv(inst, noise, T, r1, rng)
        cls = LearnGreedyState if kernel else BlockLearner
        learner = cls(r_target=r_target, d=d, budget=budget, p_max=inst.p_max, rng=rng)
        if kernel:
            learner.budget = min(split, budget)
            learner.run(env)
            learner.budget = budget
            learner.run(env)
        else:
            run_blocks(learner, env)
        n = env.t - 1
        sides.append(
            (
                [x.hex() for x in (learner.estimate(), learner.p_hat, learner.sum_iterates, env.r, env.total)],
                (learner.s, learner.reset_rounds, env.t),
                (env.prices[:n].tobytes(), env.refs[:n].tobytes(), env.demands[:n].tobytes()),
                env.expected_revenue[:n].tobytes(),
                rng.bit_generator.state,
            )
        )
    assert sides[0] == sides[1]


BIT_GENERATORS = (PCG64, PCG64DXSM, Philox, SFC64, MT19937)


@pytest.mark.parametrize("noise", NOISES, ids=lambda noise: noise.kind)
@pytest.mark.parametrize("own_coins", [False, True], ids=["env_coins", "own_coins"])
@pytest.mark.parametrize(
    "bitgen, half_word",
    [(cls, False) for cls in BIT_GENERATORS] + [(PCG64, True), (PCG64DXSM, True)],
    ids=lambda x: x.__name__ if isinstance(x, type) else ("half_word" if x else "whole"),
)
def test_kernel_matches_block_loop_for_every_draw_source(bitgen, half_word, own_coins, noise):
    # The kernel buffers its draws only from a PCG64 or PCG64DXSM that also
    # gives the signs and holds no pending 32-bit half word; with any other
    # bit generator, signs of their own or a pending half word it draws one
    # scalar at a time.  Either way both generators end where the block
    # loop leaves them.  A target 0.006 below p_max makes reset plans on both
    # sides of BLOCK_CUTOVER until the horizon, whose 6,000 shocks take more
    # than one DRAW_BUFFER.
    r_target = INST.p_max - 0.006
    sides = []
    for kernel in (True, False):
        rng = np.random.Generator(bitgen(7))
        coins = np.random.Generator(bitgen(8)) if own_coins else rng
        if half_word:
            rng.integers(0, 10, dtype=np.int32)
        env = SimEnv(INST, noise, 6000, 0.5, rng)
        cls = LearnGreedyState if kernel else BlockLearner
        learner = cls(r_target=r_target, d=0.3 * r_target, budget=6000, p_max=INST.p_max, rng=coins)
        if kernel:
            learner.run(env)
        else:
            run_blocks(learner, env)
        n = env.t - 1
        sides.append(
            (
                [x.hex() for x in (learner.p_hat, learner.sum_iterates, env.total)],
                (learner.s, learner.reset_rounds, env.t),
                (env.prices[:n].tobytes(), env.refs[:n].tobytes(), env.demands[:n].tobytes()),
                env.expected_revenue[:n].tobytes(),
                # Philox, SFC64 and MT19937 keep arrays in their state.
                json.dumps([rng.bit_generator.state, coins.bit_generator.state], default=np.ndarray.tolist),
            )
        )
    assert sides[0][1][2] == 6001
    assert sides[0] == sides[1]


@pytest.mark.parametrize("T", [1, 10**5])
def test_kernel_out_of_range_price(inst_symmetric, T):
    # A learner whose p_max exceeds the instance's plans its reset at a price
    # the instance rejects.  The plan has 99,999 rounds: cut to one round it
    # is posted inline, whole it goes to ``post_block``; both fail with
    # DomainError before the round is posted.
    env = SimEnv(inst_symmetric, NoiseSpec.none(), T, 1.0, np.random.default_rng(0))
    learner = LearnGreedyState(r_target=1.99999, d=0.1, budget=10, p_max=2.0, rng=env.rng)
    with pytest.raises(DomainError):
        learner.run(env)
    assert env.t == 1


@pytest.mark.parametrize("noise", NOISES, ids=lambda noise: noise.kind)
def test_kernel_out_of_range_price_leaves_the_generator_as_the_block_loop(noise):
    # A learning round at r1 = r_target draws its sign and shock; then the
    # reset plan's correction, above the instance's p_max, fails with
    # DomainError.  The kernel's unused buffered draws are given back on the
    # way out, so the generator is where the block loop left it, and the
    # env and the learner are left after the learning round, with the
    # failed plan not counted.
    sides = []
    for cls in (LearnGreedyState, BlockLearner):
        rng = np.random.default_rng(5)
        env = SimEnv(INST, noise, 100, 1.2, rng)
        learner = cls(r_target=1.2, d=0.1, budget=10, p_max=2.0, rng=rng)
        with pytest.raises(DomainError):
            if cls is LearnGreedyState:
                learner.run(env)
            else:
                run_blocks(learner, env)
        sides.append(
            (
                env.prices[:1].tobytes(),
                env.demands[:1].tobytes() + env.expected_revenue[:1].tobytes(),
                rng.bit_generator.state,
                [x.hex() for x in (env.total, env.r, learner.p_hat, learner.sum_iterates)],
                (env.t, learner.s, learner.reset_rounds),
            )
        )
    assert sides[0][4] == (2, 2, 0)
    assert sides[0] == sides[1]


# ---------------------------------------------------------------------------
# learn-then-earn
# ---------------------------------------------------------------------------


def test_learn_then_earn_low_noise(inst_symmetric):
    inst = inst_symmetric
    T = 40000
    spec = {"kind": "learn_then_earn", "c_t1": 4.0}
    rec = run_episode(inst, NoiseSpec.none(), spec, T, inst.p_max, 11)
    m = rec.meta
    theta = true_policy_params(inst)
    d_max = 0.5 * (m["rb"] - inst.p_ratio_bound)
    tol = 10.0 * d_max / (m["rb"] - m["ra"])
    assert abs(m["c1_hat"] - theta.c1) <= tol
    assert abs(m["c2_hat"] - theta.c2) <= tol
    # exploitation curve is within the (loose) curve sensitivity bound
    curve_hat = solve_curve(
        true_policy_params(inst), inst.p_max, m["t2"], T, inst.p_max
    )
    curve_est = solve_curve(
        PolicyParams(m["c1_hat"], m["c2_hat"]), inst.p_max, m["t2"], T, inst.p_max
    )
    dtheta = np.hypot(m["c1_hat"] - theta.c1, m["c2_hat"] - theta.c2)
    bound = 10.0 * inst.p_max * max(dtheta, 1e-3) * (1.0 + np.log(T / m["t2"]))
    assert np.max(np.abs(curve_hat.prices - curve_est.prices)) <= bound


def test_learn_then_earn_prices_in_range(inst_symmetric):
    inst = inst_symmetric
    rec = run_episode(
        inst, NoiseSpec.gaussian(0.5), {"kind": "learn_then_earn", "c_t1": 2.0}, 3000, 0.5, 3
    )
    assert np.all(rec.price >= 0.0) and np.all(rec.price <= inst.p_max)
    assert rec.meta["degenerate"] is False


def test_learn_then_earn_validates_targets(inst_symmetric):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        LearnThenEarn(inst_symmetric.p_max, 1.0, 1000, rng, ra=1.3, rb=1.2)
    with pytest.raises(ValueError):
        LearnThenEarn(inst_symmetric.p_max, 1.0, 1000, rng, ra=0.9, rb=1.2)
    with pytest.raises(ValueError):
        LearnThenEarn(inst_symmetric.p_max, 1.0, 1000, rng, t1_budget=3)


def test_default_t1_budget_formula():
    from refprice.policies import default_t1_budget

    p_max, T = 4 / 3, 100000
    expect = round(1.0 * p_max**2 * np.sqrt(T / (1 + p_max)))
    assert default_t1_budget(p_max, T) == expect
    assert default_t1_budget(p_max, T, c=2.0) == round(2.0 * p_max**2 * np.sqrt(T / (1 + p_max)))
    assert default_t1_budget(0.5, 10) == 4  # floor


def test_make_policy_rejects_unknown(inst_symmetric):
    with pytest.raises(ValueError):
        make_policy({"kind": "nope"}, inst_symmetric, 10, 0.5, np.random.default_rng(0))
