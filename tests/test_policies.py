import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refprice import (
    Instance,
    PolicyParams,
    NoiseSpec,
    expected_demand,
    greedy_price,
    make_policy,
    myopic_greedy_step,
    optimal_fixed_price,
    reset_ref,
    revenue,
    run_episode,
    solve_curve,
    true_policy_params,
    two_price_policy,
)
from refprice.curve import harmonic_range
from refprice.harness import SimEnv
from refprice.policies import (
    RESET_TOL,
    LearnGreedyState,
    LearnThenEarn,
    fixed_price_value,
    two_price_per_round_gain,
)
from refprice.validate import brute_force_reset, random_instance


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
    best = grid[np.argmax([fixed_price_value(inst, g, 0.9, 200) for g in grid])]
    assert p == pytest.approx(best, abs=1e-9)


def test_fixed_price_values_match_per_point_loop():
    # The asymmetric grid search values the whole grid in one array call; it
    # must give the per-point formula's doubles, and so the same argmax.
    rng = np.random.default_rng(30)
    for _ in range(30):
        inst = random_instance(rng, symmetric=False)
        T = int(rng.integers(1, 3000))
        r1 = rng.uniform(0.0, inst.p_max)
        grid = np.linspace(0.0, inst.p_max, 10001)
        h = harmonic_range(1, T)
        loop = []
        for p in grid.tolist():
            eta = inst.eta_plus if r1 >= p else inst.eta_minus
            loop.append(T * p * (inst.b - inst.a * p) + eta * p * (r1 - p) * h)
        assert np.array_equal(fixed_price_value(inst, grid, r1, T), loop)
        assert optimal_fixed_price(inst, r1, T) == grid[int(np.argmax(loop))]


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
        assert myopic_greedy_step(inst, r) == pytest.approx(greedy_price(inst, r), abs=1e-12)


def test_myopic_greedy_zero_reference(inst_symmetric):
    inst = inst_symmetric
    p = myopic_greedy_step(inst, 0.0)
    grid = np.linspace(0.0, inst.p_max, 200001)
    values = grid * (inst.b - inst.a * grid - inst.eta_minus * grid)
    assert p == pytest.approx(grid[np.argmax(values)], abs=1e-4)


def test_myopic_greedy_grid_oracle(rng):
    for _ in range(100):
        inst = random_instance(rng, symmetric=bool(rng.integers(0, 2)))
        r = rng.uniform(0.0, inst.p_max)
        p = myopic_greedy_step(inst, r)
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
        learner = LearnGreedyState(
            r_target=r, d=d, budget=1000, p_max=inst.p_max, rng=FixedSign(kappa)
        )
        learner.p_hat, learner.s = p_hat, s
        block = learner.next_block(s, r)
        assert block == [p_hat + kappa * d]
        learner.observe(s, [expected_demand(inst, block[0], r)])
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
    while not learner.done and env.t <= env.T:
        block = learner.next_block(env.t, env.r)[: env.T - env.t + 1]
        learner.observe(env.t, env.post_block(block))
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
        while not learner.done:
            block = learner.next_block(env.t, env.r)
            learner.observe(env.t, env.post_block(block))
        errs.append(abs(learner.estimate() - true_p))
        assert learner.learn_rounds == 8000
        assert learner.learn_rounds + learner.reset_rounds == env.t - 1
    assert np.mean(errs) < 0.08


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
