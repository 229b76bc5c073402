import numpy as np
import pytest

from refprice import (
    DomainError,
    Instance,
    NoiseSpec,
    PolicyParams,
    expected_demand,
    greedy_price,
    revenue,
    sample_demand,
    true_policy_params,
)
from refprice.validate import random_instance

TOL = 1e-9


def test_expected_demand_examples(inst_symmetric):
    inst = inst_symmetric
    assert expected_demand(inst, 1.0, 1.0) == pytest.approx(1.0, abs=TOL)
    assert expected_demand(inst, 0.6, 1.0) == pytest.approx(1.6, abs=TOL)
    # loss side: strong loss aversion needs a tight ceiling to keep demand
    # nonnegative, so evaluate the branch at an in-range price
    lossy = Instance(a=1.0, b=2.0, eta_plus=0.5, eta_minus=0.9, p_max=1.05, p_ratio_bound=1.02)
    assert expected_demand(lossy, 1.04, 1.0) == pytest.approx(2 - 1.04 - 0.9 * 0.04, abs=TOL)


def test_demand_continuous_at_reference(rng):
    for _ in range(20):
        inst = random_instance(rng, symmetric=False)
        r = rng.uniform(0, inst.p_max)
        below = expected_demand(inst, r - 1e-12, r) if r > 1e-12 else expected_demand(inst, 0.0, r)
        at = expected_demand(inst, r, r)
        assert at == pytest.approx(below, abs=1e-9)
        assert at == pytest.approx(inst.b - inst.a * r, abs=TOL)


def test_revenue_examples(inst_symmetric):
    inst = inst_symmetric
    assert revenue(inst, 0.0, 0.7) == 0.0
    assert revenue(inst, 0.6, 1.0) == pytest.approx(0.96, abs=TOL)
    # constrained maximizer at r=1 is (b + eta*r) / (2(a + eta)) = 2.5/3
    vertex = (inst.b + inst.eta_plus * 1.0) / (2 * (inst.a + inst.eta_plus))
    assert vertex == pytest.approx(2.5 / 3.0, abs=TOL)
    grid = np.linspace(0.0, 1.0, 100001)
    values = grid * (inst.b - inst.a * grid + inst.eta_plus * (1.0 - grid))
    assert grid[np.argmax(values)] == pytest.approx(vertex, abs=1e-4)


def test_revenue_concavity_below_reference(rng):
    # second difference of a quadratic is exact for any step
    for _ in range(10):
        inst = random_instance(rng, symmetric=False)
        r = rng.uniform(0.3 * inst.p_max, inst.p_max)
        h = 0.05 * r
        p = rng.uniform(h, r - h)
        second = (revenue(inst, p + h, r) - 2 * revenue(inst, p, r) + revenue(inst, p - h, r)) / h**2
        assert second == pytest.approx(-2 * (inst.a + inst.eta_plus), abs=1e-6)


def test_greedy_price_examples(inst_symmetric):
    inst = inst_symmetric
    assert greedy_price(inst, 1.3) == pytest.approx((2.0 + 0.65) / 3.0, abs=TOL)
    theta = true_policy_params(inst)
    assert theta.c1 == pytest.approx(0.5 / 3.0, abs=TOL)
    assert theta.c2 == pytest.approx(2.0 / 3.0, abs=TOL)


def test_greedy_price_domain(inst_symmetric):
    with pytest.raises(DomainError):
        greedy_price(inst_symmetric, 0.9)  # below p_ratio_bound
    with pytest.raises(DomainError):
        greedy_price(inst_symmetric, 1.5)  # above p_max


def test_greedy_price_grid_oracle(rng):
    for _ in range(100):
        inst = random_instance(rng, symmetric=False)
        r = rng.uniform(inst.p_ratio_bound + 1e-6, inst.p_max)
        p = greedy_price(inst, r)
        grid = np.arange(0.0, r + 1e-5, 1e-5)
        values = grid * (inst.b - inst.a * grid + inst.eta_plus * (r - grid))
        assert p == pytest.approx(grid[np.argmax(values)], abs=1e-4)
        d = 0.5 * (r - inst.p_ratio_bound)
        assert d - 1e-12 <= p <= r - d + 1e-12


def test_greedy_price_affine(rng):
    for _ in range(20):
        inst = random_instance(rng, symmetric=False)
        theta = true_policy_params(inst)
        lo = inst.p_ratio_bound
        r1 = rng.uniform(lo + 1e-6, inst.p_max)
        r2 = rng.uniform(lo + 1e-6, inst.p_max)
        assert greedy_price(inst, r1) - greedy_price(inst, r2) == pytest.approx(
            theta.c1 * (r1 - r2), abs=1e-15
        )


def test_instance_validation():
    # maximizer must be interior: b/(2a) < p_max
    with pytest.raises(ValueError):
        Instance(a=1.0, b=2.0, eta_plus=0.1, eta_minus=0.1, p_max=1.0, p_ratio_bound=0.9)
    # demand negative at (p_max, 0)
    with pytest.raises(ValueError):
        Instance(a=1.0, b=1.2, eta_plus=0.1, eta_minus=0.9, p_max=1.0, p_ratio_bound=0.7)
    # p_ratio_bound below b/(2a)
    with pytest.raises(ValueError):
        Instance(a=1.0, b=2.0, eta_plus=0.5, eta_minus=0.5, p_max=4 / 3, p_ratio_bound=0.5)
    # p_ratio_bound must stay below p_max
    with pytest.raises(ValueError):
        Instance(a=1.0, b=2.0, eta_plus=0.5, eta_minus=0.5, p_max=4 / 3, p_ratio_bound=4 / 3)
    with pytest.raises(ValueError):
        Instance(a=1.0, b=-2.0, eta_plus=0.5, eta_minus=0.5, p_max=4 / 3, p_ratio_bound=1.0)
    # boundary case (demand exactly zero at a corner) is accepted
    Instance(a=1.0, b=2.0, eta_plus=0.5, eta_minus=0.5, p_max=4 / 3, p_ratio_bound=1.0)


def test_policy_params_validation():
    PolicyParams(0.0, 0.5)
    PolicyParams(0.49, 1.0)
    with pytest.raises(ValueError):
        PolicyParams(0.5, 1.0)
    with pytest.raises(ValueError):
        PolicyParams(-0.1, 1.0)
    with pytest.raises(ValueError):
        PolicyParams(0.1, 0.0)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec("weird")
    with pytest.raises(ValueError):
        NoiseSpec.bounded_uniform(-0.1)
    with pytest.raises(ValueError):
        NoiseSpec.gaussian(-1.0)


@pytest.mark.parametrize("noise", [NoiseSpec.bounded_uniform(0.3), NoiseSpec.gaussian(0.2)])
def test_scalar_draw_matches_generator_calls(noise):
    # draw() must return the doubles of rng.uniform / rng.normal bit for bit
    # and leave the generator in the same state.
    ours, ref = np.random.default_rng(11), np.random.default_rng(11)
    got = [noise.draw(ours) for _ in range(20000)]
    if noise.kind == "bounded_uniform":
        want = [ref.uniform(-noise.half_width, noise.half_width) for _ in range(20000)]
    else:
        want = [ref.normal(0.0, noise.std) for _ in range(20000)]
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert ours.bit_generator.state == ref.bit_generator.state


def test_sample_demand_degenerate(inst_symmetric, rng):
    inst = inst_symmetric
    exp = expected_demand(inst, 0.9, 1.1)
    assert sample_demand(inst, NoiseSpec.none(), 0.9, 1.1, rng) == exp
    assert sample_demand(inst, NoiseSpec.gaussian(0.0), 0.9, 1.1, rng) == exp


def test_sample_demand_bounded_mean(inst_symmetric):
    inst = inst_symmetric
    eps = 0.3
    noise = NoiseSpec.bounded_uniform(eps)
    rng = np.random.default_rng(7)
    n = 10**6
    exp = expected_demand(inst, 0.9, 1.1)
    draws = exp + noise.draw_array(rng, n)
    tol = 4.0 * eps / np.sqrt(3.0 * n)
    assert abs(draws.mean() - exp) < tol
    # scalar path draws the same distribution
    rng2 = np.random.default_rng(7)
    scalar = np.array([sample_demand(inst, noise, 0.9, 1.1, rng2) for _ in range(2000)])
    assert abs(scalar.mean() - exp) < 4.0 * eps / np.sqrt(3.0 * 2000)


def test_sample_demand_not_clamped():
    # realized demand may go negative: only the mean is constrained
    inst = Instance(a=1.0, b=1.5, eta_plus=0.4, eta_minus=0.4, p_max=1.0, p_ratio_bound=0.75)
    noise = NoiseSpec.gaussian(5.0)
    rng = np.random.default_rng(0)
    draws = [sample_demand(inst, noise, 1.0, 0.0, rng) for _ in range(200)]
    assert min(draws) < 0.0
