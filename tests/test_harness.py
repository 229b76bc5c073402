import dataclasses
import os
import signal
import struct
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refprice import (
    Instance,
    NoiseSpec,
    clairvoyant_value,
    regret_sweep,
    run_episode,
    revenue,
)
from refprice import harness
from refprice.curve import harmonic_range
from refprice.config import load_config
from refprice.harness import (
    BLOCK_CHUNK,
    CSV_CELLS,
    RegretRecord,
    SimEnv,
    _write_csv,
    baseline_kind,
    fit_loglog_slope,
    write_episodes_csv,
)
from refprice.model import DomainError
from refprice.policies import Policy
from refprice.validate import random_instance

from conftest import count_forks, reap_children
from oracles import post, write_csv_rowwise

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def test_fixed_price_episode_matches_closed_form(inst_symmetric):
    inst = inst_symmetric
    T, p, r1 = 1000, 0.9, 0.4
    rec = run_episode(inst, NoiseSpec.none(), {"kind": "fixed", "price": p}, T, r1, 0)
    h = harmonic_range(1, T)
    closed = T * p * (inst.b - inst.a * p) + inst.eta_plus * p * (r1 - p) * h
    assert rec.expected_total == pytest.approx(closed, rel=1e-9)
    assert rec.realized_total == pytest.approx(rec.expected_total, rel=1e-9)


def test_single_round_myopic_is_max_revenue(inst_symmetric):
    inst = inst_symmetric
    r1 = 0.8
    rec = run_episode(inst, NoiseSpec.none(), {"kind": "myopic_greedy"}, 1, r1, 0)
    grid = np.linspace(0, inst.p_max, 20001)
    best = max(revenue(inst, g, r1) for g in grid)
    assert rec.expected_total == pytest.approx(best, abs=1e-6)


def test_episode_determinism(inst_symmetric):
    spec = {"kind": "learn_then_earn", "c_t1": 2.0}
    a = run_episode(inst_symmetric, NoiseSpec.gaussian(0.2), spec, 800, 1.2, 42)
    b = run_episode(inst_symmetric, NoiseSpec.gaussian(0.2), spec, 800, 1.2, 42)
    assert np.array_equal(a.price, b.price)
    assert np.array_equal(a.demand, b.demand)
    assert a.expected_total == b.expected_total
    c = run_episode(inst_symmetric, NoiseSpec.gaussian(0.2), spec, 800, 1.2, 43)
    assert not np.array_equal(a.demand, c.demand)


def test_row_count_and_total_consistency(inst_symmetric):
    rec = run_episode(inst_symmetric, NoiseSpec.bounded_uniform(0.1), {"kind": "optimal_fixed"}, 250, 0.3, 9)
    assert len(rec.t) == 250
    assert rec.expected_total == pytest.approx(np.sum(rec.expected_revenue), rel=1e-6)
    assert rec.realized_total == pytest.approx(np.sum(rec.realized_revenue), rel=1e-6)


def test_phase_accounting_sums_to_horizon(inst_symmetric):
    T = 5000
    rec = run_episode(
        inst_symmetric, NoiseSpec.bounded_uniform(0.1), {"kind": "learn_then_earn", "c_t1": 2.0}, T, 1.2, 7
    )
    m = rec.meta
    explore_rounds = sum(m["learn_rounds_by_phase"]) + m["reset_rounds"]
    assert m["t2"] == explore_rounds + 1
    exploit_rounds = T - m["t2"] + 1
    assert explore_rounds + exploit_rounds == T


def test_out_of_range_price_is_hard_failure(inst_symmetric):
    class Rogue(Policy):
        kind = "rogue"

        def play(self, env):
            env.post_block([inst_symmetric.p_max + 0.5] * (env.T - env.t + 1))

    with pytest.raises(DomainError):
        run_episode(inst_symmetric, NoiseSpec.none(), Rogue(), 10, 0.5, 0)


def test_unfilled_horizon_is_an_error(inst_symmetric):
    class Short(Policy):
        kind = "short"

        def play(self, env):
            env.post_block([0.5] * (env.T - 1))

    with pytest.raises(ValueError, match="round 10"):
        run_episode(inst_symmetric, NoiseSpec.none(), Short(), 10, 0.5, 0)


NOISES = (NoiseSpec.none(), NoiseSpec.bounded_uniform(0.1), NoiseSpec.gaussian(0.2))
# The conftest instance; hypothesis tests take no function-scoped fixtures.
INST = Instance(a=1.0, b=2.0, eta_plus=0.5, eta_minus=0.5, p_max=4.0 / 3.0, p_ratio_bound=1.0)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    noise=st.sampled_from(NOISES),
    blocks=st.lists(
        st.one_of(
            st.integers(1, 16),
            st.integers(BLOCK_CHUNK - 2, BLOCK_CHUNK + 16),
        ),
        min_size=1,
        max_size=4,
    ),
    r_share=st.floats(0.0, 1.0),
)
def test_post_block_matches_scalar_post(seed, noise, blocks, r_share):
    inst = INST
    T = sum(blocks)
    prices = np.random.default_rng(seed).uniform(0.0, inst.p_max, T)
    r1 = r_share * inst.p_max
    block = SimEnv(inst, noise, T, r1, np.random.default_rng(seed))
    scalar = SimEnv(inst, noise, T, r1, np.random.default_rng(seed))
    lo = 0
    for n in blocks:
        demands = block.post_block(prices[lo : lo + n])
        assert np.array_equal(demands, [post(scalar, p) for p in prices[lo : lo + n]])
        assert block.r == scalar.r and block.t == scalar.t
        lo += n
    assert block.rng.bit_generator.state == scalar.rng.bit_generator.state
    assert np.array_equal(block.prices, scalar.prices)
    assert np.array_equal(block.refs, scalar.refs)
    assert np.array_equal(block.demands, scalar.demands)
    assert np.array_equal(block.expected_revenue, scalar.expected_revenue)


@pytest.mark.parametrize("n", [7, 8, BLOCK_CHUNK + 1])
def test_post_block_out_of_range_price(inst_symmetric, n):
    prices = np.full(n, 0.5)
    prices[-1] = inst_symmetric.p_max + 0.5
    for posting in (lambda env: env.post_block(prices), lambda env: [post(env, p) for p in prices]):
        env = SimEnv(inst_symmetric, NoiseSpec.none(), n, 0.5, np.random.default_rng(0))
        with pytest.raises(DomainError):
            posting(env)


def test_reference_exact_over_long_horizon(inst_symmetric):
    # The running total stays exact: after 10^6 prices the reference is the
    # batch average of the start and every posted price.
    inst = inst_symmetric
    n, r1 = 10**6, 1.3
    prices = np.random.default_rng(1).uniform(0.0, inst.p_max, size=n)
    env = SimEnv(inst, NoiseSpec.none(), n, r1, np.random.default_rng(0))
    env.post_block(prices)
    assert env.t == n + 1
    assert env.r == pytest.approx((r1 + prices.sum()) / (n + 1), rel=1e-12)


def test_reference_permutation_invariant(inst_symmetric):
    rng = np.random.default_rng(2)
    prices = rng.uniform(0.0, inst_symmetric.p_max, size=500)
    final = []
    for order in (prices, rng.permutation(prices)):
        env = SimEnv(inst_symmetric, NoiseSpec.none(), 500, 0.8, np.random.default_rng(0))
        env.post_block(order)
        final.append(env.r)
    assert final[0] == pytest.approx(final[1], abs=1e-12)


def test_reference_stays_in_range(inst_symmetric):
    inst = inst_symmetric
    prices = np.random.default_rng(4).uniform(0.0, inst.p_max, size=1000)
    env = SimEnv(inst, NoiseSpec.none(), 1000, 0.5, np.random.default_rng(0))
    env.post_block(prices)
    assert np.all((0.0 <= env.refs) & (env.refs <= inst.p_max))
    assert 0.0 <= env.r <= inst.p_max
    with pytest.raises(ValueError):
        SimEnv(inst, NoiseSpec.none(), 10, inst.p_max + 0.5, np.random.default_rng(0))


def test_reset_rounds_count_posted_rounds():
    # The exploration phase outlasts T = 1000 and the last reset plan is cut
    # at the horizon: every round is a learn or a posted reset round.
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "learning_sweep.yaml")
    cfg = load_config(path)
    T = 1000
    rec = run_episode(cfg.instance, cfg.noise, cfg.policy, T, cfg.run.r1, 0)
    m = rec.meta
    assert m["t2"] is None
    assert m["reset_rounds"] == sum(m["reset_rounds_by_phase"])
    assert sum(m["learn_rounds_by_phase"]) + m["reset_rounds"] == T


def test_markdown_oracle_is_the_baseline(inst_symmetric):
    T, r1 = 400, 0.7
    v_star = clairvoyant_value(inst_symmetric, r1, T)
    rec = run_episode(inst_symmetric, NoiseSpec.none(), {"kind": "markdown_oracle"}, T, r1, 0)
    assert abs(v_star - rec.expected_total) <= 1e-6 * v_star


@pytest.mark.parametrize("T", [300, 10_000])
@pytest.mark.parametrize("r1", [0.0, 1.0, 4.0 / 3.0])
def test_markdown_oracle_regret_is_exactly_zero(inst_symmetric, r1, T):
    # The baseline is scored as an episode, so its own policy's regret is 0
    # to the bit; noise moves only the realized demands.
    v_star = clairvoyant_value(inst_symmetric, r1, T)
    spec = {"kind": "markdown_oracle"}
    rec = run_episode(inst_symmetric, NoiseSpec.gaussian(0.1), spec, T, r1, 5)
    assert v_star == rec.expected_total


def test_clairvoyant_no_reference_effect():
    inst = Instance(a=1.0, b=1.5, eta_plus=0.0, eta_minus=0.0, p_max=1.0, p_ratio_bound=0.751)
    T = 200
    assert clairvoyant_value(inst, 0.3, T) == pytest.approx(T * inst.b**2 / (4 * inst.a), rel=1e-9)


def test_clairvoyant_beats_fixed_linearly(inst_symmetric):
    # the per-round advantage over the best fixed price does not vanish with T
    inst = inst_symmetric
    T, r1 = 2000, 0.0
    v_star = clairvoyant_value(inst, r1, T)
    rec = run_episode(inst, NoiseSpec.none(), {"kind": "optimal_fixed"}, T, r1, 0)
    assert v_star - rec.expected_total > 0.02 * T


def test_clairvoyant_asymmetric_labeled_near_optimal():
    inst = Instance(a=1.0, b=1.7, eta_plus=0.3, eta_minus=0.5, p_max=1.0, p_ratio_bound=0.85)
    assert baseline_kind(inst) == "near_optimal"
    v = clairvoyant_value(inst, 0.5, 300)
    assert v > 0


def test_regret_nonnegative_symmetric(rng):
    for spec in ({"kind": "optimal_fixed"}, {"kind": "myopic_greedy"}, {"kind": "markdown_oracle"}):
        inst = random_instance(rng, symmetric=True)
        T, r1 = 150, float(rng.uniform(0, inst.p_max))
        v_star = clairvoyant_value(inst, r1, T)
        rec = run_episode(inst, NoiseSpec.none(), spec, T, r1, 1)
        assert v_star - rec.expected_total >= -1e-6 * abs(v_star)


def test_regret_sweep_structure(inst_symmetric):
    records, slope = regret_sweep(
        inst_symmetric,
        NoiseSpec.none(),
        {"kind": "optimal_fixed"},
        [50, 200, 800],
        seeds=2,
        r1=0.0,
        base_seed=3,
    )
    assert [r.T for r in records] == [50, 200, 800]
    assert all(r.n_seeds == 2 for r in records)
    assert all(r.mean_regret == pytest.approx(r.baseline_value - r.policy_value_mean) for r in records)
    assert all(not r.flagged for r in records)
    # at these tiny horizons only the order of magnitude is meaningful
    assert slope is not None and 0.5 < slope < 1.4


def test_regret_sweep_threads_match_sequential(inst_symmetric):
    kwargs = dict(
        noise=NoiseSpec.bounded_uniform(0.1),
        policy_spec={"kind": "two_price", "alpha": 0.3},
        T_list=[60, 120],
        seeds=3,
        r1=0.0,
        base_seed=11,
    )
    seq, _ = regret_sweep(inst_symmetric, **kwargs, threads=1)
    par, _ = regret_sweep(inst_symmetric, **kwargs, threads=2)
    for a, b in zip(seq, par):
        assert a.mean_regret == b.mean_regret
        assert a.stderr == b.stderr


def test_regret_sweep_pool_no_larger_than_jobs(inst_symmetric, monkeypatch):
    """Every child starts at once: a 2-job sweep starts 2, whatever the
    thread cap, while its parent waits; ``threads=1`` starts none."""
    starts = count_forks(monkeypatch)
    kwargs = dict(noise=NoiseSpec.none(), policy_spec={"kind": "optimal_fixed"}, T_list=[60], seeds=1, r1=0.0)
    seq, _ = regret_sweep(inst_symmetric, **kwargs, threads=1)
    assert starts == []
    par, _ = regret_sweep(inst_symmetric, **kwargs, threads=64)
    assert len(starts) == 2
    assert seq == par


def test_fit_slope_skips_flagged_and_nonpositive():
    recs = [
        RegretRecord(T=10, n_seeds=1, mean_regret=1.0, stderr=0, baseline_value=1, policy_value_mean=0),
        RegretRecord(T=100, n_seeds=1, mean_regret=-0.5, stderr=0, baseline_value=1, policy_value_mean=1.5, flagged=True),
        RegretRecord(T=1000, n_seeds=1, mean_regret=10.0, stderr=0, baseline_value=11, policy_value_mean=1),
    ]
    assert fit_loglog_slope(recs) == pytest.approx(0.5, abs=1e-12)


def test_regret_sweep_rejects_empty(inst_symmetric):
    with pytest.raises(ValueError):
        regret_sweep(inst_symmetric, NoiseSpec.none(), {"kind": "optimal_fixed"}, [], 1, 0.0)


PLANNED_SPECS = {
    "fixed": {"kind": "fixed", "price": 0.9},
    "optimal_fixed": {"kind": "optimal_fixed"},
    "two_price": {"kind": "two_price", "alpha": 0.3},
    "myopic_greedy": {"kind": "myopic_greedy"},
    "markdown_oracle": {"kind": "markdown_oracle"},
    "markdown_oracle_theta": {"kind": "markdown_oracle", "theta": [0.15, 0.7]},
}


def _sweep_by_seed(inst, noise, spec, T_list, seeds, r1, base_seed):
    """``regret_sweep``'s result built the long way: the baseline and every
    seed's episode, with its noise, from ``run_episode``."""
    records = []
    for T in T_list:
        v_star = run_episode(inst, NoiseSpec.none(), {"kind": "markdown_oracle"}, T, r1, 0).expected_total
        values = np.asarray(
            [run_episode(inst, noise, spec, T, r1, base_seed + i).expected_total for i in range(seeds)]
        )
        mean_value = float(np.mean(values))
        regret = v_star - mean_value
        stderr = float(np.std(values, ddof=1) / np.sqrt(seeds)) if seeds > 1 else 0.0
        records.append(
            RegretRecord(T, seeds, regret, stderr, v_star, mean_value, regret < -1e-6 * abs(v_star))
        )
    return records, fit_loglog_slope(records)


def _bits(result):
    records, slope = result
    rows = [tuple(x.hex() if isinstance(x, float) else x for x in dataclasses.astuple(r)) for r in records]
    return rows, None if slope is None else slope.hex()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("seeds", [1, 3])
@pytest.mark.parametrize("noise", NOISES, ids=lambda noise: noise.kind)
@pytest.mark.parametrize("kind", sorted(PLANNED_SPECS))
def test_planned_sweep_matches_every_seed(inst_symmetric, kind, noise, seeds, threads):
    """One noiseless episode per horizon gives the records, bit for bit, of
    one episode per seed with the sweep's noise."""
    args = (inst_symmetric, noise, PLANNED_SPECS[kind], [40, 90, 200], seeds, 0.4, 5)
    assert _bits(regret_sweep(*args, threads=threads)) == _bits(_sweep_by_seed(*args))


@pytest.mark.parametrize(
    "spec, runs, noisy",
    [
        ({"kind": "myopic_greedy"}, 1, 0),
        ({"kind": "markdown_oracle", "theta": None}, 0, 0),
        ({"kind": "learn_then_earn", "c_t1": 2.0}, 4, 4),
    ],
    ids=["planned", "baseline", "learner"],
)
def test_regret_sweep_episode_count(inst_symmetric, monkeypatch, spec, runs, noisy):
    """A planned kind runs its baseline and one noiseless episode per
    horizon, the baseline's own policy (``markdown_oracle`` without
    ``theta``) its baseline alone, and a learner its baseline and one
    episode per seed, with noise."""
    noises = []
    episode_value = harness._episode_value

    def counting(job):
        noises.append(job[1].kind)
        return episode_value(job)

    monkeypatch.setattr(harness, "_episode_value", counting)
    regret_sweep(inst_symmetric, NoiseSpec.bounded_uniform(0.1), spec, [300, 600, 900], 4, 1.2, threads=1)
    assert len(noises) == 3 * (1 + runs)
    assert noises.count("bounded_uniform") == 3 * noisy


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Cells that must each keep their own string: both signed zeros, two NaN
# payloads, infinities, subnormals and magnitudes near the ends of float64.
CSV_FLOATS = [
    0.0, -0.0, float("nan"), _from_bits(0xFFF8000000000001), float("inf"), -float("inf"),
    5e-324, -2.2250738585072e-309, 1e300, -1e300, 1e-300, 0.1, 4.0 / 3.0,
]
CSV_INTS = [0, 1, -1, 7, 2**62, -(2**63)]


def _csv_values(data, pool, n):
    """n cells drawn from ``pool`` as runs of 1 to 12 equal cells."""
    values = []
    while len(values) < n:
        values += [data.draw(st.sampled_from(pool))] * data.draw(st.integers(1, 12))
    return values[:n]


def _csv_block(data, n):
    """Columns of n rows: float and int arrays, strided views, Python lists,
    and copies of an earlier float column, some differing from it only in
    the sign of one zero."""
    specs = []  # (form, values); a flip may still change an earlier column
    for _ in range(data.draw(st.integers(1, 6))):
        floats = [values for form, values in specs if form in ("float", "view", "list")]
        form = data.draw(st.sampled_from(["float", "int", "view", "list", "int_list", "copy", "flip"]))
        if form in ("copy", "flip") and not floats:
            form = "float"
        if form in ("copy", "flip"):
            source = data.draw(st.sampled_from(floats))
            values = list(source)
            if form == "flip" and n:
                i = data.draw(st.integers(0, n - 1))
                source[i] = data.draw(st.sampled_from([0.0, -0.0]))
                values[i] = -source[i]
            form = "float"
        elif form in ("int", "int_list"):
            values = _csv_values(data, CSV_INTS, n)
        else:
            values = _csv_values(data, CSV_FLOATS, n)
        specs.append((form, values))
    columns = []
    for form, values in specs:
        if form in ("list", "int_list"):
            columns.append(values)
        elif form == "view":
            columns.append(np.repeat(np.array(values), 2)[::2])
        else:
            columns.append(np.array(values, dtype=np.int64 if form == "int" else float))
    return columns


def _copied_block(data, source, n):
    """The columns of the block ``source`` cut to at most n rows, whole or
    with one float cell changed to a bit pattern equal to it under ``==`` or
    ``isnan``: a signed zero flipped, or another NaN payload."""
    columns = [np.array(column) for column in source]
    n = min(n, len(columns[0]) if columns else 0)
    columns = [column[:n] for column in columns]
    floats = [k for k, column in enumerate(columns) if column.dtype == float]
    change = data.draw(st.sampled_from(["whole", "flip", "nan"]))
    if change != "whole" and floats and n:
        k, i = data.draw(st.sampled_from(floats)), data.draw(st.integers(0, n - 1))
        a, b = (0.0, -0.0) if change == "flip" else (float("nan"), _from_bits(0xFFF8000000000001))
        source[k][i], columns[k][i] = a, b
    return columns


def _csv_blocks(data):
    """One to four blocks of up to 40 rows; a block may copy an earlier one
    (see ``_copied_block``), so the chunks at an offset repeat across
    blocks, wholly or in part."""
    blocks = []
    for n in data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=4)):
        if blocks and data.draw(st.booleans()):
            blocks.append(_copied_block(data, data.draw(st.sampled_from(blocks)), n))
        else:
            blocks.append(_csv_block(data, n))
    return blocks


def _assert_writes_like_rowwise(out, blocks, threads):
    meta, header, footer = {"b": 2, "a": "x"}, "h", ["# slope=nan"]
    _write_csv(out / "chunked.csv", meta, header, blocks, footer, threads=threads)
    write_csv_rowwise(out / "rowwise.csv", meta, header, blocks, footer)
    assert (out / "chunked.csv").read_text() == (out / "rowwise.csv").read_text()


@pytest.mark.parametrize("cells", [1, 3, 12, CSV_CELLS])
@settings(derandomize=True, deadline=None, max_examples=50)
@given(data=st.data())
def test_write_csv_matches_rowwise_writer(tmp_path_factory, cells, data):
    """Byte for byte the row loop's output, for any chunk size and any
    number of runs; with budgets of 1, 3 and 12 cells (chunks of 1 to 12
    rows, as the widest block has 1 to 6 columns), 2 and 3 threads split
    the chunks into up to that many runs, wherever the boundaries fall, and
    blocks that copy earlier ones exercise the reuse across blocks.  The
    blocks hold at most 160 rows, under 2 * ``CSV_CELLS``, so at the
    default budget every thread count writes in this process alone and
    only 1 is tried."""
    blocks = _csv_blocks(data)
    out = tmp_path_factory.getbasetemp()
    with mock.patch.object(harness, "CSV_CELLS", cells):
        for threads in (1, 2, 3) if cells < CSV_CELLS else (1,):
            _assert_writes_like_rowwise(out, blocks, threads)


@pytest.mark.parametrize(
    "column",
    [[2**64, 1, 3], [2**64] * 35 + list(range(35))],
    ids=["short", "70_cells"],
)
def test_write_csv_object_column_is_repr(tmp_path, column):
    """Ints beyond int64 make an object column, whose cells are their
    ``repr``, however many there are."""
    assert np.asarray(column).dtype == object
    _assert_writes_like_rowwise(tmp_path, [[column]], 1)


def test_write_regret_csv_with_horizon_beyond_int64(tmp_path, monkeypatch):
    records = [RegretRecord(T=2**64, n_seeds=1, mean_regret=1.0, stderr=0.0, baseline_value=2.0, policy_value_mean=1.0)]
    harness.write_regret_csv(records, None, tmp_path / "chunked.csv")
    monkeypatch.setattr(harness, "_write_csv", write_csv_rowwise)
    harness.write_regret_csv(records, None, tmp_path / "rowwise.csv")
    assert (tmp_path / "chunked.csv").read_text() == (tmp_path / "rowwise.csv").read_text()
    assert "18446744073709551616,1," in (tmp_path / "chunked.csv").read_text()


def _csv_block_fixed(n):
    """Distinct floats, a copy of them, ints and a strided view."""
    x = np.arange(n) / 7.0
    return [x, x.copy(), np.arange(n), np.repeat(-x, 2)[::2]]


def _run_block(n, value=0.5):
    """A float column of n equal cells and an int column counting rows."""
    return [np.full(n, value), np.arange(n)]


def _episode_block(i, n):
    """An episode-like block: its index, the round and distinct floats."""
    return [np.broadcast_to(i, n), np.arange(1, n + 1), np.arange(n) / (i + 7.0)]


# name -> (CSV_CELLS, blocks, threads, items in each run).  Budgets of 12
# and 6 cells make 3-row chunks of the 4- and 2-column blocks.
SHARE_CASES = {
    # Run 1 starts inside the block, at its fifth 3-row chunk.
    "share_splits_block": (12, [_csv_block_fixed(24)], 2, [4, 4]),
    # Identical blocks: run 1 starts at the third offset, after block 1's
    # second chunk, so both processes reuse chunks across blocks.
    "boundary_on_block_boundary": (12, [_csv_block_fixed(12), _csv_block_fixed(12)], 2, [4, 4]),
    # Every boundary falls inside one run of equal prices.
    "boundary_inside_run": (6, [_run_block(18)], 3, [2, 2, 2]),
    "zero_row_blocks": (
        1,
        [_run_block(0), _csv_block_fixed(7), _run_block(0), _run_block(7, -0.0), _run_block(0)],
        2,
        [7, 7],
    ),
    "python_lists": (1, [[[0.1 * i for i in range(9)], list(range(9))]], 3, [3, 3, 3]),
    # Identical blocks whose offset-0 chunks are split between the runs:
    # run 1 formats block 4's afresh, and its last chunks are 1 row long.
    "identical_blocks_split_at_an_offset": (12, [_csv_block_fixed(4)] * 6, 2, [4, 8]),
    # 1000 episodes of T = 100, each one chunk: the runs cut the offset-0
    # chunks between blocks, so the output is still written in parallel.
    "many_short_blocks": (CSV_CELLS, [_episode_block(i, 100) for i in range(1000)], 3, [333, 334, 333]),
}


@pytest.mark.parametrize("name", sorted(SHARE_CASES))
def test_write_csv_shares_at_edges(tmp_path, monkeypatch, name):
    cells, blocks, threads, run_items = SHARE_CASES[name]
    monkeypatch.setattr(harness, "CSV_CELLS", cells)
    runs = []
    split = harness._split

    def split_spy(sizes, rows, workers):
        file_order, out = split(sizes, rows, workers)
        runs.append(out)
        return file_order, out

    monkeypatch.setattr(harness, "_split", split_spy)
    starts = count_forks(monkeypatch)
    _assert_writes_like_rowwise(tmp_path, blocks, threads)
    assert [[len(run) for run in out] for out in runs] == [run_items]
    assert len(starts) == len(run_items) - 1
    assert sorted(os.listdir(tmp_path)) == ["chunked.csv", "rowwise.csv"]


def test_split_is_offset_major():
    """Every block's chunk at an offset, then the next offset; the file
    order is block by block.  The 9 rows split at row 4, an item boundary;
    row 5 would split at the nearer of rows 4 and 6, the earlier on a tie."""
    file_order, runs = harness._split([3, 0, 5, 1], 2, 2)
    assert harness._split([3, 0, 5, 3], 2, 2)[1][0] == [(0, 0), (0, 2)]
    assert file_order == [(0, 0), (2, 0), (0, 2), (2, 2), (4, 2), (0, 3)]
    assert runs == [[(0, 0), (0, 2)], [(0, 3), (2, 0), (2, 2), (4, 2)]]


def _failing_items(fail_run0, fail_helper):
    """``_write_items`` with a failure injected into this process's run 0
    and into the helpers' runs, each a callable or None."""
    write_items = harness._write_items
    parent = os.getpid()

    def write(blocks, items, rows, out):
        fail = fail_run0 if os.getpid() == parent else fail_helper
        if fail is not None:
            fail()
        return write_items(blocks, items, rows, out)

    return write


def _raise():
    raise RuntimeError("injected")


def _refuse_start(*args, **kwargs):
    raise AssertionError("a process was started")


def _long_blocks():
    return [_run_block(10), _run_block(10, 1.5)]


def test_write_csv_alone_where_directory_takes_no_new_file(tmp_path, monkeypatch):
    """A read-only directory holding writable output files: neither the
    output's temp file nor the runs' can be made there, so this process
    formats every chunk in file order straight into the output, in place,
    and starts no process.  Root ignores the directory's mode, so the
    refusal is also made by ``os.open`` and ``tempfile``."""
    monkeypatch.setattr(harness, "CSV_CELLS", 1)
    starts = count_forks(monkeypatch)

    def refuse(*args, dir=None, **kwargs):
        raise PermissionError(13, "Permission denied", dir)

    os_open = os.open

    def refuse_new(path, flags, *args):
        if flags & os.O_CREAT:
            raise PermissionError(13, "Permission denied", path)
        return os_open(path, flags, *args)

    monkeypatch.setattr(harness.tempfile, "TemporaryFile", refuse)
    monkeypatch.setattr(harness.os, "open", refuse_new)
    out = tmp_path / "read_only"
    out.mkdir()
    for name in ("chunked.csv", "rowwise.csv"):
        (out / name).write_text("")
    inode = os.stat(out / "chunked.csv").st_ino
    out.chmod(0o555)
    try:
        _assert_writes_like_rowwise(out, _long_blocks(), 3)
    finally:
        out.chmod(0o755)
    assert starts == []
    assert sorted(os.listdir(out)) == ["chunked.csv", "rowwise.csv"]
    assert os.stat(out / "chunked.csv").st_ino == inode


def test_write_csv_does_not_fork_beside_a_thread(tmp_path, monkeypatch):
    """Forking a process with threads is unsafe: this process writes alone."""
    monkeypatch.setattr(harness, "CSV_CELLS", 1)
    starts = count_forks(monkeypatch)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        _assert_writes_like_rowwise(tmp_path, _long_blocks(), 3)
    finally:
        stop.set()
        thread.join()
    assert starts == []


def test_regret_sweep_does_not_fork_beside_a_thread(inst_symmetric, monkeypatch):
    """Forking a process with threads is unsafe: the sweep runs its jobs in
    this process, with the records of ``threads=1``."""
    kwargs = dict(
        noise=NoiseSpec.bounded_uniform(0.1),
        policy_spec={"kind": "two_price", "alpha": 0.3},
        T_list=[60, 120],
        seeds=3,
        r1=0.0,
    )
    expected = regret_sweep(inst_symmetric, **kwargs, threads=1)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with monkeypatch.context() as refusing:
            refusing.setattr(os, "fork", _refuse_start)
            assert regret_sweep(inst_symmetric, **kwargs, threads=2) == expected
    finally:
        stop.set()
        thread.join()


def _divide_by_zero():
    raise ZeroDivisionError("injected")


@pytest.mark.parametrize(
    "fail, error, match",
    [
        (_divide_by_zero, ZeroDivisionError, "^injected$"),
        (lambda: os._exit(7), OSError, "^sweep process 1 exited with code 7$"),
    ],
    ids=["raises", "dies"],
)
def test_regret_sweep_child_failure_is_raised(inst_symmetric, monkeypatch, fail, error, match):
    """A sweep child's own exception is raised here as it is, and a child
    that dies is an ``OSError`` with its exit code.  The children fail at
    their first job, while 96 KB of job indices, more than a pipe holds,
    are still to be fed: the feed ends at the broken pipe."""
    parent = os.getpid()
    episode_value = harness._episode_value

    def failing(job):
        if os.getpid() != parent:
            fail()
        return episode_value(job)

    monkeypatch.setattr(harness, "_episode_value", failing)
    with pytest.raises(error, match=match) as raised:
        regret_sweep(inst_symmetric, NoiseSpec.none(), {"kind": "optimal_fixed"}, [5] * 12000, 1, 0.0, threads=2)
    assert raised.type is error


@pytest.mark.parametrize(
    "fail_helper, error, match",
    [
        (_raise, RuntimeError, "^injected$"),
        (lambda: os._exit(7), OSError, "^CSV writer process 1 .*exited with code 7$"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), OSError, "^CSV writer process 1 exited with code -9$"),
    ],
    ids=["raises", "dies", "killed"],
)
def test_write_csv_helper_failure_is_oserror(tmp_path, capfd, monkeypatch, fail_helper, error, match):
    """A helper's own exception is raised here as it is, and a helper that
    dies is an ``OSError`` naming it and its exit code; neither prints a
    traceback, and no helper, temp file or output is left."""
    monkeypatch.setattr(harness, "CSV_CELLS", 1)
    monkeypatch.setattr(harness, "_write_items", _failing_items(None, fail_helper))
    with pytest.raises(error, match=match):
        _write_csv(tmp_path / "out.csv", {}, "h", _long_blocks(), threads=3)
    assert "Traceback" not in capfd.readouterr().err
    assert reap_children() == []
    assert os.listdir(tmp_path) == []


def test_write_csv_share0_failure_stops_helpers(tmp_path, monkeypatch):
    """The helpers would sleep a minute: they are terminated, not waited for."""
    monkeypatch.setattr(harness, "CSV_CELLS", 1)
    monkeypatch.setattr(harness, "_write_items", _failing_items(_raise, lambda: time.sleep(60)))
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="injected"):
        _write_csv(tmp_path / "out.csv", {}, "h", _long_blocks(), threads=3)
    assert time.perf_counter() - t0 < 30
    assert reap_children() == []
    assert os.listdir(tmp_path) == []


def _fail_copy(*args):
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("stage", ["format", "helper", "copy", "rename"])
def test_failed_write_keeps_the_previous_output(tmp_path, monkeypatch, stage):
    """A write that fails at any stage leaves no new file, and the output
    already at the path keeps its bytes."""
    monkeypatch.setattr(harness, "CSV_CELLS", 1)
    if stage == "format":
        monkeypatch.setattr(harness, "_write_items", _failing_items(_raise, None))
    elif stage == "helper":
        monkeypatch.setattr(harness, "_write_items", _failing_items(None, lambda: os._exit(7)))
    elif stage == "copy":
        monkeypatch.setattr(harness, "_copy", _fail_copy)
    else:
        monkeypatch.setattr(harness.os, "replace", _fail_copy)
    out = tmp_path / "out.csv"
    out.write_bytes(b"h\n1\n")
    with pytest.raises((RuntimeError, OSError)):
        _write_csv(out, {}, "h", _long_blocks(), threads=3)
    assert os.listdir(tmp_path) == ["out.csv"]
    assert out.read_bytes() == b"h\n1\n"


def _dead_pid() -> int:
    """The id of a process that has exited and been reaped."""
    child = subprocess.Popen([sys.executable, "-c", ""])
    child.wait()
    return child.pid


def test_write_csv_removes_stale_temps(tmp_path, monkeypatch):
    """A write killed outright leaves its temp file behind.  The next write
    of the output removes it where its pid is dead or this process's own,
    and still renames its own temp onto the output; a live pid's temp (pid
    1's), and another output's, are kept."""
    own, dead = os.getpid(), _dead_pid()
    stale = [f".out.csv.{pid}.tmp" for pid in (own, dead, 1)] + [f".other.csv.{dead}.tmp"]
    for name in stale:
        (tmp_path / name).write_bytes(b"partial")
    replaced = []
    replace = os.replace

    def spy(src, dst):
        replaced.append((src, dst))
        replace(src, dst)

    monkeypatch.setattr(harness.os, "replace", spy)
    out = tmp_path / "out.csv"
    _write_csv(out, {}, "h", [[np.arange(3)]])
    assert out.read_bytes() == b"h\n0\n1\n2\n"
    assert replaced == [(str(tmp_path / stale[0]), out)]
    assert sorted(os.listdir(tmp_path)) == sorted([stale[2], stale[3], "out.csv"])


def _two_price_records(seeds, T):
    cfg = load_config(os.path.join(CONFIGS, "two_price_gap.yaml"))
    return [run_episode(cfg.instance, cfg.noise, cfg.policy, T, cfg.run.r1, seed) for seed in seeds]


def test_second_noiseless_episode_formats_no_float_column(tmp_path, monkeypatch):
    """Without noise a planned episode repeats bit for bit: the second one
    formats only its ``episode`` and ``seed`` columns, both all 1s, so one
    int column per chunk."""
    records = _two_price_records([0, 1], 3 * (CSV_CELLS // 8) + 5)
    formatted = []
    format_column = harness._format_column

    def spy(chunk):
        formatted.append(chunk.dtype.kind)
        return format_column(chunk)

    monkeypatch.setattr(harness, "_format_column", spy)
    write_episodes_csv(records[:1], tmp_path / "one.csv", threads=1)
    one = list(formatted)
    formatted.clear()
    write_episodes_csv(records, tmp_path / "two.csv", threads=1)
    assert one.count("f") > 0
    assert formatted.count("f") == one.count("f")
    assert formatted.count("i") == one.count("i") + 4  # 4 chunks


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _repr_chunk(columns, rows):
    """The bounds of the writer's memory, in bytes: one chunk of ``rows``
    rows of ``columns`` as the writer held it when it formatted with
    ``repr``, each column chunk's raw bytes and its cells' strings, traced
    in a list here; and the length of the chunk's text."""
    tracemalloc.start()
    try:
        held = [
            (np.ascontiguousarray(column[:rows]).tobytes(), list(map(repr, column[:rows].tolist())))
            for column in map(np.asarray, columns)
        ]
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    text = "".join(",".join(row) + "\n" for row in zip(*(strings for _, strings in held)))
    return size, len(text)


@pytest.mark.parametrize("distinct", [False, True], ids=["identical", "distinct"])
def test_write_csv_memory_does_not_grow_with_blocks(tmp_path, monkeypatch, distinct):
    """8 blocks, identical or all distinct, peak within the 1-block peak plus
    one chunk's ``repr`` strings (the chunk kept for reuse at each offset)."""
    monkeypatch.setattr(harness, "CSV_CELLS", 10000)  # 2,000 rows of 5 columns
    rng = np.random.default_rng(0)

    def block():
        return [np.arange(10000), *rng.random((4, 10000))]

    first = block()
    blocks = [first] + [block() if distinct else first for _ in range(7)]
    one = _traced_peak(lambda: _write_csv(tmp_path / "one.csv", {}, "h", blocks[:1]))
    eight = _traced_peak(lambda: _write_csv(tmp_path / "eight.csv", {}, "h", blocks))
    chunk, _ = _repr_chunk(first, 2000)
    assert eight <= one + chunk


def test_write_episodes_csv_makes_no_realized_column(tmp_path, monkeypatch):
    """``realized_revenue`` is made a chunk at a time: writing 3 distinct
    episodes peaks less than one T-round column (8 B a round) above writing
    one, where a whole column per episode would add two."""
    monkeypatch.setattr(harness, "CSV_CELLS", 8 * 1024)  # 1,024-row chunks
    T = 2**15
    cfg = load_config(os.path.join(CONFIGS, "two_price_gap.yaml"))
    records = [run_episode(cfg.instance, NOISES[2], cfg.policy, T, cfg.run.r1, seed) for seed in range(3)]
    one = _traced_peak(lambda: write_episodes_csv(records[:1], tmp_path / "one.csv"))
    three = _traced_peak(lambda: write_episodes_csv(records, tmp_path / "three.csv"))
    assert three - one < 8 * T


@pytest.mark.parametrize("width", [8, 3])
def test_write_csv_memory_is_bounded_by_the_cell_budget(tmp_path, width):
    """One block of 50,000 rows of distinct floats, in 8 or 3 columns: a
    chunk holds at most ``CSV_CELLS`` cells, and the writer's peak is within
    two chunks' ``repr`` strings plus one chunk's text, whatever the row and
    column counts."""
    block = list(np.random.default_rng(0).random((width, 50000)))
    rows = CSV_CELLS // width
    fields = {}
    harness._format_chunk(block, 0, rows, fields)
    assert sum(len(field) for field in fields.values()) <= CSV_CELLS
    chunk, text = _repr_chunk(block, rows)
    peak = _traced_peak(lambda: _write_csv(tmp_path / "out.csv", {}, "h", [block]))
    assert peak <= 2 * chunk + text


@pytest.mark.parametrize("noise", NOISES, ids=lambda noise: noise.kind)
def test_episode_memory_is_bounded_by_the_block_chunk(inst_symmetric, noise):
    """Over its outputs (the price path and the env's four columns, 40 B a
    round: the record stores nothing more), a planned episode holds a few
    ``BLOCK_CHUNK``-round temporaries at most, not T-round ones."""
    inst, T, r1 = inst_symmetric, 64 * BLOCK_CHUNK + 7, 0.4
    np.random.default_rng(0)  # loads numpy.random, whose import is not the episode's
    spec = {"kind": "two_price", "alpha": 0.3}
    peak = _traced_peak(lambda: run_episode(inst, noise, spec, T, r1, 0))
    assert peak - 40 * T <= 8 * 8 * BLOCK_CHUNK


def test_write_csv_output_has_the_mode_open_gives(tmp_path):
    _write_csv(tmp_path / "out.csv", {}, "h", [[np.arange(3)]])
    (tmp_path / "plain").write_bytes(b"")
    assert os.stat(tmp_path / "out.csv").st_mode == os.stat(tmp_path / "plain").st_mode


def test_episode_evaluates_each_round_once(inst_symmetric, monkeypatch):
    """A planned episode evaluates the demand model once per chunk posted,
    never again to score the rounds."""
    calls = []
    evaluate = harness.expected_demand_vec

    def spy(*args):
        calls.append(len(args[1]))
        return evaluate(*args)

    monkeypatch.setattr(harness, "expected_demand_vec", spy)
    T = 3 * BLOCK_CHUNK + 5
    run_episode(inst_symmetric, NoiseSpec.none(), {"kind": "fixed", "price": 0.9}, T, 0.4, 0)
    assert calls == [BLOCK_CHUNK] * 3 + [5]


def test_write_csv_one_temp_file_per_process(tmp_path, monkeypatch):
    """3 processes: 3 temp files for 50 blocks of 3 chunks, whatever the
    block count, and 2 where run 0 begins the file and goes straight into
    it: one block, or 50 blocks of one chunk each."""
    monkeypatch.setattr(harness, "CSV_CELLS", 30)  # 10 rows of 3 columns
    made = []
    temporary_file = tempfile.TemporaryFile

    def spy(*args, **kwargs):
        made.append(kwargs.get("dir"))
        return temporary_file(*args, **kwargs)

    monkeypatch.setattr(harness.tempfile, "TemporaryFile", spy)
    for blocks, temps in (
        ([_episode_block(i, 30) for i in range(50)], 3),
        ([_episode_block(0, 1500)], 2),
        ([_episode_block(i, 10) for i in range(50)], 2),
    ):
        made.clear()
        _assert_writes_like_rowwise(tmp_path, blocks, 3)
        assert made == [str(tmp_path)] * temps
        assert sorted(os.listdir(tmp_path)) == ["chunked.csv", "rowwise.csv"]


def test_write_csv_rejects_unequal_columns(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        _write_csv(tmp_path / "bad.csv", {}, "t,price", [(np.arange(3), [0.5, 1.5])])
    assert not (tmp_path / "bad.csv").exists()
    rec = run_episode(INST, NoiseSpec.none(), {"kind": "fixed", "price": 0.9}, 5, 0.4, 0)
    for short in ("price", "demand"):
        bad = dataclasses.replace(rec, **{short: getattr(rec, short)[:4]})
        with pytest.raises(ValueError, match="differ in length"):
            write_episodes_csv([rec, bad], tmp_path / "bad.csv")
        assert os.listdir(tmp_path) == []
