import multiprocessing
import os
import struct
import threading
import time
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
    BLOCK_CUTOVER,
    CSV_ROWS,
    RegretRecord,
    SimEnv,
    _write_csv,
    baseline_kind,
    fit_loglog_slope,
)
from refprice.model import DomainError
from refprice.policies import Policy
from refprice.validate import random_instance


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

        def next_block(self, t, r):
            return [inst_symmetric.p_max + 0.5] * (10 - t + 1)

    with pytest.raises(DomainError):
        run_episode(inst_symmetric, NoiseSpec.none(), Rogue(), 10, 0.5, 0)


NOISES = (NoiseSpec.none(), NoiseSpec.bounded_uniform(0.1), NoiseSpec.gaussian(0.2))
# The conftest instance; hypothesis tests take no function-scoped fixtures.
INST = Instance(a=1.0, b=2.0, eta_plus=0.5, eta_minus=0.5, p_max=4.0 / 3.0, p_ratio_bound=1.0)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    noise=st.sampled_from(NOISES),
    blocks=st.lists(
        st.one_of(
            st.integers(1, 2 * BLOCK_CUTOVER),
            st.integers(BLOCK_CHUNK - 2, BLOCK_CHUNK + 2 * BLOCK_CUTOVER),
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
        assert np.array_equal(demands, [scalar.post(p) for p in prices[lo : lo + n]])
        assert block.r == scalar.r and block.t == scalar.t
        lo += n
    assert block.rng.bit_generator.state == scalar.rng.bit_generator.state
    assert np.array_equal(block.prices, scalar.prices)
    assert np.array_equal(block.refs, scalar.refs)
    assert np.array_equal(block.demands, scalar.demands)


@pytest.mark.parametrize("n", [BLOCK_CUTOVER - 1, BLOCK_CUTOVER, BLOCK_CHUNK + 1])
def test_post_block_out_of_range_price(inst_symmetric, n):
    prices = np.full(n, 0.5)
    prices[-1] = inst_symmetric.p_max + 0.5
    for post in (lambda env: env.post_block(prices), lambda env: [env.post(p) for p in prices]):
        env = SimEnv(inst_symmetric, NoiseSpec.none(), n, 0.5, np.random.default_rng(0))
        with pytest.raises(DomainError):
            post(env)


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
    """A fork pool starts all its workers at once: a 2-job sweep starts 2,
    whatever the thread cap."""
    workers = []
    pool = harness.ProcessPoolExecutor

    def counting_pool(max_workers):
        workers.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", counting_pool)
    kwargs = dict(noise=NoiseSpec.none(), policy_spec={"kind": "optimal_fixed"}, T_list=[60], seeds=1, r1=0.0)
    seq, _ = regret_sweep(inst_symmetric, **kwargs, threads=1)
    par, _ = regret_sweep(inst_symmetric, **kwargs, threads=64)
    assert workers == [2]
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



def _write_csv_rowwise(path, meta, header, blocks, footer=()):
    """The row-by-row writer that the chunked ``_write_csv`` replaced: the
    reference for its output."""
    with open(path, "w") as f:
        for key, value in sorted(meta.items()):
            f.write(f"# {key}={value}\n")
        f.write(header + "\n")
        for columns in blocks:
            cells = [np.asarray(column).tolist() for column in columns]
            f.writelines(",".join(map(repr, row)) + "\n" for row in zip(*cells))
        for line in footer:
            f.write(line + "\n")


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


def _assert_writes_like_rowwise(out, blocks, threads):
    meta, header, footer = {"b": 2, "a": "x"}, "h", ["# slope=nan"]
    _write_csv(out / "chunked.csv", meta, header, blocks, footer, threads=threads)
    _write_csv_rowwise(out / "rowwise.csv", meta, header, blocks, footer)
    assert (out / "chunked.csv").read_text() == (out / "rowwise.csv").read_text()


@pytest.mark.parametrize("rows", [1, 3, CSV_ROWS])
@settings(derandomize=True, deadline=None, max_examples=50)
@given(data=st.data())
def test_write_csv_matches_rowwise_writer(tmp_path_factory, rows, data):
    """Byte for byte the row loop's output, for any chunk size and any
    number of shares; with 1- and 3-row chunks, 2 and 3 threads split the
    rows into up to that many shares, wherever the boundaries fall.  The
    blocks hold at most 120 rows, under two default chunks, so at the
    default chunk size every thread count writes in this process alone and
    only 1 is tried."""
    blocks = [_csv_block(data, n) for n in data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=3))]
    out = tmp_path_factory.getbasetemp()
    with mock.patch.object(harness, "CSV_ROWS", rows):
        for threads in (1, 2, 3) if rows < CSV_ROWS else (1,):
            _assert_writes_like_rowwise(out, blocks, threads)


def _csv_block_fixed(n):
    """Distinct floats, a copy of them, ints and a strided view."""
    x = np.arange(n) / 7.0
    return [x, x.copy(), np.arange(n), np.repeat(-x, 2)[::2]]


def _run_block(n, value=0.5):
    """A float column of n equal cells and an int column counting rows."""
    return [np.full(n, value), np.arange(n)]


# name -> (CSV_ROWS, blocks, threads, the share boundaries the case needs)
SHARE_CASES = {
    # Share 1 starts inside the block and inside its second 3-row chunk.
    "share_splits_block": (3, [_csv_block_fixed(10)], 2, [0, 5, 10]),
    "boundary_on_block_boundary": (3, [_csv_block_fixed(6), _csv_block_fixed(6)], 2, [0, 6, 12]),
    # Every boundary falls inside one run of equal prices.
    "boundary_inside_run": (3, [_run_block(12)], 3, [0, 4, 8, 12]),
    "zero_row_blocks": (
        1,
        [_run_block(0), _csv_block_fixed(7), _run_block(0), _run_block(7, -0.0), _run_block(0)],
        2,
        [0, 7, 14],
    ),
    "python_lists": (1, [[[0.1 * i for i in range(9)], list(range(9))]], 3, [0, 3, 6, 9]),
}


@pytest.mark.parametrize("name", sorted(SHARE_CASES))
def test_write_csv_shares_at_edges(tmp_path, monkeypatch, name):
    rows, blocks, threads, bounds = SHARE_CASES[name]
    monkeypatch.setattr(harness, "CSV_ROWS", rows)
    shares = []
    write_shares = harness._write_shares

    def spy(f, blocks, bounds, directory):
        shares.append(bounds)
        write_shares(f, blocks, bounds, directory)

    monkeypatch.setattr(harness, "_write_shares", spy)
    _assert_writes_like_rowwise(tmp_path, blocks, threads)
    assert shares == [bounds]


def _failing_rows(fail_share0, fail_helper):
    """``_write_rows`` with a failure injected into this process's share 0
    and into the helpers' shares, each a callable or None."""
    write_rows = harness._write_rows

    def write(f, blocks, lo, hi):
        fail = fail_share0 if lo == 0 else fail_helper
        if fail is not None:
            fail()
        write_rows(f, blocks, lo, hi)

    return write


def _raise():
    raise RuntimeError("injected")


def _long_blocks():
    return [_run_block(10), _run_block(10, 1.5)]


def test_write_csv_alone_where_directory_takes_no_new_file(tmp_path, monkeypatch):
    """A read-only directory holding writable output files: the helpers'
    temp files cannot be made there, so this process writes every share and
    starts no process.  Root ignores the directory's mode, so the refusal is
    also made by ``tempfile``."""
    monkeypatch.setattr(harness, "CSV_ROWS", 1)
    starts = []
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", starts.append)

    def refuse(*args, dir=None, **kwargs):
        raise PermissionError(13, "Permission denied", dir)

    monkeypatch.setattr(harness.tempfile, "TemporaryFile", refuse)
    out = tmp_path / "read_only"
    out.mkdir()
    for name in ("chunked.csv", "rowwise.csv"):
        (out / name).write_text("")
    out.chmod(0o555)
    try:
        _assert_writes_like_rowwise(out, _long_blocks(), 3)
    finally:
        out.chmod(0o755)
    assert starts == []
    assert sorted(os.listdir(out)) == ["chunked.csv", "rowwise.csv"]


def test_write_csv_does_not_fork_beside_a_thread(tmp_path, monkeypatch):
    """Forking a process with threads is unsafe: this process writes alone."""
    monkeypatch.setattr(harness, "CSV_ROWS", 1)
    monkeypatch.setattr(harness, "_write_shares", None)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        _assert_writes_like_rowwise(tmp_path, _long_blocks(), 3)
    finally:
        stop.set()
        thread.join()


@pytest.mark.parametrize(
    "fail_helper, code", [(_raise, 1), (lambda: os._exit(7), 7)], ids=["raises", "dies"]
)
def test_write_csv_helper_failure_is_oserror(tmp_path, monkeypatch, fail_helper, code):
    monkeypatch.setattr(harness, "CSV_ROWS", 1)
    monkeypatch.setattr(harness, "_write_rows", _failing_rows(None, fail_helper))
    with pytest.raises(OSError, match=f"CSV share 1 .*exited with code {code}"):
        _write_csv(tmp_path / "out.csv", {}, "h", _long_blocks(), threads=3)
    assert multiprocessing.active_children() == []
    assert os.listdir(tmp_path) == ["out.csv"]


def test_write_csv_share0_failure_stops_helpers(tmp_path, monkeypatch):
    """The helpers would sleep a minute: they are terminated, not waited for."""
    monkeypatch.setattr(harness, "CSV_ROWS", 1)
    monkeypatch.setattr(harness, "_write_rows", _failing_rows(_raise, lambda: time.sleep(60)))
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="injected"):
        _write_csv(tmp_path / "out.csv", {}, "h", _long_blocks(), threads=3)
    assert time.perf_counter() - t0 < 30
    assert multiprocessing.active_children() == []
    assert os.listdir(tmp_path) == ["out.csv"]


def test_write_csv_rejects_unequal_columns(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        _write_csv(tmp_path / "bad.csv", {}, "t,price", [(np.arange(3), [0.5, 1.5])])
    assert not (tmp_path / "bad.csv").exists()
