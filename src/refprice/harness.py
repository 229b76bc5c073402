"""Episode simulation, clairvoyant baselines, regret sweeps, and CSV output.

An episode is one call: the policy posts every round of the horizon into the
simulator itself (``Policy.play(env)``), planned paths as one
``SimEnv.post_block`` and the learner through its exploration kernel, which
posts short runs of rounds inline with the same arithmetic; a policy that
leaves rounds unposted is an error.  Regret is measured on expected revenue:
noise perturbs only what the policy observes, not how a posted price
sequence is scored.  Each round's expected revenue is recorded as the round
is posted, from the expected demand its realized demand is built on, so no
round's demand is evaluated twice.  The clairvoyant baseline is scored the
same way, as a noiseless ``markdown_oracle`` episode.  Episodes are
deterministic given (instance, noise, policy spec, T, r1, seed); the seed for
episode i of a run is base_seed + i, with the same seed list reused across
the horizons of a sweep.

The CSV writers format rows in chunks of a fixed number of cells, column by
column, and format a column chunk that repeats, within a block or across
blocks (episodes) at the same row offset, once per process, so the strings
and text a writer holds do not grow with the rows, the columns or the
blocks; a large output is split offset-major among forked helpers and
assembled in file order, with the same bytes for any number of processes
(see ``_write_csv``).  Every text goes to a binary file: the output itself,
or the temp file of the process that formatted it.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import threading
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Optional, Sequence, Union

import numpy as np

from .model import Instance, NoiseSpec, expected_demand_vec
from .policies import PlannedPolicy, Policy, make_policy

# Longest run of rounds ``post_block`` handles with one set of numpy
# temporaries.
BLOCK_CHUNK = 4096
# Cells the CSV writer formats and writes at a time, CSV_CELLS // columns
# rows; also the rows of output per writer process (see ``_write_csv``).
CSV_CELLS = 16384


class SimEnv:
    """One pricing episode: posts prices, draws shocks, tracks the reference.

    The reference ``r`` = ``total / t`` follows the running-average
    dynamics: ``total`` is the exact running sum of r1 and the prices
    posted, and ``t`` is the next round.  ``post_block`` posts a run of
    rounds; a policy may post rounds itself with the same arithmetic and
    draws.  Every round's price, reference, demand and expected revenue
    (price times expected demand) are kept in ``prices``, ``refs``,
    ``demands`` and ``expected_revenue``, written as the round is posted.
    Prices outside [0, p_max] are a hard failure.
    """

    def __init__(
        self,
        inst: Instance,
        noise: NoiseSpec,
        T: int,
        r1: float,
        rng: Optional[np.random.Generator],
    ):
        if not (0.0 <= r1 <= inst.p_max):
            raise ValueError(f"r1 {r1} outside [0, {inst.p_max}]")
        self.inst = inst
        self.noise = noise
        self.T = T
        self.rng = rng
        self.t = 1
        self.total = r1
        self.r = r1
        self.prices = np.empty(T)
        self.refs = np.empty(T)
        self.demands = np.empty(T)
        self.expected_revenue = np.empty(T)

    def post_block(self, prices: Sequence[float]) -> np.ndarray:
        """Post ``prices`` in order and return their realized demands.

        Bit for bit the same as posting one round at a time: the running
        total is a sequential cumsum seeded with ``total``, and the shocks
        come from one ``draw_array`` per chunk, which yields the scalar
        ``NoiseSpec.draw`` numbers.
        """
        n = len(prices)
        if self.t + n - 1 > self.T:
            raise RuntimeError("episode horizon exhausted")
        prices = np.asarray(prices, dtype=float)
        out = self.demands[self.t - 1 : self.t - 1 + n]
        acc = np.empty(BLOCK_CHUNK + 1)
        for lo in range(0, n, BLOCK_CHUNK):
            p = prices[lo : lo + BLOCK_CHUNK]
            m = len(p)
            totals = acc[: m + 1]
            totals[0] = self.total
            totals[1:] = p
            np.cumsum(totals, out=totals)
            refs = totals[:-1] / np.arange(self.t, self.t + m, dtype=float)
            expected = expected_demand_vec(self.inst, p, refs)
            out[lo : lo + m] = expected + self.noise.draw_array(self.rng, m)
            i = self.t - 1
            np.multiply(p, expected, out=self.expected_revenue[i : i + m])
            self.prices[i : i + m] = p
            self.refs[i : i + m] = refs
            self.total = float(totals[-1])
            self.t += m
            self.r = self.total / self.t
        return out


@dataclass
class EpisodeRecord:
    """Per-round log of one episode plus totals and provenance."""

    policy_kind: str
    seed: int
    T: int
    r1: float
    instance: Instance
    t: np.ndarray
    price: np.ndarray
    reference: np.ndarray
    demand: np.ndarray
    expected_revenue: np.ndarray
    realized_revenue: np.ndarray
    expected_total: float
    realized_total: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.t) != self.T:
            raise ValueError("row count must equal the horizon")


def run_episode(
    inst: Instance,
    noise: NoiseSpec,
    policy: Union[dict, Policy],
    T: int,
    r1: float,
    seed: int,
) -> EpisodeRecord:
    """Simulate one episode.  ``policy`` is a config mapping (a fresh policy is
    built) or an already-built Policy.  A learner is for one episode only; a
    planned policy (every kind but ``learn_then_earn``) posts its fixed path
    and may be reused for any number of episodes.  A noiseless planned
    episode draws nothing, so it builds no generator: that would load
    ``numpy.random``."""
    planned = isinstance(policy, PlannedPolicy) or (
        isinstance(policy, dict) and policy["kind"] != "learn_then_earn"
    )
    rng = None if planned and noise.kind == "none" else np.random.default_rng(seed)
    if isinstance(policy, dict):
        policy = make_policy(policy, inst, T, r1, rng)
    env = SimEnv(inst, noise, T, r1, rng)
    policy.play(env)
    if env.t <= T:
        raise ValueError(f"policy {policy.kind!r} posted no price for round {env.t}")
    realized_rev = env.prices * env.demands
    return EpisodeRecord(
        policy_kind=policy.kind,
        seed=seed,
        T=T,
        r1=r1,
        instance=inst,
        t=np.arange(1, T + 1),
        price=env.prices,
        reference=env.refs,
        demand=env.demands,
        expected_revenue=env.expected_revenue,
        realized_revenue=realized_rev,
        expected_total=float(np.sum(env.expected_revenue)),
        realized_total=float(np.sum(realized_rev)),
        meta=policy.meta(),
    )


def baseline_kind(inst: Instance) -> str:
    """Whether the clairvoyant baseline is the exact optimum or the
    near-optimal curve (asymmetric reference effects)."""
    return "exact_optimum" if inst.symmetric else "near_optimal"


def _baseline_job(inst: Instance, r1: float, T: int) -> tuple:
    """The clairvoyant baseline as an episode job: a noiseless
    ``markdown_oracle`` episode."""
    return (inst, NoiseSpec.none(), {"kind": "markdown_oracle"}, T, r1, 0)


def clairvoyant_value(inst: Instance, r1: float, T: int) -> float:
    """Total expected revenue of the clairvoyant curve policy, scored as an
    episode, so the ``markdown_oracle`` policy's regret is exactly 0.

    Symmetric effects: the curve from r1, which is the exact optimum.
    Asymmetric: the curve computed from p_max, posted from r1; see
    ``baseline_kind``."""
    return _episode_value(_baseline_job(inst, r1, T))[0]


@dataclass
class RegretRecord:
    """One horizon of a regret sweep.  ``n_exploring`` counts its episodes
    that never left exploration; it is not written to ``regret.csv``."""

    T: int
    n_seeds: int
    mean_regret: float
    stderr: float
    baseline_value: float
    policy_value_mean: float
    flagged: bool = False
    n_exploring: int = 0


def _episode_value(job) -> tuple[float, bool]:
    """Pool task: the expected total of one episode, and whether it never
    reached exploitation (a learner whose ``t2`` is None)."""
    rec = run_episode(*job)
    return rec.expected_total, "t2" in rec.meta and rec.meta["t2"] is None


def regret_sweep(
    inst: Instance,
    noise: NoiseSpec,
    policy_spec: dict,
    T_list: Sequence[int],
    seeds: int,
    r1: float,
    base_seed: int = 0,
    threads: int = 1,
) -> tuple[list[RegretRecord], Optional[float]]:
    """Mean regret per horizon plus the fitted log-log slope.

    Every horizon's baseline and episodes go to one job list, largest horizon
    first, run by a single pool of min(``threads``, jobs) processes when that
    is over 1 and this process may fork (``fork_usable``), else in this
    process; results are read back in job order, so they do not depend on
    ``threads``.

    A record is flagged when its mean regret is negative beyond noise
    tolerance (possible against the near-optimal baseline); flagged or
    nonpositive horizons are excluded from the slope fit.  Horizons whose
    episodes never left exploration (``n_exploring``) still enter it.
    """
    if len(T_list) == 0:
        raise ValueError("T_list must not be empty")
    if seeds < 1:
        raise ValueError("need at least one seed")
    order = sorted(range(len(T_list)), key=lambda k: -T_list[k])
    jobs = []
    for k in order:
        T = T_list[k]
        jobs.append(_baseline_job(inst, r1, T))
        jobs.extend((inst, noise, policy_spec, T, r1, base_seed + i) for i in range(seeds))
    # A fork pool starts every worker at once: no more than there are jobs.
    workers = min(threads, len(jobs))
    if workers > 1 and fork_usable():
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_episode_value, jobs))
    else:
        results = [_episode_value(j) for j in jobs]
    by_horizon = {k: results[j * (seeds + 1) : (j + 1) * (seeds + 1)] for j, k in enumerate(order)}
    records = []
    for k, T in enumerate(T_list):
        (v_star, _), *episodes = by_horizon[k]
        values = np.asarray([value for value, _ in episodes])
        mean_value = float(np.mean(values))
        regret = v_star - mean_value
        stderr = float(np.std(values, ddof=1) / np.sqrt(seeds)) if seeds > 1 else 0.0
        flagged = regret < -1e-6 * abs(v_star)
        records.append(
            RegretRecord(
                T=int(T),
                n_seeds=seeds,
                mean_regret=regret,
                stderr=stderr,
                baseline_value=v_star,
                policy_value_mean=mean_value,
                flagged=flagged,
                n_exploring=sum(exploring for _, exploring in episodes),
            )
        )
    return records, fit_loglog_slope(records)


def fit_loglog_slope(records: Sequence[RegretRecord]) -> Optional[float]:
    """OLS slope of ln(mean regret) on ln(T) over usable records."""
    pts = [(r.T, r.mean_regret) for r in records if r.mean_regret > 0 and not r.flagged]
    if len(pts) < 2:
        return None
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    slope = float(np.polyfit(x, y, 1)[0])
    return slope


# ---------------------------------------------------------------------------
# CSV output (headers and layout are part of the external contract)
# ---------------------------------------------------------------------------


def _format_column(chunk: np.ndarray) -> list:
    """``repr`` of each ``.tolist()`` entry of a contiguous ``chunk``.  Runs
    of equal bits get one ``repr`` each, repeated, when fewer than half the
    rows start a run."""
    bits = chunk.view(f"u{chunk.itemsize}")
    starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    if 2 * (len(starts) + 1) >= len(chunk):
        return list(map(repr, chunk.tolist()))
    starts = np.concatenate(([0], starts))
    strings = np.array(list(map(repr, chunk[starts].tolist())), dtype=object)
    return np.repeat(strings, np.diff(starts, append=len(chunk))).tolist()


def _format_chunk(columns, lo: int, rows: int, strings: dict) -> str:
    """The text of rows ``lo`` to ``lo + rows - 1`` of ``columns`` (fewer at
    the block's end), one column at a time.  ``strings`` maps a column
    chunk's (dtype, raw bytes) to its cells: a chunk found there is not
    formatted again, and every new one is added."""
    cells = []
    for column in columns:
        chunk = np.ascontiguousarray(column[lo : lo + rows])
        key = (chunk.dtype.str, chunk.tobytes())
        if key not in strings:
            strings[key] = _format_column(chunk)
        cells.append(strings[key])
    return "\n".join(chain(map(",".join, zip(*cells)), ("",)))


def _write_items(blocks, items, rows: int, out) -> list:
    """Format ``items``, (row offset, block) pairs of chunks of ``rows`` rows,
    in order, into the binary file ``out``; returns the lengths of their
    texts, in order.

    The strings of the first item formatted at an offset are kept while the
    items that follow are at the same offset, and a later item's column chunk
    with the same dtype and raw bits reuses them.  So at most two items'
    strings are held at once: the kept ones and the current item's.
    """
    lengths = []
    kept_at = None
    for lo, b in items:
        if lo != kept_at:
            kept_at, kept = lo, {}
            strings = kept
        else:
            strings = dict(kept)
        lengths.append(out.write(_format_chunk(blocks[b], lo, rows, strings).encode()))
    return lengths


def _write_run(blocks, run, rows: int, tmp, send) -> None:
    """A helper process's work: format ``run`` into ``tmp`` and send the
    texts' lengths through the connection ``send``."""
    lengths = _write_items(blocks, run, rows, tmp)
    tmp.flush()
    send.send(lengths)


def _split(sizes, rows: int, workers: int) -> tuple[list, list]:
    """The chunks of ``rows`` rows of blocks of ``sizes`` rows as (row
    offset, block) items, in file order, and the same items offset-major
    (every block's chunk at offset 0, then at ``rows``, ...) cut into
    ``workers`` contiguous runs of about equal rows: run k starts at the item
    boundary nearest row R * k // ``workers`` of the list, R the total rows
    (the earlier on a tie).  With ``workers`` at most R // ``rows``, no run
    is empty."""
    file_order = [(lo, b) for b, n in enumerate(sizes) for lo in range(0, n, rows)]
    items = sorted(file_order)
    bounds = list(accumulate((min(rows, sizes[b] - lo) for lo, b in items), initial=0))
    cuts = []
    for k in range(workers):
        x = bounds[-1] * k // workers
        i = bisect_left(bounds, x)
        cuts.append(i - (i > 0 and x - bounds[i - 1] <= bounds[i] - x))
    cuts.append(len(items))
    return file_order, [items[i:j] for i, j in zip(cuts, cuts[1:])]


def _copy(tmp, pos: int, length: int, out) -> None:
    """Append bytes ``pos`` to ``pos + length - 1`` of ``tmp`` to ``out``.
    A span is one chunk's text, no larger than the strings it was made from."""
    tmp.seek(pos)
    data = tmp.read(length)
    if len(data) != length:
        raise OSError("CSV temp file ended before its texts")
    out.write(data)


def _write_blocks(f, blocks, sizes, rows: int, workers: int, directory) -> None:
    """Write the rows of ``blocks`` to the binary file ``f``, in chunks of
    ``rows`` rows, in ``workers`` processes.

    The items of ``_split`` are formatted run by run: run 0 by this process,
    every other by a helper forked before run 0 starts, so it inherits
    ``blocks`` instead of receiving a pickled copy.  Run 0 goes straight into
    ``f`` when it begins the file in file order, as in every one-block output;
    every other run goes to its own anonymous temp file in ``directory``.
    Each helper sends back its texts' lengths through a pipe, and once every
    helper has exited the texts are copied from the temp files into ``f`` in
    file order.  Where ``directory`` takes no new file (it may be read-only
    while ``f`` itself is writable), this process formats every item in file
    order straight into ``f`` and forks nothing.

    A helper that fails raises ``OSError``; on any failure the helpers still
    running are terminated, and every helper is joined and every pipe and
    temp file closed before this returns or raises.
    """
    file_order, runs = _split(sizes, rows, workers)
    # 1 when run 0 begins the file and goes straight into f, else 0.
    straight = int(runs[0] == file_order[: len(runs[0])])
    # A helper inherits f's buffer: it must be empty, or a flush in the
    # helper would write its lines a second time.
    f.flush()
    fork = multiprocessing.get_context("fork")
    temps, pipes, helpers = [], [], []
    try:
        try:
            for _ in runs[straight:]:
                temps.append(tempfile.TemporaryFile(dir=directory))
        except OSError:
            _write_items(blocks, file_order, rows, f)
            return
        outs = [f] * straight + temps
        for run, tmp in zip(runs[1:], outs[1:]):
            receive, send = fork.Pipe(duplex=False)
            pipes += [receive, send]
            helper = fork.Process(target=_write_run, args=(blocks, run, rows, tmp, send))
            helper.start()
            helpers.append(helper)
            send.close()  # so that a helper's death reads as EOF
        lengths = [_write_items(blocks, runs[0], rows, outs[0])]
        for k, (helper, receive) in enumerate(zip(helpers, pipes[::2]), 1):
            try:
                lengths.append(receive.recv())
            except EOFError:  # the helper died first; its exit code says how
                pass
            helper.join()
            if helper.exitcode != 0:
                lo, b = runs[k][0]
                raise OSError(
                    f"CSV writer process {k} (from row {lo} of block {b}): "
                    f"exited with code {helper.exitcode}"
                )
        spans = {}
        for run, tmp, run_lengths in zip(runs[straight:], temps, lengths[straight:]):
            for item, pos, length in zip(run, accumulate(run_lengths, initial=0), run_lengths):
                spans[item] = (tmp, pos, length)
        for item in file_order[straight * len(runs[0]) :]:
            _copy(*spans[item], f)
    finally:
        for helper in helpers:
            helper.terminate()  # a no-op once the helper has been joined
            helper.join()
            helper.close()
        for conn in pipes:
            conn.close()
        for tmp in temps:
            tmp.close()


def fork_usable() -> bool:
    """Whether this process may fork helpers: the ``fork`` start method
    exists and no other Python thread is running, since forking a process
    with threads is unsafe."""
    return threading.active_count() == 1 and "fork" in multiprocessing.get_all_start_methods()


def _write_csv(path, meta: dict, header: str, blocks, footer=(), threads: int = 1) -> None:
    """Write the ``# key=value`` lines of ``meta`` in key order, the header,
    each block's columns as rows, then the ``footer`` lines, as UTF-8 bytes
    into a file opened in binary mode.

    A block is a sequence of equal-length int or float columns (arrays,
    views or lists); columns of unequal length raise ``ValueError`` before
    the file is opened.  A cell is ``repr`` of the column's ``.tolist()``
    entry: ints print as ints, floats in their shortest round-trip form.

    The rows are formatted in chunks of ``CSV_CELLS`` // C rows (at least
    one), C the column count of the widest block, one column at a time: 2,048
    rows of ``episodes.csv``, 5,461 of ``curve.csv``, 2,340 of ``regret.csv``.
    A distinct cell is formatted once where it repeats: a run of equal cells
    within a column shares one string, and a column chunk identical to an
    earlier one at the same row offset, in the same block or in an earlier
    block formatted by the same process, reuses its strings.  So the columns
    that repeat across episodes (a planned path's ``t``, ``price``,
    ``reference`` and ``expected_revenue``; without noise, every column but
    ``episode`` and ``seed``) are formatted once per process.  Identical
    means the same dtype and the same raw bits, never ``==``: ``0.0`` and
    ``-0.0``, or two NaN payloads, never share a string.  A process holds the
    strings of at most two chunks and the text of one, however many rows,
    columns and blocks there are.

    The chunks are split offset-major into W = min(``threads``,
    rows // ``CSV_CELLS``) contiguous runs of about equal rows, so an output
    under 2 * ``CSV_CELLS`` rows is written by this process alone, whatever
    its width, and no run is empty, since a chunk has at most ``CSV_CELLS``
    rows.  With W > 1 this process formats run 0 and W - 1 forked helpers
    the others; run 0 goes straight into the file when it begins it, every
    other run through its own temp file (see ``_write_blocks``).  W drops to
    1 where this process may not fork (``fork_usable``).  A cell's text does
    not depend on where a chunk or a run begins, and the texts are written in
    file order, so the bytes do not depend on W.
    """
    blocks = [[np.asarray(column) for column in columns] for columns in blocks]
    for columns in blocks:
        lengths = [len(column) for column in columns]
        if len(set(lengths)) > 1:
            raise ValueError(f"CSV block columns differ in length: {lengths}")
    sizes = [len(columns[0]) if columns else 0 for columns in blocks]
    rows = max(1, CSV_CELLS // max([1, *map(len, blocks)]))
    workers = max(1, min(threads, sum(sizes) // CSV_CELLS))
    if workers > 1 and not fork_usable():
        workers = 1
    with open(path, "wb") as f:
        for key, value in sorted(meta.items()):
            f.write(f"# {key}={value}\n".encode())
        f.write((header + "\n").encode())
        _write_blocks(f, blocks, sizes, rows, workers, os.path.dirname(os.path.abspath(path)))
        for line in footer:
            f.write((line + "\n").encode())


def write_episodes_csv(records: Sequence[EpisodeRecord], path, threads: int = 1) -> None:
    """Every round of every episode, one block per episode, after ``#
    key=value`` lines for the run.  The ``# policy_*`` lines (such as a
    learner's ``t2``, ``reset_rounds`` and ``degenerate``) describe the
    first episode only; later episodes may differ."""
    meta = {}
    if records:
        rec = records[0]
        inst = rec.instance
        meta = {
            "policy": rec.policy_kind,
            "T": rec.T,
            "r1": rec.r1,
            "episodes": len(records),
            "instance": f"a={inst.a!r} b={inst.b!r} eta_plus={inst.eta_plus!r} "
            f"eta_minus={inst.eta_minus!r} p_max={inst.p_max!r} p_ratio_bound={inst.p_ratio_bound!r}",
        }
        for key in ("t1_budget", "ra", "rb", "t2", "reset_rounds", "degenerate"):
            if key in rec.meta:
                meta[f"policy_{key}"] = rec.meta[key]
    blocks = (
        (
            np.broadcast_to(i, rec.T),
            np.broadcast_to(rec.seed, rec.T),
            rec.t,
            rec.price,
            rec.reference,
            rec.demand,
            rec.expected_revenue,
            rec.realized_revenue,
        )
        for i, rec in enumerate(records)
    )
    header = "episode,seed,t,price,reference,demand,expected_revenue,realized_revenue"
    _write_csv(path, meta, header, blocks, threads=threads)


def write_regret_csv(
    records: Sequence[RegretRecord],
    slope: Optional[float],
    path,
    extra_meta: Optional[dict] = None,
) -> None:
    columns = [
        [r.T for r in records],
        [r.n_seeds for r in records],
        [r.mean_regret for r in records],
        [r.stderr for r in records],
        [r.baseline_value for r in records],
        [r.policy_value_mean for r in records],
        [int(r.flagged) for r in records],
    ]
    _write_csv(
        path,
        extra_meta or {},
        "T,n_seeds,mean_regret,stderr,baseline_value,policy_value_mean,flagged",
        [columns],
        footer=[f"# slope={'nan' if slope is None else float(slope)}"],
    )


def write_curve_csv(curve, path, threads: int = 1) -> None:
    t = np.arange(curve.t_start, curve.t_start + len(curve.prices))
    _write_csv(path, {}, "t,price,reference", [(t, curve.prices, curve.refs)], threads=threads)
