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
the horizons of a sweep.  A planned path's expected total reads neither the
noise nor the seed, so a sweep runs it once per horizon (see
``regret_sweep``); and a planned episode without noise draws nothing, so it
is the same for every seed: ``simulate`` runs it once, and every seed's
record shares its arrays.

A sweep, a large CSV write and ``validate.run_all`` may fork children
(``_fork``): through ``os.fork`` and pipes alone, with no shared memory and
no POSIX semaphore; ``threads: 1`` starts no process.

The CSV writers format rows in chunks of a fixed number of cells, column by
column, in numpy: each cell's bytes are exactly ``repr``'s, built from its
digits for int64 and for float64 in ``repr``'s positional range, and taken
from ``repr`` itself for every other cell.  A column chunk that repeats,
within a block or across blocks (episodes) at the same row offset, is
formatted once per process, so the bytes a writer holds do not grow with the
rows, the columns or the blocks; a large output is split offset-major among
forked helpers and assembled in file order, with the same bytes for any
number of processes (see ``_write_csv``).  A column is read only through
``len`` and slicing, so a derived column, ``episodes.csv``'s
``realized_revenue``, is made a chunk at a time and never whole.  Every text
goes to a binary file: the output's temp file, renamed onto the output once
whole, or the temp file of the process that formatted it.
"""

from __future__ import annotations

import os
import pickle
import re
import signal
import tempfile
import threading
from bisect import bisect_left
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
# A column chunk of fewer cells is formatted by ``repr``: there numpy's cost
# of about 0.2 ms a chunk is the larger, and a 3-row ``regret.csv`` does not
# load the numpy code that the digit search runs (1 MB of resident memory).
REPR_CELLS = 64


class SimEnv:
    """One pricing episode: posts prices, draws shocks, tracks the reference.

    The running state is ``total``, the exact running sum of r1 and the
    prices posted, and ``t``, the next round; the reference ``r`` is derived
    from them, ``total / t`` (the running-average dynamics).
    ``post_block`` posts a run of rounds; a policy may post rounds itself
    with the same arithmetic and draws, and writes back ``t`` and ``total``.
    Every round's price, reference, demand and expected revenue (price
    times expected demand) are kept in ``prices``, ``refs``, ``demands`` and
    ``expected_revenue``, written as the round is posted.
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
        self.prices = np.empty(T)
        self.refs = np.empty(T)
        self.demands = np.empty(T)
        self.expected_revenue = np.empty(T)

    @property
    def r(self) -> float:
        return self.total / self.t

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
        return out


@dataclass
class EpisodeRecord:
    """Per-round log of one episode plus totals and provenance.

    It stores each value once: ``t``, ``realized_revenue`` and
    ``realized_total`` are derived from ``T``, ``price`` and ``demand`` each
    time they are read."""

    policy_kind: str
    seed: int
    T: int
    r1: float
    instance: Instance
    price: np.ndarray
    reference: np.ndarray
    demand: np.ndarray
    expected_revenue: np.ndarray
    expected_total: float
    meta: dict = field(default_factory=dict)

    @property
    def t(self) -> np.ndarray:
        return np.arange(1, self.T + 1)

    @property
    def realized_revenue(self) -> np.ndarray:
        return self.price * self.demand

    @property
    def realized_total(self) -> float:
        return float(np.sum(self.realized_revenue))


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
    return EpisodeRecord(
        policy_kind=policy.kind,
        seed=seed,
        T=T,
        r1=r1,
        instance=inst,
        price=env.prices,
        reference=env.refs,
        demand=env.demands,
        expected_revenue=env.expected_revenue,
        expected_total=float(np.sum(env.expected_revenue)),
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


def _workers(threads: int, most: int) -> int:
    """Processes for at most ``most`` units of work under the cap
    ``threads``: min(``threads``, ``most``), at least 1, and 1 where this
    process may not fork, since the platform has no ``os.fork`` or another
    Python thread is running (forking a process with threads is unsafe)."""
    if threading.active_count() > 1 or not hasattr(os, "fork"):
        return 1
    return max(1, min(threads, most))


def _fork(name: str, task, n: int) -> list:
    """``[task(0), ..., task(n - 1)]``: task(0) in this process, and each
    other in a child forked (``os.fork``) before task(0) starts, so it
    inherits what ``task`` reads instead of receiving a pickled copy.  With
    n = 1 no process is started.

    Each child has its own pipe.  It pickles ``(True, task(k))``, or
    ``(False, exc)`` for the exception it raised, into the pipe, and leaves
    by ``os._exit``: nonzero if it could not send, and without running this
    process's ``finally`` or ``except`` blocks or flushing a buffer it
    inherited.  Here each pipe is read to its end before its child is
    reaped, so a large result cannot block it.  A child's exception is
    raised here as it is; a child that sent nothing, or exited nonzero,
    raises ``OSError`` with its exit code (negative for a signal).  On any
    failure every child not yet reaped gets SIGTERM; every child is reaped
    and every pipe closed before this returns or raises.
    """
    pids, reads = [], []
    try:
        for k in range(1, n):
            read, write = os.pipe()
            reads.append(open(read, "rb"))
            with open(write, "wb") as send:  # closed here once the child has it, so its death reads as EOF
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        try:
                            message = pickle.dumps((True, task(k)))
                        except BaseException as exc:  # an unpicklable result's error too
                            message = pickle.dumps((False, exc))
                        send.write(message)
                        send.flush()
                        code = 0
                    finally:
                        os._exit(code)
            pids.append(pid)
        results = [task(0)]
        for read in reads:
            message = read.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            del pids[0]  # reaped
            if code or not message:
                raise OSError(f"{name} process {len(results)} exited with code {code}")
            ok, result = pickle.loads(message)
            if not ok:
                raise result
            results.append(result)
        return results
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGTERM)  # a no-op once the child has exited
            os.waitpid(pid, 0)
        for read in reads:
            read.close()


def _episode_value(job) -> tuple[float, bool]:
    """Sweep job: the expected total of one episode, and whether it never
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

    Each horizon gets a job for its baseline and one for each episode the
    policy needs.  A learner runs ``seeds`` episodes, seeds ``base_seed`` to
    ``base_seed + seeds - 1``.  A planned kind (every kind but
    ``learn_then_earn``) runs one, without noise: its prices are fixed
    before the episode, and expected revenue never reads a shock, so every
    seed's episode has the same expected total, and that one value fills
    each seed's slot of the mean and the standard error.  A
    ``markdown_oracle`` spec without ``theta`` is the baseline's policy, so
    it runs none: the baseline's value fills the slots.

    The jobs, in ``T_list`` order, are run largest horizon first by W =
    ``_workers(threads, jobs)`` processes.  With W = 1 this process runs
    them.  With W > 1 it runs none: it writes their indices, in that order,
    into one pipe and closes it, while W forked children (``_fork``) each
    read one index at a time until the pipe ends.  So no lock or shared
    memory is needed, and a child that dies holds nothing another waits on;
    a child's failure is raised here.  Results are read back by job index,
    so they do not depend on ``threads``.

    A record is flagged when its mean regret is negative beyond noise
    tolerance (possible against the near-optimal baseline); flagged or
    nonpositive horizons are excluded from the slope fit.  Horizons whose
    episodes never left exploration (``n_exploring``) still enter it.
    """
    if len(T_list) == 0:
        raise ValueError("T_list must not be empty")
    if seeds < 1:
        raise ValueError("need at least one seed")
    learner = policy_spec["kind"] == "learn_then_earn"
    runs, episode_noise = (seeds, noise) if learner else (1, NoiseSpec.none())
    if policy_spec["kind"] == "markdown_oracle" and policy_spec.get("theta") is None:
        runs = 0  # the baseline's own episode: its job gives the policy's value
    jobs = []
    for T in T_list:
        jobs.append(_baseline_job(inst, r1, T))
        jobs.extend((inst, episode_noise, policy_spec, T, r1, base_seed + i) for i in range(runs))
    order = sorted(range(len(jobs)), key=lambda j: -jobs[j][3])
    workers = _workers(threads, len(jobs))
    if workers == 1:
        done = [(j, _episode_value(jobs[j])) for j in order]
    else:
        read, write = os.pipe()
        with open(read, "rb", buffering=0) as take, open(write, "wb", buffering=0) as feed:

            def task(k):
                if k:  # a child: it takes one job index (4 bytes) at a time until the feed ends
                    feed.close()  # else the feed's end never reads as EOF
                    taken = (int.from_bytes(j, "little") for j in iter(lambda: take.read(4), b""))
                    return [(j, _episode_value(jobs[j])) for j in taken]
                # This process only feeds and waits: episodes run here would
                # add their memory (and numpy.random) to its own.
                take.close()  # else a write would block, not fail, once every child is gone
                data = b"".join(j.to_bytes(4, "little") for j in order)
                try:
                    # Writes of at most 512 bytes, POSIX's least PIPE_BUF, are never split.
                    for lo in range(0, len(data), 512):
                        feed.write(data[lo : lo + 512])
                except BrokenPipeError:
                    pass  # every child is gone: _fork raises what ended them
                feed.close()
                return []

            done = chain(*_fork("sweep", task, workers + 1))
    results = [value for _, value in sorted(done)]
    records = []
    for k, T in enumerate(T_list):
        horizon = results[k * (runs + 1) : (k + 1) * (runs + 1)]
        v_star, episodes = horizon[0][0], horizon[1:] or horizon
        # A planned kind's one value (the baseline's, where it ran none) in every seed's slot.
        episodes *= seeds // len(episodes)
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


# The text of every two-digit number, "00" to "99", as one uint16 each.
_PAIRS = np.array([list(b"%02d" % i) for i in range(100)], np.uint8).view(np.uint16)[:, 0]
# 10^0 to 10^18, the powers of ten an int64 holds.
_POW10 = 10 ** np.arange(19, dtype=np.int64)
# 10^0 to 10^22, every one an exact double, and the two halves of each
# from Dekker's split (2^27 + 1).
_POW10F = np.array([float(10**k) for k in range(23)])
_POW10F_HI = _POW10F * 134217729.0 - (_POW10F * 134217729.0 - _POW10F)
_POW10F_LO = _POW10F - _POW10F_HI
# Row k keeps (0xFF) the first k of 20 bytes and drops (0) the rest.
_KEEP = np.tri(21, 20, -1, np.uint8) * np.uint8(255)


def _digits(v: np.ndarray, pairs: int) -> np.ndarray:
    """The last 2 * ``pairs`` decimal digits of each of ``v`` (int64, >= 0)
    as ASCII, one row each, from the pair table."""
    out = np.empty((len(v), pairs), np.uint16)
    for k in range(pairs - 1, -1, -1):
        q = v // 100
        np.take(_PAIRS, v - q * 100, out=out[:, k])
        v = q
    return out.view(np.uint8)


def _keep(text: np.ndarray, counts: np.ndarray, last: bool = False) -> np.ndarray:
    """Zero all but the first (``last``: the last) ``counts`` bytes of each
    row of the contiguous byte matrix ``text``, in place, with one row of
    ``_KEEP`` per row."""
    width = text.shape[1]
    masks = _KEEP[: width + 1, :width]
    masks = np.ascontiguousarray(masks[:, ::-1] if last else masks)
    rows = np.take(masks.view(np.dtype((np.void, width)))[:, 0], counts)
    return np.bitwise_and(text, rows.view(np.uint8).reshape(text.shape), out=text)


def _repr_cells(values) -> np.ndarray:
    """The ``repr`` of each of ``values`` as a row of bytes, padded with
    zero bytes."""
    texts = np.array([repr(v).encode() for v in values], dtype=bytes)
    return texts.view(np.uint8).reshape(len(texts), texts.dtype.itemsize)


def _fallback(field: np.ndarray, rows: np.ndarray, values) -> np.ndarray:
    """``field`` with rows ``rows`` holding the ``repr`` of ``values``,
    widened where a text needs it."""
    texts = _repr_cells(values)
    width = texts.shape[1]
    if width > field.shape[1]:
        field = np.pad(field, ((0, 0), (0, width - field.shape[1])))
    field[rows] = 0
    field[rows, :width] = texts
    return field


def _format_ints(v: np.ndarray) -> np.ndarray:
    """int64 cells: a sign byte where one is negative, then the digits right
    aligned, their leading zeros as zero bytes.  -2^63, whose magnitude
    int64 cannot hold, gets its ``repr``."""
    a = np.abs(v)
    pairs = (len(str(max(int(a.max(initial=0)), 0))) + 1) // 2
    digits = _keep(_digits(a, pairs), np.maximum(np.searchsorted(_POW10, a, "right"), 1), last=True)
    neg = v < 0
    if not neg.any():
        return digits
    field = np.empty((len(v), 2 * pairs + 1), np.uint8)
    field[:, 0] = neg * ord("-")
    field[:, 1:] = digits
    bad = np.flatnonzero(a < 0)
    return _fallback(field, bad, v[bad].tolist()) if len(bad) else field


def _scaled(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X = ``a`` * 10^``s`` exactly, as its floor N (int64) and its fraction
    F in [0, 1): Dekker's two-product hi + lo, hi an integer as X >= 2^53."""
    bh, bl = _POW10F_HI[s], _POW10F_LO[s]
    hi = a * _POW10F[s]
    ca = 134217729.0 * a
    ah = ca - (ca - a)
    al = a - ah
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    whole = np.floor(lo)
    return hi.astype(np.int64) + whole.astype(np.int64), lo - whole


def _format_floats(x: np.ndarray) -> np.ndarray:
    """float64 cells, as ``repr`` writes them in positional form.

    For 1e-4 <= |x| < 1e16 the shortest round-trip digits are found
    exactly.  With s such that X = |x| * 10^s lies in [10^16, 10^17), x's
    rounding interval scaled by 10^s is X +- H, H = ulp * 10^s / 2, and A to
    B are the integers strictly inside it.  The digits are those of the
    shortest p <= 17 with a multiple of 10^(17 - p) in A to B, the nearest
    to X.  Two candidates can both lie in A to B only for p = 17 and 16, as
    B - A < 23; a cell exactly halfway between two of them gets its
    ``repr``, as does every other cell: nan, infinities, subnormals and the
    exponent form.  ±0.0 print as "0.0" and "-0.0".

    ``repr`` refines the interval twice, and in this range neither changes
    a digit, so both are left out: below a power of two the lower half-width
    is H / 2 (every power of two in the range is pinned in
    ``tests/test_csv_format.py``), and the ends belong to the interval for
    an even mantissa (an end is an integer only where |x| >= 2^52, s = 1,
    as 10x +- 5 or 10x +- 10, and X = 10x itself is then nearer and no
    longer).  A wider range would need both.

    The field is a sign byte where one is negative, the "0." and zeros
    before the digits where |x| < 0.1, then the digits, with a point slot
    after each digit some cell's point follows.
    """
    n = len(x)
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= 1e-4) & (a < 1e16)
    if not (fast | zero).any():
        return _repr_cells(x.tolist())
    a = np.where(fast, a, 1.0)
    s = 16 - np.floor(np.log10(a)).astype(np.int64)
    N, F = _scaled(a, s)
    low, high = N < 10**16, N >= 10**17
    if low.any() or high.any():  # log10 was off by one
        s += low.astype(np.int64) - high
        N, F = _scaled(a, s)
    H = np.spacing(a) * _POW10F[s] / 2.0
    A = N + np.floor(F - H).astype(np.int64) + 1
    B = N + np.ceil(F + H).astype(np.int64) - 1
    # p = 17: the integer nearest X within A to B.
    c = np.minimum(np.maximum(N + (F > 0.5), A), B)
    tie = F == 0.5
    p = np.full(n, 17)
    # p = 16: the multiple of 10 nearest X within A to B.
    r = N - N // 10 * 10
    lo, hi = -(-A // 10) * 10, B // 10 * 10
    rows = np.flatnonzero(lo <= hi)
    c[rows] = np.minimum(np.maximum(N - r + 10 * (r + F > 5), lo), hi)[rows]
    tie[rows] = (r + F == 5)[rows]
    p[rows] = 16
    # p <= 15: at most one multiple of 10^(17 - p), the highest up to B.
    A, B = A[rows], B[rows]
    for k in range(2, 17):
        m = B // 10**k * 10**k
        ok = m >= A
        rows, A, B, m = rows[ok], A[ok], B[ok], m[ok]
        if not len(rows):
            break
        c[rows], tie[rows], p[rows] = m, False, 17 - k
    top = c == 10**17  # rounded up to the next power of ten
    c[top] //= 10
    s -= top  # s = 0 would be 1e16, the exponent form: a fallback below
    c[zero], s[zero], p[zero] = 0, 17, 1
    neg = np.signbit(x)
    end = np.maximum(p - 1, 17 - s)  # the last digit shown
    shown = int(end.max(initial=0)) + 1
    digits = _keep(_digits(c, 9), end + 2)[:, 1 : shown + 1]
    after = 16 - s  # the digit the point follows, where it is >= 0
    slots = np.flatnonzero(np.bincount(after[after >= 0], minlength=1))
    prefix = max(int(s.max(initial=0)) - 15, 0)
    field = np.empty((n, int(neg.any()) + prefix + shown + len(slots)), np.uint8)
    col = 0
    if neg.any():
        field[:, 0] = neg * ord("-")
        col = 1
    if prefix:
        field[:, col] = (s >= 17) * ord("0")
        field[:, col + 1] = (s >= 17) * ord(".")
        for k in range(2, prefix):
            field[:, col + k] = (s >= 16 + k) * ord("0")
        col += prefix
    j0 = 0
    for j in slots:
        field[:, col : col + j + 1 - j0] = digits[:, j0 : j + 1]
        col += j + 1 - j0
        field[:, col] = (after == j) * ord(".")
        col += 1
        j0 = j + 1
    field[:, col:] = digits[:, j0:]
    bad = np.flatnonzero(~(fast | zero) | tie | (s < 1))
    return _fallback(field, bad, x[bad].tolist()) if len(bad) else field


def _format_cells(chunk: np.ndarray) -> np.ndarray:
    """The cells of an int64 or float64 ``chunk`` as a byte matrix, a row per
    cell, each row the cell's text with zero bytes anywhere in it: from
    their digits (see ``_format_ints`` and ``_format_floats``) where there
    are at least ``REPR_CELLS``, else from ``repr`` of each ``.tolist()``
    entry."""
    if len(chunk) < REPR_CELLS:
        return _repr_cells(chunk.tolist())
    return _format_ints(chunk) if chunk.dtype == np.int64 else _format_floats(chunk)


def _format_column(chunk: np.ndarray) -> np.ndarray:
    """The cells of a contiguous ``chunk`` (see ``_format_cells``); a chunk
    of any dtype but int64 and float64 (an object column of ints beyond
    int64, say) is ``repr`` of each ``.tolist()`` entry.  Runs of equal bits
    are formatted once each, repeated, when fewer than half the rows start a
    run."""
    if chunk.dtype not in (np.int64, np.float64):
        return _repr_cells(chunk.tolist())
    bits = chunk.view(f"u{chunk.itemsize}")
    starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    if 2 * (len(starts) + 1) >= len(chunk):
        return _format_cells(chunk)
    starts = np.concatenate(([0], starts))
    return np.repeat(_format_cells(chunk[starts]), np.diff(starts, append=len(chunk)), axis=0)


def _format_chunk(columns, lo: int, rows: int, fields: dict) -> np.ndarray:
    """The text of rows ``lo`` to ``lo + rows - 1`` of ``columns`` (fewer at
    the block's end) as a uint8 array, one column at a time.  ``fields``
    maps a column chunk's (dtype, raw bytes) to its cells' byte matrix: a
    chunk found there is not formatted again, and every new one is added.
    The rows are laid out with their commas and newlines in one byte matrix,
    and its zero bytes dropped."""
    cells = []
    for column in columns:
        chunk = np.ascontiguousarray(column[lo : lo + rows])
        key = (chunk.dtype.str, chunk.tobytes())
        if key not in fields:
            fields[key] = _format_column(chunk)
        cells.append(fields[key])
    if not cells:
        return np.empty(0, np.uint8)
    text = np.empty((len(cells[0]), sum(field.shape[1] + 1 for field in cells)), np.uint8)
    at = 0
    for field in cells:
        width = field.shape[1]
        text[:, at : at + width] = field
        text[:, at + width] = ord(",")
        at += width + 1
    text[:, -1] = ord("\n")
    return text[text != 0]


def _write_items(blocks, items, rows: int, out) -> list:
    """Format ``items``, (row offset, block) pairs of chunks of ``rows`` rows,
    in order, into the binary file ``out``, and flush it; returns the
    lengths of their texts, in order.

    The cells of the first item formatted at an offset are kept while the
    items that follow are at the same offset, and a later item's column chunk
    with the same dtype and raw bits reuses them.  So at most two items'
    cells are held at once: the kept ones and the current item's.
    """
    lengths = []
    kept_at = None
    for lo, b in items:
        if lo != kept_at:
            kept_at, kept = lo, {}
            fields = kept
        else:
            fields = dict(kept)
        lengths.append(out.write(_format_chunk(blocks[b], lo, rows, fields)))
    out.flush()
    return lengths


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
    A span is one chunk's text, no larger than the byte matrix it was
    compacted from."""
    tmp.seek(pos)
    data = tmp.read(length)
    if len(data) != length:
        raise OSError("CSV temp file ended before its texts")
    out.write(data)


def _write_blocks(f, blocks, sizes, rows: int, workers: int, directory) -> None:
    """Write the rows of ``blocks`` to the binary file ``f``, in chunks of
    ``rows`` rows, in ``workers`` processes.

    The items of ``_split`` are formatted run by run with ``_fork``: run 0
    by this process, every other by a child forked before run 0 starts, so
    it inherits ``blocks``.  Run 0 goes straight into ``f`` when it begins
    the file in file order, as in every one-block output; every other run
    goes to its own anonymous temp file in ``directory``, and its texts'
    lengths come back as the child's result.  Once every child has been
    reaped, the texts are copied from the temp files into ``f`` in file
    order.  ``f``'s buffer may hold lines at the fork: a child leaves by
    ``os._exit`` and flushes nothing it inherited.  Where ``directory`` takes no new file (it may be read-only while
    ``f`` itself is writable), this process formats every item in file
    order straight into ``f`` and forks nothing.

    A child's exception is raised here as it is, and a child that dies
    raises ``OSError`` (see ``_fork``); every temp file is closed before
    this returns or raises.
    """
    file_order, runs = _split(sizes, rows, workers)
    # 1 when run 0 begins the file and goes straight into f, else 0.
    straight = int(runs[0] == file_order[: len(runs[0])])
    temps = []
    try:
        try:
            for _ in runs[straight:]:
                temps.append(tempfile.TemporaryFile(dir=directory))
        except OSError:
            _write_items(blocks, file_order, rows, f)
            return
        outs = [f] * straight + temps

        def task(k):
            return _write_items(blocks, runs[k], rows, outs[k])

        lengths = _fork("CSV writer", task, len(runs))
        spans = {}
        for run, tmp, run_lengths in zip(runs[straight:], temps, lengths[straight:]):
            for item, pos, length in zip(run, accumulate(run_lengths, initial=0), run_lengths):
                spans[item] = (tmp, pos, length)
        for item in file_order[straight * len(runs[0]) :]:
            _copy(*spans[item], f)
    finally:
        for tmp in temps:
            tmp.close()


def _remove_stale_temps(directory: str, name: str) -> None:
    """Remove the output temp files ``.<name>.<pid>.tmp`` in ``directory``
    that no running write owns: this process's, as its write of the output
    starts now, and those of a pid no process has, left by a write killed
    outright.  Another live pid's temp may be a write in progress, and is
    kept.  A file that cannot be listed or removed is left as it is."""
    own = os.getpid()
    try:
        entries = os.listdir(directory)
    except OSError:
        return
    for entry in entries:
        # A pid of at most 9 digits, so that ``os.kill`` takes it.
        match = re.fullmatch(rf"\.{re.escape(name)}\.([1-9][0-9]{{0,8}})\.tmp", entry)
        if match is None:
            continue
        pid = int(match[1])
        if pid != own and _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(directory, entry))
        except OSError:
            pass


def _pid_alive(pid: int) -> bool:
    """Whether some process, of any user, has the id ``pid``; True where
    this cannot be told without a signal (``os.kill`` ends a process on
    Windows)."""
    if os.name != "posix":
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # another user's process
        pass
    return True


def _write_csv(path, meta: dict, header: str, blocks, footer=(), threads: int = 1) -> None:
    """Write the ``# key=value`` lines of ``meta`` in key order, the header,
    each block's columns as rows, then the ``footer`` lines, as UTF-8 bytes
    into a file opened in binary mode.

    The output appears whole or not at all.  The text goes to a new file,
    ``.<name>.<pid>.tmp`` in the output's directory, created as ``open``
    would create the output (mode 0o666 less the umask), and that file is
    renamed onto ``path`` with ``os.replace`` once it is complete.  On any
    failure it is removed, and a previous ``path`` keeps its bytes.  A temp
    of the output that a write killed outright left behind is removed first
    where its pid is dead or this process's own (``_remove_stale_temps``),
    so it does not stop the write going through a temp.  Where the
    directory takes no new file (it may be read-only while ``path`` itself
    is writable), the text is written into ``path`` in place, and a failure
    there can leave it partial.

    A block is a sequence of equal-length int or float columns; columns of
    unequal length raise ``ValueError`` before the file is opened.  A list
    or tuple column is made an array whole; any other column is read only
    through ``len`` and slicing, a chunk at a time, so an array, a view, or
    a column made per slice (``_Product``) serves, and a column made per
    slice is never held whole.  A cell is ``repr`` of the column's
    ``.tolist()`` entry: ints print as ints, floats in their shortest
    round-trip form.

    The cells are made in numpy with exactly ``repr``'s bytes: an int64
    cell from its digits (pairs looked up in a 100-entry table), a float64
    cell with 1e-4 <= |x| < 1e16, or ±0.0, from an exact search for its
    shortest round-trip digits (see ``_format_floats``), laid out with its
    sign and point.  Every other cell keeps its own ``repr``: nan, ±inf,
    subnormals, |x| < 1e-4 or >= 1e16 (``repr``'s exponent form), a float
    exactly halfway between two shortest candidates, -2^63, every cell of
    any other dtype, and every cell of a column chunk (or of its distinct
    runs) under ``REPR_CELLS`` cells.  A chunk's cells go into one byte
    matrix with their commas and newlines, padded with zero bytes that one
    mask drops.

    The rows are formatted in chunks of ``CSV_CELLS`` // C rows (at least
    one), C the column count of the widest block, one column at a time: 2,048
    rows of ``episodes.csv``, 5,461 of ``curve.csv``, 2,340 of ``regret.csv``.
    A distinct cell is formatted once where it repeats: a run of equal cells
    within a column is formatted once, and a column chunk identical to an
    earlier one at the same row offset, in the same block or in an earlier
    block formatted by the same process, reuses its bytes.  So the columns
    that repeat across episodes (a planned path's ``t``, ``price``,
    ``reference`` and ``expected_revenue``; without noise, every column but
    ``episode`` and ``seed``) are formatted once per process.  Identical
    means the same dtype and the same raw bits, never ``==``: ``0.0`` and
    ``-0.0``, or two NaN payloads, never share their bytes.  A process holds
    the cells of at most two chunks and the text of one, however many rows,
    columns and blocks there are.

    The chunks are split offset-major into W = ``_workers(threads,
    rows // CSV_CELLS)`` contiguous runs of about equal rows, so an output
    under 2 * ``CSV_CELLS`` rows is written by this process alone, whatever
    its width, and no run is empty, since a chunk has at most ``CSV_CELLS``
    rows.  With W > 1 this process formats run 0 and W - 1 forked children
    the others; run 0 goes straight into the file when it begins it, every
    other run through its own temp file (see ``_write_blocks``).  W drops to
    1 where this process may not fork (``_workers``).  A cell's text does
    not depend on where a chunk or a run begins, and the texts are written in
    file order, so the bytes do not depend on W.
    """
    blocks = [
        [np.asarray(column) if isinstance(column, (list, tuple)) else column for column in columns]
        for columns in blocks
    ]
    for columns in blocks:
        lengths = [len(column) for column in columns]
        if len(set(lengths)) > 1:
            raise ValueError(f"CSV block columns differ in length: {lengths}")
    sizes = [len(columns[0]) if columns else 0 for columns in blocks]
    rows = max(1, CSV_CELLS // max([1, *map(len, blocks)]))
    workers = _workers(threads, sum(sizes) // CSV_CELLS)
    directory = os.path.dirname(os.path.abspath(path))
    name = os.path.basename(path)
    _remove_stale_temps(directory, name)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        f = open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb")
    except OSError:  # the directory takes no new file: write the output in place
        tmp, f = None, open(path, "wb")
    try:
        with f:
            for key, value in sorted(meta.items()):
                f.write(f"# {key}={value}\n".encode())
            f.write((header + "\n").encode())
            _write_blocks(f, blocks, sizes, rows, workers, directory)
            for line in footer:
                f.write((line + "\n").encode())
        if tmp is not None:
            os.replace(tmp, path)
    except BaseException:
        if tmp is not None:
            os.unlink(tmp)
        raise


class _Product:
    """The column ``a * b``, made a slice at a time: the CSV writer reads a
    column only through ``len`` and slicing, so no whole column is made."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a, self.b = a, b

    def __len__(self) -> int:
        return len(self.a)

    def __getitem__(self, rows: slice) -> np.ndarray:
        return self.a[rows] * self.b[rows]


def write_episodes_csv(records: Sequence[EpisodeRecord], path, threads: int = 1) -> None:
    """Every round of every episode, one block per episode, after ``#
    key=value`` lines for the run.  The ``# policy_*`` lines (such as a
    learner's ``t2``, ``reset_rounds`` and ``degenerate``) describe the
    first episode only; later episodes may differ.

    The ``t`` column is one array shared by every block, and
    ``realized_revenue`` is ``price * demand`` made a chunk at a time, the
    same products with the same bits as ``EpisodeRecord.realized_revenue``;
    so the writer holds no T-round column of its own.  Records may share
    their arrays: the records of a planned episode without noise, the same
    for every seed, differ only in ``seed``, and their repeated column
    chunks are formatted once per process."""
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
    t = np.arange(1, max((rec.T for rec in records), default=0) + 1)
    blocks = (
        (
            np.broadcast_to(i, rec.T),
            np.broadcast_to(rec.seed, rec.T),
            t[: rec.T],
            rec.price,
            rec.reference,
            rec.demand,
            rec.expected_revenue,
            _Product(rec.price, rec.demand),
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
