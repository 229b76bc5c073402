"""Episode simulation, clairvoyant baselines, regret sweeps, and CSV output.

An episode is one loop: the policy hands over its next block of prices
(``Policy.next_block``), the simulator posts the block, trimmed to the
horizon, and the policy observes the block's demands.  Regret is measured on
expected revenue: noise perturbs only what the policy observes, not how a
posted price sequence is scored.  Episodes are deterministic given (instance,
noise, policy spec, T, r1, seed); the seed for episode i of a run is
base_seed + i, with the same seed list reused across the horizons of a sweep.
"""

from __future__ import annotations

import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .curve import curve_value
from .model import Instance, NoiseSpec, expected_demand, expected_demand_vec
from .policies import Policy, make_policy, markdown_curve

# Blocks shorter than this go through the scalar ``post``: one numpy block
# costs about as much as 7 scalar rounds.
BLOCK_CUTOVER = 8
# Longest run of rounds ``post_block`` handles with one set of numpy
# temporaries.
BLOCK_CHUNK = 4096
# Rows the CSV writer formats and writes at a time.
CSV_ROWS = 16384


class SimEnv:
    """One pricing episode: posts prices, draws shocks, tracks the reference.

    The reference follows the running-average dynamics, kept as an exact
    (sum, count) pair.  ``post`` posts one round and returns its realized
    demand; ``post_block`` posts a run of rounds with the same arithmetic and
    the same random draws.  Every round's price, reference and demand are
    kept in ``prices``, ``refs`` and ``demands``.  Prices outside [0, p_max]
    are a hard failure.
    """

    def __init__(
        self,
        inst: Instance,
        noise: NoiseSpec,
        T: int,
        r1: float,
        rng: np.random.Generator,
    ):
        if not (0.0 <= r1 <= inst.p_max):
            raise ValueError(f"r1 {r1} outside [0, {inst.p_max}]")
        self.inst = inst
        self.noise = noise
        self.T = T
        self.rng = rng
        self.t = 1
        self._count = 1
        self._total = r1
        self._r = r1
        self.prices = np.empty(T)
        self.refs = np.empty(T)
        self.demands = np.empty(T)

    @property
    def r(self) -> float:
        return self._r

    def post(self, price: float) -> float:
        if self.t > self.T:
            raise RuntimeError("episode horizon exhausted")
        expected = expected_demand(self.inst, price, self._r)
        demand = expected + self.noise.draw(self.rng)
        i = self.t - 1
        self.prices[i] = price
        self.refs[i] = self._r
        self.demands[i] = demand
        self._total += price
        self._count += 1
        self._r = self._total / self._count
        self.t += 1
        return demand

    def post_block(self, prices: Sequence[float]) -> Sequence[float]:
        """Post ``prices`` in order and return their realized demands.

        Bit for bit the same as calling ``post`` on each price: the running
        total is a sequential cumsum seeded with the total, and the shocks
        come from one ``draw_array`` per chunk, which yields the scalar
        draws' numbers.
        """
        n = len(prices)
        if n < BLOCK_CUTOVER:
            return [self.post(p) for p in prices]
        if self.t + n - 1 > self.T:
            raise RuntimeError("episode horizon exhausted")
        prices = np.asarray(prices, dtype=float)
        out = self.demands[self.t - 1 : self.t - 1 + n]
        acc = np.empty(BLOCK_CHUNK + 1)
        for lo in range(0, n, BLOCK_CHUNK):
            p = prices[lo : lo + BLOCK_CHUNK]
            m = len(p)
            totals = acc[: m + 1]
            totals[0] = self._total
            totals[1:] = p
            np.cumsum(totals, out=totals)
            refs = totals[:-1] / np.arange(self._count, self._count + m, dtype=float)
            demand = expected_demand_vec(self.inst, p, refs) + self.noise.draw_array(self.rng, m)
            out[lo : lo + m] = demand
            i = self.t - 1
            self.prices[i : i + m] = p
            self.refs[i : i + m] = refs
            self._total = float(totals[-1])
            self._count += m
            self._r = self._total / self._count
            self.t += m
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


def _finish_record(
    inst: Instance,
    policy: Policy,
    seed: int,
    T: int,
    r1: float,
    prices: np.ndarray,
    refs: np.ndarray,
    demands: np.ndarray,
) -> EpisodeRecord:
    expected = expected_demand_vec(inst, prices, refs)
    expected_rev = prices * expected
    realized_rev = prices * demands
    return EpisodeRecord(
        policy_kind=policy.kind,
        seed=seed,
        T=T,
        r1=r1,
        instance=inst,
        t=np.arange(1, T + 1),
        price=prices,
        reference=refs,
        demand=demands,
        expected_revenue=expected_rev,
        realized_revenue=realized_rev,
        expected_total=float(np.sum(expected_rev)),
        realized_total=float(np.sum(realized_rev)),
        meta=policy.meta(),
    )


def run_episode(
    inst: Instance,
    noise: NoiseSpec,
    policy: Union[dict, Policy],
    T: int,
    r1: float,
    seed: int,
) -> EpisodeRecord:
    """Simulate one episode.  ``policy`` is a config mapping (a fresh policy is
    built) or an already-built single-episode Policy."""
    rng = np.random.default_rng(seed)
    if isinstance(policy, dict):
        policy = make_policy(policy, inst, T, r1, rng)
    env = SimEnv(inst, noise, T, r1, rng)
    while env.t <= T:
        t = env.t
        block = policy.next_block(t, env.r)[: T - t + 1]
        if len(block) == 0:
            raise ValueError(f"policy {policy.kind!r} returned no price for round {t}")
        policy.observe(t, env.post_block(block))
    return _finish_record(inst, policy, seed, T, r1, env.prices, env.refs, env.demands)


def baseline_kind(inst: Instance) -> str:
    """Whether the clairvoyant baseline is the exact optimum or the
    near-optimal curve (asymmetric reference effects)."""
    return "exact_optimum" if inst.symmetric else "near_optimal"


@functools.lru_cache(maxsize=128)
def _clairvoyant_cached(inst: Instance, r1: float, T: int) -> float:
    return curve_value(inst, markdown_curve(inst, r1, T), r1)


def clairvoyant_value(inst: Instance, r1: float, T: int) -> float:
    """Total expected revenue of the clairvoyant curve policy.

    Symmetric effects: the curve from r1, which is the exact optimum.
    Asymmetric: the curve computed from p_max, evaluated from r1; see
    ``baseline_kind``."""
    return _clairvoyant_cached(inst, float(r1), int(T))


@dataclass
class RegretRecord:
    T: int
    n_seeds: int
    mean_regret: float
    stderr: float
    baseline_value: float
    policy_value_mean: float
    flagged: bool = False


def _episode_value(job) -> float:
    """Pool task: the expected total of one episode, or the clairvoyant
    baseline's when the job's policy spec is None."""
    inst, noise, policy_spec, T, r1, seed = job
    if policy_spec is None:
        return clairvoyant_value(inst, r1, T)
    return run_episode(inst, noise, policy_spec, T, r1, seed).expected_total


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
    first, run by a single process pool when ``threads > 1``; results are
    read back in job order, so they do not depend on ``threads``.

    A record is flagged when its mean regret is negative beyond noise
    tolerance (possible against the near-optimal baseline); flagged or
    nonpositive horizons are excluded from the slope fit.
    """
    if len(T_list) == 0:
        raise ValueError("T_list must not be empty")
    if seeds < 1:
        raise ValueError("need at least one seed")
    order = sorted(range(len(T_list)), key=lambda k: -T_list[k])
    jobs = []
    for k in order:
        T = T_list[k]
        jobs.append((inst, noise, None, T, r1, None))
        jobs.extend((inst, noise, policy_spec, T, r1, base_seed + i) for i in range(seeds))
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_episode_value, jobs))
    else:
        results = [_episode_value(j) for j in jobs]
    by_horizon = {k: results[j * (seeds + 1) : (j + 1) * (seeds + 1)] for j, k in enumerate(order)}
    records = []
    for k, T in enumerate(T_list):
        v_star, *values = by_horizon[k]
        values = np.asarray(values)
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


def _write_csv(path, meta: dict, header: str, blocks, footer=()) -> None:
    """Write the ``# key=value`` lines of ``meta`` in key order, the header,
    each block's columns as rows, then the ``footer`` lines.

    A block is a sequence of equal-length int or float columns (arrays,
    views or lists); columns of unequal length raise ``ValueError``.  A cell
    is ``repr`` of the column's ``.tolist()`` entry: ints print as ints,
    floats in their shortest round-trip form.

    Each block is formatted and written ``CSV_ROWS`` rows at a time, one
    column at a time, so memory is bounded by the chunk.  A distinct cell is
    formatted once where it repeats: a run of equal cells within a column
    shares one string, and a column chunk identical to an earlier column's
    in the same block reuses that column's strings.  Equal means the same
    dtype and the same raw bits, never ``==``: ``0.0`` and ``-0.0``, or two
    NaN payloads, never share a string.
    """
    with open(path, "w") as f:
        for key, value in sorted(meta.items()):
            f.write(f"# {key}={value}\n")
        f.write(header + "\n")
        for columns in blocks:
            columns = [np.asarray(column) for column in columns]
            lengths = [len(column) for column in columns]
            if len(set(lengths)) > 1:
                raise ValueError(f"CSV block columns differ in length: {lengths}")
            for lo in range(0, lengths[0] if lengths else 0, CSV_ROWS):
                by_bits = {}
                cells = []
                for column in columns:
                    chunk = np.ascontiguousarray(column[lo : lo + CSV_ROWS])
                    key = (chunk.dtype.str, chunk.tobytes())
                    if key not in by_bits:
                        by_bits[key] = _format_column(chunk)
                    cells.append(by_bits[key])
                f.write("\n".join(map(",".join, zip(*cells))) + "\n")
        for line in footer:
            f.write(line + "\n")


def write_episodes_csv(records: Sequence[EpisodeRecord], path) -> None:
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
            np.full(rec.T, i),
            np.full(rec.T, rec.seed),
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
    _write_csv(path, meta, header, blocks)


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


def write_curve_csv(curve, path) -> None:
    t = np.arange(curve.t_start, curve.t_start + len(curve.prices))
    _write_csv(path, {}, "t,price,reference", [(t, curve.prices, curve.refs)])
