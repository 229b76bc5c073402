"""Per-layer counters for a traced run, installed from outside the package.

``Tracer.install`` rebinds every module-level name (and class attribute) in
``refprice`` that refers to a traced function, so nothing under ``src/``
changes.  A wrapper either only counts calls, or counts them and keeps busy
time and self time (busy time minus the busy time of traced callees).  No
per-call spans are kept: the per-round boundaries (``SimEnv.post``,
``next_price``, ``observe``, ``NoiseSpec.draw``, ``expected_demand``) run
millions of times in one sweep, so they get the cheapest wrapper their metric
allows.

Pool workers: ``harness.regret_sweep`` maps ``harness._episode_value`` over a
``ProcessPoolExecutor`` whose workers are forked, so they inherit the
wrappers.  The wrapped task function zeroes the counters a worker inherited on
its first task and writes the worker's totals to ``dump_dir`` after each task;
``collect`` adds those files to the parent's totals.  Functions missing from
the program are skipped and read as zero.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import sys
import time
from collections import defaultdict

VALIDATE_CHECKS = (
    "check_dense_vs_recursion",
    "check_binary_vs_linear",
    "check_foc_residual",
    "check_reset_brute_force",
    "check_gradient_unbiased",
    "check_curve_lipschitz",
)

# Horizons of configs/learning_sweep.yaml, for policies.exploit_round_share.
SHARE_HORIZONS = (1000, 10000, 100000)


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


class Tracer:
    def __init__(self, dump_dir: str):
        self.dump_dir = dump_dir
        self.pid = os.getpid()
        self.worker_file = None
        # name -> [calls, busy_s, self_s]; wrappers hold these lists, so they
        # are zeroed in place, never replaced.
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(float)
        self.stack: list[float] = []

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, fn, hook=None):
        stat = self.stats[name]
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner
                if stack:
                    stack[-1] += dt
            if hook is not None:
                hook(out, args, kwargs)
            return out

        return wrapper

    def _counted(self, name, fn):
        stat = self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _task(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._become_worker()
            try:
                return fn(*args, **kwargs)
            finally:
                if tracer.worker_file is not None:
                    tracer._dump()

        return wrapper

    # -- hooks that turn arguments and results into work counts ------------

    def _on_probe(self, out, args, kwargs):
        # Each probe rolls the one-step rule over [markdown_start, horizon].
        horizon = _arg(args, kwargs, 3, "horizon")
        self.counts["curve.segment_rounds"] += horizon - _arg(args, kwargs, 2, "markdown_start")

    def _on_solve_curve(self, out, args, kwargs):
        self.counts["curve.solved_rounds"] += len(out.prices)

    def _on_episode(self, rec, args, kwargs):
        c = self.counts
        T, meta = rec.T, rec.meta
        c["harness.episode_rounds"] += T
        c[f"horizon.{T}.rounds"] += T
        if "t2" not in meta:
            return
        t2 = meta["t2"]
        c[f"horizon.{T}.exploit"] += 0 if t2 is None else T - t2 + 1
        c["policies.reset_rounds_planned"] += meta.get("reset_rounds", 0)
        if "learn_rounds_by_phase" in meta:
            explore = T if t2 is None else t2 - 1
            c["policies.reset_rounds_posted"] += explore - sum(meta["learn_rounds_by_phase"])

    def _on_csv(self, out, args, kwargs):
        path = kwargs.get("path") or next(
            a for a in reversed(args) if isinstance(a, (str, os.PathLike))
        )
        with open(path, "rb") as f:
            data = f.read()
        comments = data.count(b"\n#") + data.startswith(b"#")
        self.counts["harness.csv_rows"] += data.count(b"\n") - comments - 1
        self.counts["harness.csv_bytes"] += len(data)

    # -- installation ------------------------------------------------------

    def _rebind(self, orig, wrapper) -> None:
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "refprice" or name.startswith("refprice.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        from refprice import config, curve, harness, model, policies, validate

        functions = [
            (config, "load_config", "timed", None),
            (curve, "solve_curve", "timed", self._on_solve_curve),
            (curve, "segment_initial_price", "timed", self._on_probe),
            (harness, "run_episode", "timed", self._on_episode),
            (harness, "clairvoyant_value", "timed", None),
            (harness, "write_curve_csv", "timed", self._on_csv),
            (harness, "write_episodes_csv", "timed", self._on_csv),
            (harness, "write_regret_csv", "timed", self._on_csv),
            (policies, "reset_ref", "timed", None),
            (policies, "make_policy", "timed", None),
            (model, "expected_demand", "counted", None),
        ] + [(validate, name, "timed", None) for name in VALIDATE_CHECKS]
        for mod, attr, kind, hook in functions:
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            name = f"{mod.__name__.split('.')[-1]}.{attr}"
            if kind == "timed":
                self._rebind(orig, self._timed(name, orig, hook))
            else:
                self._rebind(orig, self._counted(name, orig))

        methods = [
            (getattr(harness, "SimEnv", None), "post", "harness.SimEnv.post", "counted"),
            (model.NoiseSpec, "draw", "model.NoiseSpec.draw", "counted"),
            (model.NoiseSpec, "draw_array", "model.NoiseSpec.draw_array", "counted"),
        ]
        for cls in vars(policies).values():
            if isinstance(cls, type) and issubclass(cls, policies.Policy):
                methods.append((cls, "next_price", "policies.next_price", "timed"))
                methods.append((cls, "observe", "policies.observe", "timed"))
        for cls, attr, name, kind in methods:
            if cls is None or attr not in vars(cls):
                continue
            orig = vars(cls)[attr]
            wrap = self._timed(name, orig) if kind == "timed" else self._counted(name, orig)
            setattr(cls, attr, wrap)

        task = getattr(harness, "_episode_value", None)
        if task is not None:
            self._rebind(task, self._task(task))
        if hasattr(harness, "ProcessPoolExecutor"):
            self._rebind(harness.ProcessPoolExecutor, self._pool_class(harness.ProcessPoolExecutor))

    def _pool_class(self, base):
        counts = self.counts

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                counts["harness.pool.created"] += 1
                super().__init__(*args, **kwargs)

            def _spawn_process(self):
                t0 = time.perf_counter()
                super()._spawn_process()
                counts["harness.pool.spawn_s"] += time.perf_counter() - t0

        return TracedPool

    # -- worker hand-back --------------------------------------------------

    def _become_worker(self) -> None:
        self.pid = os.getpid()
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.stack.clear()
        self.worker_file = os.path.join(self.dump_dir, f"worker-{self.pid}-{time.time_ns()}.json")

    def _dump(self) -> None:
        tmp = self.worker_file + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"stats": dict(self.stats), "counts": dict(self.counts)}, f)
        os.replace(tmp, self.worker_file)

    def collect(self) -> dict:
        """Totals of this process and every pool worker that reported."""
        stats = {k: list(v) for k, v in self.stats.items()}
        counts = defaultdict(float, self.counts)
        files = sorted(glob.glob(os.path.join(self.dump_dir, "worker-*.json")))
        for path in files:
            with open(path) as f:
                part = json.load(f)
            for k, v in part["stats"].items():
                acc = stats.setdefault(k, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += v[i]
            for k, v in part["counts"].items():
                counts[k] += v
        return {"stats": stats, "counts": dict(counts), "workers": len(files)}


def per_layer(raw: dict, traced_wall: float, untraced_wall: float) -> dict:
    """The per-layer metrics of one traced invocation, by their benchmark names."""
    stats = defaultdict(lambda: [0, 0.0, 0.0], raw["stats"])
    counts = defaultdict(float, raw["counts"])

    def calls(name):
        return stats[name][0]

    def busy(name):
        return stats[name][1]

    def self_s(name):
        return stats[name][2]

    def ratio(num, den):
        return num / den if den else 0.0

    writers = ("harness.write_curve_csv", "harness.write_episodes_csv", "harness.write_regret_csv")
    csv_busy = sum(busy(w) for w in writers)
    m = {
        "cli.main.busy_s": traced_wall,
        "config.load_config.busy_s": busy("config.load_config"),
        "curve.solve_curve.calls": calls("curve.solve_curve"),
        "curve.solve_curve.busy_s": busy("curve.solve_curve"),
        "curve.probes": calls("curve.segment_initial_price"),
        "curve.segment_rounds": counts["curve.segment_rounds"],
        "curve.rolled_per_solved_round": ratio(
            counts["curve.segment_rounds"], counts["curve.solved_rounds"]
        ),
        "harness.SimEnv.post.calls": calls("harness.SimEnv.post"),
        "harness.rounds_planned": counts["harness.episode_rounds"]
        - calls("harness.SimEnv.post"),
        "harness.run_episode.calls": calls("harness.run_episode"),
        "harness.run_episode.busy_s": busy("harness.run_episode"),
        "harness.run_episode.self_s": self_s("harness.run_episode"),
        "harness.clairvoyant_value.calls": calls("harness.clairvoyant_value"),
        "harness.clairvoyant_value.busy_s": busy("harness.clairvoyant_value"),
        "harness.pool.created": counts["harness.pool.created"],
        "harness.pool.spawn_s": counts["harness.pool.spawn_s"],
        "harness.csv_rows": counts["harness.csv_rows"],
        "harness.csv_bytes": counts["harness.csv_bytes"],
        "harness.csv_rows_per_s": ratio(counts["harness.csv_rows"], csv_busy),
        "policies.next_price.calls": calls("policies.next_price"),
        "policies.next_price.self_s": self_s("policies.next_price"),
        "policies.observe.busy_s": busy("policies.observe"),
        "policies.reset_ref.calls": calls("policies.reset_ref"),
        "policies.reset_ref.busy_s": busy("policies.reset_ref"),
        "policies.reset_rounds_planned": counts["policies.reset_rounds_planned"],
        "policies.reset_rounds_posted": counts["policies.reset_rounds_posted"],
        "policies.make_policy.busy_s": busy("policies.make_policy"),
        "model.NoiseSpec.draw.calls": calls("model.NoiseSpec.draw"),
        "model.NoiseSpec.draw_array.calls": calls("model.NoiseSpec.draw_array"),
        "model.expected_demand.calls": calls("model.expected_demand"),
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    for w in writers:
        m[f"{w}.busy_s"] = busy(w)
    for T in SHARE_HORIZONS:
        m[f"policies.exploit_round_share.T{T}"] = ratio(
            counts[f"horizon.{T}.exploit"], counts[f"horizon.{T}.rounds"]
        )
    for name in VALIDATE_CHECKS:
        m[f"validate.{name}.busy_s"] = busy(f"validate.{name}")
    return m
