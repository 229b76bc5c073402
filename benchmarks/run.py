"""Benchmark of the refprice command line: four fixed workloads, end-to-end
metrics with tracing off, per-layer metrics from a separate traced run.

    python3 benchmarks/run.py --workload solve_long --seed 0 --seconds 28 --trace 0 [--out results.jsonl]

Run from anywhere inside a checkout that holds ``src/refprice`` and
``configs/``.  Every CLI invocation runs in a fresh interpreter started by
this script (``child.py``), which also times the set-up (import plus config
load).  The run repeats the workload until the next invocation would end
after ``--seconds``, checks every output, and reports medians.  With
``--trace 1`` it then makes one traced invocation and reports the per-layer
metrics instead of the end-to-end ones.  The last line of stdout is one JSON
object; ``--out`` appends the full record (samples, quartiles, machine,
fingerprints) as one JSON line.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
# A run must end within 180 s; invocations still running at this point are
# killed and count as failed.
RUN_LIMIT_S = 165.0


@dataclass
class Workload:
    command: str
    config: str
    overrides: list
    # Rounds solved or simulated per invocation, for rounds_per_s.
    rounds: int
    # Whether the benchmark seed is passed to the program as run.base_seed.
    seeded: bool = True
    threads: int = 0


WORKLOADS = {
    "solve_long": Workload("solve", "configs/default.yaml", ["run.T=100000"], 100_000),
    "learning_sweep": Workload(
        "sweep", "configs/learning_sweep.yaml", ["run.seeds=4"], 444_000, threads=2
    ),
    "simulate_csv": Workload("simulate", "configs/two_price_gap.yaml", ["run.seeds=2"], 200_000),
    # validate runs at its config's own seed: see README.md.
    "validate_oracles": Workload("validate", "configs/default.yaml", [], 0, seeded=False),
}


@dataclass
class Invocation:
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    result: dict
    stdout: str


@dataclass
class Context:
    """What an output check sees of one invocation."""

    seed: int
    cfg: object
    outdir: str
    stdout: str


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def invoke(spec: dict, work: str, timeout: float) -> Invocation:
    """Run child.py on ``spec`` in a fresh interpreter and wait for it.

    CPU time and peak RSS come from wait4, so they include the pool workers
    the child reaped."""
    spec_path = os.path.join(work, "spec.json")
    spec = dict(spec, result=os.path.join(work, "result.json"))
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    if os.path.exists(spec["result"]):
        os.remove(spec["result"])
    stdout_path = os.path.join(work, "stdout.txt")
    env = {k: v for k, v in os.environ.items() if k != "REFPRICE_SEED"}
    with open(stdout_path, "w") as out:
        proc = subprocess.Popen(
            [sys.executable, CHILD, spec_path],
            stdout=out,
            stderr=subprocess.STDOUT,
            cwd=ROOT,
            env=env,
            start_new_session=True,
        )
    timer = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
    timer.start()
    _, status, ru = os.wait4(proc.pid, 0)
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stdout_path) as f:
        stdout = f.read()
    result = {}
    if os.path.exists(spec["result"]):
        with open(spec["result"]) as f:
            result = json.load(f)
    return Invocation(
        rc=proc.returncode,
        wall_s=result.get("wall_s", float("nan")),
        cpu_s=ru.ru_utime + ru.ru_stime,
        peak_rss_mb=ru.ru_maxrss / 1024.0,
        result=result,
        stdout=stdout,
    )


def summary(values: list) -> dict:
    """Median, quartiles and count, quartiles as statistics.quantiles gives them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def machine() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(ROOT),
    }


def git_revision(root: str) -> str:
    """HEAD's commit id, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def check_output(name: str, inv: Invocation, ctx: Context, expected: dict):
    import checks

    if inv.rc != 0:
        tail = inv.stdout.strip().splitlines()[-3:]
        return [f"exit code {inv.rc}: {' | '.join(tail)}"], {}
    try:
        return getattr(checks, name)(ctx, expected[name])
    except Exception as exc:  # a malformed output is a failed check, not a crash
        return [f"output check could not read the output: {exc!r}"], {}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the full result record to this JSON-lines file")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [
        p
        for p in ("src/refprice/cli.py", "configs", "BENCHMARK.json")
        if not os.path.exists(os.path.join(ROOT, p))
    ]
    if missing:
        print(f"error: not a refprice checkout; missing {missing} under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    if args.seconds is None:
        args.seconds = declared["run_seconds"]

    wl = WORKLOADS[args.workload]
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    work = os.path.join(ROOT, ".bench_run", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        return measure(args, wl, declared, expected, work, started, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run still uses it
            pass


def measure(args, wl, declared, expected, work, started, deadline) -> int:
    from refprice.config import load_config

    outdir = os.path.join(work, "out")
    overrides = list(wl.overrides) + ([f"run.base_seed={args.seed}"] if wl.seeded else [])
    config = os.path.join(ROOT, wl.config)
    cfg = load_config(config, overrides=overrides)
    argv = [wl.command, "--config", config, "--out", outdir] + overrides
    if wl.threads:
        argv += ["--threads", str(wl.threads)]
    base = {"src": SRC, "config": config, "overrides": overrides, "argv": argv}
    ctx = Context(seed=args.seed, cfg=cfg, outdir=outdir, stdout="")

    invocations, problems, observed = [], [], {}
    attempted = failed = 0
    loop_start = time.monotonic()
    while True:
        inv = invoke(dict(base, trace=False), work, deadline - time.monotonic())
        attempted += 1
        found, observed = check_output(args.workload, inv, replace(ctx, stdout=inv.stdout), expected)
        shutil.rmtree(outdir, ignore_errors=True)
        if found:
            failed += 1
            problems += found
        if "wall_s" in inv.result:
            invocations.append(inv)
        spent = time.monotonic() - loop_start
        per_call = spent / attempted
        if spent + per_call > args.seconds or time.monotonic() + per_call > deadline:
            break

    layers, workers = {}, 0
    if args.trace:
        trace_dir = os.path.join(work, "trace")
        os.makedirs(trace_dir)
        inv = invoke(
            dict(base, trace=True, trace_dir=trace_dir), work, deadline - time.monotonic()
        )
        attempted += 1
        found, _ = check_output(args.workload, inv, replace(ctx, stdout=inv.stdout), expected)
        if found or "trace" not in inv.result:
            failed += 1
            problems += found or ["traced run returned no trace"]
        else:
            import tracer

            untraced = statistics.median(i.wall_s for i in invocations) if invocations else inv.wall_s
            layers = tracer.per_layer(inv.result["trace"], inv.wall_s, untraced)
            workers = inv.result["trace"]["workers"]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "argv": argv,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "observed": observed,
        "samples": {
            "wall_s": [i.wall_s for i in invocations],
            "cpu_s": [i.cpu_s for i in invocations],
            "peak_rss_mb": [i.peak_rss_mb for i in invocations],
            # The first interpreter of a run may also compile the package's
            # bytecode, so its set-up time is left out.
            "setup_s": [i.result["setup_s"] for i in invocations[1:] or invocations],
        },
        "run_s": time.monotonic() - started,
    }
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    stats = {k: summary(v) for k, v in record["samples"].items() if v}
    record["end_to_end"] = stats
    if wl.rounds and "wall_s" in stats:
        record["rounds_per_s"] = wl.rounds / stats["wall_s"]["median"]
    record["error_rate"] = failed / attempted
    record["per_layer"] = layers
    record["trace_workers_reporting"] = workers

    report(record, units, wl)
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")

    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    source = layers if args.trace else {k: v["median"] for k, v in stats.items()}
    metrics = {n: {"value": source[n], "unit": units[n]} for n in names if n in source}
    if len(metrics) != len(names):
        print(f"error: metrics not measured: {sorted(set(names) - set(metrics))}", file=sys.stderr)
    final = {
        "correct": failed == 0 and len(metrics) == len(names),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0


def report(record: dict, units: dict, wl: Workload) -> None:
    m = record["machine"]
    print(
        f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
        f"{m['nproc']} x {m['cpu']}, Python {m['python']}, numpy {m['numpy']}, "
        f"revision {m['git_revision']}"
    )
    for name, s in record["end_to_end"].items():
        print(
            f"  {name:<14} median {s['median']:.6g} {units[name]}"
            f"  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})"
        )
    if "rounds_per_s" in record:
        print(f"  {'rounds_per_s':<14} {record['rounds_per_s']:.6g} 1/s at {wl.rounds} rounds")
    print(
        f"  {'error_rate':<14} {record['error_rate']:.3g}"
        f"  ({record['failed']} of {record['attempted']} invocations failed)"
    )
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")
    if record["trace"]:
        print(f"  pool workers whose counters reached the trace: {record['trace_workers_reporting']}")
    for name, value in sorted(record["per_layer"].items()):
        print(f"  {name:<44} {value:.6g} {units[name]}")


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
