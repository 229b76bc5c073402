"""Command-line interface: solve | simulate | sweep | validate.

Every command takes ``--config PATH`` plus optional dotted overrides
(``run.seeds=50``); ``--out`` and ``--threads`` are shorthands for
``run.out_dir`` and ``run.threads``.  ``run.threads`` caps the worker
processes of a sweep, of a large CSV write and of ``validate``'s groups of
checks; it defaults to the usable cores, and 1 starts no process.  Workers
are forked with ``os.fork`` and report through pipes, so no command needs
shared memory or a POSIX semaphore.  An error in a worker process is raised
in this one, and a worker that dies is an ``OSError`` with its exit code:
either ends the command with one line, as an error here would.
``validate`` prints the same stdout for any ``run.threads``.
CLI runs use one BLAS thread unless ``OPENBLAS_NUM_THREADS`` is set.
The REFPRICE_SEED environment variable overrides ``run.base_seed`` (explicit
overrides win).  Exit codes: 0 success, 1 validation failure or an error
while running (including a file that cannot be written, or memory that
cannot be allocated), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

# Before numpy loads: no command's BLAS work gains from a second, spinning thread.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import ConfigError, ExperimentConfig, load_config
from .curve import SolverError, solve_curve
from .harness import (
    baseline_kind,
    regret_sweep,
    run_episode,
    write_curve_csv,
    write_episodes_csv,
    write_regret_csv,
)
from .model import DomainError, true_policy_params
from .policies import make_policy


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refprice",
        description="Markdown pricing under running-average reference effects: "
        "solve curves, simulate policies, sweep regret, cross-validate solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("solve", "compute the markdown price curve and write it as CSV"),
        ("simulate", "run seeded episodes and write per-round logs"),
        ("sweep", "run a regret sweep over horizons and write summary rows"),
        ("validate", "run the cross-oracle check suites"),
    ]:
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--out", help="output directory (overrides run.out_dir)")
        p.add_argument(
            "--threads",
            type=int,
            help="worker cap for sweeps, large CSV writes and validate (overrides run.threads)",
        )
        p.add_argument(
            "overrides",
            nargs="*",
            metavar="block.key=value",
            help="dotted config overrides, e.g. run.seeds=50",
        )
    return parser


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config, overrides=args.overrides)
    if args.out is not None:
        cfg.run.out_dir = args.out
    if args.threads is not None:
        if args.threads < 1:
            raise ConfigError("threads must be at least 1")
        cfg.run.threads = args.threads
    return cfg


def _outdir(cfg: ExperimentConfig) -> str:
    os.makedirs(cfg.run.out_dir, exist_ok=True)
    return cfg.run.out_dir


def cmd_solve(cfg: ExperimentConfig) -> int:
    if cfg.run.T is None:
        raise ConfigError("solve requires run.T")
    theta = true_policy_params(cfg.instance)
    curve = solve_curve(theta, cfg.run.r1, 1, cfg.run.T, cfg.instance.p_max)
    path = os.path.join(_outdir(cfg), "curve.csv")
    write_curve_csv(curve, path, threads=cfg.run.threads)
    print(
        f"wrote {path}: horizon {cfg.run.T}, markdown starts at round "
        f"{curve.markdown_start}"
    )
    return 0


def _episodes(cfg: ExperimentConfig) -> list:
    """The record of every seed's episode.  A planned path does not depend
    on the seed, so it is built once; without noise a planned episode draws
    nothing either, so it runs once and every seed's record shares its
    arrays, with only ``seed`` changed.  The path itself is dropped on
    return."""
    seeds = range(cfg.run.base_seed, cfg.run.base_seed + cfg.run.seeds)
    policy = cfg.policy
    if policy["kind"] != "learn_then_earn":
        policy = make_policy(policy, cfg.instance, cfg.run.T, cfg.run.r1, rng=None)
        if cfg.noise.kind == "none":
            rec = run_episode(cfg.instance, cfg.noise, policy, cfg.run.T, cfg.run.r1, seeds[0])
            return [dataclasses.replace(rec, seed=seed) for seed in seeds]
    return [run_episode(cfg.instance, cfg.noise, policy, cfg.run.T, cfg.run.r1, seed) for seed in seeds]


def cmd_simulate(cfg: ExperimentConfig) -> int:
    if cfg.run.T is None:
        raise ConfigError("simulate requires run.T")
    records = _episodes(cfg)
    path = os.path.join(_outdir(cfg), "episodes.csv")
    write_episodes_csv(records, path, threads=cfg.run.threads)
    mean_total = sum(r.expected_total for r in records) / len(records)
    print(f"wrote {path}: {len(records)} episodes, mean expected total {mean_total:.6g}")
    return 0


def cmd_sweep(cfg: ExperimentConfig) -> int:
    if not cfg.run.T_list:
        raise ConfigError("sweep requires a non-empty run.T_list")
    records, slope = regret_sweep(
        cfg.instance,
        cfg.noise,
        cfg.policy,
        cfg.run.T_list,
        cfg.run.seeds,
        cfg.run.r1,
        base_seed=cfg.run.base_seed,
        threads=cfg.run.threads,
    )
    meta = {
        "policy": cfg.policy["kind"],
        "baseline_kind": baseline_kind(cfg.instance),
        "base_seed": cfg.run.base_seed,
        "r1": repr(cfg.run.r1),
        "noise": cfg.noise.kind,
    }
    path = os.path.join(_outdir(cfg), "regret.csv")
    write_regret_csv(records, slope, path, extra_meta=meta)
    slope_txt = "n/a" if slope is None else f"{slope:.4f}"
    print(f"wrote {path}: {len(records)} horizons, log-log slope {slope_txt}")
    for rec in records:
        if rec.flagged:
            print(f"warning: negative mean regret at T={rec.T} (baseline inconsistency?)")
        if rec.n_exploring:
            print(
                f"note: at T={rec.T}, {rec.n_exploring} of {rec.n_seeds} episodes never left"
                " exploration; the horizon still enters the slope fit"
            )
    return 0


def cmd_validate(cfg: ExperimentConfig) -> int:
    # Imported here: the oracles are the largest module to load, and no
    # other command needs them.
    from .validate import run_all

    results = run_all(seed=cfg.run.base_seed, threads=cfg.run.threads)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail}")
        failed += not res.passed
    if failed:
        print(f"{failed} check(s) failed")
        return 1
    print("all checks passed")
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, SolverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's failed allocations among them
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
