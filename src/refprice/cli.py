"""Command-line interface: solve | simulate | sweep | validate.

Every command takes ``--config PATH`` plus optional dotted overrides
(``run.seeds=50``); ``--out`` and ``--threads`` are shorthands for
``run.out_dir`` and ``run.threads``.  The REFPRICE_SEED environment variable
overrides ``run.base_seed`` (explicit overrides win).  Exit codes: 0 success,
1 validation failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys

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
from .validate import run_all


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
        p.add_argument("--threads", type=int, help="worker cap (overrides run.threads)")
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
    write_curve_csv(curve, path)
    print(
        f"wrote {path}: horizon {cfg.run.T}, markdown starts at round "
        f"{curve.markdown_start}"
    )
    return 0


def cmd_simulate(cfg: ExperimentConfig) -> int:
    if cfg.run.T is None:
        raise ConfigError("simulate requires run.T")
    records = [
        run_episode(
            cfg.instance, cfg.noise, cfg.policy, cfg.run.T, cfg.run.r1, cfg.run.base_seed + i
        )
        for i in range(cfg.run.seeds)
    ]
    path = os.path.join(_outdir(cfg), "episodes.csv")
    write_episodes_csv(records, path)
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
    return 0


def cmd_validate(cfg: ExperimentConfig) -> int:
    results = run_all(seed=cfg.run.base_seed)
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
    except (DomainError, SolverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
