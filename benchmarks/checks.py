"""Output checks, one per workload.

Each check reads what one CLI invocation left behind and returns
``(problems, observed)``: a list of what is wrong (empty when the output is
correct) and the workload's fingerprint as observed, in the same shape as its
entry in ``expected.json``.  Structural checks run for every seed;
fingerprints that depend on the seed are compared at ``DEFAULT_SEED`` only.
"""

from __future__ import annotations

import hashlib
import math
import os
import re

import numpy as np

DEFAULT_SEED = 0
FOC_TOL = 1e-8
PRICE_TOL = 1e-12
REL_TOL = 1e-9


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * max(abs(a), abs(b))


def solve_long(ctx, expected):
    """curve.csv of ``solve`` at a long horizon.  The solve does not read the seed,
    so the fingerprint holds for every seed."""
    from refprice.curve import PriceCurve, foc_residual
    from refprice.model import true_policy_params

    problems = []
    match = re.search(r"markdown starts at round (\d+)", ctx.stdout)
    if match is None:
        return ["no markdown start in the CLI message"], {}
    md = int(match.group(1))
    path = os.path.join(ctx.outdir, "curve.csv")
    with open(path) as f:
        header = f.readline().rstrip("\n")
    if header != "t,price,reference":
        problems.append(f"curve.csv header {header!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    T = ctx.cfg.run.T
    t, prices, refs = data[:, 0], data[:, 1], data[:, 2]
    if len(t) != T or not np.array_equal(t, np.arange(1, T + 1)):
        return problems + [f"curve.csv rounds are not 1..{T}"], {}
    p_max = ctx.cfg.instance.p_max
    if np.any(prices < 0.0) or np.any(prices > p_max):
        problems.append("a price lies outside [0, p_max]")
    if np.any(np.diff(prices) > PRICE_TOL):
        problems.append("prices are not non-increasing")
    theta = true_policy_params(ctx.cfg.instance)
    resid = foc_residual(PriceCurve(1, md, prices, refs), theta)
    if not resid <= FOC_TOL:
        problems.append(f"FOC residual {resid:.3e} above {FOC_TOL:g}")
    rounds = (1, 2, T // 10, T // 4, T // 2, 3 * T // 4, T - 1, T, md - 1, md, md + 1)
    observed = {
        "markdown_start": md,
        "sample_prices": {str(r): float(prices[r - 1]) for r in sorted(set(rounds)) if 1 <= r <= T},
    }
    if md != expected["markdown_start"]:
        problems.append(f"markdown start {md}, expected {expected['markdown_start']}")
    for r, p in expected["sample_prices"].items():
        got = observed["sample_prices"].get(r)
        if got is None or abs(got - p) > PRICE_TOL:
            problems.append(f"price at round {r} is {got!r}, expected {p!r}")
    return problems, observed


def simulate_csv(ctx, expected):
    """episodes.csv of ``simulate`` with the two-price policy.  The workload
    has no noise, so only the seed column depends on the seed: the hash of
    every row without that column is compared for every seed, the sha256 of
    the whole file at the default seed."""
    problems = []
    whole = hashlib.sha256()
    seedless = hashlib.sha256()
    meta, header = [], None
    rows = 0
    episodes = ctx.cfg.run.seeds
    T = ctx.cfg.run.T
    base = ctx.cfg.run.base_seed
    with open(os.path.join(ctx.outdir, "episodes.csv"), "rb") as f:
        for line in f:
            whole.update(line)
            if header is None:
                if line.startswith(b"#"):
                    meta.append(line.decode().rstrip("\n"))
                else:
                    header = line.decode().rstrip("\n")
                continue
            episode, seed, t, rest = line.split(b",", 3)
            e = rows // T
            if int(episode) != e or int(seed) != base + e or int(t) != rows % T + 1:
                problems.append(f"row {rows + 1}: episode/seed/t columns out of sequence")
                break
            seedless.update(b"%s,%s,%s" % (episode, t, rest))
            rows += 1
    observed = {
        "meta": meta,
        "header": header,
        "rows": rows,
        "sha256_without_seed": seedless.hexdigest(),
        "sha256": whole.hexdigest(),
    }
    if rows != episodes * T:
        problems.append(f"{rows} rows, expected {episodes * T}")
    for key in ("meta", "header", "sha256_without_seed"):
        if observed[key] != expected[key]:
            problems.append(f"episodes.csv {key} differs from the expected output")
    if ctx.seed == DEFAULT_SEED and observed["sha256"] != expected["sha256"]:
        problems.append("episodes.csv is not byte-identical to the expected output")
    return problems, observed


def _ols_slope(rows):
    pts = [(r[0], r[2]) for r in rows if r[2] > 0 and not r[6]]
    if len(pts) < 2:
        return float("nan")
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])


def learning_sweep(ctx, expected):
    """regret.csv of ``sweep`` with the explore-then-exploit learner."""
    problems = []
    meta, header, rows, slope = {}, None, [], None
    with open(os.path.join(ctx.outdir, "regret.csv")) as f:
        for line in f.read().splitlines():
            if line.startswith("# slope="):
                slope = float(line[len("# slope=") :])
            elif line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
            elif header is None:
                header = line
            else:
                v = line.split(",")
                rows.append([int(v[0]), int(v[1])] + [float(x) for x in v[2:6]] + [int(v[6])])
    observed = {"meta": meta, "header": header, "rows": rows, "slope": slope}
    if header != expected["header"]:
        problems.append(f"regret.csv header {header!r}")
    want_meta = dict(expected["meta"], base_seed=str(ctx.seed))
    if meta != want_meta:
        problems.append(f"regret.csv metadata {meta!r}, expected {want_meta!r}")
    want_rows = expected["rows"]
    if [r[:2] for r in rows] != [r[:2] for r in want_rows]:
        return problems + ["regret.csv T/n_seeds columns differ"], observed
    for got, want in zip(rows, want_rows):
        T, regret, stderr, baseline, value, flagged = got[0], *got[2:]
        if not _close(baseline, want[4]):
            problems.append(f"T={T}: baseline_value {baseline!r}, expected {want[4]!r}")
        if not abs(regret - (baseline - value)) <= REL_TOL * abs(baseline):
            problems.append(f"T={T}: mean_regret is not baseline_value - policy_value_mean")
        if not (stderr >= 0.0 and math.isfinite(stderr)) or flagged not in (0, 1):
            problems.append(f"T={T}: stderr or flagged out of range")
    if slope is None or not _close(slope, _ols_slope(rows)):
        problems.append(f"slope {slope!r} is not the log-log fit of the rows")
    if ctx.seed == DEFAULT_SEED:
        for got, want in zip(rows, want_rows):
            if got[6] != want[6] or not all(_close(a, b) for a, b in zip(got[2:6], want[2:6])):
                problems.append(f"T={got[0]}: row {got!r}, expected {want!r}")
        if slope is None or not _close(slope, expected["slope"]):
            problems.append(f"slope {slope!r}, expected {expected['slope']!r}")
    return problems, observed


def validate_oracles(ctx, expected):
    """Every cross-oracle check of ``validate`` reports PASS."""
    lines = ctx.stdout.splitlines()
    passed = [l.split(":")[0][len("PASS ") :] for l in lines if l.startswith("PASS ")]
    failed = [l for l in lines if l.startswith("FAIL ")]
    problems = [f"check failed: {l}" for l in failed]
    if passed != expected["checks"]:
        problems.append(f"checks passed {passed}, expected {expected['checks']}")
    if "all checks passed" not in lines:
        problems.append("no 'all checks passed' line")
    return problems, {"checks": passed}
