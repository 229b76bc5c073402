"""Compare two benchmark result files, metric by metric.

    python3 benchmarks/compare.py BASE.jsonl NEW.jsonl

Each file holds the records ``run.py --out`` appends, one JSON object a line,
from any number of runs, workloads and seeds.  For each workload and metric
the command prints the median over the runs of each file, the ratio new/base
with its base, and a verdict against the bound in BENCHMARK.json:

- ``worse``: the new median is worse than the base median by more than the bound;
- ``better``: it is better by more than the bound and than the base's own
  quartile spread;
- ``unresolved``: the quartile spread of either side is wider than the bound,
  and not every new run is on the same side of every base run;
- ``unchanged``: otherwise.

Per-layer metrics (from ``--trace 1`` runs) have no bound; they get medians
and the ratio only.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> list:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def values(records: list, workload: str, metric: str) -> list:
    out = []
    for rec in records:
        if rec["workload"] != workload:
            continue
        if metric in rec["end_to_end"] and not rec["trace"]:
            out.append(rec["end_to_end"][metric]["median"])
        elif metric in rec.get("per_layer", {}):
            out.append(rec["per_layer"][metric])
    return out


def spread(vals: list) -> float:
    if len(vals) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def verdict(base: list, new: list, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    mb, mn = statistics.median(base), statistics.median(new)
    change = sign * (mn - mb) / mb  # > 0 means worse
    all_better = all(sign * n < sign * b for n in new for b in base)
    all_worse = all(sign * n > sign * b for n in new for b in base)
    if max(spread(base), spread(new)) > bound and not (all_better or all_worse):
        return "unresolved"
    if change > bound:
        return "worse"
    if -change > max(bound, spread(base)):
        return "better"
    return "unchanged"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    for side, recs in (("base", base), ("new", new)):
        machines = {json.dumps(r["machine"], sort_keys=True) for r in recs}
        for m in sorted(machines):
            print(f"{side}: {m}")
    workloads = [w["name"] for w in declared["workloads"]]
    print(f"{'workload':<18} {'metric':<44} {'base':>12} {'new':>12}  ratio new/base  verdict")
    for wl in workloads:
        for metric in declared["end_to_end"] + declared["per_layer"]:
            name = metric["name"]
            b, n = values(base, wl, name), values(new, wl, name)
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            if mb == 0 and mn == 0:
                continue
            ratio = f"{mn / mb:.3f} (base {mb:.6g} {metric['unit']})" if mb else "n/a (base 0)"
            if "bound" in metric:
                v = verdict(b, n, metric["better"], metric["bound"])
            else:
                v = "-"
            print(f"{wl:<18} {name:<44} {mb:>12.6g} {mn:>12.6g}  {ratio}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
