"""Wall time, CPU time and peak resident memory of one ``refprice`` command.

Runs the command N times, one after another, each in a fresh interpreter
(``python -m refprice.cli ARGS``, with the ``src`` directory beside this
script's first on ``PYTHONPATH``), and prints each run and the medians:

    python tools/peak_rss.py [-n N] COMMAND [ARGS...]
    python tools/peak_rss.py -n 5 simulate --config configs/two_price_gap.yaml run.seeds=2

The wall time runs from spawn to exit, interpreter start-up included.  CPU
time and peak RSS come from ``os.wait4`` on the run's process, so they
include the worker processes it forked and reaped.  Linux carries a spawning
process's high-water mark into its child across fork and exec, so a reading
is never below the spawner's own peak: this launcher imports no numpy and
holds little, and it runs the command from a process that has run nothing
else.  The command's stdout is discarded; a run that exits nonzero stops the
tool with that exit code.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time


def run_once(argv: list[str], env: dict) -> tuple[float, float, float]:
    """(wall s, CPU s, peak RSS MB) of one run of ``argv``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, argv)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=5, help="runs (default 5)")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="refprice command and its arguments")
    args = parser.parse_args(argv[1:])
    if args.n < 1 or not args.command:
        parser.error("need at least one run of a command")
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.normpath(os.path.join(here, os.pardir, "src"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    command = [sys.executable, "-m", "refprice.cli", *args.command]
    runs = []
    for k in range(1, args.n + 1):
        try:
            runs.append(run_once(command, env))
        except subprocess.CalledProcessError as exc:
            print(f"run {k} exited with code {exc.returncode}", file=sys.stderr)
            return exc.returncode
        print("run {}: wall_s {:.3f}  cpu_s {:.3f}  peak_rss_mb {:.2f}".format(k, *runs[-1]))
    medians = [statistics.median(column) for column in zip(*runs)]
    print("median of {}: wall_s {:.3f}  cpu_s {:.3f}  peak_rss_mb {:.2f}".format(args.n, *medians))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
