"""One measured invocation of the refprice CLI, in a fresh interpreter.

Started by ``run.py`` as ``python3 benchmarks/child.py SPEC.json``.  It times
``import refprice.cli`` plus ``load_config`` of the workload's config (the
set-up), then calls ``refprice.cli.main(argv)`` once and times that.  With
``trace`` set, the layers are wrapped by ``tracer.Tracer`` before the call
and its counters are returned with the timings.

The result goes to the spec's ``result`` path as JSON and the CLI's exit code
becomes the process's; the CLI's own stdout and stderr are whatever the
parent redirected them to.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main() -> None:
    with open(sys.argv[1]) as f:
        spec = json.load(f)
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    from refprice import cli
    from refprice.config import load_config

    load_config(spec["config"], overrides=spec["overrides"])
    result = {"setup_s": time.perf_counter() - t0}

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer(spec["trace_dir"])
        tracer.install()
    t0 = time.perf_counter()
    result["rc"] = cli.main(spec["argv"])
    result["wall_s"] = time.perf_counter() - t0
    if tracer is not None:
        result["trace"] = tracer.collect()
    sys.stdout.flush()
    with open(spec["result"], "w") as f:
        json.dump(result, f)
    sys.exit(result["rc"])


if __name__ == "__main__":
    main()
