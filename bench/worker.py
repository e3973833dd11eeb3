"""Set-up probe and timed pass of a workload.

As a script, ``python3 bench/worker.py WORKLOAD SEED WORKDIR`` is the set-up
probe: a fresh process that imports circlemaps, makes the seed's inputs and
prints, as one JSON line, the system-wide monotonic time at which it was
ready to run them.

``run_pass(ops, spans_path)`` is one timed pass. The runner calls it in a
child forked from a process that imported circlemaps and made the inputs but
ran no operation, so every pass starts with the program's caches empty, as a
CLI user's process does. It runs the operations back to back (one
closed-loop client), checks the outputs outside the timed phase and returns
the result. With a spans_path, the layers are wrapped for the timed phase
and the spans are written there.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs src on the path first)
from spans import Tracer  # noqa: E402


def run_pass(ops, spans_path=None) -> dict:
    tracer = Tracer() if spans_path else None
    if tracer:
        tracer.install()
    outputs, latencies = [], []
    t_start = time.perf_counter()
    for kind, run, _ in ops:
        t0 = time.perf_counter()
        try:
            outputs.append(run())
        except Exception:  # a failed operation is counted, the pass goes on
            traceback.print_exc()
            outputs.append(None)
        latencies.append(time.perf_counter() - t0)
    wall = time.perf_counter() - t_start
    if tracer:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)

    ok, quality = [], []
    for (kind, _, check), out in zip(ops, outputs):
        good, q = False, {}
        if out is not None:
            try:
                good, q = check(out)
            except Exception:  # a check the output cannot pass counts as a failure
                traceback.print_exc()
        ok.append(bool(good))
        quality.append(q)

    return {
        "wall_s": wall,
        "latencies_s": latencies,
        "kinds": [k for k, _, _ in ops],
        "ok": ok,
        "quality": quality,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv) -> int:
    workload, seed, workdir = argv[:3]
    workloads.build(workload, int(seed), workdir)
    print(json.dumps({"ready_monotonic": time.monotonic()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
