"""End-to-end and per-layer benchmark of circlemaps.

Usage, from the repository root:

    python3 bench/run.py --workload certify_mix --seed 1 --seconds 30 --trace 0

and, to print every metric of every workload:

    for w in smooth_cli certify_mix gallery_scan dense_homeo; do
        python3 bench/run.py --workload $w --seed 1 --seconds 30 --trace 0; done

Workloads: see bench/workloads.py. dense_homeo (one pass takes about 50 s on
two cores, and a run makes at least two) is not in BENCHMARK.json: its runs
would not fit the benchmark's time budget next to the others. Run it by hand
for the long pole and its layer attribution (--trace 1).

The runner imports circlemaps and makes the inputs from --seed once, runs
no operation itself, and forks a child for each pass, so every pass starts
with the program's caches empty (as a CLI user's process does) and reports
its own peak RSS. Every pass of a run gets the same inputs. Passes run back to
back, as many as fit in --seconds of timed work (at least two). One
single-threaded closed-loop client sends the operations; numpy and OpenBLAS
keep their default thread count. Nothing in the program waits on a queue,
lock or peer, so there is no waiting-time metric.

Timings are taken per operation in the host's fast state. On a shared host
the same code may run 1.5 to 1.9 times slower, in stretches that last from
milliseconds to minutes; a median over a run then lands in the fast or the
slow state depending on how the run fell. So each operation's latency is
its median over the run's passes, scaled by one factor common to all
operations: the sum of their fastest latencies over the sum of their
medians. The scaled latencies sum to the fastest pass the run's samples
allow. The median gives their shape: the fastest time of a single operation
is the least settled figure (one that never met a fast moment sets it), and
a tail percentile taken from those moved by 20% between runs of the same
code. Short passes make many samples: a certify_mix pass takes about 0.6 s,
a gallery_scan pass 0.2 s. The median pass wall time is kept in the detail
line.

--trace 0 prints the end-to-end metrics:
  setup_s         median over SETUP_PROBES fresh processes of process
                  start, imports and input generation
  wall_s          timed phase of one pass: the sum of the operations'
                  scaled latencies
  ops_per_s       operations per pass divided by wall_s
  latency_p50_ms  median of the operations' scaled latencies
  latency_tail_ms the same, at the highest percentile with at least 10
                  operations beyond it (the maximum below 20 operations)
  peak_rss_mb     largest peak resident set size of a pass
--trace 1 alternates traced and untraced passes and prints the per-layer
rows of bench/spans.py, averaged per traced pass, plus trace.overhead_s
(traced minus untraced wall_s, both taken as above). The spans of each
traced pass are kept in .bench_out/spans-*.json.

Failed or wrong operations are counted in "failed" against "attempted". The
last line of standard output is the result; the line before it holds the
details (tail percentile and sample count, quotient degree, uniform error and
certificate margin, machine facts), also written to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("dense_homeo", "smooth_cli", "certify_mix", "gallery_scan")
SETUP_PROBES = 5
DEADLINE_S = 150.0  # a run must end within 180 s; leaves room for the last pass and checks

sys.path.insert(0, HERE)
from spans import LAYER_ROWS, layer_rows, top_self_times  # noqa: E402


class WorkerError(RuntimeError):
    pass


def probe(args, workdir, deadline):
    """Set-up time of a fresh process: start, imports and input generation."""
    cmd = [sys.executable, WORKER, args.workload, str(args.seed), workdir]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise WorkerError("set-up probe did not finish before the run deadline")
    finally:  # also when interrupted: stop the probe before going
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        raise WorkerError(f"set-up probe exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])["ready_monotonic"] - t0


def _child(conn, ops, spans_path):
    import worker

    conn.send(worker.run_pass(ops, spans_path))
    conn.close()


def timed_pass(ops, spans_path, deadline):
    """One pass in a child forked from this process, which has run no operation."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child, args=(send, ops, spans_path))
    proc.start()
    send.close()
    try:
        if not recv.poll(max(1.0, deadline - time.monotonic())):
            raise WorkerError("a pass did not finish before the run deadline")
        try:
            return recv.recv()
        except EOFError:
            proc.join()
            raise WorkerError(f"a pass exited with code {proc.exitcode}") from None
    except BaseException:  # also when interrupted: stop the child before going
        proc.kill()
        raise
    finally:
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
        recv.close()


def op_latencies(results):
    """Per operation, its latency in the host's fast state, from passes on the same inputs.

    That is the operation's median latency over the passes, times one factor
    for all operations: the sum of their fastest latencies over the sum of
    their medians. The results sum to the sum of the fastest latencies.
    """
    lats = list(zip(*(r["latencies_s"] for r in results)))
    medians = [statistics.median(x) for x in lats]
    scale = sum(min(x) for x in lats) / sum(medians)
    return [scale * m for m in medians]


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with 10 samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def machine_facts():
    import numpy as np

    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        facts["blas"] = None
    facts["blas_threads"] = _openblas_threads()
    lines = 0
    for path in _src_files():
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    facts["src_lines"] = lines
    return facts


def _openblas_threads():
    """Thread count the OpenBLAS bundled with numpy reports, or None if it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _src_files():
    for dirpath, _, files in sorted(os.walk(SRC)):
        for f in sorted(files):
            if f.endswith(".py"):
                yield os.path.join(dirpath, f)


def check_invariant(workload, degrees):
    """The quotient degree must not depend on the seed.

    Compares with earlier runs of the same sources in this checkout; returns
    a description of the mismatch, or None.
    """
    if not degrees:
        return None
    digest = hashlib.sha1()
    for path in _src_files():
        with open(path, "rb") as fh:
            digest.update(fh.read())
    key = f"{workload}:{digest.hexdigest()}"
    path = os.path.join(OUT_DIR, "degrees.json")
    known = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    seen = set(degrees) | ({known[key]} if key in known else set())
    if len(seen) > 1:
        return f"quotient degree differs between seeds: {sorted(seen)}"
    known[key] = degrees[0]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(known, fh)
    return None


def run(args):
    import worker  # imports circlemaps: only once main() has found its sources

    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        setups = [probe(args, workdir, deadline) for _ in range(SETUP_PROBES)]
        ops = worker.workloads.build(args.workload, args.seed, workdir)
        passes = []  # (spans file of a traced pass or None, result)
        longest = 0.0
        while True:
            # traced runs alternate traced and untraced passes
            traced = args.trace == 1 and len(passes) % 2 == 0
            spans_path = os.path.join(
                OUT_DIR, f"spans-{args.workload}-{args.seed}-{len(passes)}.json") if traced else None
            t0 = time.monotonic()
            passes.append((spans_path, timed_pass(ops, spans_path, deadline)))
            longest = max(longest, time.monotonic() - t0)
            # as many passes as fit in --seconds of timed work, at least two
            walls = [r["wall_s"] for _, r in passes]
            enough = sum(walls) + max(walls) > args.seconds and len(passes) >= 2
            if enough or time.monotonic() + longest > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    dumps = []
    for spans_path, _ in passes:
        if spans_path:
            with open(spans_path, encoding="utf-8") as fh:
                dumps.append(json.load(fh))

    plain = [r for spans_path, r in passes if not spans_path]
    traced = [r for spans_path, r in passes if spans_path]
    every = [r for _, r in passes]
    ok = [x for r in every for x in r["ok"]]
    failed_ops = [(i, k) for i, r in enumerate(every) for k, good in zip(r["kinds"], r["ok"])
                  if not good]
    quality = {}
    for r in every:
        for q in r["quality"]:
            for k, v in q.items():
                quality.setdefault(k, []).append(v)
    problem = check_invariant(args.workload, quality.get("quotient_degree", []))
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes),
        "pass_wall_s": [r["wall_s"] for r in every],
        "setup_samples_s": setups,
        "failed_ops": failed_ops[:20],
        "quality": {k: statistics.mean(v) for k, v in quality.items()},
        "quality_units": {"quotient_degree": "count", "uniform_error": "rad",
                          "cert_margin": "rad/rad"},
        "invariant_problem": problem,
        "machine": machine_facts(),
    }

    if args.trace == 0:
        best = op_latencies(plain)
        value, pct, beyond = tail(best)
        detail.update(ops_per_pass=len(best), tail_percentile=pct, tail_beyond=beyond,
                      median_pass_wall_s=statistics.median(r["wall_s"] for r in plain))
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (sum(best), "s"),
            "ops_per_s": (len(best) / sum(best), "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(best), "ms"),
            "latency_tail_ms": (1e3 * value, "ms"),
            "peak_rss_mb": (max(r["peak_rss_mb"] for r in plain), "MB"),
        }
    else:
        rows, absent = layer_rows(dumps, len(dumps))
        overhead = sum(op_latencies(traced)) - sum(op_latencies(plain)) if plain else 0.0
        if not plain:
            absent.append("trace.overhead_s")
        detail.update(absent_rows=absent, top_self_s=top_self_times(dumps),
                      traced_wall_s=[r["wall_s"] for r in traced])
        units = dict(LAYER_ROWS)
        metrics = {k: (v, units[k]) for k, v in rows.items()}
        metrics["trace.overhead_s"] = (overhead, "s")

    result = {
        "correct": not failed_ops and problem is None,
        "attempted": len(ok),
        "failed": len(failed_ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(detail_path, "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # a terminated run unwinds, so the running worker is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "circlemaps", "__init__.py")):
        print(f"circlemaps sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        run(args)
    except WorkerError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
