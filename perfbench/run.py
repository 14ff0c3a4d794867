"""walklab benchmark: one caller, one process, a closed loop of library calls.

    python3 perfbench/run.py --workload verify-rr512 --seed 2 --seconds 10 --trace 0

Run from the repository root.  The loop repeats one round of the
workload's ops until ``--seconds`` have passed (at least one round), then
checks every output and prints one JSON result as the last stdout line.

``--trace 0`` reports the end-to-end metrics: ``run_s`` (median wall
time of a round), ``setup_s`` (median over six fresh interpreters of
start to first timed call: imports plus input generation) and
``peak_rss_mb`` (peak resident memory of the process after the rounds).
BLAS runs one thread.
``--trace 1`` first runs one untraced round, then traced rounds with
every layer wrapped (see tracing.py), reports the per-layer metrics per
round, and writes the spans to perfbench/.out/trace-<workload>-<seed>.json.

An op fails when it raises, when one of its checks fails, or when its
canonical output bytes differ from those of the same op earlier in the
invocation.  ``failed``/``attempted`` in the result is the failure
fraction; ``correct`` is true only when no op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 6
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_walklab():
    """Import walklab from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import walklab
    if not os.path.abspath(walklab.__file__).startswith(SRC + os.sep):
        raise ImportError(f"walklab imported from {walklab.__file__}, "
                          f"not from {SRC}")


def _steal_ticks():
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else None


def _blas_threads():
    """OpenBLAS thread count via its C API, or None if not found."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_info():
    """Diagnostics recorded with every run, never gated."""
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def setup_seconds(workload, seed):
    """Seconds from spawning a fresh interpreter to the end of its setup."""
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--setup-only"],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=120)
    # CLOCK_MONOTONIC is system-wide, so the child's reading is comparable
    return float(done.stdout.split()[-1]) - t0


def run_rounds(workload, inputs, seconds, history):
    """Closed loop: rounds of the workload's ops until ``seconds`` pass
    (at least one round).  Returns (round wall times, outcomes);
    ``history`` maps each op to its first digest in this invocation."""
    times, outcomes = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for op in workload.ops:
            try:
                out = op(inputs)
            except Exception:
                from workloads import Outcome
                traceback.print_exc()
                out = Outcome(op.__name__, None, ["raised"])
            first = history.setdefault(out.op, out.digest)
            if out.digest != first:
                out.failures.append("canonical output bytes changed")
            outcomes.append(out)
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - start >= seconds:
            return times, outcomes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    # one caller on one core: on a shared 2-core host, two BLAS threads
    # used twice the CPU for a slower and more variable round
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import_walklab()
    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    inputs = workload.setup(args.seed)
    if args.setup_only:
        print(time.monotonic())
        return 0

    host = host_info()
    steal0, cpu0 = _steal_ticks(), time.process_time()
    history = {}
    metrics = {}
    if args.trace:
        from tracing import Tracer
        base_times, outcomes = run_rounds(workload, inputs, 0, history)
        tracer = Tracer()
        tracer.install()
        try:
            times, traced = run_rounds(workload, inputs, args.seconds, history)
        finally:
            tracer.uninstall()
        outcomes += traced
        metrics = tracer.metrics(rounds=len(times))
        metrics["trace.overhead_s"] = {
            "value": statistics.median(times) - base_times[0], "unit": "s"}
        os.makedirs(os.path.join("perfbench", ".out"), exist_ok=True)
        path = os.path.join("perfbench", ".out",
                            f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "untraced_round_s": base_times, "round_s": times,
                       "metrics": metrics,
                       "spans": tracer.span_records()}, fh)
    else:
        # set-up samples on both sides of the timed phase, so that they
        # see the same spread of machine speed as the rounds
        setups = [setup_seconds(args.workload, args.seed)
                  for _ in range(SETUP_REPEATS // 2)]
        times, outcomes = run_rounds(workload, inputs, args.seconds, history)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups += [setup_seconds(args.workload, args.seed)
                   for _ in range(SETUP_REPEATS - len(setups))]
        metrics = {
            "run_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    host.update(cpu_s=time.process_time() - cpu0,
                steal_ticks=[steal0, _steal_ticks()], rounds=len(times),
                round_s=times)

    workload.finish(inputs, outcomes)
    failed = 0
    for out in outcomes:
        if out.failures:
            failed += 1
            print(f"FAIL {out.op}: {'; '.join(out.failures)}", file=sys.stderr)
    print("host: " + json.dumps(host, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
