"""privreg benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
src/ directory.  --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer metrics and writes the spans to bench/traces/<workload>.json.
See bench/README.md for the workloads, metrics and bounds.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import workloads
from checks import CheckError
from tracing import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


# Host speed on this kind of VM swings by +-25% within seconds and drifts
# over minutes, for every process alike, so raw operation times of two runs
# differ more than any bound could absorb.  Each operation's time, and the
# set-up time, is therefore scaled by the speed of a fixed interpreter-bound
# kernel timed around it: a reported time is the time it takes on a host
# where the kernel takes REFERENCE_KERNEL_NS.  The raw figures go to stderr.
REFERENCE_KERNEL_NS = 1_300_000


def _kernel() -> int:
    memo: dict = {}
    rows = [(i % 7, i % 5, i % 3, i % 11) for i in range(600)]
    for r in range(8):
        for h in rows:
            key = (h, r)
            memo[key] = memo.get(key, 0) + abs(h[0] - h[1])
        rows = sorted({h for h in rows if h[r % 4] != r % 3}) or rows
    return len(memo)


def kernel_ns() -> int:
    """Fastest of three timings of the kernel, which drops interrupt spikes."""
    best = None
    for _ in range(3):
        t = time.perf_counter_ns()
        _kernel()
        elapsed = time.perf_counter_ns() - t
        best = elapsed if best is None else min(best, elapsed)
    return best


def scaled(ns: float, kernel_before: int, kernel_after: int) -> float:
    """ns at the reference host speed, from the kernel times either side."""
    return ns * 2 * REFERENCE_KERNEL_NS / (kernel_before + kernel_after)


def rate(ns: list) -> float:
    return len(ns) / (sum(ns) / 1e9) if sum(ns) else 0.0


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def import_library():
    """Import privreg from this checkout's src/, and from nowhere else."""
    # privreg uses numpy only for its random generators, never for BLAS.
    # OpenBLAS starts one thread per core when numpy loads; on a shared
    # 2-core host that start took 0.05 s or more depending on the other
    # core's load, and moved the set-up medians of two sets of runs by up
    # to 43%.  The benchmark is single-threaded, so it starts none.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, SRC)
    import privreg
    if os.path.dirname(os.path.dirname(os.path.abspath(privreg.__file__))) != SRC:
        raise ImportError(f"privreg imported from {privreg.__file__}, not from {SRC}")
    return privreg


def main() -> int:
    args = parse_args()
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # Set-up is the program's: from just before the cold `import privreg` to
    # the end of the workload's preparation.  The benchmark's own imports and
    # the host-speed kernels either side of it are outside.
    kernel_before = kernel_ns()
    t0 = time.perf_counter()
    lib = import_library()
    wl = workloads.WORKLOADS[args.workload](lib, args.seed)
    wl.prepare()
    raw_setup_s = time.perf_counter() - t0
    setup_s = scaled(raw_setup_s, kernel_before, kernel_ns())

    tracer = Tracer(lib) if args.trace else None
    # Per completed operation: raw wall ns, scaled ns, whether traced, and
    # the kernel time just before it.
    raw_ns: list = []
    scaled_ns: list = []
    traced_flags: list = []
    kernels: list = []
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    round_index = 0
    peak_rss_mb = None
    # Whole rounds only, so every run attempts the same mix of operations.
    while time.perf_counter() - start < args.seconds or round_index < wl.rss_rounds:
        # A traced run alternates untraced and traced rounds, which gives
        # the tracing overhead on the same workload and inputs.
        traced = tracer is not None and round_index % 2 == 1
        for slot in range(wl.slots):
            inp = wl.make_input(round_index, slot)
            attempted += 1
            kernel = kernel_ns()
            try:
                if traced:
                    out, ns = tracer.run_op(attempted, wl.run, inp)
                else:
                    t = time.perf_counter_ns()
                    out = wl.run(inp)
                    ns = time.perf_counter_ns() - t
            except Exception:
                failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            raw_ns.append(ns)
            scaled_ns.append(scaled(ns, kernel, kernel_ns()))
            traced_flags.append(traced)
            kernels.append(kernel)
            try:
                wl.check(inp, out)
            except CheckError as e:
                correct = False
                print(f"check failed on round {round_index} slot {slot}: {e}", file=sys.stderr)
        round_index += 1
        if round_index == wl.rss_rounds:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    try:
        wl.finish()
    except CheckError as e:
        correct = False
        print(f"check failed: {e}", file=sys.stderr)

    untraced = [ns for ns, t in zip(scaled_ns, traced_flags) if not t] or [0]
    traced_ops = [ns for ns, t in zip(scaled_ns, traced_flags) if t]
    raw_untraced = [ns for ns, t in zip(raw_ns, traced_flags) if not t] or [0]
    print(f"raw: setup_s {raw_setup_s:.4f} ops_per_s {rate(raw_untraced):.4f} op_p50_ms "
          f"{statistics.median(raw_untraced) / 1e6:.4f} kernel_p50_ms "
          f"{statistics.median(kernels) / 1e6:.4f}", file=sys.stderr)
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": rate(untraced), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(untraced) / 1e6, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        rates = [rate(untraced), rate(traced_ops)]
        overhead = 100.0 * (rates[0] / rates[1] - 1.0) if rates[1] else 0.0
        metrics = tracer.metrics(overhead)
        trace_dir = os.path.join(BENCH_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.write(os.path.join(trace_dir, f"{args.workload}.json"), {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "untraced_ops_per_s": rates[0], "traced_ops_per_s": rates[1],
            "overhead_pct": overhead})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
