"""One workload in one process: set up, report READY, run timed passes, check.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE \
        --outdir DIR [--spans FILE]

Modes:
    setup  after READY, only the machine-speed probe (run.py times several
           of these for setup_s);
    run    tracing off; whole passes over the item list while the
           next pass is expected to end within S seconds (at least one),
           with the workload's probe (probe.py) before every operation and
           after the last one;
    trace  each item once untraced and once traced, for the per-layer numbers
           and the tracing overhead; no probes.

The last stdout line is a JSON object for run.py. Needs `src` of the
repository on PYTHONPATH.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time


def environment() -> dict:
    """Interpreter, numpy/scipy build, BLAS threads seen, thread variables, CPUs."""
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas_threads = None  # stays None where numpy does not bundle OpenBLAS
    pattern = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas_threads = fn()
                break
    return {
        "sys.version": sys.version,
        "numpy.show_config": np.show_config(mode="dicts"),
        "scipy": scipy.__version__,
        "blas_threads_seen": blas_threads,
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--outdir", required=True, help="scratch directory for cli.run datasets")
    ap.add_argument("--spans", help="where trace mode writes its spans (JSON)")
    args = ap.parse_args()

    import probe
    from workloads import WORKLOADS  # imports numpy, scipy and plaqgate

    workload = WORKLOADS[args.workload](args.seed, args.outdir)
    workload.warmup()
    print("READY", flush=True)
    if args.mode != "trace":
        # the machine speed right after set-up, for scaling the set-up time
        setup_probe = statistics.median(probe.measure(workload.probe) for _ in range(3))
    if args.mode == "setup":
        print(json.dumps({"setup_probe": setup_probe}))
        return 0

    # outputs[p][i]: outputs of item i in pass p, for the checks
    outputs: list[list] = []
    result = {"attempted": 0, "failed": 0, "pass_s": [], "item_s": []}
    # the last probe taken; in run mode each operation is timed between two
    last_probe = probe.measure(workload.probe) if args.mode == "run" else None

    def run_item(item, pass_index: int) -> tuple[float, float]:
        """Run one item's operations; returns (seconds, seconds at reference speed).

        Without probes (trace mode) the two are the same.
        """
        nonlocal last_probe
        ops, outs = workload.operations(item), []
        seconds = scaled = 0.0
        for op in ops:
            start = time.perf_counter()
            try:
                outs.append(op())
            except Exception:  # a failed operation is counted, the run goes on
                outs.append(None)
            took = time.perf_counter() - start
            seconds += took
            if last_probe is None:
                scaled += took
            else:
                after = probe.measure(workload.probe)
                scaled += took / (0.5 * (last_probe + after))
                last_probe = after
        result["attempted"] += len(ops)
        result["failed"] += sum(out is None for out in outs)
        outputs[pass_index].append(outs)
        return seconds, scaled

    if args.mode == "run":
        result.update(setup_probe=setup_probe, scaled_pass_s=[], scaled_item_s=[])
        begin = time.perf_counter()
        while not outputs or (time.perf_counter() - begin + statistics.median(result["pass_s"])
                              <= args.seconds):
            outputs.append([])
            start, scaled_pass = time.perf_counter(), 0.0
            for item in workload.items:
                seconds, scaled = run_item(item, len(outputs) - 1)
                result["item_s"].append(seconds)
                result["scaled_item_s"].append(scaled)
                scaled_pass += scaled
            result["pass_s"].append(time.perf_counter() - start)
            result["scaled_pass_s"].append(scaled_pass)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from tracing import Tracer, layer_metrics

        # every item runs untraced (pass 0) and traced (pass 1) back to back,
        # in alternating order, so the overhead is measured under one load
        tracer = Tracer()
        outputs += [[], []]
        result["pass_s"] = [0.0, 0.0]
        for k, item in enumerate(workload.items):
            for traced in (0, 1) if k % 2 == 0 else (1, 0):
                if traced:
                    tracer.install()
                try:
                    result["pass_s"][traced] += run_item(item, traced)[0]
                finally:
                    if traced:
                        tracer.uninstall()
        result["layers"] = layer_metrics(tracer)
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump(tracer.spans, fh)

    failures = []
    for pass_outputs in outputs:
        failures += workload.check(pass_outputs)
    result["correct"] = not failures
    result["failures"] = failures[:20]
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
