"""Benchmark entry point for plaqgate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source tree (the program is imported from ./src).
Each workload runs in its own worker process (perfbench/worker.py). With
--trace 0 the run also starts SETUP_SAMPLES - 1 set-up-only workers, so
setup_s is a median over fresh processes. Times are reported at a fixed
reference machine speed, measured by the probes of perfbench/probe.py.
The last stdout line is one JSON object: correct, attempted, failed and
metrics (end-to-end with --trace 0, per-layer with --trace 1). A full
record of the run, with the numerical environment and the raw times,
goes to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")

WORKLOADS = ("echo-sweep", "grape", "links", "cli-small")
SETUP_SAMPLES = 5
#: a run whose workers have not finished by then is stopped and fails
RUN_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _start_worker(workload: str, seed: int, seconds: float, mode: str, outdir: str,
                  spans: str | None = None) -> tuple[subprocess.Popen, float]:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode, "--outdir", outdir]
    if spans:
        cmd += ["--spans", spans]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_worker_env(), cwd=ROOT)
    return proc, start


def _finish(proc: subprocess.Popen, start: float, deadline: float) -> tuple[float, list[str]]:
    """Wait for READY, then for the end; returns (set-up seconds, later stdout lines).

    A worker still running at `deadline` (a perf_counter time) is killed.
    """
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - start
        if line.strip() != "READY":
            raise BenchError("worker failed or timed out during set-up")
        rest = proc.communicate(timeout=max(0.1, deadline - time.perf_counter()))[0]
    except subprocess.TimeoutExpired:
        raise BenchError(f"run exceeded {RUN_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return setup, rest.strip().splitlines()


def _last_json(lines: list[str]) -> dict:
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; returns the result object."""
    os.makedirs(TMP_DIR, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_DIR)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    try:
        setups, setup_probes = [], []
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                proc, start = _start_worker(workload, seed, seconds, "setup", scratch)
                setup, lines = _finish(proc, start, deadline)
                setups.append(setup)
                setup_probes.append(_last_json(lines)["setup_probe"])
        spans = os.path.join(OUT_DIR, f"{tag}-spans.json") if trace else None
        proc, start = _start_worker(workload, seed, seconds, "trace" if trace else "run",
                                    scratch, spans)
        setup, lines = _finish(proc, start, deadline)
        setups.append(setup)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    res = _last_json(lines)

    if trace:
        untraced, traced = res["pass_s"]
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in res["layers"].items()}
        metrics["trace.wall_s"] = {"value": traced, "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * (traced / untraced - 1.0), "unit": "%"}
    else:
        # times at the reference machine speed: raw seconds / probe share (probe.py)
        setup_probes.append(res["setup_probe"])
        metrics = {
            "setup_s": {"value": statistics.median(s / p for s, p in zip(setups, setup_probes)),
                        "unit": "s"},
            "wall_s": {"value": statistics.median(res["scaled_pass_s"]), "unit": "s"},
            "item_ms.p50": {"value": 1e3 * statistics.median(res["scaled_item_s"]),
                            "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": res["correct"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    record = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  setup_samples_s=setups, setup_probes=setup_probes,
                  failures=res["failures"], environment=res["environment"])
    record.update((k, v) for k, v in res.items()
                  if k in ("pass_s", "item_s", "scaled_pass_s", "scaled_item_s"))
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for failure in res["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "plaqgate", "__init__.py")):
        print(f"error: no plaqgate sources under {SRC}; run from a full source tree",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<52} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
