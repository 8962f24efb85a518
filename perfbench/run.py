"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload universality_e2e --seed 1 --seconds 10 --trace 0

The workload runs in a fresh worker process (worker.py) with BLAS threads
set to the number of usable cores. With --trace 0 it prints the end-to-end
metrics; set-up is measured in that worker and in SETUP_PROBES more workers
that stop after set-up, and the median is reported. With --trace 1 the
worker wraps the package's layers and dense kernels in spans and prints the
per-layer metrics instead; the spans go to .perfbench_out/.

The line before the result is a JSON record of the machine and the run.
On any failure the exit code is 1 and no result line is printed. No time
limit is set here; when run.py is stopped by SIGTERM or SIGINT it stops the
worker and waits for it, and a worker ends by itself when run.py is killed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 4


class BenchError(RuntimeError):
    pass


def spawn(args, env, extra) -> dict:
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + extra
    # subprocess.run kills and waits for the worker on any exception, the
    # BenchError raised by stop() included
    proc = subprocess.run(cmd + ["--t0", repr(time.monotonic())], env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError("worker printed no result") from exc


def stop(signum, _frame):
    raise BenchError(f"stopped by signal {signum}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="see workloads.BUILDERS")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, stop)
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(spawn(args, env, ["--setup-only"])["setup_s"])
        result = spawn(args, env, [])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    record = result["record"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        record["setup_s_samples"] = setups
        record["samples"] = {"pass_s": record["passes"], "cpu_s": record["passes"], "setup_s": len(setups)}
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
