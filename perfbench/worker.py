"""Runs one workload in this process and prints its result as one JSON line.

Started by run.py, which passes --t0, its CLOCK_MONOTONIC reading just before
it started this process; setup time is measured from there to the first
timed operation and so covers interpreter start, imports and input
generation. Operations are timed one by one and their checks run between
them, outside the timed intervals.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def die_with_parent() -> None:
    """Have the kernel send this worker SIGKILL when run.py ends, however run.py ends."""
    import ctypes

    pr_set_pdeathsig = 1
    ctypes.CDLL(None).prctl(pr_set_pdeathsig, signal.SIGKILL)
    if os.getppid() == 1:  # run.py ended before the request took effect
        sys.exit(1)


def import_program():
    """Import hamuniv from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import hamuniv

    if Path(hamuniv.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"hamuniv imported from {hamuniv.__file__}, not from {SRC}")
    return hamuniv


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(args) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def run_passes(op_list, seconds: float, tracer) -> dict:
    """Whole passes while the next one is expected to end within `seconds`; at least one."""
    memo: dict = {}
    walls: list[float] = []
    cpus: list[float] = []
    rounds: list[float] = []
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        wall = cpu = 0.0
        for i, op in enumerate(op_list):
            attempted += 1
            if tracer is not None:
                tracer.op_id = f"{len(walls)}:{i}"
                tracer.enabled = True
            c0, w0 = time.process_time(), time.perf_counter()
            try:
                result = op.run()
            except Exception:
                result = None
                print(f"{op.label}: raised\n{traceback.format_exc()}", file=sys.stderr)
            w1, c1 = time.perf_counter(), time.process_time()
            if tracer is not None:
                tracer.enabled = False
            wall += w1 - w0
            cpu += c1 - c0
            if result is None:
                failed += 1
                continue
            try:
                problems = op.check(result, memo)
            except Exception:
                problems = [f"check raised\n{traceback.format_exc()}"]
            del result
            if problems:
                failed += 1
                correct = False
                for line in problems:
                    print(f"{op.label}: {line}", file=sys.stderr)
        walls.append(wall)
        cpus.append(cpu)
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            break
    return {
        "walls": walls,
        "cpus": cpus,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    die_with_parent()
    import_program()
    import tracing
    import workloads

    if args.workload not in workloads.BUILDERS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    op_list = workloads.BUILDERS[args.workload](args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out = run_passes(op_list, args.seconds, tracer)
    pass_s = statistics.median(out["walls"])
    if tracer is None:
        metrics = {
            "pass_s": {"value": pass_s, "unit": "s"},
            "cpu_s": {"value": statistics.median(out["cpus"]), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    else:
        tracer.uninstall()
        metrics = tracer.metrics(len(out["walls"]), pass_s)
        workloads.OUT_DIR.mkdir(exist_ok=True)
        tracer.write(workloads.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    record = machine_record(args)
    record.update(
        ops_per_pass=len(op_list),
        passes=len(out["walls"]),
        pass_wall_s=out["walls"],
        pass_cpu_s=out["cpus"],
    )
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "correct": out["correct"],
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": metrics,
                "record": record,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
