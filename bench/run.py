"""Benchmark launcher: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a checkout. It starts ``worker.py`` in a fresh process
for the one workload asked for, with ``src`` on the import path and BLAS
pinned to one thread (the loop is one client; with the interpreter that keeps
the run within the machine's cores and out of the way of its neighbours),
waits for it, and exits with its code. The last line of standard output is
the result object. Spans of a traced run and the workloads' scratch files go
under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("planted_tasks", "long_video", "toy_training")
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIMEOUT_S = 170


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    source = root / "src"
    if not (source / "videothreads" / "__init__.py").is_file():
        print(f"error: {source}/videothreads not found; run from the repository root",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({v: str(min(BLAS_THREADS, os.cpu_count() or 1)) for v in BLAS_VARIABLES})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(source), env.get("PYTHONPATH")]))
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(root / ".bench_out")]
    # on SIGTERM, unwind through the finally below so the worker is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    worker = subprocess.Popen(command, env=env)
    try:
        return worker.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if worker.poll() is None:
            worker.kill()
            worker.wait()
        # a killed worker cannot remove its own scratch files
        shutil.rmtree(root / ".bench_out" / f"work-{args.workload}-{worker.pid}",
                      ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
