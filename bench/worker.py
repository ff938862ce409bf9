"""One benchmark run of one workload, measured in this process.

``run.py`` starts this file in a fresh process per workload with BLAS
threads pinned, so one workload's memory never shows in another's peak RSS.

Untraced run (``--trace 0``): import the library, set the workload up, run
iterations in a closed loop for ``--seconds`` (at least ``min_iterations``)
and report the end-to-end metrics. ``SETUP_REPEATS - 1`` more set-ups run
between iterations, spread over the loop, so that their median does not
hang on one phase of host load; ``setup_s`` is the import time plus the
median of all set-ups.

``videos_per_s`` comes from the fastest iteration. On a shared host the same
iteration runs up to 1.7x slower while neighbours load the machine, in
phases of seconds to minutes; medians and means then follow the share of a
run spent in slow phases (20-30% spread between runs), while the fastest
iteration stays near the uncontended cost (about 10%). Median and tail call
latency and the mean throughput are printed as well, but not gated.

Traced run (``--trace 1``): the same loop for half the time untraced, then
half with every entry point wrapped by ``tracer.Tracer``. Per-layer metrics
are per iteration of the traced half (``synth.generate`` per set-up), and
``tracer.overhead_ratio`` is the fastest traced iteration over the fastest
untraced one, minus one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import SPAN_NAMES, Tracer  # noqa: E402
from workloads import TINY, WORKLOADS, Session  # noqa: E402

SETUP_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "videos_per_s": "1/s", "peak_rss_mb": "MB",
                    "quality_score": "score"}


# stat -> unit, for the work counts added to every span's calls and self_s
COUNT_UNITS = {
    "kernels.sym_eigen.n_sum": "count",
    "kernels.sym_eigen.n_max": "count",
    "partition.spectral_partition.nodes_sum": "count",
    "partition.spectral_partition.over_budget_calls": "count",
    "partition.approx_partition.subsampled_ratio": "ratio",
    "graph.build_graph.edges_sum": "count",
    "model.forward.nodes_sum": "count",
    "model.forward.distinct_input_ratio": "ratio",
    "dataio.read.bytes": "B",
    "tracer.overhead_ratio": "ratio",
    "tracer.spans": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNT_UNITS)
    return units


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it (the maximum
    when there are too few samples), and a label saying which it is."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}"


def loop(workload, session: Session, seconds: float, first: int, minimum: int,
         between=None) -> list[float]:
    """Closed loop: the next iteration starts when the previous one ended.

    Successive iterations run on the usable CPUs in turn. Contention from
    other tenants comes and goes on each CPU separately, so taking turns
    lets the fastest iteration find an uncontended CPU far more often than
    staying on one. ``between(elapsed)``, when given, runs before each
    iteration. Returns the seconds each iteration spent inside CLI calls
    (the benchmark's own output checks are not counted).
    """
    cpus = sorted(os.sched_getaffinity(0))
    durations = []
    start = time.perf_counter()
    try:
        while len(durations) < minimum or time.perf_counter() - start < seconds:
            os.sched_setaffinity(0, {cpus[len(durations) % len(cpus)]})
            if between is not None:
                between(time.perf_counter() - start)
            before = len(session.calls)
            workload.iterate(session, first + len(durations))
            durations.append(sum(c.seconds for c in session.calls[before:]))
    finally:
        os.sched_setaffinity(0, cpus)
    return durations


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path,
        tiny: bool = False) -> dict:
    """One run; returns the result object plus the extra facts it printed."""
    start = time.perf_counter()
    from videothreads import cli

    import_s = time.perf_counter() - start
    make = WORKLOADS[name]
    sizes = TINY[name] if tiny else {}
    work = out_dir / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    setup_times = []

    def timed_setup(root: Path):
        workload = make(**sizes)
        t0 = time.perf_counter()
        workload.setup(Session(cli), root, seed)
        setup_times.append(time.perf_counter() - t0)
        return workload

    def spare_setup(elapsed: float) -> None:
        """The next set-up repeat, once the loop has run its share of time."""
        if len(setup_times) < SETUP_REPEATS and (
                elapsed >= (len(setup_times) - 1) * seconds / (SETUP_REPEATS - 1)):
            timed_setup(work / "spare")
            shutil.rmtree(work / "spare")

    try:
        workload = timed_setup(work / "setup")
        setup_tracer = None
        if trace:
            # a traced set-up for the synth layer; traced runs report no setup_s
            with Tracer() as setup_tracer:
                make(**sizes).setup(Session(cli), work / "setup-traced", seed)
        session = Session(cli)
        info = {}
        if trace:
            untraced = loop(workload, session, seconds / 2.0, 0, 1)
            tracer = Tracer().install()
            t0 = time.perf_counter()
            try:
                traced = loop(workload, session, seconds / 2.0, len(untraced),
                              max(1, workload.min_iterations - len(untraced)),
                              between=lambda _: tracer.stats.end_iteration())
            finally:
                tracer.remove()
            tracer.stats.end_iteration()
            info["traced_wall_s"] = time.perf_counter() - t0
            tracer.write_spans(out_dir / f"spans-{name}-seed{seed}.jsonl")
            metrics = layer_metrics(tracer, setup_tracer, len(traced),
                                    min(traced) / min(untraced) - 1.0)
            info["tracer"] = tracer
            iterations = untraced + traced
        else:
            iterations = loop(workload, session, seconds, 0, workload.min_iterations,
                              between=spare_setup)
            while len(setup_times) < SETUP_REPEATS:  # a loop shorter than its set-ups
                spare_setup(math.inf)
            metrics = None
        quality = workload.quality()
        model_calls = [c.seconds for c in session.calls if c.model]
        call_tail, tail_label = tail(model_calls)
        if metrics is None:
            metrics = {
                "setup_s": import_s + statistics.median(setup_times),
                "videos_per_s": workload.videos_per_iteration / min(iterations),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "quality_score": quality.score,
            }
            units = END_TO_END_UNITS
        else:
            units = per_layer_units()
        failed = sum(not c.ok for c in session.calls)
        floors_ok = all(ok for _, ok in quality.floors)
        info.update(
            workload=name, seed=seed, iterations=len(iterations), calls=len(session.calls),
            model_calls=len(model_calls), call_tail=tail_label, import_s=import_s,
            ungated={"call_p50_s": (statistics.median(model_calls), "s"),
                     "call_tail_s": (call_tail, "s"),
                     "mean_videos_per_s": (workload.videos_per_iteration * len(iterations)
                                           / sum(iterations), "1/s")},
            setup_runs=[round(t, 4) for t in setup_times], quality=quality,
            iteration_s=[round(t, 4) for t in iterations],
            model_call_s=[[c.command, round(c.seconds, 4)] for c in session.calls if c.model],
            problems=session.problems, digest=session.digest(),
            failed_ratio=failed / len(session.calls),
        )
        if hasattr(workload, "steps_per_iteration"):
            info["ungated"]["train_steps_per_s"] = (
                workload.steps_per_iteration / min(iterations), "1/s")
        result = {
            "correct": failed == 0 and floors_ok,
            "attempted": len(session.calls),
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        }
        return {"result": result, "info": info}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def layer_metrics(tracer: Tracer, setup_tracer: Tracer, iterations: int,
                  overhead: float) -> dict[str, float]:
    s = tracer.stats
    out = {}
    for name in SPAN_NAMES:
        source, per = (setup_tracer.stats, 1) if name == "synth.generate" else (s, iterations)
        out[f"{name}.calls"] = source.calls[name] / per
        out[f"{name}.self_s"] = source.self_s[name] / per
    for key in ("kernels.sym_eigen.n_sum", "partition.spectral_partition.nodes_sum",
                "partition.spectral_partition.over_budget_calls",
                "graph.build_graph.edges_sum", "model.forward.nodes_sum", "dataio.read.bytes"):
        out[key] = s.counts[key] / iterations
    out["kernels.sym_eigen.n_max"] = s.counts["kernels.sym_eigen.n_max"]
    approx = s.calls["partition.approx_partition"]
    out["partition.approx_partition.subsampled_ratio"] = (
        s.counts["partition.approx_partition.subsampled_calls"] / approx if approx else 0.0)
    forwards = s.calls["model.forward"]
    out["model.forward.distinct_input_ratio"] = (
        s.counts["model.forward.distinct_inputs"] / forwards if forwards else 0.0)
    out["tracer.overhead_ratio"] = overhead
    out["tracer.spans"] = len(tracer.spans) / iterations
    return out


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def report(run_out: dict, seconds: float) -> None:
    info, result = run_out["info"], run_out["result"]
    for key, value in environment().items():
        print(f"env {key}: {value}")
    print(f"workload {info['workload']} seed {info['seed']} seconds {seconds:g}: "
          f"{info['iterations']} iterations, {info['calls']} CLI calls, "
          f"{info['model_calls']} model calls; call_tail_s is the {info['call_tail']}")
    print(f"setup runs (s): {info['setup_runs']} + import {info['import_s']:.4f}")
    print(f"iterations (s in CLI calls): {info['iteration_s']}")
    print(f"model calls (s): {info['model_call_s']}")
    for name, metric in result["metrics"].items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    for name, (value, unit) in info["quality"].named.items():
        print(f"quality {name} = {value:.6g} {unit}")
    for name, (value, unit) in info["ungated"].items():
        print(f"ungated {name} = {value:.6g} {unit}")
    for floor, ok in info["quality"].floors:
        print(f"check {floor}: {'ok' if ok else 'FAILED'}")
    print(f"failed_ratio = {info['failed_ratio']:.6g} ({result['failed']} of {result['attempted']})")
    for problem in info["problems"][:20]:
        print(f"problem {problem}")
    print(f"digest sha256 of --no-meta outputs: {info['digest']}")
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    expected = recorded.get(info["workload"], {}).get(str(info["seed"]))
    if expected is not None:
        print(f"digest matches the one recorded for this seed: {expected == info['digest']}")
    print(json.dumps(result, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        parser.error("--seconds must be positive")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report(run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir), args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
