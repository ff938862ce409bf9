"""Tests of the benchmark's tracer and result format, on tiny workloads.

Run from the repository root: ``python3 -m pytest -q bench/test_tracer.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer as tracer_module  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ALL = set(tracer_module.SPAN_NAMES)
NOT_HIT = {
    "planted_tasks": {"training.TotalLossOp", "autodiff.Var.backward"},
    "long_video": {"training.TotalLossOp", "autodiff.Var.backward", "metrics.scorers",
                   "dataio.write"} | {n for n in ALL if n.startswith("tasks.")},
    "toy_training": {"metrics.scorers", "dataio.write"} | {n for n in ALL if n.startswith("tasks.")},
}


def _bindings():
    """Every videothreads attribute that the tracer may replace, by identity."""
    import videothreads  # noqa: F401  -- load every submodule first
    from videothreads import autodiff, cli, training  # noqa: F401

    snapshot = {}
    for name, module in sorted(sys.modules.items()):
        if name == "videothreads" or name.startswith("videothreads."):
            for attr, value in vars(module).items():
                if callable(value):
                    snapshot[(name, attr)] = value
    snapshot["Var.backward"] = autodiff.Var.__dict__["backward"]
    snapshot["TotalLossOp.__call__"] = training.TotalLossOp.__dict__["__call__"]
    return snapshot


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request, tmp_path_factory):
    before = _bindings()
    out = worker.run(request.param, seed=3, seconds=0.01, trace=True,
                     out_dir=tmp_path_factory.mktemp(request.param), tiny=True)
    return request.param, out, before


def test_every_expected_entry_point_is_hit(traced):
    name, out, _ = traced
    assert out["result"]["failed"] == 0, out["info"]["problems"]
    metrics = out["result"]["metrics"]
    hit = {n for n in ALL if metrics[f"{n}.calls"]["value"] > 0}
    assert hit == ALL - NOT_HIT[name]


def test_union_of_workloads_covers_every_entry_point():
    assert set().union(*(ALL - skipped for skipped in NOT_HIT.values())) == ALL


def test_originals_are_restored(traced):
    _, _, before = traced
    assert _bindings() == before


def test_self_times_fit_in_traced_wall_time(traced):
    _, out, _ = traced
    stats = out["info"]["tracer"].stats
    assert 0.0 < sum(stats.self_s.values()) <= out["info"]["traced_wall_s"]
    assert all(v >= -1e-9 for v in stats.self_s.values())


def test_spans_nest_inside_their_parents(traced):
    _, out, _ = traced
    spans = {s[0]: s for s in out["info"]["tracer"].spans}
    for span_id, _, start, end, parent, call in spans.values():
        assert start <= end
        if parent is None:
            assert call == span_id
        else:
            p = spans[parent]
            assert p[2] <= start and end <= p[3] and p[5] == call


def test_result_has_every_per_layer_metric(traced):
    _, out, _ = traced
    units = {k: v["unit"] for k, v in out["result"]["metrics"].items()}
    assert units == worker.per_layer_units()


def test_untraced_result_has_every_end_to_end_metric(tmp_path):
    out = worker.run("long_video", seed=3, seconds=0.01, trace=False, out_dir=tmp_path,
                     tiny=True)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == worker.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_matches_the_reported_metrics():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS) == set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == worker.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.per_layer_units()


def test_wrapping_reaches_names_bound_at_import_time():
    from videothreads import kernels, partition

    original = kernels.sym_eigen
    with tracer_module.Tracer() as t:
        assert partition.sym_eigen is kernels.sym_eigen is not original
        partition.spectral_partition([[1.0, 0.0], [0.0, 1.0], [1.0, 0.1]], 2)
    assert partition.sym_eigen is original
    assert t.stats.calls["kernels.sym_eigen"] == 1
    assert t.stats.counts["partition.spectral_partition.nodes_sum"] == 3


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert worker.tail([float(i) for i in range(100)]) == (89.0, "p90.0 of 100")
    assert worker.tail([3.0, 1.0, 2.0]) == (3.0, "max of 3")


def test_launcher_fails_without_a_checkout(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "long_video",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_forward_reuse_is_counted_within_an_iteration(traced):
    name, out, _ = traced
    ratio = out["result"]["metrics"]["model.forward.distinct_input_ratio"]["value"]
    # planted: procedure-learn, localize and 5 grounds share one forward; 5 mcq clips differ.
    # toy: 3 one-batch steps on 2 videos; the first step's learning rate is 0 (warm-up),
    # so the second step repeats the first step's inputs
    expected = {"planted_tasks": 6 / 12, "long_video": 1.0, "toy_training": 4 / 6}
    assert ratio == pytest.approx(expected[name])
