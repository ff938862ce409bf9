"""Acceptance criteria, one test per criterion.

Each test enforces its stated tolerance and runtime budget and prints a
single pass/fail line (run with ``pytest -s`` to see them inline). The
planted-structure generator stands in for real video data throughout.
"""

import json
import time

import numpy as np
import pytest

from videothreads.cli import EXIT_OK, main
from videothreads.config import RunConfig
from videothreads.dataio import FeatureSequence
from videothreads.graph import build_graph, nearest_indices
from videothreads.kernels import sym_eigen
from videothreads.metrics import (
    adjusted_rand_index,
    hungarian,
    map_at_iou,
    recall_at_iou,
    temporal_iou,
)
from videothreads.model import ModelDims, forward, init_params
from videothreads.partition import spectral_partition
from videothreads.synth import SynthSpec, generate
from videothreads.training import (
    AlignmentBatch,
    TotalLossOp,
    grad_check,
    train_toy,
)


def report(number: int, name: str, passed: bool, elapsed: float, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[criterion {number:2d}] {status} {name} ({elapsed:.1f}s){suffix}")
    assert passed, f"criterion {number} failed: {name}{suffix}"


def run_cli(*argv):
    assert main(list(argv)) == EXIT_OK


def test_criterion_1_eigensolver_reconstruction():
    start = time.time()
    rng = np.random.default_rng(1001)
    worst_rec = worst_orth = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 33))
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        dec = sym_eigen(a)
        q = dec.eigenvectors
        rebuilt = q @ np.diag(dec.eigenvalues) @ q.T
        worst_rec = max(worst_rec, float(np.max(np.abs(rebuilt - a))))
        worst_orth = max(worst_orth, float(np.max(np.abs(q.T @ q - np.eye(n)))))
    elapsed = time.time() - start
    ok = worst_rec <= 1e-8 and worst_orth <= 1e-8 and elapsed < 10.0
    report(1, "eigensolver reconstruction/orthonormality on 200 matrices", ok,
           elapsed, f"rec={worst_rec:.2e} orth={worst_orth:.2e}")


def test_criterion_2_spectral_clustering_oracle():
    start = time.time()
    rng = np.random.default_rng(2002)
    block_hits = 0
    for trial in range(50):
        k = 2 + trial % 4
        sizes = rng.integers(3, 8, size=k)
        rows = []
        labels = []
        for group in range(k):
            direction = np.zeros(8)
            direction[group] = 1.0
            rows.extend([direction] * int(sizes[group]))
            labels.extend([group] * int(sizes[group]))
        part = spectral_partition(np.array(rows), k, seed=trial)
        block_hits += adjusted_rand_index(part.assignments, labels) == 1.0
    planted_hits = 0
    for seed in range(50):
        ds = generate(SynthSpec(num_threads=3, segments_per_step=20, dim=32,
                                separation=10.0, seed=seed))
        part = spectral_partition(ds.sequence.features, 3, seed=seed)
        planted_hits += adjusted_rand_index(part.assignments, ds.planted.step_labels) >= 0.95
    elapsed = time.time() - start
    ok = block_hits == 50 and planted_hits >= 48 and elapsed < 30.0
    report(2, "spectral partition recovers blocks and 10-sigma threads", ok,
           elapsed, f"blocks={block_hits}/50 planted={planted_hits}/50")


def test_criterion_3_hungarian_vs_brute_force():
    from reference_impl import brute_force_assignment

    start = time.time()
    rng = np.random.default_rng(3003)
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(1, 8))
        cost = rng.standard_normal((n, n)) * 10.0
        _, total = hungarian(cost)
        if abs(total - brute_force_assignment(cost)) > 1e-9:
            mismatches += 1
    elapsed = time.time() - start
    ok = mismatches == 0 and elapsed < 20.0
    report(3, "hungarian equals brute-force minimum on 500 matrices", ok,
           elapsed, f"mismatches={mismatches}")


def _toy_gradient_setup():
    graphs, narrations = [], []
    for v in range(2):
        ds = generate(SynthSpec(num_threads=2, steps_per_thread=1, segments_per_step=5,
                                segment_duration=0.5, dim=6, separation=4.0,
                                sigma=1.0, seed=40 + v))
        graphs.append(build_graph(ds.sequence, 1.0))
        narrations.append(ds.narrations)
    batch = AlignmentBatch(graphs, narrations)
    dims = ModelDims(d_in=6, d_h=8, d_a=8, d_t=6, stages=2, layers=2)
    return init_params(dims, seed=7), batch


def test_criterion_4_gradient_contract():
    start = time.time()
    params, batch = _toy_gradient_setup()
    assert params.num_params > 2000  # forces the >=200-coordinate sample path
    op = TotalLossOp(RunConfig(k=2, kappa=1.0, max_nodes=64, seed=0,
                               alpha=1.0, beta=4.0, temperature=0.05))
    worst = grad_check(op, params, batch, epsilon=1e-5, seed=0, min_sample=200)
    elapsed = time.time() - start
    ok = worst <= 1e-4 and elapsed < 60.0
    report(4, "analytic gradients match finite differences", ok, elapsed,
           f"max_rel_err={worst:.2e}")


def test_criterion_5_tdgc_dense_loop_oracle():
    from reference_impl import forward_ref

    start = time.time()
    rng = np.random.default_rng(5005)
    seq = FeatureSequence("v", np.arange(12) * 0.5, rng.standard_normal((12, 5)))
    g = build_graph(seq, 1.0)
    dims = ModelDims(d_in=5, d_h=7, d_a=6, d_t=5, stages=3, layers=2)
    worst = 0.0
    for seed in range(20):
        params = init_params(dims, seed=seed)
        trace = forward(g, params, k=2 if seed % 2 == 0 else 1, seed=seed)
        reference = forward_ref(g, params, [s.partition for s in trace.stages])
        worst = max(worst, float(np.max(np.abs(trace.output - reference))))
    elapsed = time.time() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    report(5, "forward pass matches dense-loop reference on N=12", ok, elapsed,
           f"max_abs_err={worst:.2e}")


def test_criterion_6_temporal_shift_equivariance():
    start = time.time()
    rng = np.random.default_rng(6006)
    features = rng.standard_normal((16, 6))
    times = np.arange(16) * 0.5
    params = init_params(ModelDims(d_in=6, d_h=8, d_a=8, d_t=6, stages=3, layers=3), seed=1)
    base = forward(build_graph(FeatureSequence("a", times, features), 1.0),
                   params, k=2, seed=0)
    moved = forward(build_graph(FeatureSequence("b", times + 1000.0, features), 1.0),
                    params, k=2, seed=0)
    worst = float(np.max(np.abs(base.output - moved.output)))
    elapsed = time.time() - start
    ok = worst <= 1e-12
    report(6, "outputs unchanged under +1000 s timestamp shift", ok, elapsed,
           f"max_abs_diff={worst:.2e}")


def test_criterion_7_end_to_end_planted_benchmark(tmp_path):
    start = time.time()
    f1s, ious, accs, recalls = [], [], [], []
    for seed in range(20):
        corpus = tmp_path / f"c{seed}"
        run_cli("synth", "--out", str(corpus), "--seed", str(seed),
                "--threads", "7", "--segments-per-step", "16", "--dim", "64",
                "--separation", "10", "--no-meta")
        feats = str(corpus / "features.hft")

        labels = tmp_path / f"labels{seed}.json"
        run_cli("procedure-learn", "--features", feats, "--k", "7",
                "--hidden", "64", "--out", str(labels), "--no-meta")
        rep = tmp_path / f"rep{seed}.json"
        run_cli("evaluate", "--task", "procedure", "--pred", str(labels),
                "--annotations", str(corpus / "annotations.json"),
                "--out", str(rep), "--no-meta")
        scores = json.loads(rep.read_text())["scalars"]
        f1s.append(scores["F1"])
        ious.append(scores["IoU"])

        locs = tmp_path / f"locs{seed}.json"
        run_cli("localize", "--features", feats,
                "--taxonomy", str(corpus / "taxonomy.json"),
                "--hidden", "64", "--k", "7", "--out", str(locs), "--no-meta")
        locrep = tmp_path / f"locrep{seed}.json"
        run_cli("evaluate", "--task", "localization", "--pred", str(locs),
                "--annotations", str(corpus / "annotations.json"),
                "--out", str(locrep), "--no-meta")
        accs.append(json.loads(locrep.read_text())["scalars"]["label_accuracy"])

        taxonomy = json.loads((corpus / "taxonomy.json").read_text())
        annotations = json.loads((corpus / "annotations.json").read_text())
        query_entries = []
        for s in range(7):
            qpath = tmp_path / f"q{seed}_{s}.json"
            qpath.write_text(json.dumps({"embedding": taxonomy["embeddings"][s]}))
            ppath = tmp_path / f"g{seed}_{s}.json"
            run_cli("ground", "--features", feats, "--query", str(qpath),
                    "--hidden", "64", "--k", "7", "--out", str(ppath), "--no-meta")
            interval = next(iv for iv in annotations["intervals"] if iv["label"] == s)
            query_entries.append({"predictions": ppath.name,
                                  "gt": {"start": interval["start"], "end": interval["end"]}})
        queries = tmp_path / f"queries{seed}.json"
        queries.write_text(json.dumps({"queries": query_entries}))
        grep = tmp_path / f"grep{seed}.json"
        run_cli("evaluate", "--task", "grounding", "--queries", str(queries),
                "--out", str(grep), "--no-meta")
        recalls.append(json.loads(grep.read_text())["scalars"]["R@1@0.5"] / 100.0)

    mean_f1, mean_iou = float(np.mean(f1s)), float(np.mean(ious))
    mean_acc, mean_recall = float(np.mean(accs)), float(np.mean(recalls))
    elapsed = time.time() - start
    ok = (mean_f1 >= 0.90 and mean_iou >= 0.80 and mean_acc >= 0.90
          and mean_recall >= 0.90 and elapsed < 120.0)
    report(7, "CLI planted benchmark over 20 corpora", ok, elapsed,
           f"F1={mean_f1:.3f} IoU={mean_iou:.3f} acc={mean_acc:.3f} R@1@0.5={mean_recall:.3f}")


def _toy_training_corpus(count, base_seed):
    data, planted = [], []
    for i in range(count):
        ds = generate(SynthSpec(num_threads=2, steps_per_thread=2, segments_per_step=8,
                                dim=16, separation=3.0, sigma=1.0, interleave=True,
                                seed=base_seed + i))
        data.append((ds.sequence, ds.narrations))
        planted.append(ds.planted.thread_labels)
    return data, planted


def _held_out_partition_ari(params, data, planted, seed):
    scores = []
    for (seq, _), labels in zip(data, planted):
        g0 = build_graph(seq, 1.0)
        trace = forward(g0, params, k=2, seed=seed)
        stage = trace.stages[-1]
        stage_labels = labels[nearest_indices(g0.timestamps, stage.graph.timestamps)]
        scores.append(adjusted_rand_index(stage.partition.assignments, stage_labels))
    return float(np.mean(scores))


def test_criterion_8_toy_training_descent():
    start = time.time()
    config = RunConfig(epochs=15, batch_size=8, lr=0.05, warmup_epochs=5,
                       hidden=16, align_dim=16, stages=2, layers=2,
                       alpha=2.0, beta=5.0, temperature=0.05, k=2)
    dims = ModelDims(d_in=16, d_h=16, d_a=16, d_t=16, stages=2, layers=2)
    descent_ok = 0
    ari_improved = 0
    details = []
    for seed in range(5):
        train_data, _ = _toy_training_corpus(6, 100 + 50 * seed)
        held_data, held_planted = _toy_training_corpus(3, 900 + 50 * seed)
        before = _held_out_partition_ari(init_params(dims, seed=seed),
                                         held_data, held_planted, seed)
        params, history = train_toy(train_data, config.override(seed=seed))
        after = _held_out_partition_ari(params, held_data, held_planted, seed)
        drop = 1.0 - history[-1]["mean_loss"] / history[0]["mean_loss"]
        descent_ok += drop >= 0.30
        ari_improved += after > before
        details.append(f"s{seed}:drop={drop:.0%},ari={before:.2f}->{after:.2f}")
    elapsed = time.time() - start
    ok = descent_ok == 5 and ari_improved >= 4 and elapsed < 300.0
    report(8, "toy training: loss drops >=30% and partitions improve", ok,
           elapsed, f"descent={descent_ok}/5 ari={ari_improved}/5 " + " ".join(details))


def test_criterion_9_metric_fixtures():
    from videothreads.dataio import StepPrediction

    start = time.time()
    checks = []
    # interval [2,8] vs [4,10]: IoU exactly 0.5, inclusive hit at both thresholds
    checks.append(temporal_iou((2.0, 8.0), (4.0, 10.0)) == 0.5)
    rep = recall_at_iou([([StepPrediction(2.0, 8.0, None, 1.0)], (4.0, 10.0))])
    checks.append(rep.scalars["R@1@0.3"] == 100.0)
    checks.append(rep.scalars["R@1@0.5"] == 100.0)
    # top-1 miss, top-5 hit
    rep = recall_at_iou([([StepPrediction(50.0, 51.0, None, 0.9),
                           StepPrediction(4.0, 10.0, None, 0.5)], (4.0, 10.0))])
    checks.append(rep.scalars["R@1@0.5"] == 0.0 and rep.scalars["R@5@0.5"] == 100.0)
    # hand-enumerated duplicate-detection mAP fixture: 0.75 at every threshold
    preds = [StepPrediction(50.0, 60.0, 0, 0.95),
             StepPrediction(0.0, 10.0, 0, 0.90),
             StepPrediction(20.0, 30.0, 1, 0.70)]
    gt = [(0.0, 10.0, 0), (20.0, 30.0, 1)]
    rep = map_at_iou(preds, gt)
    checks.append(all(abs(rep.scalars[f"mAP@{t:g}"] - 0.75) < 1e-12
                      for t in (0.1, 0.2, 0.3, 0.4, 0.5)))
    checks.append(abs(rep.scalars["mAP@avg"] - 0.75) < 1e-12)
    # perfect predictions give mAP 1.0 everywhere
    rep = map_at_iou([StepPrediction(0.0, 10.0, 0, 0.9)], [(0.0, 10.0, 0)])
    checks.append(all(v == 1.0 for v in rep.scalars.values()))
    elapsed = time.time() - start
    report(9, "recall/mAP fixtures reproduce hand-enumerated values",
           all(checks), elapsed, f"{sum(checks)}/{len(checks)} fixtures")


def test_criterion_10_cli_determinism(tmp_path):
    start = time.time()

    def twice(name, build_argv):
        out_a = tmp_path / f"{name}_a.json"
        out_b = tmp_path / f"{name}_b.json"
        run_cli(*build_argv(out_a))
        run_cli(*build_argv(out_b))
        return out_a.read_bytes() == out_b.read_bytes()

    corpus = tmp_path / "det"
    run_cli("synth", "--out", str(corpus), "--seed", "9", "--threads", "3",
            "--segments-per-step", "6", "--dim", "12", "--separation", "10",
            "--no-meta")
    corpus_b = tmp_path / "det_b"
    run_cli("synth", "--out", str(corpus_b), "--seed", "9", "--threads", "3",
            "--segments-per-step", "6", "--dim", "12", "--separation", "10",
            "--no-meta")
    feats = str(corpus / "features.hft")
    results = {
        "synth": (corpus / "features.hft").read_bytes() == (corpus_b / "features.hft").read_bytes()
        and (corpus / "summary.json").read_bytes() == (corpus_b / "summary.json").read_bytes(),
        "forward": twice("fwd", lambda out: (
            "forward", "--features", feats, "--hidden", "12", "--k", "2",
            "--emit-embeddings", "--out", str(out), "--no-meta")),
        "procedure-learn": twice("pl", lambda out: (
            "procedure-learn", "--features", feats, "--k", "3", "--hidden", "12",
            "--out", str(out), "--no-meta")),
        "localize": twice("loc", lambda out: (
            "localize", "--features", feats, "--taxonomy", str(corpus / "taxonomy.json"),
            "--hidden", "12", "--k", "3", "--out", str(out), "--no-meta")),
        "grad-check": twice("gc", lambda out: (
            "grad-check", "--seed", "3", "--out", str(out), "--no-meta")),
        "dump-config": twice("cfg", lambda out: ("dump-config", "--out", str(out))),
    }
    # ground needs a query file
    taxonomy = json.loads((corpus / "taxonomy.json").read_text())
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps({"embedding": taxonomy["embeddings"][0]}))
    results["ground"] = twice("gr", lambda out: (
        "ground", "--features", feats, "--query", str(qpath), "--hidden", "12",
        "--k", "3", "--out", str(out), "--no-meta"))
    # mcq with clips derived from the corpus
    from videothreads.dataio import read_feature_file, write_feature_file

    seq = read_feature_file(corpus / "features.hft")
    planted = json.loads((corpus / "planted.json").read_text())
    labels = np.array(planted["step_labels"])
    names = []
    for s in range(3):
        mask = labels == s
        clip = FeatureSequence(f"clip{s}", seq.timestamps[mask], seq.features[mask],
                               seq.segment_duration)
        write_feature_file(tmp_path / f"clip{s}.hft", clip)
        names.append(f"clip{s}.hft")
    names += [names[0], names[1]]
    qjson = tmp_path / "mcq_q.json"
    qjson.write_text(json.dumps({"query": taxonomy["embeddings"][1], "candidates": names}))
    results["mcq"] = twice("mcq", lambda out: (
        "mcq", "--question", str(qjson), "--hidden", "12", "--out", str(out), "--no-meta"))
    # evaluate (procedure)
    labels_file = tmp_path / "pl_a.json"
    results["evaluate"] = twice("ev", lambda out: (
        "evaluate", "--task", "procedure", "--pred", str(labels_file),
        "--annotations", str(corpus / "annotations.json"), "--out", str(out), "--no-meta"))
    # train-toy (two tiny epochs)
    for i in range(2):
        run_cli("synth", "--out", str(tmp_path / "tt" / f"v{i}"), "--seed", str(700 + i),
                "--threads", "2", "--steps-per-thread", "2", "--segments-per-step", "6",
                "--dim", "8", "--separation", "3", "--no-meta")
    tcfg = tmp_path / "tc.json"
    tcfg.write_text(json.dumps({"epochs": 2, "lr": 0.05, "warmup_epochs": 1,
                                "hidden": 8, "align_dim": 8, "stages": 2,
                                "layers": 1, "alpha": 2.0, "beta": 5.0, "k": 2}))

    def train_argv(out):
        tag = out.stem
        return ("train-toy", "--data", str(tmp_path / "tt"), "--train-config", str(tcfg),
                "--params-out", str(tmp_path / f"{tag}.bin"),
                "--history", str(tmp_path / f"{tag}.jsonl"),
                "--seed", "2", "--out", str(out), "--no-meta")

    results["train-toy"] = (twice("tt", train_argv)
                            and (tmp_path / "tt_a.bin").read_bytes() == (tmp_path / "tt_b.bin").read_bytes()
                            and (tmp_path / "tt_a.jsonl").read_bytes() == (tmp_path / "tt_b.jsonl").read_bytes())

    elapsed = time.time() - start
    failed = sorted(name for name, ok in results.items() if not ok)
    report(10, "every subcommand reruns byte-identically under --no-meta",
           not failed, elapsed, "all deterministic" if not failed else f"failed: {failed}")
