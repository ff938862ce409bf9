"""Command-line pipeline: synth | forward | procedure-learn | ground |
localize | mcq | evaluate | train-toy | grad-check | dump-config.

Every subcommand reads the shared JSON run config (flags win over file
values), writes deterministic JSON results (metadata such as creation time
is dropped under --no-meta so reruns are byte-identical), and exits with a
distinct code per failure class: 2 usage, 3 bad config, 4 missing or
unreadable input path, 5 malformed data, 1 any other library error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig
from .dataio import (
    FeatureSequence,
    read_annotations,
    read_feature_file,
    read_narrations,
    read_object,
    read_predictions,
    read_taxonomy,
    write_annotations,
    write_feature_file,
    write_narrations,
    write_predictions,
    write_taxonomy,
)
from .errors import ConfigError, DataError, SchemaError, VideoThreadsError
from .graph import build_graph
from .metrics import (
    map_at_iou,
    mcq_accuracy,
    procedure_f1_iou,
    recall_at_iou,
    temporal_iou,
)
from .model import (
    ModelDims,
    forward,
    identity_params,
    init_params,
    load_params,
    save_params,
)
from .synth import SynthSpec, generate, segment_labels_from_annotation
from .tasks import (
    extract_candidates,
    mcq_retrieval,
    procedure_learning,
    step_grounding,
    step_localization,
)
from .training import TotalLossOp, TrainConfig, grad_check, train_toy

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_MISSING = 4
EXIT_DATA = 5


def _write_json(path, doc: dict) -> None:
    text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _emit(args, command: str, doc: dict) -> None:
    if not args.no_meta:
        doc = dict(doc)
        doc["meta"] = {
            "tool": "videothreads",
            "version": __version__,
            "command": command,
            "created": datetime.now(timezone.utc).isoformat(),
        }
    _write_json(args.out, doc)


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {}
    for flag, key in (
        ("edge_threshold", "edge_threshold"), ("hidden", "hidden"),
        ("align_dim", "align_dim"), ("kappa", "kappa"),
        ("max_nodes", "max_nodes"), ("min_len", "min_len"),
        ("delta", "delta"), ("depth", "depth"), ("seed", "seed"),
        ("jobs", "jobs"), ("stages", "stages"), ("layers", "layers"),
    ):
        if hasattr(args, flag):
            overrides[key] = getattr(args, flag)
    return cfg.override(**overrides)


def _resolve_params(args, cfg: RunConfig, d_in: int, d_t: int | None = None):
    if getattr(args, "params", None):
        return load_params(args.params)
    d_t = d_t if d_t else d_in
    if getattr(args, "init_seed", None) is not None:
        dims = ModelDims(d_in=d_in, d_h=cfg.hidden, d_a=cfg.align_dim, d_t=d_t,
                         stages=cfg.stages, layers=cfg.layers)
        return init_params(dims, seed=args.init_seed)
    # identity default: widths at least the input/text dims so the embedding
    # into the leading dimensions loses nothing
    dims = ModelDims(d_in=d_in, d_h=max(cfg.hidden, d_in),
                     d_a=max(cfg.align_dim, d_in, d_t), d_t=d_t,
                     stages=cfg.stages, layers=cfg.layers)
    return identity_params(dims)


def _run_forward(seq: FeatureSequence, params, cfg: RunConfig, k: int,
                 cluster: bool):
    g0 = build_graph(seq, cfg.edge_threshold)
    return forward(g0, params, k=k, kappa=cfg.kappa, max_nodes=cfg.max_nodes,
                   cluster_enabled=cluster, seed=cfg.seed)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args) -> int:
    spec = SynthSpec(
        num_threads=args.threads, steps_per_thread=args.steps_per_thread,
        segments_per_step=args.segments_per_step, segment_duration=args.segment_duration,
        dim=args.dim, separation=args.separation, sigma=args.sigma,
        interleave=not args.no_interleave, seed=args.seed,
    )
    ds = generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_feature_file(out / "features.hft", ds.sequence)
    write_narrations(out / "narrations.json", ds.narrations)
    write_taxonomy(out / "taxonomy.json", ds.taxonomy)
    write_annotations(out / "annotations.json", ds.annotation)
    _write_json(out / "planted.json", {
        "step_labels": ds.planted.step_labels.tolist(),
        "thread_labels": ds.planted.thread_labels.tolist(),
        "num_steps": spec.num_steps,
        "num_threads": spec.num_threads,
    })
    args.out = str(out / "summary.json")
    _emit(args, "synth", {
        "segments": ds.sequence.num_segments,
        "dim": ds.sequence.dim,
        "steps": spec.num_steps,
        "threads": spec.num_threads,
        "seed": spec.seed,
    })
    return EXIT_OK


def _require_constant_dim(sequences) -> None:
    dims = {seq.dim for seq in sequences}
    if len(dims) > 1:
        raise SchemaError("features", f"mixed feature dimensions across videos: {sorted(dims)}")


def _cmd_forward(args) -> int:
    cfg = _load_config(args)
    k = args.k if args.k is not None else cfg.k_threads
    sequences = [read_feature_file(p) for p in args.features]
    _require_constant_dim(sequences)
    params = _resolve_params(args, cfg, sequences[0].dim)

    def one(seq):
        trace = _run_forward(seq, params, cfg, k, not args.no_cluster)
        doc = {
            "video_id": seq.video_id,
            "segments": seq.num_segments,
            "stage_nodes": [g.num_nodes for g in trace.encoder_graphs],
            "partitions": [p.assignments.tolist() for p in trace.partitions],
            "eigengaps": [p.eigengap for p in trace.partitions],
            "output_dim": int(trace.output.shape[1]),
        }
        if args.emit_embeddings:
            doc["embeddings"] = trace.output.tolist()
        return doc

    if cfg.jobs > 1 and len(sequences) > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            videos = list(pool.map(one, sequences))
    else:
        videos = [one(seq) for seq in sequences]
    _emit(args, "forward", {"videos": videos})
    return EXIT_OK


def _cmd_procedure_learn(args) -> int:
    cfg = _load_config(args)
    k = args.k if args.k is not None else cfg.k_procedure
    seq = read_feature_file(args.features)
    params = _resolve_params(args, cfg, seq.dim)
    trace = _run_forward(seq, params, cfg, min(cfg.k_threads, k), cluster=True)
    labels = procedure_learning(trace, k=k, depth=cfg.depth, seed=cfg.seed,
                                kappa=cfg.kappa)
    _emit(args, "procedure-learn", {
        "video_id": seq.video_id,
        "k": k,
        "depth": cfg.depth,
        "segment_duration": seq.segment_duration,
        "timestamps": seq.timestamps.tolist(),
        "labels": labels.tolist(),
    })
    return EXIT_OK


def _candidates_for(args, cfg: RunConfig, seq: FeatureSequence, params, k: int):
    trace = _run_forward(seq, params, cfg, min(cfg.k_threads, k), cluster=True)
    return extract_candidates(trace, params, k=k, min_len=cfg.min_len,
                              kappa=cfg.kappa, seed=cfg.seed,
                              segment_duration=seq.segment_duration)


def _cmd_ground(args) -> int:
    cfg = _load_config(args)
    k = args.k if args.k is not None else cfg.k_candidates
    seq = read_feature_file(args.features)
    query = np.asarray(read_object(args.query, "embedding")["embedding"], dtype=np.float64)
    params = _resolve_params(args, cfg, seq.dim, d_t=query.size)
    candidates = _candidates_for(args, cfg, seq, params, k)
    ranked = step_grounding(candidates, query, params)
    write_predictions(args.out, ranked)
    return EXIT_OK


def _cmd_localize(args) -> int:
    cfg = _load_config(args)
    k = args.k if args.k is not None else cfg.k_candidates
    seq = read_feature_file(args.features)
    taxonomy = read_taxonomy(args.taxonomy)
    params = _resolve_params(args, cfg, seq.dim, d_t=taxonomy.embeddings.shape[1])
    candidates = _candidates_for(args, cfg, seq, params, k)
    predictions = step_localization(candidates, taxonomy, params)
    write_predictions(args.out, predictions)
    return EXIT_OK


def _cmd_mcq(args) -> int:
    cfg = _load_config(args)
    question = read_object(args.question, "query", "candidates")
    base = Path(args.question).parent
    query = np.asarray(question["query"], dtype=np.float64)
    candidates = [read_feature_file(base / p) for p in question["candidates"]]
    spans = question.get("spans")
    if spans is not None:
        spans = [tuple(s) for s in spans]
    params = _resolve_params(args, cfg, candidates[0].dim, d_t=query.size)
    chosen = mcq_retrieval(query, candidates, params, context=cfg.delta,
                           clip_spans=spans, edge_threshold=cfg.edge_threshold,
                           seed=cfg.seed)
    doc = {"chosen": chosen}
    for key in ("correct", "group"):
        if key in question:
            doc[key] = question[key]
    _emit(args, "mcq", doc)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    if args.task == "procedure":
        pred_doc = read_object(args.pred, "timestamps", "segment_duration", "labels")
        annotation = read_annotations(args.annotations)
        timestamps = np.asarray(pred_doc["timestamps"], dtype=np.float64)
        gt = segment_labels_from_annotation(
            annotation, timestamps, pred_doc["segment_duration"])
        num_steps = args.num_steps
        if num_steps is None:
            num_steps = max((lab for _, _, lab in annotation.intervals
                             if lab is not None), default=-1) + 1
        f1, iou = procedure_f1_iou(np.asarray(pred_doc["labels"]), gt, num_steps)
        doc = {"scalars": {"F1": f1, "IoU": iou},
               "counts": {"segments": int(timestamps.size), "steps": num_steps}}
    elif args.task == "grounding":
        base = Path(args.queries).parent
        queries = []
        for item in read_object(args.queries, "queries")["queries"]:
            preds = read_predictions(base / item["predictions"])
            gt = item.get("gt")
            interval = (gt["start"], gt["end"]) if gt else None
            queries.append((preds, interval))
        doc = recall_at_iou(queries).to_json_dict()
    elif args.task == "localization":
        predictions = read_predictions(args.pred)
        annotation = read_annotations(args.annotations)
        labeled = [iv for iv in annotation.intervals if iv[2] is not None]
        correct = 0
        for p in predictions:
            if not labeled:
                break
            best = max(labeled, key=lambda iv: temporal_iou((p.start, p.end), (iv[0], iv[1])))
            correct += int(p.label == best[2])
        report = map_at_iou(predictions, annotation.intervals)
        report.scalars["label_accuracy"] = correct / len(predictions) if predictions else 0.0
        doc = report.to_json_dict()
    else:  # mcq
        results = read_object(args.results, "results")["results"]
        for i, r in enumerate(results):
            for key in ("chosen", "correct"):
                if not isinstance(r, dict) or key not in r:
                    raise SchemaError(f"{args.results}: results[{i}].{key}", "missing")
        choices = [(r["chosen"], r["correct"], r.get("group", "inter")) for r in results]
        doc = mcq_accuracy(choices).to_json_dict()
    doc["task"] = args.task
    _emit(args, "evaluate", doc)
    return EXIT_OK


def _load_train_config(path) -> TrainConfig:
    if path is None:
        return TrainConfig()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    known = {f.name for f in dataclasses.fields(TrainConfig)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(f"unknown training config keys: {', '.join(unknown)}")
    return TrainConfig(**doc)


def _load_corpus(data_dir) -> list[tuple]:
    root = Path(data_dir)
    if not root.is_dir():
        raise FileNotFoundError(f"{root} is not a directory")
    dataset = []
    for video_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        feature_path = video_dir / "features.hft"
        narration_path = video_dir / "narrations.json"
        if feature_path.exists() and narration_path.exists():
            dataset.append((read_feature_file(feature_path),
                            read_narrations(narration_path)))
    if not dataset:
        raise FileNotFoundError(f"no <video>/features.hft + narrations.json pairs under {root}")
    _require_constant_dim([seq for seq, _ in dataset])
    return dataset


def _cmd_train_toy(args) -> int:
    train_cfg = _load_train_config(args.train_config)
    dataset = _load_corpus(args.data)
    params, history = train_toy(dataset, train_cfg, seed=args.seed)
    save_params(args.params_out, params)
    with open(args.history, "w", encoding="utf-8") as fh:
        for row in history:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    _emit(args, "train-toy", {
        "videos": len(dataset),
        "epochs": train_cfg.epochs,
        "initial_loss": history[0]["mean_loss"],
        "final_loss": history[-1]["mean_loss"],
    })
    return EXIT_OK


def _toy_gradcheck_batch(seed: int):
    from .training import AlignmentBatch

    videos = []
    for i in range(2):
        spec = SynthSpec(num_threads=2, steps_per_thread=1, segments_per_step=5,
                         segment_duration=0.5, dim=6, separation=4.0, sigma=1.0,
                         interleave=True, seed=seed + i)
        ds = generate(spec)
        videos.append((ds.sequence, ds.narrations))
    graphs = [build_graph(seq, 1.0) for seq, _ in videos]
    return AlignmentBatch(graphs=graphs, narrations=[n for _, n in videos],
                          alpha=1.0, beta=4.0, temperature=0.05)


def _cmd_grad_check(args) -> int:
    batch = _toy_gradcheck_batch(args.seed)
    dims = ModelDims(d_in=6, d_h=8, d_a=8, d_t=6, stages=2, layers=2)
    params = init_params(dims, seed=args.seed)
    op = TotalLossOp(k=2, kappa=1.0, max_nodes=64, cluster_enabled=True, seed=args.seed)
    worst = grad_check(op, params, batch, epsilon=args.epsilon, seed=args.seed)
    _emit(args, "grad-check", {
        "max_rel_error": worst,
        "epsilon": args.epsilon,
        "parameters": params.num_params,
        "tolerance": 1e-4,
        "passed": bool(worst <= 1e-4),
    })
    return EXIT_OK


def _cmd_dump_config(args) -> int:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    _write_json(args.out, cfg.to_dict())
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser, *, model: bool = False) -> None:
    p.add_argument("--config", help="run config JSON (flags win over file values)")
    p.add_argument("--out", default="-", help="result path ('-' for stdout)")
    p.add_argument("--no-meta", action="store_true",
                   help="omit the meta block so reruns are byte-identical")
    p.add_argument("--seed", type=int, default=None)
    if model:
        p.add_argument("--params", help="trained parameter file (HIEROPM1)")
        p.add_argument("--init-seed", type=int, default=None,
                       help="random init seed (default: identity configuration)")
        p.add_argument("--hidden", type=int, default=None)
        p.add_argument("--align-dim", dest="align_dim", type=int, default=None)
        p.add_argument("--stages", type=int, default=None)
        p.add_argument("--layers", type=int, default=None)
        p.add_argument("--edge-threshold", dest="edge_threshold", type=float, default=None)
        p.add_argument("--kappa", type=float, default=None)
        p.add_argument("--max-nodes", dest="max_nodes", type=int, default=None)
        p.add_argument("--jobs", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="videothreads",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted-structure corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=3)
    p.add_argument("--steps-per-thread", dest="steps_per_thread", type=int, default=1)
    p.add_argument("--segments-per-step", dest="segments_per_step", type=int, default=20)
    p.add_argument("--segment-duration", dest="segment_duration", type=float,
                   default=16.0 / 30.0)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--separation", type=float, default=10.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--no-interleave", action="store_true")
    p.add_argument("--no-meta", action="store_true")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("forward", help="run the encoder/decoder on feature files")
    _add_common(p, model=True)
    p.add_argument("--features", nargs="+", required=True)
    p.add_argument("--k", type=int, default=None, help="functional-thread count")
    p.add_argument("--no-cluster", action="store_true",
                   help="single functional thread (short clips)")
    p.add_argument("--emit-embeddings", action="store_true")
    p.set_defaults(func=_cmd_forward)

    p = sub.add_parser("procedure-learn", help="per-segment step assignments")
    _add_common(p, model=True)
    p.add_argument("--features", required=True)
    p.add_argument("--k", type=int, default=None, help="number of key-steps")
    p.add_argument("--depth", type=int, default=None, help="decoder stage to cluster (0 = deepest)")
    p.set_defaults(func=_cmd_procedure_learn)

    p = sub.add_parser("ground", help="rank candidate steps against a query embedding")
    _add_common(p, model=True)
    p.add_argument("--features", required=True)
    p.add_argument("--query", required=True, help='JSON {"embedding": [...]}')
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--min-len", dest="min_len", type=int, default=None)
    p.set_defaults(func=_cmd_ground)

    p = sub.add_parser("localize", help="label candidate steps with a taxonomy")
    _add_common(p, model=True)
    p.add_argument("--features", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--min-len", dest="min_len", type=int, default=None)
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("mcq", help="pick the clip matching a query embedding")
    _add_common(p, model=True)
    p.add_argument("--question", required=True,
                   help='JSON {"query": [...], "candidates": [5 paths], "spans": optional}')
    p.add_argument("--delta", type=float, default=None, help="context window seconds")
    p.set_defaults(func=_cmd_mcq)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--task", required=True,
                   choices=("procedure", "grounding", "localization", "mcq"))
    p.add_argument("--pred", help="prediction file (procedure, localization)")
    p.add_argument("--annotations", help="ground-truth annotations JSON")
    p.add_argument("--num-steps", dest="num_steps", type=int, default=None)
    p.add_argument("--queries", help="grounding queries JSON")
    p.add_argument("--results", help="mcq results JSON")
    p.add_argument("--out", default="-")
    p.add_argument("--no-meta", action="store_true")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("train-toy", help="gradient-descent training on a small corpus")
    p.add_argument("--data", required=True, help="directory of <video>/features.hft + narrations.json")
    p.add_argument("--train-config", dest="train_config", help="TrainConfig JSON")
    p.add_argument("--params-out", dest="params_out", required=True)
    p.add_argument("--history", required=True, help="JSON-lines loss history path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.add_argument("--no-meta", action="store_true")
    p.set_defaults(func=_cmd_train_toy)

    p = sub.add_parser("grad-check", help="finite-difference gradient verification")
    p.add_argument("--dims", choices=("toy",), default="toy")
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.add_argument("--no-meta", action="store_true")
    p.set_defaults(func=_cmd_grad_check)

    p = sub.add_parser("dump-config", help="print the merged run configuration")
    p.add_argument("--config")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_dump_config)

    return parser


def _error_payload(exc: Exception) -> dict:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


_EVALUATE_INPUTS = {"procedure": ("pred", "annotations"), "grounding": ("queries",),
                   "localization": ("pred", "annotations"), "mcq": ("results",)}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "evaluate":
        missing = [f"--{name}" for name in _EVALUATE_INPUTS[args.task] if getattr(args, name) is None]
        if missing:
            parser.error(f"evaluate --task {args.task} requires {' and '.join(missing)}")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(json.dumps(_error_payload(exc)), file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        print(json.dumps(_error_payload(exc)), file=sys.stderr)
        return EXIT_MISSING
    except DataError as exc:
        print(json.dumps(_error_payload(exc)), file=sys.stderr)
        return EXIT_DATA
    except VideoThreadsError as exc:
        print(json.dumps(_error_payload(exc)), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
