"""Command-line pipeline: synth | forward | procedure-learn | ground |
localize | mcq | evaluate | train-toy | grad-check | dump-config.

Every subcommand that runs or trains the model reads the one JSON run
config, ``RunConfig`` (``--config``; ``--train-config`` for train-toy). Each
flag that sets a config value (a ``SynthSpec`` value for synth) is declared
from its field, and flags win over file values. Handlers only wire: ``dataio``
reads and checks every input, ``metrics`` scores. Results are deterministic
JSON (metadata such as creation time is dropped under --no-meta so reruns are
byte-identical), and each failure class exits with its own code, looked up in
``_EXIT_CODES``: 2 usage, 3 bad config, 4 missing or unreadable input path,
5 malformed data, 1 any other library error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .config import RunConfig
from .dataio import (
    FeatureSequence,
    read_annotations,
    read_corpus,
    read_feature_file,
    read_grounding_queries,
    read_label_predictions,
    read_mcq_question,
    read_mcq_results,
    read_predictions,
    read_query,
    read_taxonomy,
    require_constant_dim,
    write_annotations,
    write_feature_file,
    write_json,
    write_narrations,
    write_predictions,
    write_taxonomy,
)
from .errors import ConfigError, DataError, SchemaError, VideoThreadsError
from .graph import build_graph
from .metrics import (
    MetricReport,
    label_accuracy,
    map_at_iou,
    mcq_accuracy,
    procedure_f1_iou,
    recall_at_iou,
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
from .training import TotalLossOp, grad_check, train_toy

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_MISSING = 4
EXIT_DATA = 5


def _meta(args, command: str) -> dict:
    """A result's ``meta`` entry, or none under --no-meta."""
    if args.no_meta:
        return {}
    return {"meta": {
        "tool": "videothreads",
        "version": __version__,
        "command": command,
        "created": datetime.now(timezone.utc).isoformat(),
    }}


def _emit(args, command: str, doc: dict) -> None:
    write_json(args.out, {**doc, **_meta(args, command)})


def _set_flags(args, schema) -> dict:
    """The values of the given flags that ``_add_config_flags`` declared for ``schema``."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(schema)
            if getattr(args, f.name, None) is not None}


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    return cfg.override(**_set_flags(args, RunConfig))


@functools.lru_cache(maxsize=1)
def _identity_default(dims: ModelDims):
    """``identity_params(dims)`` with every leaf read-only, built once and
    shared by each later call with equal ``dims`` (the last dims asked for;
    another rebuilds it). The leaves are a function of ``dims`` alone and no
    one can write into them, so a shared set cannot go stale."""
    params = identity_params(dims)
    for leaf in params.leaves():
        leaf.setflags(write=False)
    return params


def _resolve_params(args, cfg: RunConfig, d_in: int, d_t: int | None = None):
    """The parameters a model command runs with: the ``--params`` file, a
    ``--init-seed`` draw, or by default the identity configuration widened
    to the input and text dims. The default is ``_identity_default``'s
    shared, read-only set, since every task call of a process would
    otherwise rebuild the same leaves; ``model.identity_params`` still
    builds a fresh set for library callers."""
    if getattr(args, "params", None):
        params = load_params(args.params)
        for field, want in (("d_in", d_in), ("d_t", d_t)):
            have = getattr(params.dims, field)
            if want is not None and have != want:
                raise SchemaError(f"{args.params}: {field}",
                                  f"parameter file has {field}={have}, the input needs {want}")
        return params
    dims = ModelDims(d_in=d_in, d_h=cfg.hidden, d_a=cfg.align_dim, d_t=d_t or d_in,
                     stages=cfg.stages, layers=cfg.layers)
    if getattr(args, "init_seed", None) is not None:
        return init_params(dims, seed=args.init_seed)
    # identity default: widths at least the input/text dims so the embedding
    # into the leading dimensions loses nothing
    return _identity_default(dataclasses.replace(dims, d_h=max(dims.d_h, d_in),
                                                 d_a=max(dims.d_a, d_in, dims.d_t)))


def _run_forward(seq: FeatureSequence, params, cfg: RunConfig, k: int):
    g0 = build_graph(seq, cfg.edge_threshold)
    return forward(g0, params, k=k, kappa=cfg.kappa, max_nodes=cfg.max_nodes,
                   seed=cfg.seed)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args) -> int:
    spec = dataclasses.replace(SynthSpec(), **_set_flags(args, SynthSpec))
    ds = generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_feature_file(out / "features.hft", ds.sequence)
    write_narrations(out / "narrations.json", ds.narrations)
    write_taxonomy(out / "taxonomy.json", ds.taxonomy)
    write_annotations(out / "annotations.json", ds.annotation)
    write_json(out / "planted.json", {
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


def _cmd_forward(args) -> int:
    cfg = _load_config(args)
    sequences = [read_feature_file(p) for p in args.features]
    require_constant_dim(sequences)
    params = _resolve_params(args, cfg, sequences[0].dim)

    videos = []
    for seq in sequences:
        trace = _run_forward(seq, params, cfg, cfg.k)
        doc = {
            "video_id": seq.video_id,
            "segments": seq.num_segments,
            "stage_nodes": [s.graph.num_nodes for s in reversed(trace.stages)],
            "partitions": [s.partition.assignments.tolist() for s in trace.stages],
            "eigengaps": [s.partition.eigengap for s in trace.stages],
            "output_dim": int(trace.output.shape[1]),
        }
        if args.emit_embeddings:
            doc["embeddings"] = trace.output
        videos.append(doc)
    _emit(args, "forward", {"videos": videos})
    return EXIT_OK


def _cmd_procedure_learn(args) -> int:
    cfg = _load_config(args)
    seq = read_feature_file(args.features)
    params = _resolve_params(args, cfg, seq.dim)
    trace = _run_forward(seq, params, cfg, min(cfg.k, cfg.k_procedure))
    labels = procedure_learning(trace, k=cfg.k_procedure, depth=cfg.depth, seed=cfg.seed,
                                kappa=cfg.kappa)
    _emit(args, "procedure-learn", {
        "video_id": seq.video_id,
        "k": cfg.k_procedure,
        "depth": cfg.depth,
        "segment_duration": seq.segment_duration,
        "timestamps": seq.timestamps.tolist(),
        "labels": labels.tolist(),
    })
    return EXIT_OK


def _candidates_for(cfg: RunConfig, seq: FeatureSequence, params):
    trace = _run_forward(seq, params, cfg, min(cfg.k, cfg.k_candidates))
    return extract_candidates(trace, params, k=cfg.k_candidates, min_len=cfg.min_len,
                              kappa=cfg.kappa, seed=cfg.seed,
                              segment_duration=seq.segment_duration)


def _cmd_ground(args) -> int:
    cfg = _load_config(args)
    seq = read_feature_file(args.features)
    query = read_query(args.query)
    params = _resolve_params(args, cfg, seq.dim, d_t=query.size)
    candidates = _candidates_for(cfg, seq, params)
    ranked = step_grounding(candidates, query, params)
    write_predictions(args.out, ranked, **_meta(args, "ground"))
    return EXIT_OK


def _cmd_localize(args) -> int:
    cfg = _load_config(args)
    seq = read_feature_file(args.features)
    taxonomy = read_taxonomy(args.taxonomy)
    params = _resolve_params(args, cfg, seq.dim, d_t=taxonomy.embeddings.shape[1])
    candidates = _candidates_for(cfg, seq, params)
    predictions = step_localization(candidates, taxonomy, params)
    write_predictions(args.out, predictions, **_meta(args, "localize"))
    return EXIT_OK


def _cmd_mcq(args) -> int:
    cfg = _load_config(args)
    question = read_mcq_question(args.question)
    candidates = question.read_candidates()
    params = _resolve_params(args, cfg, candidates[0].dim, d_t=question.query.size)
    chosen = mcq_retrieval(question.query, candidates, params, context=cfg.delta,
                           clip_spans=question.spans, edge_threshold=cfg.edge_threshold,
                           seed=cfg.seed)
    _emit(args, "mcq", {"chosen": chosen, **question.answer})
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    if args.task == "procedure":
        timestamps, segment_duration, labels = read_label_predictions(args.pred)
        annotation = read_annotations(args.annotations)
        gt = segment_labels_from_annotation(annotation, timestamps, segment_duration)
        num_steps = args.num_steps
        if num_steps is None:
            num_steps = max((lab for _, _, lab in annotation.intervals
                             if lab is not None), default=-1) + 1
        f1, iou = procedure_f1_iou(labels, gt, num_steps)
        report = MetricReport({"F1": f1, "IoU": iou},
                              {"segments": timestamps.size, "steps": num_steps})
    elif args.task == "grounding":
        queries = [(read_predictions(p), gt) for p, gt in read_grounding_queries(args.queries)]
        report = recall_at_iou(queries)
    elif args.task == "localization":
        predictions = read_predictions(args.pred)
        intervals = read_annotations(args.annotations).intervals
        report = map_at_iou(predictions, intervals)
        report.scalars["label_accuracy"] = label_accuracy(predictions, intervals)
    else:  # mcq
        report = mcq_accuracy(read_mcq_results(args.results))
    _emit(args, "evaluate", {**report.to_json_dict(), "task": args.task})
    return EXIT_OK


def _cmd_train_toy(args) -> int:
    cfg = _load_config(args)
    dataset = read_corpus(args.data)
    params, history = train_toy(dataset, cfg)
    save_params(args.params_out, params)
    with open(args.history, "w", encoding="utf-8") as fh:
        for row in history:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    _emit(args, "train-toy", {
        "videos": len(dataset),
        "epochs": cfg.epochs,
        "initial_loss": history[0]["mean_loss"],
        "final_loss": history[-1]["mean_loss"],
    })
    return EXIT_OK


def _toy_gradcheck_batch(seed: int):
    from .training import AlignmentBatch

    videos = [generate(SynthSpec(num_threads=2, segments_per_step=5, segment_duration=0.5,
                                 dim=6, separation=4.0, seed=seed + i)) for i in range(2)]
    return AlignmentBatch(graphs=[build_graph(ds.sequence, 1.0) for ds in videos],
                          narrations=[ds.narrations for ds in videos])


def _cmd_grad_check(args) -> int:
    cfg = RunConfig.from_dict({"k": 2, "seed": args.seed})
    batch = _toy_gradcheck_batch(cfg.seed)
    dims = ModelDims(d_in=6, d_h=8, d_a=8, d_t=6, stages=2, layers=2)
    params = init_params(dims, seed=cfg.seed)
    op = TotalLossOp(cfg)
    worst = grad_check(op, params, batch, epsilon=args.epsilon, seed=cfg.seed)
    _emit(args, "grad-check", {
        "max_rel_error": worst,
        "epsilon": args.epsilon,
        "parameters": params.num_params,
        "tolerance": 1e-4,
        "passed": bool(worst <= 1e-4),
    })
    return EXIT_OK


def _cmd_dump_config(args) -> int:
    write_json(args.out, _load_config(args).to_dict())
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


_MODEL_FIELDS = ("hidden", "align_dim", "stages", "layers", "edge_threshold")
_PARTITION_FIELDS = ("kappa", "max_nodes")


def _add_config_flags(p: argparse.ArgumentParser, *fields: str, schema=RunConfig,
                      **flag_fields: str) -> None:
    """One flag per field of the ``schema`` dataclass that the subcommand's
    handler reads: ``--dashed-name``, typed like the field's default, stored
    under the field's name; a bool field's flag switches it away from its
    default (``--no-dashed-name`` when that is True). A keyword names a flag
    that sets another field (``k="k_procedure"`` makes ``--k`` set
    ``k_procedure``). Flags default to None, so ``_set_flags`` returns only
    the ones given and the file's value or the schema default stands."""
    defaults = schema()
    for flag, field in [*zip(fields, fields), *flag_fields.items()]:
        default = getattr(defaults, field)
        kind = ({"action": "store_const", "const": not default} if isinstance(default, bool)
                else {"type": type(default)})
        name = ("--no-" if default is True else "--") + flag.replace("_", "-")
        p.add_argument(name, dest=field, default=None,
                       help=f"{schema.__name__}.{field} (default {default})", **kind)


def _add_common(p: argparse.ArgumentParser, *fields: str, **flag_fields: str) -> None:
    """--config, --out and --no-meta, the parameter source, and the config
    flags of ``seed`` and ``fields`` (see ``_add_config_flags``)."""
    p.add_argument("--config", help="run config JSON (flags win over file values)")
    p.add_argument("--out", default="-", help="result path ('-' for stdout)")
    p.add_argument("--no-meta", action="store_true",
                   help="omit the meta block so reruns are byte-identical")
    p.add_argument("--params", help="trained parameter file (HIEROPM1)")
    p.add_argument("--init-seed", type=int, default=None,
                   help="random init seed (default: identity configuration)")
    _add_config_flags(p, "seed", *fields, **flag_fields)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="videothreads",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted-structure corpus")
    p.add_argument("--out", required=True, help="output directory")
    spec_fields = [f.name for f in dataclasses.fields(SynthSpec) if f.name != "num_threads"]
    _add_config_flags(p, *spec_fields, schema=SynthSpec, threads="num_threads")
    p.add_argument("--no-meta", action="store_true")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("forward", help="run the encoder/decoder on feature files")
    _add_common(p, *_MODEL_FIELDS, *_PARTITION_FIELDS, "k")
    p.add_argument("--features", nargs="+", required=True)
    p.add_argument("--emit-embeddings", action="store_true")
    p.set_defaults(func=_cmd_forward)

    p = sub.add_parser("procedure-learn", help="per-segment step assignments")
    _add_common(p, *_MODEL_FIELDS, *_PARTITION_FIELDS, "depth", k="k_procedure")
    p.add_argument("--features", required=True)
    p.set_defaults(func=_cmd_procedure_learn)

    p = sub.add_parser("ground", help="rank candidate steps against a query embedding")
    _add_common(p, *_MODEL_FIELDS, *_PARTITION_FIELDS, "min_len", k="k_candidates")
    p.add_argument("--features", required=True)
    p.add_argument("--query", required=True, help='JSON {"embedding": [...]}')
    p.set_defaults(func=_cmd_ground)

    p = sub.add_parser("localize", help="label candidate steps with a taxonomy")
    _add_common(p, *_MODEL_FIELDS, *_PARTITION_FIELDS, "min_len", k="k_candidates")
    p.add_argument("--features", required=True)
    p.add_argument("--taxonomy", required=True)
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("mcq", help="pick the clip matching a query embedding")
    _add_common(p, *_MODEL_FIELDS, "delta")
    p.add_argument("--question", required=True,
                   help='JSON {"query": [...], "candidates": [5 paths], "spans": optional}')
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
    p.add_argument("--train-config", dest="config",
                   help="run config JSON (flags win over file values)")
    p.add_argument("--params-out", dest="params_out", required=True)
    p.add_argument("--history", required=True, help="JSON-lines loss history path")
    _add_config_flags(p, "seed")
    p.add_argument("--out", default="-")
    p.add_argument("--no-meta", action="store_true")
    p.set_defaults(func=_cmd_train_toy)

    p = sub.add_parser("grad-check", help="finite-difference gradient verification")
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


_EVALUATE_INPUTS = {"procedure": ("pred", "annotations"), "grounding": ("queries",),
                   "localization": ("pred", "annotations"), "mcq": ("results",)}


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call in this process parses with; parsing
    leaves it unchanged, and building it costs about 5 ms."""
    return build_parser()


_EXIT_CODES = (  # the first row naming a class of the error gives the exit code
    ((ConfigError,), EXIT_CONFIG),
    ((FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError), EXIT_MISSING),
    ((DataError,), EXIT_DATA),
    ((VideoThreadsError,), EXIT_ERROR),
)
_HANDLED = tuple(cls for classes, _ in _EXIT_CODES for cls in classes)


def main(argv: list[str] | None = None) -> int:
    parser = _shared_parser()
    args = parser.parse_args(argv)
    if args.command == "evaluate":
        missing = [f"--{name}" for name in _EVALUATE_INPUTS[args.task] if getattr(args, name) is None]
        if missing:
            parser.error(f"evaluate --task {args.task} requires {' and '.join(missing)}")
        if args.num_steps is not None and args.num_steps < 0:
            parser.error(f"--num-steps must be non-negative, got {args.num_steps}")
    try:
        return args.func(args)
    except _HANDLED as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
              file=sys.stderr)
        return next(code for classes, code in _EXIT_CODES if isinstance(exc, classes))


if __name__ == "__main__":
    sys.exit(main())
