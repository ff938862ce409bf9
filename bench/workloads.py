"""The three benchmark workloads, each driving ``videothreads.cli.main``.

A workload writes its inputs once during set-up (planted ``synth`` corpora
plus the query, question and config files a user would hand the CLI), then
runs one *iteration* at a time in a closed loop: one client, one CLI call
in flight. Every call's output is checked; outputs of repeated inputs must
be byte-identical to the first time round.

Why these three (each loads different layers):

* ``planted_tasks`` -- the criterion-7 call sequence on N = 112 corpora.
  Many small full eigensolves dominate, graph and model costs are tiny, and
  8 of 9 model calls recompute one forward pass.
* ``long_video`` -- one ``forward`` on an N = 3584 video (about 32 minutes
  of footage). The N^2 graph build and dense TDGC / interpolation operators
  dominate time and memory; eigensolves stay at the 64-node budget. N = 3584
  rather than 7168 keeps one call under 2 s, so a run holds enough calls for
  a steady fastest-iteration figure; the quadratic terms already dominate.
* ``toy_training`` -- ``train-toy`` on 16 planted N = 64 videos: the only
  path through ``autodiff`` and the ``training`` losses. N = 64 rather than
  128 keeps one call near 2 s, so a run holds enough calls for a steady
  fastest-iteration figure.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An output did not pass its check."""


@dataclass
class Call:
    command: str
    seconds: float
    model: bool
    ok: bool


@dataclass
class Session:
    """Runs CLI calls in process, times them and checks their outputs.

    ``cli`` is the ``videothreads.cli`` module; ``main`` is looked up on every
    call so that a tracer's wrapper is seen. ``first_digests`` maps an output
    key to the digest seen the first time; a later call with the same key must
    reproduce it byte for byte.
    """

    cli: object
    calls: list[Call] = field(default_factory=list)
    first_digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def run(self, argv: list[str], *, model: bool, outputs=(), check=None) -> bool:
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 -- a crash is a failed call
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        ok = code == 0
        if not ok:
            self.problems.append(f"{argv[0]}: exit {code}")
        else:
            try:
                for key, path in outputs:
                    self._compare(key, path)
                if check is not None:
                    check()
            except (CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
                self.problems.append(f"{argv[0]}: {exc}")
                ok = False
        self.calls.append(Call(argv[0], seconds, model, ok))
        return ok

    def _compare(self, key: str, path: Path) -> None:
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        first = self.first_digests.setdefault(key, digest)
        if digest != first:
            raise CheckFailed(f"{key}: output differs from the first run of the same input")

    def digest(self) -> str:
        """One digest over every distinct output, in first-seen order."""
        h = hashlib.sha256()
        for key, digest in self.first_digests.items():
            h.update(f"{key}={digest}\n".encode())
        return h.hexdigest()


def _load(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _dump(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def adjusted_rand_index(a, b) -> float:
    """ARI from the pair-counting contingency table; kept independent of the
    library's own scorer so the check does not share code with the system."""
    _, ai = np.unique(np.asarray(a), return_inverse=True)
    _, bi = np.unique(np.asarray(b), return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1.0)
    pairs = lambda x: float(np.sum(x * (x - 1.0) / 2.0))  # noqa: E731
    cells, rows, cols = pairs(table), pairs(table.sum(1)), pairs(table.sum(0))
    expected = rows * cols / pairs(np.array([float(ai.size)]))
    top = 0.5 * (rows + cols)
    return 1.0 if top == expected else (cells - expected) / (top - expected)


@dataclass
class Quality:
    """Headline score (higher is better) plus the named scores behind it."""

    score: float
    named: dict[str, tuple[float, str]]
    floors: list[tuple[str, bool]]


# ---------------------------------------------------------------------------


class PlantedTasks:
    """Criterion-7 sequence per corpus: procedure-learn, localize, 7 x ground,
    one 5-clip mcq, and one evaluate per task."""

    name = "planted_tasks"
    model_flags = ("--hidden", "64")

    def __init__(self, corpora: int = 10, threads: int = 7, segments_per_step: int = 16,
                 dim: int = 64):
        self.corpora = corpora
        self.threads = threads
        self.segments_per_step = segments_per_step
        self.dim = dim
        self.videos_per_iteration = 1
        self.min_iterations = corpora  # quality covers every corpus once
        self.scores: dict[int, dict[str, float]] = {}

    def setup(self, session: Session, root: Path, seed: int) -> None:
        self.root = root
        for c in range(self.corpora):
            corpus_seed = seed * 1000 + c
            d = root / f"c{c}"
            ok = session.run(["synth", "--out", str(d), "--seed", str(corpus_seed),
                              "--threads", str(self.threads),
                              "--segments-per-step", str(self.segments_per_step),
                              "--dim", str(self.dim), "--separation", "10", "--no-meta"],
                             model=False)
            if not ok:
                raise RuntimeError(f"set-up failed: {session.problems[-1]}")
            self._write_queries(d)
            self._write_question(d, np.random.default_rng(corpus_seed))

    def _write_queries(self, d: Path) -> None:
        from videothreads.dataio import read_annotations

        taxonomy = _load(d / "taxonomy.json")
        intervals = read_annotations(d / "annotations.json").intervals
        (d / "out").mkdir()
        entries = []
        for s, embedding in enumerate(taxonomy["embeddings"]):
            _dump(d / f"q{s}.json", {"embedding": embedding})
            start, end, _ = next(iv for iv in intervals if iv[2] == s)
            entries.append({"predictions": f"g{s}.json", "gt": {"start": start, "end": end}})
        _dump(d / "out" / "queries.json", {"queries": entries})

    def _write_question(self, d: Path, rng: np.random.Generator) -> None:
        from videothreads.dataio import FeatureSequence, read_feature_file, write_feature_file

        seq = read_feature_file(d / "features.hft")
        labels = np.asarray(_load(d / "planted.json")["step_labels"])
        steps = rng.choice(self.threads, size=5, replace=False)
        names = []
        for j, step in enumerate(steps):
            mask = labels == step
            write_feature_file(d / f"clip{j}.hft", FeatureSequence(
                f"clip{j}", seq.timestamps[mask], seq.features[mask], seq.segment_duration))
            names.append(f"clip{j}.hft")
        correct = int(rng.integers(5))
        taxonomy = _load(d / "taxonomy.json")
        _dump(d / "question.json", {"query": taxonomy["embeddings"][int(steps[correct])],
                                    "candidates": names, "correct": correct,
                                    "group": "inter"})

    def iterate(self, session: Session, index: int) -> None:
        c = index % self.corpora
        d = self.root / f"c{c}"
        out = d / "out"
        n = self.threads * self.segments_per_step
        feats = str(d / "features.hft")
        model = ["--features", feats, "--k", str(self.threads), *self.model_flags, "--no-meta"]
        scores = {}

        def checked(path: Path, test):
            def check():
                test(_load(path))
            return check

        def labels_ok(doc):
            labels = doc["labels"]
            _expect(len(labels) == n and all(0 <= x < self.threads for x in labels),
                    "procedure labels: wrong length or out of range")

        def predictions_ok(doc):
            _expect(len(doc["predictions"]) > 0, "no predictions")

        def evaluate(task, record, *args):
            path = out / f"rep_{task}.json"
            session.run(["evaluate", "--task", task, *args, "--out", str(path), "--no-meta"],
                        model=False, outputs=[(f"c{c}/rep_{task}", path)],
                        check=checked(path, lambda doc: record(doc["scalars"])))

        labels = out / "labels.json"
        session.run(["procedure-learn", *model, "--out", str(labels)], model=True,
                    outputs=[(f"c{c}/labels", labels)], check=checked(labels, labels_ok))
        evaluate("procedure",
                 lambda r: scores.update(procedure_f1=r["F1"], procedure_iou=r["IoU"]),
                 "--pred", str(labels), "--annotations", str(d / "annotations.json"))

        locs = out / "locs.json"
        session.run(["localize", *model, "--taxonomy", str(d / "taxonomy.json"),
                     "--out", str(locs)], model=True,
                    outputs=[(f"c{c}/locs", locs)], check=checked(locs, predictions_ok))
        evaluate("localization", lambda r: scores.update(localization_acc=r["label_accuracy"]),
                 "--pred", str(locs), "--annotations", str(d / "annotations.json"))

        for s in range(self.threads):
            path = out / f"g{s}.json"
            session.run(["ground", *model, "--query", str(d / f"q{s}.json"),
                         "--out", str(path)], model=True,
                        outputs=[(f"c{c}/g{s}", path)], check=checked(path, predictions_ok))
        evaluate("grounding", lambda r: scores.update(grounding_r1=r["R@1@0.5"] / 100.0),
                 "--queries", str(out / "queries.json"))

        chosen = out / "mcq.json"
        ok = session.run(["mcq", "--question", str(d / "question.json"), *self.model_flags,
                          "--out", str(chosen), "--no-meta"], model=True,
                         outputs=[(f"c{c}/mcq", chosen)],
                         check=checked(chosen, lambda doc: _expect(
                             doc["chosen"] in range(5), "mcq choice out of range")))
        if ok:
            _dump(out / "results.json", {"results": [_load(chosen)]})
            evaluate("mcq", lambda r: scores.update(mcq_acc=r["inter_accuracy"] / 100.0),
                     "--results", str(out / "results.json"))
        if len(scores) == 5:
            self.scores.setdefault(c, scores)

    def quality(self) -> Quality:
        keys = ("procedure_f1", "procedure_iou", "localization_acc", "grounding_r1", "mcq_acc")
        per_corpus = [self.scores.get(c) for c in range(self.corpora)]
        if any(s is None for s in per_corpus):
            mean = {k: 0.0 for k in keys}
        else:
            mean = {k: float(np.mean([s[k] for s in per_corpus])) for k in keys}
        floors = [("procedure_f1 >= 0.90", mean["procedure_f1"] >= 0.90),
                  ("procedure_iou >= 0.80", mean["procedure_iou"] >= 0.80),
                  ("localization_acc >= 0.90", mean["localization_acc"] >= 0.90),
                  ("grounding_r1 >= 0.90", mean["grounding_r1"] >= 0.90),
                  ("every corpus scored", all(s is not None for s in per_corpus))]
        return Quality(float(np.mean([mean[k] for k in keys])),
                       {k: (v, "ratio") for k, v in mean.items()}, floors)


class LongVideo:
    """``forward --k 7 --emit-embeddings`` on one long planted video."""

    name = "long_video"
    # recorded floor: about 0.95 on seeds 0-9; a drop below this is a defect
    ari_floor = 0.90

    def __init__(self, threads: int = 7, segments_per_step: int = 512, dim: int = 64):
        self.threads = threads
        self.segments_per_step = segments_per_step
        self.dim = dim
        self.videos_per_iteration = 1
        self.min_iterations = 1
        self.ari: float | None = None

    def setup(self, session: Session, root: Path, seed: int) -> None:
        self.root = root
        ok = session.run(["synth", "--out", str(root), "--seed", str(seed),
                          "--threads", str(self.threads),
                          "--segments-per-step", str(self.segments_per_step),
                          "--dim", str(self.dim), "--separation", "10", "--no-meta"],
                         model=False)
        if not ok:
            raise RuntimeError(f"set-up failed: {session.problems[-1]}")
        self.thread_labels = np.asarray(_load(root / "planted.json")["thread_labels"])

    def iterate(self, session: Session, index: int) -> None:
        out = self.root / "forward.json"
        # later outputs must match the first byte for byte, so parse only the first
        first = self.ari is None
        session.run(["forward", "--features", str(self.root / "features.hft"),
                     "--k", str(self.threads), "--hidden", str(self.dim),
                     "--emit-embeddings", "--out", str(out), "--no-meta"],
                    model=True, outputs=[("forward", out)],
                    check=(lambda: self._check(_load(out))) if first else None)

    def _check(self, doc: dict) -> None:
        video = doc["videos"][0]
        emb = np.asarray(video["embeddings"], dtype=np.float64)
        n = self.threads * self.segments_per_step
        _expect(emb.shape == (n, self.dim) and bool(np.all(np.isfinite(emb))),
                "embeddings: wrong shape or non-finite")
        shallowest = np.asarray(video["partitions"][-1])
        # the shallowest decoder stage sits on the first encoder stage: even positions
        planted = self.thread_labels[::2]
        _expect(shallowest.shape == planted.shape, "shallowest partition: wrong length")
        self.ari = adjusted_rand_index(shallowest, planted)

    def quality(self) -> Quality:
        ari = self.ari if self.ari is not None else 0.0
        return Quality(ari, {"thread_ari": (ari, "ari")},
                       [(f"thread_ari >= {self.ari_floor}", ari >= self.ari_floor)])


class ToyTraining:
    """``train-toy`` on planted videos for a fixed number of epochs."""

    name = "toy_training"

    def __init__(self, videos: int = 16, segments_per_step: int = 16, dim: int = 64,
                 hidden: int = 64, stages: int = 3, layers: int = 3, epochs: int = 3):
        self.videos = videos
        self.segments_per_step = segments_per_step
        self.dim = dim
        self.config = {"epochs": epochs, "batch_size": 8, "lr": 0.05, "warmup_epochs": 1,
                       "hidden": hidden, "align_dim": hidden, "stages": stages,
                       "layers": layers, "alpha": 2.0, "beta": 5.0, "k": 2}
        self.videos_per_iteration = videos * epochs
        self.steps_per_iteration = math.ceil(videos / 8) * epochs
        self.min_iterations = 1
        self.losses: tuple[float, float] | None = None

    def setup(self, session: Session, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        for i in range(self.videos):
            ok = session.run(["synth", "--out", str(root / "data" / f"v{i:02d}"),
                              "--seed", str(seed * 1000 + i), "--threads", "2",
                              "--steps-per-thread", "2",
                              "--segments-per-step", str(self.segments_per_step),
                              "--dim", str(self.dim), "--separation", "3", "--no-meta"],
                             model=False)
            if not ok:
                raise RuntimeError(f"set-up failed: {session.problems[-1]}")
        _dump(root / "train.json", self.config)

    def iterate(self, session: Session, index: int) -> None:
        r = self.root
        files = {"params": r / "params.bin", "history": r / "history.jsonl",
                 "summary": r / "summary.json"}
        session.run(["train-toy", "--data", str(r / "data"), "--train-config",
                     str(r / "train.json"), "--params-out", str(files["params"]),
                     "--history", str(files["history"]), "--seed", str(self.seed),
                     "--out", str(files["summary"]), "--no-meta"],
                    model=True, outputs=list(files.items()),
                    check=lambda: self._check(files))

    def _check(self, files: dict) -> None:
        summary = _load(files["summary"])
        first, last = summary["initial_loss"], summary["final_loss"]
        _expect(math.isfinite(first) and math.isfinite(last), "loss is not finite")
        _expect(last < first, f"final loss {last} is not below initial loss {first}")
        epochs = files["history"].read_text(encoding="utf-8").splitlines()
        _expect(len(epochs) == self.config["epochs"], "history: wrong number of epochs")
        self.losses = (first, last)

    def quality(self) -> Quality:
        first, last = self.losses if self.losses else (math.nan, math.nan)
        # initial over final loss: the factor by which training shrank the loss
        shrink = first / last if self.losses else 0.0
        return Quality(shrink, {"final_loss": (last, "loss"), "initial_loss": (first, "loss"),
                                "loss_shrink": (shrink, "ratio")},
                       [("final_loss finite and below initial_loss", self.losses is not None)])


WORKLOADS = {w.name: w for w in (PlantedTasks, LongVideo, ToyTraining)}

# small sizes for the tracer tests: same call paths, a fraction of the work
TINY = {
    "planted_tasks": dict(corpora=1, threads=5, segments_per_step=6, dim=8),
    "long_video": dict(threads=3, segments_per_step=60, dim=8),
    "toy_training": dict(videos=2, segments_per_step=4, dim=8, hidden=8, stages=2,
                         layers=1, epochs=3),
}
