"""Span tracer that wraps the library's public entry points from outside.

The library binds names at import time (``partition`` does
``from .kernels import sym_eigen``), so wrapping ``kernels.sym_eigen`` alone
would miss every call made through ``partition``. ``Tracer.install`` therefore
replaces each entry point in every loaded ``videothreads`` module that holds
it, and ``Tracer.remove`` puts every original back.

Each call becomes a span (name, start, end, parent span, call id). Spans stay
in memory; ``write_spans`` writes them out once the run is over. A span's self
time is its duration minus the time its child spans cover. Work counts (node
counts, edge counts, bytes read, ...) are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "videothreads"

# module -> public functions wrapped at every place they are bound
FUNCTIONS = {
    "kernels": ("sym_eigen", "kmeans", "cosine_similarity_matrix"),
    "partition": ("spectral_partition", "approx_partition"),
    "graph": ("build_graph", "temporal_subsample", "temporal_edges",
              "interpolation_matrix"),
    "model": ("forward",),
    "tasks": ("procedure_learning", "extract_candidates", "step_grounding",
              "step_localization", "mcq_retrieval"),
    "metrics": ("temporal_iou", "hungarian", "procedure_f1_iou", "recall_at_iou",
                "map_at_iou", "mcq_accuracy", "adjusted_rand_index"),
    "dataio": ("read_feature_file", "read_narrations", "read_taxonomy",
               "read_annotations", "read_predictions", "write_feature_file",
               "write_narrations", "write_taxonomy", "write_annotations",
               "write_predictions"),
    "cli": ("main",),
    "synth": ("generate",),
}

# module -> "Class.method": methods are patched once, on the class
METHODS = {
    "training": ("TotalLossOp.__call__",),
    "autodiff": ("Var.backward",),
}


def span_name(module: str, qualname: str) -> str:
    """Stat prefix of an entry point; families of small functions share one."""
    if module == "metrics":
        return "metrics.scorers"
    if module == "dataio":
        return "dataio." + qualname.split("_", 1)[0]  # dataio.read / dataio.write
    return f"{module}.{qualname}".removesuffix(".__call__")


SPAN_NAMES = list(dict.fromkeys(
    span_name(module, qualname)
    for table in (FUNCTIONS, METHODS) for module, names in table.items() for qualname in names))


class LayerStats:
    """Totals per span name: calls, self seconds and work counts."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.forward_inputs: set[str] = set()  # of the current iteration

    def end_iteration(self) -> None:
        """Fold the iteration's distinct forward inputs into the counts."""
        self.counts["model.forward.distinct_inputs"] += len(self.forward_inputs)
        self.forward_inputs.clear()


class Tracer:
    """Wraps entry points while installed and records one span per call."""

    def __init__(self):
        self.stats = LayerStats()
        self.spans: list[tuple] = []  # (span id, name, start, end, parent id, call id)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._next_id = 0

    # -- patching ----------------------------------------------------------

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module_name, names in FUNCTIONS.items():
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(original, span_name(module_name, fn_name))
                for module in modules:
                    for attr, bound in list(vars(module).items()):
                        if bound is original:
                            self._patch(module, attr, original, wrapper)
        for module_name, names in METHODS.items():
            for qualname in names:
                cls_name, meth = qualname.split(".")
                cls = getattr(sys.modules[f"{PACKAGE}.{module_name}"], cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original,
                            self._wrap(original, span_name(module_name, qualname)))
        return self

    def _patch(self, owner, attr: str, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        """Restore every original binding, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0, parent[2] if parent else span_id, name]
            stack.append(frame)  # [id, child seconds, call id, name]
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                with self._lock:
                    s = self.stats
                    s.calls[name] += 1
                    s.self_s[name] += duration - frame[1]
                    self.spans.append((span_id, name, start, end,
                                       parent[0] if parent else None, frame[2]))
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                with self._lock:
                    counter(self.stats, name, bound.arguments, result, parent)
                if parent is not None:
                    # counting is tracer work: keep it out of the caller's self time
                    parent[1] += time.perf_counter() - end
            return result

        return traced

    def write_spans(self, path) -> None:
        """One JSON object per span, in completion order."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, call in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "call": call}) + "\n")


# ---------------------------------------------------------------------------
# work counts taken at span boundaries


def _count_sym_eigen(stats, name, args, result, parent):
    n = len(args["a"])
    stats.counts[name + ".n_sum"] += n
    stats.counts[name + ".n_max"] = max(stats.counts[name + ".n_max"], n)


def _count_spectral(stats, name, args, result, parent):
    from videothreads.partition import DEFAULT_MAX_NODES

    n = len(args["x"])
    stats.counts[name + ".nodes_sum"] += n
    # a full-N partition that bypasses the node budget (called from a task head)
    if n > DEFAULT_MAX_NODES and parent is not None and parent[3].startswith("tasks."):
        stats.counts[name + ".over_budget_calls"] += 1


def _count_approx(stats, name, args, result, parent):
    if args["g"].num_nodes > args["max_nodes"]:
        stats.counts[name + ".subsampled_calls"] += 1


def _count_build_graph(stats, name, args, result, parent):
    stats.counts[name + ".edges_sum"] += len(result.edges)


def _count_forward(stats, name, args, result, parent):
    g0, params = args["g0"], args["params"]
    stats.counts[name + ".nodes_sum"] += g0.num_nodes
    digest = hashlib.sha1()
    for array in (g0.embeddings, g0.timestamps, params.to_vector()):
        digest.update(array.tobytes())
    rest = {k: v for k, v in args.items() if k not in ("g0", "params")}
    digest.update(repr(sorted(rest.items())).encode())
    stats.forward_inputs.add(digest.hexdigest())


def _count_read(stats, name, args, result, parent):
    stats.counts[name + ".bytes"] += os.path.getsize(args["path"])


_COUNTERS = {
    "kernels.sym_eigen": _count_sym_eigen,
    "partition.spectral_partition": _count_spectral,
    "partition.approx_partition": _count_approx,
    "graph.build_graph": _count_build_graph,
    "model.forward": _count_forward,
    "dataio.read": _count_read,
}
