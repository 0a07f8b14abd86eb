"""Spans recorded around calls into the engine's public functions.

``instrumented(tracer)`` swaps selected functions and methods of the ``mvfuse``
modules for wrappers that open a span before the call and close it after, and
puts the originals back on exit. Nothing in the package itself changes. Spans
are kept in memory as ``[id, parent, name, start, end]`` rows and written out
once the run ends; a span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter

from mvfuse import data, encoders, evaluation, fusion, model, training
from mvfuse.tensor import Adam, Tensor


class Tracer:
    """In-memory span store plus exact counters taken at layer boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.graph_nodes = 0
        self.graph_bytes = 0

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([sid, parent, name, perf_counter(), 0.0])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of spans, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, _, name, start, end in self.spans:
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[sid]
        return out


def write_spans(path, header: dict, phases: dict[str, Tracer]) -> None:
    """One JSON line of ``header``, then one line per span tagged with its phase."""
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for phase, tracer in phases.items():
            for sid, parent, name, start, end in tracer.spans:
                fh.write(json.dumps({"phase": phase, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


def walk_graph(root) -> tuple[int, int]:
    """Distinct tensors reachable from ``root`` and the bytes their values hold."""
    seen = {id(root)}
    stack = [root]
    nbytes = 0
    while stack:
        node = stack.pop()
        nbytes += node.data.nbytes
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen), nbytes


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(sid)
    return wrapper


def _backward_with_graph_count(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self):
        with tracer.span("trace.graph_walk"):
            nodes, nbytes = walk_graph(self)
        tracer.graph_nodes += nodes
        tracer.graph_bytes += nbytes
        with tracer.span("tensor.backward"):
            return fn(self)
    return wrapper


# (owner, attribute, span name). Module-level functions are patched where they
# are looked up at call time: ``training.sensd_mask`` is the binding the
# training step calls, ``evaluation.f1_macro`` the one the report rows call.
TARGETS = [
    (encoders.TemporalEncoder, "__call__", "encoders.temporal"),
    (encoders.StaticEncoder, "__call__", "encoders.static"),
    (fusion.AverageFusion, "fuse", "fusion.average.fuse"),
    (fusion.GatedFusion, "fuse", "fusion.gated.fuse"),
    (fusion.CrossAttentionFusion, "fuse", "fusion.cross.fuse"),
    (fusion.MemoryFusion, "fuse", "fusion.memory.fuse"),
    (fusion.ConcatFusion, "fuse", "fusion.concat.fuse"),
    (model.FeatureFusionModel, "fuse_head", "model.fuse_head"),
    (model.FeatureFusionModel, "forward_masked", "model.forward_masked"),
    (model._BaseModel, "predict", "model.predict"),
    (Adam, "step", "tensor.adam_step"),
    (training, "train_step", "training.train_step"),
    (training, "sensd_mask", "augmentation.sensd_mask"),
    (evaluation, "evaluate_scenarios", "evaluation.evaluate_scenarios"),
    (evaluation, "f1_macro", "evaluation.metric"),
    (evaluation, "auc_pr", "evaluation.metric"),
    (evaluation, "prs", "evaluation.metric"),
    (evaluation, "class_change_ratio", "evaluation.metric"),
    (data, "generate_synthetic", "data.generate"),
    (data, "load_dataset", "data.load"),
    (data, "zscore_fit", "data.zscore"),
    (data, "zscore_apply", "data.zscore"),
]


@contextmanager
def instrumented(tracer: Tracer):
    """Route the TARGETS and ``Tensor.backward`` through ``tracer`` inside the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in TARGETS]
    saved.append((Tensor, "backward", Tensor.backward))
    try:
        for owner, attr, name in TARGETS:
            setattr(owner, attr, _spanned(tracer, name, getattr(owner, attr)))
        Tensor.backward = _backward_with_graph_count(tracer, Tensor.backward)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
