"""In-memory spans at compset's layer boundaries, and the per-layer metrics
derived from them.

The traced run rebinds public functions in the namespace of the compset
module that calls them (``training.sgd_step``, ``protocol.score_matrix``,
...), so the package itself is never edited.  The benchmark also opens a
span around each of its own stage calls.  A span keeps its name, start,
end and parent; while ``tracemalloc`` is tracing it also keeps the peak
of traced bytes above the level at its start, children included.  Spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager

MB = float(2**20)

# (module, attribute) pairs where one compset module calls into another.
# Rebinding the attribute in the *calling* module routes its calls through
# a span; a name a later version drops is skipped and its metric is absent.
CROSS_MODULE_CALLS = (
    ("training", "total_loss_and_grad"),
    ("training", "sgd_step"),
    ("training", "init_primitive_bank"),
    ("training", "extend_bank"),
    ("primitives", "kmeans_centers"),
    ("losses", "build_replaced"),
    ("losses", "composition_scores_stack"),
    ("protocol", "score_matrix"),
    ("protocol", "composition_scores_stack"),
    ("protocol", "patch_importance"),
    ("protocol", "hard_nearest_replace"),
)


def _score_shape(X3, Zstack, *args, **kwargs) -> dict:
    """(B, n, d, C, N) of one composition_scores_stack call."""
    b, n, d = (int(s) for s in X3.shape)
    c, m = (int(s) for s in Zstack.shape[:2])
    return {"shape": [b, n, d, c, m]}


SPAN_ATTRS = {"composition_scores_stack": _score_shape}


class Tracer:
    """Collects spans, with allocation peaks while tracemalloc is tracing."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "name": name, "parent": parent["id"] if parent else None}
        if attrs:
            rec["attrs"] = attrs
        self.spans.append(rec)
        memory = tracemalloc.is_tracing()
        if memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent["_peak"] = max(parent["_peak"], peak)
            tracemalloc.reset_peak()
            rec["_base"] = rec["_peak"] = current
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if memory:
                top = max(rec.pop("_peak"), tracemalloc.get_traced_memory()[1])
                rec["peak_mb"] = (top - rec.pop("_base")) / MB
                if parent is not None:
                    parent["_peak"] = max(parent["_peak"], top)
                tracemalloc.reset_peak()

    def wrap(self, module, attr: str) -> None:
        """Route ``module.attr`` through a span named '<module>.<attr>'."""
        fn = getattr(module, attr, None)
        if fn is None:
            return
        label = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        describe = SPAN_ATTRS.get(attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(label, **(describe(*args, **kwargs) if describe else {})):
                return fn(*args, **kwargs)

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def wrap_package(self) -> None:
        for mod_name, attr in CROSS_MODULE_CALLS:
            self.wrap(importlib.import_module(f"compset.{mod_name}"), attr)

    def unwrap(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


class SpanIndex:
    """Parent/child lookups over a finished span list."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.children: dict[int, list[dict]] = {s["id"]: [] for s in spans}
        for s in spans:
            if s["parent"] is not None:
                self.children[s["parent"]].append(s)

    def named(self, name: str, under: str | None = None) -> list[dict]:
        out = [s for s in self.spans if s["name"] == name]
        if under is not None:
            out = [s for s in out if self.has_ancestor(s, under)]
        return out

    def has_ancestor(self, span: dict, name: str) -> bool:
        p = span["parent"]
        while p is not None:
            if self.spans[p]["name"] == name:
                return True
            p = self.spans[p]["parent"]
        return False

    def descendants(self, span: dict, name: str) -> list[dict]:
        out = []
        todo = list(self.children[span["id"]])
        while todo:
            s = todo.pop()
            if s["name"] == name:
                out.append(s)
            todo.extend(self.children[s["id"]])
        return sorted(out, key=lambda s: s["start"])

    def self_time(self, span: dict) -> float:
        """Duration minus the time covered by direct children."""
        inner = sum(c["end"] - c["start"] for c in self.children[span["id"]])
        return (span["end"] - span["start"]) - inner


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def _steps(index: SpanIndex, fit: dict) -> list[float]:
    """Seconds per SGD step inside one fit: from a loss call's start to the
    end of the last sgd_step before the next loss call."""
    calls = sorted(
        index.descendants(fit, "training.total_loss_and_grad")
        + index.descendants(fit, "training.sgd_step"),
        key=lambda s: s["start"],
    )
    steps, start, end = [], None, None
    for s in calls:
        if s["name"] == "training.total_loss_and_grad":
            if start is not None and end is not None:
                steps.append(end - start)
            start, end = s["start"], None
        else:
            end = s["end"]
    if start is not None and end is not None:
        steps.append(end - start)
    return steps


def _sum_under(index: SpanIndex, parents: list[dict], name: str) -> list[float]:
    return [sum(_dur(s) for s in index.descendants(p, name)) for p in parents]


def _gflop(shape) -> float:
    """Scoring GEMM (B n) x d x (C N) plus the squared-sum reduction."""
    b, n, d, c, m = shape
    return (2.0 * b * n * d * c * m + 2.0 * b * n * c * m) / 1e9


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric the spans support, as name -> (value, unit).

    A metric whose spans are missing (a wrapped name a later version drops)
    is left out rather than reported as zero.
    """
    ix = SpanIndex(spans)
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit, scale=1.0):
        if value is not None:
            out[name] = (float(value) * scale, unit)

    put("data.synth_generate.s", _median(_dur(s) for s in ix.named("data.synth_generate")), "s")
    put("data.dataset_roundtrip.s", _median(_dur(s) for s in ix.named("data.dataset_roundtrip")), "s")

    bases = ix.named("training.train_base")
    incs = ix.named("training.train_incremental")
    put("training.base_step.ms", _median(t for b in bases for t in _steps(ix, b)), "ms", 1e3)
    put("training.sgd_step.ms",
        _median(_dur(s) for s in ix.named("training.sgd_step", under="training.train_base")), "ms", 1e3)
    put("training.inc_epoch.ms", _median(t for s in incs for t in _steps(ix, s)), "ms", 1e3)
    passes = ix.named("stage.inc_fit")
    firsts = [ix.descendants(p, "training.train_incremental")[0] for p in passes]
    lasts = [ix.descendants(p, "training.train_incremental")[-1] for p in passes]
    put("training.inc_epoch.first_ms", _median(t for s in firsts for t in _steps(ix, s)), "ms", 1e3)
    put("training.inc_epoch.last_ms", _median(t for s in lasts for t in _steps(ix, s)), "ms", 1e3)

    if ix.named("primitives.kmeans_centers"):
        per_base = _median(_sum_under(ix, bases, "primitives.kmeans_centers")) or 0.0
        per_pass = _median(_sum_under(ix, passes, "primitives.kmeans_centers")) or 0.0
        put("primitives.kmeans_centers.s", per_base + per_pass, "s")
    put("primitives.init_primitive_bank.s",
        _median(_dur(s) for s in ix.named("training.init_primitive_bank")), "s")
    put("primitives.extend_bank.ms", _median(_dur(s) for s in ix.named("training.extend_bank")), "ms", 1e3)
    put("primitives.build_replaced.ms", _median(_dur(s) for s in ix.named("losses.build_replaced")), "ms", 1e3)
    reuses = ix.named("protocol.reuse_retention_eval")
    if ix.named("protocol.hard_nearest_replace"):
        put("primitives.hard_nearest_replace.s",
            _median(_sum_under(ix, reuses, "protocol.hard_nearest_replace")), "s")

    losses = ix.named("training.total_loss_and_grad")
    put("losses.total_loss_and_grad.ms", _median(_dur(s) for s in losses), "ms", 1e3)
    put("losses.total_loss_and_grad.self_ms",
        _median(ix.self_time(s) for s in losses if ix.has_ancestor(s, "training.train_base")), "ms", 1e3)

    put("cka.composition_scores_stack.train_ms",
        _median(_dur(s) for s in ix.named("losses.composition_scores_stack")), "ms", 1e3)
    evals = ix.named("protocol.evaluate_sessions")
    put("cka.composition_scores_stack.eval_s",
        _median(_dur(s) for s in ix.named("protocol.composition_scores_stack", under="protocol.evaluate_sessions")),
        "s")
    shapes = [s["attrs"]["shape"] for s in spans if s["name"].endswith(".composition_scores_stack")]
    if shapes:
        largest = max(b * n * c * m for b, n, _, c, m in shapes)
        put("cka.scores_prod.mb", largest * 8 / MB, "MB")
    if evals and ix.named("protocol.composition_scores_stack"):
        put("cka.scores.gflop", _median(
            sum(_gflop(s["attrs"]["shape"]) for s in ix.descendants(e, "protocol.composition_scores_stack"))
            for e in evals), "GFLOP")
    filters = ix.named("protocol.importance_filter_eval")
    exports = ix.named("protocol.retrieval_export")
    if ix.named("protocol.patch_importance"):
        put("cka.patch_importance.calls", _median(
            len(ix.descendants(s, "protocol.patch_importance")) for s in filters + exports), "count")
    rcs = ix.named("cka.cka_rc")
    put("cka.cka_rc.s", _median(_dur(s) for s in rcs), "s")
    if rcs and "peak_mb" in rcs[0]:
        put("cka.cka_rc.peak_mb", max(s["peak_mb"] for s in rcs), "MB")

    scorers = ix.named("protocol.score_matrix")
    if scorers and "peak_mb" in scorers[0]:
        put("protocol.score_matrix.peak_mb", max(s["peak_mb"] for s in scorers), "MB")
    put("protocol.evaluate_sessions.self_ms", _median(ix.self_time(s) for s in evals), "ms", 1e3)
    put("protocol.importance_filter_eval.self_s", _median(ix.self_time(s) for s in filters), "s")
    put("protocol.retrieval_export.s", _median(_dur(s) for s in exports), "s")
    put("protocol.reuse_retention_eval.self_s", _median(ix.self_time(s) for s in reuses), "s")
    return out
