"""Layer spans recorded from outside the program.

:class:`Tracer` wraps each layer's entry point *on the name its caller looks
up* (``repro.engine.core.expr_to_wfa``, the ``CompileStore`` methods, ...)
so the program itself is unchanged.  Spans are kept in memory and summarised
once at the end; a span's self time is its duration minus the part its child
spans cover.  The current span lives in a context variable, so spans nest
correctly per thread and per asyncio task.

A layer whose entry point no longer exists is reported absent instead of
failing the run.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# Probes turn a call's (args, result) into the counts recorded on its span;
# for methods args[0] is the instance.
def _plan_probe(args, result):
    return {"queries": len(args[0]), "tasks": len(result.tasks)}


def _compile_probe(args, result):
    return {"states": result.num_states}


def _batch_probe(args, result):
    return {"weight": len(args[1])}


def _get_probe(args, result):
    return {"lookups": 1, "hits": int(result is not None)}


def _contains_probe(args, result):
    return {"lookups": 1, "hits": int(bool(result))}


def _digests_probe(args, result):
    return {"lookups": len(args[1]), "hits": len(result)}


# (layer, module, attribute path on the module, probe)
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("parse", "repro", "parse", None),
    ("plan", "repro.engine.core", "plan_batch", _plan_probe),
    ("compile", "repro.engine.core", "expr_to_wfa", _compile_probe),
    ("decide", "repro.engine.core", "wfa_equivalent", None),
    ("engine", "repro.engine.core", "NKAEngine.equal_many_detailed", _batch_probe),
    ("engine", "repro.engine.core", "NKAEngine.equal_detailed", None),
    ("store.read", "repro.engine.store", "CompileStore.get", _get_probe),
    ("store.read", "repro.engine.store", "CompileStore.get_verdict", _get_probe),
    ("store.read", "repro.engine.store", "CompileStore.contains", _contains_probe),
    ("store.read", "repro.engine.store", "CompileStore.contains_digests", _digests_probe),
    ("store.write", "repro.engine.store", "CompileStore.publish", None),
    ("store.write", "repro.engine.store", "CompileStore.publish_many", None),
    ("store.write", "repro.engine.store", "CompileStore.publish_verdict", None),
    ("store.write", "repro.engine.store", "CompileStore.publish_verdicts", None),
    ("service", "repro.serving.service", "NKAService.equal_detailed", None),
)

LAYERS = ("parse", "plan", "store.read", "store.write", "compile", "decide",
          "engine", "service")

_CURRENT: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "nkabench_span", default=None
)


def _resolve(module_name: str, path: str):
    """(owner, attribute name, current value), or None if absent."""
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if value is None:
        return None
    return owner, name, value


class Tracer:
    """Installs span wrappers on :data:`TARGETS` and collects their spans."""

    def __init__(self) -> None:
        # (span id, parent id, layer, start, end, counts)
        self.spans: List[Tuple[int, Optional[int], str, float, float, Dict]] = []
        self.absent: List[str] = []
        self._installed: List[Tuple[Any, str, Any]] = []
        self._ids = itertools.count(1)  # next() on a count is atomic

    def install(self) -> None:
        if self._installed:
            return
        self.absent = []
        for layer, module_name, path, probe in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{layer}:{module_name}.{path}")
                continue
            owner, name, original = found
            setattr(owner, name, self._wrap(layer, original, probe))
            self._installed.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed = []

    def _wrap(self, layer: str, original: Callable, probe):
        spans = self.spans
        new_id = self._ids.__next__

        def record(span_id, parent, start, args, result):
            end = time.perf_counter()
            counts = probe(args, result) if probe else {}
            spans.append((span_id, parent, layer, start, end, counts))

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def async_wrapper(*args, **kwargs):
                span_id, parent = new_id(), _CURRENT.get()
                token = _CURRENT.set(span_id)
                start = time.perf_counter()
                try:
                    result = await original(*args, **kwargs)
                finally:
                    _CURRENT.reset(token)
                record(span_id, parent, start, args, result)
                return result

            return async_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if probe is _digests_probe:
                args = args[:1] + (list(args[1]),) + args[2:]
            span_id, parent = new_id(), _CURRENT.get()
            token = _CURRENT.set(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
            record(span_id, parent, start, args, result)
            return result

        return wrapper


def summarize(spans, weighted: bool) -> Dict[str, Dict[str, float]]:
    """Per-layer totals.  ``calls`` and ``s`` count only spans not nested in
    the same layer; ``self_s`` is busy time minus child spans.  The
    ``weighted_`` variants multiply by the request count of the enclosing
    engine batch (the requests that waited on the span) when ``weighted``.
    Probe counts are summed."""
    by_id = {span[0]: span for span in spans}
    child_time: Dict[int, float] = {}
    for _span_id, parent, _layer, start, end, _counts in spans:
        if parent in by_id:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    def weight_of(span) -> float:
        while span is not None:
            if "weight" in span[5]:
                return float(span[5]["weight"])
            span = by_id.get(span[1])
        return 1.0

    out: Dict[str, Dict[str, float]] = {
        layer: {"calls": 0, "s": 0.0, "weighted_s": 0.0, "self_s": 0.0,
                "weighted_self_s": 0.0}
        for layer in LAYERS
    }
    for span in spans:
        span_id, parent, layer, start, end, counts = span
        row = out[layer]
        weight = weight_of(span) if weighted else 1.0
        duration = end - start
        self_time = duration - child_time.get(span_id, 0.0)
        row["self_s"] += self_time
        row["weighted_self_s"] += self_time * weight
        parent_span = by_id.get(parent)
        if parent_span is None or parent_span[2] != layer:
            row["calls"] += 1
            row["s"] += duration
            row["weighted_s"] += duration * weight
            for key, value in counts.items():
                if key != "weight":
                    row[key] = row.get(key, 0) + value
    return out
