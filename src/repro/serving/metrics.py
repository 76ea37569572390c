"""Serving-layer metrics: latency percentiles and per-tenant counters.

The engine already reports *its* side of the story (``NKAEngine.stats()``:
caches, planner dedupe, executor timings).  What it cannot see is the
serving layer above it — how long a request waited in the queue before its
batch ran, how many requests each coalesced batch carried, how much
traffic was rejected at admission.  These two small classes hold exactly
that, and nothing engine-shaped.

Both are mutated from two threads — the event-loop thread (admission,
rejection) and the executor thread that runs batches — so every counter
and the latency ring are lock-guarded.  Snapshots are taken under the
lock and returned as plain dicts, safe to serialize while traffic keeps
flowing.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, List

__all__ = ["LatencyWindow", "TenantMetrics"]


class LatencyWindow:
    """A bounded ring of recent request latencies with percentile snapshots.

    Records are end-to-end *request* latencies (enqueue → verdict future
    resolved), not batch execution times: queueing delay under load is the
    number an operator actually cares about.  The ring keeps the most
    recent ``capacity`` samples — long-lived services would otherwise grow
    without bound and report percentiles dominated by ancient history —
    while ``count``/``mean`` stay lifetime totals.

    Percentiles use the nearest-rank method over the ring's samples:
    exact for the window, no interpolation to explain in a dashboard.
    """

    def __init__(self, capacity: int = 4096):
        self.capacity = max(1, int(capacity))
        self._samples: List[float] = []
        self._cursor = 0
        self._count = 0
        self._total = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        seconds = max(0.0, float(seconds))
        with self._lock:
            if len(self._samples) < self.capacity:
                self._samples.append(seconds)
            else:
                self._samples[self._cursor] = seconds
                self._cursor = (self._cursor + 1) % self.capacity
            self._count += 1
            self._total += seconds
            if seconds > self._max:
                self._max = seconds

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly percentiles over the current window (ms)."""
        with self._lock:
            ordered = sorted(self._samples)
            count = self._count
            total = self._total
            peak = self._max

        def rank(quantile: float) -> float:
            if not ordered:
                return 0.0
            index = max(0, math.ceil(quantile * len(ordered)) - 1)
            return round(ordered[index] * 1000.0, 3)

        return {
            "count": count,
            "window": len(ordered),
            "mean_ms": round(total / count * 1000.0, 3) if count else 0.0,
            "p50_ms": rank(0.50),
            "p95_ms": rank(0.95),
            "p99_ms": rank(0.99),
            "max_ms": round(peak * 1000.0, 3),
        }


class TenantMetrics:
    """Admission/coalescing counters for one tenant.

    ``submitted`` counts every request that reached admission; it splits
    into ``completed`` (future resolved with a verdict), ``rejected``
    (quota — the 429 path), and ``failed`` (its own execution raised).
    ``batches`` counts executed coalesced batches; ``completed / batches``
    is the coalesce ratio — 1.0 means the coalescer never merged anything,
    higher means that many requests rode each engine batch on average.
    ``negative_invalidated`` counts store negative-cache entries dropped
    by the second-chance probe before each batch.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self.failed = 0
        self.batches = 0
        self.negative_invalidated = 0

    def note_submitted(self) -> None:
        with self._lock:
            self.submitted += 1

    def note_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def note_batch(self, request_count: int) -> None:
        with self._lock:
            self.batches += 1
            self.completed += request_count

    def note_failed(self, request_count: int) -> None:
        with self._lock:
            self.failed += request_count

    def note_invalidated(self, entry_count: int) -> None:
        with self._lock:
            self.negative_invalidated += entry_count

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            batches = self.batches
            completed = self.completed
            return {
                "submitted": self.submitted,
                "completed": completed,
                "rejected": self.rejected,
                "failed": self.failed,
                "batches": batches,
                "coalesce_ratio": round(completed / batches, 3) if batches else 0.0,
                "negative_invalidated": self.negative_invalidated,
            }
