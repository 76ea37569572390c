"""Batch coalescing: turn concurrent ``equal?`` requests into one plan.

The engine's batch planner only pays off when it sees many pairs at once —
dedupe, symmetric flips, shared compilations and the verdict tier all
work *across* the pairs of one :meth:`NKAEngine.equal_many_detailed`
call.  A serving front-end that forwarded each request individually would
hold the planner at batch size 1 forever.  The coalescer closes that gap:
requests landing on a tenant's queue within a short window (or until the
batch cap) are collected into one list and executed as a single planned
batch, so concurrent traffic gets cross-request sharing without any client
cooperation.

Correctness does not depend on how requests are grouped: the planner only
removes work whose answer is already forced, so a coalesced batch returns
verdicts byte-identical to per-request sequential execution
(``tests/test_serving.py`` pins this).  Grouping is purely a throughput
lever — which is why the window can default to a couple of milliseconds
and be set to zero to disable coalescing entirely.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from repro.core.expr import Expr

__all__ = ["SHUTDOWN", "PendingRequest", "collect_batch"]

# Queue sentinel: close() enqueues one per tenant *behind* all accepted
# requests, so the drain loop serves everything admitted before shutdown
# (graceful drain) and then exits.  Identity-compared, never instantiated
# again.
SHUTDOWN: Any = object()


@dataclass
class PendingRequest:
    """One admitted ``equal?`` request waiting for its batch to run."""

    left: Expr
    right: Expr
    future: "asyncio.Future"
    enqueued_at: float = field(default_factory=time.monotonic)

    @property
    def pair(self) -> Tuple[Expr, Expr]:
        return (self.left, self.right)


async def collect_batch(
    queue: "asyncio.Queue",
    first: PendingRequest,
    *,
    max_batch: int,
    window: float,
    admitted: Optional[Callable[[], int]] = None,
) -> Tuple[List[PendingRequest], bool]:
    """Gather one coalesced batch starting from ``first``.

    Collects requests from ``queue`` until the batch holds ``max_batch``
    requests or ``window`` seconds have passed since collection started —
    whichever comes first.  When the window expires, anything *already*
    queued is still swept in without waiting (those requests lose nothing
    by riding along), but no further waiting happens.

    ``admitted``, when given, returns the tenant's admitted-but-unfinished
    request count; once the batch holds *all* of them, collection stops
    immediately instead of lingering out the window.  Closed-loop clients
    are blocked on the futures of exactly this batch, so no request that
    waiting could catch even exists yet — the window only ever pays off
    against requests admitted but not yet dequeued, which the count sees.
    Without this early-out, every batch of a request/response workload eats
    the full window in pure dead time (the benchmark's uncoalesced mode
    beats the coalesced one — backwards).

    Returns ``(batch, saw_shutdown)``; ``saw_shutdown`` is ``True`` when
    the :data:`SHUTDOWN` sentinel was dequeued mid-collection, in which
    case the (possibly partial) batch must still be executed before the
    drain loop exits — shutdown is graceful, not lossy.

    ``max_batch <= 1`` or ``window <= 0`` disables coalescing: the batch
    is just ``[first]`` (the uncoalesced baseline the benchmark gate
    compares against).
    """
    batch = [first]
    if max_batch <= 1 or window <= 0:
        return batch, False
    deadline = time.monotonic() + window
    while len(batch) < max_batch:
        # Sweep everything already queued before considering a wait.
        try:
            while len(batch) < max_batch:
                item = queue.get_nowait()
                if item is SHUTDOWN:
                    return batch, True
                batch.append(item)
        except asyncio.QueueEmpty:
            pass
        if len(batch) >= max_batch:
            break
        if admitted is not None and len(batch) >= admitted():
            break  # the batch already holds every admitted request
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        try:
            item = await asyncio.wait_for(queue.get(), timeout=remaining)
        except asyncio.TimeoutError:
            continue  # deadline hit; final sweep happens on re-entry
        if item is SHUTDOWN:
            return batch, True
        batch.append(item)
    return batch, False
