"""Persistent per-engine process worker pools with a compile warm-back channel.

The PR 4 executor started a fresh ``ProcessPoolExecutor`` for every batch:
each ``equal_many`` paid full fork/spawn + import cost, and whatever the
workers compiled died with them.  For a long-lived serving process that is
exactly backwards — batches arrive continuously, and the expensive artefact
(a compiled WFA) is reusable across batches.  This module keeps both:

* **persistent workers** — an engine forks/spawns its workers *once*
  (:class:`WorkerPool`), and they survive across batches, each holding a
  process-local compile memo (a bounded LRU sized like the parent's WFA
  cache, so a serving worker's footprint is capped the same way the
  parent's is), so an expression a worker has recently seen never
  compiles again in that worker;
* a **warm-back channel** — alongside verdicts, workers return the
  ``(expression, WFA)`` pairs they compiled *this batch* (each shipped at
  most once while it stays in the worker's tables), and the owning engine
  merges them into its bounded WFA cache, deduped by interned node — so a
  parallel batch warms the *parent* exactly like a sequential one, and
  ``save_warm_state`` after a parallel warm-up captures the full working
  set.

Failure model
-------------

Workers are assumed to be killable at any moment (OOM killer, operator
``SIGKILL``, container reschedule).  This rules out a shared
``multiprocessing.Queue``: its consumer side holds a cross-process lock
*while blocked* in ``get()``, so killing an idle worker can orphan the
lock and deadlock every surviving consumer.  Instead each worker owns a
private duplex :func:`~multiprocessing.Pipe` to the parent — a dead
worker can poison nothing but its own channel — and the parent plays
dispatcher:

* chunks (:func:`repro.engine.planner.chunk_tasks` — whole sharing
  groups, several per worker) are dealt one-at-a-time to idle workers;
  a fast worker finishes early and is dealt the next chunk, which is
  what makes the chunking "steal-aware" without any shared queue;
* the parent multiplexes the pipes with
  :func:`multiprocessing.connection.wait`; when a worker dies, its pipe
  is drained (results it managed to send still count), its in-flight
  chunk returns to the deal pile, and a replacement is spawned —
  at-least-once execution, exactly-once merge (duplicates and stale
  epochs are dropped by chunk id);
* a worker whose start-up handshake reports a **pipeline fingerprint
  mismatch** (possible under ``spawn`` when the sources on disk no longer
  match the parent's imported pipeline) is rejected outright — its
  verdicts and automata would come from a *different* decision procedure
  — and deliberately not respawned, since the replacement would mismatch
  too; its in-flight work returns to the pile;
* if deaths exceed a restart budget (a chunk that *kills* its worker
  would otherwise loop forever), or every worker has been rejected, the
  pool gives up on the remaining chunks and the caller's fallback decides
  them in-process — the batch always completes, with identical verdicts,
  because every surviving path runs the same pure function in the
  parent's own pipeline.

Lifecycle
---------

A pool is created lazily by the first parallel batch, pinned to the
pipeline fingerprint it was started under
(:func:`repro.engine.persist.pipeline_fingerprint`); the engine recycles
the pool — close + fresh workers — when the fingerprint changes
mid-session instead of serving stale compiled artefacts.
:meth:`WorkerPool.close` shuts workers down deterministically (sentinel,
join, escalate to terminate/kill) and reaps every child, so
``engine.close()`` leaves no processes behind — including a ``close``
racing a batch from another thread: the batch notices, finishes its
remainder in-process, and spawns nothing new.  Workers are daemonic as a
last-resort backstop for callers who never close.

Start method: ``fork`` is preferred (children inherit warm intern tables
and memos); ``REPRO_ENGINE_START_METHOD`` (``fork``/``spawn``/
``forkserver``) overrides it process-wide, and ``NKAEngine(start_method=…)``
per engine — the CI matrix runs the engine suite under both ``fork`` and
``spawn``.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from multiprocessing.connection import wait as _wait_connections
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.automata.equivalence import EquivalenceResult
from repro.automata.wfa import WFA
from repro.core.expr import Expr

__all__ = ["PoolBatchOutcome", "WorkerPool", "pool_context"]

# How long one pipe-multiplex wait lasts before re-checking worker liveness.
POLL_SECONDS = 0.05

# A batch tolerates this many worker replacements per pool slot before the
# remaining chunks fall back to in-process execution (guards against a
# chunk that reliably kills its worker).
RESTART_BUDGET_PER_SLOT = 3

_ENV_START_METHOD = "REPRO_ENGINE_START_METHOD"


def pool_context(method: Optional[str] = None):
    """The multiprocessing context for pool workers.

    Explicit ``method`` wins, then ``REPRO_ENGINE_START_METHOD``, then the
    ``fork``-preferring default (forked children inherit the parent's warm
    intern tables and fragment memos for free; under ``spawn`` expressions
    re-intern on unpickling, which costs a little more but changes
    nothing).
    """
    method = method or os.environ.get(_ENV_START_METHOD) or None
    if method:
        return multiprocessing.get_context(method)
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class _StoreMemo:
    """The memo façade pool workers hand to ``decide_pure``: local LRU
    first, then the shared :class:`~repro.engine.store.CompileStore`.

    A store hit lands in the local memo (so the chunk's remaining tasks —
    and the warm-back freshness scan — see it like any compiled entry) and
    is counted; the store is read-only from here: *publishing* is the
    parent's job, exactly once per expression fleet-wide.  Store failures
    of any kind degrade to a plain miss — a worker must never die over a
    cache.
    """

    __slots__ = ("memo", "store", "store_hits")

    def __init__(self, memo, store):
        self.memo = memo
        self.store = store
        self.store_hits = 0

    def get(self, key, default=None):
        value = self.memo.get(key)
        if value is not None:
            return value
        if self.store is not None:
            try:
                value = self.store.get(key)
            except Exception:
                value = None
            if value is not None:
                self.memo[key] = value
                self.store_hits += 1
                return value
        return default

    def __setitem__(self, key, value):
        self.memo[key] = value

    def __contains__(self, key):
        return key in self.memo


def _worker_main(worker_id, conn, fingerprint, memo_capacity, store_spec=None):
    """Worker loop: receive chunks on a private pipe, decide, ship back.

    Module-level so it survives ``spawn`` pickling.  The compile memo
    persists across batches — that is the pool's second perf lever next to
    amortised start-up — but is a *bounded* LRU (``memo_capacity``, the
    parent's WFA-cache size) so a long-lived worker's footprint cannot
    grow without limit; ``shipped`` (also bounded) keeps each WFA from
    crossing the warm-back channel more than once while it stays resident.
    """
    # Preload: importing the pipeline and computing the fingerprint here
    # front-loads the cold-start cost (which `spawn` would otherwise pay on
    # the first chunk) and lets the parent verify this worker runs the
    # same pipeline before trusting any of its results.
    from repro.engine.executor import decide_pure
    from repro.engine.persist import expr_digest, pipeline_fingerprint
    from repro.util.cache import LRUCache

    local_fingerprint = pipeline_fingerprint()
    memo = LRUCache("pool-worker.memo", maxsize=memo_capacity, register=False)
    store = None
    if store_spec is not None:
        try:
            from repro.engine.store import CompileStore

            store = CompileStore.from_spec(store_spec)
        except Exception:
            store = None  # a worker without a store is merely colder
    store_memo = _StoreMemo(memo, store)
    shipped = LRUCache(
        "pool-worker.shipped",
        maxsize=max(4 * memo_capacity, 1024),
        register=False,
    )
    try:
        conn.send(("ready", worker_id, os.getpid(), local_fingerprint == fingerprint))
        while True:
            item = conn.recv()
            if item is None:
                break
            epoch, chunk_id, tasks = item
            started = time.perf_counter()
            warmback: List[Tuple[Expr, WFA]] = []
            verdicts: List[Tuple[int, object]] = []
            verdict_served: List[int] = []
            hits_before = store_memo.store_hits
            fresh: List[Expr] = []
            for task_id, left, right in tasks:
                # Verdict tier first: a fleet-published verdict answers
                # the task with no compile and no Tzeng run.  The store
                # holds only *direct* decisions, so serving one here is
                # byte-identical to deciding.  Failures degrade to a
                # plain miss, like every other store read.
                if store is not None:
                    try:
                        served = store.get_verdict(
                            expr_digest(left), expr_digest(right)
                        )
                    except Exception:
                        served = None
                    if served is not None:
                        verdict_served.append(task_id)
                        verdicts.append((task_id, served))
                        continue
                for expr in (left, right):
                    if expr not in memo:
                        fresh.append(expr)
                verdicts.append((task_id, decide_pure(left, right, store_memo)))
            # Store-served expressions count as fresh here on purpose:
            # warm-back is how the *parent's* WFA cache gets warm, and
            # its publish-side dedupe makes re-offering them to the
            # store itself a cheap skip.
            for expr in fresh:
                wfa = memo.peek(expr)  # may already be evicted mid-chunk
                if wfa is not None and expr not in shipped:
                    shipped[expr] = True
                    warmback.append((expr, wfa))
            conn.send(
                (
                    "done",
                    worker_id,
                    epoch,
                    chunk_id,
                    verdicts,
                    warmback,
                    time.perf_counter() - started,
                    store_memo.store_hits - hits_before,
                    verdict_served,
                )
            )
    except (EOFError, BrokenPipeError, OSError):  # parent went away
        pass
    finally:
        conn.close()


class _WorkerHandle:
    """Parent-side view of one worker: process, private pipe, current chunk."""

    __slots__ = ("worker_id", "process", "conn", "busy_chunk")

    def __init__(self, worker_id, process, conn):
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.busy_chunk: Optional[int] = None  # chunk id in flight, if any


class PoolBatchOutcome:
    """What one :meth:`WorkerPool.run_batch` produced, beyond the verdicts."""

    __slots__ = (
        "warmback",
        "worker_seconds",
        "max_chunk_seconds",
        "restarts",
        "store_hits",
        "fallback_task_ids",
        "verdict_store_task_ids",
    )

    def __init__(self):
        self.warmback: List[Tuple[Expr, WFA]] = []
        self.worker_seconds = 0.0
        self.max_chunk_seconds = 0.0
        self.restarts = 0
        # Compilations the workers *avoided* by reading the shared store.
        self.store_hits = 0
        # Task ids the parent decided in-process (their verdicts are
        # already in the owning engine's caches — the merge must not
        # store, and so count, them twice).
        self.fallback_task_ids: set = set()
        # Task ids the workers answered from the shared *verdict* store —
        # whole decisions avoided; the owning engine records these as
        # served, not decided, and never re-publishes them.
        self.verdict_store_task_ids: set = set()


class WorkerPool:
    """A fixed-size set of persistent decision workers owned by one engine.

    Batches are serialised by the owning engine (its executor lock); the
    observer surface — :meth:`stats`, :meth:`worker_pids`,
    :meth:`alive_count`, :meth:`close` — is safe to call from other
    threads concurrently with a running batch: all ``_workers`` mutations
    and snapshots go through an internal lock, and a close racing a batch
    makes the batch finish its remainder in-process instead of spawning
    into a torn-down pool.
    """

    def __init__(
        self,
        size: int,
        fingerprint: str,
        start_method: Optional[str] = None,
        memo_capacity: int = 4096,
        store_spec: Optional[Dict[str, object]] = None,
    ):
        self.size = max(1, int(size))
        self.fingerprint = fingerprint
        self.memo_capacity = max(1, int(memo_capacity))
        # Shipped (not the handle — a spec pickles under spawn) so every
        # worker reopens the engine's CompileStore read-only and starts
        # warm from the fleet's published compilations.
        self.store_spec = dict(store_spec) if store_spec else None
        self._ctx = pool_context(start_method)
        self.start_method = self._ctx.get_start_method()
        self._state_lock = threading.Lock()
        self._workers: Dict[int, _WorkerHandle] = {}
        self._next_worker_id = 0
        self._epoch = 0
        self.batches = 0
        self.restarts = 0
        self.fingerprint_rejects = 0
        self.closed = False
        for _ in range(self.size):
            self._spawn()

    # -- worker management -------------------------------------------------

    def _spawn(self) -> None:
        with self._state_lock:
            if self.closed:
                return  # a concurrent close() won: do not leak a child
            worker_id = self._next_worker_id
            self._next_worker_id += 1
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                child_conn,
                self.fingerprint,
                self.memo_capacity,
                self.store_spec,
            ),
            name=f"nka-pool-{worker_id}",
            daemon=True,
        )
        process.start()
        # The child owns its copy now; closing ours makes EOF detection on
        # the parent side reliable when the worker dies.
        child_conn.close()
        handle = _WorkerHandle(worker_id, process, parent_conn)
        with self._state_lock:
            if self.closed:
                # close() ran while the process started: tear it down here,
                # it is not in _workers so close() cannot have seen it.
                process.terminate()
                process.join(1.0)
                parent_conn.close()
                return
            self._workers[worker_id] = handle

    def _handles(self) -> List[_WorkerHandle]:
        with self._state_lock:
            return list(self._workers.values())

    def worker_pids(self) -> List[int]:
        """Live worker PIDs (for diagnostics and the lifecycle tests)."""
        return [handle.process.pid for handle in self._handles()]

    def alive_count(self) -> int:
        return sum(1 for handle in self._handles() if handle.process.is_alive())

    def ensure_size(self, size: int) -> None:
        """Grow to ``size`` slots (a pool never shrinks: with dynamic
        chunk dealing, extra workers idle harmlessly between batches).

        A pool that has fingerprint-rejected workers is quarantined: any
        replacement would mismatch identically (the sources on disk, not
        the workers, are what changed), so respawning every batch would
        pay full spawn cost for zero pool benefit — the roster stays as
        is and batches keep completing through the in-process fallback
        until the operator recycles the engine/pool.
        """
        size = int(size)
        if size > self.size:
            self.size = size
        while (
            len(self._handles()) < self.size
            and not self.closed
            and not self.fingerprint_rejects
        ):
            self._spawn()

    def _discard(self, handle: _WorkerHandle) -> None:
        """Drop a handle from the roster (reap/reject/teardown paths)."""
        with self._state_lock:
            self._workers.pop(handle.worker_id, None)

    # -- batch execution ---------------------------------------------------

    def run_batch(
        self,
        chunks: Sequence[List[Tuple[int, Expr, Expr]]],
        fallback_decide: Callable[[Expr, Expr], EquivalenceResult],
    ) -> Tuple[Dict[int, EquivalenceResult], PoolBatchOutcome]:
        """Execute decision ``chunks`` on the pool; verdicts keyed by task id.

        At-least-once execution, exactly-once merge: every chunk is decided
        by *some* process (a worker, or the parent through
        ``fallback_decide`` once the restart budget is spent), duplicates
        and stale epochs are dropped, and the computation is pure — so the
        merged verdicts are independent of deaths, restarts and scheduling.
        """
        if self.closed:
            raise RuntimeError("worker pool is closed")
        self._epoch += 1
        self.batches += 1
        epoch = self._epoch
        outcome = PoolBatchOutcome()
        verdicts: Dict[int, EquivalenceResult] = {}
        pending: Dict[int, list] = dict(enumerate(chunks))
        deal: deque = deque(pending)  # chunk ids not yet in flight
        restart_budget = RESTART_BUDGET_PER_SLOT * max(1, self.size)

        def absorb(message) -> None:
            """Merge one pipe message (drops stale epochs and duplicates)."""
            if message[0] != "done":
                return
            (
                _,
                _worker_id,
                msg_epoch,
                chunk_id,
                chunk_verdicts,
                warmback,
                seconds,
                store_hits,
                verdict_served,
            ) = message
            if msg_epoch != epoch or chunk_id not in pending:
                return
            del pending[chunk_id]
            for task_id, result in chunk_verdicts:
                verdicts[task_id] = result
            outcome.warmback.extend(warmback)
            outcome.worker_seconds += seconds
            outcome.max_chunk_seconds = max(outcome.max_chunk_seconds, seconds)
            outcome.store_hits += store_hits
            outcome.verdict_store_task_ids.update(verdict_served)

        def retire(handle: _WorkerHandle, salvage: bool) -> None:
            """Remove a worker; optionally keep what it already sent."""
            if salvage:
                try:
                    while handle.conn.poll():
                        absorb(handle.conn.recv())
                except (EOFError, BrokenPipeError, OSError):
                    pass
            if handle.process.is_alive():
                handle.process.terminate()
            handle.process.join()  # reap: no zombie left behind
            handle.conn.close()
            self._discard(handle)
            if handle.busy_chunk is not None and handle.busy_chunk in pending:
                deal.appendleft(handle.busy_chunk)

        while pending and not self.closed:
            # 1) Bury dead workers: salvage what they sent, put their
            #    in-flight chunk back on the pile, spawn replacements.
            handles = self._handles()
            for handle in handles:
                if handle.process.is_alive():
                    continue
                retire(handle, salvage=True)
                outcome.restarts += 1
                self.restarts += 1
                if outcome.restarts <= restart_budget:
                    self._spawn()
            handles = self._handles()
            if not handles:
                break  # unrecoverable: decide the rest in-process

            # 2) Deal chunks to idle workers (dynamic self-balancing: a
            #    fast worker comes back for more while a straggler chews).
            for handle in handles:
                if handle.busy_chunk is not None:
                    continue
                while deal:
                    chunk_id = deal.popleft()
                    if chunk_id in pending:
                        break
                else:
                    break
                try:
                    handle.conn.send((epoch, chunk_id, pending[chunk_id]))
                    handle.busy_chunk = chunk_id
                except (BrokenPipeError, OSError):
                    deal.appendleft(chunk_id)  # death handled next pass

            # 3) Multiplex the private pipes for results.
            ready = _wait_connections(
                [handle.conn for handle in handles], timeout=POLL_SECONDS
            )
            if not ready:
                continue
            by_conn = {handle.conn: handle for handle in handles}
            for conn in ready:
                handle = by_conn[conn]
                try:
                    message = conn.recv()
                except (EOFError, BrokenPipeError, OSError):
                    continue  # worker died mid-send; pass 1 cleans up
                if message[0] == "ready":
                    if not message[3]:
                        # The worker's pipeline fingerprint differs from
                        # the pool's (spawn + changed sources): nothing it
                        # computes can be trusted to match the parent's
                        # procedure.  Reject it — and do not respawn, a
                        # replacement would mismatch identically.
                        retire(handle, salvage=False)
                        self.fingerprint_rejects += 1
                elif message[0] == "done":
                    handle.busy_chunk = None
                    absorb(message)

        if pending:
            started = time.perf_counter()
            for chunk in pending.values():
                for task_id, left, right in chunk:
                    verdicts[task_id] = fallback_decide(left, right)
                    outcome.fallback_task_ids.add(task_id)
            fallback_seconds = time.perf_counter() - started
            outcome.worker_seconds += fallback_seconds
            outcome.max_chunk_seconds = max(
                outcome.max_chunk_seconds, fallback_seconds
            )
        return verdicts, outcome

    # -- shutdown ----------------------------------------------------------

    def close(self, timeout: float = 5.0) -> None:
        """Stop and reap every worker (idempotent, thread-safe).

        Sentinels first (graceful), then ``terminate``, then ``kill`` —
        each stage joins, so by return every child is reaped and gone from
        the process table.  A batch running concurrently sees ``closed``
        and finishes its remaining chunks in-process.
        """
        with self._state_lock:
            if self.closed:
                return
            self.closed = True
            handles = list(self._workers.values())
            self._workers.clear()
        for handle in handles:
            try:
                handle.conn.send(None)
            except (BrokenPipeError, OSError):
                pass  # already dead: join below still reaps it
        deadline = time.monotonic() + timeout
        for handle in handles:
            handle.process.join(max(0.0, deadline - time.monotonic()))
        for escalate in ("terminate", "kill"):
            stragglers = [
                handle.process for handle in handles if handle.process.is_alive()
            ]
            if not stragglers:
                break
            for process in stragglers:
                getattr(process, escalate)()
            for process in stragglers:
                process.join(1.0)
        for handle in handles:
            handle.conn.close()

    def stats(self) -> Dict[str, object]:
        """JSON-friendly pool state for ``engine.stats()``."""
        handles = [] if self.closed else self._handles()
        busy = sum(1 for handle in handles if handle.busy_chunk is not None)
        alive = sum(1 for handle in handles if handle.process.is_alive())
        return {
            "size": self.size,
            "alive": alive,
            # Serving dashboards want utilisation, not just liveness: busy
            # counts workers with a chunk in flight; idle = alive − busy.
            "busy": busy,
            "idle": max(0, alive - busy),
            "start_method": self.start_method,
            "batches": self.batches,
            "restarts": self.restarts,
            "fingerprint_rejects": self.fingerprint_rejects,
            "memo_capacity": self.memo_capacity,
            "store": self.store_spec["root"] if self.store_spec else None,
            "closed": self.closed,
            "fingerprint": self.fingerprint[:12],
        }

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        state = "closed" if self.closed else f"alive={self.alive_count()}"
        return f"WorkerPool(size={self.size}, {self.start_method}, {state})"
