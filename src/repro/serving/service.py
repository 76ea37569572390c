"""The asyncio multi-tenant serving front-end over a fleet of engines.

:class:`NKAService` is what sits between network handlers (or any async
caller) and per-tenant :class:`~repro.engine.NKAEngine` sessions:

* **admission** — unknown tenants 404, a closed service 503s, and a tenant
  whose bounded queue is full is rejected with
  :class:`TenantQuotaExceeded` (the 429 path) *before* any engine work
  happens.  Overload is absorbed by rejection, not by unbounded queueing,
  which is what keeps accepted-request latency bounded under saturation.
* **coalescing** — each tenant has one drain task that collects requests
  arriving within ``coalesce_window`` seconds (up to ``max_batch``) into a
  single planned :meth:`~repro.engine.NKAEngine.equal_many_detailed`
  batch (:mod:`repro.serving.coalescer`), so the planner's dedupe and the
  verdict tier work *across* concurrent requests.
* **execution** — batches run on a thread-pool executor so the event loop
  never blocks on engine work.  See `Locking discipline`_ below.
* **lifecycle** — ``close()`` drains gracefully: every request admitted
  before close is served, then every tenant engine is closed (which waits
  for its in-flight batch).  The service starts no child processes.
* **observability** — :meth:`stats` merges each engine's ``stats()`` with
  the serving-side numbers it cannot know: queue depth, coalesce ratio,
  admission counters and p50/p95/p99 request latency.

Locking discipline
------------------

The serving layer adds threads to an engine that was built single-threaded
first; these are the rules that make the combination safe, in one place:

* **One drain task per tenant, batches serialized per engine.**  All of a
  tenant's batches are submitted by its single drain task, and the engine
  itself serializes batch execution on its ``_exec_lock`` — so per-engine
  ordering is doubly enforced, and two *different* tenants' engines never
  share a lock: tenant batches run concurrently on the executor with no
  cross-engine serialization anywhere.  Coalescing is what keeps
  per-engine serialization cheap: concurrency within a tenant becomes
  batch size, not lock contention.
* **Queue state belongs to the event loop.**  ``depth`` (the admission
  counter) is only read/written on the loop thread — admission increments
  it, and batch completion decrements it from a loop callback, never from
  the executor thread — so it needs no lock at all.
* **Engine calls off the loop.**  ``equal_many_detailed`` and
  ``engine.close()`` block (``close`` for as long as an in-flight batch
  runs); they always run on the executor, never on the loop thread.  ``engine.stats()`` snapshots under
  the engine's own locks (made safe for exactly this in this PR) and is
  cheap enough to call from the loop directly.
* **Never hold a serving lock across an engine call.**  Serving metrics
  (:mod:`repro.serving.metrics`) take their own short-lived locks around
  counter updates only; no lock ordering spans the serving/engine
  boundary.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import (
    Any,
    ClassVar,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.automata.equivalence import EquivalenceResult
from repro.core.expr import Expr
from repro.engine import NKAEngine
from repro.serving.coalescer import SHUTDOWN, PendingRequest, collect_batch
from repro.serving.metrics import LatencyWindow, TenantMetrics

__all__ = [
    "NKAService",
    "ServingError",
    "ServiceClosed",
    "TenantConfig",
    "TenantQuotaExceeded",
    "UnknownTenant",
]


class ServingError(Exception):
    """Base of admission-layer failures; ``status`` is the HTTP mapping."""

    status = 500


class UnknownTenant(ServingError):
    """The request named a tenant this service does not host."""

    status = 404


class TenantQuotaExceeded(ServingError):
    """The tenant's bounded queue is full — backpressure by rejection."""

    status = 429


class ServiceClosed(ServingError):
    """The service is draining or closed; no new requests are admitted."""

    status = 503


@dataclass
class TenantConfig:
    """Per-tenant knobs: admission quota, coalescing, and engine sizing.

    ``max_queue`` bounds admitted-but-unfinished requests (queue + the
    batch in flight); past it, requests are rejected with 429 semantics.
    ``max_batch``/``coalesce_window`` shape the coalescer (``1``/``0``
    disables it).  The rest passes through to this tenant's
    :class:`~repro.engine.NKAEngine` — notably ``store``, which defaults
    to ``False`` (tenants are isolated unless a shared store is opted
    into, the opposite of the bare engine's env-following default: a
    *serving* process must not silently couple tenants through
    ``REPRO_COMPILE_STORE``).
    """

    name: str
    workers: ClassVar[int] = 1  # read only by nkabench; goes with its next change

    max_queue: int = 256
    max_batch: int = 64
    coalesce_window: float = 0.002
    wfa_capacity: int = 4096
    result_capacity: int = 8192
    store: Union[None, bool, str, Any] = False
    infer_verdicts: Optional[bool] = None
    warm_state: Optional[str] = None

    def make_engine(self) -> NKAEngine:
        return NKAEngine(
            f"serving[{self.name}]",
            wfa_capacity=self.wfa_capacity,
            result_capacity=self.result_capacity,
            warm_state=self.warm_state,
            # Serving survives a stale warm snapshot by starting cold; a
            # hard failure at tenant-boot time helps nobody at 3am.
            strict_warm_state=False,
            store=self.store,
            infer_verdicts=self.infer_verdicts,
        )


class _Tenant:
    """Runtime state of one tenant (loop-thread owned unless noted)."""

    def __init__(self, config: TenantConfig):
        self.config = config
        self.engine = config.make_engine()
        self.queue: "asyncio.Queue" = asyncio.Queue()
        # Admitted-but-unfinished request count (the quota variable).
        # Loop-thread only: admission bumps it, the drain task drops it
        # after each batch — no lock, by discipline not by luck.
        self.depth = 0
        self.metrics = TenantMetrics()  # thread-shared, internally locked
        self.latency = LatencyWindow()  # thread-shared, internally locked
        self.drain_task: Optional["asyncio.Task"] = None


class NKAService:
    """An asyncio front-end owning one :class:`~repro.engine.NKAEngine`
    per tenant, with admission, coalescing, backpressure and stats.

    Args:
        tenants: tenant names and/or :class:`TenantConfig`s (a bare name
            gets default knobs).
        executor: a shared :class:`~concurrent.futures.ThreadPoolExecutor`
            for batch execution; ``None`` (default) creates one sized to
            the tenant count (one slot per tenant is the natural width:
            each tenant has at most one batch in flight).
        second_chance_probe: before each coalesced batch, drop the store's
            negative-cache memory of the batch's pairs
            (:meth:`NKAEngine.invalidate_negative_verdicts`) so a verdict
            a sibling replica published seconds ago is *served*, not
            re-decided.  On by default; a no-op for storeless tenants.

    Use as an async context manager, or call :meth:`start` / :meth:`close`
    explicitly.  All public coroutines must run on the loop that called
    :meth:`start`.
    """

    def __init__(
        self,
        tenants: Iterable[Union[str, TenantConfig]],
        *,
        executor: Optional[ThreadPoolExecutor] = None,
        second_chance_probe: bool = True,
    ):
        self._tenants: Dict[str, _Tenant] = {}
        self._configs: List[TenantConfig] = []
        for entry in tenants:
            config = TenantConfig(entry) if isinstance(entry, str) else entry
            if config.name in {c.name for c in self._configs}:
                raise ValueError(f"duplicate tenant name {config.name!r}")
            self._configs.append(config)
        if not self._configs:
            raise ValueError("a service needs at least one tenant")
        self._executor = executor
        self._own_executor = executor is None
        self._second_chance = bool(second_chance_probe)
        self._started = False
        self._closed = False
        self._close_future: Optional["asyncio.Future"] = None
        self._started_at: Optional[float] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "NKAService":
        """Build the tenant fleet and start one drain task per tenant."""
        if self._started:
            return self
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=len(self._configs),
                thread_name_prefix="nka-serving",
            )
        loop = asyncio.get_running_loop()
        for config in self._configs:
            tenant = _Tenant(config)
            tenant.drain_task = loop.create_task(
                self._drain(tenant), name=f"nka-drain[{config.name}]"
            )
            self._tenants[config.name] = tenant
        self._started = True
        self._started_at = time.monotonic()
        return self

    async def close(self) -> None:
        """Graceful drain: serve everything admitted, then reap everything.

        Idempotent and concurrency-safe — every caller awaits the one
        close pass.  After it returns, each tenant engine has been
        ``close()``d, which waits for any in-flight batch.
        """
        if not self._started:
            self._closed = True
            return
        if self._close_future is None:
            loop = asyncio.get_running_loop()
            self._close_future = loop.create_task(self._close_once())
        await asyncio.shield(self._close_future)

    async def _close_once(self) -> None:
        self._closed = True
        for tenant in self._tenants.values():
            tenant.queue.put_nowait(SHUTDOWN)
        await asyncio.gather(
            *(t.drain_task for t in self._tenants.values() if t.drain_task),
            return_exceptions=True,
        )
        loop = asyncio.get_running_loop()
        await asyncio.gather(
            *(
                loop.run_in_executor(self._executor, tenant.engine.close)
                for tenant in self._tenants.values()
            )
        )
        if self._own_executor and self._executor is not None:
            self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "NKAService":
        return await self.start()

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        await self.close()

    # -- request path --------------------------------------------------------

    def _tenant(self, name: str) -> _Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            raise UnknownTenant(f"unknown tenant {name!r}")
        return tenant

    async def equal_detailed(
        self, tenant_name: str, left: Expr, right: Expr
    ) -> EquivalenceResult:
        """Admit, coalesce and decide one ``equal?`` request.

        Raises :class:`UnknownTenant`, :class:`ServiceClosed` or
        :class:`TenantQuotaExceeded` at admission; once admitted, the
        request is guaranteed a verdict (or the batch's exception) even if
        the service closes meanwhile — close drains, it does not drop.
        """
        if not self._started:
            raise ServiceClosed("service not started")
        tenant = self._tenant(tenant_name)
        if self._closed:
            raise ServiceClosed("service is draining; request not admitted")
        tenant.metrics.note_submitted()
        if tenant.depth >= tenant.config.max_queue:
            tenant.metrics.note_rejected()
            raise TenantQuotaExceeded(
                f"tenant {tenant_name!r} at capacity "
                f"({tenant.config.max_queue} requests in flight)"
            )
        loop = asyncio.get_running_loop()
        request = PendingRequest(left, right, loop.create_future())
        tenant.depth += 1
        tenant.queue.put_nowait(request)
        return await request.future

    async def equal(self, tenant_name: str, left: Expr, right: Expr) -> bool:
        return (await self.equal_detailed(tenant_name, left, right)).equal

    async def equal_many_detailed(
        self, tenant_name: str, pairs: Sequence[Tuple[Expr, Expr]]
    ) -> List[EquivalenceResult]:
        """Submit a client-side batch: one admission per pair, answered
        together.  Each pair is an independent request to the coalescer —
        a client batch and the same pairs sent concurrently one-by-one
        take the identical path."""
        return list(
            await asyncio.gather(
                *(
                    self.equal_detailed(tenant_name, left, right)
                    for left, right in pairs
                )
            )
        )

    async def _drain(self, tenant: _Tenant) -> None:
        """One tenant's request pump: collect → execute → resolve, forever.

        The only place this tenant's engine sees batches, which is what
        serializes them per engine without any cross-tenant coupling.
        """
        loop = asyncio.get_running_loop()
        saw_shutdown = False
        while not saw_shutdown:
            first = await tenant.queue.get()
            if first is SHUTDOWN:
                break
            batch, saw_shutdown = await collect_batch(
                tenant.queue,
                first,
                max_batch=tenant.config.max_batch,
                window=tenant.config.coalesce_window,
                # Early-out: once the batch holds every admitted request,
                # lingering out the window is pure dead time (closed-loop
                # clients are blocked on exactly these futures).
                admitted=lambda: tenant.depth,
            )
            pairs = [request.pair for request in batch]
            try:
                results = await loop.run_in_executor(
                    self._executor, self._execute_batch, tenant, pairs
                )
            except Exception:
                # One bad pair must not fail its neighbours: re-run each
                # request alone so only the failing ones see an error.
                await self._resolve_one_by_one(tenant, batch)
            else:
                finished = time.monotonic()
                for request, result in zip(batch, results):
                    if not request.future.done():  # client may have cancelled
                        request.future.set_result(result)
                    tenant.latency.record(finished - request.enqueued_at)
                tenant.metrics.note_batch(len(batch))
            finally:
                tenant.depth -= len(batch)
        # Defensive sweep: nothing should land behind SHUTDOWN (admission
        # closed first), but an item there must not hang its caller.
        while True:
            try:
                item = tenant.queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is SHUTDOWN:
                continue
            tenant.depth -= 1
            if not item.future.done():
                item.future.set_exception(ServiceClosed("service closed"))

    async def _resolve_one_by_one(
        self, tenant: _Tenant, batch: List[PendingRequest]
    ) -> None:
        """Resolve each request of a failed batch from its own one-pair run."""
        loop = asyncio.get_running_loop()
        completed = 0
        for request in batch:
            try:
                (result,) = await loop.run_in_executor(
                    self._executor, self._execute_batch, tenant, [request.pair]
                )
            except Exception as error:  # engine bug / executor torn down
                if not request.future.done():
                    request.future.set_exception(
                        ServingError(f"request execution failed: {error!r}")
                    )
                tenant.metrics.note_failed(1)
            else:
                if not request.future.done():
                    request.future.set_result(result)
                tenant.latency.record(time.monotonic() - request.enqueued_at)
                completed += 1
        if completed:
            tenant.metrics.note_batch(completed)

    def _execute_batch(
        self, tenant: _Tenant, pairs: List[Tuple[Expr, Expr]]
    ) -> List[EquivalenceResult]:
        """Executor-thread body: second-chance probe, then the planned batch."""
        if self._second_chance:
            dropped = tenant.engine.invalidate_negative_verdicts(pairs)
            if dropped:
                tenant.metrics.note_invalidated(dropped)
        return tenant.engine.equal_many_detailed(pairs)

    # -- observability -------------------------------------------------------

    def engine(self, tenant_name: str) -> NKAEngine:
        """Direct access to a tenant's engine (tests, warm-state ops)."""
        return self._tenant(tenant_name).engine

    def tenant_names(self) -> List[str]:
        return [config.name for config in self._configs]

    def stats(self) -> Dict[str, Any]:
        """Serving metrics per tenant, each engine's own report nested in.

        Safe to call from the loop thread while batches run: engine
        ``stats()`` snapshots under the engine's locks, serving counters
        under theirs, and queue depth is loop-thread state.
        """
        tenants: Dict[str, Any] = {}
        totals = {"submitted": 0, "completed": 0, "rejected": 0, "failed": 0}
        for name, tenant in self._tenants.items():
            serving = tenant.metrics.snapshot()
            for key in totals:
                totals[key] += serving[key]
            tenants[name] = {
                "queue_depth": tenant.depth,
                "max_queue": tenant.config.max_queue,
                "max_batch": tenant.config.max_batch,
                "coalesce_window_ms": round(
                    tenant.config.coalesce_window * 1000.0, 3
                ),
                **serving,
                "latency": tenant.latency.snapshot(),
                "engine": tenant.engine.stats(),
            }
        return {
            "service": {
                "started": self._started,
                "closed": self._closed,
                "tenant_count": len(self._tenants),
                "uptime_seconds": (
                    round(time.monotonic() - self._started_at, 3)
                    if self._started_at is not None
                    else 0.0
                ),
                **totals,
            },
            "tenants": tenants,
        }

    def stats_json(self, indent: int = 2) -> str:
        """:meth:`stats` as JSON — the ``/stats`` endpoint body."""
        return json.dumps(self.stats(), indent=indent, sort_keys=True)
