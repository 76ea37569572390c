"""Concurrency suite for the asyncio serving front-end.

What must hold, per the serving contract (`src/repro/serving/README.md`):

* **coalescing correctness** — concurrent requests merged into one planned
  engine batch return verdicts *byte-identical* to per-request sequential
  execution on a fresh engine, while the batch/coalesce counters prove the
  merging actually happened;
* **quota enforcement & backpressure** — a tenant past ``max_queue``
  admitted-but-unfinished requests is rejected with
  :class:`TenantQuotaExceeded` (the 429 path), recovers after draining,
  and never starves its neighbours;
* **graceful drain** — ``close()`` serves everything admitted first, then
  closes every tenant engine, and subsequent submissions fail with
  :class:`ServiceClosed`;
* **multi-tenant isolation** — tenant state (verdict caches) never leaks
  across engines: a poisoned verdict in tenant A is invisible to tenant B;
* **fleet verdict sharing** — a verdict a sibling replica published
  after this tenant's read missed it is *served*, not re-decided;
* **the HTTP surface** — routes, error mapping, stats document.

No pytest-asyncio in the container: each test drives its own loop with
``asyncio.run``.
"""

import asyncio
import json
import pickle

import pytest

from gen import random_pairs

from repro.core.parser import MAX_NESTING, parse
from repro.engine import NKAEngine
from repro.engine.store import CompileStore
from repro.serving import (
    NKAService,
    ServiceClosed,
    ServingError,
    ServingHTTPServer,
    TenantConfig,
    TenantQuotaExceeded,
    UnknownTenant,
    collect_batch,
)


def _pairs(seed=901, count=24, depth=3):
    return random_pairs(seed=seed, count=count, depth=depth, equal_fraction=0.3)


def _sequential_reference(pairs):
    engine = NKAEngine("serving-ref")
    return [engine.equal_detailed(left, right) for left, right in pairs]


class TestCoalescing:
    def test_verdicts_byte_identical_to_sequential(self):
        """The load-bearing correctness claim: coalesced == sequential.

        The workload repeats a base set of pairs — concurrent clients
        asking the same question is exactly what coalescing amortizes, and
        it guarantees the planner's dedupe counters engage."""
        pairs = _pairs(seed=911, count=10) * 3
        expected = _sequential_reference(pairs)

        async def serve():
            config = TenantConfig(
                "t", max_batch=16, coalesce_window=0.05, store=False
            )
            async with NKAService([config]) as service:
                results = await asyncio.gather(
                    *(service.equal_detailed("t", l, r) for l, r in pairs)
                )
                return results, service.stats()

        results, stats = asyncio.run(serve())
        assert [pickle.dumps(r) for r in results] == [
            pickle.dumps(e) for e in expected
        ]
        tenant = stats["tenants"]["t"]
        assert tenant["completed"] == len(pairs)
        assert tenant["batches"] < len(pairs), (
            "concurrent requests must coalesce into fewer engine batches"
        )
        assert tenant["coalesce_ratio"] > 1.0
        planner = tenant["engine"]["planner"]
        assert planner["duplicates"] + planner["verdict_cache_hits"] > 0, (
            "coalescing must surface cross-request dedupe to the planner"
        )
        latency = tenant["latency"]
        assert latency["count"] == len(pairs)
        assert latency["p50_ms"] <= latency["p99_ms"] <= latency["max_ms"]

    def test_client_batch_api_matches_singles(self):
        pairs = _pairs(seed=912, count=12)
        expected = _sequential_reference(pairs)

        async def serve():
            async with NKAService(
                [TenantConfig("t", max_batch=32, coalesce_window=0.05)]
            ) as service:
                return await service.equal_many_detailed("t", pairs)

        results = asyncio.run(serve())
        assert [pickle.dumps(r) for r in results] == [
            pickle.dumps(e) for e in expected
        ]

    def test_uncoalesced_config_still_correct(self):
        """max_batch=1 / window=0 is the baseline mode, not a crash."""
        pairs = _pairs(seed=913, count=8)
        expected = _sequential_reference(pairs)

        async def serve():
            async with NKAService(
                [TenantConfig("t", max_batch=1, coalesce_window=0.0)]
            ) as service:
                results = await asyncio.gather(
                    *(service.equal_detailed("t", l, r) for l, r in pairs)
                )
                return results, service.stats()["tenants"]["t"]

        results, tenant = asyncio.run(serve())
        assert [pickle.dumps(r) for r in results] == [
            pickle.dumps(e) for e in expected
        ]
        assert tenant["batches"] == len(pairs)
        assert tenant["coalesce_ratio"] == 1.0

    def test_failing_pair_does_not_fail_its_coalesced_batch(self, monkeypatch):
        """A pair the engine cannot decide fails alone; the request
        coalesced with it still gets its verdict."""
        good = (parse("a*"), parse("1 + a a*"))
        bad = (parse("a b"), parse("b a"))

        class InjectedEngineFailure(RuntimeError):
            pass

        async def serve():
            config = TenantConfig("t", max_batch=2, coalesce_window=5.0)
            async with NKAService([config]) as service:
                engine = service.engine("t")
                decide = engine.equal_many_detailed

                def failing_on_bad(pairs, *args, **kwargs):
                    if bad in pairs:
                        raise InjectedEngineFailure("cannot decide this pair")
                    return decide(pairs, *args, **kwargs)

                monkeypatch.setattr(engine, "equal_many_detailed", failing_on_bad)
                results = await asyncio.gather(
                    service.equal_detailed("t", *good),
                    service.equal_detailed("t", *bad),
                    return_exceptions=True,
                )
                return results, service.stats()["tenants"]["t"]

        (verdict, failure), tenant = asyncio.run(serve())
        assert pickle.dumps(verdict) == pickle.dumps(
            _sequential_reference([good])[0]
        )
        assert verdict.equal
        assert isinstance(failure, ServingError)
        assert "InjectedEngineFailure" in str(failure)
        assert tenant["completed"] == 1
        assert tenant["failed"] == 1

    def test_collect_batch_respects_cap_and_shutdown(self):
        from repro.serving import SHUTDOWN, PendingRequest

        async def scenario():
            left, right = parse("a"), parse("b")
            loop = asyncio.get_running_loop()

            def request():
                return PendingRequest(left, right, loop.create_future())

            queue = asyncio.Queue()
            for _ in range(5):
                queue.put_nowait(request())
            batch, saw_shutdown = await collect_batch(
                queue, request(), max_batch=4, window=0.05
            )
            assert len(batch) == 4 and not saw_shutdown
            assert queue.qsize() == 2  # cap left the rest queued

            queue2 = asyncio.Queue()
            queue2.put_nowait(request())
            queue2.put_nowait(SHUTDOWN)
            queue2.put_nowait(request())
            batch2, saw_shutdown2 = await collect_batch(
                queue2, request(), max_batch=16, window=0.05
            )
            assert saw_shutdown2
            assert len(batch2) == 2  # the one before the sentinel rode along
            assert queue2.qsize() == 1  # nothing consumed past the sentinel

        asyncio.run(scenario())


class TestAdmission:
    def test_unknown_tenant_rejected(self):
        async def scenario():
            async with NKAService(["known"]) as service:
                with pytest.raises(UnknownTenant):
                    await service.equal_detailed(
                        "mystery", parse("a"), parse("a b")
                    )

        asyncio.run(scenario())

    def test_quota_rejects_excess_and_recovers(self):
        pairs = _pairs(seed=921, count=20)

        async def scenario():
            config = TenantConfig(
                "t", max_queue=4, max_batch=8, coalesce_window=0.2
            )
            async with NKAService([config]) as service:
                outcomes = await asyncio.gather(
                    *(service.equal_detailed("t", l, r) for l, r in pairs),
                    return_exceptions=True,
                )
                served = [o for o in outcomes if not isinstance(o, Exception)]
                rejected = [
                    o for o in outcomes if isinstance(o, TenantQuotaExceeded)
                ]
                unexpected = [
                    o
                    for o in outcomes
                    if isinstance(o, Exception)
                    and not isinstance(o, TenantQuotaExceeded)
                ]
                assert not unexpected, f"unexpected failures: {unexpected}"
                # All 20 submissions land on the loop before the first
                # batch completes, so exactly max_queue are admitted.
                assert len(served) == 4
                assert len(rejected) == 16
                # Served verdicts are still correct (the admitted prefix).
                expected = _sequential_reference(pairs[:4])
                assert [pickle.dumps(r) for r in served] == [
                    pickle.dumps(e) for e in expected
                ]
                stats = service.stats()["tenants"]["t"]
                assert stats["rejected"] == 16
                assert stats["completed"] == 4
                # Backpressure recovers once the queue drains.
                again = await service.equal_detailed("t", *pairs[5])
                assert again is not None

        asyncio.run(scenario())

    def test_flooding_tenant_does_not_starve_neighbour(self):
        flood_pairs = _pairs(seed=922, count=16)
        quiet_pairs = _pairs(seed=923, count=4)

        async def scenario():
            configs = [
                TenantConfig(
                    "flood", max_queue=2, max_batch=4, coalesce_window=0.1
                ),
                TenantConfig("quiet", max_batch=8, coalesce_window=0.02),
            ]
            async with NKAService(configs) as service:
                flood = asyncio.gather(
                    *(
                        service.equal_detailed("flood", l, r)
                        for l, r in flood_pairs
                    ),
                    return_exceptions=True,
                )
                quiet = asyncio.gather(
                    *(
                        service.equal_detailed("quiet", l, r)
                        for l, r in quiet_pairs
                    )
                )
                flood_out, quiet_out = await asyncio.gather(flood, quiet)
                assert all(
                    not isinstance(o, Exception) for o in quiet_out
                ), "the quiet tenant must be untouched by its neighbour's flood"
                assert any(
                    isinstance(o, TenantQuotaExceeded) for o in flood_out
                ), "the flooding tenant must see its own backpressure"
                stats = service.stats()
                assert stats["tenants"]["quiet"]["rejected"] == 0
                assert stats["tenants"]["flood"]["rejected"] > 0

        asyncio.run(scenario())


class TestLifecycle:
    def test_graceful_drain_serves_admitted_then_reaps_workers(self):
        """Everything admitted before close() is served; late submissions
        503.  (Engines start no workers now; the name is kept so the test
        id stays stable.)"""
        warmup = _pairs(seed=931, count=30)
        wave = _pairs(seed=932, count=10)

        async def scenario():
            config = TenantConfig("t", max_batch=64, coalesce_window=0.05)
            async with NKAService([config]) as service:
                await service.equal_many_detailed("t", warmup)

                # Schedule a wave, let admission run, then close under it.
                wave_results = asyncio.gather(
                    *(service.equal_detailed("t", l, r) for l, r in wave)
                )
                await asyncio.sleep(0)  # let every admission execute
                close_task = asyncio.ensure_future(service.close())
                results = await wave_results  # drained, not dropped
                await close_task
                with pytest.raises(ServiceClosed):
                    await service.equal_detailed("t", *wave[0])
                return results

        results = asyncio.run(scenario())
        assert len(results) == len(wave)
        fresh = NKAEngine("drain-ref")
        for (left, right), result in zip(wave, results):
            assert pickle.dumps(result) == pickle.dumps(
                fresh.equal_detailed(left, right)
            )

    def test_close_is_idempotent_and_concurrent(self):
        async def scenario():
            service = await NKAService(["t"]).start()
            await service.equal_detailed("t", parse("a"), parse("a"))
            await asyncio.gather(service.close(), service.close())
            await service.close()
            with pytest.raises(ServiceClosed):
                await service.equal_detailed("t", parse("a"), parse("b"))

        asyncio.run(scenario())


class TestIsolation:
    def test_tenant_caches_never_leak(self):
        """A poisoned verdict in tenant A's engine must be invisible to B:
        per-tenant engines share no verdict state."""
        left, right = parse("(a b)* a"), parse("a (b a)*")

        async def scenario():
            async with NKAService(["a", "b"]) as service:
                # Poison A's verdict cache the way a buggy shared-state
                # serving layer would: a wrong cached answer for the pair.
                from repro.automata.equivalence import EquivalenceResult

                poison = EquivalenceResult(
                    equal=False,
                    counterexample=("x",),
                    reason="poisoned-for-test",
                )
                engine_a = service.engine("a")
                with engine_a._lock:
                    engine_a._results.put((left, right), poison)
                poisoned = await service.equal_detailed("a", left, right)
                clean = await service.equal_detailed("b", left, right)
                return poisoned, clean

        poisoned, clean = asyncio.run(scenario())
        assert poisoned.reason == "poisoned-for-test", (
            "sanity: tenant A must actually consult its own cache"
        )
        assert clean.equal is True, (
            "tenant B must decide independently of tenant A's state"
        )
        assert clean.reason != "poisoned-for-test"

    def test_second_chance_probe_serves_sibling_publish(self, tmp_path):
        """Two tenants sharing one store: B's earlier miss must not hide
        the verdict A just published — B serves it with 0 decisions.

        The name predates the store keeping no miss cache, which made the
        coalescer's second-chance probe unnecessary; it is kept so the
        test id stays stable.
        """
        left, right = parse("(a b)* a"), parse("a (b a)*")
        from repro.engine.persist import expr_digest

        async def scenario():
            root = str(tmp_path / "store")
            store_b = CompileStore(root)
            configs = [
                TenantConfig("a", store=root),
                TenantConfig("b", store=store_b),
            ]
            async with NKAService(configs) as service:
                # B reads first and misses (as a plan would).
                assert (
                    store_b.get_verdict(
                        expr_digest(left), expr_digest(right)
                    )
                    is None
                )
                # A decides and publishes to the shared store.
                verdict_a = await service.equal_detailed("a", left, right)
                # B now asks: its next read must find A's entry.
                verdict_b = await service.equal_detailed("b", left, right)
                stats_b = service.stats()["tenants"]["b"]
                return verdict_a, verdict_b, stats_b

        verdict_a, verdict_b, stats_b = asyncio.run(scenario())
        assert pickle.dumps(verdict_a) == pickle.dumps(verdict_b)
        assert stats_b["engine"]["verdicts"]["store_hits"] == 1
        assert stats_b["engine"]["decisions"] == 0, (
            "tenant B must serve the sibling's verdict, not re-decide it"
        )


class TestHTTP:
    @staticmethod
    async def _request(port, method, path, payload=None):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: localhost\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode()
        writer.write(head + body)
        await writer.drain()
        raw = await reader.read()
        writer.close()
        status = int(raw.split(b" ", 2)[1])
        document = json.loads(raw.split(b"\r\n\r\n", 1)[1])
        return status, document

    def test_routes_and_error_mapping(self):
        async def scenario():
            async with NKAService(
                [TenantConfig("t", max_batch=8, coalesce_window=0.02)]
            ) as service:
                async with ServingHTTPServer(service) as http:
                    health = await self._request(http.port, "GET", "/healthz")
                    equal = await self._request(
                        http.port,
                        "POST",
                        "/equal",
                        {"tenant": "t", "left": "(a b)* a", "right": "a (b a)*"},
                    )
                    batch = await self._request(
                        http.port,
                        "POST",
                        "/equal_batch",
                        {
                            "tenant": "t",
                            "pairs": [["a + b", "b + a"], ["a", "b"]],
                        },
                    )
                    missing = await self._request(
                        http.port,
                        "POST",
                        "/equal",
                        {"tenant": "ghost", "left": "a", "right": "a"},
                    )
                    bad = await self._request(
                        http.port,
                        "POST",
                        "/equal",
                        {"tenant": "t", "left": "((", "right": "a"},
                    )
                    lost = await self._request(http.port, "GET", "/nowhere")
                    stats = await self._request(http.port, "GET", "/stats")
                    return health, equal, batch, missing, bad, lost, stats

        health, equal, batch, missing, bad, lost, stats = asyncio.run(
            scenario()
        )
        assert health == (200, {"ok": True})
        assert equal[0] == 200 and equal[1]["equal"] is True
        assert batch[0] == 200
        assert [r["equal"] for r in batch[1]["results"]] == [True, False]
        assert batch[1]["results"][1]["counterexample"] is not None
        assert missing[0] == 404
        assert bad[0] == 400
        assert lost[0] == 404
        assert stats[0] == 200
        tenant = stats[1]["tenants"]["t"]
        assert tenant["completed"] >= 3
        assert "p99_ms" in tenant["latency"]
        assert tenant["engine"]["engine"] == "serving[t]"

    def test_too_deep_expression_is_a_400_naming_the_bound(self):
        deep = "(" * 400 + "a" + ")*" * 400

        async def scenario():
            async with NKAService([TenantConfig("t")]) as service:
                async with ServingHTTPServer(service) as http:
                    refused = await self._request(
                        http.port,
                        "POST",
                        "/equal",
                        {"tenant": "t", "left": deep, "right": "a"},
                    )
                    after = await self._request(
                        http.port,
                        "POST",
                        "/equal",
                        {"tenant": "t", "left": "a b", "right": "a b"},
                    )
                    return refused, after

        (status, document), after = asyncio.run(scenario())
        assert status == 400
        assert f"MAX_NESTING = {MAX_NESTING}" in document["error"]
        # The refusal leaves the tenant serving.
        assert after == (200, {**after[1], "equal": True})

    def test_quota_maps_to_429(self):
        pairs = _pairs(seed=941, count=10)

        async def scenario():
            config = TenantConfig(
                "t", max_queue=2, max_batch=4, coalesce_window=0.2
            )
            async with NKAService([config]) as service:
                async with ServingHTTPServer(service) as http:
                    outcomes = await asyncio.gather(
                        *(
                            self._request(
                                http.port,
                                "POST",
                                "/equal",
                                {
                                    "tenant": "t",
                                    "left": "a b c",
                                    "right": f"a b c + {'a ' * (i + 1)}b",
                                },
                            )
                            for i in range(10)
                        )
                    )
                    return [status for status, _ in outcomes]

        statuses = asyncio.run(scenario())
        assert 200 in statuses
        assert 429 in statuses, f"expected 429s under flood, got {statuses}"

    def test_stats_polling_while_batches_run(self):
        """The /stats endpoint must be callable concurrently with engine
        work — the serving-level face of the stats() thread-safety fix."""
        pairs = _pairs(seed=942, count=20)

        async def scenario():
            async with NKAService(
                [TenantConfig("t", max_batch=8, coalesce_window=0.01)]
            ) as service:
                async with ServingHTTPServer(service) as http:
                    work = asyncio.gather(
                        *(
                            service.equal_detailed("t", l, r)
                            for l, r in pairs
                        )
                    )
                    polls = asyncio.gather(
                        *(
                            self._request(http.port, "GET", "/stats")
                            for _ in range(8)
                        )
                    )
                    results, poll_results = await asyncio.gather(work, polls)
                    assert all(status == 200 for status, _ in poll_results)
                    return results

        results = asyncio.run(scenario())
        expected = _sequential_reference(pairs)
        assert [pickle.dumps(r) for r in results] == [
            pickle.dumps(e) for e in expected
        ]
