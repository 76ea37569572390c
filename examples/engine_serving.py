"""Serving NKA decisions: the async multi-tenant front-end walkthrough.

Run: ``PYTHONPATH=src python examples/engine_serving.py``

A production verifier answers *streams* of equality queries from many
clients at once — axiom sweeps, normal-form checks, compiler-rule
validation.  Earlier revisions of this example drove a bare
:class:`repro.engine.NKAEngine`; this one is a client of the tier that
now sits on top, :class:`repro.serving.NKAService`:

1. **multi-tenant isolation** — one engine per tenant, each with its own
   caches, quotas and knobs; no shared state unless opted into;
2. **coalescing** — concurrent ``await service.equal(...)`` calls from
   independent client coroutines are merged into one planned
   ``equal_many`` batch, so the engine planner's dedupe works *across*
   requests without any client cooperation;
3. **backpressure** — a flooding tenant is rejected with 429 semantics at
   its own ``max_queue`` while its neighbours never notice;
4. **fleet verdict sharing** — two tenants pointed at one verdict store:
   one tenant *serves* a verdict its sibling published moments ago, even
   right after its own read of that pair missed;
5. **an HTTP front door** — ``POST /equal`` and ``GET /stats`` on a
   stdlib asyncio server;
6. **graceful drain** — ``close()`` answers everything admitted, then
   closes every tenant engine;
7. **warm start after a restart** — a new service whose tenant mounts the
   same verdict store answers what the old one decided with zero
   compilations and zero decisions: the store is the warm state.

The engine-level levers underneath (planning, the content-addressed
verdict store) are walked through in
``benchmarks/bench_engine_throughput.py`` and
``src/repro/engine/README.md``.
"""

import asyncio
import json
import os
import random
import tempfile

from repro import parse
from repro.core.expr import Expr, Product, Star, Sum, Symbol
from repro.engine.persist import expr_digest
from repro.engine.store import CompileStore
from repro.serving import (
    NKAService,
    ServingHTTPServer,
    TenantConfig,
    TenantQuotaExceeded,
)


def section(title: str) -> None:
    print(f"\n=== {title} ===")


def random_expr(rng: random.Random, letters, depth: int) -> Expr:
    if depth == 0 or rng.random() < 0.3:
        return Symbol(rng.choice(letters))
    roll = rng.random()
    if roll < 0.25:
        return Star(random_expr(rng, letters, depth - 1))
    build = Sum if roll < 0.6 else Product
    return build(
        random_expr(rng, letters, depth - 1), random_expr(rng, letters, depth - 1)
    )


def make_workload(count: int = 150, seed: int = 11):
    """A mixed stream with duplicates and shared subterms, like real traffic."""
    rng = random.Random(seed)
    pool = [random_expr(rng, ["a", "b", "c"], 4) for _ in range(count // 3)]
    return [(rng.choice(pool), rng.choice(pool)) for _ in range(count)]


async def http_request(port: int, method: str, path: str, payload=None):
    """A bare-hands HTTP/1.1 client — what the front door looks like on a wire."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = b"" if payload is None else json.dumps(payload).encode()
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
        f"Content-Length: {len(body)}\r\n\r\n".encode() + body
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    status = int(raw.split(b" ", 2)[1])
    return status, json.loads(raw.split(b"\r\n\r\n", 1)[1])


async def walkthrough() -> None:
    section("1. A multi-tenant service")
    store_root = os.path.join(tempfile.gettempdir(), "nka-serving-example")
    service = await NKAService(
        [
            # Default knobs: 256-deep queue, 64-wide batches, 2 ms window.
            TenantConfig("ci"),
            # A latency-sensitive tenant with a tight queue and no batching.
            TenantConfig("interactive", max_queue=8, max_batch=1),
            # Two replica-shaped tenants sharing one verdict store
            # (replica-b keeps an inspectable handle for section 4).
            TenantConfig("replica-a", store=store_root),
            TenantConfig("replica-b", store=(store_b := CompileStore(store_root))),
        ]
    ).start()
    left, right = parse("(a b)* a"), parse("a (b a)*")
    print(f"  tenants: {service.tenant_names()}")
    print(f"  ci decides (a b)* a == a (b a)*: {await service.equal('ci', left, right)}")
    stats = service.stats()["tenants"]
    print(f"  ci decisions: {stats['ci']['engine']['decisions']}, "
          f"interactive decisions: "
          f"{stats['interactive']['engine']['decisions']} (isolated)")

    section("2. Concurrent clients coalesce into planned batches")
    workload = make_workload()
    results = await asyncio.gather(
        *(service.equal_detailed("ci", l, r) for l, r in workload)
    )
    row = service.stats()["tenants"]["ci"]
    planner = row["engine"]["planner"]
    print(f"  {len(workload)} concurrent requests answered "
          f"({sum(r.equal for r in results)} equal): "
          f"{row['admission_hits']} at admission, the rest in "
          f"{row['batches']} engine batches — coalesce ratio "
          f"{row['coalesce_ratio']:.1f}")
    print(f"  planner saw the batch, not the requests: "
          f"{planner['pointer_equal']:.0f} pointer-equal, "
          f"{planner['duplicates']:.0f} duplicates, "
          f"{planner['verdict_cache_hits']:.0f} cache hits "
          f"(dedupe ratio {planner['dedupe_ratio']:.0%})")
    print(f"  latency: p50 {row['latency']['p50_ms']} ms, "
          f"p99 {row['latency']['p99_ms']} ms")

    section("3. Backpressure: the flooding tenant pays, neighbours don't")
    flood = make_workload(count=40, seed=23)
    outcomes = await asyncio.gather(
        *(service.equal("interactive", l, r) for l, r in flood),
        return_exceptions=True,
    )
    rejected = sum(isinstance(o, TenantQuotaExceeded) for o in outcomes)
    served = len(outcomes) - rejected
    print(f"  interactive (max_queue=8) under a 40-request flood: "
          f"{served} served, {rejected} rejected with 429 semantics")
    print(f"  ci is untouched: "
          f"{service.stats()['tenants']['ci']['rejected']} rejections there")

    section("4. Fleet verdict sharing")
    # replica-b reads a verdict nobody has published yet …
    assert store_b.get_verdict(expr_digest(left), expr_digest(right)) is None
    # … then replica-a decides and publishes it.  The store caches no
    # misses, so replica-b's next read finds the entry and the verdict is
    # *served*, not decided again.
    await service.equal_detailed("replica-a", left, right)   # decides + publishes
    await service.equal_detailed("replica-b", left, right)   # served off the store
    b = service.stats()["tenants"]["replica-b"]
    print(f"  replica-b: {b['engine']['decisions']} Tzeng runs, "
          f"{b['engine']['verdicts']['store_hits']} verdicts off the store")

    section("5. The HTTP front door")
    async with ServingHTTPServer(service) as http:
        status, verdict = await http_request(
            http.port, "POST", "/equal",
            {"tenant": "ci", "left": "(a b)* a", "right": "a (b a)*"},
        )
        print(f"  POST /equal -> {status} {verdict}")
        status, doc = await http_request(http.port, "GET", "/stats")
        print(f"  GET /stats -> {status}, service has handled "
              f"{doc['service']['completed']} requests across "
              f"{doc['service']['tenant_count']} tenants")

    section("6. Graceful drain")
    tail = asyncio.gather(
        *(service.equal("ci", l, r) for l, r in make_workload(30, seed=47))
    )
    await asyncio.sleep(0)           # let admission run, then close under it
    await service.close()
    verdicts = await tail            # admitted before close => still answered
    print(f"  {len(verdicts)} in-flight requests answered through the drain")
    try:
        await service.equal("ci", left, right)
    except Exception as error:
        print(f"  post-close admission: {type(error).__name__} ({error})")

    section("7. Warm start after a restart: mount the store")
    restarted = await NKAService([TenantConfig("replica-a", store=store_root)]).start()
    await restarted.equal_detailed("replica-a", left, right)
    engine = restarted.stats()["tenants"]["replica-a"]["engine"]
    print(f"  fresh replica-a: {engine['compilations']} compilations, "
          f"{engine['decisions']} Tzeng runs, "
          f"{engine['verdicts']['store_hits']} verdict off the store")
    await restarted.close()

    from repro.engine import gc_store

    gc_store(store_root, max_bytes=0)


def main() -> None:
    asyncio.run(walkthrough())


if __name__ == "__main__":
    main()
