"""SERVING — the async front-end under load: coalescing, backpressure, p99.

The ROADMAP north-star is a serving system; :mod:`repro.serving` is the
tier that finally accepts traffic.  This bench drives an in-process
:class:`~repro.serving.NKAService` with closed-loop and open-loop clients
and measures the two claims the serving layer makes:

* **coalescing wins throughput without changing answers** — a workload of
  concurrent, heavily-duplicated ``equal?`` requests (the serving-shaped
  case: many clients asking related questions at once) is answered
  strictly faster when the per-tenant coalescer merges arrivals into
  planned ``equal_many`` batches than when every request runs as its own
  batch (``max_batch=1``), and the verdicts are *byte-identical* to a
  sequential reference engine either way.  ``--check`` gates the ratio at
  ≥1.5× at concurrency 32 and requires the planner's dedupe counters to
  actually engage (a coalescer that never merges would pass a pure
  identity check).
* **backpressure bounds latency** — under open-loop overload (far more
  arrivals than ``max_queue``), excess requests are rejected with 429
  semantics and the *accepted* requests' p99 stays within a budget
  derived from the queue bound (they wait behind at most
  ``max_queue / max_batch`` batches) — latency scales with the configured
  queue, not with the offered load.

Run directly for a JSON report (CI uploads it next to ``BENCH_engine.json``
and gates with ``--check``)::

    PYTHONPATH=src python benchmarks/bench_serving.py \
        --distinct 24 --repeats 8 --concurrency 32 \
        --json BENCH_serving.json --check
"""

import argparse
import asyncio
import json
import math
import pickle
import random
import sys
import time

import pytest

try:
    from benchmarks.conftest import report
except ModuleNotFoundError:  # invoked as a script
    import pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    sys.path.insert(
        0, str(pathlib.Path(__file__).resolve().parent.parent / "tests")
    )
    from benchmarks.conftest import report

try:
    from gen import random_pairs
except ModuleNotFoundError:
    import pathlib

    sys.path.insert(
        0, str(pathlib.Path(__file__).resolve().parent.parent / "tests")
    )
    from gen import random_pairs

from repro.engine import NKAEngine
from repro.serving import NKAService, TenantConfig, TenantQuotaExceeded

SEED = 20220613  # PLDI 2022


# -- workload --------------------------------------------------------------------


def build_workload(distinct: int, repeats: int, seed: int = SEED, depth: int = 3):
    """``distinct`` base pairs repeated ``repeats`` times, shuffled.

    Duplication is the serving-shaped property: concurrent clients ask the
    same (or symmetric) questions, which is exactly what batch planning
    amortizes and per-request execution pays for over and over.
    """
    base = random_pairs(
        seed=seed, count=distinct, depth=depth, equal_fraction=0.25
    )
    pairs = base * repeats
    random.Random(seed).shuffle(pairs)
    return pairs


def sequential_reference(pairs):
    """Pickled verdicts from one fresh engine, one request at a time."""
    engine = NKAEngine("serving-bench-ref")
    return [
        pickle.dumps(engine.equal_detailed(left, right)) for left, right in pairs
    ]


# -- drivers ---------------------------------------------------------------------


async def _closed_loop(service, tenant, pairs, concurrency):
    """``concurrency`` clients pulling from one work list until it drains."""
    results = [None] * len(pairs)
    cursor = [0]

    async def client():
        while True:
            index = cursor[0]
            if index >= len(pairs):
                return
            cursor[0] = index + 1
            left, right = pairs[index]
            results[index] = await service.equal_detailed(tenant, left, right)

    start = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(concurrency)))
    return results, time.perf_counter() - start


def run_throughput_config(
    name, pairs, *, concurrency, max_batch, coalesce_window
):
    """One cold service, one closed-loop run; returns results + stats row."""

    async def go():
        config = TenantConfig(
            "bench",
            max_queue=max(4096, len(pairs)),
            max_batch=max_batch,
            coalesce_window=coalesce_window,
        )
        async with NKAService([config]) as service:
            results, seconds = await _closed_loop(
                service, "bench", pairs, concurrency
            )
            stats = service.stats()["tenants"]["bench"]
        return results, seconds, stats

    results, seconds, stats = asyncio.run(go())
    planner = stats["engine"]["planner"]
    return {
        "name": name,
        "results": [pickle.dumps(r) for r in results],
        "row": {
            "requests": len(pairs),
            "concurrency": concurrency,
            "max_batch": max_batch,
            "coalesce_window_ms": round(coalesce_window * 1000.0, 3),
            "seconds": round(seconds, 4),
            "throughput_rps": round(len(pairs) / seconds, 2),
            "batches": stats["batches"],
            "coalesce_ratio": stats["coalesce_ratio"],
            "latency": stats["latency"],
            "planner": {
                "duplicates": planner["duplicates"],
                "verdict_cache_hits": planner["verdict_cache_hits"],
                "dedupe_ratio": planner["dedupe_ratio"],
            },
        },
    }


def run_saturation(pairs, *, max_queue, max_batch, coalesce_window, flood):
    """Open-loop overload: ``flood`` simultaneous arrivals vs ``max_queue``.

    All arrivals land on the loop before the first batch completes, so
    exactly ``max_queue`` are admitted and the rest see 429.  The p99
    budget is queue-shaped: accepted requests wait behind at most
    ``ceil(max_queue / max_batch)`` batches, so it is a multiple of the
    measured per-batch time plus a scheduling floor — independent of how
    hard the flood oversubscribes the queue.
    """
    flood_pairs = (pairs * (flood // len(pairs) + 1))[:flood]

    async def go():
        config = TenantConfig(
            "bench",
            max_queue=max_queue,
            max_batch=max_batch,
            coalesce_window=coalesce_window,
        )
        async with NKAService([config]) as service:
            start = time.perf_counter()
            outcomes = await asyncio.gather(
                *(
                    service.equal_detailed("bench", left, right)
                    for left, right in flood_pairs
                ),
                return_exceptions=True,
            )
            seconds = time.perf_counter() - start
            stats = service.stats()["tenants"]["bench"]
        return outcomes, seconds, stats

    outcomes, seconds, stats = asyncio.run(go())
    unexpected = [
        o
        for o in outcomes
        if isinstance(o, Exception) and not isinstance(o, TenantQuotaExceeded)
    ]
    if unexpected:
        raise AssertionError(f"saturation run failed: {unexpected[:3]}")
    accepted = sum(1 for o in outcomes if not isinstance(o, Exception))
    rejected = sum(1 for o in outcomes if isinstance(o, TenantQuotaExceeded))
    batches = max(1, stats["batches"])
    per_batch_ms = seconds * 1000.0 / batches
    batches_waited = math.ceil(max_queue / max_batch)
    p99_budget_ms = round(3.0 * (batches_waited + 1) * per_batch_ms + 250.0, 3)
    return {
        "flood": flood,
        "max_queue": max_queue,
        "max_batch": max_batch,
        "accepted": accepted,
        "rejected": rejected,
        "seconds": round(seconds, 4),
        "per_batch_ms": round(per_batch_ms, 3),
        "latency": stats["latency"],
        "p99_budget_ms": p99_budget_ms,
    }


# -- suite -----------------------------------------------------------------------


def run_suite(
    distinct=24,
    repeats=8,
    concurrency=32,
    depth=3,
    json_path=None,
    check=False,
):
    pairs = build_workload(distinct, repeats, depth=depth)
    reference = sequential_reference(pairs)

    coalesced = run_throughput_config(
        "coalesced",
        pairs,
        concurrency=concurrency,
        max_batch=64,
        coalesce_window=0.01,
    )
    uncoalesced = run_throughput_config(
        "uncoalesced",
        pairs,
        concurrency=concurrency,
        max_batch=1,
        coalesce_window=0.0,
    )

    # Byte-identity is not a --check extra: a serving layer that changes
    # answers has no business being faster.
    for config in (coalesced, uncoalesced):
        assert config["results"] == reference, (
            f"{config['name']} verdicts diverged from the sequential reference"
        )

    saturation = run_saturation(
        pairs,
        max_queue=16,
        max_batch=8,
        coalesce_window=0.005,
        flood=max(120, 4 * len(pairs) // 3),
    )

    speedup = round(
        coalesced["row"]["throughput_rps"]
        / uncoalesced["row"]["throughput_rps"],
        3,
    )
    results = {
        "workload": {
            "distinct_pairs": distinct,
            "repeats": repeats,
            "requests": len(pairs),
            "depth": depth,
            "concurrency": concurrency,
            "seed": SEED,
        },
        "verdicts_identical": True,
        "coalesced_speedup": speedup,
        "configs": {
            "coalesced": coalesced["row"],
            "uncoalesced": uncoalesced["row"],
            "saturation": saturation,
        },
    }

    if check:
        row = coalesced["row"]
        assert speedup >= 1.5, (
            f"coalescing speedup {speedup}x fell below the 1.5x gate "
            f"({row['throughput_rps']} vs "
            f"{uncoalesced['row']['throughput_rps']} rps)"
        )
        assert row["batches"] < row["requests"], (
            f"coalescer never merged: {row['batches']} batches for "
            f"{row['requests']} requests"
        )
        planner = row["planner"]
        engaged = planner["duplicates"] + planner["verdict_cache_hits"]
        assert engaged > 0, f"planner dedupe never engaged: {planner}"
        assert saturation["rejected"] > 0, (
            "saturation never tripped backpressure"
        )
        assert saturation["accepted"] == saturation["max_queue"], saturation
        assert (
            saturation["latency"]["p99_ms"] <= saturation["p99_budget_ms"]
        ), (
            f"accepted p99 {saturation['latency']['p99_ms']}ms blew the "
            f"queue-shaped budget {saturation['p99_budget_ms']}ms"
        )

    if json_path:
        payload = dict(results)
        with open(json_path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
    return results


# -- pytest entry points (smoke-sized; CI runs the CLI for the full sweep) -------


@pytest.fixture(scope="module")
def small_suite():
    return run_suite(distinct=8, repeats=4, concurrency=8)


def test_serving_verdicts_byte_identical(small_suite):
    assert small_suite["verdicts_identical"]
    report(
        "SERVING/verdicts",
        "coalesced batches must answer exactly like sequential requests",
        f"{small_suite['workload']['requests']} requests byte-identical "
        "in coalesced and uncoalesced modes",
    )


def test_serving_coalescing_engages(small_suite):
    row = small_suite["configs"]["coalesced"]
    assert row["batches"] < row["requests"]
    assert row["coalesce_ratio"] > 1.0
    planner = row["planner"]
    assert planner["duplicates"] + planner["verdict_cache_hits"] > 0
    report(
        "SERVING/coalescing",
        "concurrent arrivals merge into planned batches",
        f"{row['requests']} requests in {row['batches']} batches "
        f"(ratio {row['coalesce_ratio']}), planner dedupe engaged",
    )


def test_serving_saturation_rejects_and_bounds_p99(small_suite):
    saturation = small_suite["configs"]["saturation"]
    assert saturation["rejected"] > 0
    assert saturation["accepted"] == saturation["max_queue"]
    assert saturation["latency"]["p99_ms"] <= saturation["p99_budget_ms"]
    report(
        "SERVING/backpressure",
        "overload is absorbed by rejection; accepted p99 is queue-bounded",
        f"{saturation['rejected']} rejected, accepted p99 "
        f"{saturation['latency']['p99_ms']}ms within "
        f"{saturation['p99_budget_ms']}ms budget",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--distinct", type=int, default=24)
    parser.add_argument("--repeats", type=int, default=8)
    parser.add_argument("--concurrency", type=int, default=32)
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--json", type=str, default=None)
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate: coalesced ≥1.5x uncoalesced, dedupe engaged, "
        "rejection + bounded p99 under saturation",
    )
    args = parser.parse_args(argv)
    results = run_suite(
        distinct=args.distinct,
        repeats=args.repeats,
        concurrency=args.concurrency,
        depth=args.depth,
        json_path=args.json,
        check=args.check,
    )
    print(json.dumps(results, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
