"""Closed-loop HTTP load generator for the ``http-hot`` workload.

Runs in the benchmark's own process, apart from the server process it
loads, on one event loop.  Each connection sends its next ``POST /equal``
only after the previous answer arrived, and repeats one fixed cycle of
requests, so every run sees the same mix; a segment ends on a cycle
boundary.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from typing import Dict, List, Tuple

TENANT = "bench"


async def exchange(port: int, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
    """One HTTP/1.1 exchange on a fresh connection (the server closes it)."""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1")
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(head + body)
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    header, _, payload = raw.partition(b"\r\n\r\n")
    return int(header.split(b" ", 2)[1]), payload


def request(port: int, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
    """:func:`exchange` outside the load loop (warm-up, ``GET /stats``)."""
    return asyncio.run(exchange(port, method, path, body))


def equal_body(left: str, right: str) -> bytes:
    return json.dumps({"tenant": TENANT, "left": left, "right": right}).encode("utf-8")


def zipf_cycle(rng: random.Random, hot: int, length: int, exponent: float = 1.1) -> List[int]:
    """``length`` indices into the hot set, skewed towards low ranks."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(hot)]
    return rng.choices(range(hot), weights=weights, k=length)


async def _connection(port: int, cycle, novel_source, deadline: float, sink) -> None:
    """One closed-loop client: whole cycles until the deadline."""
    latencies, outcomes = sink
    while time.perf_counter() < deadline:
        for kind, pair in cycle:
            if kind == "novel":
                pair = novel_source()
            body = equal_body(*pair)
            t0 = time.perf_counter()
            status, payload = await exchange(port, "POST", "/equal", body)
            latencies.append(time.perf_counter() - t0)
            outcomes.append((kind, pair[0], pair[1], status, payload))


def run_segment(port: int, cycles: List[List[Tuple[str, Tuple[str, str]]]],
                novel_source, seconds: float) -> Dict[str, object]:
    """One closed-loop connection per cycle for ``seconds``, all on one
    event loop in this thread; returns the raw samples."""
    latencies: List[float] = []
    outcomes: List[Tuple[str, str, str, int, bytes]] = []

    async def drive() -> None:
        deadline = time.perf_counter() + seconds
        await asyncio.gather(*(
            _connection(port, cycle, novel_source, deadline, (latencies, outcomes))
            for cycle in cycles
        ))

    started = time.perf_counter()
    asyncio.run(asyncio.wait_for(drive(), timeout=seconds + 120))
    return {
        "wall": time.perf_counter() - started,
        "latencies": latencies,
        "outcomes": outcomes,
    }
