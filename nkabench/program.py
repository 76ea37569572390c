"""The measured process: runs the program under test, and nothing else.

``run.py`` starts one fresh process per measurement with a job on stdin
(one JSON document) and reads one JSON document back from stdout.  Modes:

* ``batch`` — the ``cold-corpus`` and ``replica-store`` workloads, timed
  per batch in this process;
* ``serve`` — ``http-hot``: one default tenant behind ``ServingHTTPServer``
  on an ephemeral port; the load generator is another process.  Commands
  arrive as lines on stdin (``trace on``, ``trace off``, ``stop``) and each
  is answered by one JSON line.

Setup time runs from just before ``import repro`` to the first moment the
program can answer: the engine (and store) built, or the server listening.
Only the program's public entry points are called: ``repro.parse``,
``NKAEngine.equal_many_detailed``, ``CompileStore`` through ``NKAEngine``,
and ``NKAService`` behind ``ServingHTTPServer``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import random
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

# The program's shipped defaults this benchmark measures.  A change to any
# of them changes what the benchmark measures, so it must be made here (and
# in BENCHMARK.json) too; the run refuses to measure a different setting.
EXPECTED_DEFAULTS = {
    "engine.workers": 1,
    "engine.kernel": "python",
    "engine.infer_verdicts": False,
    "tenant.workers": 1,
    "tenant.store": False,
    "tenant.infer_verdicts": False,
    "tenant.coalesce_window": 0.002,
    "tenant.max_batch": 64,
    "tenant.max_queue": 256,
}

# Environment variables that would move the program off its defaults.
PROGRAM_ENV = ("REPRO_KERNEL", "REPRO_COMPILE_STORE", "REPRO_VERDICT_INFER",
               "REPRO_ENGINE_START_METHOD", "REPRO_ENGINE_OVERSUBSCRIBE")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def check_defaults(engine, tenant_config) -> None:
    from repro.linalg import kernels

    stats = engine.stats()
    actual = {
        "engine.workers": engine.workers,
        "engine.kernel": kernels.backend_name(),
        "engine.infer_verdicts": stats["verdicts"]["infer_enabled"],
        "tenant.workers": tenant_config.workers,
        "tenant.store": tenant_config.store,
        "tenant.infer_verdicts": bool(tenant_config.infer_verdicts),
        "tenant.coalesce_window": tenant_config.coalesce_window,
        "tenant.max_batch": tenant_config.max_batch,
        "tenant.max_queue": tenant_config.max_queue,
    }
    if actual != EXPECTED_DEFAULTS:
        changed = {k: v for k, v in actual.items() if EXPECTED_DEFAULTS[k] != v}
        raise SystemExit(f"program defaults changed: {changed}; update nkabench")


def verdict_of(result):
    counterexample = result.counterexample
    return [result.equal, None if counterexample is None else list(counterexample),
            result.reason]


class Answers:
    """Every answer per query: its verdict and the digests of its pickle."""

    def __init__(self) -> None:
        self.by_key = {}

    def add(self, left: str, right: str, result) -> None:
        digest = hashlib.sha256(pickle.dumps(result)).hexdigest()
        entry = self.by_key.get((left, right))
        if entry is None:
            self.by_key[(left, right)] = entry = {
                "left": left, "right": right, "verdict": verdict_of(result),
                "digests": [],
            }
        if digest not in entry["digests"]:
            entry["digests"].append(digest)

    def as_list(self):
        return list(self.by_key.values())


# -- batch workloads ------------------------------------------------------------


def run_batch(job) -> dict:
    workload = job["workload"]
    store_dir = None
    if workload == "replica-store":
        store_dir = tempfile.mkdtemp(prefix="store-", dir=job["work_dir"])
    try:
        started = time.perf_counter()
        import repro
        from repro.engine import NKAEngine

        if store_dir is not None:
            populate = NKAEngine(store=store_dir)
            populate.equal_many_detailed(
                [(repro.parse(l), repro.parse(r)) for l, r in job["queries"]]
            )
            populate.close()
            first = NKAEngine(store=store_dir)
        else:
            first = NKAEngine(store=False)
        setup_s = time.perf_counter() - started
        from repro.serving import TenantConfig

        check_defaults(first, TenantConfig("defaults"))
        first.close()
        return {"setup_s": setup_s, **_timed_batches(job, workload, store_dir)}
    finally:
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)


def _timed_batches(job, workload, store_dir) -> dict:
    import repro
    from corpus import novel_queries
    from repro.core import clear_caches
    from repro.engine import NKAEngine
    from spans import Tracer, summarize

    tracer = Tracer() if job["trace"] else None
    answers = Answers()
    samples = {"untraced": [], "traced": []}
    answered = {"untraced": 0, "traced": 0}
    novel_index = 0
    sweep = 0
    phase_started = time.perf_counter()
    # Whole sweeps only, each over every query once, so every run samples
    # the same mix.  Each sweep batches the queries in a fresh seeded order:
    # the percentiles then rank many batch compositions, not one seed's few.
    # A traced run alternates untraced and traced sweeps, ending on a traced one.
    while (time.perf_counter() - phase_started < job["seconds"]
           or (tracer is not None and sweep % 2 == 1)):
        traced = tracer is not None and sweep % 2 == 1
        if not job["collect_per_batch"]:
            # A full collection costs about as much as a replica batch, so
            # that workload collects once per sweep: per batch would leave
            # under half of each process's time timed.
            gc.collect()
        if traced:
            tracer.install()
        order = [tuple(pair) for pair in job["queries"]]
        random.Random(f"{job['seed']}-{job['process']}-{sweep}").shuffle(order)
        size = job["batch_size"]
        batches = [order[i:i + size] for i in range(0, len(order), size)]
        for batch in batches + [[tuple(p) for p in b] for b in job["extra_batches"]]:
            if workload == "replica-store":
                novel = novel_queries(job["seed"], job["novel_per_batch"], novel_index)
                novel_index += len(novel)
                batch += [(q.left, q.right) for q in novel]
            clear_caches()
            if job["collect_per_batch"]:
                gc.collect()  # lowered same-batch jitter ~1.5x in an A/B test
            t0 = time.perf_counter()
            if store_dir is None:
                engine = NKAEngine(store=False)
            else:
                engine = NKAEngine(store=store_dir)
            parse = repro.parse  # looked up per batch: the tracer rebinds it
            pairs = [(parse(left), parse(right)) for left, right in batch]
            results = engine.equal_many_detailed(pairs)
            latency = time.perf_counter() - t0
            engine.close()
            phase = "traced" if traced else "untraced"
            samples[phase].append(latency)
            answered[phase] += len(results)
            for (left, right), result in zip(batch, results):
                answers.add(left, right, result)
        if traced:
            tracer.uninstall()
        sweep += 1
    out = {
        "samples": samples["untraced"],
        "answered": answered["untraced"],
        "answers": answers.as_list(),
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        out["trace"] = {
            "layers": summarize(tracer.spans, weighted=False),
            "absent": tracer.absent,
            "traced_samples": samples["traced"],
            "traced_answered": answered["traced"],
            "traced_busy_s": sum(samples["traced"]),
        }
    return out


# -- http-hot -------------------------------------------------------------------


def serve() -> None:
    started = time.perf_counter()
    import asyncio
    import threading

    import repro  # noqa: F401  (imported inside the timed set-up)
    from repro.serving import NKAService, ServingHTTPServer, TenantConfig

    async def main() -> None:
        config = TenantConfig("bench")
        service = NKAService([config])
        await service.start()
        server = ServingHTTPServer(service)
        await server.start()
        setup_s = time.perf_counter() - started
        check_defaults(service.engine("bench"), config)
        loop = asyncio.get_running_loop()
        commands: "asyncio.Queue[str]" = asyncio.Queue()

        def read_commands() -> None:
            for line in sys.stdin:
                loop.call_soon_threadsafe(commands.put_nowait, line.strip())
            loop.call_soon_threadsafe(commands.put_nowait, "stop")

        threading.Thread(target=read_commands, daemon=True).start()
        reply({"port": server.port, "setup_s": setup_s})
        from spans import Tracer, summarize

        tracer = Tracer()
        while True:
            command = await commands.get()
            if command == "trace on":
                tracer.install()
                reply({"ok": True})
            elif command == "trace off":
                tracer.uninstall()
                reply({"ok": True})
            elif command == "stop":
                break
        tracer.uninstall()
        await server.close()
        await service.close()
        reply({
            "peak_rss_mb": peak_rss_mb(),
            "trace": {
                "layers": summarize(tracer.spans, weighted=True),
                "absent": tracer.absent,
            },
        })

    asyncio.run(main())


def reply(document) -> None:
    sys.stdout.write(json.dumps(document) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    for name in PROGRAM_ENV:
        os.environ.pop(name, None)
    if sys.argv[1:] == ["serve"]:
        serve()
    else:
        reply(run_batch(json.load(sys.stdin)))
