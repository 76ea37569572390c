"""The repository benchmark: end-to-end and per-layer numbers for the NKA
decision service, with every verdict checked by an independent oracle.

Usage (from the repository root)::

    python3 nkabench/run.py --workload cold-corpus --seed 1 --seconds 30 --trace 0
    python3 nkabench/run.py --workload all --repeat 5 --seconds 30 --trace 1

One workload per call prints its metrics, one per line with units, and as
its last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer split
from a separate traced run with ``--trace 1``.  ``--workload all`` runs
every workload ``--repeat`` times, interleaved and each in a fresh process
with its own seed, and prints each metric's median and quartile spread.

Workloads (see BENCHMARK.json for why each exists):

* ``cold-corpus`` — the seeded corpus in batches, each parsed from text and
  decided on a fresh ``NKAEngine(store=False)`` after ``clear_caches()``;
* ``replica-store`` — set-up populates a ``CompileStore`` with one cold
  engine; each batch runs on a fresh replica engine mounting the store and
  replays known pairs plus a fixed share of never-seen pairs;
* ``http-hot`` — one default tenant behind ``ServingHTTPServer`` in a child
  process, two closed-loop connections posting ``POST /equal``: skewed
  repeats of a hot set, a few novel pairs, and a fixed slice of star nests
  deeper than the parser handles, which the server refuses with a 4xx.

The program runs with its shipped defaults (``program.EXPECTED_DEFAULTS``):
one worker, the python kernel, verdict inference off.  The worker pool, the
numpy kernels and ledger inference are therefore not measured.

The run fails (``correct: false``) if the oracle rejects any verdict, if a
query gets two different pickled answers, or if a workload's verdict
digest differs from an earlier run with the same seed in this checkout.
A run exits non-zero without a result when the program's sources are
missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import random
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(HERE, ".work")
WORKLOADS = ("cold-corpus", "replica-store", "http-hot")

# Fixed workload sizes.  A cold sweep (41 batches) takes ~2.7 s on a 2-vCPU
# x86 VM, so each of a 30 s run's five processes measures two whole sweeps.
# A replica batch is 60 known pairs and one novel pair, so that store writes
# (a file created and renamed per entry) are about a fifth of its traced time.
COLD_BULK, COLD_BATCH = 400, 10
REPLICA_KNOWN, REPLICA_BATCH, REPLICA_NOVEL = 300, 60, 1
HTTP_HOT, HTTP_CYCLE, HTTP_NOVEL, HTTP_DEEP = 40, 50, 2, 1
HTTP_CONNECTIONS = 2
DEEP_STAR_DEPTH = 400
PROCESSES = 5  # program processes per run, each set up and timed once
CHILD_TIMEOUT = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "answered_share": "ratio",
    "oracle_agreement": "ratio",
}

PER_LAYER_UNITS = {
    "parse.calls": "count", "parse.s": "s", "parse.share": "ratio",
    "plan.calls": "count", "plan.s": "s", "plan.queries": "count",
    "plan.tasks": "count", "plan.work_ratio": "ratio", "plan.share": "ratio",
    "store.read.calls": "count", "store.read.s": "s",
    "store.read.hit_ratio": "ratio", "store.write.calls": "count",
    "store.write.s": "s", "store.share": "ratio",
    "compile.calls": "count", "compile.s": "s", "compile.states": "count",
    "compile.share": "ratio",
    "decide.calls": "count", "decide.s": "s", "decide.share": "ratio",
    "engine.calls": "count", "engine.s": "s", "engine.self_s": "s",
    "engine.share": "ratio",
    "service.s": "s", "service.self_s": "s", "service.batch_size_mean": "count",
    "service.rejections": "count", "service.share": "ratio",
    "http.self_s": "s", "http.share": "ratio",
    "other.share": "ratio", "trace.overhead": "ratio",
}


def spawn_program(args: List[str], index: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=SRC)
    # The program's work depends on hash and address order (identical
    # verdicts, different iteration orders), which moves a process's speed
    # by up to ~30%.  Each run therefore measures PROCESSES processes, the
    # i-th with hash seed i, and pools or takes medians across them.
    env["PYTHONHASHSEED"] = str(index + 1)
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "program.py"), *args],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        cwd=ROOT, text=True,
    )


def run_job(job: dict, index: int) -> dict:
    child = spawn_program([], index)
    try:
        out, _ = child.communicate(json.dumps(job), timeout=CHILD_TIMEOUT)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0:
        raise SystemExit(f"program exited with {child.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def percentile(values: List[float], percent: int) -> float:
    """Nearest rank: the smallest sample with ``percent`` % of all samples
    at or below it (integer arithmetic, so 90 % of 100 samples is rank 90)."""
    ordered = sorted(values)
    return ordered[max(0, -(-percent * len(ordered) // 100) - 1)]


# -- workloads --------------------------------------------------------------------


def batch_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from corpus import build_corpus, tail_queries

    if name == "cold-corpus":
        queries = build_corpus(seed, COLD_BULK)
        # The size and determinization tail (~2 s cold) is one batch of its
        # own: it weighs on throughput, while the latency percentiles rank
        # the ordinary batches instead of jumping between tail members.
        tail = tail_queries(seed)
        job = {"queries": [q.key for q in queries], "batch_size": COLD_BATCH,
               "extra_batches": [[q.key for q in tail]], "collect_per_batch": True}
        queries += tail
    else:
        queries = build_corpus(seed, REPLICA_KNOWN)
        job = {"queries": [q.key for q in queries], "batch_size": REPLICA_BATCH,
               "extra_batches": [], "novel_per_batch": REPLICA_NOVEL,
               "collect_per_batch": False}
    os.makedirs(WORK_DIR, exist_ok=True)
    job.update(workload=name, seed=seed, seconds=seconds / PROCESSES,
               trace=trace, work_dir=WORK_DIR)
    expected = {q.key: q.expected for q in queries}
    processes = []
    for index in range(PROCESSES):
        result = run_job({**job, "process": index}, index)
        result["busy_s"] = sum(result["samples"])
        result["attempted"] = result["answered"]
        result["refusals_ok"] = True
        processes.append(result)
    return combine(processes, expected)


def combine(processes: List[dict], expected: dict) -> dict:
    """One run's figures from its program processes."""
    answers: Dict[Tuple[str, str], dict] = {}
    for process in processes:
        for entry in process["answers"]:
            merged = answers.setdefault((entry["left"], entry["right"]), entry)
            for digest in entry["digests"]:
                if digest not in merged["digests"]:
                    merged["digests"].append(digest)
    run = {
        "setups": [p["setup_s"] for p in processes],
        "latencies": [x for p in processes for x in p["samples"]],
        "answered": sum(p["answered"] for p in processes),
        "attempted": sum(p["attempted"] for p in processes),
        "busy_s": sum(p["busy_s"] for p in processes),
        "answers": list(answers.values()),
        "expected": expected,
        "refusals_ok": all(p["refusals_ok"] for p in processes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in processes),
        "trace": None,
    }
    traces = [p["trace"] for p in processes if p.get("trace")]
    if traces:
        layers: Dict[str, Dict[str, float]] = {}
        for trace in traces:
            for layer, row in trace["layers"].items():
                total = layers.setdefault(layer, {})
                for key, value in row.items():
                    total[key] = total.get(key, 0) + value
        run["trace"] = {
            "layers": layers,
            "absent": sorted({a for t in traces for a in t["absent"]}),
            "traced_samples": [x for t in traces for x in t["traced_samples"]],
            "traced_answered": sum(t["traced_answered"] for t in traces),
            "traced_busy_s": sum(t["traced_busy_s"] for t in traces),
            "stats_deltas": [d for t in traces for d in t.get("stats_deltas", [])],
        }
    return run


class Server:
    """The program's HTTP server in a child process, driven over stdin."""

    def __init__(self, index: int) -> None:
        self.child = spawn_program(["serve"], index)
        hello = self.read()
        self.port, self.setup_s = hello["port"], hello["setup_s"]

    def read(self) -> dict:
        line = self.child.stdout.readline()
        if not line:
            raise SystemExit("server process exited")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.child.stdin.write(text + "\n")
        self.child.stdin.flush()
        return self.read()

    def stop(self) -> dict:
        try:
            return self.command("stop")
        finally:
            self.child.stdin.close()
            try:
                self.child.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.child.kill()
                self.child.wait()


def http_workload(seed: int, seconds: float, trace: bool) -> dict:
    import loadgen
    from corpus import build_corpus, deep_star_text, novel_queries

    # Server and load generator share one CPU (the server inherits this
    # process's affinity): request hand-offs then never wait on a cross-CPU
    # wake-up, whose cost on a shared VM host swung throughput between
    # identical runs by up to 2x.  Each CPU's speed swings on its own, so
    # successive server processes take the CPUs in turn.
    cpus = sorted(os.sched_getaffinity(0))
    hot = build_corpus(seed, HTTP_HOT * 3)[:HTTP_HOT]
    deep = (deep_star_text(DEEP_STAR_DEPTH), deep_star_text(DEEP_STAR_DEPTH + 1))
    cycles = []
    for connection in range(HTTP_CONNECTIONS):
        rng = random.Random(f"http-{seed}-{connection}")
        picks = loadgen.zipf_cycle(rng, HTTP_HOT, HTTP_CYCLE - HTTP_NOVEL - HTTP_DEEP)
        cycle = [("hot", hot[i].key) for i in picks]
        step = HTTP_CYCLE // (HTTP_NOVEL + HTTP_DEEP)
        for slot in range(HTTP_NOVEL):
            cycle.insert(step * (slot + 1) - 1, ("novel", None))
        cycle.append(("deep", deep))
        cycles.append(cycle)
    novel_index = [0]

    def next_novel() -> Tuple[str, str]:
        novel_index[0] += 1
        return novel_queries(seed, 1, novel_index[0])[0].key

    expected = {q.key: q.expected for q in hot}
    processes = []
    for index in range(PROCESSES):
        os.sched_setaffinity(0, {cpus[index % len(cpus)]})
        server = Server(index)
        try:
            processes.append(
                http_process(server, hot, cycles, next_novel, seconds / PROCESSES, trace))
        finally:
            final = server.stop()
        processes[-1]["peak_rss_mb"] = final["peak_rss_mb"]
        if trace:
            processes[-1]["trace"].update(final["trace"])
    return combine(processes, expected)


def http_process(server: "Server", hot, cycles, next_novel, seconds: float,
                 trace: bool) -> dict:
    """Warm one server up, then load it; a traced run spends half of
    ``seconds`` untraced and half traced."""
    import loadgen

    outcomes = []
    for query in hot:  # warm-up: every hot pair once, untimed
        status, payload = loadgen.request(
            server.port, "POST", "/equal", loadgen.equal_body(*query.key))
        outcomes.append(("hot", query.left, query.right, status, payload))
    segments = []
    for traced in ([False, True] if trace else [False]):
        if traced:
            server.command("trace on")
        before = json.loads(loadgen.request(server.port, "GET", "/stats")[1])
        segment = loadgen.run_segment(
            server.port, cycles, next_novel, seconds / (2 if trace else 1))
        after = json.loads(loadgen.request(server.port, "GET", "/stats")[1])
        if traced:
            server.command("trace off")
        segment.update(traced=traced, before=before, after=after)
        segments.append(segment)
        outcomes += segment["outcomes"]
    measured = [s for s in segments if not s["traced"]]
    timed = [o for s in measured for o in s["outcomes"]]
    answers, refusals_ok = http_answers(outcomes)
    result = {
        "setup_s": server.setup_s,
        "samples": [x for s in measured for x in s["latencies"]],
        "answered": sum(1 for o in timed if o[3] == 200),
        "attempted": len(timed),
        "busy_s": sum(s["wall"] for s in measured),
        "answers": answers,
        "refusals_ok": refusals_ok,
    }
    if trace:
        traced = [s for s in segments if s["traced"]]
        result["trace"] = {
            "traced_samples": [x for s in traced for x in s["latencies"]],
            "traced_answered": sum(1 for s in traced for o in s["outcomes"] if o[3] == 200),
            "traced_busy_s": sum(s["wall"] for s in traced),
            "stats_deltas": [stats_delta(s["before"], s["after"]) for s in traced],
        }
    return result


def stats_delta(before: dict, after: dict) -> Dict[str, int]:
    old, new = before["tenants"]["bench"], after["tenants"]["bench"]
    return {key: new[key] - old[key] for key in ("completed", "batches", "rejected")}


def http_answers(outcomes) -> Tuple[List[dict], bool]:
    """Verdicts per query as the batch workloads report them; deep-star
    requests must be refused with a 4xx or answered (checked by the oracle)."""
    by_key: Dict[Tuple[str, str], dict] = {}
    refusals_ok = True
    for kind, left, right, status, payload in outcomes:
        if status != 200:
            refusals_ok &= kind == "deep" and 400 <= status < 500
            continue
        document = json.loads(payload)
        cex = document["counterexample"]
        verdict = [document["equal"], cex, document["reason"]]
        digest = hashlib.sha256(pickle.dumps(
            (verdict[0], None if cex is None else tuple(cex), verdict[2]))).hexdigest()
        entry = by_key.setdefault((left, right), {
            "left": left, "right": right, "verdict": verdict, "digests": []})
        if digest not in entry["digests"]:
            entry["digests"].append(digest)
    return list(by_key.values()), refusals_ok


# -- checks and metrics -----------------------------------------------------------


def check_answers(name: str, seed: int, run: dict) -> Tuple[float, bool]:
    """(oracle agreement, every other check passed)."""
    from oracle import Oracle

    oracle = Oracle()
    sys.setrecursionlimit(20000)  # the series evaluator recurses per node
    confirmed = 0
    consistent = True
    fixed = []
    fixed_keys = set(run["expected"])
    for entry in run["answers"]:
        key = (entry["left"], entry["right"])
        equal, cex, reason = entry["verdict"]
        verdict = (equal, None if cex is None else tuple(cex), reason)
        confirmed += oracle.confirms(*key, verdict, run["expected"].get(key))
        consistent &= len(entry["digests"]) == 1
        if key in fixed_keys:
            fixed.append((key, entry["digests"]))
    agreement = confirmed / max(1, len(run["answers"]))
    fixed.sort()
    digest = hashlib.sha256(json.dumps(fixed).encode()).hexdigest()
    # Keyed by the inputs too, so only the same queries must repeat.
    inputs = hashlib.sha256(json.dumps([k for k, _ in fixed]).encode()).hexdigest()
    repeatable = remember_digest(f"{name}:{seed}:{inputs[:16]}", digest)
    covered = len(fixed) == len(fixed_keys)
    return agreement, consistent and repeatable and covered and run["refusals_ok"]


def remember_digest(key: str, digest: str) -> bool:
    """True unless an earlier run in this checkout saw a different digest."""
    os.makedirs(WORK_DIR, exist_ok=True)
    path = os.path.join(WORK_DIR, "verdict-digests.json")
    try:
        with open(path) as handle:
            known = json.load(handle)
    except (OSError, ValueError):
        known = {}
    if known.setdefault(key, digest) != digest:
        return False
    fd, temporary = tempfile.mkstemp(dir=WORK_DIR)
    with os.fdopen(fd, "w") as handle:
        json.dump(known, handle, sort_keys=True)
    os.replace(temporary, path)
    return True


def end_to_end(run: dict, agreement: float) -> Dict[str, float]:
    latencies = run["latencies"]
    return {
        "setup_s": statistics.median(run["setups"]),
        # Pooled over the processes: the host's speed swings by up to ~40%
        # for seconds at a time, and a total moves with the share of time
        # spent slow, where a median of five jumps between the two levels.
        "verdicts_per_s": run["answered"] / run["busy_s"],
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_p90_ms": 1000.0 * percentile(latencies, 90),
        "peak_rss_mb": run["peak_rss_mb"],
        "answered_share": run["answered"] / run["attempted"],
        "oracle_agreement": agreement,
    }


def per_layer(name: str, run: dict) -> Dict[str, float]:
    trace = run["trace"]
    layers = trace["layers"]
    traced_latency = sum(trace["traced_samples"])
    traced_vps = trace["traced_answered"] / trace["traced_busy_s"]
    untraced_vps = run["answered"] / run["busy_s"]

    def get(layer: str, key: str) -> float:
        return float(layers[layer].get(key, 0.0))

    def share(seconds: float) -> float:
        return seconds / traced_latency

    service_s = get("service", "s")
    service_self = max(0.0, service_s - get("engine", "weighted_s"))
    http_self = 0.0
    batch_size = rejections = 0.0
    if name == "http-hot":
        http_self = max(0.0, traced_latency - service_s - get("parse", "s"))
        deltas = trace["stats_deltas"]
        batches = sum(d["batches"] for d in deltas)
        batch_size = sum(d["completed"] for d in deltas) / max(1, batches)
        rejections = sum(d["rejected"] for d in deltas)
    reads = get("store.read", "lookups")
    queries = get("plan", "queries")
    metrics = {
        "parse.calls": get("parse", "calls"),
        "parse.s": get("parse", "s"),
        "parse.share": share(get("parse", "weighted_self_s")),
        "plan.calls": get("plan", "calls"),
        "plan.s": get("plan", "s"),
        "plan.queries": queries,
        "plan.tasks": get("plan", "tasks"),
        "plan.work_ratio": get("plan", "tasks") / queries if queries else 0.0,
        "plan.share": share(get("plan", "weighted_self_s")),
        "store.read.calls": get("store.read", "calls"),
        "store.read.s": get("store.read", "s"),
        "store.read.hit_ratio": get("store.read", "hits") / reads if reads else 0.0,
        "store.write.calls": get("store.write", "calls"),
        "store.write.s": get("store.write", "s"),
        "store.share": share(get("store.read", "weighted_self_s")
                             + get("store.write", "weighted_self_s")),
        "compile.calls": get("compile", "calls"),
        "compile.s": get("compile", "s"),
        "compile.states": get("compile", "states"),
        "compile.share": share(get("compile", "weighted_self_s")),
        "decide.calls": get("decide", "calls"),
        "decide.s": get("decide", "s"),
        "decide.share": share(get("decide", "weighted_self_s")),
        "engine.calls": get("engine", "calls"),
        "engine.s": get("engine", "s"),
        "engine.self_s": get("engine", "self_s"),
        "engine.share": share(get("engine", "weighted_self_s")),
        "service.s": service_s,
        "service.self_s": service_self,
        "service.batch_size_mean": batch_size,
        "service.rejections": rejections,
        "service.share": share(service_self),
        "http.self_s": http_self,
        "http.share": share(http_self),
        "trace.overhead": 1.0 - traced_vps / untraced_vps,
    }
    shares = [v for k, v in metrics.items() if k.endswith(".share")]
    metrics["other.share"] = 1.0 - sum(shares)
    return metrics


def design_check(name: str, run: dict, metrics: Dict[str, float]) -> Tuple[str, bool]:
    """The property each workload was designed for, read off the trace."""
    if name == "cold-corpus":
        share = metrics["compile.share"] + metrics["decide.share"]
        return f"compile + decide = {100 * share:.1f}% of latency (want > 50%)", share > 0.5
    if name == "replica-store":
        novel_exprs = 2 * REPLICA_NOVEL * len(run["trace"]["traced_samples"])
        calls = metrics["compile.calls"]
        return (f"{calls:.0f} compiles for {novel_exprs} novel expressions "
                "(want no more)"), calls <= novel_exprs
    front = metrics["http.share"] + metrics["service.share"] + metrics["parse.share"]
    return (f"http + service + parse = {100 * front:.1f}% vs compile "
            f"{100 * metrics['compile.share']:.1f}% (want more)"), front > metrics["compile.share"]


def layer_report(name: str, run: dict, metrics: Dict[str, float]) -> List[str]:
    absent = run["trace"]["absent"]
    lines = [f"# {name}: self-time share of traced latency, per layer"]
    for layer in ("http", "parse", "service", "engine", "plan", "store",
                  "compile", "decide", "other"):
        counts = ", ".join(
            f"{k.split('.', 1)[1]}={metrics[k]:.6g}" for k in metrics
            if k.startswith(layer + ".") and not k.endswith(".share"))
        lines.append(f"#   {layer:8s} {100 * metrics[layer + '.share']:6.2f}%  {counts}")
    lines.append(f"#   trace.overhead {100 * metrics['trace.overhead']:.2f}%")
    if absent:
        lines.append(f"#   absent entry points: {', '.join(absent)}")
    text, holds = design_check(name, run, metrics)
    lines.append(f"#   design check: {text}: {'holds' if holds else 'DOES NOT HOLD'}")
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name == "http-hot":
        run = http_workload(seed, seconds, trace)
    else:
        run = batch_workload(name, seed, seconds, trace)
    agreement, checks_ok = check_answers(name, seed, run)
    correct = checks_ok and agreement == 1.0
    if trace:
        metrics = per_layer(name, run)
        units = PER_LAYER_UNITS
        report = layer_report(name, run, metrics)
    else:
        metrics = end_to_end(run, agreement)
        units = END_TO_END_UNITS
        report = []
    for key, value in metrics.items():
        report.append(f"{name} {key} = {value:.6g} {units[key]}")
    return {
        "report": report,
        "result": {
            "correct": correct,
            "attempted": run["attempted"],
            # Refusals of the deep-star slice are expected outcomes and show
            # in answered_share; an incorrect run counts every attempt failed.
            "failed": 0 if correct else run["attempted"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


# -- all workloads ---------------------------------------------------------------


def run_all(repeat: int, seed: int, seconds: float, trace: bool) -> dict:
    """Every workload ``repeat`` times, interleaved, one process per run."""
    values: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    correct, attempted, failed = True, 0, 0
    for round_index in range(repeat):
        order = WORKLOADS[round_index % 3:] + WORKLOADS[:round_index % 3]
        for name in order:
            command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                       "--seed", str(seed + round_index), "--seconds", str(seconds),
                       "--trace", str(int(trace))]
            started = time.perf_counter()
            out = subprocess.run(command, capture_output=True, text=True,
                                 cwd=ROOT, timeout=600, check=True).stdout
            lines = out.strip().splitlines()
            for line in lines[:-1]:
                print(line, flush=True)
            result = json.loads(lines[-1])
            print(f"# {name} seed={seed + round_index} correct={result['correct']} "
                  f"took {time.perf_counter() - started:.1f} s", flush=True)
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for key, metric in result["metrics"].items():
                values.setdefault(f"{name}.{key}", []).append(metric["value"])
                units[f"{name}.{key}"] = metric["unit"]
    print("# metric: median [q1, q3] spread=(q3-q1)/median")
    for key, series in values.items():
        median = statistics.median(series)
        if len(series) >= 2:
            q1, _, q3 = statistics.quantiles(series, n=4)
        else:
            q1 = q3 = series[0]
        spread = (q3 - q1) / median if median else 0.0
        print(f"{key} = {median:.6g} {units[key]} [{q1:.6g}, {q3:.6g}] "
              f"spread={100 * spread:.2f}%")
        correct &= not key.endswith("oracle_agreement") or min(series) == 1.0
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": statistics.median(v), "unit": units[k]}
                    for k, v in values.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="rounds of every workload with --workload all")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    if args.workload == "all":
        result = run_all(args.repeat, args.seed, args.seconds, bool(args.trace))
    else:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        for line in outcome["report"]:
            print(line)
        result = outcome["result"]
    print(json.dumps(result), flush=True)
    # A single run reports correctness in its result; "all" is the gate.
    return 0 if result["correct"] or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
