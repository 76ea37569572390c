"""ENGINE — batched decision throughput: planner + workers + warm start.

The ROADMAP north-star is a serving system: many related equality queries
arriving in batches, answered from warm caches where possible.  This bench
measures the three levers the engine subsystem adds over the PR 3 sequential
batch API:

* **planning** — dedupe by interned identity, per-pair alphabets (the PR 3
  path compiled everything over the whole batch's *union* alphabet, so
  every Tzeng advance paid for letters the pair never mentions), and
  cheapest-first ordering;
* **parallel execution** — independent planned queries on the engine's
  *persistent* worker pool (PR 5): workers start once per engine, keep
  their compile memos across batches, and warm the parent's WFA cache
  through the warm-back channel; a second distinct batch on a warm pool
  is compared against forcing a fresh pool per batch (the PR 4
  behaviour) and gated in CI;
* **warm start** — a fresh engine loaded from a persisted warm state must
  answer the whole batch with *zero* compilations;
* **cold compile** — a fresh engine compiles then decides the batch
  (``cold``); the cold compile must take no longer than the numpy cold
  compile of the ε-closure pipeline the position automaton replaced
  (``--check``, :data:`EPSILON_CLOSURE_NUMPY_COMPILE_SECONDS`);
* **compile store** (PR 8) — two fresh engines sharing one
  content-addressed :class:`~repro.engine.store.CompileStore`: the first
  (``store_cold``) compiles + publishes everything, the second
  (``store_served``) must answer the same batch with *zero* compilations
  in at most 10% of the cold compile time (``--check``); store
  hit/publish counters land in the JSON;
* **verdict tier** (PR 9) — a ``chain`` workload of k pairwise-equal
  re-associations: deciding the k−1 adjacent pairs seeds the union–find
  verdict ledger, and the full C(k,2) closure must then be answered by
  transitive inference alone (``--check``: ≤ k−1 Tzeng decisions, ≥10×
  closure speedup vs inference-off, and a store-served replica with zero
  compilations *and* zero decisions).

The baseline below is a faithful reimplementation of the PR 3 sequential
``nka_equal_many``: union-alphabet compilation + the dense-iteration Tzeng
loop it shipped with (kept verbatim here) — so the measured gap is the
engine's, not an artifact of unrelated pipeline improvements.  Verdict
booleans are asserted identical between baseline and every engine
configuration.

Run directly for a JSON report (CI uploads it and gates on the 2-worker
sweep beating the baseline)::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py \
        --pairs 240 --workers 1 2 4 --json BENCH_engine.json --check
"""

import argparse
import json
import random
import sys
import time

import pytest

try:
    from benchmarks.conftest import report
except ModuleNotFoundError:  # invoked as a script
    import pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
    from benchmarks.conftest import report

try:
    from gen import random_pairs
except ModuleNotFoundError:
    import pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
    from gen import random_pairs

from functools import reduce

from repro.automata.equivalence import EquivalenceResult, wfa_equivalent
from repro.automata.wfa import expr_to_wfa
from repro.core.decision import clear_caches
from repro.core.expr import Product, Star, Sum, alphabet, product_factors, sym
from repro.engine import NKAEngine
from repro.linalg import RowSpace, reachable

# ``kernel_numpy_cold.compile_seconds`` of the Thompson + ε-closure
# pipeline, the last one with a numpy star kernel: BENCH_engine.json
# refreshed at that commit (--pairs 240 --workers 1 2 4, best of 5 rounds,
# 2-core x86_64 box).  The ``--check`` compile gate holds the cold
# compile of the position automaton to at most this.
EPSILON_CLOSURE_NUMPY_COMPILE_SECONDS = 0.1939

# -- the PR 3 sequential baseline (union alphabet + dense-iteration Tzeng) ------


def _pr3_reachable_count(wfa) -> int:
    seeds = (i for i, w in enumerate(wfa.initial) if not w.is_zero)
    return len(reachable(wfa._support_adjacency(), seeds))


def _pr3_vector_matrix(vector, offset, wfa, letter):
    n = wfa.num_states
    result = [0] * n
    matrix = wfa.matrices.get(letter)
    if matrix is None:
        return result
    rows = matrix.rows
    for i in range(n):
        value = vector[offset + i]
        if not value:
            continue
        row = rows.get(i)
        if row is None:
            continue
        for j, weight in row.items():
            result[j] += value * weight.finite_value
    return result


def _pr3_tzeng(left, right) -> EquivalenceResult:
    """The PR 3 joint-basis loop: dense per-state iteration, no letter masks."""
    dim = left.num_states + right.num_states
    final_functional = tuple(
        [w.finite_value for w in left.final] + [-w.finite_value for w in right.final]
    )
    start = tuple(
        [w.finite_value for w in left.initial] + [w.finite_value for w in right.initial]
    )
    letters = sorted(left.alphabet | right.alphabet)
    bound = _pr3_reachable_count(left) + _pr3_reachable_count(right)
    basis = RowSpace(dim)
    queue = []
    if basis.insert(dict(enumerate(start))):
        queue.append((start, ()))
    while queue:
        vector, word = queue.pop(0)
        if sum(a * b for a, b in zip(vector, final_functional)) != 0:
            return EquivalenceResult(
                equal=False, counterexample=word,
                reason=f"finite coefficients differ on word {' '.join(word) or 'ε'}",
            )
        if basis.rank >= bound:
            continue
        n_left = left.num_states
        for letter in letters:
            successor = tuple(
                _pr3_vector_matrix(vector, 0, left, letter)
                + _pr3_vector_matrix(vector, n_left, right, letter)
            )
            if basis.insert(dict(enumerate(successor))):
                queue.append((successor, word + (letter,)))
    return EquivalenceResult(equal=True, counterexample=None, reason="Tzeng basis exhausted")


def _pr3_wfa_equal(left, right) -> bool:
    """Baseline equality: the all-finite fast path straight into PR 3 Tzeng.

    The generated workload carries no ∞ weights (checked below), so this is
    exactly the path the PR 3 pipeline took on it; ∞-carrying pairs would
    fall back to the current staged procedure for both contenders alike.
    """
    def has_inf(wfa):
        return (
            any(w.is_infinite for w in wfa.initial)
            or any(w.is_infinite for w in wfa.final)
            or any(
                w.is_infinite
                for m in wfa.matrices.values()
                for _i, _j, w in m.entries()
            )
        )

    if has_inf(left) or has_inf(right):
        return wfa_equivalent(left, right).equal
    return _pr3_tzeng(left, right).equal


def pr3_sequential_many(pairs):
    """PR 3 ``nka_equal_many``: one union alphabet, per-batch dict caches."""
    sigma = frozenset()
    for left, right in pairs:
        sigma = sigma | alphabet(left) | alphabet(right)
    compiled = {}
    verdicts = {}
    answers = []
    for left, right in pairs:
        if left is right:
            answers.append(True)
            continue
        key = (left, right)
        if key in verdicts or (right, left) in verdicts:
            answers.append(verdicts.get(key, verdicts.get((right, left))))
            continue
        for expr in (left, right):
            if expr not in compiled:
                compiled[expr] = expr_to_wfa(expr, extra_alphabet=sigma)
        verdict = _pr3_wfa_equal(compiled[left], compiled[right])
        verdicts[key] = verdict
        answers.append(verdict)
    return answers


# -- workload -------------------------------------------------------------------


ALPHABET_GROUPS = (("a", "b"), ("c", "d"), ("e", "f"), ("g", "h"))


def _ac_variant(expr):
    """A derivable-but-distinct twin: commute sums, right-associate products.

    Real serving traffic (axiom sweeps, normal-form checks) is full of
    *derivable* equalities whose sides differ as binary trees; these force
    Tzeng to run to basis exhaustion — the expensive ``True`` case the
    counterexample-heavy random pairs under-represent.
    """
    if isinstance(expr, Sum):
        return Sum(_ac_variant(expr.right), _ac_variant(expr.left))
    if isinstance(expr, Product):
        factors = [_ac_variant(f) for f in product_factors(expr)]
        if len(factors) == 1:
            return factors[0]
        return reduce(
            lambda acc, factor: Product(factor, acc), reversed(factors[:-1]), factors[-1]
        )
    if isinstance(expr, Star):
        return Star(_ac_variant(expr.body))
    return expr


def mixed_batch(total_pairs: int, seed: int = 2024):
    """A serving-shaped batch: alphabet groups, shared subterms, duplicates.

    Per group: seeded random pairs (small symbol pools ⇒ heavy subterm
    sharing) plus derivable AC-variant pairs; the groups are interleaved
    and ~20% of positions are resampled duplicates — some flipped — of
    earlier ones: the dedupe fodder real traffic carries.
    """
    per_group = max(2, total_pairs // len(ALPHABET_GROUPS))
    random_count = max(1, (per_group * 3) // 4)
    pool = []
    for index, letters in enumerate(ALPHABET_GROUPS):
        group = random_pairs(
            seed=seed + index, count=random_count, letters=letters,
            depth=7, equal_fraction=0.1, star_bias=0.3,
        )
        pool.extend(group)
        pool.extend(
            (left, _ac_variant(left))
            for left, _right in group[: per_group - random_count]
        )
    rng = random.Random(seed)
    rng.shuffle(pool)
    batch = list(pool[:total_pairs])
    duplicates = max(1, len(batch) // 5)
    for _ in range(duplicates):
        left, right = batch[rng.randrange(len(batch))]
        if rng.random() < 0.5:
            left, right = right, left  # symmetric flips dedupe too
        batch.append((left, right))
    return batch


def _cold() -> None:
    """Forget every derived artefact (global memos + default session)."""
    clear_caches()


def run_suite(total_pairs, workers_sweep, json_path=None, check=False, rounds=3):
    batch = mixed_batch(total_pairs)
    results = {
        "pairs": len(batch),
        "alphabet_groups": len(ALPHABET_GROUPS),
        "rounds": rounds,
        "configs": {},
    }

    # Every timing below is best-of-``rounds`` with a cold cache each
    # round, and the baseline + worker configs are measured *interleaved
    # within each round* rather than section by section: a throttled
    # 1-core runner can drift 20-30% over a minute, which would decide
    # the parallel-vs-sequential gate if the contenders ran minutes
    # apart.
    baseline_seconds = float("inf")
    baseline = None
    best_by_workers = {}
    for _ in range(rounds):
        _cold()
        started = time.perf_counter()
        round_baseline = pr3_sequential_many(batch)
        elapsed = time.perf_counter() - started
        if elapsed < baseline_seconds:
            baseline_seconds, baseline = elapsed, round_baseline
        for workers in workers_sweep:
            _cold()
            candidate = NKAEngine(f"bench-w{workers}")
            started = time.perf_counter()
            candidate_verdicts = candidate.equal_many(batch, workers=workers)
            seconds = time.perf_counter() - started
            candidate.close()  # caches survive close; only the pool goes
            previous = best_by_workers.get(workers)
            if previous is None or seconds < previous[0]:
                best_by_workers[workers] = (seconds, candidate, candidate_verdicts)
    results["configs"]["pr3_sequential"] = {"seconds": round(baseline_seconds, 4)}

    verdicts_by_config = {}
    warm_source = None
    for workers in workers_sweep:
        best_seconds, engine, verdicts = best_by_workers[workers]
        stats = engine.stats()
        results["configs"][f"engine_cold_w{workers}"] = {
            "seconds": round(best_seconds, 4),
            "speedup_vs_pr3": round(baseline_seconds / best_seconds, 2),
            "planner": stats["planner"],
            "executor": stats["last_batch"]["executor"],
            "compilations": stats["compilations"],
            "warm_back": stats["warm_back"],
        }
        verdicts_by_config[f"w{workers}"] = verdicts
        if warm_source is None:
            warm_source = engine

    # -- cold compile, then decide, on a fresh engine ----------------------
    # Each metric keeps its own best-of-rounds (the compile gate compares
    # the best *compile* round, not the compile time that happened to
    # accompany the best total), and this section gets extra rounds: the
    # compile gate rides on it, and a throttled runner needs more chances
    # at one quiet round.
    cold_best = {"compile": float("inf"), "decide": float("inf"),
                 "total": float("inf"), "verdicts": None}
    for _ in range(max(rounds, 5)):
        _cold()
        with NKAEngine("bench-cold") as candidate:
            started = time.perf_counter()
            for left, right in batch:
                candidate.compile(left)
                candidate.compile(right)
            compile_seconds = time.perf_counter() - started
            started = time.perf_counter()
            candidate_verdicts = candidate.equal_many(batch)
            decide_seconds = time.perf_counter() - started
        cold_best["compile"] = min(cold_best["compile"], compile_seconds)
        cold_best["decide"] = min(cold_best["decide"], decide_seconds)
        if compile_seconds + decide_seconds < cold_best["total"]:
            cold_best["total"] = compile_seconds + decide_seconds
            cold_best["verdicts"] = candidate_verdicts
    results["configs"]["cold"] = {
        "compile_seconds": round(cold_best["compile"], 4),
        "decide_seconds": round(cold_best["decide"], 4),
        "total_seconds": round(cold_best["total"], 4),
        "compile_gate_seconds": EPSILON_CLOSURE_NUMPY_COMPILE_SECONDS,
    }
    verdicts_by_config["cold"] = cold_best["verdicts"]

    # -- persistent pool vs fresh fork: the PR 5 tentpole lever ------------
    # Same engine, two different *distinct* batches: the first starts and
    # warms the pool, the timed second batch either reuses those live
    # workers (persistent) or pays pool start-up again after recycle_pool()
    # — which is exactly the per-batch fork cost the PR 4 executor paid on
    # every call.
    batch2 = mixed_batch(total_pairs, seed=4048)
    second_batch = {}
    for label, recycle in (("pool_persistent", False), ("fresh_fork", True)):
        best_seconds = float("inf")
        best_stats = best_verdicts = None
        for _ in range(rounds):
            _cold()
            with NKAEngine(f"bench-{label}", workers=2) as candidate:
                candidate.equal_many(batch, workers=2)
                if recycle:
                    candidate.recycle_pool()
                started = time.perf_counter()
                candidate_verdicts = candidate.equal_many(batch2, workers=2)
                seconds = time.perf_counter() - started
                stats = candidate.stats()
            if seconds < best_seconds:
                best_seconds, best_stats, best_verdicts = (
                    seconds, stats, candidate_verdicts,
                )
        second_batch[label] = {
            "seconds": best_seconds,
            "mode": best_stats["last_batch"]["executor"]["mode"],
            "verdicts": best_verdicts,
            "pool": best_stats["executor"]["pool"],
        }
    assert second_batch["pool_persistent"]["verdicts"] == second_batch[
        "fresh_fork"
    ]["verdicts"], "second-batch verdict divergence between pool configs"
    persistent_seconds = second_batch["pool_persistent"]["seconds"]
    fresh_seconds = second_batch["fresh_fork"]["seconds"]
    results["configs"]["engine_pool_second_batch"] = {
        "seconds": round(persistent_seconds, 4),
        "mode": second_batch["pool_persistent"]["mode"],
        "speedup_vs_fresh_fork": round(fresh_seconds / persistent_seconds, 3),
    }
    results["configs"]["engine_fresh_fork_second_batch"] = {
        "seconds": round(fresh_seconds, 4),
        "mode": second_batch["fresh_fork"]["mode"],
    }

    # Warm start: persist the first engine's caches, reload into a fresh
    # session, answer the whole batch again.
    import tempfile, os

    state_descriptor, state_path = tempfile.mkstemp(suffix=".nka-warm")
    os.close(state_descriptor)  # save_warm_state replaces the file atomically
    warm_source.save_warm_state(state_path)
    warm_seconds = float("inf")
    warmed = warm_verdicts = None
    for _ in range(rounds):
        candidate = NKAEngine("bench-warm", warm_state=state_path)
        started = time.perf_counter()
        candidate_verdicts = candidate.equal_many(batch)
        seconds = time.perf_counter() - started
        if seconds < warm_seconds:
            warm_seconds, warmed, warm_verdicts = seconds, candidate, candidate_verdicts
    warm_stats = warmed.stats()
    results["configs"]["engine_warm_reload"] = {
        "seconds": round(warm_seconds, 4),
        "speedup_vs_pr3": round(baseline_seconds / warm_seconds, 2),
        "compilations": warm_stats["compilations"],
        "planner": warm_stats["planner"],
        "state_bytes": os.path.getsize(state_path),
    }
    verdicts_by_config["warm"] = warm_verdicts
    os.unlink(state_path)

    # -- compile store: fleet-wide warm reuse (PR 8 tentpole) ---------------
    # Two fresh engines against one shared CompileStore directory: the
    # *cold* one faces an empty store (compiles + publishes everything),
    # the *served* one runs right after against the populated store and
    # must compile nothing — its automata all deserialize off disk.  Both
    # are timed on the same compile-loop + equal_many shape as the cold
    # section, best-of-rounds per metric, store wiped before each cold
    # round so a round never rides the previous round's publishes.
    import shutil

    store_root = tempfile.mkdtemp(suffix=".nka-store")
    store_best = {
        label: {"compile": float("inf"), "decide": float("inf"),
                "total": float("inf"), "stats": None, "verdicts": None}
        for label in ("store_cold", "store_served")
    }
    for _ in range(rounds):
        shutil.rmtree(store_root, ignore_errors=True)
        for label in ("store_cold", "store_served"):
            _cold()
            with NKAEngine(f"bench-{label}", store=store_root) as candidate:
                started = time.perf_counter()
                for left, right in batch:
                    candidate.compile(left)
                    candidate.compile(right)
                compile_seconds = time.perf_counter() - started
                started = time.perf_counter()
                candidate_verdicts = candidate.equal_many(batch)
                decide_seconds = time.perf_counter() - started
                stats = candidate.stats()
            if label == "store_served":
                assert stats["compilations"] == 0, (
                    f"store-served engine compiled {stats['compilations']} automata"
                )
            best = store_best[label]
            best["compile"] = min(best["compile"], compile_seconds)
            best["decide"] = min(best["decide"], decide_seconds)
            if compile_seconds + decide_seconds < best["total"]:
                best.update(
                    total=compile_seconds + decide_seconds,
                    stats=stats, verdicts=candidate_verdicts,
                )
    for label, best in store_best.items():
        results["configs"][label] = {
            "compile_seconds": round(best["compile"], 4),
            "decide_seconds": round(best["decide"], 4),
            "total_seconds": round(best["total"], 4),
            "compilations": best["stats"]["compilations"],
            "store": best["stats"]["store"],
        }
        verdicts_by_config[label] = best["verdicts"]
    results["configs"]["store_served"]["compile_speedup_vs_cold"] = round(
        store_best["store_cold"]["compile"] / store_best["store_served"]["compile"], 2
    )
    shutil.rmtree(store_root, ignore_errors=True)

    # -- verdict tier: transitive inference over a chained family (PR 9) ----
    # k distinct re-associations of one k-symbol product are pairwise equal;
    # deciding the k−1 *adjacent* pairs seeds the engine's verdict ledger,
    # after which the whole C(k,2) closure is inferred by union–find lookup
    # — zero further compiles, zero further Tzeng runs.  The inference-off
    # contender pays a Tzeng run per closure pair from the same warm compile
    # cache, so the timed gap is the verdict tier's alone.  Finally a fresh
    # replica against the shared store answers *everything* — adjacent pairs
    # off the fleet verdict store, closure off its own (store-seeded)
    # ledger — without a single compile or decision.
    chain_k, chain_factors = 12, 12
    chain_rng = random.Random(9090)
    chain_syms = [sym(f"ch{i}") for i in range(chain_factors)]

    def _chain_assoc(lo, hi):
        if hi - lo == 1:
            return chain_syms[lo]
        split = chain_rng.randint(lo + 1, hi - 1)
        return Product(_chain_assoc(lo, split), _chain_assoc(split, hi))

    chain_family, chain_seen = [], set()
    while len(chain_family) < chain_k:
        expr = _chain_assoc(0, chain_factors)
        if expr not in chain_seen:
            chain_seen.add(expr)
            chain_family.append(expr)
    adjacent = list(zip(chain_family, chain_family[1:]))
    closure = [
        (chain_family[i], chain_family[j])
        for i in range(chain_k)
        for j in range(i + 2, chain_k)
    ]

    chain_root = tempfile.mkdtemp(suffix=".nka-verdicts")
    chain_best = {
        "on": {"seconds": float("inf"), "stats": None, "verdicts": None},
        "off": {"seconds": float("inf"), "verdicts": None},
    }
    for _ in range(rounds):
        shutil.rmtree(chain_root, ignore_errors=True)
        _cold()
        with NKAEngine(
            "bench-chain-on", store=chain_root, infer_verdicts=True
        ) as candidate:
            candidate.equal_many(adjacent)
            started = time.perf_counter()
            candidate_verdicts = candidate.equal_many(closure)
            seconds = time.perf_counter() - started
            stats = candidate.stats()
        if seconds < chain_best["on"]["seconds"]:
            chain_best["on"].update(
                seconds=seconds, stats=stats, verdicts=candidate_verdicts
            )
        _cold()
        with NKAEngine("bench-chain-off", infer_verdicts=False) as candidate:
            candidate.equal_many(adjacent)
            started = time.perf_counter()
            candidate_verdicts = candidate.equal_many(closure)
            seconds = time.perf_counter() - started
        if seconds < chain_best["off"]["seconds"]:
            chain_best["off"].update(seconds=seconds, verdicts=candidate_verdicts)
    assert chain_best["on"]["verdicts"] == chain_best["off"]["verdicts"], (
        "chain closure verdict divergence between inference configs"
    )
    # The replica runs against the store the *last* round populated.
    _cold()
    with NKAEngine(
        "bench-chain-replica", store=chain_root, infer_verdicts=True
    ) as replica:
        replica_adjacent = replica.equal_many(adjacent)
        replica_closure = replica.equal_many(closure)
        replica_stats = replica.stats()
    assert replica_closure == chain_best["on"]["verdicts"], (
        "chain replica closure verdict divergence"
    )
    assert replica_adjacent == [True] * len(adjacent)
    shutil.rmtree(chain_root, ignore_errors=True)
    chain_on_stats = chain_best["on"]["stats"]
    results["configs"]["chain_infer_on"] = {
        "family": chain_k,
        "adjacent_pairs": len(adjacent),
        "closure_pairs": len(closure),
        "closure_seconds": round(chain_best["on"]["seconds"], 4),
        "closure_speedup_vs_off": round(
            chain_best["off"]["seconds"] / chain_best["on"]["seconds"], 2
        ),
        "decisions": chain_on_stats["decisions"],
        "inferred_equal": chain_on_stats["verdicts"]["inferred_equal"],
    }
    results["configs"]["chain_infer_off"] = {
        "closure_seconds": round(chain_best["off"]["seconds"], 4),
    }
    results["configs"]["chain_store_served"] = {
        "compilations": replica_stats["compilations"],
        "decisions": replica_stats["decisions"],
        "verdict_store_hits": replica_stats["verdicts"]["store_hits"],
        "inferred_equal": replica_stats["verdicts"]["inferred_equal"],
    }

    for label, verdicts in verdicts_by_config.items():
        assert verdicts == baseline, f"verdict divergence in config {label}"
    results["verdicts_identical"] = True

    if json_path:
        with open(json_path, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)

    if check:
        two_worker = results["configs"].get("engine_cold_w2")
        assert two_worker is not None, "--check needs workers sweep to include 2"
        if two_worker["executor"]["mode"] == "pool":
            # Real cores available: parallel must beat the sequential
            # baseline outright.
            assert two_worker["seconds"] <= baseline_seconds, (
                "parallel batch throughput fell below the sequential baseline: "
                f"{two_worker['seconds']:.3f}s vs {baseline_seconds:.3f}s"
            )
        else:
            # Single-core box: the executor rightly degraded to in-process
            # execution, so "parallel" can only tie the sequential engine —
            # require it within a 10% noise band of the baseline.
            assert two_worker["seconds"] <= baseline_seconds * 1.10, (
                "degraded (single-core) engine batch fell >10% behind the "
                f"baseline: {two_worker['seconds']:.3f}s vs {baseline_seconds:.3f}s"
            )
        pooled = results["configs"]["engine_pool_second_batch"]
        fresh = results["configs"]["engine_fresh_fork_second_batch"]
        if pooled["mode"] == "pool" and fresh["mode"] == "pool":
            # The persistent pool's second batch skips pool start-up that
            # the fresh-fork path pays; best-of-N minima must show it
            # (1.05 = timer-noise allowance, not a hedge on the lever).
            assert pooled["seconds"] <= fresh["seconds"] * 1.05, (
                "persistent pool lost its second-batch advantage: "
                f"{pooled['seconds']:.3f}s vs fresh-fork {fresh['seconds']:.3f}s"
            )
        assert results["configs"]["engine_warm_reload"]["compilations"] == 0, (
            "warm-state reload compiled automata"
        )
        # The compile gate: the pure-python position automaton compiles
        # the batch no slower than the numpy ε-closure pipeline did.
        cold_compile = results["configs"]["cold"]["compile_seconds"]
        assert cold_compile <= EPSILON_CLOSURE_NUMPY_COMPILE_SECONDS, (
            "python cold compile exceeded the ε-closure numpy baseline: "
            f"{cold_compile:.4f}s vs {EPSILON_CLOSURE_NUMPY_COMPILE_SECONDS}s"
        )
        # The compile store's headline gate: an engine served entirely out
        # of a fleet-populated store compiles nothing and spends at most
        # 10% of the cold engine's compile time deserializing it all.
        served = results["configs"]["store_served"]
        cold = results["configs"]["store_cold"]
        assert served["compilations"] == 0, (
            f"store-served engine compiled {served['compilations']} automata"
        )
        assert served["compile_seconds"] <= cold["compile_seconds"] * 0.1, (
            "store-served compile phase exceeded 10% of cold compile: "
            f"{served['compile_seconds']:.3f}s vs {cold['compile_seconds']:.3f}s"
        )
        # The verdict tier's headline gates (PR 9): k−1 adjacent decisions
        # buy the whole C(k,2) closure — no further Tzeng runs, a ≥10×
        # closure-phase speedup over the inference-off engine, and a
        # store-served replica that never compiles or decides at all.
        chain_on = results["configs"]["chain_infer_on"]
        assert chain_on["decisions"] <= chain_on["family"] - 1, (
            f"chain inference ran {chain_on['decisions']} Tzeng decisions, "
            f"budget was {chain_on['family'] - 1}"
        )
        assert chain_on["closure_speedup_vs_off"] >= 10.0, (
            "closure inference speedup fell below the 10x gate: "
            f"{chain_on['closure_speedup_vs_off']}x"
        )
        chain_replica = results["configs"]["chain_store_served"]
        assert chain_replica["compilations"] == 0, (
            f"chain replica compiled {chain_replica['compilations']} automata"
        )
        assert chain_replica["decisions"] == 0, (
            f"chain replica ran {chain_replica['decisions']} Tzeng decisions"
        )
    return results


# -- pytest entry points (smoke-sized; CI runs the CLI for the full sweep) -------


@pytest.fixture(scope="module")
def small_suite():
    return run_suite(total_pairs=80, workers_sweep=[1, 2])


def test_engine_verdicts_match_pr3_baseline(small_suite):
    assert small_suite["verdicts_identical"]
    report(
        "ENGINE/verdicts",
        "batch planning/parallelism must not change answers",
        f"{small_suite['pairs']} mixed pairs identical across all configs",
    )


def test_engine_cold_not_slower_than_pr3(small_suite):
    cold = small_suite["configs"]["engine_cold_w1"]
    # Smoke-sized batches finish in ~0.2 s, where timer noise swamps the
    # planner's margin — allow 15% here; the CI sweep (--check, 240+ pairs)
    # holds the strict ≥-baseline gate.
    assert cold["speedup_vs_pr3"] >= 0.85, cold
    report(
        "ENGINE/planner",
        "per-pair alphabets + dedupe beat union-alphabet sequential",
        f"cold 1-worker speedup {cold['speedup_vs_pr3']}× vs PR 3 baseline",
    )


def test_engine_warm_reload_zero_compilations(small_suite):
    warm = small_suite["configs"]["engine_warm_reload"]
    assert warm["compilations"] == 0
    assert warm["planner"]["tasks"] == 0
    report(
        "ENGINE/warm-start",
        "persisted state answers a known batch with zero compilations",
        f"warm reload {warm['seconds']}s, speedup {warm['speedup_vs_pr3']}×",
    )


def test_engine_store_served_zero_compilations(small_suite):
    served = small_suite["configs"]["store_served"]
    cold = small_suite["configs"]["store_cold"]
    assert served["compilations"] == 0
    assert cold["compilations"] > 0
    assert served["store"]["parent_hits"] > 0
    # Timer noise swamps smoke-sized runs; the strict 0.1× gate rides on
    # the CI sweep (--check).  Served must still be clearly cheaper.
    assert served["compile_seconds"] < cold["compile_seconds"]
    report(
        "ENGINE/store",
        "a fleet-populated store serves a fresh engine without compiling",
        f"served compile {served['compile_seconds']}s vs cold "
        f"{cold['compile_seconds']}s ({served['compile_speedup_vs_cold']}×)",
    )


def test_engine_chain_inference_closes_the_transitive_closure(small_suite):
    chain = small_suite["configs"]["chain_infer_on"]
    assert chain["decisions"] <= chain["family"] - 1
    assert chain["inferred_equal"] == chain["closure_pairs"]
    replica = small_suite["configs"]["chain_store_served"]
    assert replica["compilations"] == 0
    assert replica["decisions"] == 0
    assert replica["verdict_store_hits"] > 0
    report(
        "ENGINE/verdict-tier",
        "k−1 adjacent decisions buy the whole C(k,2) closure",
        f"{chain['decisions']} decisions answered {chain['closure_pairs']} "
        f"closure pairs ({chain['closure_speedup_vs_off']}× vs inference-off); "
        "store-served replica: 0 compiles, 0 decisions",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=240)
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--json", type=str, default=None)
    parser.add_argument("--check", action="store_true",
                        help="assert 2-worker ≥ sequential and warm=0 compiles")
    args = parser.parse_args(argv)
    results = run_suite(
        total_pairs=args.pairs,
        workers_sweep=args.workers,
        json_path=args.json,
        check=args.check,
    )
    print(json.dumps(results, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
