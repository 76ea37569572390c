"""Engine-subsystem semantics: isolation, planning, batches, warm start.

The contracts pinned here are the ones serving depends on:

* two engines in one process never share verdicts (session isolation);
* the batch planner's dedupe/short-circuit/ordering gives verdicts
  byte-identical to the one-at-a-time sequential path (property test over
  the shared expression generator);
* a batch leaves its compilations in the engine's own cache, so follow-up
  batches reuse them;
* a warm start is a mounted verdict store: a fresh engine — in this process
  or a *fresh process* — answers a known batch with zero compilations and
  zero decisions; a store written by another pipeline starts it cold,
  cleanly;
* the refutation word stream is a constant-memory generator in BFS order
  (the old implementation materialised whole frontier levels).
"""

import os
import pickle
import subprocess
import sys
from itertools import islice

import pytest

from gen import random_pairs

from repro.automata.equivalence import EquivalenceResult
from repro.core.expr import Symbol, product_of
from repro.core.parser import parse
from repro.engine import (
    NKAEngine,
    PersistError,
    pipeline_fingerprint,
    plan_batch,
    words_up_to,
)
from repro.engine.store import loads_artifact
from repro.serving import TenantConfig


SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _fresh_pairs(seed=101, count=40):
    return random_pairs(seed=seed, count=count, depth=3, equal_fraction=0.2)


class TestSessionIsolation:
    def test_two_engines_do_not_share_verdicts(self):
        left, right = parse("(a b)* a"), parse("a (b a)*")
        first = NKAEngine("iso-a")
        second = NKAEngine("iso-b")
        assert first.equal(left, right)
        # The other session must not have seen anything.
        stats = second.stats()
        assert stats["decisions"] == 0
        assert stats["compilations"] == 0
        assert all(c["currsize"] == 0 for c in stats["caches"].values())
        # And answering there does fresh work (its own compilations).
        assert second.equal(left, right)
        assert second.stats()["compilations"] == 2

    def test_clear_and_configure_are_per_session(self):
        first = NKAEngine("cfg-a", wfa_capacity=4, result_capacity=4)
        second = NKAEngine("cfg-b")
        first.equal(parse("a + b"), parse("b + a"))
        second.equal(parse("a + b"), parse("b + a"))
        first.clear()
        assert all(
            c["currsize"] == 0 for c in first.stats()["caches"].values()
        )
        assert any(
            c["currsize"] > 0 for c in second.stats()["caches"].values()
        )

    def test_engine_caches_not_in_global_registry(self):
        from repro.core.decision import cache_stats

        NKAEngine("private-session").equal(parse("a"), parse("a + 0"))
        assert not any("private-session" in name for name in cache_stats())


class TestPlanner:
    def test_dedupe_counters(self):
        a, b, c = parse("a"), parse("b"), parse("c")
        pairs = [(a, b), (a, b), (b, a), (c, c), (a, c)]
        plan = plan_batch(pairs, lambda left, right: None)
        stats = plan.stats
        assert stats.queries == 5
        assert stats.pointer_equal == 1      # (c, c)
        assert stats.duplicates == 2         # repeat + symmetric flip
        assert stats.tasks == 2              # (a, b) and (a, c)
        assert stats.dedupe_ratio == pytest.approx(1 - 2 / 5)

    def test_tasks_ordered_cheapest_first(self):
        small = parse("a")
        big = parse("((a + b)* (b c)* + c)*")
        plan = plan_batch([(big, small), (small, parse("b"))], lambda l, r: None)
        costs = [task.cost for task in plan.tasks]
        assert costs == sorted(costs)

    def test_cached_verdicts_short_circuit(self):
        a, b = parse("a"), parse("b")
        sentinel = EquivalenceResult(equal=False, counterexample=("a",), reason="x")
        plan = plan_batch([(a, b)], lambda l, r: sentinel)
        assert plan.tasks == []
        assert plan.results == [sentinel]


class TestBatchSemantics:
    def test_batch_verdicts_byte_identical_to_sequential(self):
        """Planner dedupe + the batch loop ≡ the one-at-a-time path."""
        pairs = _fresh_pairs()
        sequential_engine = NKAEngine("seq-ref")
        sequential = [sequential_engine.equal_detailed(l, r) for l, r in pairs]
        batched = NKAEngine("batch").equal_many_detailed(pairs)
        assert batched == sequential

    def test_facade_batch_matches_facade_single(self):
        from repro.core.decision import (
            clear_caches,
            nka_equal_detailed,
            nka_equal_many_detailed,
        )

        clear_caches()
        pairs = _fresh_pairs(seed=77, count=25)
        batched = nka_equal_many_detailed(pairs)
        singles = [nka_equal_detailed(l, r) for l, r in pairs]
        assert batched == singles

    def test_mixed_alphabet_infinity_support_pairs(self):
        """Per-expression compilation must stay sound across alphabets.

        ``1*`` has an ∞ coefficient at ε; the partner mentions a letter the
        left side does not.  The union-alphabet extension inside
        wfa_equivalent (DFA ``extended_to``) is what makes this come out
        unequal — a regression guard for the engine's per-expression
        compile strategy.
        """
        engine = NKAEngine("inf-alpha")
        result = engine.equal_detailed(parse("1*"), parse("(1*) + b"))
        assert not result.equal
        assert result.counterexample == ("b",)
        assert engine.equal(parse("(1*) b 0 + 1*"), parse("1*"))

    def test_long_product_decides_through_both_apis(self):
        """A 20,000-letter product is accepted by the batch API exactly as
        by the single-pair API: the planner's letter count walks the
        expression iteratively instead of recursing once per factor."""
        pair = (parse(" ".join(["a"] * 20000)), parse("a"))
        batched = NKAEngine(store=False).equal_many_detailed([pair])[0]
        single = NKAEngine(store=False).equal_detailed(*pair)
        assert not single.equal and single.counterexample == ("a",)
        assert pickle.dumps(batched) == pickle.dumps(single)

    def test_batch_stats_expose_dedupe_and_timings(self):
        engine = NKAEngine("stats")
        pairs = _fresh_pairs(seed=5, count=30)
        engine.equal_many(pairs + pairs)  # guaranteed duplicates
        stats = engine.stats()
        assert stats["batches"] == 1
        assert stats["planner"]["duplicates"] >= len(pairs) // 2
        assert stats["planner"]["dedupe_ratio"] > 0
        assert stats["last_batch"]["executor"]["tasks"] == stats["planner"]["tasks"]
        # The report must be JSON-serialisable end to end.
        assert "planner" in engine.stats_json()


class TestWarmBack:
    """A batch's compilations stay in the engine's own cache.

    The class and test names predate the in-process batch path (they
    named the worker pool's warm-back channel); they are kept so the
    test ids stay stable.
    """

    def _engine_after_batch(self, pairs):
        engine = NKAEngine("warmback")
        engine.equal_many_detailed(pairs)
        return engine

    def test_identical_followup_batch_compiles_nothing(self):
        pairs = _fresh_pairs(seed=212, count=40)
        engine = self._engine_after_batch(pairs)
        # Every distinct expression the planner turned into a task is in
        # the compile cache, compiled exactly once, and each task's
        # verdict was stored exactly once.
        plan = plan_batch(pairs, lambda left, right: None)
        for task in plan.tasks:
            assert engine.has_wfa(task.left), task.left
            assert engine.has_wfa(task.right), task.right
        first = engine.stats()
        assert first["compilations"] == first["planner"]["distinct_expressions"]
        assert first["decisions"] == first["planner"]["tasks"]
        engine.close()  # releases nothing: the caches survive it
        engine.equal_many_detailed(pairs)
        stats = engine.stats()
        assert stats["compilations"] == first["compilations"]
        assert stats["last_batch"]["planner"]["tasks"] == 0

    def test_recombined_batch_runs_on_warmed_cache(self):
        """New pairs over already-seen expressions: Tzeng yes, compile no."""
        pairs = _fresh_pairs(seed=213, count=40)
        engine = self._engine_after_batch(pairs)
        compiled = engine.stats()["compilations"]
        # Pointer-equal pairs never become tasks (and so never compile) —
        # recombine only the expressions the planner executed.
        plan = plan_batch(pairs, lambda left, right: None)
        exprs = sorted(
            {expr for task in plan.tasks for expr in (task.left, task.right)},
            key=str,
        )
        recombined = list(zip(exprs, exprs[1:]))
        engine.equal_many_detailed(recombined)
        assert engine.stats()["compilations"] == compiled, (
            "every operand was compiled by the first batch"
        )


class TestWarmState:
    """A warm start is a mounted verdict store.

    The engine persists nothing itself: every verdict it decides is
    published to its store, and a fresh engine over that store answers the
    same pairs from disk.
    """

    def test_round_trip_same_process(self, tmp_path):
        pairs = _fresh_pairs(seed=31, count=30)
        root = str(tmp_path / "store")
        source = NKAEngine("warm-src", store=root)
        expected = source.equal_many_detailed(pairs)

        warmed = NKAEngine("warm-dst", store=root)
        got = warmed.equal_many_detailed(pairs)
        assert pickle.dumps(got) == pickle.dumps(expected)
        stats = warmed.stats()
        assert stats["compilations"] == 0, "warm batch must not compile"
        assert stats["decisions"] == 0
        assert stats["planner"]["tasks"] == 0
        assert stats["verdicts"]["store_hits"] > 0

    def test_round_trip_fresh_process(self, tmp_path):
        """A fresh process mounting the store: 0 compilations, 0 decisions,
        and the verdicts' pickled bytes of the engine that decided them."""
        pairs = _fresh_pairs(seed=32, count=12)
        root = str(tmp_path / "store")
        source = NKAEngine("warm-proc", store=root)
        expected = [pickle.dumps(r).hex() for r in source.equal_many_detailed(pairs)]

        script = (
            "import pickle\n"
            "from gen import random_pairs\n"
            "from repro.engine import NKAEngine\n"
            "pairs = random_pairs(seed=32, count=12, depth=3, equal_fraction=0.2)\n"
            f"engine = NKAEngine('child', store={root!r})\n"
            "results = engine.equal_many_detailed(pairs)\n"
            "stats = engine.stats()\n"
            "assert stats['compilations'] == 0, 'child compiled!'\n"
            "assert stats['decisions'] == 0, 'child decided!'\n"
            "print(','.join(pickle.dumps(r).hex() for r in results))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC, os.path.dirname(__file__), env.get("PYTHONPATH", "")]
        )
        env.pop("REPRO_COMPILE_STORE", None)
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip().split(",") == expected

    def test_stale_fingerprint_rejected_cleanly(self, tmp_path):
        """Verdicts filed under another pipeline's fingerprint are never
        served: the engine starts cold, without an error."""
        root = tmp_path / "store"
        source = NKAEngine("stale-src", store=str(root))
        expected = source.equal_detailed(parse("a"), parse("a + 0"))
        (root / pipeline_fingerprint()).rename(root / ("0" * 64))

        cold = NKAEngine("stale-dst", store=str(root))
        assert pickle.dumps(cold.equal_detailed(parse("a"), parse("a + 0"))) == (
            pickle.dumps(expected)
        )
        stats = cold.stats()
        assert stats["decisions"] == 1 and stats["compilations"] == 2
        assert stats["store"]["errors"] == 0

    def test_corrupt_artifact_raises_persist_error(self):
        with pytest.raises(PersistError):
            loads_artifact(b"not a pickle at all")

    def test_snapshot_options_are_gone(self):
        """No snapshot file format exists any more: the options that named
        one are rejected, not ignored."""
        with pytest.raises(TypeError):
            NKAEngine("no-snapshot", warm_state="state.pickle")
        with pytest.raises(TypeError):
            TenantConfig("t", warm_state="state.pickle")
        assert not hasattr(NKAEngine, "save_warm_state")
        assert "warm_start" not in NKAEngine("no-snapshot-stats").stats()

    def test_fingerprint_is_stable_within_process(self):
        assert pipeline_fingerprint() == pipeline_fingerprint()
        assert len(pipeline_fingerprint()) == 64


class TestWordStream:
    """The constant-memory refutation generator (old stored-frontier bug)."""

    def test_generator_not_list(self):
        stream = words_up_to(("a", "b"), 12)
        assert iter(stream) is stream  # a true generator, no materialised level
        assert next(stream) == ()

    def test_bfs_order_and_count_at_length_12(self):
        words = list(words_up_to(("a", "b"), 12))
        assert len(words) == 2 ** 13 - 1  # Σ_{k≤12} 2^k
        lengths = [len(w) for w in words]
        assert lengths == sorted(lengths)  # shortest first
        assert words[:7] == [
            (), ("a",), ("b",),
            ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"),
        ]

    def test_early_termination_is_cheap(self):
        # Pulling a handful of words must not enumerate the exponential tail.
        first = list(islice(words_up_to(("a", "b"), 64), 10))
        assert len(first) == 10

    def test_refutation_found_at_length_12(self):
        """Regression: a witness only at depth 12 on a 2-letter alphabet."""
        a = Symbol("a")
        left = parse("a*")
        right_terms = [product_of([a] * k) for k in range(12)]  # 1 + a + … + a^11
        right = right_terms[0]
        for term in right_terms[1:]:
            right = right + term
        engine = NKAEngine("refute-12")
        witness = engine.leq_refute(left, right, max_length=12)
        assert witness == ("a",) * 12
        assert engine.leq_refute(left, right, max_length=11) is None


class TestThreadSafety:
    def test_engine_stats_concurrent_with_decisions(self):
        """``stats()`` polled from one thread while another runs
        ``equal_detailed`` must never raise (serving polls it that way)."""
        import threading

        engine = NKAEngine("stats-hammer")
        pairs = random_pairs(seed=77, count=30, depth=3, equal_fraction=0.2)
        errors = []
        done = threading.Event()

        def poll_stats():
            while not done.is_set():
                try:
                    engine.stats()
                except Exception as error:
                    errors.append(error)
                    return

        def decide():
            try:
                for left, right in pairs:
                    engine.equal_detailed(left, right)
            finally:
                done.set()

        poller = threading.Thread(target=poll_stats)
        decider = threading.Thread(target=decide)
        poller.start()
        decider.start()
        decider.join(60)
        poller.join(60)
        assert not errors, f"stats() raced equal_detailed: {errors[0]}"
