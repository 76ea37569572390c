"""Engine-subsystem semantics: isolation, planning, batches, warm start.

The contracts pinned here are the ones serving depends on:

* two engines in one process never share verdicts (session isolation);
* the batch planner's dedupe/short-circuit/ordering gives verdicts
  byte-identical to the one-at-a-time sequential path (property test over
  the shared expression generator);
* a batch leaves its compilations in the engine's own cache, so follow-up
  batches and saved warm state reuse them;
* warm state round-trips — including into a *fresh process* — and answers
  a known batch with zero compilations; stale-fingerprint state is
  rejected cleanly;
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
    StaleWarmStateError,
    WarmStateError,
    pipeline_fingerprint,
    plan_batch,
    words_up_to,
)
from repro.engine.persist import load_warm_state


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

    def test_warm_state_after_parallel_batch_replays_in_fresh_process(
        self, tmp_path
    ):
        """save_warm_state after a batch captures its compilations."""
        pairs = _fresh_pairs(seed=214, count=24)
        engine = self._engine_after_batch(pairs)
        path = str(tmp_path / "batch-state.pickle")
        engine.save_warm_state(path)
        meta = load_warm_state(path).meta
        assert meta["wfa_entries"] == meta["parent_compilations"] > 0

        # The child re-derives the *recombined* pairing, so the verdict
        # cache alone cannot answer it — the saved WFAs must.
        script = (
            "from gen import random_pairs\n"
            "from repro.engine import NKAEngine, plan_batch\n"
            "pairs = random_pairs(seed=214, count=24, depth=3, equal_fraction=0.2)\n"
            "plan = plan_batch(pairs, lambda left, right: None)\n"
            "exprs = sorted({e for t in plan.tasks for e in (t.left, t.right)},\n"
            "               key=str)\n"
            f"engine = NKAEngine('child', warm_state={path!r})\n"
            "engine.equal_many(list(zip(exprs, exprs[1:])))\n"
            "assert engine.stats()['compilations'] == 0, 'child compiled!'\n"
            "print('ok')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC, os.path.dirname(__file__), env.get("PYTHONPATH", "")]
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "ok"


class TestWarmState:
    def test_round_trip_same_process(self, tmp_path):
        pairs = _fresh_pairs(seed=31, count=30)
        source = NKAEngine("warm-src")
        expected = source.equal_many_detailed(pairs)
        path = str(tmp_path / "state.pickle")
        source.save_warm_state(path)

        warmed = NKAEngine("warm-dst", warm_state=path)
        got = warmed.equal_many_detailed(pairs)
        assert got == expected
        stats = warmed.stats()
        assert stats["compilations"] == 0, "warm batch must not compile"
        assert stats["planner"]["tasks"] == 0
        assert stats["warm_start"]["verdicts_loaded"] > 0

    def test_round_trip_fresh_process(self, tmp_path):
        pairs = _fresh_pairs(seed=32, count=12)
        source = NKAEngine("warm-proc")
        expected = [r.equal for r in source.equal_many_detailed(pairs)]
        path = str(tmp_path / "state.pickle")
        source.save_warm_state(path)

        script = (
            "import sys\n"
            "from gen import random_pairs\n"
            "from repro.engine import NKAEngine\n"
            "pairs = random_pairs(seed=32, count=12, depth=3, equal_fraction=0.2)\n"
            f"engine = NKAEngine('child', warm_state={path!r})\n"
            "verdicts = engine.equal_many(pairs)\n"
            "assert engine.stats()['compilations'] == 0, 'child compiled!'\n"
            "print(','.join(str(v) for v in verdicts))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC, os.path.dirname(__file__), env.get("PYTHONPATH", "")]
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        child = [v == "True" for v in out.stdout.strip().split(",")]
        assert child == expected

    def test_stale_fingerprint_rejected_cleanly(self, tmp_path):
        source = NKAEngine("stale-src")
        source.equal(parse("a"), parse("a + 0"))
        path = str(tmp_path / "state.pickle")
        source.save_warm_state(path)
        with open(path, "rb") as handle:
            state = pickle.load(handle)
        state.fingerprint = "0" * 64
        with open(path, "wb") as handle:
            pickle.dump(state, handle)

        with pytest.raises(StaleWarmStateError):
            NKAEngine("stale-strict", warm_state=path)
        lax = NKAEngine("stale-lax", warm_state=path, strict_warm_state=False)
        stats = lax.stats()["warm_start"]
        assert stats["wfas_loaded"] == 0 and stats["verdicts_loaded"] == 0

    def test_corrupt_state_raises_warm_state_error(self, tmp_path):
        path = tmp_path / "junk.pickle"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(WarmStateError):
            load_warm_state(str(path))

    def test_in_memory_state_fingerprint_checked_too(self):
        """A WarmState object (RPC, caller-unpickled) is vetted like a file."""
        source = NKAEngine("mem-src")
        source.equal(parse("a"), parse("a + 0"))
        state = source.warm_state()
        state.fingerprint = "f" * 64
        with pytest.raises(StaleWarmStateError):
            NKAEngine("mem-strict", warm_state=state)
        lax = NKAEngine("mem-lax", warm_state=state, strict_warm_state=False)
        assert lax.stats()["warm_start"]["verdicts_loaded"] == 0

    def test_custom_semiring_pickle_contract(self):
        """Unregistered specs refuse to pickle; registered ones round-trip."""
        import copy
        import operator
        import pickle

        from repro.linalg import SemiringSpec, SparseMatrix, register_semiring
        from repro.util.errors import DecisionError

        custom = SemiringSpec(
            name="test-tropical-unregistered",
            zero=float("inf"), one=0.0,
            add=min, mul=operator.add,
            is_zero=lambda value: value == float("inf"),
        )
        matrix = SparseMatrix(2, 2, custom)
        matrix.add_entry(0, 1, 3.0)
        assert copy.deepcopy(matrix).rows == matrix.rows  # deepcopy still works
        with pytest.raises(DecisionError):
            pickle.dumps(matrix)  # unregistered: refuse, don't silently swap

        registered = register_semiring(
            SemiringSpec(
                name="test-tropical-registered",
                zero=float("inf"), one=0.0,
                add=min, mul=operator.add,
                is_zero=lambda value: value == float("inf"),
            )
        )
        again = pickle.loads(pickle.dumps(SparseMatrix(1, 1, registered)))
        assert again.semiring is registered
        with pytest.raises(DecisionError):
            register_semiring(
                SemiringSpec(
                    name="ExtNat", zero=None, one=None,
                    add=min, mul=min, is_zero=bool,
                )
            )  # shadowing a canonical name is rejected

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
