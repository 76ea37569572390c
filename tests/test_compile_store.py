"""The content-addressed shared compile store: unit, wiring and stress tests.

Five surfaces:

* **store semantics** — publish/get round-trips, digest stability across
  re-interning, negative/positive lookup caches, the silently-a-miss
  corruption contract (torn bytes, foreign fingerprints, misaddressed
  files), and index-driven size-budget eviction;
* **fingerprint discipline** (satellite) — ``pipeline_fingerprint()``
  raises a typed :class:`WarmStateError` for source-less modules instead of
  stamping an incomplete pipeline, stays planner-independent, and the
  module list itself is pinned;
* **engine wiring** — ``NKAEngine(store=...)`` / ``REPRO_COMPILE_STORE``
  serve compiles from the store (zero parent compilations on a warm
  store), publish fresh ones, and surface a ``store`` stats section;
* **concurrency** — N processes publishing and reading the same digests
  concurrently, and a publisher SIGKILLed mid-stream, must leave no
  visible torn entry (every survivor loads cleanly, temp debris stays
  invisible and is gc-collected);
* **ops CLI** — ``python -m repro.engine.store describe|gc``.

The multiprocess tests run under both the ``fork`` and the ``spawn``
start method: fork inherits the parent's interned nodes and memos, spawn
re-imports and re-interns everything, and the store must hold up either
way.
"""

import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from gen import random_pairs

from repro.core.expr import Star, product_of, sum_of, sym
from repro.engine import NKAEngine, WarmStateError, pipeline_fingerprint
from repro.engine import persist
from repro.engine.store import (
    STORE_FORMAT,
    CompileStore,
    describe_store,
    gc_store,
)
from repro.engine.store import main as store_cli


def _exprs(count=6, seed=0):
    """Distinct non-trivial expressions (products are order-sensitive, so
    these never collapse to pointer-equality under hash-consing)."""
    out = []
    for index in range(count):
        a, b = sym(f"a{seed}_{index}"), sym(f"b{seed}_{index}")
        out.append(Star(sum_of([product_of([a, b]), b])))
    return out


def _compile(expr):
    from repro.automata.wfa import expr_to_wfa

    return expr_to_wfa(expr)


class TestStoreSemantics:
    def test_publish_get_round_trip(self, tmp_path):
        store = CompileStore(str(tmp_path / "store"))
        expr = _exprs(1)[0]
        wfa = _compile(expr)
        assert store.get(expr) is None
        assert store.publish(expr, wfa) is True
        # Same handle: served out of the positive cache.
        assert store.get(expr) is not None
        # Fresh handle: served off disk, byte-identical automaton.
        fresh = CompileStore(str(tmp_path / "store"))
        served = fresh.get(expr)
        assert pickle.dumps(served) == pickle.dumps(wfa)
        assert fresh.stats()["hits"] == 1

    def test_construction_touches_no_disk(self, tmp_path):
        root = tmp_path / "never-created"
        store = CompileStore(str(root))
        assert not root.exists()
        # Reads against a store that does not exist yet are plain misses.
        assert store.get(_exprs(1)[0]) is None
        assert not root.exists()

    def test_publish_skips_existing_entry(self, tmp_path):
        """At-most-once fleet-wide: a digest already on disk is not rewritten."""
        root = str(tmp_path)
        expr = _exprs(1)[0]
        wfa = _compile(expr)
        first = CompileStore(root)
        assert first.publish(expr, wfa) is True
        second = CompileStore(root)
        assert second.publish(expr, wfa) is False
        assert second.stats()["publish_skipped"] == 1
        assert first.stats()["publishes"] == 1

    def test_digest_is_stable_across_reinterning(self):
        expr = _exprs(1)[0]
        twin = pickle.loads(pickle.dumps(expr))  # re-interns to the same node
        assert persist.expr_digest(expr) == persist.expr_digest(twin)
        # Structure-sensitive: associativity of concatenation digests
        # equal, but different symbols do not.
        assert persist.expr_digest(sym("p")) != persist.expr_digest(sym("q"))

    def test_negative_cache_expires(self, tmp_path):
        root = str(tmp_path)
        expr = _exprs(1)[0]
        reader = CompileStore(root, negative_ttl=0.05)
        assert reader.get(expr) is None
        # Within the TTL the disk is not probed again.
        assert reader.get(expr) is None
        assert reader.stats()["negative_hits"] >= 1
        # Another process (simulated: a second handle) publishes...
        CompileStore(root).publish(expr, _compile(expr))
        time.sleep(0.06)
        # ...and after the TTL the publish becomes visible.
        assert reader.get(expr) is not None

    def test_torn_entry_is_silently_a_miss(self, tmp_path):
        root = str(tmp_path)
        expr = _exprs(1)[0]
        store = CompileStore(root)
        store.publish(expr, _compile(expr))
        path = store._entry_path(persist.expr_digest(expr))
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])  # torn write
        fresh = CompileStore(root)
        assert fresh.get(expr) is None
        assert fresh.stats()["corrupt_skipped"] == 1
        assert not os.path.exists(path), "corrupt entry must be removed"

    def test_wrong_fingerprint_entry_is_a_miss(self, tmp_path):
        """An entry whose embedded fingerprint differs from the directory it
        sits in (cross-linked file, manual copy) must not serve."""
        root = str(tmp_path)
        expr = _exprs(1)[0]
        store = CompileStore(root)
        digest = persist.expr_digest(expr)
        payload = persist.dumps_artifact(
            ("nka-compile-store", STORE_FORMAT, "f" * 64, digest, _compile(expr))
        )
        path = store._entry_path(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(payload)
        assert store.get(expr) is None
        assert store.stats()["corrupt_skipped"] == 1

    def test_misaddressed_entry_is_a_miss(self, tmp_path):
        """A valid payload at the *wrong* digest path (renamed file) fails
        the embedded-digest check."""
        root = str(tmp_path)
        left, right = _exprs(2)
        store = CompileStore(root)
        store.publish(left, _compile(left))
        src = store._entry_path(persist.expr_digest(left))
        dst = store._entry_path(persist.expr_digest(right))
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        os.rename(src, dst)
        fresh = CompileStore(root)
        assert fresh.get(right) is None
        assert fresh.stats()["corrupt_skipped"] == 1

    def test_eviction_under_byte_budget(self, tmp_path):
        root = str(tmp_path)
        exprs = _exprs(6)
        store = CompileStore(root)
        sizes = []
        for index, expr in enumerate(exprs):
            store.publish(expr, _compile(expr))
            sizes.append(store.stats()["bytes"])
            os.utime(
                store._entry_path(persist.expr_digest(expr)),
                (time.time() - 100 + index, time.time() - 100 + index),
            )
        per_entry = sizes[0]
        keep = 2
        evicted = store.evict(max_bytes=per_entry * keep + 1)
        assert evicted == len(exprs) - keep
        # Oldest-mtime entries went; the newest survive.
        survivors = [expr for expr in exprs if CompileStore(root).get(expr)]
        assert survivors == exprs[-keep:]
        assert store.stats()["evictions"] == evicted
        assert store.stats()["bytes"] <= per_entry * keep + 1

    def test_publish_auto_evicts_over_budget(self, tmp_path):
        expr = _exprs(1)[0]
        probe = CompileStore(str(tmp_path))
        probe.publish(expr, _compile(expr))
        per_entry = probe.stats()["bytes"]

        root = str(tmp_path / "budget")
        store = CompileStore(root, max_bytes=int(per_entry * 2.5))
        for index, item in enumerate(_exprs(6, seed=1)):
            store.publish(item, _compile(item))
            # Deterministic mtime ordering even on coarse filesystems.
            stamp = time.time() - 100 + index
            os.utime(
                store._entry_path(persist.expr_digest(item)), (stamp, stamp)
            )
        assert store.stats()["evictions"] > 0
        assert store.stats()["bytes"] <= store.max_bytes

    def test_index_tolerates_torn_lines(self, tmp_path):
        root = str(tmp_path)
        store = CompileStore(root)
        exprs = _exprs(3, seed=2)
        for expr in exprs:
            store.publish(expr, _compile(expr))
        with open(store._index_path(), "a") as handle:
            handle.write("deadbeef")  # torn append, no newline, wrong width
        fresh = CompileStore(root)
        index = fresh._read_index()
        assert set(index) == {persist.expr_digest(expr) for expr in exprs}
        # evict() with no budget just compacts; nothing is lost.
        assert fresh.evict(max_bytes=None) == 0
        for expr in exprs:
            assert CompileStore(root).get(expr) is not None

    def test_spec_round_trip(self, tmp_path):
        store = CompileStore(str(tmp_path), max_bytes=12345, fsync=True)
        clone = CompileStore.from_spec(store.spec())
        assert clone.root == store.root
        assert clone.max_bytes == 12345
        assert clone.fsync is True


class TestPickleDeterminism:
    """Pickled WFA bytes must not depend on set construction history.

    A frozenset's iteration order depends on how it was built (insertion
    sequence and probe collisions), not just on its elements — so without
    canonical ``__getstate__`` ordering, two equal automata, or one
    automaton before and after a store round trip, could pickle to
    *different bytes* under ~15% of hash seeds (a byte-identity flake in
    ``test_publish_get_round_trip`` on exactly this file).  Byte identity
    of pickled automata is a conformance surface: the store is
    content-addressed and the differential suites compare pickled bytes.
    """

    @staticmethod
    def _adversarial_alphabets():
        """Two frozensets, equal as sets, iterating in different orders."""
        letters = [f"x{i}" for i in range(48)]
        base = frozenset(letters)
        rng = __import__("random").Random(4177)
        for _ in range(200):
            shuffled = list(letters)
            rng.shuffle(shuffled)
            other = frozenset(shuffled)
            if list(other) != list(base):
                return base, other
        return None

    @staticmethod
    def _with_alphabet(alphabet):
        from repro.automata.wfa import WFA

        wfa = _compile(_exprs(1)[0])
        return WFA(
            num_states=wfa.num_states,
            alphabet=alphabet,
            initial=list(wfa.initial),
            final=list(wfa.final),
            matrices=dict(wfa.matrices),
        )

    def test_equal_wfas_pickle_to_identical_bytes(self):
        pair = self._adversarial_alphabets()
        if pair is None:
            pytest.skip("interpreter laid every shuffle out identically")
        base, other = pair
        assert base == other and list(base) != list(other)  # the trap is set
        assert pickle.dumps(self._with_alphabet(base)) == pickle.dumps(
            self._with_alphabet(other)
        )

    def test_store_round_trip_is_byte_stable(self, tmp_path):
        pair = self._adversarial_alphabets()
        if pair is None:
            pytest.skip("interpreter laid every shuffle out identically")
        _, other = pair
        wfa = self._with_alphabet(other)
        expr = _exprs(1, seed=9)[0]
        store = CompileStore(str(tmp_path / "store"))
        assert store.publish(expr, wfa) is True
        served = CompileStore(str(tmp_path / "store")).get(expr)
        assert pickle.dumps(served) == pickle.dumps(wfa)

    def test_support_dfa_memo_round_trips_byte_stable(self):
        wfa = _compile(_exprs(1, seed=3)[0])
        wfa.support_dfa()  # populate the DFA memo (set-valued fields)
        once = pickle.dumps(pickle.loads(pickle.dumps(wfa)))
        assert once == pickle.dumps(wfa)
        assert pickle.dumps(pickle.loads(once)) == once


class TestNegativeCacheInvalidation:
    """Regression (serving satellite): the negative-TTL cache must have an
    explicit bypass.  A handle that recently missed a verdict trusts that
    miss for ``negative_ttl`` seconds — long enough to hide a verdict a
    sibling replica published *after* the probe, which would make a
    coalesced batch re-decide a pair the fleet already answered.  These
    tests fail on the pre-PR store with ``AttributeError``."""

    def test_invalidate_reveals_sibling_publish_within_ttl(self, tmp_path):
        from repro.automata.equivalence import EquivalenceResult
        from repro.engine.store import verdict_pair_key

        root = str(tmp_path / "store")
        # A generous TTL makes the hiding deterministic, not timing-luck.
        replica_a = CompileStore(root, negative_ttl=60.0)
        replica_b = CompileStore(root)
        left, right = _exprs(2, seed=7)
        digest_l = persist.expr_digest(left)
        digest_r = persist.expr_digest(right)
        verdict = EquivalenceResult(
            equal=True, counterexample=None, reason="test verdict"
        )
        # A probes first: the miss is cached negatively.
        assert replica_a.get_verdict(digest_l, digest_r) is None
        # B (the sibling replica) publishes right afterwards.
        assert replica_b.publish_verdict(digest_l, digest_r, verdict) is True
        # A's negative cache still hides the entry — the bug being bypassed.
        assert replica_a.get_verdict(digest_l, digest_r) is None
        assert replica_a.negative_hits > 0
        # The second-chance bypass: drop the negative entry, re-read disk.
        key = verdict_pair_key(digest_l, digest_r)
        assert replica_a.invalidate_negative([key]) == 1
        served = replica_a.get_verdict(digest_l, digest_r)
        assert served is not None
        assert pickle.dumps(served) == pickle.dumps(verdict)

    def test_invalidate_everything_and_unknown_keys(self, tmp_path):
        store = CompileStore(str(tmp_path / "store"), negative_ttl=60.0)
        exprs = _exprs(3, seed=8)
        for expr in exprs:
            assert store.get(expr) is None  # seeds one negative entry each
        assert store.invalidate_negative(["no-such-key"]) == 0
        assert store.invalidate_negative() == len(exprs)
        assert store.invalidate_negative() == 0  # already empty

    def test_engine_second_chance_helper(self, tmp_path):
        """``NKAEngine.invalidate_negative_verdicts`` drops the pair key
        and both expression digests, and no-ops without a store."""
        from repro.automata.equivalence import EquivalenceResult

        root = str(tmp_path / "store")
        engine = NKAEngine(
            "second-chance", store=CompileStore(root, negative_ttl=60.0)
        )
        sibling = CompileStore(root)
        left, right = _exprs(2, seed=9)
        digest_l = persist.expr_digest(left)
        digest_r = persist.expr_digest(right)
        # Seed negatives exactly as plan-time probes would: a verdict miss
        # and a WFA presence miss per side.
        assert engine.store.get_verdict(digest_l, digest_r) is None
        assert engine.store.contains_digests([digest_l, digest_r]) == set()
        sibling.publish_verdict(
            digest_l,
            digest_r,
            EquivalenceResult(equal=True, counterexample=None, reason="t"),
        )
        dropped = engine.invalidate_negative_verdicts([(left, right)])
        assert dropped == 3  # pair key + two digests
        assert engine.store.get_verdict(digest_l, digest_r) is not None
        # Storeless engines answer zero without touching anything.
        assert NKAEngine("no-store", store=False).invalidate_negative_verdicts(
            [(left, right)]
        ) == 0


class TestFingerprintDiscipline:
    """Satellite: the fingerprint must refuse incomplete pipelines."""

    def test_module_list_is_pinned(self):
        assert persist._FINGERPRINT_MODULES == (
            "repro.core.expr",
            "repro.core.semiring",
            "repro.linalg.semiring",
            "repro.linalg.sparse",
            "repro.linalg.rowspace",
            "repro.automata.nfa",
            "repro.automata.wfa",
            "repro.automata.equivalence",
        )

    def test_fingerprint_is_planner_independent(self):
        """Scheduling modules must never invalidate persisted artefacts."""
        for name in persist._FINGERPRINT_MODULES:
            assert not name.startswith("repro.engine."), name

    def test_missing_source_raises_typed_error(self, monkeypatch):
        import repro.automata.wfa as wfa_module

        monkeypatch.setattr(persist, "_FINGERPRINT", None)
        monkeypatch.setattr(
            wfa_module, "__file__", str("/nonexistent/wfa.py"), raising=False
        )
        with pytest.raises(WarmStateError, match="repro.automata.wfa"):
            persist.pipeline_fingerprint()
        # The failure must not have been memoized as a fingerprint.
        assert persist._FINGERPRINT is None
        monkeypatch.undo()
        assert len(pipeline_fingerprint()) == 64


class TestEngineWiring:
    def test_second_engine_compiles_nothing(self, tmp_path):
        root = str(tmp_path)
        pairs = random_pairs(seed=901, count=30, depth=3, equal_fraction=0.2)
        with NKAEngine("store-pub", store=root) as publisher:
            baseline = publisher.equal_many_detailed(pairs)
            published = publisher.stats()["store"]["parent_publishes"]
            assert published > 0
            assert published == publisher.compilations
        with NKAEngine("store-sub", store=root) as served:
            # The identical batch is answered entirely from the *verdict*
            # store at plan time: zero compiles, zero decisions, not even
            # a WFA read.
            verdicts = served.equal_many_detailed(pairs)
            assert served.compilations == 0
            assert served.stats()["decisions"] == 0
            assert served.stats()["verdicts"]["store_hits"] == len(
                {tuple(sorted(p, key=id)) for p in pairs if p[0] is not p[1]}
            )
            stats = served.stats()["store"]
            assert stats["parent_publishes"] == 0
            # *Recombined* pairs miss the verdict store but hit the WFA
            # store: novel decisions, still zero compilations.  (Only
            # exprs from non-pointer-equal pairs ever compiled/published.)
            lefts = sorted(
                {l for l, r in pairs if l is not r}, key=str
            )
            recombined = [(lefts[i], lefts[-1 - i]) for i in range(len(lefts) // 2)]
            served.equal_many_detailed(recombined)
            assert served.compilations == 0
            assert served.stats()["store"]["parent_hits"] > 0
        assert pickle.dumps(baseline) == pickle.dumps(verdicts)

    def test_plan_probes_only_the_residual_pairs(self, tmp_path, monkeypatch):
        """A replica batch of N store-known pairs plus one novel pair
        probes the WFA tier only for the novel pair's two expressions: the
        verdict tier answers the rest before any cost is estimated."""
        root = str(tmp_path)
        known = [
            (left, right)
            for left, right in random_pairs(seed=907, count=24, depth=3)
            if left is not right
        ]
        with NKAEngine("probe-pub", store=root) as publisher:
            publisher.equal_many_detailed(known)
        novel = (sym("probe_novel_l"), Star(sym("probe_novel_r")))
        batch = known + [novel]

        probed = []
        real_contains_digests = CompileStore.contains_digests

        def counting(self, digests):
            digests = list(digests)
            probed.extend(digests)
            return real_contains_digests(self, digests)

        monkeypatch.setattr(CompileStore, "contains_digests", counting)
        with NKAEngine("probe-replica", store=root) as replica:
            verdicts = replica.equal_many_detailed(batch)
        assert len(probed) <= 2
        assert set(probed) <= {persist.expr_digest(expr) for expr in novel}

        reference = NKAEngine("probe-ref", store=False)
        expected = [reference.equal_detailed(left, right) for left, right in batch]
        assert pickle.dumps(verdicts) == pickle.dumps(expected)

    def test_env_variable_attaches_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILE_STORE", str(tmp_path))
        engine = NKAEngine("store-env")
        assert engine.store is not None
        assert engine.store.root == str(tmp_path)
        # store=False opts out even when the environment names a store.
        assert NKAEngine("store-env-off", store=False).store is None

    def test_stats_store_section(self, tmp_path):
        with NKAEngine("store-stats", store=str(tmp_path)) as engine:
            left, right = _exprs(2, seed=3)
            engine.equal(left, right)
            section = engine.stats()["store"]
        for key in (
            "hits", "misses", "publishes", "evictions", "corrupt_skipped",
            "bytes", "parent_hits", "parent_publishes",
        ):
            assert key in section, key
        assert section["parent_publishes"] == 2
        # stats_json must stay serializable with the new section.
        assert json.loads(engine.stats_json())["store"]["parent_publishes"] == 2
        storeless = NKAEngine("store-none", store=False)
        assert storeless.stats()["store"] is None

    def test_warmback_publishes_to_fleet(self, tmp_path):
        """A batch on a *store-backed* engine leaves the store populated:
        a second engine answers the same batch without compiling."""
        root = str(tmp_path)
        pairs = random_pairs(seed=903, count=40, depth=3, equal_fraction=0.2)
        with NKAEngine("fleet-pub", store=root) as engine:
            engine.equal_many_detailed(pairs)
            assert engine.stats()["store"]["parent_publishes"] > 0
        with NKAEngine("fleet-sub", store=root) as served:
            served.equal_many_detailed(pairs)
            assert served.compilations == 0

# -- multiprocess stress --------------------------------------------------------
#
# Child entry points live at module level so they pickle under spawn; each
# re-opens the store from its spec.


def _stress_child(spec, rounds, barrier, results):
    from repro.automata.wfa import expr_to_wfa
    from repro.engine.store import CompileStore

    store = CompileStore.from_spec(spec)
    exprs = _exprs(6, seed="stress")  # every process: the SAME digests
    barrier.wait()  # maximise publish collisions
    served = 0
    for _round in range(rounds):
        for expr in exprs:
            wfa = store.get(expr)
            if wfa is None:
                store.publish(expr, expr_to_wfa(expr))
            else:
                served += 1
        store.clear_lookup_cache()  # force disk reads next round
    results.put((served, store.stats()["corrupt_skipped"]))


def _kill_victim_child(spec, ready):
    """Publish entries forever until SIGKILLed mid-stream."""
    from repro.automata.wfa import expr_to_wfa
    from repro.engine.store import CompileStore

    store = CompileStore.from_spec(spec)
    index = 0
    while True:
        expr = _exprs(1, seed=f"victim{index}")[0]
        store.publish(expr, expr_to_wfa(expr))
        index += 1
        if index == 3:
            ready.set()  # enough traffic in flight: parent may now shoot


START_METHODS = pytest.mark.parametrize("start_method", ["fork", "spawn"])


class TestConcurrentAccess:
    @START_METHODS
    def test_concurrent_writers_and_readers(self, tmp_path, start_method):
        """N processes hammering the same digests: no torn entry ever
        serves, every verdict-relevant read is either a clean WFA or a
        clean miss, and the store ends exactly one entry per digest."""
        ctx = multiprocessing.get_context(start_method)
        spec = CompileStore(str(tmp_path)).spec()
        workers = 4
        barrier = ctx.Barrier(workers)
        results = ctx.Queue()
        children = [
            ctx.Process(target=_stress_child, args=(spec, 5, barrier, results))
            for _ in range(workers)
        ]
        for child in children:
            child.start()
        outcomes = [results.get(timeout=120) for _ in children]
        for child in children:
            child.join(timeout=30)
            assert child.exitcode == 0
        # Late rounds must have been store-served in every process, and no
        # process ever observed a torn entry.
        assert all(served > 0 for served, _corrupt in outcomes), outcomes
        assert all(corrupt == 0 for _served, corrupt in outcomes), outcomes
        description = describe_store(str(tmp_path))
        assert description["entries"] == 6
        # Every visible entry decodes cleanly in a fresh process view.
        checker = CompileStore(str(tmp_path))
        for expr in _exprs(6, seed="stress"):
            assert checker.get(expr) is not None
        assert checker.stats()["corrupt_skipped"] == 0

    @START_METHODS
    def test_sigkill_mid_publish_leaves_no_torn_entry(self, tmp_path, start_method):
        ctx = multiprocessing.get_context(start_method)
        spec = CompileStore(str(tmp_path)).spec()
        ready = ctx.Event()
        victim = ctx.Process(target=_kill_victim_child, args=(spec, ready))
        victim.start()
        assert ready.wait(timeout=60), "victim never started publishing"
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        # Whatever is visible must load cleanly; a torn write may only ever
        # exist as an invisible temp file.
        checker = CompileStore(str(tmp_path))
        loaded = 0
        for index in range(16):
            expr = _exprs(1, seed=f"victim{index}")[0]
            if checker.get(expr) is not None:
                loaded += 1
        assert loaded >= 3, "the pre-kill publishes must be visible"
        assert checker.stats()["corrupt_skipped"] == 0
        # gc sweeps any orphaned temp file the kill left behind, and
        # re-adopts entries the kill left visible but unindexed.
        report = gc_store(str(tmp_path), tmp_age_seconds=0.0)
        assert report["entries_reindexed"] >= loaded
        after = describe_store(str(tmp_path))
        assert after["tmp_files"] == 0


class TestOpsCli:
    def test_describe_and_gc(self, tmp_path, capsys):
        root = str(tmp_path)
        store = CompileStore(root)
        for expr in _exprs(3, seed=4):
            store.publish(expr, _compile(expr))
        # A stale pipeline version's directory, to be gc'd.
        stale_dir = tmp_path / ("e" * 64) / "ab"
        stale_dir.mkdir(parents=True)
        (stale_dir / ("f" * 64 + ".wfa")).write_bytes(b"junk")

        assert store_cli(["describe", root]) == 0
        description = json.loads(capsys.readouterr().out)
        assert description["entries"] == 4
        fresh = description["fingerprints"][pipeline_fingerprint()]
        assert fresh["fresh"] is True
        assert fresh["entries"] == 3
        assert fresh["indexed"] == 3
        assert description["fingerprints"]["e" * 64]["fresh"] is False

        assert store_cli(["gc", root]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["stale_fingerprints_removed"] == 1
        assert report["entries_reindexed"] == 3
        assert store_cli(["describe", root]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 3

    def test_cli_runs_as_module(self, tmp_path):
        """`python -m repro.engine.store` must work — and not spew the
        runpy double-import warning on every ops call."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        env.pop("REPRO_COMPILE_STORE", None)
        completed = subprocess.run(
            [sys.executable, "-m", "repro.engine.store", "describe", str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout)["entries"] == 0
        assert "RuntimeWarning" not in completed.stderr, completed.stderr
