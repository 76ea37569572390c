"""The content-addressed shared verdict store: unit, wiring and stress tests.

The store holds decided verdicts only (``.verdict`` entries, one per
unordered digest pair).  Six surfaces:

* **store semantics** — publish/get round-trips, digest stability across
  re-interning, another handle's publish visible on the next read, the
  silently-a-miss corruption contract (torn bytes, foreign fingerprints, misaddressed
  files), and index-driven size-budget eviction;
* **stores from older writers** — ``.wfa`` (compiled-automaton) entries
  left in the current fingerprint directory are never read, their
  verdicts still serve, and ``gc`` deletes them with their index lines;
* **fingerprint discipline** — ``pipeline_fingerprint()`` raises a typed
  :class:`PersistError` for source-less modules instead of stamping an
  incomplete pipeline, stays planner-independent, and the module list
  itself is pinned;
* **deep inputs** — the digest walk keeps its own stack: its digests
  equal the recursive Merkle definition on the nkabench corpus, it
  digests a 10⁵-deep expression, and a 2,000-letter product's verdict is
  published and served to a second engine;
* **engine wiring** — ``NKAEngine(store=...)`` / ``REPRO_COMPILE_STORE``
  serve verdicts from the store (zero compilations and decisions on a
  warm store) with at most one store read per pair, publish fresh ones,
  and surface a ``store`` stats section;
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

import hashlib
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

from repro.automata.equivalence import EquivalenceResult
from repro.core.expr import Star, product_of, sum_of, sym
from repro.engine import NKAEngine, PersistError, pipeline_fingerprint
from repro.engine import persist
from repro.engine.store import (
    STORE_FORMAT,
    CompileStore,
    describe_store,
    dumps_artifact,
    gc_store,
    verdict_pair_key,
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


# The store validates an entry's header, not its verdict, so the unit tests
# publish one fixed result; round trips use a decided one.
_RESULT = EquivalenceResult(equal=False, counterexample=("a",), reason="test verdict")


def _pairs(count=6, seed=0):
    """Digest pairs of distinct expressions: one verdict key each."""
    exprs = _exprs(2 * count, seed)
    return [
        (persist.expr_digest(exprs[2 * i]), persist.expr_digest(exprs[2 * i + 1]))
        for i in range(count)
    ]


def _path(store, pair):
    return store._entry_path(verdict_pair_key(*pair))


class TestStoreSemantics:
    def test_publish_get_round_trip(self, tmp_path):
        store = CompileStore(str(tmp_path / "store"))
        left, right = _exprs(2)
        result = NKAEngine("round-trip", store=False).equal_detailed(left, right)
        pair = (persist.expr_digest(left), persist.expr_digest(right))
        assert store.get_verdict(*pair) is None
        assert store.publish_verdict(*pair, result) is True
        # Same handle: served out of the positive cache.
        assert store.get_verdict(*pair) is not None
        # Fresh handle: served off disk, byte-identical verdict.
        fresh = CompileStore(str(tmp_path / "store"))
        served = fresh.get_verdict(*pair)
        assert pickle.dumps(served) == pickle.dumps(result)
        assert fresh.stats()["hits"] == 1

    def test_construction_touches_no_disk(self, tmp_path):
        root = tmp_path / "never-created"
        store = CompileStore(str(root))
        assert not root.exists()
        # Reads against a store that does not exist yet are plain misses.
        assert store.get_verdict(*_pairs(1)[0]) is None
        assert not root.exists()

    def test_publish_skips_existing_entry(self, tmp_path):
        """At-most-once fleet-wide: a pair already on disk is not rewritten."""
        root = str(tmp_path)
        pair = _pairs(1)[0]
        first = CompileStore(root)
        assert first.publish_verdict(*pair, _RESULT) is True
        second = CompileStore(root)
        assert second.publish_verdict(*reversed(pair), _RESULT) is False
        assert second.stats()["publish_skipped"] == 1
        assert first.stats()["publishes"] == 1

    def test_digest_is_stable_across_reinterning(self):
        expr = _exprs(1)[0]
        twin = pickle.loads(pickle.dumps(expr))  # re-interns to the same node
        assert persist.expr_digest(expr) == persist.expr_digest(twin)
        # Structure-sensitive: associativity of concatenation digests
        # equal, but different symbols do not.
        assert persist.expr_digest(sym("p")) != persist.expr_digest(sym("q"))

    def test_sibling_publish_visible_on_next_read(self, tmp_path):
        """A handle caches no miss: another handle's publish is served on
        the very next read, with no delay and no invalidation call."""
        root = str(tmp_path)
        pair = _pairs(1)[0]
        reader = CompileStore(root)
        assert reader.get_verdict(*pair) is None
        # Another process (simulated: a second handle) publishes...
        CompileStore(root).publish_verdict(*pair, _RESULT)
        # ...and the reader's next read finds it.
        served = reader.get_verdict(*pair)
        assert pickle.dumps(served) == pickle.dumps(_RESULT)
        assert (reader.stats()["hits"], reader.stats()["misses"]) == (1, 1)

    def test_torn_entry_is_silently_a_miss(self, tmp_path):
        root = str(tmp_path)
        pair = _pairs(1)[0]
        store = CompileStore(root)
        store.publish_verdict(*pair, _RESULT)
        path = _path(store, pair)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])  # torn write
        fresh = CompileStore(root)
        assert fresh.get_verdict(*pair) is None
        assert fresh.stats()["corrupt_skipped"] == 1
        assert not os.path.exists(path), "corrupt entry must be removed"

    def test_wrong_fingerprint_entry_is_a_miss(self, tmp_path):
        """An entry whose embedded fingerprint differs from the directory it
        sits in (cross-linked file, manual copy) must not serve."""
        root = str(tmp_path)
        pair = _pairs(1)[0]
        store = CompileStore(root)
        key = verdict_pair_key(*pair)
        payload = dumps_artifact(
            ("nka-verdict-store", STORE_FORMAT, "f" * 64, key, _RESULT)
        )
        path = store._entry_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(payload)
        assert store.get_verdict(*pair) is None
        assert store.stats()["corrupt_skipped"] == 1

    def test_misaddressed_entry_is_a_miss(self, tmp_path):
        """A valid payload at the *wrong* key path (renamed file) fails
        the embedded-key check."""
        root = str(tmp_path)
        first, second = _pairs(2)
        store = CompileStore(root)
        store.publish_verdict(*first, _RESULT)
        src = _path(store, first)
        dst = _path(store, second)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        os.rename(src, dst)
        fresh = CompileStore(root)
        assert fresh.get_verdict(*second) is None
        assert fresh.stats()["corrupt_skipped"] == 1

    def test_eviction_under_byte_budget(self, tmp_path):
        root = str(tmp_path)
        pairs = _pairs(6)
        store = CompileStore(root)
        sizes = []
        for index, pair in enumerate(pairs):
            store.publish_verdict(*pair, _RESULT)
            sizes.append(store.stats()["bytes"])
            os.utime(
                _path(store, pair),
                (time.time() - 100 + index, time.time() - 100 + index),
            )
        per_entry = sizes[0]
        keep = 2
        evicted = store.evict(max_bytes=per_entry * keep + 1)
        assert evicted == len(pairs) - keep
        # Oldest-mtime entries went; the newest survive.
        survivors = [
            pair for pair in pairs if CompileStore(root).get_verdict(*pair) is not None
        ]
        assert survivors == pairs[-keep:]
        assert store.stats()["evictions"] == evicted
        assert store.stats()["bytes"] <= per_entry * keep + 1

    def test_publish_auto_evicts_over_budget(self, tmp_path):
        probe = CompileStore(str(tmp_path))
        probe.publish_verdict(*_pairs(1)[0], _RESULT)
        per_entry = probe.stats()["bytes"]

        root = str(tmp_path / "budget")
        store = CompileStore(root, max_bytes=int(per_entry * 2.5))
        for index, pair in enumerate(_pairs(6, seed=1)):
            store.publish_verdict(*pair, _RESULT)
            # Deterministic mtime ordering even on coarse filesystems.
            stamp = time.time() - 100 + index
            os.utime(_path(store, pair), (stamp, stamp))
        assert store.stats()["evictions"] > 0
        assert store.stats()["bytes"] <= store.max_bytes

    def test_index_tolerates_torn_lines(self, tmp_path):
        root = str(tmp_path)
        store = CompileStore(root)
        pairs = _pairs(3, seed=2)
        for pair in pairs:
            store.publish_verdict(*pair, _RESULT)
        with open(store._index_path(), "a") as handle:
            handle.write("deadbeef")  # torn append, no newline, wrong width
        fresh = CompileStore(root)
        index = fresh._read_index()
        assert set(index) == {verdict_pair_key(*pair) for pair in pairs}
        # evict() with no budget just compacts; nothing is lost.
        assert fresh.evict(max_bytes=None) == 0
        for pair in pairs:
            assert CompileStore(root).get_verdict(*pair) is not None


class TestLegacyWfaEntries:
    """Stores written while the store also held compiled automata: those
    ``<digest>.wfa`` entries (and their 64-character index lines) sit in
    the *current* fingerprint directory, because the fingerprinted sources
    did not change when the tier was deleted."""

    @staticmethod
    def _plant_wfa_entry(store, expr):
        """Write an entry exactly as the older writer laid it out."""
        digest = persist.expr_digest(expr)
        data = dumps_artifact(
            ("nka-compile-store", STORE_FORMAT, store.fingerprint, digest, _compile(expr))
        )
        path = os.path.join(store._fingerprint_dir(), digest[:2], digest + ".wfa")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(data)
        with open(store._index_path(), "a") as index:
            index.write(f"{digest} {len(data)}\n")
        return path

    def test_verdicts_serve_and_gc_drops_wfa_entries(self, tmp_path):
        root = str(tmp_path)
        pairs = random_pairs(seed=911, count=20, depth=3, equal_fraction=0.2)
        with NKAEngine("legacy-pub", store=root) as publisher:
            baseline = publisher.equal_many_detailed(pairs)
            published = publisher.stats()["verdicts"]["published"]
        store = CompileStore(root)
        planted = [
            self._plant_wfa_entry(store, expr)
            for expr in {expr for pair in pairs for expr in pair}
        ]
        # The .wfa entries are invisible to reads, describe and the index.
        assert len(store._read_index()) == published
        assert describe_store(root)["entries"] == published
        with NKAEngine("legacy-sub", store=root) as served:
            verdicts = served.equal_many_detailed(pairs)
            assert served.compilations == 0
            assert served.stats()["decisions"] == 0
        assert pickle.dumps(verdicts) == pickle.dumps(baseline)

        report = gc_store(root)
        assert report["wfa_entries_removed"] == len(planted)
        assert report["entries_reindexed"] == published
        assert not any(os.path.exists(path) for path in planted)
        with open(store._index_path()) as handle:
            keys = [line.split()[0] for line in handle if line.strip()]
        assert sorted(keys) == sorted(store._read_index())
        assert len(keys) == published
        with NKAEngine("legacy-after-gc", store=root) as served:
            again = served.equal_many_detailed(pairs)
            assert served.stats()["decisions"] == 0
        assert pickle.dumps(again) == pickle.dumps(baseline)


class TestFingerprintDiscipline:
    """Satellite: the fingerprint must refuse incomplete pipelines."""

    def test_module_list_is_pinned(self):
        assert persist._FINGERPRINT_MODULES == (
            "repro.core.expr",
            "repro.core.semiring",
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
        with pytest.raises(PersistError, match="repro.automata.wfa"):
            persist.pipeline_fingerprint()
        # The failure must not have been memoized as a fingerprint.
        assert persist._FINGERPRINT is None
        monkeypatch.undo()
        assert len(pipeline_fingerprint()) == 64


def _recursive_digest(expr):
    """The Merkle digest's definition, written as the recursion it is (no
    memo): the reference the store's iterative walk must reproduce byte
    for byte, or every existing store key would go cold."""
    import hashlib

    from repro.core.expr import One, Product, Star, Sum, Symbol, Zero

    if isinstance(expr, Zero):
        encoded = b"Z"
    elif isinstance(expr, One):
        encoded = b"E"
    elif isinstance(expr, Symbol):
        name = expr.name.encode("utf-8")
        encoded = b"S%d:%s" % (len(name), name)
    elif isinstance(expr, Sum):
        encoded = b"+%s%s" % (
            _recursive_digest(expr.left).encode(),
            _recursive_digest(expr.right).encode(),
        )
    elif isinstance(expr, Product):
        encoded = b".%s%s" % (
            _recursive_digest(expr.left).encode(),
            _recursive_digest(expr.right).encode(),
        )
    else:
        encoded = b"*%s" % _recursive_digest(expr.body).encode()
    return hashlib.sha256(encoded).hexdigest()


def _nkabench_corpus_exprs():
    """Every expression of the nkabench cold corpus + tail, seeds 1–5."""
    from repro.core.parser import parse

    root = os.path.join(os.path.dirname(__file__), "..", "nkabench")
    sys.path.insert(0, root)
    try:
        from corpus import build_corpus, tail_queries
    finally:
        sys.path.remove(root)
    exprs = []
    for seed in range(1, 6):
        for query in build_corpus(seed, 400) + tail_queries(seed):
            exprs.extend((parse(query.left), parse(query.right)))
    return exprs


class TestDeepInputs:
    def test_digest_matches_recursive_definition_on_corpus(self):
        exprs = _nkabench_corpus_exprs()
        assert len(exprs) == 2 * 5 * 412
        persist._DIGEST_CACHE.clear()
        assert [persist.expr_digest(e) for e in exprs] == [
            _recursive_digest(e) for e in exprs
        ]

    def test_digest_at_depth_100000(self):
        a, b = sym("a"), sym("b")
        expr = a
        for depth in range(100_000):
            expr = Star(expr) if depth % 2 else product_of([b, expr])
        persist._DIGEST_CACHE.clear()
        digest = persist.expr_digest(expr)
        assert len(digest) == 64
        # The root is the Merkle step over its (now memoized) body.
        assert digest == hashlib.sha256(
            b"*%s" % persist.expr_digest(expr.body).encode()
        ).hexdigest()
        persist._DIGEST_CACHE.clear()  # a walk larger than the memo
        assert persist.expr_digest(expr) == digest

    def test_deep_product_verdict_is_stored_and_served(self, tmp_path):
        """A 2,000-letter product against itself + 0: the verdict is
        published, and a second engine on the store is served it with
        zero compilations (the recursive digest raised here, costing one
        store error on lookup and one on publish)."""
        from repro.core.parser import parse

        chain = " ".join(["a"] * 2000)
        left, right = parse(chain), parse(f"{chain} + 0")
        root = str(tmp_path / "store")
        first = NKAEngine("deep-pub", store=root)
        decided = first.equal_detailed(left, right)
        assert decided.equal
        section = first.stats()["store"]
        assert section["errors"] == 0
        assert section["publishes"] == 1
        second = NKAEngine("deep-sub", store=root)
        served = second.equal_detailed(left, right)
        assert pickle.dumps(served) == pickle.dumps(decided)
        stats = second.stats()
        assert stats["compilations"] == 0 and stats["decisions"] == 0
        assert stats["verdicts"]["store_hits"] == 1


class TestEngineWiring:
    def test_second_engine_compiles_nothing(self, tmp_path):
        root = str(tmp_path)
        pairs = random_pairs(seed=901, count=30, depth=3, equal_fraction=0.2)
        with NKAEngine("store-pub", store=root) as publisher:
            baseline = publisher.equal_many_detailed(pairs)
            published = publisher.stats()["verdicts"]["published"]
            assert published > 0
            assert published == publisher.stats()["decisions"]
        with NKAEngine("store-sub", store=root) as served:
            # The identical batch is answered entirely from the verdict
            # store at plan time: zero compiles, zero decisions.
            verdicts = served.equal_many_detailed(pairs)
            assert served.compilations == 0
            assert served.stats()["decisions"] == 0
            assert served.stats()["verdicts"]["store_hits"] == len(
                {tuple(sorted(p, key=id)) for p in pairs if p[0] is not p[1]}
            )
            assert served.stats()["verdicts"]["published"] == 0
            # *Recombined* pairs miss the store: this engine compiles and
            # decides them, and publishes their verdicts in turn.
            lefts = sorted(
                {l for l, r in pairs if l is not r}, key=str
            )
            recombined = [(lefts[i], lefts[-1 - i]) for i in range(len(lefts) // 2)]
            decided = served.equal_many_detailed(recombined)
            assert served.compilations > 0
            assert served.stats()["verdicts"]["published"] == len(recombined)
        with NKAEngine("store-third", store=root) as third:
            assert pickle.dumps(third.equal_many_detailed(recombined)) == pickle.dumps(
                decided
            )
            assert third.compilations == 0
            assert third.stats()["decisions"] == 0
        assert pickle.dumps(baseline) == pickle.dumps(verdicts)
        # Compiled automata never reach the store.
        assert not [
            name for _dir, _sub, names in os.walk(root) for name in names
            if name.endswith(".wfa")
        ]

    def test_one_store_read_per_pair(self, tmp_path, monkeypatch):
        """Each pair costs at most one ``get_verdict`` call, on the batch
        path and on the single-query path: a store hit lands in the
        session verdict cache, and a miss is decided without reading the
        store again."""
        root = str(tmp_path)
        known = [
            (left, right)
            for left, right in random_pairs(seed=907, count=24, depth=3)
            if left is not right
        ]
        distinct_known = {frozenset(pair) for pair in known}
        reads = []
        real_get_verdict = CompileStore.get_verdict

        def counting(self, digest_a, digest_b):
            reads.append(verdict_pair_key(digest_a, digest_b))
            return real_get_verdict(self, digest_a, digest_b)

        monkeypatch.setattr(CompileStore, "get_verdict", counting)
        # A storeful batch over P distinct undecided pairs: P reads.
        with NKAEngine("probe-pub", store=root) as publisher:
            publisher.equal_many_detailed(known)
            assert publisher.stats()["decisions"] == len(distinct_known)
        assert len(reads) == len(distinct_known)

        # A replica batch of N store-known pairs + 1 novel pair: N + 1.
        novel = (sym("probe_novel_l"), Star(sym("probe_novel_r")))
        batch = known + [novel]
        reads.clear()
        with NKAEngine("probe-replica", store=root) as replica:
            verdicts = replica.equal_many_detailed(batch)
            assert replica.compilations == 2
            assert replica.stats()["decisions"] == 1
        assert len(reads) == len(distinct_known) + 1
        assert len(set(reads)) == len(reads)

        # The single-query path: one read for a novel pair, then none.
        reads.clear()
        single = NKAEngine("probe-single", store=root)
        pair = (sym("probe_single_l"), Star(sym("probe_single_r")))
        single.equal_detailed(*pair)
        single.equal_detailed(*reversed(pair))
        single.equal_detailed(*known[0])
        single.equal_detailed(*known[0])
        assert len(reads) == 2
        assert single.stats()["verdicts"]["store_hits"] == 1

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
            "bytes", "errors",
        ):
            assert key in section, key
        assert section["publishes"] == 1  # one verdict, no automata
        assert section["errors"] == 0
        # stats_json must stay serializable with the new section.
        assert json.loads(engine.stats_json())["store"]["publishes"] == 1
        storeless = NKAEngine("store-none", store=False)
        assert storeless.stats()["store"] is None

    def test_warmback_publishes_to_fleet(self, tmp_path):
        """A batch on a *store-backed* engine leaves the store populated:
        a second engine answers the same batch without compiling."""
        root = str(tmp_path)
        pairs = random_pairs(seed=903, count=40, depth=3, equal_fraction=0.2)
        with NKAEngine("fleet-pub", store=root) as engine:
            engine.equal_many_detailed(pairs)
            assert engine.stats()["verdicts"]["published"] > 0
        with NKAEngine("fleet-sub", store=root) as served:
            served.equal_many_detailed(pairs)
            assert served.compilations == 0
            assert served.stats()["decisions"] == 0

# -- multiprocess stress --------------------------------------------------------
#
# Child entry points live at module level so they pickle under spawn; each
# re-opens the store from its root path.


def _stress_child(root, rounds, barrier, results):
    from repro.engine.store import CompileStore

    store = CompileStore(root)
    pairs = _pairs(6, seed="stress")  # every process: the SAME keys
    barrier.wait()  # maximise publish collisions
    served = 0
    for _round in range(rounds):
        for pair in pairs:
            if store.get_verdict(*pair) is None:
                store.publish_verdict(*pair, _RESULT)
            else:
                served += 1
    results.put((served, store.stats()["corrupt_skipped"]))


def _kill_victim_child(root, ready):
    """Publish entries forever until SIGKILLed mid-stream."""
    from repro.engine.store import CompileStore

    store = CompileStore(root)
    index = 0
    while True:
        store.publish_verdict(*_pairs(1, seed=f"victim{index}")[0], _RESULT)
        index += 1
        if index == 3:
            ready.set()  # enough traffic in flight: parent may now shoot


START_METHODS = pytest.mark.parametrize("start_method", ["fork", "spawn"])


class TestConcurrentAccess:
    @START_METHODS
    def test_concurrent_writers_and_readers(self, tmp_path, start_method):
        """N processes hammering the same keys: no torn entry ever
        serves, every read is either a clean verdict or a clean miss, and
        the store ends exactly one entry per key."""
        ctx = multiprocessing.get_context(start_method)
        root = str(tmp_path)
        workers = 4
        barrier = ctx.Barrier(workers)
        results = ctx.Queue()
        children = [
            ctx.Process(target=_stress_child, args=(root, 5, barrier, results))
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
        for pair in _pairs(6, seed="stress"):
            assert pickle.dumps(checker.get_verdict(*pair)) == pickle.dumps(_RESULT)
        assert checker.stats()["corrupt_skipped"] == 0

    @START_METHODS
    def test_sigkill_mid_publish_leaves_no_torn_entry(self, tmp_path, start_method):
        ctx = multiprocessing.get_context(start_method)
        ready = ctx.Event()
        victim = ctx.Process(target=_kill_victim_child, args=(str(tmp_path), ready))
        victim.start()
        assert ready.wait(timeout=60), "victim never started publishing"
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        # Whatever is visible must load cleanly; a torn write may only ever
        # exist as an invisible temp file.
        checker = CompileStore(str(tmp_path))
        loaded = 0
        for index in range(16):
            if checker.get_verdict(*_pairs(1, seed=f"victim{index}")[0]) is not None:
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
        for pair in _pairs(3, seed=4):
            store.publish_verdict(*pair, _RESULT)
        # A stale pipeline version's directory, to be gc'd.
        stale_dir = tmp_path / ("e" * 64) / "ff"
        stale_dir.mkdir(parents=True)
        (stale_dir / ("f" * 64 + "-" + "f" * 64 + ".verdict")).write_bytes(b"junk")

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
