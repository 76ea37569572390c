"""Session-scoped decision engine for the NKA equational theory.

:class:`NKAEngine` owns what used to be module-global state of
:mod:`repro.core.decision` — the compiled-automaton cache, the verdict
cache, and their statistics — so multiple isolated sessions can coexist in
one process: two engines never share verdicts, each has its own capacities,
and each can be cleared, resized and inspected independently.
The classic module-level API (``nka_equal`` & friends) survives as a thin
façade over the process's *default* engine, whose caches keep their
historical names (``decision.wfa`` / ``decision.results``) in the global
cache registry.

What an engine adds over the bare pipeline:

* **query planning** (:mod:`repro.engine.planner`) — batches are deduped by
  interned identity and short-circuited against the verdict cache and the
  shared verdict store; the remaining tasks run in first-appearance order
  through the session's own caches;
* **one verdict path** — pointer-equal → session verdict cache
  (:meth:`NKAEngine.cached_verdict`, which a serving loop may call inline)
  → one read of the shared verdict store (:mod:`repro.engine.store`) →
  compile and decide; a pair the lookup missed is decided without a second
  read, every decided verdict is cached symmetrically and offered to the
  store, so a fresh process that mounts the store answers a known workload
  with zero compilations;
* **metrics** — :meth:`NKAEngine.stats` unifies cache counters, planner
  dedupe ratios and executor timings into one JSON-dumpable report.

Pure, input-determined memos (flattening, alphabets, match results) stay
process-global: they cannot leak information between sessions — their
values are functions of their interned keys — and sharing them is exactly
what makes a second engine in the same process cheap.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict
from itertools import product as _words_product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.automata.equivalence import EquivalenceResult, wfa_equivalent
from repro.automata.wfa import WFA, expr_to_wfa
from repro.core.expr import Expr, alphabet
from repro.core.semiring import ExtNat
from repro.engine.planner import IDENTICAL_RESULT, PlanStats, plan_batch
from repro.engine.persist import expr_digest
from repro.util.cache import CacheRegistry, LRUCache, process_registry

__all__ = ["NKAEngine", "default_engine"]

_ENGINE_COUNTER = [0]


class NKAEngine:
    """An isolated decision-procedure session with planning.

    Args:
        name: label used in stats and cache names (auto-numbered if omitted).
        wfa_capacity / result_capacity: LRU bounds of the session's compile
            and verdict caches.
        store: a shared :class:`~repro.engine.store.CompileStore` (or a
            directory path to open one at) consulted on every verdict-cache
            miss and fed by every fresh decision, so a fleet of engines
            across processes and hosts decides each pair once, and a fresh
            engine on a populated store starts warm.
            ``None`` (default) follows ``REPRO_COMPILE_STORE``;
            pass ``store=False`` to disable the store even when the
            environment variable is set.  Store failures of any kind are
            counted, never raised: an engine without its store is merely
            colder.
        cache_namespace: prefix for the cache names; the default engine
            passes ``"decision"`` to keep the historical global names.
        register_globally: also register this engine's caches in the
            process-wide registry (:func:`repro.util.cache.all_cache_stats`)
            — only the default engine does this; private sessions stay out
            of the global namespace by design.

    Thread-safety: cache mutations are guarded by an internal lock, so an
    engine may be *called* from several threads; batches run one at a time.
    """

    workers = 1  # read only by nkabench; goes with the next benchmark change

    def __init__(
        self,
        name: Optional[str] = None,
        *,
        wfa_capacity: int = 4096,
        result_capacity: int = 8192,
        store: Union[None, bool, str, CompileStore] = None,
        cache_namespace: Optional[str] = None,
        register_globally: bool = False,
    ):
        if name is None:
            _ENGINE_COUNTER[0] += 1
            name = f"engine-{_ENGINE_COUNTER[0]}"
        self.name = name
        namespace = cache_namespace or f"engine[{name}]"
        self.registry = CacheRegistry(name)
        self._wfa = LRUCache(
            f"{namespace}.wfa", maxsize=wfa_capacity, registry=self.registry
        )
        self._results = LRUCache(
            f"{namespace}.results", maxsize=result_capacity, registry=self.registry
        )
        if register_globally:
            process_registry().register(self._wfa)
            process_registry().register(self._results)
        # The store module is imported only when a store is actually
        # configured: `python -m repro.engine.store` (the ops CLI) imports
        # this package — through the default engine built at `import repro`
        # — and the store module sitting in sys.modules before runpy
        # executes it would trip a double-import warning on every CLI call.
        if store is None:
            root = os.environ.get("REPRO_COMPILE_STORE")
            if root:
                from repro.engine.store import CompileStore

                self._store: Optional["CompileStore"] = CompileStore(root)
            else:
                self._store = None
        elif store is False:
            self._store = None
        elif isinstance(store, str):
            from repro.engine.store import CompileStore

            self._store = CompileStore(store)
        else:
            self._store = store
        self._lock = threading.RLock()
        # Serialises batch execution: the work is CPU-bound under the GIL,
        # so interleaving two threads' batches would only delay both, and
        # close() waits on this lock for an in-flight batch.  Cache
        # reads/writes stay under _lock.
        self._exec_lock = threading.Lock()
        self._compilations = 0
        self._decisions = 0
        self._batches = 0
        self._plan_totals = PlanStats()
        self._plan_seconds = 0.0
        self._execute_seconds = 0.0
        self._last_batch: Optional[Dict[str, object]] = None
        self._reset_lifetime_counters()

    def _reset_lifetime_counters(self) -> None:
        self._store_errors = 0
        self._tasks_executed = 0
        self._verdict_cache_hits = 0
        self._verdict_store_hits = 0
        self._verdict_store_publishes = 0

    # -- single-query API --------------------------------------------------

    def compile(self, expr: Expr) -> WFA:
        """The compiled automaton of ``expr`` through this session's cache.

        Each expression compiles over its *own* alphabet — the decision is
        alphabet-independent (see
        :func:`repro.automata.equivalence.wfa_equivalent`), so one cache
        entry per expression serves every partner and batch.
        """
        with self._lock:
            cached = self._wfa.get(expr)
            if cached is not None:
                return cached
        wfa = expr_to_wfa(expr)
        with self._lock:
            self._compilations += 1
            self._wfa.put(expr, wfa)
        return wfa

    def equal_detailed(self, left: Expr, right: Expr) -> EquivalenceResult:
        """Decide ``⊢NKA left = right`` and report how it was decided.

        Lookup order is the engine's one verdict path: pointer-equal →
        verdict cache → shared verdict store → compile and decide.
        """
        found = self._lookup(left, right)
        if found is not None:
            return found
        return self._decide(left, right)

    def equal(self, left: Expr, right: Expr) -> bool:
        """Decide ``⊢NKA left = right`` (True iff derivable from the axioms)."""
        return self.equal_detailed(left, right).equal

    def _cache_verdict(
        self, left: Expr, right: Expr, result: EquivalenceResult
    ) -> None:
        """Cache a verdict symmetrically: one decision answers both
        orientations (a distinguishing word distinguishes either way)."""
        with self._lock:
            self._results.put((left, right), result)
            self._results.put((right, left), result)

    def cached_verdict(
        self, left: Expr, right: Expr
    ) -> Optional[EquivalenceResult]:
        """The verdict this session already holds for a pair, or ``None``.

        Pointer-equal pairs answer :data:`IDENTICAL_RESULT`; otherwise the
        session verdict cache answers.  Never reads the store and never
        waits for a running batch (only ``_lock``, around the cache read),
        so an event loop may call it inline.  A miss is not counted here:
        the lookup that reads on counts it, so a pair probed first by a
        serving layer and then by the planner counts one miss, not two.
        """
        if left is right:
            # Hash-consing makes syntactic equality pointer identity, and
            # equal syntax trivially has equal series — no automaton needed.
            return IDENTICAL_RESULT
        key = (left, right)
        with self._lock:
            if self._results.peek(key) is None:
                return None
            self._verdict_cache_hits += 1
            return self._results.get(key)

    def _lookup(self, left: Expr, right: Expr) -> Optional[EquivalenceResult]:
        """The verdict tiers in front of a decide: :meth:`cached_verdict`,
        then one read of the fleet's verdict store.  A store hit lands in
        the session cache, so no pair is read from the store twice; only
        decided verdicts live there, so serving from it preserves
        byte-identity.  The planner and :meth:`equal_detailed` both call
        this, and a miss goes straight to :meth:`_decide`."""
        cached = self.cached_verdict(left, right)
        if cached is not None:
            return cached
        with self._lock:
            self._results.misses += 1
        store = self._store
        if store is None:
            return None
        try:
            result = store.get_verdict(expr_digest(left), expr_digest(right))
        except Exception:
            with self._lock:
                self._store_errors += 1
            return None
        if result is not None:
            with self._lock:
                self._verdict_store_hits += 1
            self._cache_verdict(left, right, result)
        return result

    def _decide(self, left: Expr, right: Expr) -> EquivalenceResult:
        """Compile and decide a pair :meth:`_lookup` missed; count, cache
        and publish the verdict.

        The store is not read again: a pair a sibling published since the
        lookup is decided once more, and its publish is skipped because
        the entry exists (the verdict bytes are the same).
        """
        result = wfa_equivalent(self.compile(left), self.compile(right))
        with self._lock:
            self._decisions += 1
        self._cache_verdict(left, right, result)
        store = self._store
        if store is None:
            return result
        try:
            published = store.publish_verdict(
                expr_digest(left), expr_digest(right), result
            )
        except Exception:
            with self._lock:
                self._store_errors += 1
            return result
        if published:
            with self._lock:
                self._verdict_store_publishes += 1
        return result

    # -- batch API ---------------------------------------------------------

    def equal_many_detailed(
        self, pairs: Iterable[Tuple[Expr, Expr]]
    ) -> List[EquivalenceResult]:
        """Decide a batch: plan (dedupe/short-circuit), run, merge.

        Verdicts are byte-identical to calling :meth:`equal_detailed` once
        per pair: the planner only removes work whose answer is already
        forced, and every remaining task runs through the session's caches
        exactly as a single query would.
        """
        pairs = list(pairs)
        plan_started = time.perf_counter()
        plan = plan_batch(pairs, self._lookup)
        plan_seconds = time.perf_counter() - plan_started
        results = plan.results
        with self._exec_lock:
            execute_started = time.perf_counter()
            for task in plan.tasks:
                result = self._decide(task.left, task.right)
                for position in task.positions:
                    results[position] = result
            execute_seconds = time.perf_counter() - execute_started
        with self._lock:
            self._batches += 1
            self._tasks_executed += len(plan.tasks)
            self._plan_seconds += plan_seconds
            self._execute_seconds += execute_seconds
            self._accumulate_plan_stats(plan.stats)
            self._last_batch = {
                "pairs": len(pairs),
                "planner": plan.stats.as_dict(),
                "executor": {
                    "tasks": len(plan.tasks),
                    "wall_seconds": round(execute_seconds, 6),
                },
                "plan_seconds": round(plan_seconds, 6),
            }
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    def equal_many(self, pairs: Iterable[Tuple[Expr, Expr]]) -> List[bool]:
        """Batched :meth:`equal`: one bool per pair."""
        return [result.equal for result in self.equal_many_detailed(pairs)]

    def _accumulate_plan_stats(self, stats: PlanStats) -> None:
        totals = self._plan_totals
        totals.queries += stats.queries
        totals.pointer_equal += stats.pointer_equal
        totals.verdict_cache_hits += stats.verdict_cache_hits
        totals.duplicates += stats.duplicates
        totals.tasks += stats.tasks
        totals.distinct_expressions += stats.distinct_expressions

    def close(self) -> None:
        """Wait for this session's in-flight batch (idempotent).

        Batches run in process, so there is nothing to release: ``close``
        only waits for a batch running on another thread.  The engine stays
        usable afterwards, caches included.
        """
        with self._exec_lock:
            pass

    def __enter__(self) -> "NKAEngine":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- auxiliary queries -------------------------------------------------

    def coefficient(self, expr: Expr, word: Sequence[str]) -> ExtNat:
        """The coefficient ``{{expr}}[word]`` via the cached automaton.

        Letters outside the expression's alphabet contribute zero-weight
        transitions, so the per-expression cache entry answers every word.
        """
        return self.compile(expr).weight(tuple(word))

    def leq_refute(
        self, left: Expr, right: Expr, max_length: int = 4
    ) -> Optional[Tuple[str, ...]]:
        """Search for a refutation of ``left ≤ right`` up to ``max_length``.

        Returns a word ``w`` with ``{{left}}[w] > {{right}}[w]`` if one
        exists among words of length at most ``max_length``, else ``None``
        (which is *not* a proof of ``≤`` — the order is undecidable).  The
        word stream is a constant-memory generator; only the automata and
        the current word are ever held.
        """
        sigma = frozenset(alphabet(left) | alphabet(right))
        left_wfa = self.compile(left)
        right_wfa = self.compile(right)
        for word in words_up_to(tuple(sorted(sigma)), max_length):
            if not left_wfa.weight(word) <= right_wfa.weight(word):
                return word
        return None

    # -- management --------------------------------------------------------

    def clear(self, reset_stats: bool = False) -> None:
        """Empty this session's caches (a pure memo reset).

        Process-global memos (flattening, alphabets) are *not* touched —
        they are shared with other sessions; clear them through
        :func:`repro.core.decision.clear_caches` if needed.
        """
        with self._lock:
            self.registry.clear(reset_stats=reset_stats)
            if reset_stats:
                self._compilations = 0
                self._decisions = 0
                self._batches = 0
                self._plan_totals = PlanStats()
                self._plan_seconds = 0.0
                self._execute_seconds = 0.0
                self._last_batch = None
                self._reset_lifetime_counters()

    def configure(
        self,
        wfa_capacity: Optional[int] = None,
        result_capacity: Optional[int] = None,
    ) -> None:
        """Resize caches (shrinking evicts LRU entries)."""
        with self._lock:
            if wfa_capacity is not None:
                self._wfa.resize(wfa_capacity)
            if result_capacity is not None:
                self._results.resize(result_capacity)

    @property
    def compilations(self) -> int:
        """Automata actually compiled by this session (cache misses)."""
        return self._compilations

    @property
    def store(self) -> Optional[CompileStore]:
        """The shared verdict store this session consults, if any."""
        return self._store

    def stats(self) -> Dict[str, object]:
        """One JSON-dumpable report unifying every per-session counter.

        ``caches`` are this session's LRU counters; ``planner`` aggregates
        dedupe counters over all batches (``dedupe_ratio`` = fraction of
        batch positions answered without a fresh automaton-level task);
        ``executor`` accumulates *lifetime* totals — batches and tasks
        executed — so long-lived serving metrics never reset per batch;
        ``timings`` separate planning from execution; ``last_batch`` keeps
        the most recent batch's full breakdown for live dashboards.
        """
        with self._lock:
            return {
                "engine": self.name,
                "caches": {
                    name: asdict(stats)
                    for name, stats in self.registry.stats().items()
                },
                "compilations": self._compilations,
                "decisions": self._decisions,
                "batches": self._batches,
                "store": None
                if self._store is None
                else {**self._store.stats(), "errors": self._store_errors},
                "verdicts": {
                    # Read only by nkabench; goes with its next change.
                    "infer_enabled": False,
                    "direct": self._decisions,
                    "cache_hits": self._verdict_cache_hits,
                    "store_hits": self._verdict_store_hits,
                    "published": self._verdict_store_publishes,
                },
                "planner": self._plan_totals.as_dict(),
                "executor": {
                    "batches": self._batches,
                    "tasks_executed": self._tasks_executed,
                },
                "timings": {
                    "plan_seconds": round(self._plan_seconds, 6),
                    "execute_seconds": round(self._execute_seconds, 6),
                },
                "last_batch": self._last_batch,
            }

    def stats_json(self, indent: int = 2) -> str:
        """:meth:`stats` as a JSON document (for the benchmark harness)."""
        return json.dumps(self.stats(), indent=indent, sort_keys=True)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"NKAEngine({self.name!r}, wfa={len(self._wfa)}, "
            f"results={len(self._results)})"
        )


def words_up_to(letters: Tuple[str, ...], max_length: int):
    """All words over ``letters`` of length ≤ ``max_length``, shortest first.

    A constant-memory generator: within each length the stream is the
    lexicographic product (identical to the old stored-frontier BFS order,
    since extending frontier words in letter order *is* the next product),
    but nothing beyond the current word is materialised — the old
    implementation kept the entire previous length in a list, i.e.
    ``|Σ|^max_length`` tuples at once.
    """
    for length in range(max_length + 1):
        for word in _words_product(letters, repeat=length):
            yield word


_DEFAULT_ENGINE: Optional[NKAEngine] = None
_DEFAULT_LOCK = threading.Lock()


def default_engine() -> NKAEngine:
    """The process-wide default session backing the module-level API.

    Created on first use; its caches are registered in the global cache
    registry under the historical names ``decision.wfa`` /
    ``decision.results``, so :func:`repro.core.decision.cache_stats`,
    ``clear_caches`` and ``configure_caches`` keep their long-standing
    behaviour.
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        with _DEFAULT_LOCK:
            if _DEFAULT_ENGINE is None:
                _DEFAULT_ENGINE = NKAEngine(
                    name="default",
                    cache_namespace="decision",
                    register_globally=True,
                )
    return _DEFAULT_ENGINE
