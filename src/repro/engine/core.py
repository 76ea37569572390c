"""Session-scoped decision engine for the NKA equational theory.

:class:`NKAEngine` owns what used to be module-global state of
:mod:`repro.core.decision` — the compiled-automaton cache, the verdict
cache, and their statistics — so multiple isolated sessions can coexist in
one process: two engines never share verdicts, each has its own capacities,
and each can be cleared, resized, persisted and inspected independently.
The classic module-level API (``nka_equal`` & friends) survives as a thin
façade over the process's *default* engine, whose caches keep their
historical names (``decision.wfa`` / ``decision.results``) in the global
cache registry.

What an engine adds over the bare pipeline:

* **query planning** (:mod:`repro.engine.planner`) — batches are deduped by
  interned identity, short-circuited against the verdict cache and ordered
  cheapest-first; the remaining tasks run in order through the session's
  own caches;
* **persistent warm start** (:mod:`repro.engine.persist`) — caches
  serialize to a fingerprint-versioned on-disk state, so a fresh process
  answers a known workload with zero compilations;
* **metrics** — :meth:`NKAEngine.stats` unifies cache counters, planner
  dedupe ratios and executor timings into one JSON-dumpable report.

Pure, input-determined memos (flattening, alphabets, letter counts,
match results) stay process-global: they cannot leak information between
sessions — their values are functions of their interned keys — and sharing
them is exactly what makes a second engine in the same process cheap.
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
from repro.engine.planner import (
    IDENTICAL_RESULT,
    PlanStats,
    _default_cost_estimate,
    cached_aware_cost_estimate,
    plan_batch,
)
from repro.engine.persist import (
    StaleWarmStateError,
    WarmState,
    expr_digest,
    load_warm_state,
    make_warm_state,
    pipeline_fingerprint,
    save_warm_state,
)
from repro.engine.verdicts import (
    INFERRED_EQUAL_REASON,
    VerdictLedger,
    inferred_refuted_reason,
)
from repro.util.cache import CacheRegistry, LRUCache, process_registry

__all__ = ["NKAEngine", "default_engine"]

_ENGINE_COUNTER = [0]

_UNSET = object()  # configure() sentinel: "leave this setting alone"


class NKAEngine:
    """An isolated decision-procedure session with planning and warm start.

    Args:
        name: label used in stats and cache names (auto-numbered if omitted).
        wfa_capacity / result_capacity: LRU bounds of the session's compile
            and verdict caches.
        warm_state: a :class:`~repro.engine.persist.WarmState`, or a path to
            one, to preload the caches from.  Stale state (pipeline
            fingerprint mismatch) raises
            :class:`~repro.engine.persist.StaleWarmStateError` unless
            ``strict_warm_state=False``, which falls back to a cold start.
        store: a shared :class:`~repro.engine.store.CompileStore` (or a
            directory path to open one at) consulted on every compile-cache
            miss and fed by every fresh compilation, so a fleet of engines
            across processes and hosts compiles each expression once.
            ``None`` (default) follows ``REPRO_COMPILE_STORE``;
            pass ``store=False`` to disable the store even when the
            environment variable is set.  Store failures of any kind are
            counted, never raised: an engine without its store is merely
            colder.
        infer_verdicts: enable the verdict ledger's *transitive inference*
            tier: equivalence is a congruence, so ``a≡b ∧ b≡c`` answers
            ``a≡c`` with zero compiles and zero Tzeng runs, and
            ``a≡b ∧ b≢c (witness w)`` answers ``a≢c`` by transferring
            ``w`` (the series of ``a`` and ``b`` are identical as
            functions, so the two pairs share their counterexample *set*
            — the shortlex-minimal witness the decision procedure returns
            transfers byte-identically).  ``None`` (default) follows
            ``REPRO_VERDICT_INFER``; the ledger *records* verdicts either
            way, so inference can be toggled mid-session via
            :meth:`configure`.  Inferred results carry a canonical
            ``inferred:`` reason tag and are otherwise byte-identical to
            direct decisions; they are never published to the store.
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
        warm_state: Union[None, str, WarmState] = None,
        strict_warm_state: bool = True,
        store: Union[None, bool, str, CompileStore] = None,
        infer_verdicts: Optional[bool] = None,
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
        if infer_verdicts is None:
            env = os.environ.get("REPRO_VERDICT_INFER", "")
            infer_verdicts = env.strip().lower() in ("1", "true", "yes", "on")
        self._infer_verdicts = bool(infer_verdicts)
        # The ledger always *records* (recording is O(α) and enables
        # toggling inference on mid-session); it is only *consulted* when
        # inference is enabled.
        self._ledger = VerdictLedger(capacity=max(1024, 8 * result_capacity))
        self._lock = threading.RLock()
        # Serialises batch execution: the work is CPU-bound under the GIL,
        # so interleaving two threads' batches would only delay both, and
        # close() waits on this lock for an in-flight batch.  Cache
        # reads/writes stay under _lock.
        self._exec_lock = threading.Lock()
        self._compilations = 0
        self._decisions = 0
        self._batches = 0
        self._warm_wfas = 0
        self._warm_verdicts = 0
        self._warm_classes = 0
        self._warm_refutations = 0
        self._plan_totals = PlanStats()
        self._plan_seconds = 0.0
        self._execute_seconds = 0.0
        self._last_batch: Optional[Dict[str, object]] = None
        self._reset_lifetime_executor_stats()
        self._reset_verdict_stats()
        if warm_state is not None:
            self.load_warm_state(warm_state, strict=strict_warm_state)

    def _reset_lifetime_executor_stats(self) -> None:
        self._store_hits = 0
        self._store_publishes = 0
        self._store_errors = 0
        self._tasks_executed = 0

    def _reset_verdict_stats(self) -> None:
        self._verdicts_direct = 0
        self._verdict_cache_hits = 0
        self._verdicts_inferred_equal = 0
        self._verdicts_inferred_refuted = 0
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
        served = self._store_lookup(expr)
        if served is not None:
            return served
        wfa = expr_to_wfa(expr)
        with self._lock:
            self._compilations += 1
            self._wfa.put(expr, wfa)
        self._store_publish(expr, wfa)
        return wfa

    def _store_lookup(self, expr: Expr) -> Optional[WFA]:
        """Consult the shared store on a compile-cache miss; a hit lands in
        the session cache (and counts as a hit, not a compilation)."""
        store = self._store
        if store is None:
            return None
        try:
            wfa = store.get(expr)
        except Exception:
            with self._lock:
                self._store_errors += 1
            return None
        if wfa is None:
            return None
        with self._lock:
            self._store_hits += 1
            self._wfa.put(expr, wfa)
        return wfa

    def _store_publish(self, expr: Expr, wfa: WFA) -> None:
        """Offer a freshly compiled automaton to the fleet (never raises)."""
        store = self._store
        if store is None:
            return
        try:
            published = store.publish(expr, wfa)
        except Exception:
            with self._lock:
                self._store_errors += 1
            return
        if published:
            with self._lock:
                self._store_publishes += 1

    def equal_detailed(self, left: Expr, right: Expr) -> EquivalenceResult:
        """Decide ``⊢NKA left = right`` and report how it was decided.

        Lookup order is the verdict tier's canonical one: pointer-equal →
        verdict cache → union–find inference (when enabled) → shared
        verdict store → direct decision.
        """
        if left is right:
            # Hash-consing makes syntactic equality pointer identity, and
            # equal syntax trivially has equal series — no automaton needed.
            return IDENTICAL_RESULT
        with self._lock:
            cached = self._results.get((left, right))
            if cached is not None:
                self._verdict_cache_hits += 1
                return cached
        inferred = self._infer_from_ledger(left, right)
        if inferred is not None:
            return inferred
        served = self._verdict_store_lookup(left, right)
        if served is not None:
            self._record_verdict(left, right, served, direct=False)
            return served
        result = wfa_equivalent(self.compile(left), self.compile(right))
        self._record_verdict(left, right, result)
        return result

    def equal(self, left: Expr, right: Expr) -> bool:
        """Decide ``⊢NKA left = right`` (True iff derivable from the axioms)."""
        return self.equal_detailed(left, right).equal

    def _record_verdict(
        self,
        left: Expr,
        right: Expr,
        result: EquivalenceResult,
        *,
        direct: bool = True,
        publish: bool = True,
    ) -> None:
        """Record a verdict symmetrically (one decision answers both
        orientations — a distinguishing word distinguishes either way) and
        file it in the transitive ledger.  ``direct`` marks an actual Tzeng
        decision (counted and, when ``publish``, offered to the fleet's
        verdict store); store-served results pass ``direct=False``."""
        with self._lock:
            if direct:
                self._decisions += 1
                self._verdicts_direct += 1
            self._results.put((left, right), result)
            self._results.put((right, left), result)
            self._ledger.record(left, right, result)
        if direct and publish:
            self._publish_verdict(left, right, result)

    def _publish_verdict(
        self, left: Expr, right: Expr, result: EquivalenceResult
    ) -> None:
        """Offer a directly-decided verdict to the fleet (never raises)."""
        store = self._store
        if store is None:
            return
        try:
            published = store.publish_verdict(
                expr_digest(left), expr_digest(right), result
            )
        except Exception:
            with self._lock:
                self._store_errors += 1
            return
        if published:
            with self._lock:
                self._verdict_store_publishes += 1

    def _verdict_store_lookup(
        self, left: Expr, right: Expr
    ) -> Optional[EquivalenceResult]:
        """Probe the fleet's verdict store (only direct decisions live
        there, so serving from it preserves byte-identity)."""
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
        return result

    def _infer_from_ledger(
        self, left: Expr, right: Expr
    ) -> Optional[EquivalenceResult]:
        """Answer from the transitive closure of recorded verdicts.

        An inferred refutation's witness transfers byte-identically (the
        pairs share their counterexample set, and the decision procedure
        returns the shortlex-minimal element), but we still re-evaluate
        both series on the word — O(|w|) sparse matvecs — as a soundness
        guard: if the weights agree after all (impossible unless state
        was corrupted), we fall through to a direct decision.
        """
        if not self._infer_verdicts:
            return None
        with self._lock:
            inferred = self._ledger.infer(left, right)
        if inferred is None:
            return None
        kind, witness = inferred
        if kind == "equal":
            result = EquivalenceResult(
                equal=True,
                counterexample=None,
                reason=INFERRED_EQUAL_REASON,
            )
            with self._lock:
                self._verdicts_inferred_equal += 1
                self._results.put((left, right), result)
                self._results.put((right, left), result)
            return result
        left_weight = self.compile(left).weight(witness)
        right_weight = self.compile(right).weight(witness)
        if left_weight == right_weight:
            return None  # corrupted ledger state: decide directly instead
        result = EquivalenceResult(
            equal=False,
            counterexample=witness,
            reason=inferred_refuted_reason(witness),
        )
        with self._lock:
            self._verdicts_inferred_refuted += 1
            self._results.put((left, right), result)
            self._results.put((right, left), result)
        return result

    def _cached_verdict(
        self, left: Expr, right: Expr
    ) -> Optional[EquivalenceResult]:
        with self._lock:
            return self._results.get((left, right))

    def _plan_lookup(
        self, left: Expr, right: Expr
    ) -> Optional[EquivalenceResult]:
        """Planner short-circuit: verdict cache → ledger inference →
        verdict store.  Anything answered here is removed from the batch
        before a single automaton is considered."""
        with self._lock:
            cached = self._results.get((left, right))
            if cached is not None:
                return cached
        inferred = self._infer_from_ledger(left, right)
        if inferred is not None:
            return inferred
        served = self._verdict_store_lookup(left, right)
        if served is not None:
            self._record_verdict(left, right, served, direct=False)
            return served
        return None

    def invalidate_negative_verdicts(
        self, pairs: Iterable[Tuple[Expr, Expr]]
    ) -> int:
        """Second-chance probe support: forget recent store *misses* for
        these pairs (and their expressions) so the next plan re-reads the
        disk.

        The store's negative cache hides a sibling replica's publish for up
        to its TTL (~2 s) of plan-time probes — fine for a lone engine,
        wrong for a serving coalescer whose whole point is that concurrent
        traffic across replicas overlaps.  Calling this just before
        planning a coalesced batch guarantees the batch never re-decides a
        pair a sibling published since the last probe.  Returns the number
        of negative entries dropped; zero-cost no-op without a store.
        """
        store = self._store
        if store is None:
            return 0
        # Lazy import mirrors the constructor: the store module stays out
        # of sys.modules until a store is actually configured.
        from repro.engine.store import verdict_pair_key

        keys = set()
        for left, right in pairs:
            left_digest = expr_digest(left)
            right_digest = expr_digest(right)
            keys.add(verdict_pair_key(left_digest, right_digest))
            keys.add(left_digest)
            keys.add(right_digest)
        try:
            return store.invalidate_negative(keys)
        except Exception:
            with self._lock:
                self._store_errors += 1
            return 0

    def _is_compiled(self, expr: Expr) -> bool:
        """Planner probe: is this expression's automaton already available
        without compiling (session cache or shared store)?  Wrong answers
        (e.g. a racing eviction) only skew ordering, never verdicts."""
        with self._lock:
            if expr in self._wfa:
                return True
        store = self._store
        if store is None:
            return False
        try:
            return store.contains(expr)
        except Exception:
            with self._lock:
                self._store_errors += 1
            return False

    # -- batch API ---------------------------------------------------------

    def equal_many_detailed(
        self, pairs: Iterable[Tuple[Expr, Expr]]
    ) -> List[EquivalenceResult]:
        """Decide a batch: plan (dedupe/short-circuit/order), run, merge.

        Verdicts are byte-identical to calling :meth:`equal_detailed` once
        per pair: the planner only removes work whose answer is already
        forced, and every remaining task runs through the session's caches
        exactly as a single query would.
        """
        pairs = list(pairs)
        plan_started = time.perf_counter()
        # Expressions whose automata are already available — session cache
        # or store — cost ~nothing, so ordering sees the batch's residual
        # work, not phantom compilations.  The planner asks only for the
        # tasks the verdict tiers leave, so only their expressions are
        # probed.
        cost_estimate = cached_aware_cost_estimate(
            _default_cost_estimate, self._is_compiled
        )
        plan = plan_batch(pairs, self._plan_lookup, cost_estimate=cost_estimate)
        plan_seconds = time.perf_counter() - plan_started
        results = plan.results
        with self._exec_lock:
            execute_started = time.perf_counter()
            for task in plan.tasks:
                result = self._decide_into_caches(task.left, task.right)
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

    def _decide_into_caches(self, left: Expr, right: Expr) -> EquivalenceResult:
        """Run one planned task on this engine's caches.

        The verdict store is probed here too: a sibling may have published
        the pair since planning.  Ledger inference is **not**: the planner
        already consulted it, and inferring from verdicts decided earlier in
        the same batch would make a task's answer depend on task order.
        """
        served = self._verdict_store_lookup(left, right)
        if served is not None:
            self._record_verdict(left, right, served, direct=False)
            return served
        result = wfa_equivalent(self.compile(left), self.compile(right))
        self._record_verdict(left, right, result)
        return result

    def _accumulate_plan_stats(self, stats: PlanStats) -> None:
        totals = self._plan_totals
        totals.queries += stats.queries
        totals.pointer_equal += stats.pointer_equal
        totals.verdict_cache_hits += stats.verdict_cache_hits
        totals.duplicates += stats.duplicates
        totals.tasks += stats.tasks
        totals.estimated_cost += stats.estimated_cost
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

    def has_wfa(self, expr: Expr) -> bool:
        """Whether ``expr``'s automaton is in the session cache (no recency
        effect, no compile) — cache observability for tests/tools."""
        with self._lock:
            return expr in self._wfa

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

        Process-global memos (flattening, alphabets, letter counts) are
        *not* touched — they are shared with other sessions; clear them through
        :func:`repro.core.decision.clear_caches` if needed.
        """
        with self._lock:
            self.registry.clear(reset_stats=reset_stats)
            self._ledger.clear()
            if reset_stats:
                self._compilations = 0
                self._decisions = 0
                self._batches = 0
                self._warm_wfas = 0
                self._warm_verdicts = 0
                self._warm_classes = 0
                self._warm_refutations = 0
                self._plan_totals = PlanStats()
                self._plan_seconds = 0.0
                self._execute_seconds = 0.0
                self._last_batch = None
                self._reset_lifetime_executor_stats()
                self._reset_verdict_stats()
                self._ledger.resets = 0

    def configure(
        self,
        wfa_capacity: Optional[int] = None,
        result_capacity: Optional[int] = None,
        infer_verdicts=_UNSET,
    ) -> None:
        """Resize caches (shrinking evicts LRU entries).

        ``infer_verdicts`` toggles the ledger's transitive-inference tier
        mid-session; verdicts recorded while it was off are already in the
        ledger, so switching it on takes effect retroactively.
        """
        with self._lock:
            if wfa_capacity is not None:
                self._wfa.resize(wfa_capacity)
            if result_capacity is not None:
                self._results.resize(result_capacity)
            if infer_verdicts is not _UNSET:
                self._infer_verdicts = bool(infer_verdicts)

    @property
    def compilations(self) -> int:
        """Automata actually compiled by this session (cache misses)."""
        return self._compilations

    @property
    def store(self) -> Optional[CompileStore]:
        """The shared compile store this session consults, if any."""
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
                else {
                    **self._store.stats(),
                    # This engine's slice of the shared counters: compiles
                    # it avoided and entries it contributed.
                    "parent_hits": self._store_hits,
                    "parent_publishes": self._store_publishes,
                    "errors": self._store_errors,
                },
                "verdicts": {
                    "infer_enabled": self._infer_verdicts,
                    "direct": self._verdicts_direct,
                    "cache_hits": self._verdict_cache_hits,
                    "inferred_equal": self._verdicts_inferred_equal,
                    "inferred_refuted": self._verdicts_inferred_refuted,
                    "store_hits": self._verdict_store_hits,
                    "published": self._verdict_store_publishes,
                    **self._ledger.stats(),
                },
                "warm_start": {
                    "wfas_loaded": self._warm_wfas,
                    "verdicts_loaded": self._warm_verdicts,
                    "classes_loaded": self._warm_classes,
                    "refutations_loaded": self._warm_refutations,
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

    # -- warm-start persistence --------------------------------------------

    def warm_state(self) -> WarmState:
        """Snapshot this session's caches as a portable warm state."""
        with self._lock:
            wfas = self._wfa.items()
            verdict_items = self._results.items()
            classes, refutations = self._ledger.snapshot()
        verdicts = []
        emitted = set()
        for (left, right), result in verdict_items:
            if (right, left) in emitted:
                continue  # symmetric twin of an already-kept entry
            emitted.add((left, right))
            verdicts.append(((left, right), result))
        return make_warm_state(
            wfas=wfas,
            verdicts=verdicts,
            verdict_classes=classes,
            verdict_refutations=refutations,
            meta={
                "engine": self.name,
                "wfa_entries": len(wfas),
                "verdict_entries": len(verdicts),
                "equivalence_classes": len(classes),
                "refutation_entries": len(refutations),
                "parent_compilations": self._compilations,
            },
        )

    def save_warm_state(self, path: str) -> str:
        """Serialize the caches to ``path`` for cross-process warm start."""
        return save_warm_state(self.warm_state(), path)

    def load_warm_state(
        self, state: Union[str, WarmState], strict: bool = True
    ) -> bool:
        """Preload the caches from a snapshot (path or in-memory state).

        Returns whether anything was loaded.  Stale or invalid state raises
        (see :func:`repro.engine.persist.load_warm_state`) unless ``strict``
        is false, in which case the engine simply stays cold.  The pipeline
        fingerprint is checked for in-memory snapshots too — a ``WarmState``
        received over RPC or unpickled by the caller is no more trustworthy
        than a file.
        """
        if isinstance(state, str):
            try:
                loaded = load_warm_state(state, strict=strict)
            except Exception:
                if strict:
                    raise
                loaded = None
            if loaded is None:
                return False
            state = loaded
        elif state.fingerprint != pipeline_fingerprint():
            if strict:
                raise StaleWarmStateError(
                    f"in-memory warm state was produced by pipeline "
                    f"{state.fingerprint[:12]}…, this process is "
                    f"{pipeline_fingerprint()[:12]}…; recompile cold and re-save"
                )
            return False
        classes = getattr(state, "verdict_classes", [])
        refutations = getattr(state, "verdict_refutations", [])
        with self._lock:
            for expr, wfa in state.wfas:
                self._wfa.put(expr, wfa)
                self._warm_wfas += 1
            for (left, right), result in state.verdicts:
                self._results.put((left, right), result)
                self._results.put((right, left), result)
                self._warm_verdicts += 1
            self._ledger.restore(classes, refutations)
            self._warm_classes += len(classes)
            self._warm_refutations += len(refutations)
        return bool(state.wfas or state.verdicts or classes or refutations)

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
