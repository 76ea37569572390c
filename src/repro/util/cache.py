"""Bounded LRU caches with inspectable statistics, grouped in registries.

Every memo table in the compile pipeline (``Expr → flatten → expr_to_wfa →
wfa_equivalent``) is an :class:`LRUCache` registered in a
:class:`CacheRegistry`, so long-lived processes can inspect hit rates
(:meth:`CacheRegistry.stats`) and release memory deterministically
(:meth:`CacheRegistry.clear`) through one façade.

Two scopes of registry exist:

* the **process registry** (module-level :func:`all_cache_stats` /
  :func:`clear_all_caches`, re-exported as
  :func:`repro.core.decision.cache_stats` /
  :func:`repro.core.decision.clear_caches`) holds the pure, process-wide
  memos — ``rewrite.flatten``, ``planner.letters``, ``expr.alphabet`` — plus
  the caches of the *default* engine session;
* each :class:`repro.engine.NKAEngine` owns a **private**
  :class:`CacheRegistry` for its compile/verdict caches, so multiple
  isolated sessions coexist in one process without sharing verdicts.

Unlike :func:`functools.lru_cache` this works on caches keyed by
*identities* of hash-consed expressions (see :mod:`repro.core.expr`), keeps
eviction observable for regression tests, and supports resizing at runtime.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional

__all__ = [
    "CacheStats",
    "CacheRegistry",
    "LRUCache",
    "all_cache_stats",
    "clear_all_caches",
    "lookup_cache",
    "process_registry",
    "register_stats_provider",
]


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of one cache's counters (all monotone except ``currsize``)."""

    name: str
    maxsize: int
    currsize: int
    hits: int
    misses: int
    evictions: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.currsize}/{self.maxsize} entries, "
            f"{self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.1%}), {self.evictions} evicted"
        )


class CacheRegistry:
    """A named group of caches with aggregate stats and bulk clearing.

    Bounded :class:`LRUCache` instances register themselves here (at
    construction via the ``registry`` argument, or later via
    :meth:`register`); external non-LRU tables — e.g. the weak hash-consing
    registries of :mod:`repro.core.expr` / :mod:`repro.core.rewrite` — can
    expose read-only counters through :meth:`register_stats_provider`.
    Providers appear in :meth:`stats` next to the bounded memos, but
    :meth:`clear` leaves them alone: their entries are weak (they vanish
    with their last strong reference), and clearing an intern table would
    mint fresh twins of still-live nodes and break the identity invariant
    every downstream memo relies on.
    """

    __slots__ = ("name", "_caches", "_providers")

    def __init__(self, name: str = "default"):
        self.name = name
        self._caches: "OrderedDict[str, LRUCache]" = OrderedDict()
        self._providers: "OrderedDict[str, Callable[[], CacheStats]]" = OrderedDict()

    def register(self, cache: "LRUCache") -> "LRUCache":
        """Adopt a cache (one cache may live in several registries)."""
        self._caches[cache.name] = cache
        return cache

    def register_stats_provider(
        self, name: str, provider: Callable[[], CacheStats]
    ) -> None:
        """Expose an external (non-LRU) table's counters in :meth:`stats`."""
        self._providers[name] = provider

    def lookup(self, name: str) -> Optional["LRUCache"]:
        """The registered cache of that name, or ``None``."""
        return self._caches.get(name)

    def stats(self) -> Dict[str, CacheStats]:
        """Snapshot of every registered cache and provider, keyed by name."""
        stats = {name: cache.stats() for name, cache in self._caches.items()}
        for name, provider in self._providers.items():
            stats[name] = provider()
        return stats

    def clear(self, reset_stats: bool = False) -> None:
        """Empty every registered LRU cache (a pure memo reset).

        Stats providers are intentionally untouched — see the class
        docstring.
        """
        for cache in self._caches.values():
            cache.clear(reset_stats=reset_stats)


_PROCESS_REGISTRY = CacheRegistry("process")


class LRUCache:
    """A bounded least-recently-used map with hit/miss/eviction counters.

    ``get`` refreshes recency; ``put`` evicts the *least recently used*
    entries (never the whole table — contrast the old ``_WFA_CACHE`` that
    wiped everything at a threshold) until ``len(self) <= maxsize``.
    """

    __slots__ = ("name", "_maxsize", "_data", "hits", "misses", "evictions")

    def __init__(
        self,
        name: str,
        maxsize: int,
        register: bool = True,
        registry: Optional[CacheRegistry] = None,
    ):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.name = name
        self._maxsize = maxsize
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if registry is not None:
            registry.register(self)
        elif register:
            _PROCESS_REGISTRY.register(self)

    # -- mapping operations ---------------------------------------------------

    def get(self, key: Hashable, default: Any = None) -> Any:
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return default
        try:
            self._data.move_to_end(key)
        except KeyError:
            # Concurrently evicted between the read and the recency bump
            # (process-global memos are shared across engine threads); the
            # value we already read is still valid.
            pass
        self.hits += 1
        return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Non-mutating lookup: no recency refresh, no hit/miss counters.

        For bookkeeping reads — e.g. the engine checking whether a merge
        already stored a verdict — that must not perturb eviction order or
        the observable statistics.
        """
        return self._data.get(key, default)

    def put(self, key: Hashable, value: Any) -> None:
        data = self._data
        if key in data:
            try:
                data.move_to_end(key)
            except KeyError:
                pass  # racing eviction from another thread; insert below
        data[key] = value
        while len(data) > self._maxsize:
            try:
                data.popitem(last=False)
            except KeyError:  # another thread emptied it first
                break
            self.evictions += 1

    def pop(self, key: Hashable, default: Any = None) -> Any:
        """Remove and return an entry (no hit/miss counters — removal is
        bookkeeping, not a lookup).  Used by the compile store to drop a
        locally cached WFA whose on-disk entry was just evicted."""
        return self._data.pop(key, default)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    # -- management -----------------------------------------------------------

    @property
    def maxsize(self) -> int:
        return self._maxsize

    def resize(self, maxsize: int) -> None:
        """Change the capacity, evicting LRU entries if shrinking."""
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self._maxsize = maxsize
        while len(self._data) > maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self, reset_stats: bool = False) -> None:
        self._data.clear()
        if reset_stats:
            self.hits = self.misses = self.evictions = 0

    def stats(self) -> CacheStats:
        return CacheStats(
            name=self.name,
            maxsize=self._maxsize,
            currsize=len(self._data),
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
        )


def process_registry() -> CacheRegistry:
    """The process-wide registry of pure pipeline memos (+ default session)."""
    return _PROCESS_REGISTRY


def lookup_cache(name: str) -> Optional[LRUCache]:
    """The cache of that name in the process registry, or ``None``."""
    return _PROCESS_REGISTRY.lookup(name)


def register_stats_provider(name: str, provider: Callable[[], CacheStats]) -> None:
    """Expose an external (non-LRU) table's counters in :func:`all_cache_stats`."""
    _PROCESS_REGISTRY.register_stats_provider(name, provider)


def all_cache_stats() -> Dict[str, CacheStats]:
    """Snapshot of every cache in the process registry, keyed by name.

    Includes the bounded LRU memos plus any registered read-only providers
    (weak intern tables report ``maxsize=0`` — unbounded, never cleared).
    Caches private to a non-default :class:`repro.engine.NKAEngine` are
    *not* listed here — ask the engine's own :meth:`~repro.engine.NKAEngine.
    stats` instead.
    """
    return _PROCESS_REGISTRY.stats()


def clear_all_caches(reset_stats: bool = False) -> None:
    """Empty every LRU cache in the process registry (purely a memo reset).

    Weak intern tables registered via :func:`register_stats_provider` are
    intentionally not touched — see :class:`CacheRegistry`.  Private engine
    registries are likewise untouched; clear those through the owning
    engine.
    """
    _PROCESS_REGISTRY.clear(reset_stats=reset_stats)
