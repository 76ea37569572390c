"""Regression tests for the bounded decision-procedure caches.

The seed implementation kept compiled automata in a plain dict that (a)
wiped itself wholesale when a size constant was hit and (b) was easy to
grow without bound through ``coefficient`` (whose keys include the query
word's letters).  These tests pin the new behaviour: capacity is a hard
bound under any workload, eviction is LRU (not a wholesale wipe), and
eviction never changes answers.
"""

import pytest

from gen import random_pairs

from repro.core.decision import (
    cache_stats,
    clear_caches,
    coefficient,
    configure_caches,
    nka_equal,
)
from repro.core.expr import Symbol
from repro.core.parser import parse
from repro.util.cache import LRUCache


@pytest.fixture
def small_caches():
    """Shrink the pipeline caches for the test, then restore prior capacities."""
    stats = cache_stats()
    wfa_capacity = stats["decision.wfa"].maxsize
    result_capacity = stats["decision.results"].maxsize
    clear_caches(reset_stats=True)
    configure_caches(wfa_capacity=4, result_capacity=4)
    try:
        yield
    finally:
        configure_caches(
            wfa_capacity=wfa_capacity, result_capacity=result_capacity
        )
        clear_caches(reset_stats=True)


class TestLRUCacheUnit:
    def test_eviction_is_lru_not_wipe(self):
        cache = LRUCache("test.unit", maxsize=3, register=False)
        for key in "abc":
            cache.put(key, key.upper())
        assert cache.get("a") == "A"  # refresh 'a'
        cache.put("d", "D")  # evicts 'b', the LRU entry
        assert "a" in cache and "c" in cache and "d" in cache
        assert "b" not in cache
        assert len(cache) == 3
        assert cache.stats().evictions == 1

    def test_stats_and_clear(self):
        cache = LRUCache("test.stats", maxsize=2, register=False)
        cache.put("x", 1)
        assert cache.get("x") == 1
        assert cache.get("missing") is None
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.currsize) == (1, 1, 1)
        assert 0.0 < stats.hit_rate < 1.0
        cache.clear(reset_stats=True)
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.currsize) == (0, 0, 0)

    def test_resize_shrinks_with_eviction(self):
        cache = LRUCache("test.resize", maxsize=4, register=False)
        for i in range(4):
            cache.put(i, i)
        cache.resize(2)
        assert len(cache) == 2
        assert 3 in cache and 2 in cache  # most recent survive
        assert cache.stats().evictions == 2

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache("test.bad", maxsize=0, register=False)
        cache = LRUCache("test.ok", maxsize=1, register=False)
        with pytest.raises(ValueError):
            cache.resize(0)


class TestWFACacheBounded:
    def test_capacity_is_a_hard_bound(self, small_caches):
        pairs = random_pairs(seed=61, count=12, letters=("a", "b"), depth=3)
        answers = [nka_equal(l, r) for l, r in pairs]
        stats = cache_stats()["decision.wfa"]
        assert stats.currsize <= 4
        assert stats.evictions > 0
        # Eviction must not change answers: re-ask everything cold-ish.
        assert [nka_equal(l, r) for l, r in pairs] == answers

    def test_coefficient_words_cannot_blow_the_cache(self, small_caches):
        """The old growth bug: per-word alphabets minted unbounded keys."""
        expr = parse("(a + b)*")
        for i in range(50):
            # Each fresh letter used to add a new (expr, sigma) entry forever.
            coefficient(expr, [f"x{i}"])
        stats = cache_stats()["decision.wfa"]
        assert stats.currsize <= 4

    def test_result_cache_hits_on_repeat_and_symmetry(self, small_caches):
        a, b = Symbol("a"), Symbol("b")
        left, right = a + b, b + a
        assert nka_equal(left, right)
        before = cache_stats()["decision.results"].hits
        assert nka_equal(left, right)      # exact repeat
        assert nka_equal(right, left)      # symmetric repeat
        after = cache_stats()["decision.results"].hits
        assert after >= before + 2

    def test_clear_caches_empties_everything(self, small_caches):
        assert nka_equal(parse("a + b"), parse("b + a"))
        assert any(s.currsize for s in cache_stats().values())
        clear_caches()
        assert all(s.currsize == 0 for s in cache_stats().values())

    def test_stats_are_inspectable_via_public_api(self):
        clear_caches(reset_stats=True)
        nka_equal(parse("a b"), parse("b a"))
        stats = cache_stats()
        for name in ("decision.wfa", "decision.results", "rewrite.flatten",
                     "expr.alphabet"):
            assert name in stats, f"missing pipeline cache {name}"
        assert stats["decision.wfa"].misses >= 2  # both sides compiled
