"""The verdict tier: the session verdict cache and the fleet-shared store.

Every NKA verdict is an exact decision, so a verdict is reused as-is: from
the session's verdict cache, or across processes through the
:class:`~repro.engine.store.CompileStore`'s ``.verdict`` entries.  The
transitive-inference ledger that once sat between the two is gone.  This
suite pins:

* the engine wiring — the ``verdicts`` stats section, the removed
  inference toggles (``infer_verdicts=`` / ``REPRO_VERDICT_INFER``), and
  deep products deciding on the first call (recording a verdict must not
  recurse over the expression);
* the store tier — unordered pair keys, round trips, corruption-as-miss,
  byte-budget eviction and ``describe``.
"""

import os
import pickle

import pytest

from gen import random_pairs

from repro.core.expr import sym
from repro.core.parser import parse
from repro.engine import NKAEngine
from repro.engine.persist import expr_digest
from repro.engine.store import CompileStore, describe_store, verdict_pair_key
from repro.serving import TenantConfig


def _assoc_family(count, factors=6, seed=11):
    """Distinct-but-equivalent re-associations of one symbol product."""
    import random

    rng = random.Random(seed)
    syms = [sym(f"s{i}") for i in range(factors)]

    def associate(lo, hi):
        if hi - lo == 1:
            return syms[lo]
        split = rng.randint(lo + 1, hi - 1)
        return associate(lo, split) * associate(split, hi)

    family, seen = [], set()
    while len(family) < count:
        expr = associate(0, factors)
        if expr not in seen:
            seen.add(expr)
            family.append(expr)
    return family


class TestEngineInference:
    def test_env_and_configure_toggles(self, monkeypatch):
        """Inference is gone: no constructor, configure or tenant toggle
        turns it on, and the environment variable is ignored."""
        with pytest.raises(TypeError):
            NKAEngine("inf-kw", infer_verdicts=True)
        with pytest.raises(TypeError):
            NKAEngine("inf-cfg").configure(infer_verdicts=True)
        with pytest.raises(TypeError):
            TenantConfig("t", infer_verdicts=True)
        monkeypatch.setenv("REPRO_VERDICT_INFER", "1")
        engine = NKAEngine("inf-env")
        assert engine.stats()["verdicts"]["infer_enabled"] is False
        assert TenantConfig("t").infer_verdicts is False
        # A verdict that transitivity would imply is decided directly.
        a, b, c = _assoc_family(3, seed=23)
        assert engine.equal(a, b) and engine.equal(b, c)
        result = engine.equal_detailed(a, c)
        assert result.equal and not result.reason.startswith("inferred")
        assert engine.stats()["decisions"] == 3

    def test_ledger_section_in_stats_json(self):
        """The ledger's counters left the ``verdicts`` section; what stays
        counts direct decisions, cache hits and store traffic."""
        import json

        engine = NKAEngine("stats-verdicts")
        a, b = _assoc_family(2, seed=25)
        engine.equal(a, b)
        engine.equal(b, a)
        section = json.loads(engine.stats_json())["verdicts"]
        assert section == {
            "infer_enabled": False,
            "direct": 1,
            "cache_hits": 1,
            "store_hits": 0,
            "published": 0,
        }

    @pytest.mark.parametrize("api", ["equal_detailed", "equal_many_detailed"])
    def test_deep_product_decides_on_first_call(self, api):
        """Regression: a 2,000-letter product against itself plus ``0``
        raised ``RecursionError`` on the first call, because recording the
        verdict digested the expression recursively."""
        text = " ".join(["a"] * 2000)
        left, right = parse(text), parse(text + " + 0")
        assert left is not right
        engine = NKAEngine("deep", store=False)
        if api == "equal_detailed":
            result = engine.equal_detailed(left, right)
        else:
            (result,) = engine.equal_many_detailed([(left, right)])
        assert result.equal
        assert engine.stats()["decisions"] == 1


class TestVerdictStore:
    def test_pair_key_is_unordered(self):
        key = verdict_pair_key("b" * 64, "a" * 64)
        assert key == verdict_pair_key("a" * 64, "b" * 64)
        assert key == "a" * 64 + "-" + "b" * 64

    def test_round_trip_and_corruption_as_miss(self, tmp_path):
        store = CompileStore(str(tmp_path))
        a, b = _assoc_family(2, seed=31)
        result = NKAEngine("vs-oracle").equal_detailed(a, b)
        da, db = expr_digest(a), expr_digest(b)
        assert store.get_verdict(da, db) is None
        assert store.publish_verdict(da, db, result) is True
        assert store.publish_verdict(db, da, result) is False  # symmetric dup
        fresh = CompileStore(str(tmp_path))
        served = fresh.get_verdict(db, da)
        assert pickle.dumps(served) == pickle.dumps(result)
        # Corrupt the entry: silently a miss, counted, unlinked.
        path = fresh._entry_path(verdict_pair_key(da, db))
        with open(path, "wb") as handle:
            handle.write(b"torn")
        mangled = CompileStore(str(tmp_path))
        assert mangled.get_verdict(da, db) is None
        assert mangled.stats()["corrupt_skipped"] == 1
        assert not os.path.exists(path)

    def test_verdict_entries_evict_under_byte_budget(self, tmp_path):
        store = CompileStore(str(tmp_path))
        oracle = NKAEngine("vs-evict-oracle")
        pairs = random_pairs(seed=932, count=12, depth=2, equal_fraction=0.0)
        for left, right in pairs:
            if left is right:
                continue
            result = oracle.equal_detailed(left, right)
            store.publish_verdict(
                expr_digest(left), expr_digest(right), result
            )
        published = store.stats()["publishes"]
        assert published > 4
        evicted = store.evict(max_bytes=0)
        assert evicted == published
        left, right = next((l, r) for l, r in pairs if l is not r)
        assert store.get_verdict(expr_digest(left), expr_digest(right)) is None

    def test_describe_splits_wfa_and_verdict_entries(self, tmp_path):
        """``describe`` counts verdict entries only: a ``.wfa`` file an
        older writer left is not an entry (``gc`` deletes it)."""
        root = str(tmp_path)
        store = CompileStore(root)
        engine = NKAEngine("vs-describe", store=store)
        a, b = _assoc_family(2, seed=33)
        engine.equal_detailed(a, b)
        legacy = os.path.join(store._fingerprint_dir(), "ab", "ab" * 32 + ".wfa")
        os.makedirs(os.path.dirname(legacy), exist_ok=True)
        with open(legacy, "wb") as handle:
            handle.write(b"compiled automaton")
        description = describe_store(root)
        assert description["entries"] == 1
        assert description["bytes"] > 0
        assert description["tmp_files"] == 0
        fresh = description["fingerprints"][store.fingerprint]
        assert fresh["entries"] == fresh["indexed"] == 1
