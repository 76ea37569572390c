"""The decision procedure for the equational theory of NKA.

By the completeness theorem for rational power series (paper Theorem A.6,
due to Bloom–Ésik and Ésik–Kuich), for any expressions ``e, f``::

    ⊢NKA e = f   ⟺   {{e}} = {{f}}

and by the quantum completeness theorem (paper Theorem 4.2) this is further
equivalent to ``Qint(e) = Qint(f)`` for every quantum interpretation.  The
right-hand side is decidable (Remark 2.1): we compile both expressions to
``N̄``-weighted automata and decide behavioural equality exactly
(:func:`repro.automata.equivalence.wfa_equivalent`).

So :func:`nka_equal` decides *provability in NKA*: a ``True`` answer means a
derivation from the Figure 3 axioms exists; a ``False`` answer comes with a
concrete word on which the coefficients of ``{{e}}`` and ``{{f}}`` differ
(which, through the completeness construction, yields a quantum
interpretation separating the two expressions).

Inequality ``e ≤ f`` is *undecidable* in general (Eilenberg, cited in
Remark 2.1), so only a refutation-complete bounded check is offered
(:func:`nka_leq_refute`).

Caching contract
----------------

This module is a thin façade over the process's **default engine session**
(:func:`repro.engine.default_engine`).  An :class:`repro.engine.NKAEngine`
owns the two stateful caches of the pipeline:

* compiled automata, keyed by the interned expression alone — each
  expression compiles over its *own* alphabet (the verdict is
  alphabet-independent; :func:`~repro.automata.equivalence.wfa_equivalent`
  extends infinity supports to the union alphabet), so one entry serves
  every partner, batch and ``coefficient`` word;
* full equivalence verdicts, keyed by the expression pair and stored
  symmetrically, so re-asking a question — in either orientation — is O(1).

Both are bounded LRUs; eviction never changes answers, only timing.  The
upstream memos (``rewrite.flatten``, ``rewrite.match``, ``rewrite.rules``,
``rewrite.occurrences``, ``planner.letters``, ``expr.alphabet``) are pure
functions of interned nodes and stay **process-global**, shared by every
engine session; the weak intern tables report read-only stats as
``rewrite.interned`` and are never cleared (entries vanish with their last
strong reference — see :mod:`repro.core.rewrite`).

:func:`cache_stats`, :func:`clear_caches` and :func:`configure_caches`
operate on the default session plus the process-global memos, exactly as
they always have (the default engine's caches keep their historical
registry names ``decision.wfa`` / ``decision.results``).  Isolated
workloads — separate serving sessions, tests that must not share verdicts,
differently-sized caches — construct their own
:class:`~repro.engine.NKAEngine`; for batches, the engine's planner dedupes
by interned identity before :meth:`~repro.engine.NKAEngine.equal_many` runs
the remaining tasks on the session's caches, and
``NKAEngine(store=…)`` shares decided verdicts across processes through a
verdict store — a fresh process that mounts it starts warm.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.automata.equivalence import EquivalenceResult
from repro.core.expr import Expr
from repro.core.semiring import ExtNat
from repro.engine import default_engine, words_up_to
from repro.util.cache import CacheStats, all_cache_stats, clear_all_caches

__all__ = [
    "nka_equal",
    "nka_equal_detailed",
    "nka_equal_many",
    "nka_equal_many_detailed",
    "coefficient",
    "nka_leq_refute",
    "cache_stats",
    "clear_caches",
    "configure_caches",
]

# Materialise the default session now so ``decision.wfa`` /
# ``decision.results`` are present in the global registry from import on
# (long-standing contract of cache_stats()); this allocates two empty LRU
# maps and nothing else — no disk, no compilation.
default_engine()


def cache_stats() -> Dict[str, CacheStats]:
    """Hit/miss/eviction counters for every pipeline cache, keyed by name.

    Includes the default session's compile cache (``decision.wfa``) and
    verdict cache (``decision.results``) plus the process-global memos
    (``rewrite.flatten``, ``planner.letters``, ``expr.alphabet``, …).
    Private engine sessions report through their own
    :meth:`~repro.engine.NKAEngine.stats` instead.
    """
    return all_cache_stats()


def clear_caches(reset_stats: bool = False) -> None:
    """Empty every pipeline cache (a pure memo reset — answers never change).

    Use in long-lived processes to release memory, or in tests/benchmarks
    to force cold-cache behaviour.  The weak intern tables of
    :mod:`repro.core.expr` need no clearing (entries vanish with their
    expressions); this only drops derived artefacts.  Clears the default
    session and the shared memos; private engines clear themselves via
    :meth:`~repro.engine.NKAEngine.clear`.
    """
    clear_all_caches(reset_stats=reset_stats)


def configure_caches(
    wfa_capacity: Optional[int] = None, result_capacity: Optional[int] = None
) -> None:
    """Resize the default session's caches (shrinking evicts LRU entries)."""
    default_engine().configure(
        wfa_capacity=wfa_capacity, result_capacity=result_capacity
    )


def nka_equal_detailed(left: Expr, right: Expr) -> EquivalenceResult:
    """Decide ``⊢NKA left = right`` and report how it was decided."""
    return default_engine().equal_detailed(left, right)


def nka_equal(left: Expr, right: Expr) -> bool:
    """Decide ``⊢NKA left = right`` (True iff derivable from the NKA axioms)."""
    return default_engine().equal(left, right)


def nka_equal_many_detailed(
    pairs: Iterable[Tuple[Expr, Expr]],
) -> List[EquivalenceResult]:
    """Decide a batch of queries through the default engine's planner.

    The batch is deduped by interned identity (duplicates and symmetric
    flips collapse to one task), short-circuited against the verdict cache,
    ordered cheapest-first, and run through the default engine's caches.
    Verdicts agree with the one-at-a-time API and land in the same caches.
    """
    return default_engine().equal_many_detailed(pairs)


def nka_equal_many(pairs: Iterable[Tuple[Expr, Expr]]) -> List[bool]:
    """Batched :func:`nka_equal`: one bool per pair, compilation shared."""
    return default_engine().equal_many(pairs)


def coefficient(expr: Expr, word: Sequence[str]) -> ExtNat:
    """The coefficient ``{{expr}}[word]`` of the rational power series.

    Computed through the compiled automaton, hence exact — including ``∞``
    coefficients such as ``{{1*}}[ε] = ∞``.
    """
    return default_engine().coefficient(expr, word)


def _words_up_to(letters: Tuple[str, ...], max_length: int):
    """Shortest-first word stream (kept for callers/tests of the old name).

    Constant-memory: delegates to :func:`repro.engine.words_up_to`, which
    replaced the stored-frontier BFS that materialised an entire
    ``|Σ|^max_length`` level in memory.
    """
    return words_up_to(letters, max_length)


def nka_leq_refute(
    left: Expr, right: Expr, max_length: int = 4
) -> Optional[Tuple[str, ...]]:
    """Search for a refutation of ``left ≤ right`` up to ``max_length``.

    Returns a word ``w`` with ``{{left}}[w] > {{right}}[w]`` if one exists
    among words of length at most ``max_length``, else ``None``.  A ``None``
    answer is *not* a proof of ``left ≤ right`` — the pointwise order on
    rational series is undecidable (Remark 2.1) — but every genuine failure
    has a finite witness, so this check is refutation-complete in the limit.
    """
    return default_engine().leq_refute(left, right, max_length=max_length)
