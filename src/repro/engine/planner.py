"""Query planning for batched NKA equality queries.

The decision pipeline is compositional per pair — compile both sides,
decide behavioural equality — which makes a batch of queries a planning
problem rather than a loop:

* **dedupe by interned identity** — hash-consing makes duplicate pairs
  (and symmetric flips ``(f, e)`` of an earlier ``(e, f)``) pointer-equal,
  so the planner resolves them to one shared task before any automaton
  work;
* **short-circuit** — pointer-equal pairs are answered inline (equal
  syntax trivially has equal series) and pairs whose verdict is already in
  the engine's result cache never become tasks at all;
* **cost ordering** — remaining tasks are ordered cheapest-first by the
  expressions' position counts (letter occurrences + 1, the state count
  of the position automaton :func:`repro.automata.wfa.expr_to_wfa` builds
  before trimming), so short queries are not stuck behind expensive ones.

Each expression is compiled over its **own** alphabet (the decision is
alphabet-independent — see :func:`repro.automata.equivalence.wfa_equivalent`
on union-alphabet extension), so compilation sharing crosses pair and batch
boundaries, and Tzeng never pays for letters a pair does not mention — the
old batch API compiled everything over the whole batch's union alphabet.

The planner is pure bookkeeping over interned pointers: it never compiles,
so planning a thousand-pair batch costs microseconds, and verdicts are
byte-identical to the one-at-a-time path by construction (every task is
decided by exactly the same computation the sequential path would run).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.automata.equivalence import EquivalenceResult
from repro.core.expr import Expr, Symbol
from repro.util.cache import LRUCache

__all__ = [
    "PlannedQuery",
    "PlanStats",
    "BatchPlan",
    "plan_batch",
    "cached_aware_cost_estimate",
    "CACHED_COST",
    "IDENTICAL_RESULT",
]

# The nominal cost of an expression whose automaton is already in the
# compile cache: not zero — the decision still runs on it — but small
# enough that ordering treats it like a verdict-cache hit rather than a
# compilation.
CACHED_COST = 1


# The inline verdict for pointer-equal pairs — the same object the engine's
# decide() fast path returns, so planner short-circuits are indistinguishable
# from sequential answers.
IDENTICAL_RESULT = EquivalenceResult(
    equal=True, counterexample=None, reason="syntactically identical"
)


@dataclass
class PlannedQuery:
    """One distinct automaton-level query, serving one or more positions."""

    task_id: int
    left: Expr
    right: Expr
    cost: int
    positions: List[int] = field(default_factory=list)


@dataclass
class PlanStats:
    """Planner counters for one batch (aggregated into engine stats)."""

    queries: int = 0
    pointer_equal: int = 0
    verdict_cache_hits: int = 0
    duplicates: int = 0
    tasks: int = 0
    distinct_expressions: int = 0
    estimated_cost: int = 0

    @property
    def dedupe_ratio(self) -> float:
        """Fraction of batch positions that needed no fresh automaton work."""
        if not self.queries:
            return 0.0
        return 1.0 - self.tasks / self.queries

    def as_dict(self) -> Dict[str, float]:
        return {
            "queries": self.queries,
            "pointer_equal": self.pointer_equal,
            "verdict_cache_hits": self.verdict_cache_hits,
            "duplicates": self.duplicates,
            "tasks": self.tasks,
            "distinct_expressions": self.distinct_expressions,
            "estimated_cost": self.estimated_cost,
            "dedupe_ratio": round(self.dedupe_ratio, 4),
        }


@dataclass
class BatchPlan:
    """The executable shape of a batch: pre-resolved slots + ordered tasks.

    ``results`` has one slot per original position; planner-resolved slots
    are filled, the rest are ``None`` until their task executes.  ``tasks``
    are cheapest-first.
    """

    results: List[Optional[EquivalenceResult]]
    tasks: List[PlannedQuery]
    stats: PlanStats


_LETTER_COUNT_CACHE = LRUCache("planner.letters", maxsize=1 << 16)


def _letter_occurrences(expr: Expr) -> int:
    """Number of letter occurrences in ``expr`` (memoized per interned node).

    An iterative post-order walk, so a product or nest of any depth is
    counted without recursion.
    """
    counts: Dict[Expr, int] = {}
    stack = [expr]
    while stack:
        node = stack[-1]
        if node in counts:
            stack.pop()
            continue
        if isinstance(node, Symbol):
            count = 1
        else:
            children = node.children()
            count = _LETTER_COUNT_CACHE.get(node) if children else 0
            if count is None:
                pending = [child for child in children if child not in counts]
                if pending:
                    stack.extend(pending)
                    continue
                count = sum(counts[child] for child in children)
                _LETTER_COUNT_CACHE.put(node, count)
        counts[node] = count
        stack.pop()
    return counts[expr]


def _default_cost_estimate(expr: Expr) -> int:
    """Position count of ``expr``: its letter occurrences + 1.

    That is the untrimmed state count of its position automaton, a cheap
    monotone proxy for compile and decide cost.
    """
    return _letter_occurrences(expr) + 1


def cached_aware_cost_estimate(
    base: Callable[[Expr], int],
    is_cached: Callable[[Expr], bool],
) -> Callable[[Expr], int]:
    """A cost estimate that treats already-compiled expressions as near-free.

    ``is_cached`` answers "is this expression's automaton already available
    without compiling?" — the engine passes a probe over its session
    compile cache, so a batch over already-compiled expressions orders as
    the nearly-free workload it actually is instead of as a wall of
    phantom compilations.  Cost only influences ordering, never verdicts,
    so a wrong (raced) answer from ``is_cached`` costs at most a
    suboptimal order.
    """

    def estimate(expr: Expr) -> int:
        if is_cached(expr):
            return CACHED_COST
        return base(expr)

    return estimate


def plan_batch(
    pairs: Sequence[Tuple[Expr, Expr]],
    cached_verdict: Callable[[Expr, Expr], Optional[EquivalenceResult]],
    cost_estimate: Optional[Callable[[Expr], int]] = None,
) -> BatchPlan:
    """Plan a batch against an engine's verdict cache.

    ``cached_verdict`` is consulted once per distinct unordered pair (the
    engine passes its result-cache lookup); planning itself compiles and
    decides nothing.  ``cost_estimate`` maps an expression to a relative
    compile cost (default: :func:`_default_cost_estimate`, the position
    count); it only influences ordering, never verdicts.
    """
    if cost_estimate is None:
        cost_estimate = _default_cost_estimate
    stats = PlanStats(queries=len(pairs))
    results: List[Optional[EquivalenceResult]] = [None] * len(pairs)
    task_by_pair: Dict[Tuple[Expr, Expr], PlannedQuery] = {}
    tasks: List[PlannedQuery] = []
    for position, (left, right) in enumerate(pairs):
        if left is right:
            results[position] = IDENTICAL_RESULT
            stats.pointer_equal += 1
            continue
        existing = task_by_pair.get((left, right)) or task_by_pair.get((right, left))
        if existing is not None:
            existing.positions.append(position)
            stats.duplicates += 1
            continue
        cached = cached_verdict(left, right)
        if cached is not None:
            results[position] = cached
            stats.verdict_cache_hits += 1
            # Later duplicates of a cached pair are cache hits too; they are
            # not recorded in task_by_pair so each consults the cache —
            # mirroring what the sequential loop would do.
            continue
        task = PlannedQuery(
            task_id=len(tasks),
            left=left,
            right=right,
            cost=cost_estimate(left) + cost_estimate(right),
            positions=[position],
        )
        task_by_pair[(left, right)] = task
        tasks.append(task)

    # Cheapest-first, deterministically (ties broken by first appearance).
    tasks.sort(key=lambda task: (task.cost, task.task_id))
    for new_id, task in enumerate(tasks):
        task.task_id = new_id

    stats.tasks = len(tasks)
    stats.estimated_cost = sum(task.cost for task in tasks)
    distinct: set = set()
    for task in tasks:
        distinct.add(task.left)
        distinct.add(task.right)
    stats.distinct_expressions = len(distinct)
    return BatchPlan(results=results, tasks=tasks, stats=stats)

