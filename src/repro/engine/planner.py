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
  the engine's verdict tiers (session verdict cache, then one store read)
  never become tasks at all.

The remaining tasks keep the order in which their pairs first appear.
They run one after another in one thread and the batch returns only when
all are done, so no order would change a verdict or a latency a caller
can see.

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
from repro.core.expr import Expr

__all__ = [
    "PlannedQuery",
    "PlanStats",
    "BatchPlan",
    "plan_batch",
    "IDENTICAL_RESULT",
]

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
            "dedupe_ratio": round(self.dedupe_ratio, 4),
        }


@dataclass
class BatchPlan:
    """The executable shape of a batch: pre-resolved slots + tasks.

    ``results`` has one slot per original position; planner-resolved slots
    are filled, the rest are ``None`` until their task executes.  ``tasks``
    are in first-appearance order.
    """

    results: List[Optional[EquivalenceResult]]
    tasks: List[PlannedQuery]
    stats: PlanStats


def plan_batch(
    pairs: Sequence[Tuple[Expr, Expr]],
    cached_verdict: Callable[[Expr, Expr], Optional[EquivalenceResult]],
) -> BatchPlan:
    """Plan a batch against an engine's verdict tiers.

    ``cached_verdict`` is consulted once per distinct unordered pair (the
    engine passes its verdict lookup); planning itself compiles and
    decides nothing.
    """
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
            positions=[position],
        )
        task_by_pair[(left, right)] = task
        tasks.append(task)
    stats.tasks = len(tasks)
    distinct: set = set()
    for task in tasks:
        distinct.add(task.left)
        distinct.add(task.right)
    stats.distinct_expressions = len(distinct)
    return BatchPlan(results=results, tasks=tasks, stats=stats)

