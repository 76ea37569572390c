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
  before trimming), so short queries are not stuck behind expensive ones
  and early results stream back first;
* **sharing groups** — tasks are grouped by shared subexpressions
  (connected components of the task–expression graph), the unit the
  executor assigns to one worker: every distinct expression is compiled
  once *per process*, because all tasks needing it land on the same
  worker.  A group much larger than the chunk budget would serialise the
  whole batch behind one worker, so :func:`chunk_tasks` splits such
  monoliths into budget-sized sub-chunks — trading a few duplicated
  boundary compilations (counted in ``PlanStats``) for parallelism.

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
    "chunk_tasks",
    "cached_aware_cost_estimate",
    "CACHED_COST",
    "IDENTICAL_RESULT",
]

# The nominal cost of an expression whose automaton is already available
# (compile cache or compile store): not zero — a store hit still pays a
# read + decode — but small enough that ordering and chunking treat it like
# a verdict-cache hit rather than a compilation.
CACHED_COST = 1

# Aim for this many chunks per pool slot: enough slack that a fast worker
# pulls more work instead of idling behind a straggler (or a restarted
# worker rejoining mid-batch), few enough that queue traffic stays noise.
CHUNKS_PER_WORKER = 4

# A sharing group whose cost exceeds this many chunk budgets is split into
# budget-sized sub-chunks instead of travelling whole: keeping it intact
# would serialise the batch behind one worker, which costs more wall-clock
# than re-compiling the few expressions straddling a split boundary.
GROUP_SPLIT_FACTOR = 2


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
    shared_expression_groups: int = 0
    estimated_cost: int = 0
    # Filled by chunk_tasks(): sharing groups split across chunks, and how
    # many distinct expressions ended up in more than one chunk because of
    # it (each costs one extra per-process compilation).
    split_groups: int = 0
    duplicated_expressions: int = 0

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
            "shared_expression_groups": self.shared_expression_groups,
            "estimated_cost": self.estimated_cost,
            "split_groups": self.split_groups,
            "duplicated_expressions": self.duplicated_expressions,
            "dedupe_ratio": round(self.dedupe_ratio, 4),
        }


@dataclass
class BatchPlan:
    """The executable shape of a batch: pre-resolved slots + ordered tasks.

    ``results`` has one slot per original position; planner-resolved slots
    are filled, the rest are ``None`` until their task executes.  ``tasks``
    are cheapest-first; ``groups`` lists task ids that share at least one
    expression (transitively) — the executor's scheduling unit.
    """

    results: List[Optional[EquivalenceResult]]
    tasks: List[PlannedQuery]
    groups: List[List[int]]
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
    without compiling?" — the engine passes a probe over its compile cache
    *plus* the shared :class:`~repro.engine.store.CompileStore`, so a batch
    against a populated store orders and chunks as the nearly-free workload
    it actually is instead of as a wall of phantom compilations.  Cost only
    influences ordering/chunking, never verdicts, so a wrong (raced) answer
    from ``is_cached`` costs at most a suboptimal schedule.
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
    engine passes its result-cache lookup); planning mutates nothing, so a
    plan can be executed by any worker topology.  ``cost_estimate`` maps an
    expression to a relative compile cost (default:
    :func:`_default_cost_estimate`, the position count); it only
    influences ordering and chunking, never verdicts.
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
    groups = _sharing_groups(tasks)
    stats.shared_expression_groups = sum(1 for group in groups if len(group) > 1)
    distinct: set = set()
    for task in tasks:
        distinct.add(task.left)
        distinct.add(task.right)
    stats.distinct_expressions = len(distinct)
    return BatchPlan(results=results, tasks=tasks, groups=groups, stats=stats)


def chunk_tasks(
    plan: BatchPlan,
    workers: int,
    chunks_per_worker: int = CHUNKS_PER_WORKER,
) -> List[List[PlannedQuery]]:
    """Split a plan into steal-friendly chunks for the persistent pool.

    The old executor bin-packed sharing groups statically onto workers
    (LPT): optimal if every worker runs at full speed forever, pathological
    the moment one straggles or dies.  The persistent pool self-schedules
    instead — idle workers pull the next chunk off a shared queue — so the
    planner's job changes: produce *more chunks than workers* (default
    ``chunks_per_worker`` per slot) so pulling balances load dynamically,
    while keeping each sharing group intact inside a single chunk so every
    distinct expression still compiles in exactly one process.

    Deterministic given the plan: groups are taken most-expensive-first
    (the queue-order analogue of LPT — big chunks start early, small ones
    backfill), groups cheaper than the target chunk budget coalesce to
    amortise queue traffic, and tasks inside a chunk keep the planner's
    cheapest-first order.

    A *monolithic* group — one sharing group costing more than
    ``GROUP_SPLIT_FACTOR`` chunk budgets (a batch comparing many variants
    of one big expression family produces exactly this shape) — is split
    into budget-sized sub-chunks in task-id order.  Expressions straddling
    a split boundary compile once per chunk that touches them (the workers'
    persistent memos absorb repeats across batches); the count of split
    groups and duplicated expressions is recorded in ``plan.stats`` so the
    trade stays observable.  Verdicts are unaffected — only which process
    compiles what.
    """
    if not plan.tasks:
        return []
    by_id = {task.task_id: task for task in plan.tasks}
    costed_groups = sorted(
        (
            (sum(by_id[task_id].cost for task_id in group), group)
            for group in plan.groups
        ),
        key=lambda item: (-item[0], item[1][0]),
    )
    total_cost = sum(cost for cost, _group in costed_groups)
    slots = max(1, int(workers)) * max(1, int(chunks_per_worker))
    budget = max(1, total_cost // slots)
    chunks: List[List[PlannedQuery]] = []
    current: List[PlannedQuery] = []
    current_cost = 0
    for cost, group in costed_groups:
        if cost > GROUP_SPLIT_FACTOR * budget and len(group) > 1:
            # Monolithic group: emit budget-sized sub-chunks of its tasks.
            if current:
                chunks.append(current)
                current, current_cost = [], 0
            first_sub = len(chunks)
            sub: List[PlannedQuery] = []
            sub_cost = 0
            for task_id in sorted(group):
                task = by_id[task_id]
                sub.append(task)
                sub_cost += task.cost
                if sub_cost >= budget:
                    chunks.append(sub)
                    sub, sub_cost = [], 0
            if sub:
                chunks.append(sub)
            if len(chunks) - first_sub > 1:
                plan.stats.split_groups += 1
                seen_in: Dict[Expr, int] = {}
                duplicated: set = set()
                for chunk_index in range(first_sub, len(chunks)):
                    for task in chunks[chunk_index]:
                        for expr in (task.left, task.right):
                            earlier = seen_in.setdefault(expr, chunk_index)
                            if earlier != chunk_index:
                                duplicated.add(expr)
                plan.stats.duplicated_expressions += len(duplicated)
            continue
        if current and current_cost + cost > budget:
            chunks.append(current)
            current, current_cost = [], 0
        current.extend(by_id[task_id] for task_id in sorted(group))
        current_cost += cost
        if current_cost >= budget:
            chunks.append(current)
            current, current_cost = [], 0
    if current:
        chunks.append(current)
    return chunks


def _sharing_groups(tasks: Sequence[PlannedQuery]) -> List[List[int]]:
    """Connected components of the task graph linked by shared expressions.

    Union–find keyed on interned expression identity; components come out
    ordered by their cheapest member so the executor's round-robin keeps
    the cheapest-first property across workers.
    """
    parent: Dict[int, int] = {task.task_id: task.task_id for task in tasks}

    def find(node: int) -> int:
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def union(a: int, b: int) -> None:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            # Lower task id wins so component representatives are stable.
            if root_a > root_b:
                root_a, root_b = root_b, root_a
            parent[root_b] = root_a

    owner: Dict[Expr, int] = {}
    for task in tasks:
        for expr in (task.left, task.right):
            seen = owner.get(expr)
            if seen is None:
                owner[expr] = task.task_id
            else:
                union(seen, task.task_id)

    components: Dict[int, List[int]] = {}
    for task in tasks:
        components.setdefault(find(task.task_id), []).append(task.task_id)
    return [components[root] for root in sorted(components)]
