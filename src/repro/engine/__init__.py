"""The decision-engine subsystem: isolated sessions over the NKA pipeline.

Public surface:

* :class:`NKAEngine` — a session owning its compile/verdict caches, with a
  query planner, in-process batch execution, persistent warm start and
  unified metrics (:mod:`repro.engine.core`);
* :func:`default_engine` — the process-wide session backing the classic
  :mod:`repro.core.decision` module-level API;
* the persistence layer — :class:`WarmState`, :func:`pipeline_fingerprint`,
  :class:`WarmStateError` / :class:`StaleWarmStateError`,
  :func:`describe_warm_state` (:mod:`repro.engine.persist`);
* the shared compile store — :class:`~repro.engine.store.CompileStore`, a
  content-addressed directory of compiled automata that many engines,
  processes and hosts read/write concurrently (``NKAEngine(store=...)`` /
  ``REPRO_COMPILE_STORE``), with :func:`describe_store` / :func:`gc_store`
  and a ``python -m repro.engine.store`` ops CLI
  (:mod:`repro.engine.store`);
* the verdict tier — :class:`~repro.engine.verdicts.VerdictLedger`, a
  union–find over proven-equal expressions with a per-class refutation
  index; with ``NKAEngine(infer_verdicts=True)`` (or
  ``REPRO_VERDICT_INFER=1``) chains of known verdicts answer new pairs
  with zero compiles and zero Tzeng runs, and the store also shares
  whole *verdicts* fleet-wide (:mod:`repro.engine.verdicts`);
* planner introspection types for tooling —
  :class:`~repro.engine.planner.BatchPlan`,
  :class:`~repro.engine.planner.PlanStats`.

Typical serve-mode use::

    from repro.engine import NKAEngine

    with NKAEngine("serving") as engine:
        verdicts = engine.equal_many(batch_of_pairs)  # planned + deduped
        more = engine.equal_many(next_batch)          # same warm caches
        engine.save_warm_state("nka-warm.pickle")
    ...
    with NKAEngine("serving", warm_state="nka-warm.pickle") as engine:
        verdicts = engine.equal_many(batch_of_pairs)  # zero compilations

See ``examples/engine_serving.py`` for the full walkthrough and
``src/repro/engine/README.md`` for the batch path and cache semantics.
"""

from repro.engine.core import NKAEngine, default_engine, words_up_to
from repro.engine.persist import (
    StaleWarmStateError,
    WarmState,
    WarmStateError,
    describe_warm_state,
    load_warm_state,
    pipeline_fingerprint,
    save_warm_state,
)
from repro.engine.planner import BatchPlan, PlannedQuery, PlanStats, plan_batch
from repro.engine.verdicts import (
    INFERRED_EQUAL_REASON,
    VerdictContradictionError,
    VerdictLedger,
    inferred_refuted_reason,
    is_inferred_reason,
)

# The store's names resolve lazily (PEP 562): `python -m repro.engine.store`
# imports this package first, and an eager submodule import here would leave
# the CLI's module in sys.modules before runpy executes it — a double-import
# warning on every ops invocation.
_STORE_EXPORTS = (
    "CompileStore",
    "describe_store",
    "gc_store",
    "open_default_store",
    "verdict_pair_key",
)


def __getattr__(name: str):
    if name in _STORE_EXPORTS:
        from repro.engine import store

        return getattr(store, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "NKAEngine",
    "default_engine",
    "words_up_to",
    "BatchPlan",
    "PlannedQuery",
    "PlanStats",
    "plan_batch",
    "CompileStore",
    "describe_store",
    "gc_store",
    "open_default_store",
    "verdict_pair_key",
    "VerdictLedger",
    "VerdictContradictionError",
    "INFERRED_EQUAL_REASON",
    "inferred_refuted_reason",
    "is_inferred_reason",
    "WarmState",
    "WarmStateError",
    "StaleWarmStateError",
    "pipeline_fingerprint",
    "save_warm_state",
    "load_warm_state",
    "describe_warm_state",
]
