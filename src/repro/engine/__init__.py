"""The decision-engine subsystem: isolated sessions over the NKA pipeline.

Public surface:

* :class:`NKAEngine` — a session owning its compile/verdict caches, with a
  query planner, in-process batch execution and unified metrics
  (:mod:`repro.engine.core`);
* :func:`default_engine` — the process-wide session backing the classic
  :mod:`repro.core.decision` module-level API;
* the shared verdict store — :class:`~repro.engine.store.CompileStore`, a
  content-addressed directory of decided verdicts that many engines,
  processes and hosts read/write concurrently (``NKAEngine(store=...)`` /
  ``REPRO_COMPILE_STORE``), with :func:`describe_store` / :func:`gc_store`
  and a ``python -m repro.engine.store`` ops CLI
  (:mod:`repro.engine.store`); it is also the warm start — a fresh process
  that mounts a populated store compiles and decides nothing it has seen;
* its addressing — :func:`pipeline_fingerprint` and
  :class:`PersistError` (:mod:`repro.engine.persist`);
* planner introspection types for tooling —
  :class:`~repro.engine.planner.BatchPlan`,
  :class:`~repro.engine.planner.PlanStats`.

Typical serve-mode use::

    from repro.engine import NKAEngine

    with NKAEngine("serving", store="nka-store") as engine:
        verdicts = engine.equal_many(batch_of_pairs)  # planned + deduped
        more = engine.equal_many(next_batch)          # same warm caches
    ...
    # later, in a fresh process: mount the same store
    with NKAEngine("serving", store="nka-store") as engine:
        verdicts = engine.equal_many(batch_of_pairs)  # zero compilations

See ``examples/engine_serving.py`` for the full walkthrough and
``src/repro/engine/README.md`` for the batch path and cache semantics.
"""

from repro.engine.core import NKAEngine, default_engine, words_up_to
from repro.engine.persist import PersistError, pipeline_fingerprint
from repro.engine.planner import BatchPlan, PlannedQuery, PlanStats, plan_batch

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
    "PersistError",
    "pipeline_fingerprint",
]
