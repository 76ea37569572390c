"""Pluggable semiring kernel backends for the linalg hot loops.

The decision pipeline is generic over a :class:`~repro.linalg.semiring.
SemiringSpec`, and the pure-python kernels in :mod:`repro.linalg.sparse`,
:mod:`repro.automata.nfa` and :mod:`repro.linalg.rowspace` are the
*oracle*: total, exact over unbounded integers and ``∞``, and the
reference every other backend is differentially gated against.  This
package adds a second, **vectorized** backend
(:mod:`repro.linalg.kernels.numpy_backend`) for three of them: Boolean
reachability, NFA subset steps, and the int64 fast path of the
Tzeng/RowSpace integer elimination.

Kernel protocol
---------------

Every vectorized kernel is a *partial* function: it either returns the
exact result — bit-for-bit the value the oracle would produce — or
**declines** by returning ``None``, and the caller runs the pure-python
code unchanged.  A kernel must decline whenever exactness is not
guaranteed, e.g. integers at risk of exceeding the int64 range.  Declines
are counted per operation and reason (:func:`kernel_stats`), so tests can
*assert* that an overflow took the fallback path rather than trusting
that it did.

Backend selection is explicit, never inferred:

* process-wide default from the ``REPRO_KERNEL`` environment variable
  (``python`` | ``numpy``; unset means ``python``, the oracle);
* :func:`set_backend` / :func:`use_backend` switch it programmatically
  (the benchmark harness compares both in one process);
* per-engine via ``NKAEngine(kernel=...)``, which scopes the backend
  around that session's work and propagates it to pool workers.

The chosen backend and all counters surface in ``engine.stats()["kernel"]``
and in ``BENCH_engine.json``.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Optional, Set

from repro.util.errors import DecisionError

__all__ = [
    "KernelBackendError",
    "available_backends",
    "backend_name",
    "validate_backend",
    "set_backend",
    "use_backend",
    "vectorized_active",
    "kernel_stats",
    "reset_kernel_stats",
    "record_fallback",
    "record_vectorized",
    "try_reachable",
    "try_nfa_successors",
]

_ENV_VAR = "REPRO_KERNEL"

BACKENDS = ("python", "numpy")


class KernelBackendError(DecisionError):
    """An unknown or unavailable kernel backend was requested."""


def _numpy_available() -> bool:
    from repro.linalg.kernels import numpy_backend

    return numpy_backend.available()


def _validate(name: str) -> str:
    if name not in BACKENDS:
        raise KernelBackendError(
            f"unknown kernel backend {name!r}; valid: {', '.join(BACKENDS)}"
        )
    if name == "numpy" and not _numpy_available():
        raise KernelBackendError(
            "kernel backend 'numpy' requested but numpy is not importable"
        )
    return name


def validate_backend(name: str) -> str:
    """Check ``name`` is a known, importable backend; returns it unchanged.

    Raises :class:`KernelBackendError` otherwise.  Used by
    ``NKAEngine(kernel=...)`` to fail at construction time instead of on
    the first compile.
    """
    return _validate(name)


def _initial_backend() -> str:
    requested = os.environ.get(_ENV_VAR, "").strip() or "python"
    try:
        return _validate(requested)
    except KernelBackendError:
        # An import-time env problem must not make the package unusable;
        # the pure-python oracle is always available.  The degraded choice
        # is visible in kernel_stats()["env_backend_degraded"].
        return "python"


_backend: Optional[str] = None
_env_degraded = False


class _ThreadScope(threading.local):
    """Per-thread stack of :func:`use_backend` overrides.

    The override must be thread-local, not process-global: a multi-tenant
    serving process runs several engines' batches on *threads*, each scoping
    its own kernel around its compilations — a global set/restore pair would
    let tenant A's ``use_backend("numpy")`` leak into tenant B's concurrent
    compile (and B's restore could then clobber A's mid-batch).
    """

    def __init__(self):
        self.stack = []


_scope = _ThreadScope()


def backend_name() -> str:
    """The backend active in *this thread* (``python`` or ``numpy``):
    the innermost :func:`use_backend` override if any, else the
    process-wide default."""
    if _scope.stack:
        return _scope.stack[-1]
    global _backend, _env_degraded
    if _backend is None:
        requested = os.environ.get(_ENV_VAR, "").strip() or "python"
        _backend = _initial_backend()
        _env_degraded = _backend != requested
    return _backend


def set_backend(name: str) -> str:
    """Select the process-wide default backend; returns the previous default.

    Thread-local :func:`use_backend` overrides are unaffected (and win over
    the default for the threads holding them).
    """
    global _backend
    if _backend is None:
        backend_name()  # resolve the env-var default once, for the return
    previous = _backend
    _backend = _validate(name)
    return previous


@contextmanager
def use_backend(name: Optional[str]):
    """Scope the backend to a ``with`` block **in the calling thread only**
    (``None`` = leave unchanged).  Overrides nest; other threads — other
    tenants' batches in a serving process — keep their own view."""
    if name is None:
        yield backend_name()
        return
    _scope.stack.append(_validate(name))
    try:
        yield name
    finally:
        _scope.stack.pop()


def available_backends() -> Dict[str, bool]:
    return {"python": True, "numpy": _numpy_available()}


def vectorized_active() -> bool:
    """Whether the vectorized (numpy) backend is the active one."""
    return backend_name() == "numpy"


# -- counters ------------------------------------------------------------------

# Operations the vectorized backend accelerates.  ``vectorized`` counts
# successful fast-path executions; ``fallbacks`` counts declines by reason
# (the pure-python oracle then produced the answer).  Counters are
# process-local: pool workers accumulate their own and the engine reports
# the parent's.
_OPS = ("reachable", "rowspace", "nfa_successors")


def _fresh_counters() -> Dict[str, Dict[str, Any]]:
    return {op: {"vectorized": 0, "fallbacks": {}} for op in _OPS}


_counters = _fresh_counters()

# Counters are process-global and recorded from whatever thread is compiling
# — which, in a serving process, is *not* the thread answering a ``/stats``
# request.  A fallback with a first-of-its-kind reason grows a dict another
# thread may be iterating (``RuntimeError: dictionary changed size during
# iteration``), so every record and every snapshot goes through this lock.
_counters_lock = threading.Lock()


def record_vectorized(op: str) -> None:
    with _counters_lock:
        _counters[op]["vectorized"] += 1


def record_fallback(op: str, reason: str) -> None:
    with _counters_lock:
        fallbacks = _counters[op]["fallbacks"]
        fallbacks[reason] = fallbacks.get(reason, 0) + 1


def fallback_count(op: str, reason: Optional[str] = None) -> int:
    with _counters_lock:
        fallbacks = _counters[op]["fallbacks"]
        if reason is not None:
            return fallbacks.get(reason, 0)
        return sum(fallbacks.values())


def kernel_stats() -> Dict[str, Any]:
    """JSON-friendly snapshot: active backend + per-op counters.

    Safe to call concurrently with running compilations (the serving
    layer's ``/stats`` endpoint does): the snapshot is taken under the
    counter lock, so a mid-iteration insert can never tear it.
    """
    with _counters_lock:
        ops = {
            op: {
                "vectorized": counts["vectorized"],
                "fallbacks": dict(counts["fallbacks"]),
                "fallback_total": sum(counts["fallbacks"].values()),
            }
            for op, counts in _counters.items()
        }
    return {
        "backend": backend_name(),
        "numpy_available": _numpy_available(),
        "env_backend_degraded": _env_degraded,
        "ops": ops,
    }


def reset_kernel_stats() -> None:
    global _counters
    with _counters_lock:
        _counters = _fresh_counters()


# -- dispatch entry points -----------------------------------------------------


def try_reachable(adjacency, seeds: Iterable[int]) -> Optional[Set[int]]:
    """Vectorized reachability or ``None`` (caller runs the worklist)."""
    if not vectorized_active():
        return None
    from repro.linalg.kernels import numpy_backend

    return numpy_backend.reachable(adjacency, seeds)


def try_nfa_successors(nfa, letter: str, states) -> Optional[Any]:
    """Bitset NFA subset step or ``None`` (caller runs the set walk)."""
    if not vectorized_active():
        return None
    from repro.linalg.kernels import numpy_backend

    return numpy_backend.nfa_successors(nfa, letter, states)
