"""Persistent warm-start state for :class:`repro.engine.NKAEngine`.

A long-lived serving process answers most queries out of the compile and
verdict caches; a *freshly started* process answers nothing until it has
recompiled the working set.  This module closes that gap: an engine can
serialize its caches to an on-disk **warm state**
(:meth:`repro.engine.NKAEngine.save_warm_state`) and a new process — or a
new engine session in the same process — can start from it
(``NKAEngine(warm_state=...)``), answering the same workload with zero
compilations.

Format and staleness
--------------------

The state is a single pickle (expressions re-intern on load — see the
hash-consing contract of :mod:`repro.core.expr` — and sparse matrices
re-attach their canonical semiring instances by name).  Every state embeds a
**pipeline fingerprint**: a hash over the source of each module whose
behaviour the cached artefacts depend on (expression interning, the
position-automaton construction, Tzeng, the sparse linear algebra) plus a
format version.  Loading checks the fingerprint first and rejects stale
state with :class:`StaleWarmStateError` — a WFA compiled by an older
pipeline must never masquerade as a fresh one, and a clean typed error lets
a serving wrapper fall back to a cold start and rebuild the state.

Nothing in this module runs at import time: fingerprints are computed on
first use, so ``import repro`` stays free of disk I/O.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.automata.equivalence import EquivalenceResult
from repro.automata.wfa import WFA
from repro.core.expr import Expr, One, Product, Star, Sum, Symbol, Zero
from repro.util.cache import LRUCache

__all__ = [
    "PERSIST_FORMAT",
    "PICKLE_PROTOCOL",
    "WarmState",
    "WarmStateError",
    "StaleWarmStateError",
    "pipeline_fingerprint",
    "expr_digest",
    "dumps_artifact",
    "loads_artifact",
    "make_warm_state",
    "save_warm_state",
    "load_warm_state",
    "describe_warm_state",
]

# Format 2: WarmState grew the verdict-ledger fields (equivalence classes
# + refutation witnesses).  The constant participates in the pipeline
# fingerprint, so every format-1 state and store tree is cleanly stale —
# never half-loaded with the ledger missing.
PERSIST_FORMAT = 2

# The one pickling contract for every persisted compile artefact: the warm
# state (this module) and the content-addressed compile store
# (:mod:`repro.engine.store`) must serialize identically, or a WFA written
# by one tier could fail to round-trip through the other.
PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


def dumps_artifact(obj: Any) -> bytes:
    """Serialize a persisted artefact under the shared pickling contract."""
    return pickle.dumps(obj, protocol=PICKLE_PROTOCOL)


def loads_artifact(data: bytes) -> Any:
    """Deserialize persisted bytes, mapping every decode failure to
    :class:`WarmStateError` — callers never see raw pickle internals."""
    try:
        return pickle.loads(data)
    except (
        pickle.UnpicklingError,
        EOFError,
        AttributeError,
        ImportError,
        IndexError,
        MemoryError,
        TypeError,
        ValueError,
    ) as error:
        raise WarmStateError(f"persisted artefact is not decodable: {error}") from error

# Modules whose source determines the meaning of persisted artefacts.  A
# change to any of them (new node layout, a different construction, a Tzeng
# rework …) flips the fingerprint and invalidates every stored state.
_FINGERPRINT_MODULES = (
    "repro.core.expr",
    "repro.core.semiring",
    "repro.linalg.semiring",
    "repro.linalg.sparse",
    "repro.linalg.rowspace",
    "repro.automata.nfa",
    "repro.automata.wfa",
    "repro.automata.equivalence",
)

_FINGERPRINT: Optional[str] = None


def pipeline_fingerprint() -> str:
    """Hex digest identifying the compile pipeline's current behaviour.

    Computed once per process (the sources cannot change under a running
    interpreter in any way that matters to already-imported code).

    The module list is deliberately **planner-independent**:
    ``repro.engine.planner`` (and the engine's batch loop around it) only
    decide *what is compiled in which order* — never the bytes of a
    compiled automaton or a verdict — so reordering logic must not
    invalidate every persisted artefact in the fleet.  Only
    modules whose source determines artefact *meaning* (interning, the
    position-automaton construction, Tzeng, the semiring linear algebra)
    participate; ``tests/test_compile_store.py`` pins the exact list.

    Raises :class:`WarmStateError` when any fingerprint module has no
    readable source file (e.g. a ``.pyc``-only install): silently skipping
    a module would fingerprint an *incomplete* pipeline, and two hosts
    with different missing subsets would collide on the same fingerprint
    while running different code — exactly the wrong-WFA scenario the
    fingerprint exists to prevent.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        digest = hashlib.sha256()
        digest.update(f"format:{PERSIST_FORMAT}".encode())
        for name in _FINGERPRINT_MODULES:
            module = importlib.import_module(name)
            source = getattr(module, "__file__", None)
            digest.update(name.encode())
            if not source or not os.path.exists(source):
                raise WarmStateError(
                    f"cannot fingerprint pipeline: module {name!r} has no "
                    f"readable source file ({source!r}); refusing to stamp "
                    "artefacts with an incomplete pipeline fingerprint"
                )
            with open(source, "rb") as handle:
                digest.update(handle.read())
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


_DIGEST_CACHE = LRUCache("persist.expr_digest", maxsize=1 << 16)


def expr_digest(expr: Expr) -> str:
    """Content digest of an interned expression, stable across hosts.

    A Merkle-style sha256 over the syntax tree: each node hashes its
    constructor tag plus its children's digests (symbols length-prefix
    their name, so ``ab·c`` and ``a·bc`` cannot collide).  Because nodes
    are hash-consed, the digest memoizes per interned node — digesting a
    batch costs one hash per *distinct* subterm, and two processes (or two
    hosts) always derive the same digest for structurally equal
    expressions, which is what lets the compile store address artefacts by
    content instead of by session.
    """
    cached = _DIGEST_CACHE.get(expr)
    if cached is not None:
        return cached
    if isinstance(expr, Zero):
        encoded = b"Z"
    elif isinstance(expr, One):
        encoded = b"E"
    elif isinstance(expr, Symbol):
        name = expr.name.encode("utf-8")
        encoded = b"S%d:%s" % (len(name), name)
    elif isinstance(expr, Sum):
        encoded = b"+%s%s" % (
            expr_digest(expr.left).encode(),
            expr_digest(expr.right).encode(),
        )
    elif isinstance(expr, Product):
        encoded = b".%s%s" % (
            expr_digest(expr.left).encode(),
            expr_digest(expr.right).encode(),
        )
    elif isinstance(expr, Star):
        encoded = b"*%s" % expr_digest(expr.body).encode()
    else:  # pragma: no cover - defensive
        raise TypeError(f"cannot digest non-expression {expr!r}")
    digest = hashlib.sha256(encoded).hexdigest()
    _DIGEST_CACHE.put(expr, digest)
    return digest


class WarmStateError(RuntimeError):
    """A warm-state file is unreadable or structurally invalid."""


class StaleWarmStateError(WarmStateError):
    """A warm-state file was produced by a different pipeline version.

    Deliberately a distinct type: serving wrappers catch it to fall back to
    a cold start (and typically rebuild the state), while a corrupt file —
    plain :class:`WarmStateError` — usually deserves louder handling.
    """


@dataclass
class WarmState:
    """A portable snapshot of an engine's compile and verdict caches.

    ``wfas`` holds ``(expression, compiled automaton)`` pairs;
    ``verdicts`` holds one entry per *unordered* expression pair (the
    loading engine restores both orientations).  Entries are ordered
    least- to most-recently used so that replaying them through ``put``
    reproduces the source engine's eviction order.

    ``verdict_classes`` and ``verdict_refutations`` round-trip the
    engine's verdict ledger (:mod:`repro.engine.verdicts`): the size-≥2
    equivalence classes (members digest-sorted) and the
    ``(repr_a, repr_b, witness)`` refutation triples between class
    representatives, exactly the deterministic shape
    :meth:`VerdictLedger.snapshot` produces — so a warm reload restores
    the transitive-inference tier, not just the flat caches.
    """

    fingerprint: str
    wfas: List[Tuple[Expr, WFA]]
    verdicts: List[Tuple[Tuple[Expr, Expr], EquivalenceResult]]
    created_at: float = 0.0
    meta: Dict[str, Any] = field(default_factory=dict)
    verdict_classes: List[List[Expr]] = field(default_factory=list)
    verdict_refutations: List[Tuple[Expr, Expr, Tuple[str, ...]]] = field(
        default_factory=list
    )


def save_warm_state(state: WarmState, path: str) -> str:
    """Atomically write ``state`` to ``path`` (tmp file + rename)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    descriptor, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=".warmstate-", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(dumps_artifact(state))
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path


def _read_state(path: str) -> WarmState:
    """Read and structurally validate a warm-state file (no staleness check).

    The shared front half of :func:`load_warm_state` and
    :func:`describe_warm_state`: both must map unreadable/malformed files
    to :class:`WarmStateError` identically.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise WarmStateError(f"cannot read warm state {path!r}: {error}") from error
    try:
        state = loads_artifact(data)
    except WarmStateError as error:
        raise WarmStateError(
            f"warm state {path!r} is not a valid snapshot: {error}"
        ) from error
    if not isinstance(state, WarmState):
        raise WarmStateError(
            f"warm state {path!r} holds {type(state).__name__}, expected WarmState"
        )
    return state


def load_warm_state(path: str, strict: bool = True) -> Optional[WarmState]:
    """Read and validate a warm state.

    Raises :class:`StaleWarmStateError` when the embedded fingerprint does
    not match this process's :func:`pipeline_fingerprint` (or returns
    ``None`` when ``strict`` is false — the cold-start fallback), and
    :class:`WarmStateError` for unreadable or malformed files.
    """
    state = _read_state(path)
    current = pipeline_fingerprint()
    if state.fingerprint != current:
        if not strict:
            return None
        raise StaleWarmStateError(
            f"warm state {path!r} was produced by pipeline "
            f"{state.fingerprint[:12]}…, this process is {current[:12]}…; "
            "recompile cold and re-save"
        )
    return state


def describe_warm_state(path: str) -> Dict[str, Any]:
    """Inspect a warm-state file without loading it into an engine.

    Returns fingerprint (+ whether it matches this process), entry counts,
    creation time, file size, and the saving engine's meta (entry counts
    and how many automata the saving engine compiled itself,
    ``parent_compilations``).  For ops tooling: a serving wrapper can
    decide whether a state is worth shipping to a replica before paying
    the full load.  Raises :class:`WarmStateError` for unreadable files
    but does *not* reject stale fingerprints — staleness is part of the
    description.
    """
    state = _read_state(path)
    return {
        "path": path,
        "bytes": os.path.getsize(path),
        "fingerprint": state.fingerprint,
        "fresh": state.fingerprint == pipeline_fingerprint(),
        "wfa_entries": len(state.wfas),
        "verdict_entries": len(state.verdicts),
        "equivalence_classes": len(getattr(state, "verdict_classes", [])),
        "refutation_entries": len(getattr(state, "verdict_refutations", [])),
        "created_at": state.created_at,
        "meta": dict(state.meta),
    }


def make_warm_state(
    wfas: List[Tuple[Expr, WFA]],
    verdicts: List[Tuple[Tuple[Expr, Expr], EquivalenceResult]],
    meta: Optional[Dict[str, Any]] = None,
    verdict_classes: Optional[List[List[Expr]]] = None,
    verdict_refutations: Optional[
        List[Tuple[Expr, Expr, Tuple[str, ...]]]
    ] = None,
) -> WarmState:
    """Assemble a snapshot stamped with the current fingerprint."""
    return WarmState(
        fingerprint=pipeline_fingerprint(),
        wfas=wfas,
        verdicts=verdicts,
        created_at=time.time(),
        meta=dict(meta or {}),
        verdict_classes=list(verdict_classes or []),
        verdict_refutations=list(verdict_refutations or []),
    )
