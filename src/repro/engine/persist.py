"""Content addressing for persisted verdicts: pipeline fingerprint and
expression digests.

The verdict store (:mod:`repro.engine.store`) is the one place the engine
persists anything; this module supplies the two names it files verdicts
under.  A **pipeline fingerprint** is a hash over the source of each
module whose behaviour a verdict depends on (expression interning, the
position-automaton construction, Tzeng's row space) plus a format
version: a verdict decided by an older pipeline lives under another
fingerprint and is never served.  An **expression digest** is a Merkle
hash of an interned expression, equal across processes and hosts for
structurally equal expressions.

Nothing in this module runs at import time: fingerprints are computed on
first use, so ``import repro`` stays free of disk I/O.
"""

from __future__ import annotations

import hashlib
import importlib
import os
from typing import Dict, List, Optional

from repro.core.expr import Expr, One, Product, Star, Sum, Symbol, Zero
from repro.util.cache import LRUCache

__all__ = [
    "PERSIST_FORMAT",
    "PersistError",
    "pipeline_fingerprint",
    "expr_digest",
]

# The constant participates in the pipeline fingerprint, so bumping it
# makes every store directory stale at once.  Format 2 once meant "the
# warm-state snapshot carries a verdict ledger"; both are gone, and the
# format stays 2 so that only a change of the fingerprinted sources
# retires a store.
PERSIST_FORMAT = 2


class PersistError(RuntimeError):
    """A persisted artefact cannot be named or read: a pipeline module has
    no source to fingerprint, or stored bytes do not decode."""


# Modules whose source determines the meaning of persisted artefacts.  A
# change to any of them (new node layout, a different construction, a Tzeng
# rework …) flips the fingerprint and invalidates every stored verdict.
_FINGERPRINT_MODULES = (
    "repro.core.expr",
    "repro.core.semiring",
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
    verdict — so reordering logic must not invalidate every persisted
    artefact in the fleet.  Only modules whose source determines artefact
    *meaning* (interning, the position-automaton construction, Tzeng)
    participate; ``tests/test_compile_store.py`` pins the exact list.

    Raises :class:`PersistError` when any fingerprint module has no
    readable source file (e.g. a ``.pyc``-only install): silently skipping
    a module would fingerprint an *incomplete* pipeline, and two hosts
    with different missing subsets would collide on the same fingerprint
    while running different code — exactly the wrong-verdict scenario the
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
                raise PersistError(
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
    expressions, which is what lets the verdict store address verdicts by
    content instead of by session.  Only engines with a store digest
    anything.

    The walk keeps its own stack, so expressions of any depth digest.
    """
    cached = _DIGEST_CACHE.get(expr)
    if cached is not None:
        return cached
    return _digest_walk(expr)


_INNER = (Sum, Product, Star)


def _leaf_encoding(node: Expr) -> bytes:
    if isinstance(node, Symbol):
        name = node.name.encode("utf-8")
        return b"S%d:%s" % (len(name), name)
    if isinstance(node, Zero):
        return b"Z"
    if isinstance(node, One):
        return b"E"
    raise TypeError(f"cannot digest non-expression {node!r}")


def _digest_walk(root: Expr) -> str:
    """Post-order digest of every node under ``root`` the memo lacks.

    An inner node is expanded once: it goes back on the stack under a
    ``None`` marker, above it go its inner children that need a digest,
    and its leaves are digested on the spot; popping the marker digests
    the node.  A child is looked up in the memo before it is pushed, so a
    memoized subterm is never walked.  ``digests`` holds this walk's
    results, which keeps a walk over more than the memo's capacity correct.
    """
    memo = _DIGEST_CACHE
    sha256 = hashlib.sha256
    if not isinstance(root, _INNER):
        digest = sha256(_leaf_encoding(root)).hexdigest()
        memo.put(root, digest)
        return digest
    digests: Dict[Expr, str] = {}
    stack: List[Optional[Expr]] = [root]
    while stack:
        node = stack.pop()
        if node is None:
            node = stack.pop()
            if isinstance(node, Star):
                encoded = b"*%s" % digests[node.body].encode()
            elif isinstance(node, Sum):
                encoded = b"+%s%s" % (
                    digests[node.left].encode(),
                    digests[node.right].encode(),
                )
            else:
                encoded = b".%s%s" % (
                    digests[node.left].encode(),
                    digests[node.right].encode(),
                )
            digest = digests[node] = sha256(encoded).hexdigest()
            memo.put(node, digest)
            continue
        if node in digests:  # a shared subterm pushed by two parents
            continue
        stack.append(node)
        stack.append(None)
        children = (node.body,) if isinstance(node, Star) else (node.right, node.left)
        for child in children:
            if child in digests:
                continue
            known = memo.peek(child)
            if known is not None:
                digests[child] = known
            elif isinstance(child, _INNER):
                stack.append(child)
            else:
                known = digests[child] = sha256(_leaf_encoding(child)).hexdigest()
                memo.put(child, known)
    return digests[root]
