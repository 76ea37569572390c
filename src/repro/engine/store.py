"""Content-addressed shared verdict store: fleet-wide reuse of decisions.

A fleet of replicas (many engines, many processes, many hosts mounting one
shared directory) shares one **store** that every engine reads and writes
concurrently, so the first replica to decide a pair serves every other
replica, forever, across process and host boundaries.  It is also how a
fresh process starts warm: mount the store, and every pair decided before
is answered with zero compilations and zero decisions.  Every NKA verdict
is an exact decision, so a stored verdict is as good as a fresh one.

This is the only module that serializes anything, and the only one that
knows the on-disk format: :func:`dumps_artifact` / :func:`loads_artifact`
are the verdict codec.

Addressing
----------

An entry is keyed by *content*, not by session: the *unordered* pair of
Merkle digests of the two interned expressions
(:func:`~repro.engine.persist.expr_digest`, joined with ``-`` —
equivalence is symmetric, so both orientations address one entry), inside
a directory named by the pipeline fingerprint
(:func:`~repro.engine.persist.pipeline_fingerprint`).  Two hosts derive
the same key for structurally equal pairs iff they run the same pipeline,
so a store hit can never serve a verdict with different semantics than a
fresh decision.  On disk::

    root/
      <fingerprint>/                 one directory per pipeline version
        index                        scan-free eviction index (append-only)
        <dA[:2]>/<dA>-<dB>.verdict   one entry per decided digest pair

The store once also held compiled automata (``<digest>.wfa``).  That tier
served almost no lookups on the measured workloads and is gone; such
files left by an older writer are never read, and ``gc`` deletes them.

Writes are **atomic**: the payload is written to a ``.tmp-*`` file in the
fingerprint directory and ``os.replace``d into place (``fsync`` optional),
so a reader observes either no entry or a complete one — a writer SIGKILLed
mid-publish leaves at most an invisible temp file, never a torn visible
entry.  After the rename, one ``"key size\\n"`` line is appended to the
index, which is how :meth:`CompileStore.evict` learns candidates without
walking the tree.

Corruption and staleness discipline
-----------------------------------

In the store, a torn, undecodable (:func:`loads_artifact` raises
:class:`~repro.engine.persist.PersistError`), misaddressed or stale entry
is **silently a miss** — counted in
``corrupt_skipped``, best-effort unlinked, and decided afresh — never an
exception and never a wrong verdict.  A store is a cache of recomputable
artefacts; refusing service over one bad file would make the whole fleet's
availability hostage to a single disk hiccup.  Entries embed
``(magic, format, fingerprint, key)`` next to the verdict, so a file
renamed, cross-linked or produced by another pipeline fails validation
even though its path looked right.

Reads
-----

A handle caches nothing: :meth:`CompileStore.get_verdict` reads the entry
file, validates it and returns it.  The engine's session verdict cache
sits in front and reads each pair from the store at most once, so there
is no repeated probe to absorb, and a publish from any process is visible
on the very next read.

Eviction
--------

``max_bytes`` bounds the store per fingerprint directory.
:meth:`CompileStore.evict` reads the index (tolerating torn trailing
lines), stats the candidates, and unlinks **oldest-mtime-first** until the
budget holds, then rewrites the index compacted (atomically) — no
directory scan.  Publishes that push the running byte estimate over
``max_bytes`` trigger an eviction opportunistically.

Ops tooling: ``python -m repro.engine.store describe <dir>`` and
``... gc <dir> [--max-bytes N] [--keep-stale]`` — entry counts, bytes,
fingerprint freshness, stale-version cleanup (``gc`` deletes the
directories of every other pipeline fingerprint).
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import tempfile
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.automata.equivalence import EquivalenceResult
from repro.engine.persist import PersistError, pipeline_fingerprint

__all__ = [
    "STORE_FORMAT",
    "dumps_artifact",
    "loads_artifact",
    "CompileStore",
    "describe_store",
    "gc_store",
    "verdict_pair_key",
]

STORE_FORMAT = 1

_VERDICT_MAGIC = "nka-verdict-store"

_INDEX_NAME = "index"
_VERDICT_SUFFIX = ".verdict"
_LEGACY_WFA_SUFFIX = ".wfa"  # compiled-automaton entries of older writers
_TMP_PREFIX = ".tmp-"

_DIGEST_LEN = 64
_PAIR_KEY_LEN = 2 * _DIGEST_LEN + 1  # "<dA>-<dB>", digests are hex so '-' is unambiguous


def dumps_artifact(obj: Any) -> bytes:
    """Serialize a store entry."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def loads_artifact(data: bytes) -> Any:
    """Deserialize stored bytes, mapping every decode failure to
    :class:`~repro.engine.persist.PersistError` — callers never see raw
    pickle internals."""
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
        raise PersistError(f"persisted artefact is not decodable: {error}") from error


def verdict_pair_key(digest_a: str, digest_b: str) -> str:
    """The unordered store key of a digest pair (equivalence is symmetric,
    so both query orientations must address the same entry)."""
    if digest_a <= digest_b:
        return f"{digest_a}-{digest_b}"
    return f"{digest_b}-{digest_a}"


class CompileStore:
    """A directory-backed, content-addressed store of decided verdicts.

    Construction touches no disk (imports stay I/O-free and a read-only
    replica can point at a store that does not exist yet); directories are
    created on first publish and reads treat a missing tree as a miss.

    Args:
        root: store directory (shared between processes/hosts at will).
        max_bytes: per-fingerprint byte budget enforced by :meth:`evict`
            and opportunistically on publish; ``None`` means unbounded.
        fsync: fsync entry files before the atomic rename (durability
            against power loss at a small latency cost; the default
            ``False`` still guarantees no *torn* entry, rename atomicity
            does not depend on it).

    Thread-safety: one handle may be shared by several engines/threads —
    counter mutations are lock-guarded; file operations rely on
    tmp+rename atomicity for cross-process safety.
    """

    def __init__(self, root: str, max_bytes: Optional[int] = None, fsync: bool = False):
        self.root = os.path.abspath(root)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self.fsync = bool(fsync)
        self._lock = threading.RLock()
        self._fingerprint: Optional[str] = None
        # Running per-process estimate of the fingerprint directory's size;
        # initialised lazily from the index, kept current by local
        # publishes/evictions, made exact again by every evict().
        self._bytes_estimate: Optional[int] = None
        self.hits = 0
        self.misses = 0
        self.publishes = 0
        self.publish_skipped = 0
        self.evictions = 0
        self.corrupt_skipped = 0
        self.write_errors = 0

    # -- addressing ---------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """This process's pipeline fingerprint (computed on first use)."""
        if self._fingerprint is None:
            self._fingerprint = pipeline_fingerprint()
        return self._fingerprint

    def _fingerprint_dir(self) -> str:
        return os.path.join(self.root, self.fingerprint)

    def _entry_path(self, key: str) -> str:
        return os.path.join(self._fingerprint_dir(), key[:2], key + _VERDICT_SUFFIX)

    def _index_path(self) -> str:
        return os.path.join(self._fingerprint_dir(), _INDEX_NAME)

    # -- lookup -------------------------------------------------------------

    def get_verdict(self, digest_a: str, digest_b: str) -> Optional[EquivalenceResult]:
        """The stored :class:`EquivalenceResult` of an unordered digest
        pair, or ``None`` (a miss).

        Misses include: no entry, an entry published under a different
        pipeline fingerprint (a different directory entirely), and any
        torn/undecodable/misaddressed entry (counted ``corrupt_skipped``
        and best-effort removed).  A hit is validated against the embedded
        ``(format, fingerprint, key)`` before it is trusted.
        """
        key = verdict_pair_key(digest_a, digest_b)
        path = self._entry_path(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            with self._lock:
                self.misses += 1
            return None
        result = self._decode_verdict(data, key, path)
        with self._lock:
            if result is None:
                self.corrupt_skipped += 1
                self.misses += 1
            else:
                self.hits += 1
        return result

    def _decode_verdict(
        self, data: bytes, key: str, path: str
    ) -> Optional[EquivalenceResult]:
        """Validate one entry's bytes; ``None`` (and best-effort unlink) on
        any defect — the silently-a-miss contract."""
        try:
            payload = loads_artifact(data)
        except PersistError:
            payload = None
        if (
            not isinstance(payload, tuple)
            or len(payload) != 5
            or payload[0] != _VERDICT_MAGIC
            or payload[1] != STORE_FORMAT
            or payload[2] != self.fingerprint
            or payload[3] != key
            or not isinstance(payload[4], EquivalenceResult)
        ):
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        return payload[4]

    # -- publish ------------------------------------------------------------

    def publish_verdict(
        self, digest_a: str, digest_b: str, result: EquivalenceResult
    ) -> bool:
        """Write one decided verdict; ``True`` iff a new entry landed (an
        already-present pair is skipped — the fleet decides each distinct
        pair at most once).

        Never raises for I/O problems: a full or read-only disk makes the
        store degrade to a cache that simply stops filling (counted in
        ``write_errors``), not a crashed engine.
        """
        key = verdict_pair_key(digest_a, digest_b)
        if os.path.exists(self._entry_path(key)):
            with self._lock:
                self.publish_skipped += 1
            return False
        data = dumps_artifact((_VERDICT_MAGIC, STORE_FORMAT, self.fingerprint, key, result))
        if not self._write_entry(key, data):
            return False
        with self._lock:
            self.publishes += 1
            if self._bytes_estimate is not None:
                self._bytes_estimate += len(data)
        if self.max_bytes is not None and self._estimate_bytes() > self.max_bytes:
            self.evict()
        return True

    def publish_verdicts(
        self, items: Iterable[Tuple[str, str, EquivalenceResult]]
    ) -> int:
        """Publish decided verdicts in bulk; returns entries written."""
        return sum(
            1 for digest_a, digest_b, result in items
            if self.publish_verdict(digest_a, digest_b, result)
        )

    def _write_entry(self, key: str, data: bytes) -> bool:
        """Atomically land one entry file + its index line; ``False`` (and a
        ``write_errors`` bump) on any I/O problem."""
        path = self._entry_path(key)
        fingerprint_dir = self._fingerprint_dir()
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            descriptor, tmp_path = tempfile.mkstemp(
                dir=fingerprint_dir, prefix=_TMP_PREFIX
            )
            try:
                with os.fdopen(descriptor, "wb") as handle:
                    handle.write(data)
                    if self.fsync:
                        handle.flush()
                        os.fsync(handle.fileno())
                os.replace(tmp_path, path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
            # Index append happens *after* the entry is visible: a crash in
            # between leaves an unindexed (evict-invisible) entry that
            # ``gc`` re-indexes, never a phantom index line for a torn file.
            with open(self._index_path(), "a") as index:
                index.write(f"{key} {len(data)}\n")
        except OSError:
            with self._lock:
                self.write_errors += 1
            return False
        return True

    # -- eviction -----------------------------------------------------------

    def _read_index(self) -> Dict[str, int]:
        """Key → recorded size from the index file, tolerating torn
        trailing lines (concurrent appenders, SIGKILLed writers).  Lines of
        older writers' ``.wfa`` entries are skipped like foreign ones."""
        entries: Dict[str, int] = {}
        try:
            with open(self._index_path(), "r") as handle:
                for line in handle:
                    parts = line.split()
                    if len(parts) != 2 or len(parts[0]) != _PAIR_KEY_LEN:
                        continue  # torn or foreign line: skip, never raise
                    try:
                        entries[parts[0]] = int(parts[1])
                    except ValueError:
                        continue
        except OSError:
            pass
        return entries

    def _estimate_bytes(self) -> int:
        with self._lock:
            if self._bytes_estimate is None:
                self._bytes_estimate = sum(self._read_index().values())
            return self._bytes_estimate

    def evict(self, max_bytes: Optional[int] = None) -> int:
        """Shrink this fingerprint's entries under the byte budget.

        Index-driven (no directory walk): candidates come from the index
        file, each is ``stat``ed for existence, size and mtime, and the
        **oldest-mtime** entries are unlinked until the budget holds —
        recently (re)written entries survive, which under concurrent
        publish approximates LRU well enough for a cache of recomputable
        artefacts.  The index is rewritten compacted (atomic tmp+rename).
        Returns the number of entries evicted.
        """
        budget = self.max_bytes if max_bytes is None else int(max_bytes)
        with self._lock:
            index = self._read_index()
            survivors: List[Tuple[float, str, int]] = []
            total = 0
            for key in index:
                try:
                    stat = os.stat(self._entry_path(key))
                except OSError:
                    continue  # already gone (evicted elsewhere): drop line
                survivors.append((stat.st_mtime, key, stat.st_size))
                total += stat.st_size
            evicted = 0
            if budget is not None and total > budget:
                survivors.sort()  # oldest mtime first
                keep: List[Tuple[float, str, int]] = []
                for mtime, key, size in survivors:
                    if total > budget:
                        try:
                            os.unlink(self._entry_path(key))
                        except OSError:
                            keep.append((mtime, key, size))
                            continue
                        total -= size
                        evicted += 1
                    else:
                        keep.append((mtime, key, size))
                survivors = keep
            self._rewrite_index(survivors)
            self._bytes_estimate = total
            self.evictions += evicted
        return evicted

    def _rewrite_index(self, survivors: List[Tuple[float, str, int]]) -> None:
        fingerprint_dir = self._fingerprint_dir()
        if not os.path.isdir(fingerprint_dir):
            return
        try:
            descriptor, tmp_path = tempfile.mkstemp(
                dir=fingerprint_dir, prefix=_TMP_PREFIX
            )
            with os.fdopen(descriptor, "w") as handle:
                for _mtime, key, size in survivors:
                    handle.write(f"{key} {size}\n")
            os.replace(tmp_path, self._index_path())
        except OSError:
            pass  # a stale index only costs evict() some extra stats

    # -- observability ------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """JSON-friendly counters (the ``store`` section of engine stats)."""
        with self._lock:
            return {
                "root": self.root,
                "fingerprint": self.fingerprint[:12],
                "hits": self.hits,
                "misses": self.misses,
                "publishes": self.publishes,
                "publish_skipped": self.publish_skipped,
                "evictions": self.evictions,
                "corrupt_skipped": self.corrupt_skipped,
                "write_errors": self.write_errors,
                "bytes": self._estimate_bytes(),
                "max_bytes": self.max_bytes,
            }

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"CompileStore({self.root!r}, max_bytes={self.max_bytes})"


# -- ops CLI --------------------------------------------------------------------


def describe_store(root: str) -> Dict[str, Any]:
    """Inspect a store directory: per-fingerprint entry counts, bytes and
    freshness against this process's pipeline.

    This is the one read path allowed to *scan* (ops tooling, not the
    serving hot path).  Unreadable roots describe as empty rather than
    raising — the ops question "what is there?" has the answer "nothing".
    """
    current = pipeline_fingerprint()
    description: Dict[str, Any] = {
        "root": os.path.abspath(root),
        "current_fingerprint": current,
        "fingerprints": {},
        "entries": 0,
        "bytes": 0,
        "tmp_files": 0,
    }
    try:
        versions = sorted(os.listdir(root))
    except OSError:
        return description
    for version in versions:
        version_dir = os.path.join(root, version)
        if not os.path.isdir(version_dir):
            continue
        entries = size = indexed = 0
        for dirpath, _dirnames, filenames in os.walk(version_dir):
            for filename in filenames:
                path = os.path.join(dirpath, filename)
                if filename.startswith(_TMP_PREFIX):
                    description["tmp_files"] += 1
                elif filename == _INDEX_NAME:
                    with open(path) as handle:
                        indexed = sum(1 for _line in handle)
                elif filename.endswith(_VERDICT_SUFFIX):
                    entries += 1
                    try:
                        size += os.path.getsize(path)
                    except OSError:
                        pass
        description["fingerprints"][version] = {
            "entries": entries,
            "bytes": size,
            "indexed": indexed,
            "fresh": version == current,
        }
        description["entries"] += entries
        description["bytes"] += size
    return description


def gc_store(
    root: str,
    max_bytes: Optional[int] = None,
    drop_stale: bool = True,
    tmp_age_seconds: float = 60.0,
) -> Dict[str, Any]:
    """Garbage-collect a store directory.

    Removes fingerprint directories of *other* pipeline versions (no
    running replica of this pipeline can ever read them; ``drop_stale=False``
    keeps them for fleets running mixed versions off one mount), deletes
    orphaned temp files older than ``tmp_age_seconds`` (young ones may be a
    live publisher's in-flight write) and the ``.wfa`` entries older
    writers left in the current fingerprint directory, rebuilds the current
    fingerprint's index from the actual verdict entries (re-adopting any
    entry a crash left unindexed, dropping the ``.wfa`` lines), and finally
    enforces ``max_bytes`` through :meth:`CompileStore.evict`.
    """
    current = pipeline_fingerprint()
    report = {
        "root": os.path.abspath(root),
        "stale_fingerprints_removed": 0,
        "tmp_files_removed": 0,
        "wfa_entries_removed": 0,
        "entries_reindexed": 0,
        "entries_evicted": 0,
    }
    try:
        versions = os.listdir(root)
    except OSError:
        return report
    now = time.time()
    for version in versions:
        version_dir = os.path.join(root, version)
        if not os.path.isdir(version_dir):
            continue
        if version != current and drop_stale:
            import shutil

            shutil.rmtree(version_dir, ignore_errors=True)
            report["stale_fingerprints_removed"] += 1
            continue
        for dirpath, _dirnames, filenames in os.walk(version_dir):
            for filename in filenames:
                path = os.path.join(dirpath, filename)
                try:
                    if filename.startswith(_TMP_PREFIX):
                        if now - os.path.getmtime(path) >= tmp_age_seconds:
                            os.unlink(path)
                            report["tmp_files_removed"] += 1
                    elif version == current and filename.endswith(
                        _LEGACY_WFA_SUFFIX
                    ):
                        os.unlink(path)
                        report["wfa_entries_removed"] += 1
                except OSError:
                    pass
    # Rebuild the current index from what actually exists.
    store = CompileStore(root, max_bytes=max_bytes)
    current_dir = os.path.join(root, current)
    survivors: List[Tuple[float, str, int]] = []
    if os.path.isdir(current_dir):
        for dirpath, _dirnames, filenames in os.walk(current_dir):
            for filename in filenames:
                if not filename.endswith(_VERDICT_SUFFIX):
                    continue
                try:
                    stat = os.stat(os.path.join(dirpath, filename))
                except OSError:
                    continue
                key = filename[: -len(_VERDICT_SUFFIX)]
                survivors.append((stat.st_mtime, key, stat.st_size))
        store._rewrite_index(survivors)
        report["entries_reindexed"] = len(survivors)
    if max_bytes is not None:
        report["entries_evicted"] = store.evict(max_bytes)
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine.store",
        description="Inspect and maintain a content-addressed verdict store.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    describe = commands.add_parser(
        "describe", help="entry counts, bytes, fingerprint freshness (JSON)"
    )
    describe.add_argument("root")
    gc = commands.add_parser(
        "gc", help="drop stale fingerprints/temp files, reindex, enforce budget"
    )
    gc.add_argument("root")
    gc.add_argument("--max-bytes", type=int, default=None)
    gc.add_argument(
        "--keep-stale",
        action="store_true",
        help="keep other pipeline versions' directories (mixed-version fleets)",
    )
    args = parser.parse_args(argv)
    if args.command == "describe":
        print(json.dumps(describe_store(args.root), indent=2, sort_keys=True))
    else:
        print(
            json.dumps(
                gc_store(
                    args.root,
                    max_bytes=args.max_bytes,
                    drop_stale=not args.keep_stale,
                ),
                indent=2,
                sort_keys=True,
            )
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
