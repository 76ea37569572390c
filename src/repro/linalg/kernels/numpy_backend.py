"""Numpy kernels for reachability, NFA subset steps and RowSpace elimination.

Exactness contract
------------------

Every function here either returns exactly what the pure-python oracle
would, or declines (returns ``None``) and records why.  Reachability and
NFA subset steps are set computations, exact by construction: they run on
python-int bitsets, unioning a whole successor row in one C-level ``or``.
The RowSpace helpers run the fraction-free elimination in int64 and
precheck every update against int64 overflow, declining (``overflow``) to
the unbounded python-int path whenever a step might not fit.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Set, Tuple

try:  # the container bakes numpy in; gate anyway so the oracle never breaks
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None

__all__ = [
    "available",
    "reachable",
    "nfa_successors",
    "REACHABLE_MIN_STATES",
    "ROWSPACE_MIN_DIM",
    "NFA_MIN_STATES",
]

# Routing thresholds (measured on the engine benchmark workload): below
# these sizes the pure-python oracle wins on constant factors and the
# dispatcher declines with reason "below_threshold" — a routing decision,
# not an exactness fallback.
REACHABLE_MIN_STATES = 64
ROWSPACE_MIN_DIM = 64
NFA_MIN_STATES = 64

# int64 headroom for the RowSpace reduction overflow prechecks.
_INT64_SAFE = (1 << 63) - 1


def available() -> bool:
    return _np is not None


def _record(op: str, reason: Optional[str]) -> None:
    from repro.linalg import kernels

    if reason is None:
        kernels.record_vectorized(op)
    else:
        kernels.record_fallback(op, reason)


def _bit_indices(mask: int) -> List[int]:
    """Set-bit positions of a python-int bitset, ascending."""
    if mask >> 64:
        # Wide masks: unpack in C via numpy (little-endian bit order keeps
        # positions ascending).
        data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
        bits = _np.unpackbits(
            _np.frombuffer(data, dtype=_np.uint8), bitorder="little"
        )
        return _np.flatnonzero(bits).tolist()
    out: List[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out



# -- kernels -------------------------------------------------------------------


def rowspace_entry(row: Sequence[int]) -> Optional[Tuple[Any, int]]:
    """``(int64 array, abs-max)`` for a basis row, ``None`` if too wide."""
    try:
        arr = _np.asarray(row, dtype=_np.int64)
    except OverflowError:
        return None
    return arr, int(_np.abs(arr).max(initial=0))


def rowspace_reduce(
    candidate: Sequence[int], pivots: Sequence[int], cache: Sequence
) -> Optional[Any]:
    """Fraction-free reduction of ``candidate`` against the cached basis.

    Mirrors ``RowSpace._reduce_integer`` step for step; every update
    ``v ← v·lead − coeff·row`` is prechecked with
    ``max|v|·lead + |coeff|·max|row| ≤ int64 max`` (python-int arithmetic,
    so the check itself cannot overflow).  Returns the int64 residue array
    or ``None`` when any step risks overflow or a row is too wide — the
    caller then reruns the whole reduction on unbounded python ints.
    """
    entry = rowspace_entry(candidate)
    if entry is None:
        return None
    residue, residue_max = entry
    for cached, pivot in zip(cache, pivots):
        if cached is None:
            return None
        row_arr, row_max = cached
        coeff = int(residue[pivot])
        if coeff:
            lead = int(row_arr[pivot])
            if residue_max * abs(lead) + abs(coeff) * row_max > _INT64_SAFE:
                return None
            residue = residue * lead - coeff * row_arr
            residue_max = int(_np.abs(residue).max(initial=0))
    return residue


def rowspace_combine(row_entry, norm_entry, coeff: int, lead: int) -> Optional[Any]:
    """Back-substitution step ``row·lead − coeff·normalised`` (or ``None``)."""
    if row_entry is None or norm_entry is None:
        return None
    row_arr, row_max = row_entry
    norm_arr, norm_max = norm_entry
    if row_max * abs(lead) + abs(coeff) * norm_max > _INT64_SAFE:
        return None
    return row_arr * lead - coeff * norm_arr


def nfa_successors(nfa, letter: str, states: Iterable[int]) -> Optional[Any]:
    """Bitset step of an NFA state set; ``None`` = caller runs the set walk.

    Per-letter row bitmasks are cached on the NFA (invalidated by
    ``add_transition`` alongside the letter matrices); stepping a subset is
    then one C-level bignum ``or`` per member instead of per-target set
    inserts.  The result is the identical successor set.
    """
    if nfa.num_states < NFA_MIN_STATES:
        _record("nfa_successors", "below_threshold")
        return None
    caches = getattr(nfa, "_successor_masks", None)
    if caches is None:
        caches = {}
        nfa._successor_masks = caches
    masks = caches.get(letter)
    if masks is None:
        masks = {}
        for i, row in nfa.letter_matrix(letter).rows.items():
            mask = 0
            for j in row:
                mask |= 1 << j
            masks[i] = mask
        caches[letter] = masks
    union = 0
    for state in states:
        union |= masks.get(state, 0)
    _record("nfa_successors", None)
    return frozenset(_bit_indices(union))


def reachable(adjacency, seeds: Iterable[int]) -> Optional[Set[int]]:
    """Bitset BFS over the sparse rows; ``None`` = caller runs the oracle.

    Python bignum bitsets union a whole successor row in one C-level
    ``or``, replacing the per-element set inserts of the oracle worklist.
    The result is the identical reach set.
    """
    n = adjacency.nrows
    if n < REACHABLE_MIN_STATES:
        _record("reachable", "below_threshold")
        return None
    rows = adjacency.rows
    row_masks: dict = {}
    seen_mask = 0
    frontier: List[int] = []
    for seed in seeds:
        bit = 1 << seed
        if not seen_mask & bit:
            seen_mask |= bit
            frontier.append(seed)
    while frontier:
        state = frontier.pop()
        row = rows.get(state)
        if not row:
            continue
        mask = row_masks.get(state)
        if mask is None:
            mask = 0
            for j in row:
                mask |= 1 << j
            row_masks[state] = mask
        fresh = mask & ~seen_mask
        seen_mask |= mask
        while fresh:
            low = fresh & -fresh
            frontier.append(low.bit_length() - 1)
            fresh ^= low
    result: Set[int] = set()
    index = 0
    while seen_mask:
        if seen_mask & 1:
            result.add(index)
        seen_mask >>= 1
        index += 1
    _record("reachable", None)
    return result
