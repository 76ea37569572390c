"""Exact equivalence of weighted automata over ``N̄``.

This implements the decision procedure promised by the paper's Remark 2.1
(citing Bloom–Ésik): equality of two rational power series over
``N̄ = N ∪ {∞}`` is decidable.  Our reduction:

1. **Infinity supports.**  The words with coefficient ``∞`` form a regular
   language (:func:`repro.automata.wfa.infinity_support_nfa`).  The two
   series must have the same infinity support — a regular-language equality,
   decided by subset construction + product BFS, which also yields a
   distinguishing word on failure.
2. **Finite parts.**  On the complement of the (common) infinity support,
   both series take values in ``N ⊂ Q``.  Each side's ``∞`` weights are
   zeroed and it is restricted to the complement language: a Hadamard
   product with the complement DFA that creates only the reachable
   ``(state, DFA state)`` pairs (:func:`repro.automata.wfa.restrict_to_dfa`).
   Equality of the two ``Q``-weighted automata is then decided by Tzeng's
   algorithm: breadth-first exploration of the reachable left-vector space
   with exact linear algebra; at most ``n_A + n_B`` basis vectors exist, so
   the search terminates and failure yields a counterexample word.

Both stages are exact, so the combined procedure is a *decision* procedure,
not a semidecision.  The Tzeng stage runs entirely in ``Z``: the automata
reaching it carry finite natural weights and vector–matrix products
preserve integrality, so :class:`repro.linalg.RowSpace` keeps an exact
integer basis.  Vectors and transition tables are sparse, so advancing a
vector by a letter walks only the non-zero rows of the reached states.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from repro.linalg import RowSpace
from repro.automata.nfa import dfa_equivalent, reachable
from repro.automata.wfa import (
    WFA,
    drop_infinite_weights,
    restrict_to_dfa,
)
from repro.util.errors import DecisionError

__all__ = ["EquivalenceResult", "wfa_equivalent", "tzeng_equivalent"]


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of an equivalence check.

    Attributes:
        equal: whether the two behaviours coincide on every word.
        counterexample: a distinguishing word when ``equal`` is ``False``
            (``None`` when equal).
        reason: human-readable explanation of which stage decided.
    """

    equal: bool
    counterexample: Optional[Tuple[str, ...]]
    reason: str

    def __bool__(self) -> bool:
        return self.equal


SparseVector = Dict[int, int]
# source coordinate → ((target coordinate, weight), ...)
Table = Dict[int, Tuple[Tuple[int, int], ...]]


def _finite_weight_to_int(weight) -> int:
    if weight.is_infinite:
        raise DecisionError("infinite weight reached Tzeng stage; drop them first")
    return weight.finite_value


class _TzengSide:
    """One automaton projected onto its reachable coordinates.

    Every joint vector Tzeng generates is supported on the states reachable
    from the non-zero initial support via non-zero rows, so the joint space
    is built directly in those coordinates: the space's *dimension* is the
    reachable count (often far below ``num_states`` for automata with
    unreachable or dead regions), and it is the rank at which the walk can
    stop advancing.  Coordinates are joint: this side's projected state
    ``k`` is coordinate ``offset + k``.

    Everything is sparse: the initial vector and the final functional hold
    only non-zero entries, and each letter's table maps a source coordinate
    to its ``((target coordinate, int weight), ...)`` entries, holding only
    the sources that have outgoing rows for that letter.  Advancing a
    vector by a letter then walks the vector's support against that table,
    so no step allocates or scans ``dim`` entries.
    """

    __slots__ = ("dim", "initial", "final", "tables")

    def __init__(self, wfa: WFA, offset: int):
        seeds = (i for i, w in enumerate(wfa.initial) if not w.is_zero)
        kept = sorted(reachable(wfa._support_adjacency(), seeds))
        index = {old: offset + new for new, old in enumerate(kept)}
        # Strictness is preserved: every initial/final weight is checked,
        # reachable or not, exactly as the unprojected algorithm did.
        for weight in wfa.initial:
            _finite_weight_to_int(weight)
        for weight in wfa.final:
            _finite_weight_to_int(weight)
        self.dim = len(kept)
        self.initial: SparseVector = {
            index[old]: wfa.initial[old].finite_value
            for old in kept
            if not wfa.initial[old].is_zero
        }
        self.final: SparseVector = {
            index[old]: wfa.final[old].finite_value
            for old in kept
            if not wfa.final[old].is_zero
        }
        # A support edge from a reachable state ends in a reachable state
        # by construction, so no target is dropped.
        self.tables: Dict[str, Table] = {}
        for letter, rows in wfa.matrices.items():
            table: Table = {}
            for old_i, row in rows.items():
                new_i = index.get(old_i)
                if new_i is None or not row:
                    continue
                table[new_i] = tuple(
                    (index[old_j], _finite_weight_to_int(weight))
                    for old_j, weight in row.items()
                )
            if table:
                self.tables[letter] = table


def tzeng_equivalent(left: WFA, right: WFA) -> EquivalenceResult:
    """Tzeng's equivalence algorithm for finitely-weighted automata.

    Explores words in breadth-first order, maintaining the joint left vector
    ``u(w) = (α_L · M_L(w), α_R · M_R(w))``.  The series are equal iff
    ``⟨u(w), (η_L, -η_R)⟩ = 0`` for every ``w``; it suffices to check one
    word per independent vector, of which there are at most ``n_L + n_R`` —
    and in fact at most the number of *reachable* states of the two
    automata.  The joint space is built directly in reachable coordinates
    (:class:`_TzengSide`), so that bound *is* the space's dimension; once
    the basis rank hits it, no successor can be independent (and dependent
    vectors inherit ``⟨·, η⟩ = 0`` from the basis), so the per-letter
    advance loop is skipped for the rest of the queue.  All-zero successors
    (e.g. letters dead on both sides) are skipped without touching the
    basis — they can never be independent.

    Vectors are sparse ``{coordinate: int}`` dicts end to end, and the basis
    is :class:`repro.linalg.RowSpace`'s pivot-indexed integer echelon form,
    so an insert touches only the basis rows its support reaches.
    Independence answers depend on neither the projection (dropped
    coordinates are zero in every explored vector) nor the basis' choice of
    pivots, so BFS order, counterexamples and ranks are those of the plain
    dense algorithm.
    """
    alphabet = sorted(left.alphabet | right.alphabet)
    left_side = _TzengSide(left, 0)
    right_side = _TzengSide(right, left_side.dim)
    dim = left_side.dim + right_side.dim
    final_functional: SparseVector = dict(left_side.final)
    for coordinate, value in right_side.final.items():
        final_functional[coordinate] = -value
    tables: Dict[str, Table] = {}
    for side in (left_side, right_side):
        for letter, table in side.tables.items():
            tables.setdefault(letter, {}).update(table)
    start: SparseVector = {**left_side.initial, **right_side.initial}
    # Note on vectorization: the per-letter advance ``u·M`` deliberately
    # stays on the python table walk.  A dense int64 matvec (and a COO
    # ``bincount`` variant) were both measured *slower* at every realistic
    # shape — the joint dimension after reachable-projection has median 4
    # on the engine benchmark (``src/repro/linalg/README.md``).
    basis = RowSpace(dim)
    queue: Deque[Tuple[SparseVector, Tuple[str, ...]]] = deque()
    if basis.insert(start):
        queue.append((start, ()))
    while queue:
        vector, word = queue.popleft()
        if sum(value * final_functional.get(c, 0) for c, value in vector.items()):
            return EquivalenceResult(
                equal=False,
                counterexample=word,
                reason=f"finite coefficients differ on word {' '.join(word) or 'ε'}",
            )
        if basis.rank >= dim:
            # Basis already spans the reachable coordinate space; only the
            # zero-functional checks of the remaining queued vectors are left.
            continue
        for letter in alphabet:
            table = tables.get(letter)
            if table is None:
                continue
            successor: SparseVector = {}
            for source, value in vector.items():
                entries = table.get(source)
                if entries is not None:
                    for target, weight in entries:
                        successor[target] = successor.get(target, 0) + value * weight
            # The zero vector is never independent.
            if successor and basis.insert(successor):
                queue.append((successor, word + (letter,)))
    return EquivalenceResult(equal=True, counterexample=None, reason="Tzeng basis exhausted")


def _has_infinite_weight(wfa: WFA) -> bool:
    """Whether any initial/transition/final weight is ``∞`` (walks supports)."""
    if any(w.is_infinite for w in wfa.initial):
        return True
    if any(w.is_infinite for w in wfa.final):
        return True
    return any(
        weight.is_infinite
        for rows in wfa.matrices.values()
        for row in rows.values()
        for weight in row.values()
    )


def wfa_equivalent(left: WFA, right: WFA) -> EquivalenceResult:
    """Full ``N̄`` behavioural equality of two weighted automata.

    The determinized infinity supports are memoized on the automata
    (:meth:`repro.automata.wfa.WFA.support_dfa`), so comparing one cached
    automaton against many others re-runs the subset construction only for
    the newcomers.
    """
    # Fast path: with no ∞ weight anywhere, both infinity supports are
    # trivially empty and equal, and the finite parts are the automata
    # themselves — go straight to Tzeng, skipping the subset construction
    # and the Hadamard product (which can blow up exponentially in the
    # automaton's branching even though the answer does not need them).
    if not _has_infinite_weight(left) and not _has_infinite_weight(right):
        result = tzeng_equivalent(left, right)
        if result.equal:
            return EquivalenceResult(
                equal=True,
                counterexample=None,
                reason="all weights finite; equal finite parts",
            )
        return result
    # Stage 1: compare the regular languages of infinite-coefficient words.
    left_dfa = left.support_dfa()
    right_dfa = right.support_dfa()
    same_support, witness = dfa_equivalent(left_dfa, right_dfa)
    if not same_support:
        assert witness is not None
        return EquivalenceResult(
            equal=False,
            counterexample=tuple(witness),
            reason=(
                "infinity supports differ on word "
                f"{' '.join(witness) or 'ε'} (one side is ∞, the other finite)"
            ),
        )
    # Stage 2: compare finite parts away from the common infinity support.
    # The support DFA is extended to the *union* alphabet before
    # complementing: when the sides were compiled over their own alphabets
    # (the engine's per-expression compilation), the complement must accept
    # words using the partner's private letters — those words are outside
    # the infinity support and their finite coefficients still have to
    # agree.
    finite_language = left_dfa.extended_to(left.alphabet | right.alphabet).complement()
    left_finite = restrict_to_dfa(drop_infinite_weights(left), finite_language)
    right_finite = restrict_to_dfa(drop_infinite_weights(right), finite_language)
    result = tzeng_equivalent(left_finite, right_finite)
    if result.equal:
        return EquivalenceResult(
            equal=True,
            counterexample=None,
            reason="equal infinity supports and equal finite parts",
        )
    return result
