"""Boolean finite automata (NFA/DFA) over string alphabets.

This is a substrate module for the NKA decision procedure: the set of words
on which a rational power series over ``N̄`` takes the value ``∞`` (its
*infinity support*) is a regular language, and deciding series equality
requires comparing two such languages and intersecting weighted automata
with their complement (see :mod:`repro.automata.equivalence`).

States are plain integers ``0..n-1``; alphabets are frozensets of strings
(one string per letter, matching NKA symbol names).

Reachability here is the Boolean-semiring instance of the shared sparse
linear algebra (:mod:`repro.linalg`): each letter's transition relation is a
``BOOL`` :class:`~repro.linalg.SparseMatrix`, stepping a state set is a
sparse vector–matrix product, and emptiness is ``initial · A*`` for the
union adjacency — the same algorithms the ``N̄``-weighted pipeline runs,
at Boolean weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.linalg import BOOL, SparseMatrix, reachable

__all__ = ["NFA", "DFA", "determinize", "dfa_equivalent"]


@dataclass
class NFA:
    """A nondeterministic finite automaton (no epsilon transitions).

    Attributes:
        num_states: number of states (named ``0..num_states-1``).
        alphabet: the input alphabet.
        transitions: mapping ``(state, letter) -> set of successor states``.
        initial: set of initial states.
        accepting: set of accepting states.
    """

    num_states: int
    alphabet: FrozenSet[str]
    transitions: Dict[Tuple[int, str], Set[int]] = field(default_factory=dict)
    initial: Set[int] = field(default_factory=set)
    accepting: Set[int] = field(default_factory=set)
    _letter_matrices: Dict[str, SparseMatrix] = field(
        default_factory=dict, repr=False, compare=False
    )

    def add_transition(self, source: int, letter: str, target: int) -> None:
        self.transitions.setdefault((source, letter), set()).add(target)
        self._letter_matrices.pop(letter, None)

    def letter_matrix(self, letter: str) -> SparseMatrix:
        """The letter's transition relation as a Boolean sparse matrix.

        Built lazily and cached (``add_transition`` invalidates per letter);
        the subset construction steps every explored state set through these
        rows, so sharing the adjacency across calls matters.
        """
        cached = self._letter_matrices.get(letter)
        if cached is None:
            cached = SparseMatrix(self.num_states, self.num_states, BOOL)
            for (state, tr_letter), targets in self.transitions.items():
                if tr_letter == letter and targets:
                    cached.rows[state] = dict.fromkeys(targets, True)
            self._letter_matrices[letter] = cached
        return cached

    def successors(self, states: Iterable[int], letter: str) -> FrozenSet[int]:
        rows = self.letter_matrix(letter).rows
        result: Set[int] = set()
        for state in states:
            row = rows.get(state)
            if row:
                result.update(row)
        return frozenset(result)

    def accepts(self, word: Iterable[str]) -> bool:
        current = frozenset(self.initial)
        for letter in word:
            current = self.successors(current, letter)
            if not current:
                return False
        return any(state in self.accepting for state in current)


@dataclass
class DFA:
    """A complete deterministic finite automaton.

    ``transitions`` must be total: every ``(state, letter)`` has exactly one
    successor.  :func:`determinize` produces complete DFAs (the empty subset
    acts as the sink).
    """

    num_states: int
    alphabet: FrozenSet[str]
    transitions: Dict[Tuple[int, str], int]
    initial: int
    accepting: Set[int]

    def __getstate__(self):
        # DFAs ride inside pickled WFAs (the ``_support_dfa`` memo), whose
        # pickled bytes must be deterministic — see ``WFA.__getstate__``.
        # Set iteration order is construction-history dependent, so the
        # set-valued fields serialize sorted.
        state = dict(self.__dict__)
        state["alphabet"] = sorted(state["alphabet"])
        state["accepting"] = sorted(state["accepting"])
        return state

    def __setstate__(self, state):
        state["alphabet"] = frozenset(state["alphabet"])
        state["accepting"] = set(state["accepting"])
        self.__dict__.update(state)

    def step(self, state: int, letter: str) -> int:
        return self.transitions[(state, letter)]

    def accepts(self, word: Iterable[str]) -> bool:
        state = self.initial
        for letter in word:
            state = self.step(state, letter)
        return state in self.accepting

    def complement(self) -> "DFA":
        """The DFA for the complement language (same alphabet)."""
        return DFA(
            num_states=self.num_states,
            alphabet=self.alphabet,
            transitions=dict(self.transitions),
            initial=self.initial,
            accepting=set(range(self.num_states)) - self.accepting,
        )

    def extended_to(self, alphabet: FrozenSet[str]) -> "DFA":
        """The same language read over a larger alphabet.

        Letters not in ``self.alphabet`` route every state to a fresh
        non-accepting sink (so words containing them are rejected, matching
        the implicit-sink convention of :func:`dfa_equivalent`), and the
        result stays complete.  Needed when automata compiled over their own
        alphabets meet in a product construction: the complement of an
        infinity support, say, must *accept* words using the partner's
        private letters, which only exist after extension.
        """
        extra = alphabet - self.alphabet
        if not extra:
            return self
        merged = self.alphabet | alphabet
        sink = self.num_states
        transitions = dict(self.transitions)
        for letter in extra:
            for state in range(self.num_states + 1):
                transitions[(state, letter)] = sink
        for letter in self.alphabet:
            transitions[(sink, letter)] = sink
        return DFA(
            num_states=self.num_states + 1,
            alphabet=merged,
            transitions=transitions,
            initial=self.initial,
            accepting=set(self.accepting),
        )

    def is_empty(self) -> bool:
        """Whether the accepted language is empty.

        Boolean-semiring reachability over the union adjacency of all
        letters (``initial · A*`` in the ``BOOL`` instance of the sparse
        kernel), intersected with the accepting set.
        """
        adjacency = SparseMatrix(self.num_states, self.num_states, BOOL)
        for (state, _letter), successor in self.transitions.items():
            adjacency.rows.setdefault(state, {})[successor] = True
        return not (reachable(adjacency, (self.initial,)) & self.accepting)


def determinize(nfa: NFA) -> DFA:
    """Subset construction producing a complete DFA."""
    alphabet = nfa.alphabet
    start = frozenset(nfa.initial)
    index: Dict[FrozenSet[int], int] = {start: 0}
    worklist: List[FrozenSet[int]] = [start]
    transitions: Dict[Tuple[int, str], int] = {}
    accepting: Set[int] = set()
    while worklist:
        subset = worklist.pop()
        state_id = index[subset]
        if subset & nfa.accepting:
            accepting.add(state_id)
        for letter in alphabet:
            successor = nfa.successors(subset, letter)
            if successor not in index:
                index[successor] = len(index)
                worklist.append(successor)
            transitions[(state_id, letter)] = index[successor]
    return DFA(
        num_states=len(index),
        alphabet=alphabet,
        transitions=transitions,
        initial=0,
        accepting=accepting,
    )


def _total_step(dfa: DFA, state: Optional[int], letter: str) -> Optional[int]:
    """Step that treats letters outside ``dfa.alphabet`` as moving to a sink.

    ``None`` is the implicit non-accepting sink used when comparing automata
    over different (union) alphabets.
    """
    if state is None or letter not in dfa.alphabet:
        return None
    return dfa.step(state, letter)


def dfa_equivalent(left: DFA, right: DFA) -> Tuple[bool, Optional[List[str]]]:
    """Decide language equality; on failure return a distinguishing word.

    Implemented as a Hopcroft–Karp style synchronous BFS over the product,
    over the union alphabet (letters absent from one automaton lead to that
    automaton's implicit sink).
    """
    alphabet = left.alphabet | right.alphabet
    start = (left.initial, right.initial)
    seen: Set[Tuple[Optional[int], Optional[int]]] = {start}
    queue: List[Tuple[Tuple[Optional[int], Optional[int]], List[str]]] = [(start, [])]
    while queue:
        (lstate, rstate), word = queue.pop(0)
        laccept = lstate is not None and lstate in left.accepting
        raccept = rstate is not None and rstate in right.accepting
        if laccept != raccept:
            return False, word
        for letter in sorted(alphabet):
            pair = (_total_step(left, lstate, letter), _total_step(right, rstate, letter))
            if pair not in seen:
                seen.add(pair)
                queue.append((pair, word + [letter]))
    return True, None
