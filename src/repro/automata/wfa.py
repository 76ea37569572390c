"""Weighted finite automata over the extended naturals ``N̄``.

A rational power series over ``N̄`` (paper Appendix A) is exactly the
behaviour of a finite automaton whose transition, initial and final weights
live in ``N̄``.  This module provides:

* :class:`WFA` — the automaton representation (vector/matrix form), with
  each letter's transition matrix stored as sparse dict rows
  (``source → target → weight``, non-zero weights only), so every pipeline
  stage walks supports instead of n² cells;
* :func:`expr_to_wfa` — compilation of an NKA expression straight to its
  ε-free *weighted position automaton*: Glushkov's construction (one state
  per letter occurrence, plus an initial state) with ``N̄`` multiplicities,
  after Caron & Flouret (2003).  One walk over the expression computes
  each node's constant term ``c`` and its weighted ``first``/``last``
  position vectors, and accumulates the weighted ``follow`` relation; a
  star contributes ``c*``, which is ``∞`` whenever ``c ≠ 0`` — so
  ``{{1*}}[ε] = ∞`` needs no ε-closure and no matrix star;
* :func:`infinity_support_nfa` — the Boolean NFA recognising the words whose
  coefficient is ``∞`` (used by the equality check);
* :func:`drop_infinite_weights` / :func:`restrict_to_dfa` — the surgery
  needed to reduce ``N̄``-equality to exact rational equivalence.

The weight of a word ``w = a1…ak`` is ``α · M(a1) · … · M(ak) · η`` where
``α`` is the initial row vector, ``M(a)`` the transition matrix of letter
``a`` and ``η`` the final column vector; all arithmetic is in ``N̄``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.core.expr import Expr, One, Product, Star, Sum, Symbol, Zero
from repro.core.semiring import ExtNat, ONE, ZERO
from repro.automata.nfa import DFA, NFA, determinize, reachable
from repro.util.errors import DecisionError

__all__ = [
    "WFA",
    "expr_to_wfa",
    "infinity_support_nfa",
    "drop_infinite_weights",
    "restrict_to_dfa",
    "vec_mat",
]

# One letter's transition matrix: source → target → non-zero weight.
Rows = Dict[int, Dict[int, ExtNat]]


def vec_mat(vector: Dict[int, ExtNat], rows: Rows) -> Dict[int, ExtNat]:
    """Sparse row vector × letter matrix in ``N̄``: walks only the rows of
    the vector's support."""
    result: Dict[int, ExtNat] = {}
    for i, coeff in vector.items():
        row = rows.get(i)
        if row:
            for j, value in row.items():
                term = coeff * value
                existing = result.get(j)
                result[j] = term if existing is None else existing + term
    return result


@dataclass
class WFA:
    """A weighted finite automaton over ``N̄`` in vector/matrix form.

    ``matrices`` maps each letter to its ``num_states × num_states``
    transition matrix as sparse rows (``matrices[a][i][j]`` is the non-zero
    weight of ``i → j`` on ``a``); ``initial``/``final`` stay dense lists of
    length ``num_states``.  The pipeline's constructions write rows
    directly (their states are in range by construction); hand-built
    automata go through :meth:`set_weight`, the one checked writer.
    """

    num_states: int
    alphabet: FrozenSet[str]
    initial: List[ExtNat]
    final: List[ExtNat]
    matrices: Dict[str, Rows] = field(default_factory=dict)
    _support_dfa: "DFA" = field(default=None, repr=False, compare=False)

    def support_dfa(self) -> DFA:
        """The determinized infinity-support automaton, computed once.

        The decision procedure's WFA cache keeps compiled automata alive
        across queries, so memoizing the subset construction here lets every
        later equivalence query against this automaton skip it entirely.
        """
        if self._support_dfa is None:
            self._support_dfa = determinize(infinity_support_nfa(self))
        return self._support_dfa

    def set_weight(self, letter: str, source: int, target: int, weight: ExtNat) -> None:
        """Set the weight of ``source → target`` on ``letter`` (zero removes it).

        States outside ``range(num_states)`` raise :class:`DecisionError`,
        so a mis-built automaton fails here rather than as an ``IndexError``
        deep inside a decision.
        """
        n = self.num_states
        if not (0 <= source < n and 0 <= target < n):
            raise DecisionError(
                f"transition ({source}, {target}) on {letter!r} is out of "
                f"range for {n} states"
            )
        rows = self.matrices.setdefault(letter, {})
        if not weight.is_zero:
            rows.setdefault(source, {})[target] = weight
            return
        row = rows.get(source)
        if row is not None:
            row.pop(target, None)
            if not row:
                del rows[source]

    def weight(self, word: Sequence[str]) -> ExtNat:
        """The series coefficient of ``word`` (exact ``N̄`` arithmetic).

        Computed by sparse left-vector propagation: the running vector only
        carries states with non-zero weight, so a k-letter word costs
        ``O(k · nnz(reached rows))`` rather than ``k · n²``.
        """
        row = {
            i: value for i, value in enumerate(self.initial) if not value.is_zero
        }
        for letter in word:
            rows = self.matrices.get(letter)
            if rows is None or not row:
                return ZERO
            row = vec_mat(row, rows)
        total = ZERO
        for i, value in row.items():
            total = total + value * self.final[i]
        return total

    def _support_adjacency(self) -> Dict[int, Set[int]]:
        """Union of the letter supports: ``i → {j : some weight i→j ≠ 0}``."""
        adjacency: Dict[int, Set[int]] = {}
        for rows in self.matrices.values():
            for i, row in rows.items():
                adjacency.setdefault(i, set()).update(row)
        return adjacency

    def trim(self) -> "WFA":
        """Remove states that are unreachable or cannot reach a final weight
        (reachability over the support adjacency and its reverse)."""
        adjacency = self._support_adjacency()
        reverse: Dict[int, Set[int]] = {}
        for i, targets in adjacency.items():
            for j in targets:
                reverse.setdefault(j, set()).add(i)
        forward = reachable(
            adjacency, (i for i, w in enumerate(self.initial) if not w.is_zero)
        )
        backward = reachable(
            reverse, (i for i, w in enumerate(self.final) if not w.is_zero)
        )
        keep = sorted(forward & backward)
        if len(keep) == self.num_states:
            return self
        index = {old: new for new, old in enumerate(keep)}
        kept = set(keep)
        trimmed = WFA(
            num_states=len(keep),
            alphabet=self.alphabet,
            initial=[self.initial[old] for old in keep],
            final=[self.final[old] for old in keep],
        )
        for letter, rows in self.matrices.items():
            new_rows: Rows = {}
            for old_i, row in rows.items():
                if old_i not in kept:
                    continue
                picked = {
                    index[old_j]: value for old_j, value in row.items() if old_j in kept
                }
                if picked:
                    new_rows[index[old_i]] = picked
            trimmed.matrices[letter] = new_rows
        return trimmed


# -- weighted position construction -------------------------------------------


# A sparse N̄ vector over letter positions: position -> non-zero weight.
_Vector = Dict[int, ExtNat]


def _union(left: _Vector, right: _Vector) -> _Vector:
    """Disjoint union, merging the smaller vector into the larger in place.

    Positions of sibling subterms never overlap, and every vector is owned
    by exactly one pending node of the walk, so mutating it is safe — and
    smaller-into-larger keeps long sum chains ``O(n log n)``.
    """
    if len(left) < len(right):
        left, right = right, left
    left.update(right)
    return left


def _scaled(vector: _Vector, scalar: ExtNat) -> _Vector:
    """``scalar · vector``; the empty vector when ``scalar`` is zero."""
    if scalar.is_zero:
        return {}
    if scalar == ONE:
        return vector
    return {p: scalar * value for p, value in vector.items()}


def expr_to_wfa(expr: Expr, extra_alphabet: FrozenSet[str] = frozenset()) -> WFA:
    """Compile an NKA expression to its weighted position automaton over ``N̄``.

    The behaviour of the result equals the series ``{{expr}}`` of
    Definition A.4: for every word ``w``, ``result.weight(w) = {{expr}}[w]``.

    One post-order walk gives every letter occurrence a *position* and
    every node a triple ``(c, first, last)``: ``c = {{node}}[ε]`` and
    sparse ``N̄`` vectors weighting the positions a non-empty word can
    start and end at; a shared ``follow`` map weights consecutive
    positions.  The rules (``c* = ∞`` unless ``c = 0``, as ``N̄`` is a
    complete star semiring):

    * letter ``a``: a fresh position ``p``, ``c = 0``,
      ``first = last = {p: 1}``; ``1``/``0``: ``c = 1``/``0``, no positions;
    * ``E + F``: ``c(E) + c(F)``; ``first``/``last`` are disjoint unions;
    * ``E·F``: ``c(E)·c(F)``, ``first = first(E) + c(E)·first(F)``,
      ``last = last(F) + last(E)·c(F)``, ``follow += last(E)ᵀ·first(F)``;
    * ``E*``: ``c(E)*``, ``first``/``last`` scaled by ``c(E)*``,
      ``follow += last(E)ᵀ·c(E)*·first(E)``.

    The automaton has state 0 (initial weight 1, final weight ``c``) plus
    one state per position ``p`` labelled ``a``, entered from 0 with weight
    ``first[p]`` and from ``q`` with ``follow[q][p]`` on ``M(a)``, and final
    weight ``last[p]``; it is then trimmed.  There are no ε-moves, so no
    closure: ``∞`` arises only from ``c(E)* = ∞`` in a star.  This is
    Glushkov's position automaton carried to multiplicities (Caron &
    Flouret, "Glushkov construction for series: the non commutative
    case", 2003).
    """
    labels: List[str] = [""]  # labels[p] is the letter at position p ≥ 1
    follow: Dict[int, _Vector] = {}
    triples: List[Tuple[ExtNat, _Vector, _Vector]] = []
    work: List[Tuple[Expr, bool]] = [(expr, False)]
    while work:
        node, children_done = work.pop()
        if isinstance(node, Symbol):
            position = len(labels)
            labels.append(node.name)
            triples.append((ZERO, {position: ONE}, {position: ONE}))
        elif isinstance(node, One):
            triples.append((ONE, {}, {}))
        elif isinstance(node, Zero):
            triples.append((ZERO, {}, {}))
        elif not children_done:
            work.append((node, True))
            work.extend((child, False) for child in reversed(node.children()))
        elif isinstance(node, Star):
            c, first, last = triples.pop()
            c_star = c.star()
            first, last = _scaled(first, c_star), _scaled(last, c_star)
            # c* · c* = c* in N̄, so the scaled vectors carry the crossing.
            for q, weight in last.items():
                row = follow.setdefault(q, {})
                for p, value in first.items():
                    step = weight * value
                    existing = row.get(p)
                    row[p] = step if existing is None else existing + step
            triples.append((c_star, first, last))
        else:
            c_right, first_right, last_right = triples.pop()
            c_left, first_left, last_left = triples.pop()
            if isinstance(node, Sum):
                triples.append((
                    c_left + c_right,
                    _union(first_left, first_right),
                    _union(last_left, last_right),
                ))
            elif isinstance(node, Product):
                # Fresh right positions: the crossing never meets an
                # existing follow entry.
                for q, weight in last_left.items():
                    row = follow.setdefault(q, {})
                    for p, value in first_right.items():
                        row[p] = weight * value
                triples.append((
                    c_left * c_right,
                    _union(first_left, _scaled(first_right, c_left)),
                    _union(last_right, _scaled(last_left, c_right)),
                ))
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown expression node {node!r}")
    c, first, last = triples.pop()

    n = len(labels)
    final = [ZERO] * n
    final[0] = c
    for p, value in last.items():
        final[p] = value
    wfa = WFA(
        num_states=n,
        alphabet=frozenset(labels[1:]) | extra_alphabet,
        initial=[ONE] + [ZERO] * (n - 1),
        final=final,
    )
    matrices = wfa.matrices
    for source, row in [(0, first), *follow.items()]:
        for p, value in row.items():
            matrices.setdefault(labels[p], {}).setdefault(source, {})[p] = value
    return wfa.trim()


# -- surgery for the equality check ---------------------------------------------


def infinity_support_nfa(wfa: WFA) -> NFA:
    """The NFA accepting ``{w : wfa.weight(w) = ∞}``.

    A word has infinite coefficient iff some accepting run with all factors
    positive contains an ``∞`` factor (initial weight, transition weight or
    final weight) — a word only has finitely many runs, so no other source
    of infinity exists.  States are pairs ``(q, seen_infinity_bit)``.
    """
    n = wfa.num_states

    def pack(state: int, bit: bool) -> int:
        return state * 2 + (1 if bit else 0)

    nfa = NFA(num_states=2 * n, alphabet=wfa.alphabet)
    for state, weight in enumerate(wfa.initial):
        if not weight.is_zero:
            nfa.initial.add(pack(state, weight.is_infinite))
    for state, weight in enumerate(wfa.final):
        if not weight.is_zero:
            if weight.is_infinite:
                nfa.accepting.add(pack(state, False))
            nfa.accepting.add(pack(state, True))
    for letter, rows in wfa.matrices.items():
        for i, row in rows.items():
            for j, weight in row.items():
                for bit in (False, True):
                    nfa.add_transition(
                        pack(i, bit), letter, pack(j, bit or weight.is_infinite)
                    )
    return nfa


def drop_infinite_weights(wfa: WFA) -> WFA:
    """Zero out every ``∞`` weight, keeping only the finite behaviour.

    On any word *outside* the infinity support the result computes the same
    (finite) coefficient as ``wfa``: a run through an ``∞``-weight on such a
    word would put the word in the infinity support, so no positive run of
    ``wfa`` on it touches an ``∞`` weight.
    """
    cleaned = WFA(
        num_states=wfa.num_states,
        alphabet=wfa.alphabet,
        initial=[ZERO if w.is_infinite else w for w in wfa.initial],
        final=[ZERO if w.is_infinite else w for w in wfa.final],
    )
    for letter, rows in wfa.matrices.items():
        finite: Rows = {}
        for i, row in rows.items():
            picked = {j: w for j, w in row.items() if not w.is_infinite}
            if picked:
                finite[i] = picked
        cleaned.matrices[letter] = finite
    return cleaned


def restrict_to_dfa(wfa: WFA, dfa: DFA) -> WFA:
    """The Hadamard product of ``wfa`` with the characteristic series of ``dfa``.

    The result's coefficient on ``w`` is ``wfa.weight(w)`` if ``dfa`` accepts
    ``w`` and ``0`` otherwise.  Letters of ``wfa`` missing from the DFA's
    alphabet are treated as rejected by the DFA (weight 0).

    The product is built on the fly: a breadth-first worklist starts from
    ``(q, dfa.initial)`` for each state ``q`` with non-zero initial weight
    and follows only the non-zero rows of ``wfa``, numbering a pair
    ``(state, dfa state)`` the first time it is reached.  Unreachable pairs
    are never created, so the cost is ``O(reachable pairs × letters + nnz
    of their rows)`` rather than ``m · nnz`` for all ``n × m`` pairs; the
    closing :meth:`WFA.trim` drops the pairs that cannot reach a final
    weight.
    """
    letters = [
        (letter, rows)
        for letter, rows in wfa.matrices.items()
        if letter in dfa.alphabet
    ]
    index: Dict[Tuple[int, int], int] = {}
    pairs: List[Tuple[int, int]] = []
    initial: List[ExtNat] = []
    for state, weight in enumerate(wfa.initial):
        if not weight.is_zero:
            index[(state, dfa.initial)] = len(pairs)
            pairs.append((state, dfa.initial))
            initial.append(weight)
    product_rows: Dict[str, Dict[int, Dict[int, ExtNat]]] = {
        letter: {} for letter, _ in letters
    }
    source = 0
    while source < len(pairs):  # ``pairs`` grows as the worklist queue
        state, dstate = pairs[source]
        for letter, rows in letters:
            row = rows.get(state)
            if not row:
                continue
            dnext = dfa.step(dstate, letter)
            packed: Dict[int, ExtNat] = {}
            for target, weight in row.items():
                pair = (target, dnext)
                number = index.get(pair)
                if number is None:
                    number = index[pair] = len(pairs)
                    pairs.append(pair)
                packed[number] = weight
            product_rows[letter][source] = packed
        source += 1

    n = len(pairs)
    product = WFA(
        num_states=n,
        alphabet=wfa.alphabet,
        initial=initial + [ZERO] * (n - len(initial)),
        final=[
            wfa.final[state] if dstate in dfa.accepting else ZERO
            for state, dstate in pairs
        ],
    )
    product.matrices.update(product_rows)
    return product.trim()
