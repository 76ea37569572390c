"""Formal power series over ``N̄`` (paper Definitions A.2–A.3).

A formal power series over alphabet ``Σ`` is a function ``f : Σ* → N̄``,
written ``f = Σ_w f[w]·w``.  This module gives a *truncated, exact*
representation: a :class:`TruncatedSeries` stores every coefficient for
words up to a fixed length, which is enough to

* implement the operations of Definition A.3 exactly on the truncation
  (coefficients of words of length ``≤ n`` of ``f+g``, ``f·g`` and ``f*``
  depend only on coefficients of words of length ``≤ n``, *including* the
  ε-coefficient interaction in the star, handled via the scalar star in
  ``N̄``);
* cross-validate the automaton pipeline of :mod:`repro.automata.wfa`
  coefficient-by-coefficient in tests.

The star of Definition A.3 sums over *all* factorisations into possibly
empty blocks; when ``f[ε] = c`` the empty blocks contribute a factor
``c* ∈ N̄`` in closed form: writing ``f = c·ε + f'`` with ``f'`` proper,
``f* = (c*·f')*·c*``.  We implement exactly that normalisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.core.expr import (
    Expr,
    One,
    Product,
    Star,
    Sum,
    Symbol,
    Zero,
    alphabet as expr_alphabet,
)
from repro.core.semiring import ExtNat, ONE, ZERO, ext_sum

__all__ = ["TruncatedSeries", "series_of_expr", "all_words"]

Word = Tuple[str, ...]


def all_words(alphabet: Iterable[str], max_length: int) -> List[Word]:
    """All words over ``alphabet`` of length at most ``max_length``."""
    letters = sorted(alphabet)
    words: List[Word] = []
    for length in range(max_length + 1):
        words.extend(iter_product(letters, repeat=length))
    return words


@dataclass(frozen=True)
class TruncatedSeries:
    """All coefficients of a formal power series up to ``max_length``.

    Missing entries in ``coefficients`` denote coefficient ``0``.
    """

    alphabet: FrozenSet[str]
    max_length: int
    coefficients: Tuple[Tuple[Word, ExtNat], ...]

    @staticmethod
    def build(
        alphabet: Iterable[str], max_length: int, entries: Dict[Word, ExtNat]
    ) -> "TruncatedSeries":
        cleaned = tuple(
            sorted(
                ((word, value) for word, value in entries.items() if not value.is_zero),
                key=lambda item: (len(item[0]), item[0]),
            )
        )
        return TruncatedSeries(frozenset(alphabet), max_length, cleaned)

    def as_dict(self) -> Dict[Word, ExtNat]:
        return dict(self.coefficients)

    def coefficient(self, word: Sequence[str]) -> ExtNat:
        word = tuple(word)
        if len(word) > self.max_length:
            raise ValueError(
                f"word of length {len(word)} beyond truncation {self.max_length}"
            )
        return self.as_dict().get(word, ZERO)

    # -- Definition A.3 operations, exact on the truncation -------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        merged = self.as_dict()
        for word, value in other.coefficients:
            merged[word] = merged.get(word, ZERO) + value
        return TruncatedSeries.build(self.alphabet | other.alphabet, self.max_length, merged)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        result: Dict[Word, ExtNat] = {}
        for left_word, left_value in self.coefficients:
            for right_word, right_value in other.coefficients:
                word = left_word + right_word
                if len(word) > self.max_length:
                    continue
                contribution = left_value * right_value
                if not contribution.is_zero:
                    result[word] = result.get(word, ZERO) + contribution
        return TruncatedSeries.build(self.alphabet | other.alphabet, self.max_length, result)

    def proper_part(self) -> "TruncatedSeries":
        """The series with the ε-coefficient removed."""
        entries = {w: v for w, v in self.coefficients if w != ()}
        return TruncatedSeries.build(self.alphabet, self.max_length, entries)

    def star(self) -> "TruncatedSeries":
        """``f* = Σ_k f^k`` computed exactly on the truncation.

        Normalise ``f = c·ε + f'`` with ``f'`` proper; then
        ``f* = (c*·f')*·c*`` where ``c* ∈ N̄`` is a scalar.  The proper star
        needs only ``max_length`` rounds of iteration because every factor
        consumes at least one letter.
        """
        epsilon_coeff = self.as_dict().get((), ZERO)
        scalar = epsilon_coeff.star()
        scaled_proper = self.proper_part()._scale(scalar)
        proper_star = scaled_proper._proper_star()
        return proper_star._scale(scalar)

    def _scale(self, scalar: ExtNat) -> "TruncatedSeries":
        entries = {w: scalar * v for w, v in self.coefficients}
        return TruncatedSeries.build(self.alphabet, self.max_length, entries)

    def _proper_star(self) -> "TruncatedSeries":
        unit = TruncatedSeries.build(self.alphabet, self.max_length, {(): ONE})
        total = unit
        power = unit
        for _ in range(self.max_length):
            power = power * self
            total = total + power
        return total

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.max_length != other.max_length:
            raise ValueError(
                f"truncation mismatch: {self.max_length} vs {other.max_length}"
            )

    # -- order -------------------------------------------------------------------

    def leq(self, other: "TruncatedSeries") -> bool:
        """Pointwise coefficient order (Definition A.0.4) on the truncation."""
        other_coeffs = other.as_dict()
        for word, value in self.coefficients:
            if not value <= other_coeffs.get(word, ZERO):
                return False
        return True

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for word, value in self.coefficients:
            text = " ".join(word) if word else "ε"
            parts.append(f"{value}·{text}" if value != ONE else text)
        return " + ".join(parts)


def series_of_expr(expr: Expr, max_length: int, alphabet: Iterable[str] = ()) -> TruncatedSeries:
    """The semantic mapping ``{{−}}`` of Definition A.4, truncated.

    This is a *direct* evaluator, independent of the automaton pipeline —
    tests compare the two against each other.  It walks the tree with its
    own stack (operand series wait on a second one), so an expression of
    any depth evaluates, with the operations of the recursive definition.
    """
    sigma = frozenset(expr_alphabet(expr)) | frozenset(alphabet)
    values: List[TruncatedSeries] = []
    stack: List[Tuple[Expr, bool]] = [(expr, False)]
    while stack:
        node, operands_ready = stack.pop()
        if isinstance(node, Zero):
            values.append(TruncatedSeries.build(sigma, max_length, {}))
        elif isinstance(node, One):
            values.append(TruncatedSeries.build(sigma, max_length, {(): ONE}))
        elif isinstance(node, Symbol):
            values.append(TruncatedSeries.build(sigma, max_length, {(node.name,): ONE}))
        elif not operands_ready:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node.children()))
        elif isinstance(node, Star):
            values.append(values.pop().star())
        elif isinstance(node, (Sum, Product)):
            right = values.pop()
            left = values.pop()
            values.append(left + right if isinstance(node, Sum) else left * right)
        else:
            raise TypeError(f"unknown expression node {node!r}")  # pragma: no cover
    return values.pop()
