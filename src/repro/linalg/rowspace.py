"""Exact incremental row spaces with a fraction-free integer fast path.

The Tzeng/Schützenberger equivalence check (:mod:`repro.automata.equivalence`)
needs one operation: "is this reachability vector linearly independent of the
ones seen so far?".  Floating point would make the decision procedure
unsound, so everything here is exact.

The vectors Tzeng generates start life as small *integers* (initial weights
and transition weights of the trimmed WFAs are finite naturals), and stay
integral under vector–matrix products.  :class:`RowSpace` therefore keeps
its basis in **integer mode** as long as every inserted vector is integral:
reduction is fraction-free (Bareiss-style cross-multiplication, each row
divided by its gcd to bound growth), so no ``Fraction`` normalisation — the
dominant cost of the old implementation — happens at all.  The first
non-integral candidate demotes the basis to the classical reduced-echelon
``Fraction`` form and everything continues exactly as before; answers are
identical in both modes (only representatives of residues differ by a
positive scalar, which cannot change zero-ness, pivots or ranks).

Dimension mismatches raise :class:`repro.util.errors.DecisionError` with
both dimensions in the message.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple, Union

from repro.util.errors import DecisionError

__all__ = ["Vector", "vector", "dot", "scale", "add", "sub", "is_zero", "RowSpace"]

Scalar = Union[int, Fraction]
Vector = Tuple[Scalar, ...]


def vector(values: Sequence[Scalar]) -> Vector:
    """Build an exact vector from ints or fractions (ints stay ints)."""
    return tuple(value if isinstance(value, int) else Fraction(value) for value in values)


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    if len(u) != len(v):
        raise DecisionError(f"vector dimension mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def scale(u: Sequence[Scalar], c: Scalar) -> Vector:
    return tuple(a * c for a in u)


def add(u: Sequence[Scalar], v: Sequence[Scalar]) -> Vector:
    if len(u) != len(v):
        raise DecisionError(f"vector dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def sub(u: Sequence[Scalar], v: Sequence[Scalar]) -> Vector:
    if len(u) != len(v):
        raise DecisionError(f"vector dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def is_zero(u: Sequence[Scalar]) -> bool:
    return all(a == 0 for a in u)


def _is_integral(u: Sequence[Scalar]) -> bool:
    return all(isinstance(a, int) for a in u)


def _first_nonzero(u: Sequence[Scalar]) -> Optional[int]:
    for index, value in enumerate(u):
        if value != 0:
            return index
    return None


def _gcd_normalise(row: List[int], pivot: int) -> Tuple[int, ...]:
    """Divide by the gcd and fix the sign so ``row[pivot] > 0``."""
    g = 0
    for value in row:
        if value:
            g = gcd(g, value)
    if g == 0:
        return tuple(row)
    if row[pivot] < 0:
        g = -g
    return tuple(value // g for value in row)


class RowSpace:
    """An incrementally maintained row space in reduced echelon form.

    ``insert`` reduces the candidate against the current basis; if a nonzero
    residue remains the vector was independent, it is added (and the basis
    kept reduced by back-substitution), and ``insert`` returns ``True``.

    Two interchangeable representations are used internally:

    * **integer mode** (initial): rows are gcd-normalised integer tuples
      with positive pivot entries, reduction is by cross-multiplication —
      ``v ← v·row[p] − v[p]·row`` — which never leaves ``Z``;
    * **fraction mode**: the classical pivot-1 reduced echelon form over
      ``Q``, entered permanently the first time a non-integral vector
      arrives.

    Ranks, independence verdicts and ``contains`` answers do not depend on
    the mode (integer reduction scales residues by a *positive* integer,
    preserving zero-ness and pivot positions).
    """

    def __init__(self, dimension: int):
        if dimension < 0:
            raise DecisionError(f"negative row-space dimension {dimension}")
        self.dimension = dimension
        self._rows: List[Vector] = []
        self._pivots: List[int] = []
        self._integer_mode = True

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def integer_mode(self) -> bool:
        """Whether the basis is currently in the fraction-free fast path."""
        return self._integer_mode

    def _check_dimension(self, candidate: Sequence[Scalar]) -> None:
        if len(candidate) != self.dimension:
            raise DecisionError(
                f"vector of dimension {len(candidate)} in row space of "
                f"dimension {self.dimension}"
            )

    def _demote_to_fractions(self) -> None:
        """Switch the basis to pivot-1 ``Fraction`` form (idempotent)."""
        if not self._integer_mode:
            return
        converted: List[Vector] = []
        for row, pivot in zip(self._rows, self._pivots):
            lead = Fraction(row[pivot])
            converted.append(tuple(Fraction(value) / lead for value in row))
        self._rows = converted
        self._integer_mode = False

    # -- reduction ---------------------------------------------------------

    def _reduce_integer(self, candidate: Sequence[int]) -> List[int]:
        residue = list(candidate)
        for row, pivot in zip(self._rows, self._pivots):
            coeff = residue[pivot]
            if coeff:
                lead = row[pivot]
                residue = [a * lead - coeff * b for a, b in zip(residue, row)]
        return residue

    def _reduce_fraction(self, candidate: Sequence[Scalar]) -> List[Fraction]:
        residue = [Fraction(value) for value in candidate]
        for row, pivot in zip(self._rows, self._pivots):
            coeff = residue[pivot]
            if coeff:
                residue = [a - coeff * b for a, b in zip(residue, row)]
        return residue

    def reduce(self, candidate: Sequence[Scalar]) -> Vector:
        """A residue of ``candidate`` modulo the row space.

        In integer mode the residue is scaled by a positive integer (the
        product of the pivots used), which is span-equivalent: it is zero,
        and has its first nonzero at the same index, exactly when the true
        residue does.
        """
        self._check_dimension(candidate)
        if self._integer_mode and _is_integral(candidate):
            return tuple(self._reduce_integer(candidate))
        self._demote_to_fractions()
        return tuple(self._reduce_fraction(candidate))

    def contains(self, candidate: Sequence[Scalar]) -> bool:
        return is_zero(self.reduce(candidate))

    # -- insertion ---------------------------------------------------------

    def insert(self, candidate: Sequence[Scalar]) -> bool:
        """Insert ``candidate``; return ``True`` if it enlarged the space."""
        self._check_dimension(candidate)
        if self._integer_mode and _is_integral(candidate):
            return self._insert_integer(candidate)
        self._demote_to_fractions()
        return self._insert_fraction(candidate)

    def _insert_integer(self, candidate: Sequence[int]) -> bool:
        residue = self._reduce_integer(candidate)
        pivot = _first_nonzero(residue)
        if pivot is None:
            return False
        normalised = _gcd_normalise(residue, pivot)
        lead = normalised[pivot]
        # Back-substitute to keep every existing row zero at the new pivot.
        updated: List[Vector] = []
        for row, row_pivot in zip(self._rows, self._pivots):
            coeff = row[pivot]
            if coeff:
                mixed = [a * lead - coeff * b for a, b in zip(row, normalised)]
                row = _gcd_normalise(mixed, row_pivot)
            updated.append(row)
        self._rows = updated
        self._rows.append(normalised)
        self._pivots.append(pivot)
        return True

    def _insert_fraction(self, candidate: Sequence[Scalar]) -> bool:
        residue = self._reduce_fraction(candidate)
        pivot = _first_nonzero(residue)
        if pivot is None:
            return False
        lead = residue[pivot]
        normalised = tuple(value / lead for value in residue)
        self._rows = [
            sub(row, scale(normalised, row[pivot])) if row[pivot] != 0 else row
            for row in self._rows
        ]
        self._rows.append(normalised)
        self._pivots.append(pivot)
        return True
