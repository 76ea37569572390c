"""An exact, pivot-indexed integer row space over sparse vectors.

The Tzeng/Schützenberger equivalence check (:mod:`repro.automata.equivalence`)
needs one operation: "is this reachability vector linearly independent of the
ones seen so far?".  Floating point would make the decision procedure
unsound, so everything here is exact.

The vectors Tzeng generates are integral (the automata reaching it carry
finite natural weights, and vector–matrix products preserve that) and
sparse: a word reaches few states.  :class:`RowSpace` therefore keeps an
integer basis in **reduced echelon form** over ``{coordinate: int}`` dicts:

* rows are stored as ``pivot → row``; every row is zero at every other
  row's pivot, gcd-normalised, with a positive pivot entry;
* a ``column → pivots`` index lists the rows with a non-zero entry in each
  non-pivot column, which is what back-substitution needs.

Reducing a candidate touches only the rows whose pivots lie in the
candidate's support: a row is zero at every other pivot, so elimination
never creates a new pivot entry.  Elimination is fraction-free (the
residue is scaled by a positive integer, which changes neither its
zero-ness nor its support), and entries are python ints, so ``1 << 70``
and beyond stay exact.

Coordinates outside ``[0, dimension)`` raise
:class:`repro.util.errors.DecisionError`.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Mapping, Set

from repro.util.errors import DecisionError

__all__ = ["RowSpace"]

Row = Dict[int, int]


def _eliminate(target: Row, row: Row, pivot: int) -> None:
    """Clear ``target[pivot]`` with ``row`` (``row[pivot] > 0``), in place."""
    coeff = target[pivot]
    lead = row[pivot]
    g = gcd(coeff, lead)
    coeff //= g
    lead //= g
    if lead != 1:
        for column in target:
            target[column] *= lead
    for column, value in row.items():
        mixed = target.get(column, 0) - coeff * value
        if mixed:
            target[column] = mixed
        else:
            del target[column]


def _normalise(row: Row, pivot: int) -> None:
    """Divide ``row`` by its gcd, signed so that ``row[pivot] > 0``."""
    g = gcd(*row.values())
    if row[pivot] < 0:
        g = -g
    if g != 1:
        for column in row:
            row[column] //= g


class RowSpace:
    """An incrementally maintained integer row space in reduced echelon form.

    ``insert`` reduces the candidate against the current basis; if a nonzero
    residue remains the vector was independent, it is added (and the basis
    kept reduced by back-substitution), and ``insert`` returns ``True``.
    Which residue coordinate becomes the new pivot cannot change any
    independence answer or rank.
    """

    __slots__ = ("dimension", "_rows", "_columns")

    def __init__(self, dimension: int):
        if dimension < 0:
            raise DecisionError(f"negative row-space dimension {dimension}")
        self.dimension = dimension
        self._rows: Dict[int, Row] = {}
        self._columns: Dict[int, Set[int]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def insert(self, candidate: Mapping[int, int]) -> bool:
        """Insert ``candidate``; return ``True`` if it enlarged the space."""
        residue: Row = {}
        for column, value in candidate.items():
            if not 0 <= column < self.dimension:
                raise DecisionError(
                    f"coordinate {column} outside row space of dimension "
                    f"{self.dimension}"
                )
            if value:
                residue[column] = value
        rows = self._rows
        for pivot in [column for column in residue if column in rows]:
            _eliminate(residue, rows[pivot], pivot)
        if not residue:
            return False
        new_pivot = min(residue)
        _normalise(residue, new_pivot)
        columns = self._columns
        # Back-substitute so every other row is zero at the new pivot.
        for pivot in columns.pop(new_pivot, ()):
            row = rows[pivot]
            before = {column for column in residue if column in row}
            _eliminate(row, residue, new_pivot)
            _normalise(row, pivot)
            for column in residue:
                if column == new_pivot:
                    continue
                if column in row and column not in before:
                    columns.setdefault(column, set()).add(pivot)
                elif column not in row and column in before:
                    columns[column].discard(pivot)
        rows[new_pivot] = residue
        for column in residue:
            if column != new_pivot:
                columns.setdefault(column, set()).add(new_pivot)
        return True
