"""Semiring-generic sparse matrices (dict-of-rows) and vector kernels.

:class:`SparseMatrix` stores only non-zero entries, as ``rows[i][j] =
value`` — a CSR-flavoured layout chosen because every hot consumer in the
decision pipeline walks whole rows: letter-matrix assembly in
:func:`repro.automata.wfa.expr_to_wfa`, left-vector propagation in Tzeng's
algorithm, and Boolean reachability.  The module holds no matrix product
or star: the position automaton needs neither, and the vector kernels
below cost ``O(nnz)`` of the rows they touch.

All shape violations raise :class:`repro.util.errors.DecisionError` with
the offending shapes in the message (never ``IndexError``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.linalg import kernels
from repro.linalg.semiring import SemiringSpec
from repro.util.errors import DecisionError

__all__ = [
    "SparseMatrix",
    "SparseVec",
    "vec_mat",
    "mat_vec",
    "vec_dot",
    "reachable",
]

# A sparse row vector: index -> non-zero value.
SparseVec = Dict[int, Any]


class SparseMatrix:
    """A sparse ``nrows × ncols`` matrix over a :class:`SemiringSpec`.

    ``rows`` maps a row index to that row's non-zero entries (column →
    value); absent rows/columns are semiring zero.  The invariant that no
    stored value is zero is maintained by every mutator, so ``nnz`` and
    support-graph traversals never filter.
    """

    __slots__ = ("nrows", "ncols", "semiring", "rows")

    def __init__(self, nrows: int, ncols: int, semiring: SemiringSpec):
        if nrows < 0 or ncols < 0:
            raise DecisionError(f"negative matrix shape ({nrows}, {ncols})")
        self.nrows = nrows
        self.ncols = ncols
        self.semiring = semiring
        self.rows: Dict[int, Dict[int, Any]] = {}

    # -- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, nrows: int, ncols: int, semiring: SemiringSpec) -> "SparseMatrix":
        return cls(nrows, ncols, semiring)

    @classmethod
    def from_dense(
        cls, data: Sequence[Sequence[Any]], semiring: SemiringSpec
    ) -> "SparseMatrix":
        """Build from a list-of-lists; ragged input raises :class:`DecisionError`."""
        nrows = len(data)
        ncols = len(data[0]) if nrows else 0
        result = cls(nrows, ncols, semiring)
        is_zero = semiring.is_zero
        for i, dense_row in enumerate(data):
            if len(dense_row) != ncols:
                raise DecisionError(
                    f"ragged dense matrix: row 0 has {ncols} columns, "
                    f"row {i} has {len(dense_row)}"
                )
            row = {j: value for j, value in enumerate(dense_row) if not is_zero(value)}
            if row:
                result.rows[i] = row
        return result

    @classmethod
    def from_entries(
        cls,
        nrows: int,
        ncols: int,
        entries: Iterable[Tuple[int, int, Any]],
        semiring: SemiringSpec,
    ) -> "SparseMatrix":
        """Build from ``(i, j, value)`` triples; duplicates are *added*."""
        result = cls(nrows, ncols, semiring)
        for i, j, value in entries:
            result.add_entry(i, j, value)
        return result

    # -- basic access ------------------------------------------------------

    def _check_index(self, i: int, j: int) -> None:
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise DecisionError(
                f"index ({i}, {j}) out of range for shape "
                f"({self.nrows}, {self.ncols})"
            )

    def get(self, i: int, j: int) -> Any:
        self._check_index(i, j)
        return self.rows.get(i, {}).get(j, self.semiring.zero)

    def set(self, i: int, j: int, value: Any) -> None:
        self._check_index(i, j)
        if self.semiring.is_zero(value):
            row = self.rows.get(i)
            if row is not None:
                row.pop(j, None)
                if not row:
                    del self.rows[i]
            return
        self.rows.setdefault(i, {})[j] = value

    def add_entry(self, i: int, j: int, value: Any) -> None:
        """``self[i][j] += value`` in the semiring."""
        self._check_index(i, j)
        if self.semiring.is_zero(value):
            return
        row = self.rows.setdefault(i, {})
        existing = row.get(j)
        row[j] = value if existing is None else self.semiring.add(existing, value)

    @property
    def nnz(self) -> int:
        """Number of stored (non-zero) entries."""
        return sum(len(row) for row in self.rows.values())

    def entries(self) -> Iterator[Tuple[int, int, Any]]:
        """Iterate the non-zero entries as ``(i, j, value)``.

        Explicitly-stored zeros (possible when callers write ``rows``
        directly) are skipped, so every consumer sees the same support no
        matter which kernel backend produced the matrix.
        """
        is_zero = self.semiring.is_zero
        for i, row in self.rows.items():
            for j, value in row.items():
                if not is_zero(value):
                    yield i, j, value

    def to_dense(self) -> List[List[Any]]:
        zero = self.semiring.zero
        dense = [[zero] * self.ncols for _ in range(self.nrows)]
        for i, row in self.rows.items():
            dense_row = dense[i]
            for j, value in row.items():
                dense_row[j] = value
        return dense

    def transpose(self) -> "SparseMatrix":
        result = SparseMatrix(self.ncols, self.nrows, self.semiring)
        for i, row in self.rows.items():
            for j, value in row.items():
                result.rows.setdefault(j, {})[i] = value
        return result

    def _pruned_rows(self) -> Dict[int, Dict[int, Any]]:
        """``rows`` with explicitly-stored zeros dropped (for comparison)."""
        is_zero = self.semiring.is_zero
        pruned: Dict[int, Dict[int, Any]] = {}
        for i, row in self.rows.items():
            kept = {j: value for j, value in row.items() if not is_zero(value)}
            if kept:
                pruned[i] = kept
        return pruned

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        # Compare zero-pruned supports: a matrix that came off a different
        # kernel backend (or had zeros written into ``rows`` directly) must
        # compare equal iff it denotes the same map, not the same storage.
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._pruned_rows() == other._pruned_rows()
        )

    __hash__ = None  # mutable

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SparseMatrix({self.nrows}×{self.ncols} over "
            f"{self.semiring.name}, nnz={self.nnz})"
        )


# -- vector kernels ----------------------------------------------------------


def vec_mat(vec: SparseVec, matrix: SparseMatrix) -> SparseVec:
    """Sparse row-vector × matrix product (``len == matrix.nrows`` domain)."""
    plus, times = matrix.semiring.add, matrix.semiring.mul
    is_zero = matrix.semiring.is_zero
    rows = matrix.rows
    result: SparseVec = {}
    for i, coeff in vec.items():
        row = rows.get(i)
        if row is None:
            continue
        for j, value in row.items():
            term = times(coeff, value)
            if is_zero(term):
                continue
            existing = result.get(j)
            result[j] = term if existing is None else plus(existing, term)
    return {j: v for j, v in result.items() if not is_zero(v)}


def mat_vec(matrix: SparseMatrix, vec: SparseVec) -> SparseVec:
    """Matrix × sparse column-vector product."""
    plus, times = matrix.semiring.add, matrix.semiring.mul
    is_zero = matrix.semiring.is_zero
    result: SparseVec = {}
    for i, row in matrix.rows.items():
        total = None
        for j, value in row.items():
            coeff = vec.get(j)
            if coeff is None:
                continue
            term = times(value, coeff)
            if is_zero(term):
                continue
            total = term if total is None else plus(total, term)
        if total is not None and not is_zero(total):
            result[i] = total
    return result


def vec_dot(u: SparseVec, v: SparseVec, semiring: SemiringSpec) -> Any:
    """Dot product ``Σ_i u_i · v_i`` of two sparse vectors.

    Iterates the sparser operand but always multiplies in ``u · v`` order,
    so noncommutative semirings get the documented product.
    """
    total = semiring.zero
    if len(v) < len(u):
        for i, value in v.items():
            other = u.get(i)
            if other is not None:
                total = semiring.add(total, semiring.mul(other, value))
        return total
    for i, value in u.items():
        other = v.get(i)
        if other is not None:
            total = semiring.add(total, semiring.mul(value, other))
    return total


def reachable(adjacency: SparseMatrix, seeds: Iterable[int]) -> Set[int]:
    """States reachable from ``seeds`` along non-zero entries of ``adjacency``.

    This is the Boolean-semiring fixpoint ``seed · adjacency*`` computed as a
    worklist traversal over the sparse rows — the bool instance of the same
    kernel the weighted pipeline uses, shared by WFA trimming and DFA
    emptiness.
    """
    seeds = list(seeds)
    fast = kernels.try_reachable(adjacency, seeds)
    if fast is not None:
        return fast
    seen: Set[int] = set(seeds)
    frontier = list(seen)
    rows = adjacency.rows
    while frontier:
        state = frontier.pop()
        for succ in rows.get(state, ()):
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return seen
