"""Completely-positive trace-non-increasing superoperators (paper ``QC(H)``).

A superoperator is stored in Kraus form ``E(ρ) = Σ_k K_k ρ K_k†`` together
with a cached *Liouville* (natural) matrix representation: with
column-stacking vectorisation ``vec`` (``order='F'``),

    ``vec(E(ρ)) = L · vec(ρ)``  where  ``L = Σ_k conj(K_k) ⊗ K_k``.

The Liouville form turns composition into matrix product and makes the
while-loop star of Section 4.2 solvable by spectral methods
(:func:`repro.programs.semantics` / :mod:`repro.pathmodel.action`).

Composition follows the paper's *diagrammatic* convention:
``(E1 ∘ E2)(ρ) = E2(E1(ρ))`` — exposed as :meth:`Superoperator.then` to
avoid ambiguity.  The Schrödinger–Heisenberg dual replaces every Kraus
operator by its adjoint (:meth:`Superoperator.dual`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.quantum.operators import ATOL, dagger, loewner_leq, operator_close

__all__ = ["Superoperator", "vec", "unvec"]


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stacking vectorisation."""
    return np.asarray(matrix, dtype=complex).flatten(order="F")


def unvec(vector: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(vector, dtype=complex).reshape((dim, dim), order="F")


class Superoperator:
    """A CP map given by Kraus operators; trace-non-increasing by validation."""

    def __init__(self, kraus: Sequence[np.ndarray], dim: Optional[int] = None):
        operators = [np.asarray(k, dtype=complex) for k in kraus]
        if not operators:
            if dim is None:
                raise ValueError("zero map needs an explicit dimension")
            operators = [np.zeros((dim, dim), dtype=complex)]
        self.kraus: List[np.ndarray] = operators
        self.dim = operators[0].shape[0]
        for op in operators:
            if op.shape != (self.dim, self.dim):
                raise ValueError(
                    f"Kraus operators must be square of equal dimension; got {op.shape}"
                )
        self._liouville: Optional[np.ndarray] = None

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def identity(dim: int) -> "Superoperator":
        return Superoperator([np.eye(dim, dtype=complex)])

    @staticmethod
    def zero(dim: int) -> "Superoperator":
        return Superoperator([], dim=dim)

    @staticmethod
    def unitary(matrix: np.ndarray) -> "Superoperator":
        """``ρ ↦ U ρ U†``."""
        return Superoperator([np.asarray(matrix, dtype=complex)])

    @staticmethod
    def reset_to_zero(dim: int) -> "Superoperator":
        """``ρ ↦ Σ_i |0⟩⟨i| ρ |i⟩⟨0|`` — the ``q := |0⟩`` statement."""
        kraus = []
        for i in range(dim):
            op = np.zeros((dim, dim), dtype=complex)
            op[0, i] = 1.0
            kraus.append(op)
        return Superoperator(kraus)

    @staticmethod
    def constant(target: np.ndarray) -> "Superoperator":
        """``C_A : ρ ↦ tr(ρ)·A`` for a PSD ``A`` (paper Definition 7.2).

        Kraus form: with ``A = Σ_i λ_i |a_i⟩⟨a_i|``, the operators are
        ``√λ_i |a_i⟩⟨j|`` over all eigenvectors ``i`` and basis indices
        ``j``.
        """
        target = np.asarray(target, dtype=complex)
        dim = target.shape[0]
        eigenvalues, eigenvectors = np.linalg.eigh((target + dagger(target)) / 2)
        kraus = []
        for i, value in enumerate(eigenvalues):
            if value <= ATOL:
                continue
            column = eigenvectors[:, i]
            for j in range(dim):
                op = np.zeros((dim, dim), dtype=complex)
                op[:, j] = np.sqrt(value) * column
                kraus.append(op)
        return Superoperator(kraus, dim=dim)

    # -- core behaviour ------------------------------------------------------------

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        result = np.zeros_like(rho)
        for op in self.kraus:
            result += op @ rho @ dagger(op)
        return result

    @property
    def liouville(self) -> np.ndarray:
        """The natural-representation matrix (cached)."""
        if self._liouville is None:
            d = self.dim
            total = np.zeros((d * d, d * d), dtype=complex)
            for op in self.kraus:
                total += np.kron(op.conj(), op)
            self._liouville = total
        return self._liouville

    def kraus_sum(self) -> np.ndarray:
        """``Σ_k K_k† K_k`` — equals ``I`` iff trace-preserving."""
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for op in self.kraus:
            total += dagger(op) @ op
        return total

    def is_trace_nonincreasing(self, atol: float = 1e-8) -> bool:
        return loewner_leq(self.kraus_sum(), np.eye(self.dim), atol=atol)

    def is_trace_preserving(self, atol: float = 1e-8) -> bool:
        return operator_close(self.kraus_sum(), np.eye(self.dim), atol=atol)

    # -- algebra ----------------------------------------------------------------------

    def then(self, other: "Superoperator") -> "Superoperator":
        """Diagrammatic composition: ``(self.then(other))(ρ) = other(self(ρ))``.

        This is the paper's ``self ∘ other``.
        """
        kraus = [b @ a for a in self.kraus for b in other.kraus]
        return Superoperator(_prune(kraus), dim=self.dim)

    def __add__(self, other: "Superoperator") -> "Superoperator":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in superoperator sum")
        return Superoperator(_prune(self.kraus + other.kraus), dim=self.dim)

    def scale(self, factor: float) -> "Superoperator":
        """``ρ ↦ factor · E(ρ)`` for ``factor ≥ 0`` (scales Kraus by √factor)."""
        if factor < 0:
            raise ValueError("superoperators scale by non-negative factors only")
        root = np.sqrt(factor)
        return Superoperator([root * op for op in self.kraus], dim=self.dim)

    def dual(self) -> "Superoperator":
        """The Schrödinger–Heisenberg dual ``E†(A) = Σ K† A K``."""
        return Superoperator([dagger(op) for op in self.kraus], dim=self.dim)

    def tensor(self, other: "Superoperator") -> "Superoperator":
        """``E ⊗ F`` acting on the tensor-product space."""
        kraus = [np.kron(a, b) for a in self.kraus for b in other.kraus]
        return Superoperator(kraus, dim=self.dim * other.dim)

    # -- comparison ----------------------------------------------------------------------

    def equals(self, other: "Superoperator", atol: float = 1e-8) -> bool:
        """Equality as maps (via Liouville matrices)."""
        return self.dim == other.dim and bool(
            np.allclose(self.liouville, other.liouville, atol=atol)
        )

    def loewner_dominates(self, other: "Superoperator", atol: float = 1e-8) -> bool:
        """Pointwise Löwner domination ``other(ρ) ⊑ self(ρ)`` on all PSD ρ.

        Equivalent to complete positivity of the difference, checked via the
        Choi matrix of ``self − other``.
        """
        d = self.dim
        choi = _choi(self.liouville, d) - _choi(other.liouville, d)
        from repro.quantum.operators import is_positive_semidefinite

        return is_positive_semidefinite(choi, atol=atol)

    def __repr__(self) -> str:
        return f"Superoperator(dim={self.dim}, kraus={len(self.kraus)})"


def _prune(kraus: Iterable[np.ndarray]) -> List[np.ndarray]:
    """Drop numerically-zero Kraus operators (keeps representations small)."""
    kept = [op for op in kraus if np.abs(op).max(initial=0.0) > 1e-14]
    return kept


def _choi(liouville: np.ndarray, dim: int) -> np.ndarray:
    """Choi matrix ``Σ_ij |i⟩⟨j| ⊗ Φ(|i⟩⟨j|)`` from the Liouville matrix
    (column-stacking convention).

    It is an index permutation: ``Choi[(i, p), (j, q)] = Φ(|i⟩⟨j|)[p, q]
    = L[(q, p), (j, i)]``, with the Liouville row ``p + d·q`` and column
    ``i + d·j`` split C-order into ``(q, p)`` and ``(j, i)``.
    """
    return (
        np.asarray(liouville, dtype=complex)
        .reshape(dim, dim, dim, dim)
        .transpose(3, 1, 2, 0)
        .reshape(dim * dim, dim * dim)
    )
