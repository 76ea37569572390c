"""Denotational semantics of quantum while-programs (paper Section 4.2).

``⟦P⟧`` is a CP trace-non-increasing superoperator on the program's space:

* ``⟦skip⟧ = id``, ``⟦abort⟧ = O_H``;
* ``⟦q := |0⟩⟧(ρ) = Σ_i |0⟩_q⟨i| ρ |i⟩_q⟨0|``;
* ``⟦q := U[q]⟧(ρ) = U_q ρ U_q†``;
* ``⟦P1; P2⟧ = ⟦P1⟧ ∘ ⟦P2⟧`` (diagrammatic: run ``P1`` first);
* ``⟦case⟧ = Σ_i M_i ∘ ⟦P_i⟧``;
* ``⟦while⟧ = Σ_{n≥0} (M_1 ∘ ⟦P⟧)^n ∘ M_0``.

The while-sum always converges as a superoperator (monotone, trace-bounded);
:func:`loop_superoperator` evaluates it by Liouville doubling with the
convergence test on the *composed* partial sums ``M0_L · S_N`` — directions
where the open-loop sum diverges are exactly those the exit branch
annihilates, so the composed sums stabilise even for loops that terminate
with probability < 1.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.programs.syntax import (
    Abort,
    Assign,
    Case,
    Init,
    Program,
    Seq,
    Skip,
    StatePrep,
    Unitary,
    While,
)
from repro.quantum.hilbert import Space
from repro.quantum.superoperator import Superoperator, _choi
from repro.util.errors import SemanticsError

__all__ = [
    "denotation",
    "loop_superoperator",
    "init_superoperator",
    "assign_superoperator",
    "stateprep_superoperator",
]


def init_superoperator(space: Space, registers) -> Superoperator:
    """``⟦q := |0⟩⟧`` on the named registers of ``space``."""
    local_dim = space.subspace_dim(list(registers))
    kraus: List[np.ndarray] = []
    for i in range(local_dim):
        local = np.zeros((local_dim, local_dim), dtype=complex)
        local[0, i] = 1.0
        kraus.append(space.embed(local, list(registers)))
    return Superoperator(kraus, dim=space.dim)


def stateprep_superoperator(space: Space, register: str, state: np.ndarray) -> Superoperator:
    """``⟦q := |ψ⟩⟧(ρ) = Σ_k |ψ⟩_q⟨k| ρ |k⟩_q⟨ψ|``."""
    local_dim = space.register(register).dim
    state = np.asarray(state, dtype=complex).reshape(-1)
    if state.shape[0] != local_dim:
        raise SemanticsError(
            f"state of dimension {state.shape[0]} on register {register!r} "
            f"of dimension {local_dim}"
        )
    kraus: List[np.ndarray] = []
    for k in range(local_dim):
        local = np.zeros((local_dim, local_dim), dtype=complex)
        local[:, k] = state
        kraus.append(space.embed(local, [register]))
    return Superoperator(kraus, dim=space.dim)


def assign_superoperator(space: Space, register: str, value: int) -> Superoperator:
    """``⟦g := |value⟩⟧(ρ) = Σ_k |v⟩_g⟨k| ρ |k⟩_g⟨v|``."""
    local_dim = space.register(register).dim
    if not 0 <= value < local_dim:
        raise SemanticsError(
            f"assignment value {value} out of range for register {register!r}"
        )
    kraus: List[np.ndarray] = []
    for k in range(local_dim):
        local = np.zeros((local_dim, local_dim), dtype=complex)
        local[value, k] = 1.0
        kraus.append(space.embed(local, [register]))
    return Superoperator(kraus, dim=space.dim)


def loop_superoperator(
    loop_branch: Superoperator,
    body: Superoperator,
    exit_branch: Superoperator,
    max_doublings: int = 60,
    tol: float = 1e-11,
) -> Superoperator:
    """``Σ_{n≥0} (M_loop ∘ body)^n ∘ M_exit`` via Liouville doubling.

    Raises :class:`SemanticsError` if the composed sums fail to stabilise
    (cannot happen for genuine CP trace-non-increasing inputs; it guards
    against malformed arguments).
    """
    w = loop_branch.then(body).liouville
    exit_l = exit_branch.liouville
    size = w.shape[0]
    partial = np.eye(size, dtype=complex)
    power = np.array(w, dtype=complex)
    composed_prev = exit_l @ partial
    for _ in range(max_doublings):
        partial = partial + power @ partial
        power = power @ power
        composed = exit_l @ partial
        delta = np.abs(composed - composed_prev).max(initial=0.0)
        if delta <= tol * max(1.0, np.abs(composed_prev).max(initial=0.0)):
            return _superoperator_from_liouville(composed, exit_branch.dim)
        composed_prev = composed
        if np.abs(partial).max(initial=0.0) > 1e90:
            break
    raise SemanticsError(
        "while-loop sum failed to stabilise — inputs are not trace-non-increasing"
    )


def _superoperator_from_liouville(liouville: np.ndarray, dim: int) -> Superoperator:
    """Recover a Kraus form from a (CP) Liouville matrix via the Choi matrix."""
    choi = _choi(liouville, dim)
    choi = (choi + choi.conj().T) / 2
    eigenvalues, eigenvectors = np.linalg.eigh(choi)
    kraus: List[np.ndarray] = []
    for value, column in zip(eigenvalues, eigenvectors.T):
        if value <= 1e-12:
            continue
        # Choi column ordering: |i⟩⟨j| block structure kron(basis, image)
        # means the Kraus operator is the (dim × dim) unfolding below.
        kraus.append(np.sqrt(value) * column.reshape(dim, dim).T)
    return Superoperator(kraus, dim=dim)


def denotation(program: Program, space: Space) -> Superoperator:
    """The denotational semantics ``⟦program⟧`` on ``space``."""
    if isinstance(program, Skip):
        return Superoperator.identity(space.dim)
    if isinstance(program, Abort):
        return Superoperator.zero(space.dim)
    if isinstance(program, Init):
        return init_superoperator(space, program.registers)
    if isinstance(program, Assign):
        return assign_superoperator(space, program.register, program.value)
    if isinstance(program, StatePrep):
        return stateprep_superoperator(space, program.register, program.state)
    if isinstance(program, Unitary):
        embedded = space.embed(program.matrix, list(program.registers))
        return Superoperator.unitary(embedded)
    if isinstance(program, Seq):
        return denotation(program.first, space).then(denotation(program.second, space))
    if isinstance(program, Case):
        measurement = program.measurement.embedded(space, list(program.registers))
        total = Superoperator.zero(space.dim)
        for outcome, branch_program in program.branches.items():
            branch = measurement.branch(outcome).then(denotation(branch_program, space))
            total = total + branch
        return total
    if isinstance(program, While):
        measurement = program.measurement.embedded(space, list(program.registers))
        return loop_superoperator(
            measurement.branch(program.loop_outcome),
            denotation(program.body, space),
            measurement.branch(program.exit_outcome),
        )
    raise TypeError(f"unknown program node {program!r}")  # pragma: no cover
