"""Validation of quantum compiler optimizing rules (paper Section 5).

Each rule packages the three-step methodology of the paper:

1. **program encoding** — concrete :class:`~repro.programs.syntax.Program`
   pairs whose encodings match the paper's expressions;
2. **condition formulation** — the ground hypotheses
   (:class:`~repro.core.hypotheses.HypothesisSet`), which the verifier
   validates *semantically* against the encoder setting's interpretation;
3. **NKA derivation** — a machine-checked replay of the paper's derivation
   ((5.1.1) for loop unrolling, (5.2.1) for loop boundary).

:func:`verify_rule` runs the full Theorem 1.1 pipeline and additionally
cross-checks the conclusion by direct superoperator comparison.

Loop-boundary note: besides the paper's stated hypotheses
(``u·m_i = m_i·u`` and ``u·u⁻¹ = u⁻¹·u = 1``) the replay uses their
immediate consequences ``u⁻¹·m_i = m_i·u⁻¹`` (derivable:
``u⁻¹ m = u⁻¹ m u u⁻¹ = u⁻¹ u m u⁻¹ = m u⁻¹``); they are added as
hypotheses and semantically validated like the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.axioms import DISTRIB_LEFT, DISTRIB_RIGHT
from repro.core.expr import Expr, ONE, Symbol, symbols
from repro.core.hypotheses import HypothesisSet, commuting, inverse_pair, projective_measurement
from repro.core.parser import parse
from repro.core.proof import CheckedProof, Proof
from repro.core.theorems import (
    DENESTING_RIGHT,
    FIXED_POINT_LEFT,
    FIXED_POINT_RIGHT,
    PRODUCT_STAR,
    UNROLLING,
)
from repro.programs.encoder import EncoderSetting, encode
from repro.programs.equivalence import EquivalenceReport, verify_with_proof
from repro.programs.syntax import (
    Program,
    Seq,
    Skip,
    Unitary,
    While,
    if_then,
    seq,
)
from repro.quantum.gates import H
from repro.quantum.hilbert import Space, qubit
from repro.quantum.measurement import Measurement, binary_projective

__all__ = [
    "OptimizationRule",
    "loop_unrolling_rule",
    "loop_boundary_rule",
    "unrolling_programs",
    "boundary_programs",
    "prove_loop_unrolling",
    "prove_loop_boundary",
    "verify_rule",
    "verify_rules",
    "default_unrolling_instance",
    "default_boundary_instance",
]


@dataclass
class OptimizationRule:
    """A compiler rule: programs, hypotheses and a checked derivation."""

    name: str
    before: Program
    after: Program
    hypotheses: HypothesisSet
    proof: CheckedProof
    space: Space


# -- loop unrolling (Section 5.1) --------------------------------------------------


def unrolling_programs(
    measurement: Measurement,
    registers: Tuple[str, ...],
    body: Program,
    label: str = "m",
) -> Tuple[Program, Program]:
    """The Fig. 4 pair ``Unrolling1`` / ``Unrolling2``.

    ``Unrolling1 ≡ while M = 0 do P done`` and ``Unrolling2`` runs the body
    twice per iteration (guarded), which formula (5.1.1) proves equivalent
    for *projective* ``M``.
    """
    unrolling1 = While(
        measurement, registers, body, loop_outcome=0, exit_outcome=1, label=label
    )
    inner = if_then(
        measurement, registers, body, then_outcome=0, else_outcome=1, label=label
    )
    unrolling2 = While(
        measurement,
        registers,
        Seq(body, inner),
        loop_outcome=0,
        exit_outcome=1,
        label=label,
    )
    return unrolling1, unrolling2


def prove_loop_unrolling(
    m0: Symbol, m1: Symbol, p: Expr, hypotheses: HypothesisSet
) -> CheckedProof:
    """Machine-checked replay of derivation (5.1.1).

    Starts from ``Enc(Unrolling2) = (m0 p (m0 p + m1·1))* m1`` and ends at
    ``Enc(Unrolling1) = (m0 p)* m1``; micro-steps decompose the paper's
    combined rewrites (each paper line cites the same laws used here).
    """
    m0p: Expr = m0 * p
    proof = Proof(
        (m0p * (m0p + m1 * ONE)).star() * m1,
        hypotheses=list(hypotheses),
        name="loop-unrolling (5.1.1)",
    )
    proof.by_structure((m0p * (m0p + m1)).star() * m1)
    proof.step((m0p * m0p + m0p * m1).star() * m1, by=DISTRIB_LEFT,
               note="distributive-law")
    proof.step((m0p * m0p).star() * (m0p * m1 * (m0p * m0p).star()).star() * m1,
               by=DENESTING_RIGHT, note="denesting")
    proof.step(
        (m0p * m0p).star()
        * (m0p * m1 * (ONE + m0p * m0p * (m0p * m0p).star())).star() * m1,
        by=FIXED_POINT_RIGHT, direction="rl", note="fixed-point",
    )
    proof.step(
        (m0p * m0p).star()
        * (m0p * m1 + m0p * m1 * m0p * m0p * (m0p * m0p).star()).star() * m1,
        by=DISTRIB_LEFT, note="distributive-law",
    )
    proof.step((m0p * m0p).star() * (m0p * m1).star() * m1,
               by=hypotheses.named(f"{m1}{m0}=0"), note="m1 m0 = 0")
    proof.step(
        (m0p * m0p).star() * (ONE + m0p * m1 * (m0p * m1).star()) * m1,
        by=FIXED_POINT_RIGHT, direction="rl", note="fixed-point",
    )
    proof.step(
        (m0p * m0p).star()
        * (ONE + m0p * m1 * (ONE + m0p * m1 * (m0p * m1).star())) * m1,
        by=FIXED_POINT_RIGHT, direction="rl", note="fixed-point",
    )
    proof.step(
        (m0p * m0p).star()
        * (ONE + m0p * m1 + m0p * m1 * m0p * m1 * (m0p * m1).star()) * m1,
        by=DISTRIB_LEFT, note="distributive-law",
    )
    proof.step((m0p * m0p).star() * (ONE + m0p * m1) * m1,
               by=hypotheses.named(f"{m1}{m0}=0"), note="m1 m0 = 0")
    proof.step((m0p * m0p).star() * (m1 + m0p * m1 * m1),
               by=DISTRIB_RIGHT, note="distributive-law")
    proof.step((m0p * m0p).star() * (m1 + m0p * m1),
               by=hypotheses.named(f"{m1}{m1}={m1}"), note="m1 m1 = m1")
    proof.step((m0p * m0p).star() * (ONE + m0p) * m1,
               by=DISTRIB_RIGHT, direction="rl",
               subst={"p": ONE, "q": m0p, "r": m1}, note="distributive-law")
    proof.step(m0p.star() * m1, by=UNROLLING, note="unrolling")
    return proof.qed(m0p.star() * m1)


def default_unrolling_instance() -> OptimizationRule:
    """The rule instantiated on a 1-qubit projective measurement, body ``H``."""
    space = Space([qubit("q")])
    projector = np.array([[0, 0], [0, 1]], dtype=complex)
    measurement = binary_projective(projector)  # outcome 1 = |1⟩⟨1|
    body = Unitary(["q"], H, label="p")
    return loop_unrolling_rule(space, measurement, ("q",), body)


def loop_unrolling_rule(
    space: Space,
    measurement: Measurement,
    registers: Tuple[str, ...],
    body: Program,
) -> OptimizationRule:
    """Assemble the loop-unrolling rule for a concrete instance."""
    before, after = unrolling_programs(measurement, registers, body)
    setting = EncoderSetting(space)
    before_expr = encode(before, setting)  # mints m0, m1 and the body symbol
    m0 = setting.branch_symbol(measurement, tuple(registers), 0, "m")
    m1 = setting.branch_symbol(measurement, tuple(registers), 1, "m")
    body_expr = encode(body, setting)
    hypotheses = projective_measurement([m0, m1])
    proof = prove_loop_unrolling(m0, m1, body_expr, hypotheses)
    return OptimizationRule(
        name="loop-unrolling",
        before=after,   # Unrolling2 (the proof's start)
        after=before,   # Unrolling1 (the proof's conclusion)
        hypotheses=hypotheses,
        proof=proof,
        space=space,
    )


# -- loop boundary (Section 5.2) -----------------------------------------------------


def boundary_programs(
    measurement: Measurement,
    meas_registers: Tuple[str, ...],
    unitary: np.ndarray,
    unitary_registers: Tuple[str, ...],
    body: Program,
    label: str = "m",
) -> Tuple[Program, Program]:
    """The Fig. 4 pair ``Boundary1`` / ``Boundary2``.

    ``Boundary1`` conjugates the body by ``U``/``U⁻¹`` inside the loop;
    ``Boundary2`` hoists the conjugation outside — valid because ``U`` acts
    on registers disjoint from the measured ones.
    """
    u = Unitary(list(unitary_registers), unitary, label="u")
    u_inv = Unitary(list(unitary_registers), np.conj(unitary.T), label="u_inv")
    boundary1 = While(
        measurement,
        meas_registers,
        seq(u, body, u_inv),
        loop_outcome=0,
        exit_outcome=1,
        label=label,
    )
    boundary2 = seq(
        u,
        While(measurement, meas_registers, body, loop_outcome=0, exit_outcome=1, label=label),
        u_inv,
    )
    return boundary1, boundary2


def prove_loop_boundary(
    m0: Symbol,
    m1: Symbol,
    u: Symbol,
    u_inv: Symbol,
    p: Expr,
    hypotheses: HypothesisSet,
) -> CheckedProof:
    """Machine-checked replay of derivation (5.2.1):

    ``(m0 u p u⁻¹)* m1 = u (m0 p)* m1 u⁻¹``.
    """
    proof = Proof(
        (m0 * u * p * u_inv).star() * m1,
        hypotheses=list(hypotheses),
        name="loop-boundary (5.2.1)",
    )
    proof.step((u * m0 * p * u_inv).star() * m1,
               by=hypotheses.named(f"{u}{m0}={m0}{u}"), direction="rl",
               note="u m0 = m0 u")
    proof.step((ONE + u * ((m0 * p * u_inv) * u).star() * (m0 * p * u_inv)) * m1,
               by=PRODUCT_STAR, direction="rl",
               subst={"p": u, "q": m0 * p * u_inv}, note="product-star")
    proof.step((ONE + u * (m0 * p).star() * (m0 * p * u_inv)) * m1,
               by=hypotheses.named(f"{u_inv}{u}=1"), note="u⁻¹ u = 1")
    proof.step(m1 + u * (m0 * p).star() * m0 * p * u_inv * m1,
               by=DISTRIB_RIGHT,
               subst={"p": ONE, "q": u * (m0 * p).star() * (m0 * p * u_inv), "r": m1},
               note="distributive-law")
    proof.step(m1 + u * (m0 * p).star() * m0 * p * m1 * u_inv,
               by=hypotheses.named(f"{u_inv}{m1}={m1}{u_inv}"),
               note="u⁻¹ m1 = m1 u⁻¹ (consequence)")
    proof.step(m1 * u * u_inv + u * (m0 * p).star() * m0 * p * m1 * u_inv,
               by=hypotheses.named(f"{u}{u_inv}=1"), direction="rl",
               note="insert u u⁻¹ = 1")
    proof.step(u * m1 * u_inv + u * (m0 * p).star() * m0 * p * m1 * u_inv,
               by=hypotheses.named(f"{u}{m1}={m1}{u}"), direction="rl",
               note="m1 u = u m1")
    proof.step((u * m1 + u * (m0 * p).star() * m0 * p * m1) * u_inv,
               by=DISTRIB_RIGHT, direction="rl",
               subst={"p": u * m1, "q": u * (m0 * p).star() * m0 * p * m1, "r": u_inv},
               note="factor u⁻¹")
    proof.step(u * (m1 + (m0 * p).star() * m0 * p * m1) * u_inv,
               by=DISTRIB_LEFT, direction="rl",
               subst={"p": u, "q": m1, "r": (m0 * p).star() * m0 * p * m1},
               note="factor u")
    proof.step(u * ((ONE + (m0 * p).star() * m0 * p) * m1) * u_inv,
               by=DISTRIB_RIGHT, direction="rl",
               subst={"p": ONE, "q": (m0 * p).star() * (m0 * p), "r": m1},
               note="factor m1")
    proof.step(u * (m0 * p).star() * m1 * u_inv,
               by=FIXED_POINT_LEFT, note="fixed-point")
    return proof.qed(u * (m0 * p).star() * m1 * u_inv)


def default_boundary_instance() -> OptimizationRule:
    """Two qubits: measure ``w``, conjugate ``q`` by ``H``, body ``X`` on q, H on w."""
    from repro.quantum.gates import X

    space = Space([qubit("w"), qubit("q")])
    projector = np.array([[0, 0], [0, 1]], dtype=complex)
    measurement = binary_projective(projector)  # on w
    body = seq(Unitary(["q"], X, label="pq"), Unitary(["w"], H, label="pw"))
    return loop_boundary_rule(space, measurement, ("w",), H, ("q",), body)


def loop_boundary_rule(
    space: Space,
    measurement: Measurement,
    meas_registers: Tuple[str, ...],
    unitary: np.ndarray,
    unitary_registers: Tuple[str, ...],
    body: Program,
) -> OptimizationRule:
    """Assemble the loop-boundary rule for a concrete instance."""
    before, after = boundary_programs(
        measurement, meas_registers, unitary, unitary_registers, body
    )
    setting = EncoderSetting(space)
    encode(before, setting)
    m0 = setting.branch_symbol(measurement, tuple(meas_registers), 0, "m")
    m1 = setting.branch_symbol(measurement, tuple(meas_registers), 1, "m")
    u_stmt = Unitary(list(unitary_registers), unitary, label="u")
    u_inv_stmt = Unitary(list(unitary_registers), np.conj(unitary.T), label="u_inv")
    u = encode(u_stmt, setting)
    u_inv = encode(u_inv_stmt, setting)
    body_expr = encode(body, setting)
    hypotheses = HypothesisSet()
    hypotheses.extend(inverse_pair(u, u_inv))
    hypotheses.extend(commuting([u, u_inv], [m0, m1]))
    proof = prove_loop_boundary(m0, m1, u, u_inv, body_expr, hypotheses)
    return OptimizationRule(
        name="loop-boundary",
        before=before,
        after=after,
        hypotheses=hypotheses,
        proof=proof,
        space=space,
    )


def verify_rule(rule: OptimizationRule, check_semantics: bool = True) -> EquivalenceReport:
    """Run the Theorem 1.1 pipeline on an assembled rule."""
    setting = EncoderSetting(rule.space)
    return verify_with_proof(
        rule.proof, rule.before, rule.after, setting, check_semantics=check_semantics
    )


def verify_rules(
    rules: Tuple[OptimizationRule, ...],
    check_semantics: bool = True,
    engine=None,
    precompile_encodings: bool = False,
) -> Tuple[EquivalenceReport, ...]:
    """Verify a whole rule catalogue; optionally warm a decision session.

    Rule verification itself is proof replay + hypothesis validation
    (:func:`verify_rule`) — it asks the decision engine nothing.  What a
    serving integration *does* follow it with is decision queries over the
    same encodings (cross-checks, refutation probes, user traffic), so
    ``precompile_encodings=True`` compiles each rule's two encodings into
    ``engine``'s cache (the process default when omitted) while the
    catalogue is validated.  (Only the session keeps them: what crosses
    processes is the verdicts a store-backed engine publishes.)  Leave it
    off when no such follow-up traffic exists — the compilation is real
    up-front work.
    """
    if precompile_encodings:
        from repro.engine import default_engine

        session = engine if engine is not None else default_engine()
        for rule in rules:
            setting = EncoderSetting(rule.space)
            session.compile(encode(rule.before, setting))
            session.compile(encode(rule.after, setting))
    return tuple(
        verify_rule(rule, check_semantics=check_semantics) for rule in rules
    )
