"""The Theorem 1.1 pipeline: verify quantum program equivalence.

Two independent routes, which the library cross-checks against each other:

* **semantic** — compute ``⟦P⟧`` and ``⟦Q⟧`` (exponential in qubit count)
  and compare superoperators;
* **algebraic** — encode both programs, then either (a) decide
  ``⊢NKA Enc(P) = Enc(Q)`` outright when no hypotheses are needed, or
  (b) replay a supplied machine-checked :class:`~repro.core.proof.Proof`
  whose ground hypotheses are *semantically validated* against the
  interpretation (Corollary 4.3 then yields the conclusion; the Main
  Theorem 1.1 transfers it to ``⟦P⟧ = ⟦Q⟧``).

The algebraic route never builds matrices larger than the elementary
superoperators in the hypotheses check — this dimension-independence of the
derivation itself is the paper's scalability argument, quantified in
``benchmarks/bench_scalability.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.proof import CheckedProof, Equation
from repro.core.rewrite import ac_equivalent
from repro.engine import NKAEngine, default_engine
from repro.pathmodel.action import action_equal
from repro.pathmodel.lifting import lift
from repro.programs.encoder import EncoderSetting, encode
from repro.programs.interpretation import Interpretation, qint
from repro.programs.semantics import denotation
from repro.programs.syntax import Program
from repro.quantum.hilbert import Space
from repro.util.errors import ProofError

__all__ = [
    "EquivalenceReport",
    "verify_semantic_equivalence",
    "verify_algebraic_equivalence",
    "verify_algebraic_equivalence_many",
    "validate_hypotheses",
    "verify_with_proof",
]


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of a program-equivalence verification."""

    equal: bool
    method: str
    detail: str = ""

    def __bool__(self) -> bool:
        return self.equal


def verify_semantic_equivalence(
    left: Program, right: Program, space: Space, atol: float = 1e-8
) -> EquivalenceReport:
    """Compare ``⟦left⟧`` and ``⟦right⟧`` as superoperators on ``space``."""
    equal = denotation(left, space).equals(denotation(right, space), atol=atol)
    return EquivalenceReport(
        equal=equal,
        method="semantic",
        detail=f"superoperator comparison on dim={space.dim}",
    )


def verify_algebraic_equivalence(
    left: Program,
    right: Program,
    setting: EncoderSetting,
    engine: Optional[NKAEngine] = None,
) -> EquivalenceReport:
    """Decide ``⊢NKA Enc(left) = Enc(right)`` (no hypotheses).

    Sound and complete for derivability; sound for semantic equality by
    Theorem 1.1.  Note a ``False`` here does *not* refute semantic equality
    — the programs may only be equal under hypotheses about their
    elementary operations.  ``engine`` selects the decision session (the
    process default when omitted) so verification workloads can run in an
    isolated, independently-sized cache.
    """
    left_expr = encode(left, setting)
    right_expr = encode(right, setting)
    session = engine if engine is not None else default_engine()
    outcome = session.equal_detailed(left_expr, right_expr)
    return EquivalenceReport(
        equal=outcome.equal,
        method="algebraic",
        detail=outcome.reason,
    )


def verify_algebraic_equivalence_many(
    program_pairs: Sequence[Sequence[Program]],
    setting: EncoderSetting,
    engine: Optional[NKAEngine] = None,
) -> list:
    """Batched :func:`verify_algebraic_equivalence` over one encoder setting.

    Encodes every pair first (encodings share the setting's symbol table,
    so common sub-programs intern to the same nodes), then hands the whole
    batch to the engine's planner: duplicate and symmetric pairs collapse
    and each distinct encoding compiles once.
    """
    session = engine if engine is not None else default_engine()
    encoded = [
        (encode(left, setting), encode(right, setting))
        for left, right in program_pairs
    ]
    outcomes = session.equal_many_detailed(encoded)
    return [
        EquivalenceReport(equal=outcome.equal, method="algebraic", detail=outcome.reason)
        for outcome in outcomes
    ]


def validate_hypotheses(
    hypotheses: Sequence[Equation],
    interpretation: Interpretation,
    atol: float = 1e-7,
) -> Optional[Equation]:
    """Semantically check ground hypotheses; return the first failure.

    Each hypothesis ``lhs = rhs`` must hold as an equality of path actions
    under ``Qint`` — the premise of Corollary 4.3.
    """
    for hypothesis in hypotheses:
        left_action = qint(hypothesis.lhs, interpretation)
        right_action = qint(hypothesis.rhs, interpretation)
        if not action_equal(left_action, right_action, atol=atol):
            return hypothesis
    return None


def verify_with_proof(
    proof: CheckedProof,
    left: Program,
    right: Program,
    setting: EncoderSetting,
    check_semantics: bool = True,
    atol: float = 1e-7,
) -> EquivalenceReport:
    """The full Theorem 1.1 argument for a supplied checked derivation.

    Verifies that (1) the proof connects ``Enc(left)`` to ``Enc(right)``,
    (2) every hypothesis holds semantically under the setting's
    interpretation, and optionally (3) the conclusion agrees with direct
    semantic comparison (a redundancy check of the whole pipeline).
    """
    left_expr = encode(left, setting)
    right_expr = encode(right, setting)
    if not ac_equivalent(proof.conclusion.lhs, left_expr):
        raise ProofError(
            f"proof starts at {proof.conclusion.lhs}, but Enc(left) = {left_expr}"
        )
    if not ac_equivalent(proof.conclusion.rhs, right_expr):
        raise ProofError(
            f"proof ends at {proof.conclusion.rhs}, but Enc(right) = {right_expr}"
        )
    interpretation = Interpretation.from_setting(setting)
    failed = validate_hypotheses(proof.hypotheses, interpretation, atol=atol)
    if failed is not None:
        return EquivalenceReport(
            equal=False,
            method="algebraic+hypotheses",
            detail=f"hypothesis fails semantically: {failed}",
        )
    if check_semantics:
        semantic = verify_semantic_equivalence(left, right, setting.space)
        if not semantic.equal:
            return EquivalenceReport(
                equal=False,
                method="algebraic+hypotheses",
                detail="proof checked but semantic cross-check failed (pipeline bug)",
            )
    return EquivalenceReport(
        equal=True,
        method="algebraic+hypotheses",
        detail=f"derivation {proof.name!r} with {len(proof.hypotheses)} validated hypotheses",
    )
