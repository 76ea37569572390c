"""repro — Algebraic reasoning of quantum programs via non-idempotent Kleene algebra.

A full reproduction of Peng, Ying & Wu, *Algebraic Reasoning of Quantum
Programs via Non-idempotent Kleene Algebra* (PLDI 2022):

* :mod:`repro.core` — NKA expressions, axioms (Fig. 3), derived theorems
  (Fig. 2), an equational proof engine, and a sound-and-complete decision
  procedure for ``⊢NKA e = f`` (Theorem A.6 / Remark 2.1);
* :mod:`repro.engine` — session-scoped decision engines
  (:class:`~repro.engine.NKAEngine`): isolated caches, batch query
  planning, a shared verdict store (also the warm start), metrics;
* :mod:`repro.series` — formal & rational power series over ``N̄``;
* :mod:`repro.linalg` — Tzeng's exact integer row space;
* :mod:`repro.automata` — the weighted-automata substrate of the decision
  procedure (letter matrices as sparse dict rows);
* :mod:`repro.quantum` — Hilbert spaces, superoperators, measurements;
* :mod:`repro.pathmodel` — the quantum path model ``PO∞(H)`` / ``P(H)``
  (Section 3, Theorem 3.6);
* :mod:`repro.programs` — quantum while-programs, semantics, the encoder
  ``Enc`` and interpretation ``Qint`` (Section 4, Theorems 4.2/4.5/1.1);
* :mod:`repro.nkat` — effects, partitions, quantum Hoare logic (Section 7,
  Theorems 7.6/7.8);
* :mod:`repro.applications` — compiler-rule validation (Section 5), the
  normal-form theorem (Section 6), QSP optimisation (Appendix B).

Quickstart::

    from repro import parse, nka_equal
    nka_equal(parse("(a b)* a"), parse("a (b a)*"))   # True — sliding
    nka_equal(parse("a + a"), parse("a"))             # False — no idempotency

Serving / batch workloads::

    from repro import NKAEngine
    engine = NKAEngine("session", store="nka-store")
    engine.equal_many(pairs)                  # planned, deduped, published
    # a fresh process mounting "nka-store" answers `pairs` with zero
    # compilations and zero decisions
"""

from repro.core import (
    CheckedProof,
    Equation,
    ExtNat,
    HypothesisSet,
    INF,
    Law,
    ONE,
    ParseError,
    Proof,
    ZERO,
    ac_equivalent,
    coefficient,
    law,
    nka_equal,
    nka_equal_detailed,
    nka_leq_refute,
    parse,
    sym,
    symbols,
)
from repro.engine import NKAEngine, default_engine

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "parse",
    "ParseError",
    "sym",
    "symbols",
    "ZERO",
    "ONE",
    "ExtNat",
    "INF",
    "nka_equal",
    "nka_equal_detailed",
    "nka_leq_refute",
    "coefficient",
    "ac_equivalent",
    "NKAEngine",
    "default_engine",
    "Proof",
    "CheckedProof",
    "Law",
    "Equation",
    "law",
    "HypothesisSet",
]
