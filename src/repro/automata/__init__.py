"""Weighted and Boolean finite automata (substrate for the NKA decision procedure)."""

from repro.automata.equivalence import EquivalenceResult, tzeng_equivalent, wfa_equivalent
from repro.automata.nfa import DFA, NFA, determinize, dfa_equivalent
from repro.automata.wfa import (
    WFA,
    drop_infinite_weights,
    expr_to_wfa,
    infinity_support_nfa,
    restrict_to_dfa,
)

__all__ = [
    "NFA",
    "DFA",
    "determinize",
    "dfa_equivalent",
    "WFA",
    "expr_to_wfa",
    "infinity_support_nfa",
    "drop_infinite_weights",
    "restrict_to_dfa",
    "EquivalenceResult",
    "tzeng_equivalent",
    "wfa_equivalent",
]
