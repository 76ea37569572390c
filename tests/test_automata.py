"""Tests for the automata substrate (NFA/DFA, WFA, exact equivalence)."""

from itertools import product

import pytest

from gen import random_exprs
from repro.automata.equivalence import tzeng_equivalent, wfa_equivalent
from repro.automata.nfa import DFA, NFA, determinize, dfa_equivalent
from repro.automata.wfa import (
    WFA,
    drop_infinite_weights,
    expr_to_wfa,
    infinity_support_nfa,
    restrict_to_dfa,
)
from repro.core.expr import Product, Sum, Symbol, alphabet
from repro.core.parser import parse
from repro.core.semiring import ExtNat, INF, ONE, ZERO


def _nfa_for_a_star_b() -> NFA:
    nfa = NFA(num_states=2, alphabet=frozenset({"a", "b"}))
    nfa.initial.add(0)
    nfa.accepting.add(1)
    nfa.add_transition(0, "a", 0)
    nfa.add_transition(0, "b", 1)
    return nfa


class TestNFADFA:
    def test_determinize_preserves_language(self):
        nfa = _nfa_for_a_star_b()
        dfa = determinize(nfa)
        for word in [["b"], ["a", "b"], ["a", "a", "b"]]:
            assert dfa.accepts(word) and nfa.accepts(word)
        for word in [[], ["a"], ["b", "b"], ["b", "a"]]:
            assert not dfa.accepts(word) and not nfa.accepts(word)

    def test_complement(self):
        dfa = determinize(_nfa_for_a_star_b())
        comp = dfa.complement()
        assert comp.accepts([]) and not comp.accepts(["b"])

    def test_dfa_equivalence_positive(self):
        left = determinize(_nfa_for_a_star_b())
        right = determinize(_nfa_for_a_star_b())
        equal, witness = dfa_equivalent(left, right)
        assert equal and witness is None

    def test_dfa_equivalence_negative_with_witness(self):
        left = determinize(_nfa_for_a_star_b())
        right = left.complement()
        equal, witness = dfa_equivalent(left, right)
        assert not equal
        assert left.accepts(witness) != right.accepts(witness)

    def test_emptiness(self):
        dfa = determinize(_nfa_for_a_star_b())
        assert not dfa.is_empty()
        everything = DFA(
            num_states=1,
            alphabet=frozenset("ab"),
            transitions={(0, "a"): 0, (0, "b"): 0},
            initial=0,
            accepting={0},
        )
        assert everything.complement().is_empty()

    def test_add_transition_invalidates_letter_matrix(self):
        nfa = _nfa_for_a_star_b()
        assert nfa.successors({0}, "a") == {0}  # builds the cached rows
        assert nfa.successors({0}, "b") == {1}
        nfa.add_transition(0, "a", 1)
        assert nfa.successors({0}, "a") == {0, 1}
        assert nfa.letter_rows("a") == {0: {0, 1}}
        assert nfa.successors({0}, "b") == {1}  # other letters untouched
        assert nfa.accepts(["a"])


class TestExprToWFA:
    def test_weights_match_semantics(self):
        wfa = expr_to_wfa(parse("(a + a b)*"))
        assert wfa.weight(()) == ONE
        assert wfa.weight(("a",)) == ONE
        assert wfa.weight(("a", "b")) == ONE
        assert wfa.weight(("a", "a")) == ONE
        assert wfa.weight(("b",)) == ZERO

    def test_epsilon_cycle_infinite(self):
        wfa = expr_to_wfa(parse("1*"))
        assert wfa.weight(()) == INF

    def test_star_of_unit_sum(self):
        wfa = expr_to_wfa(parse("(1 + a)*"))
        assert wfa.weight(()) == INF
        assert wfa.weight(("a",)) == INF

    def test_trim_reduces_zero_expr(self):
        wfa = expr_to_wfa(parse("0 a b c"))
        assert wfa.num_states == 0 or all(w.is_zero for w in wfa.initial)

    def test_multiplicity_counting(self):
        wfa = expr_to_wfa(parse("(a + a)*"))
        assert wfa.weight(("a",)) == ExtNat(2)
        assert wfa.weight(("a", "a")) == ExtNat(4)


class TestInfinitySupport:
    def test_support_of_one_star(self):
        nfa = infinity_support_nfa(expr_to_wfa(parse("1* a")))
        dfa = determinize(nfa)
        assert dfa.accepts(["a"])
        assert not dfa.accepts([])

    def test_finite_series_empty_support(self):
        nfa = infinity_support_nfa(expr_to_wfa(parse("(a b)* c")))
        assert determinize(nfa).is_empty()

    def test_drop_infinite_weights(self):
        wfa = expr_to_wfa(parse("a + 1* b"))
        cleaned = drop_infinite_weights(wfa)
        assert cleaned.weight(("a",)) == ONE
        assert cleaned.weight(("b",)).is_finite

    def test_restrict_to_dfa(self):
        wfa = expr_to_wfa(parse("a* b"))
        dfa = determinize(_nfa_for_a_star_b())  # same language as support
        restricted = restrict_to_dfa(wfa, dfa)
        assert restricted.weight(("b",)) == ONE
        assert restricted.weight(("a",)) == ZERO


def _accepts(dfa: DFA, word) -> bool:
    """``dfa.accepts`` with letters outside its alphabet rejected."""
    return set(word) <= dfa.alphabet and dfa.accepts(word)


class TestRestrictToDFA:
    """The on-the-fly Hadamard product against word-by-word evaluation."""

    @pytest.mark.parametrize("seed", range(6))
    def test_product_matches_pointwise_restriction(self, seed):
        # ``y`` occurs only in A (missing from D), ``z`` only in D.
        exprs = random_exprs(seed, 12, star_bias=0.35)
        for e, f in zip(exprs, exprs[1:] + exprs[:1]):
            for g in (e, f):
                automaton = expr_to_wfa(Sum(e, Product(Symbol("y"), e)))
                dfa = (
                    expr_to_wfa(g)
                    .support_dfa()
                    .extended_to(alphabet(e) | alphabet(g) | {"z"})
                    .complement()
                )
                assert "y" not in dfa.alphabet and "z" not in automaton.alphabet
                finite = drop_infinite_weights(automaton)
                restricted = restrict_to_dfa(finite, dfa)
                letters = sorted(automaton.alphabet | dfa.alphabet)
                for length in range(5):
                    for word in product(letters, repeat=length):
                        expected = finite.weight(word) if _accepts(dfa, word) else ZERO
                        assert restricted.weight(word) == expected, (e, g, word)

    def test_finite_part_of_pure_infinity_series_is_empty(self):
        # Every word is either ∞ or 0, so nothing survives outside the
        # support; the support DFA has 2^11 states.
        wfa = expr_to_wfa(parse("1* ((a + c)* a (a + c)" + " (a + c)" * 10 + ")"))
        finite_language = wfa.support_dfa().complement()
        restricted = restrict_to_dfa(drop_infinite_weights(wfa), finite_language)
        assert restricted.num_states == 0


class TestEquivalence:
    def test_tzeng_equal(self):
        left = expr_to_wfa(parse("(a b)* a"))
        right = expr_to_wfa(parse("a (b a)*"))
        assert tzeng_equivalent(left, right).equal

    def test_tzeng_unequal_with_word(self):
        left = expr_to_wfa(parse("a + a"))
        right = expr_to_wfa(parse("a"))
        result = tzeng_equivalent(left, right)
        assert not result.equal and result.counterexample == ("a",)

    def test_full_equality_mixed_infinities(self):
        left = expr_to_wfa(parse("1* (a + b)"), extra_alphabet=frozenset("ab"))
        right = expr_to_wfa(parse("1* a + 1* b"), extra_alphabet=frozenset("ab"))
        assert wfa_equivalent(left, right).equal

    def test_full_inequality_on_support(self):
        left = expr_to_wfa(parse("1* a"), extra_alphabet=frozenset("ab"))
        right = expr_to_wfa(parse("1* b"), extra_alphabet=frozenset("ab"))
        result = wfa_equivalent(left, right)
        assert not result.equal

    def test_long_chain_basis_stays_linear(self, monkeypatch):
        """An n-letter product against its last-letter variant stores O(n)
        basis entries: each Tzeng vector has two non-zeros, and reducing
        it touches only the rows its support reaches.  A dense basis holds
        rank × dimension ≈ 2n² entries here."""
        import repro.automata.equivalence as equivalence
        from repro.engine import NKAEngine

        n = 2000
        letters = ["ab"[i % 2] for i in range(n)]
        left = parse(" ".join(letters))
        right = parse(" ".join(letters[:-1] + ["c"]))
        spaces = []

        class RecordingRowSpace(equivalence.RowSpace):
            __slots__ = ()

            def __init__(self, dimension):
                super().__init__(dimension)
                spaces.append(self)

        monkeypatch.setattr(equivalence, "RowSpace", RecordingRowSpace)
        for decide in (
            lambda engine: engine.equal_detailed(left, right),
            lambda engine: engine.equal_many_detailed([(left, right)])[0],
        ):
            spaces.clear()
            result = decide(NKAEngine(store=False))
            assert not result.equal
            assert result.counterexample == tuple(letters)
            assert len(spaces) == 1
            stored = sum(len(row) for row in spaces[0]._rows.values())
            assert stored <= 4 * n, stored
