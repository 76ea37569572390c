"""Tests for the NKA decision procedure (Theorem A.6 / Remark 2.1)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.decision import (
    coefficient,
    nka_equal,
    nka_equal_detailed,
    nka_leq_refute,
)
from repro.core.expr import Expr, ONE, Product, Star, Sum, Symbol, ZERO
from repro.core.parser import parse
from repro.core.semiring import ExtNat, INF
from repro.series.power_series import series_of_expr


EQUAL_PAIRS = [
    # Semiring laws.
    ("a + b", "b + a"),
    ("a + (b + c)", "(a + b) + c"),
    ("a (b c)", "(a b) c"),
    ("a (b + c)", "a b + a c"),
    ("(a + b) c", "a c + b c"),
    ("1 a", "a"),
    ("a 0", "0"),
    ("a + 0", "a"),
    # Fig. 2a derived laws.
    ("1 + a a*", "a*"),
    ("1 + a* a", "a*"),
    ("1 + a (b a)* b", "(a b)*"),
    ("(a b)* a", "a (b a)*"),
    ("(a + b)*", "(a* b)* a*"),
    ("(a + b)*", "a* (b a*)*"),
    # Fig. 2b.
    ("(a a)* (1 + a)", "a*"),
    ("0*", "1"),
    # Infinity bookkeeping.
    ("1* 1*", "1*"),
    ("1* + 1*", "1*"),
    ("1* a 1*", "1* a 1*"),
]

UNEQUAL_PAIRS = [
    ("a + a", "a"),          # idempotency fails in NKA!
    ("a", "b"),
    ("a b", "b a"),
    ("a*", "a"),
    ("(a*)*", "a*"),          # KA theorem, NOT an NKA theorem
    ("(a + b)*", "(a b)*"),
    ("1*", "1"),
    ("a + b", "a"),
    ("a* a*", "a*"),          # convolution doubles multiplicities
    ("1 + a", "a"),
]


class TestKnownEqualities:
    @pytest.mark.parametrize("left,right", EQUAL_PAIRS)
    def test_equal(self, left, right):
        assert nka_equal(parse(left), parse(right))

    @pytest.mark.parametrize("left,right", UNEQUAL_PAIRS)
    def test_unequal(self, left, right):
        result = nka_equal_detailed(parse(left), parse(right))
        assert not result.equal
        assert result.counterexample is not None


class TestCounterexamples:
    def test_counterexample_is_distinguishing(self):
        result = nka_equal_detailed(parse("a + a"), parse("a"))
        word = result.counterexample
        assert coefficient(parse("a + a"), word) != coefficient(parse("a"), word)

    def test_infinity_support_counterexample(self):
        result = nka_equal_detailed(parse("1*"), parse("1"))
        word = result.counterexample
        left = coefficient(parse("1*"), word)
        right = coefficient(parse("1"), word)
        assert left.is_infinite != right.is_infinite

    def test_star_star_separated(self):
        # (a*)* has ∞ coefficients everywhere a* is positive.
        result = nka_equal_detailed(parse("(a*)*"), parse("a*"))
        assert not result.equal


class TestCoefficients:
    def test_simple_word(self):
        assert coefficient(parse("a b"), ["a", "b"]) == ExtNat(1)
        assert coefficient(parse("a b"), ["b", "a"]) == ExtNat(0)

    def test_multiplicity(self):
        assert coefficient(parse("a + a"), ["a"]) == ExtNat(2)
        assert coefficient(parse("(a + a)*"), ["a", "a"]) == ExtNat(4)

    def test_star_counts_decompositions(self):
        # (a + a a)* on 'aaa': 1+1+1 (a·a·a, a·aa, aa·a) = 3.
        assert coefficient(parse("(a + a a)*"), ["a"] * 3) == ExtNat(3)

    def test_infinite_epsilon(self):
        assert coefficient(parse("1*"), []) == INF

    def test_infinite_propagates(self):
        assert coefficient(parse("1* a"), ["a"]) == INF
        assert coefficient(parse("a 1*"), ["a"]) == INF

    def test_star_with_unit_body(self):
        # (1 + a)*: every word a^n has infinitely many decompositions.
        assert coefficient(parse("(1 + a)*"), ["a"]) == INF


class TestLeqRefutation:
    def test_refutes(self):
        assert nka_leq_refute(parse("a + a"), parse("a")) == ("a",)

    def test_no_refutation_when_leq(self):
        assert nka_leq_refute(parse("a"), parse("a + b")) is None
        assert nka_leq_refute(parse("1 + a a*"), parse("a*")) is None

    def test_epsilon_refutation(self):
        assert nka_leq_refute(parse("1 + 1"), parse("1")) == ()


# -- property-based cross-validation against the direct series evaluator --------

_LETTERS = ["a", "b"]
_CORE = "(a + b)* a (a + b) (a + b) (a + b)"


def _expr_strategy(depth: int = 3) -> st.SearchStrategy[Expr]:
    base = st.one_of(
        st.just(ZERO),
        st.just(ONE),
        st.sampled_from([Symbol(l) for l in _LETTERS]),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: Sum(*t)),
            st.tuples(children, children).map(lambda t: Product(*t)),
            children.map(Star),
        )

    return st.recursive(base, extend, max_leaves=8)


class TestAgainstDirectSeries:
    @given(_expr_strategy())
    @settings(max_examples=60, deadline=None)
    # The position construction's c(E)* crossing rules: ε-coefficients
    # under stars, products and sums, nested and repeated.
    @example(parse("(1 + a)*"))
    @example(parse("(1*)*"))
    @example(parse("0*"))
    @example(parse("((a* b*)*)*"))
    @example(parse("(a* + 1)(b + 1)*"))
    @example(parse("(a + a)*"))
    def test_automaton_matches_direct_evaluation(self, expr):
        """The WFA pipeline and the Definition A.3/A.4 evaluator agree."""
        truncated = series_of_expr(expr, max_length=3, alphabet=_LETTERS)
        for word, value in truncated.coefficients:
            assert coefficient(expr, list(word)) == value

    # The ∞-heavy decide path: a support DFA with 2^(k+1) states, then the
    # finite parts restricted to its complement (the nkabench
    # determinization family at k = 3).
    @pytest.mark.parametrize(
        "left,right,witness",
        [
            (f"1* ({_CORE})", _CORE, ("a", "a", "a", "a")),
            (f"1* ({_CORE})", f"1* 1* ({_CORE})", None),
        ],
    )
    def test_determinization_family_against_series(self, left, right, witness):
        left, right = parse(left), parse(right)
        result = nka_equal_detailed(left, right)
        assert result.equal == (witness is None)
        assert result.counterexample == witness
        if witness is None:
            l = series_of_expr(left, 5, _LETTERS).as_dict()
            r = series_of_expr(right, 5, _LETTERS).as_dict()
            assert l == r
        else:
            l = series_of_expr(left, len(witness), _LETTERS).coefficient(witness)
            r = series_of_expr(right, len(witness), _LETTERS).coefficient(witness)
            assert l != r

    @given(_expr_strategy(), _expr_strategy())
    @settings(max_examples=40, deadline=None)
    def test_decision_refutations_have_witnesses(self, left, right):
        result = nka_equal_detailed(left, right)
        if not result.equal:
            word = list(result.counterexample)
            assert coefficient(left, word) != coefficient(right, word)
        else:
            # Spot-check agreement on short words.
            l = series_of_expr(left, 2, _LETTERS).as_dict()
            r = series_of_expr(right, 2, _LETTERS).as_dict()
            assert l == r

    @given(_expr_strategy())
    @settings(max_examples=30, deadline=None)
    def test_fixed_point_law_always_derivable(self, expr):
        assert nka_equal(Sum(ONE, Product(expr, Star(expr))), Star(expr))

    @given(_expr_strategy(), _expr_strategy())
    @settings(max_examples=30, deadline=None)
    def test_sliding_always_derivable(self, p, q):
        left = Product(Star(Product(p, q)), p)
        right = Product(p, Star(Product(q, p)))
        assert nka_equal(left, right)
