"""Tests for formal/rational power series over N̄ (Appendix A)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.expr import Expr, ONE, Product, Star, Sum, Symbol, ZERO
from repro.core.parser import parse
from repro.core.semiring import ExtNat, INF, ONE as N_ONE, ZERO as N_ZERO
from repro.series.power_series import TruncatedSeries, all_words, series_of_expr
from repro.series.rational import RationalSeries


class TestTruncatedSeries:
    def test_build_drops_zeros(self):
        series = TruncatedSeries.build(
            {"a"}, 2, {("a",): N_ZERO, (): N_ONE}
        )
        assert series.as_dict() == {(): N_ONE}

    def test_coefficient_beyond_truncation_raises(self):
        series = series_of_expr(parse("a"), max_length=1)
        with pytest.raises(ValueError):
            series.coefficient(["a", "a"])

    def test_series_of_expr_at_depth_100000(self):
        """The evaluator keeps its own stack: a 10⁵-deep sum evaluates."""
        a, b = Symbol("a"), Symbol("b")
        chain = a
        for index in range(99_999):
            chain = Sum(b if index % 2 else a, chain)
        assert series_of_expr(chain, 1).as_dict() == {
            ("a",): ExtNat(50_001),
            ("b",): ExtNat(49_999),
        }

    def test_addition_adds_coefficients(self):
        left = series_of_expr(parse("a"), 2)
        total = left + left
        assert total.coefficient(["a"]) == ExtNat(2)

    def test_multiplication_convolves(self):
        series = series_of_expr(parse("(a + b)"), 2) * series_of_expr(parse("(a + b)"), 2)
        assert series.coefficient(["a", "b"]) == N_ONE
        assert series.coefficient(["a"]) == N_ZERO

    def test_star_epsilon_normalisation(self):
        # f = 1 + a: f[ε] = 1, so f*[w] = ∞ wherever reachable.
        series = series_of_expr(parse("(1 + a)*"), 2)
        assert series.coefficient([]) == INF
        assert series.coefficient(["a"]) == INF

    def test_star_proper(self):
        series = series_of_expr(parse("a*"), 3)
        for n in range(4):
            assert series.coefficient(["a"] * n) == N_ONE

    def test_leq_pointwise(self):
        small = series_of_expr(parse("a"), 2)
        large = series_of_expr(parse("a + a + b"), 2)
        assert small.leq(large)
        assert not large.leq(small)

    def test_str_renders(self):
        assert "ε" in str(series_of_expr(parse("1 + a"), 1))
        assert str(series_of_expr(parse("0"), 1)) == "0"

    def test_truncation_mismatch_rejected(self):
        with pytest.raises(ValueError):
            series_of_expr(parse("a"), 1) + series_of_expr(parse("a"), 2)

    def test_all_words_count(self):
        assert len(all_words(["a", "b"], 2)) == 1 + 2 + 4


class TestRationalSeries:
    def test_equality_via_decision(self):
        assert RationalSeries(parse("(a b)* a")) == RationalSeries(parse("a (b a)*"))
        assert RationalSeries(parse("a + a")) != RationalSeries(parse("a"))

    def test_counterexample(self):
        word = RationalSeries(parse("a + a")).counterexample(RationalSeries(parse("a")))
        assert word == ("a",)

    def test_coefficient_matches_truncation(self):
        series = RationalSeries(parse("(a + a b)*"))
        table = series.truncate(3)
        for word, value in table.coefficients:
            assert series.coefficient(list(word)) == value

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(RationalSeries(parse("a")))


_LETTERS = ["a", "b"]


def _expr_strategy() -> st.SearchStrategy[Expr]:
    base = st.one_of(
        st.just(ZERO), st.just(ONE),
        st.sampled_from([Symbol(l) for l in _LETTERS]),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: Sum(*t)),
            st.tuples(children, children).map(lambda t: Product(*t)),
            children.map(Star),
        )

    return st.recursive(base, extend, max_leaves=6)


class TestSeriesAlgebraProperties:
    @given(_expr_strategy(), _expr_strategy())
    @settings(max_examples=40, deadline=None)
    def test_sum_is_pointwise(self, e, f):
        left = series_of_expr(Sum(e, f), 2, _LETTERS)
        right = series_of_expr(e, 2, _LETTERS) + series_of_expr(f, 2, _LETTERS)
        assert left.as_dict() == right.as_dict()

    @given(_expr_strategy(), _expr_strategy())
    @settings(max_examples=40, deadline=None)
    def test_product_is_convolution(self, e, f):
        left = series_of_expr(Product(e, f), 2, _LETTERS)
        right = series_of_expr(e, 2, _LETTERS) * series_of_expr(f, 2, _LETTERS)
        assert left.as_dict() == right.as_dict()

    @given(_expr_strategy())
    @settings(max_examples=40, deadline=None)
    def test_star_matches_fixed_point(self, e):
        # f* = 1 + f·f* as truncated series.
        star = series_of_expr(Star(e), 2, _LETTERS)
        unfold = series_of_expr(Sum(ONE, Product(e, Star(e))), 2, _LETTERS)
        assert star.as_dict() == unfold.as_dict()
