"""Tests for the NKA expression AST (paper Def. 2.2)."""

import pytest

from repro.core.expr import (
    ONE,
    Product,
    Star,
    Sum,
    Symbol,
    ZERO,
    alphabet,
    expr_size,
    product_factors,
    product_of,
    star_height,
    substitute,
    subterms,
    sum_of,
    sum_terms,
    sym,
    symbols,
)


class TestConstruction:
    def test_symbols_helper(self):
        a, b, c = symbols("a b c")
        assert a == Symbol("a") and c.name == "c"

    def test_symbols_with_commas(self):
        assert symbols("a, b") == (Symbol("a"), Symbol("b"))

    def test_empty_symbol_rejected(self):
        with pytest.raises(ValueError):
            Symbol("")

    def test_operators_build_nodes(self):
        a, b = symbols("a b")
        assert isinstance(a + b, Sum)
        assert isinstance(a * b, Product)
        assert isinstance(a.star(), Star)

    def test_int_coercion(self):
        a = sym("a")
        assert a + 0 == Sum(a, ZERO)
        assert a * 1 == Product(a, ONE)

    def test_bad_coercion_rejected(self):
        with pytest.raises(TypeError):
            sym("a") + 2.5


class TestFlattening:
    def test_sum_terms(self):
        a, b, c = symbols("a b c")
        assert sum_terms((a + b) + c) == [a, b, c]
        assert sum_terms(a) == [a]

    def test_product_factors(self):
        a, b, c = symbols("a b c")
        assert product_factors(a * (b * c)) == [a, b, c]

    def test_sum_of_empty_is_zero(self):
        assert sum_of([]) == ZERO

    def test_product_of_empty_is_one(self):
        assert product_of([]) == ONE

    def test_round_trip(self):
        a, b, c = symbols("a b c")
        expr = sum_of([a, b * c, a.star()])
        assert sum_terms(expr) == [a, b * c, a.star()]


class TestMetrics:
    def test_alphabet(self):
        a, b = symbols("a b")
        assert alphabet((a * b + a).star()) == frozenset({"a", "b"})
        assert alphabet(ONE) == frozenset()

    def test_expr_size(self):
        a, b = symbols("a b")
        assert expr_size(a) == 1
        assert expr_size(a * b) == 3
        assert expr_size((a * b).star()) == 4

    def test_star_height(self):
        a = sym("a")
        assert star_height(a) == 0
        assert star_height(a.star()) == 1
        assert star_height((a.star() * a).star()) == 2

    def test_subterms(self):
        a, b = symbols("a b")
        expr = (a * b).star()
        collected = list(subterms(expr))
        assert expr in collected and a in collected and b in collected
        assert len(collected) == 4

    def test_subterms_pre_order(self):
        a, b, c = symbols("a b c")
        product = a * b
        expr = product.star() + (c + product)
        assert list(subterms(expr)) == [
            expr, product.star(), product, a, b, c + product, c, product, a, b
        ]

    def test_walkers_at_depth_100000(self):
        """The metric walkers keep their own stacks: a 10⁵-letter product
        and a 10⁵-deep star/sum nest raise no ``RecursionError``."""
        letters = [sym(f"x{i % 7}") for i in range(100_000)]
        product = product_of(letters)
        assert alphabet(product) == frozenset(f"x{i}" for i in range(7))
        assert expr_size(product) == 199_999
        assert star_height(product) == 0
        walked = list(subterms(product))
        assert len(walked) == 199_999
        assert walked[0] is product and walked[-1] is letters[-1]

        a, b = sym("a"), sym("b")
        nest = a
        for depth in range(100_000):
            nest = Star(nest) if depth % 2 else Sum(b, nest)
        assert alphabet(nest) == frozenset({"a", "b"})
        assert expr_size(nest) == 150_001  # 50,000 stars, sums and b's, plus a
        assert star_height(nest) == 50_000
        walked = list(subterms(nest))
        assert len(walked) == 150_001
        assert walked[:3] == [nest, nest.body, b] and walked[-1] is a


class TestSubstitution:
    def test_substitute_symbol(self):
        a, b, c = symbols("a b c")
        assert substitute(a * b, {"a": c}) == c * b

    def test_substitute_nested(self):
        a, b, c = symbols("a b c")
        expr = (a + b).star() * a
        result = substitute(expr, {"a": b * c})
        assert result == (b * c + b).star() * (b * c)

    def test_substitute_is_simultaneous(self):
        a, b = symbols("a b")
        result = substitute(a * b, {"a": b, "b": a})
        assert result == b * a


class TestRendering:
    def test_precedence(self):
        a, b, c = symbols("a b c")
        assert str(a * (b + c)) == "a (b + c)"
        assert str(a * b + c) == "a b + c"
        assert str((a * b).star()) == "(a b)*"
        assert str(a.star()) == "a*"
        assert str((a + b).star() * c) == "(a + b)* c"

    def test_zero_one(self):
        assert str(ZERO) == "0"
        assert str(ONE) == "1"

    def test_double_star(self):
        a = sym("a")
        assert str(a.star().star()) == "(a*)*"

    def test_matches_recursive_renderer_on_corpus(self):
        """The renderer keeps its own stack; its output is byte-identical
        to the recursive definition on every nkabench corpus expression
        (the corpus ships expressions to the program as this text)."""
        import os
        import sys

        from repro.core.parser import parse

        def chain(expr, kind):
            if isinstance(expr, kind):
                return chain(expr.left, kind) + chain(expr.right, kind)
            return [expr]

        def recursive(expr, parent_prec=0):
            if isinstance(expr, Star):
                text = f"{recursive(expr.body, 4)}*"
                return text if parent_prec <= 3 else f"({text})"
            if isinstance(expr, Sum):
                prec, text = 1, " + ".join(recursive(t, 1) for t in chain(expr, Sum))
            elif isinstance(expr, Product):
                prec, text = 2, " ".join(recursive(f, 3) for f in chain(expr, Product))
            else:
                return str(expr)
            return f"({text})" if prec < parent_prec else text

        root = os.path.join(os.path.dirname(__file__), "..", "nkabench")
        sys.path.insert(0, root)
        try:
            from corpus import build_corpus, tail_queries
        finally:
            sys.path.remove(root)
        exprs = [
            parse(text)
            for seed in range(1, 6)
            for query in build_corpus(seed, 400) + tail_queries(seed)
            for text in query.key
        ]
        assert len(exprs) == 2 * 5 * 412
        for expr in exprs:
            assert str(expr) == recursive(expr)
            assert repr(expr) == f"Expr[{recursive(expr)}]"

    def test_depth_100000(self):
        """Neither a 10⁵-letter product nor a 10⁵-deep star/sum nest
        raises ``RecursionError``."""
        a, b = sym("a"), sym("b")
        assert str(product_of([a] * 100_000)) == " ".join(["a"] * 100_000)
        nest = a
        for depth in range(100_000):
            nest = Star(nest) if depth % 2 else Sum(b, nest)
        text = str(nest)
        assert text.startswith("(b + (b + ") and text.endswith(")*)*")
        assert text.count("(") == text.count(")") == 50_000  # one pair per star
