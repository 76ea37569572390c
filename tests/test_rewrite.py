"""Tests for the AC rewrite engine (flattening, matching, occurrences)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.expr import ONE, Star, Sum, Symbol, ZERO, product_of, symbols
from repro.core.parser import parse
from repro.core.rewrite import (
    FOne,
    FProd,
    FStar,
    FSum,
    FSym,
    FZero,
    ac_equivalent,
    flatten,
    instantiate,
    make_sum,
    match,
    reachable_by_rules,
    rewrite_candidates,
    unflatten,
)


class TestFlattening:
    def test_units_removed(self):
        assert flatten(parse("1 a 1")) == FSym("a")
        assert flatten(parse("a + 0")) == FSym("a")

    def test_zero_annihilates(self):
        assert flatten(parse("a 0 b")) == FZero()
        assert flatten(parse("0 + 0")) == FZero()

    def test_sum_canonical_order(self):
        assert flatten(parse("b + a")) == flatten(parse("a + b"))
        assert flatten(parse("a + b + a")) == flatten(parse("a + a + b"))

    def test_multiset_semantics(self):
        # a + a is NOT collapsed (non-idempotent!).
        assert flatten(parse("a + a")) != flatten(parse("a"))

    def test_product_order_preserved(self):
        assert flatten(parse("a b")) != flatten(parse("b a"))

    def test_nested_flattening(self):
        left = flatten(parse("(a b) (c d)"))
        assert isinstance(left, FProd) and len(left.args) == 4

    def test_unflatten_round_trip(self):
        for text in ["(a + b) c*", "a b c + 0 + 1", "((a + b) + c) d"]:
            expr = parse(text)
            assert ac_equivalent(unflatten(flatten(expr)), expr)

    def test_flatten_at_depth_100000(self):
        """flatten keeps its own stack: a 10⁵-letter product and a 10⁵-deep
        star/sum nest flatten without ``RecursionError``, to the very
        nodes the pairwise construction interns."""
        names = [f"x{i % 7}" for i in range(100_000)]
        product = product_of([Symbol(name) for name in names])
        assert flatten(product) is FProd(tuple(FSym(name) for name in names))

        a, b = Symbol("a"), Symbol("b")
        nest, expected = a, FSym("a")
        for depth in range(100_000):
            if depth % 2:
                nest, expected = Star(nest), FStar(expected)
            else:
                nest, expected = Sum(b, nest), make_sum([FSym("b"), expected])
        assert flatten(nest) is expected


class TestACEquivalence:
    def test_commutativity_of_sum(self):
        assert ac_equivalent(parse("a + b c"), parse("b c + a"))

    def test_associativity(self):
        assert ac_equivalent(parse("a (b c)"), parse("(a b) c"))
        assert ac_equivalent(parse("a + (b + c)"), parse("(a + b) + c"))

    def test_units(self):
        assert ac_equivalent(parse("1 a"), parse("a"))
        assert ac_equivalent(parse("a + 0"), parse("a"))
        assert ac_equivalent(parse("a 0"), parse("0"))

    def test_not_equivalent(self):
        assert not ac_equivalent(parse("a b"), parse("b a"))
        assert not ac_equivalent(parse("a + a"), parse("a"))
        assert not ac_equivalent(parse("a*"), parse("a"))


class TestMatching:
    def test_variable_matches_anything(self):
        subs = list(match(flatten(parse("p")), flatten(parse("a b + c")),
                          frozenset(["p"])))
        assert len(subs) == 1

    def test_product_variable_blocks(self):
        # Pattern p q against a b c: splits (a|bc) and (ab|c).
        subs = list(match(flatten(parse("p q")), flatten(parse("a b c")),
                          frozenset(["p", "q"])))
        assert len(subs) == 2

    def test_star_pattern(self):
        subs = list(match(flatten(parse("(p q)*")), flatten(parse("(a b c)*")),
                          frozenset(["p", "q"])))
        assert len(subs) == 2

    def test_sum_distribution(self):
        subs = list(match(flatten(parse("p + q")), flatten(parse("a + b + c")),
                          frozenset(["p", "q"])))
        # {a|b+c}, {b|a+c}, {c|a+b} and symmetric — order matters per var.
        assert len(subs) == 6

    def test_constant_must_match_exactly(self):
        subs = list(match(flatten(parse("m1 p")), flatten(parse("m1 a b")),
                          frozenset(["p"])))
        assert len(subs) == 1
        assert subs[0]["p"] == flatten(parse("a b"))

    def test_repeated_variable_consistency(self):
        subs = list(match(flatten(parse("p p")), flatten(parse("a b a b")),
                          frozenset(["p"])))
        assert len(subs) == 1
        assert subs[0]["p"] == flatten(parse("a b"))

    def test_no_match(self):
        subs = list(match(flatten(parse("p*")), flatten(parse("a b")),
                          frozenset(["p"])))
        assert subs == []


class TestRewriting:
    def test_rewrite_at_root(self):
        results = list(rewrite_candidates(
            flatten(parse("a b")), parse("p q"), parse("q p"), frozenset(["p", "q"])
        ))
        assert flatten(parse("b a")) in results

    def test_rewrite_inside_star(self):
        results = list(rewrite_candidates(
            flatten(parse("(m1 m0)* c")), parse("m1 m0"), ZERO, frozenset()
        ))
        assert flatten(parse("0* c")) in results

    def test_rewrite_slice_of_product(self):
        results = list(rewrite_candidates(
            flatten(parse("a m1 m0 b")), parse("m1 m0"), ZERO, frozenset()
        ))
        assert flatten(ZERO) in results  # annihilator collapses the product

    def test_rewrite_subset_of_sum(self):
        a, b, c = symbols("a b c")
        results = list(rewrite_candidates(
            flatten(a + b + c), a + b, Symbol("d"), frozenset()
        ))
        assert flatten(Symbol("d") + c) in results

    def test_unit_gap_insertion(self):
        # 1 → u v can fire at any gap, e.g. turning a into a u v.
        results = list(rewrite_candidates(
            flatten(parse("a")), ONE, parse("u v"), frozenset()
        ))
        assert flatten(parse("a u v")) in results
        assert flatten(parse("u v a")) in results

    def test_rewrite_ground_equals_subject(self):
        results = list(rewrite_candidates(
            flatten(parse("m1 m1")), parse("m1 m1"), parse("m1"), frozenset()
        ))
        assert flatten(parse("m1")) in results


class TestReachability:
    def test_commuting_chain(self):
        rules = [
            (parse("g m"), parse("m g"), frozenset()),
            (parse("g p"), parse("p g"), frozenset()),
        ]
        assert reachable_by_rules(
            flatten(parse("g m p")), flatten(parse("m p g")), rules, max_depth=3
        )

    def test_unreachable(self):
        rules = [(parse("a"), parse("b"), frozenset())]
        assert not reachable_by_rules(
            flatten(parse("c")), flatten(parse("d")), rules, max_depth=3
        )
