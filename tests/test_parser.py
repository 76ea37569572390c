"""Tests for the NKA expression parser."""

import pickle
import random
import re

import pytest

from gen import random_exprs

from repro.core.expr import ONE, Product, Star, Sum, Symbol, ZERO
from repro.core.parser import MAX_NESTING, ParseError, parse
from repro.engine import NKAEngine
from repro.core.rewrite import ac_equivalent


class TestBasics:
    def test_atoms(self):
        assert parse("0") == ZERO
        assert parse("1") == ONE
        assert parse("a") == Symbol("a")
        assert parse("m0") == Symbol("m0")

    def test_sum_product_star(self):
        a, b = Symbol("a"), Symbol("b")
        assert parse("a + b") == Sum(a, b)
        assert parse("a b") == Product(a, b)
        assert parse("a*") == Star(a)

    def test_explicit_product_operators(self):
        assert parse("a · b") == parse("a b")
        assert parse("a . b") == parse("a b")
        assert parse("a ; b") == parse("a b")

    def test_precedence_star_tightest(self):
        a, b = Symbol("a"), Symbol("b")
        assert parse("a b*") == Product(a, Star(b))
        assert parse("(a b)*") == Star(Product(a, b))
        assert parse("a + b c") == Sum(a, Product(b, Symbol("c")))

    def test_double_star(self):
        assert parse("a**") == Star(Star(Symbol("a")))

    def test_numeric_suffix_symbols(self):
        assert parse("m0 p") == Product(Symbol("m0"), Symbol("p"))

    def test_one_vs_symbol(self):
        # "1" alone is the unit; "1x" is rejected (no symbol starts with 1).
        assert parse("1 a") == Product(ONE, Symbol("a"))


class TestPaperExpressions:
    def test_loop_encoding(self):
        expr = parse("(m0 p)* m1")
        assert expr == Product(Star(Product(Symbol("m0"), Symbol("p"))), Symbol("m1"))

    def test_unrolling2_encoding(self):
        expr = parse("(m0 p (m0 p + m1 1))* m1")
        assert "m0" in str(expr)

    def test_case_encoding(self):
        expr = parse("m0 p0 + m1 p1")
        assert isinstance(expr, Sum)

    def test_round_trip_rendering(self):
        for text in [
            "(m0 p)* m1",
            "a (b + c)* d",
            "(a + b c)* + 1",
            "u (m0 p)* m1 u⁻¹".replace("u⁻¹", "u_inv"),
        ]:
            assert ac_equivalent(parse(str(parse(text))), parse(text))


class TestErrors:
    def test_empty(self):
        with pytest.raises(ParseError):
            parse("")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("(a + b")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("a )")

    def test_lone_operator(self):
        with pytest.raises(ParseError):
            parse("+ a")

    def test_bad_character(self):
        with pytest.raises(ParseError):
            parse("a @ b")


# -- oracle: the recursive-descent parser the single-pass one replaced -------
#
# A test-only reference that shares no code with repro.core.parser: its own
# token regex, token loop and recursive grammar functions.  It raises
# _ReferenceError with the messages parse() must reproduce verbatim.


class _ReferenceError(Exception):
    pass


_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<star>\*)
  | (?P<plus>\+)
  | (?P<dot>[·.;])
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<zero>0(?![A-Za-z0-9_]))
  | (?P<one>1(?![A-Za-z0-9_]))
  | (?P<symbol>[A-Za-z_][A-Za-z0-9_'<>≤⁻¹-]*)
    """,
    re.VERBOSE,
)


def _reference_parse(source):
    tokens = []
    pos = 0
    while pos < len(source):
        match = _REFERENCE_TOKEN_RE.match(source, pos)
        if match is None:
            raise _ReferenceError(
                f"unexpected character {source[pos]!r} at position {pos}"
            )
        if match.lastgroup != "ws":
            tokens.append((match.lastgroup, match.group(), pos))
        pos = match.end()
    if not tokens:
        raise _ReferenceError("empty expression")
    index = 0

    def peek():
        return tokens[index][0] if index < len(tokens) else "eof"

    def advance():
        nonlocal index
        index += 1
        return tokens[index - 1]

    def expr():
        node = term()
        while peek() == "plus":
            advance()
            node = Sum(node, term())
        return node

    def term():
        node = factor()
        while True:
            kind = peek()
            if kind == "dot":
                advance()
                node = Product(node, factor())
            elif kind in ("zero", "one", "symbol", "lparen"):
                node = Product(node, factor())
            else:
                return node

    def factor():
        node = atom()
        while peek() == "star":
            advance()
            node = Star(node)
        return node

    def atom():
        kind = peek()
        if kind == "zero":
            advance()
            return ZERO
        if kind == "one":
            advance()
            return ONE
        if kind == "symbol":
            return Symbol(advance()[1])
        if kind == "lparen":
            opening = advance()
            node = expr()
            if peek() != "rparen":
                raise _ReferenceError(
                    f"unbalanced '(' at position {opening[2]} in {source!r}"
                )
            advance()
            return node
        found = "end of input" if kind == "eof" else repr(tokens[index][1])
        raise _ReferenceError(f"expected an atom, found {found} in {source!r}")

    node = expr()
    if peek() != "eof":
        _kind, text, pos = tokens[index]
        raise _ReferenceError(f"trailing input {text!r} at position {pos}")
    return node


PAPER_TEXTS = [
    "(m0 p)* m1",
    "(m0 p (m0 p + m1 1))* m1",
    "m0 p0 + m1 p1",
    "a (b + c)* d",
    "(a + b c)* + 1",
    "u (m0 p)* m1 u_inv",
    "u (m0 p)* m1 u⁻¹",
    "m0 · p · (m0·p + m1)* · m1",
    "m0 p (m0 p + m1)* m1",
    "x' ; y<1> . z≤2",
]

# Malformed fragments named in the parser's contract, plus their neighbours.
MALFORMED_TEXTS = [
    "( @", "a )", "()", "a + ", "1x", "*a", "·", ".", ";", "a ·", "a . . b",
    "(", ")", "((a)", "(a))", "a + )", "+ a", "a @ b", "0a", "01", "2",
    "a ) @", "( a +", "(*a)", "a ( )", "", "   ", "a '", "0'", "1 ·",
]

_SOUP_VOCABULARY = [
    "a", "b", "m0", "x'", "0", "1", "(", ")", "+", "*", "·", ".", ";",
    "@", "1x", "0a", "2", "#",
]


def _soups(seed, count):
    rng = random.Random(seed)
    valid = [v for v in _SOUP_VOCABULARY if v not in ("@", "1x", "0a", "2", "#")]
    texts = []
    for index in range(count):
        # Every other soup avoids the bad characters, so grammar errors and
        # accepted texts are both well represented.
        vocabulary = _SOUP_VOCABULARY if index % 2 else valid
        pieces = [rng.choice(vocabulary) for _ in range(rng.randint(0, 12))]
        texts.append("".join(p + rng.choice(["", " ", "  "]) for p in pieces))
    return texts


def _oracle_texts():
    texts = [str(expr) for expr in random_exprs(seed=1717, count=400, depth=4)]
    texts += [
        str(expr)
        for expr in random_exprs(
            seed=1718, count=200, letters=("m0", "p", "x'"), depth=5
        )
    ]
    return texts + PAPER_TEXTS + MALFORMED_TEXTS + _soups(seed=1719, count=3000)


def _outcome(parser, text, error_type):
    try:
        return ("ok", parser(text))
    except error_type as error:
        return ("error", str(error))


class TestReferenceOracle:
    def test_identical_nodes_or_identical_errors(self):
        accepted = rejected = 0
        for text in _oracle_texts():
            expected = _outcome(_reference_parse, text, _ReferenceError)
            actual = _outcome(parse, text, ParseError)
            assert actual[0] == expected[0], text
            if expected[0] == "ok":
                assert actual[1] is expected[1], text
                accepted += 1
            else:
                assert actual[1] == expected[1], text
                rejected += 1
        # Both outcomes must be well represented for the check to mean much.
        assert accepted > 700 and rejected > 2000


def deep_star_text(depth, letter="a"):
    return "(" * depth + letter + ")*" * depth


class TestNestingBudget:
    def test_bound_covers_every_depth_the_recursive_parser_reached(self):
        depth = 1
        while True:
            try:
                _reference_parse(deep_star_text(depth + 1))
            except RecursionError:
                break
            depth += 1
        assert depth <= MAX_NESTING
        assert parse(deep_star_text(depth)) is _reference_parse(deep_star_text(depth))

    def test_max_nesting_parses(self):
        text = deep_star_text(MAX_NESTING)
        expr = parse(text)
        for _ in range(MAX_NESTING):
            assert isinstance(expr, Star)
            expr = expr.body
        assert expr is Symbol("a")

    def test_one_level_deeper_names_the_bound(self):
        with pytest.raises(ParseError, match=f"MAX_NESTING = {MAX_NESTING}"):
            parse(deep_star_text(MAX_NESTING + 1))

    def test_huge_paren_nest_is_a_parse_error(self):
        depth = 10 ** 5
        with pytest.raises(ParseError, match="MAX_NESTING"):
            parse("(" * depth + "a" + ")" * depth)

    def test_bad_character_beats_the_bound(self):
        text = deep_star_text(MAX_NESTING + 1) + " @"
        with pytest.raises(ParseError, match="unexpected character '@'"):
            parse(text)

    @pytest.mark.parametrize("with_store", [False, True])
    def test_max_nesting_decides(self, tmp_path, with_store):
        deep = parse(deep_star_text(MAX_NESTING))
        # a** = a*** in NKA (both are ∞ on every a^n), so one level less is
        # equal; a nest over b is not.
        pairs = [
            (deep, parse(deep_star_text(MAX_NESTING - 1))),
            (deep, parse(deep_star_text(MAX_NESTING, letter="b"))),
        ]
        store = str(tmp_path / "store") if with_store else False
        single = NKAEngine("deep-single", store=store)
        singles = [single.equal_detailed(left, right) for left, right in pairs]
        batch = NKAEngine("deep-batch", store=store).equal_many_detailed(pairs)
        assert [result.equal for result in singles] == [True, False]
        assert [pickle.dumps(r) for r in batch] == [pickle.dumps(r) for r in singles]

