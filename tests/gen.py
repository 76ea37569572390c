"""Seeded random NKA-expression generator for property-based tests.

Deterministic given a seed, dependency-free (plain :mod:`random`), and
shared by the property, metamorphic and cache test suites plus the
benchmarks.  Sizes are kept small enough that the decision procedure stays
fast (star nesting is the cost driver), while still exercising every
constructor and the 0/1 edge cases.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.expr import Expr, ONE, Product, Star, Sum, Symbol, ZERO

DEFAULT_LETTERS = ("a", "b", "c")


def random_expr(
    rng: random.Random,
    letters: Sequence[str] = DEFAULT_LETTERS,
    depth: int = 3,
    star_bias: float = 0.2,
) -> Expr:
    """A random expression of nesting depth at most ``depth``.

    Leaves are drawn from ``{0, 1} ∪ letters``; interior nodes are sums,
    products, or (with probability ``star_bias``) stars.
    """
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.1:
            return ZERO
        if roll < 0.2:
            return ONE
        return Symbol(rng.choice(list(letters)))
    roll = rng.random()
    if roll < star_bias:
        return Star(random_expr(rng, letters, depth - 1, star_bias))
    left = random_expr(rng, letters, depth - 1, star_bias)
    right = random_expr(rng, letters, depth - 1, star_bias)
    if roll < star_bias + (1.0 - star_bias) / 2:
        return Sum(left, right)
    return Product(left, right)


def random_exprs(
    seed: int,
    count: int,
    letters: Sequence[str] = DEFAULT_LETTERS,
    depth: int = 3,
    star_bias: float = 0.2,
) -> List[Expr]:
    """``count`` expressions from one seeded stream (reproducible)."""
    rng = random.Random(seed)
    return [random_expr(rng, letters, depth, star_bias) for _ in range(count)]


def random_pairs(
    seed: int,
    count: int,
    letters: Sequence[str] = DEFAULT_LETTERS,
    depth: int = 3,
    equal_fraction: float = 0.0,
    star_bias: float = 0.2,
) -> List[Tuple[Expr, Expr]]:
    """``count`` expression pairs; a fraction are identical-by-construction.

    With ``equal_fraction > 0`` some pairs are ``(e, e)`` — useful for
    making sure a workload contains queries that must answer ``True``.
    """
    rng = random.Random(seed)
    pairs: List[Tuple[Expr, Expr]] = []
    for _ in range(count):
        left = random_expr(rng, letters, depth, star_bias)
        if rng.random() < equal_fraction:
            pairs.append((left, left))
        else:
            pairs.append((left, random_expr(rng, letters, depth, star_bias)))
    return pairs


PATTERN_VARIABLES = ("p", "q")


def random_pattern(
    rng: random.Random,
    letters: Sequence[str] = DEFAULT_LETTERS,
    variables: Sequence[str] = PATTERN_VARIABLES,
    depth: int = 2,
    star_bias: float = 0.2,
    variable_bias: float = 0.4,
) -> Expr:
    """A random rewrite pattern: an expression whose leaves may be metavariables.

    Used by the AC-matching property tests — ``variables`` names the symbols
    that the matcher should treat as metavariables (pass
    ``frozenset(variables)`` alongside the pattern).
    """
    if depth <= 0 or rng.random() < 0.35:
        roll = rng.random()
        if roll < variable_bias:
            return Symbol(rng.choice(list(variables)))
        if roll < variable_bias + 0.05:
            return ONE
        return Symbol(rng.choice(list(letters)))
    roll = rng.random()
    if roll < star_bias:
        return Star(random_pattern(rng, letters, variables, depth - 1, star_bias, variable_bias))
    left = random_pattern(rng, letters, variables, depth - 1, star_bias, variable_bias)
    right = random_pattern(rng, letters, variables, depth - 1, star_bias, variable_bias)
    if roll < star_bias + (1.0 - star_bias) / 2:
        return Sum(left, right)
    return Product(left, right)


def rebuild(expr: Expr) -> Expr:
    """Reconstruct ``expr`` bottom-up through the public constructors.

    Under hash-consing the result must be pointer-identical to the input —
    the key interning property the test suite asserts.
    """
    if isinstance(expr, Symbol):
        return Symbol(expr.name)
    if isinstance(expr, Sum):
        return Sum(rebuild(expr.left), rebuild(expr.right))
    if isinstance(expr, Product):
        return Product(rebuild(expr.left), rebuild(expr.right))
    if isinstance(expr, Star):
        return Star(rebuild(expr.body))
    return type(expr)()  # Zero / One singletons


def random_int_entries(
    rng: random.Random,
    nrows: int,
    ncols: int,
    density: float = 0.25,
    lo: int = 0,
    hi: int = 4,
) -> List[Tuple[int, int, int]]:
    """Seeded sparse ``(i, j, value)`` triples with non-zero integer values.

    ``density`` is the probability that a cell carries an entry; values are
    drawn uniformly from ``[lo, hi] \\ {0}``.  Shared by the linear-algebra
    backend property tests, which map the integers into a weight semiring
    (``ExtNat(v)``, ``bool(v)``).
    """
    entries: List[Tuple[int, int, int]] = []
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                value = rng.randint(lo, hi)
                if value != 0:
                    entries.append((i, j, value))
    return entries


def short_words(
    letters: Sequence[str], max_length: int
) -> Iterator[Tuple[str, ...]]:
    """Every word over ``letters`` of length at most ``max_length``."""
    frontier: List[Tuple[str, ...]] = [()]
    yield ()
    for _ in range(max_length):
        next_frontier = []
        for word in frontier:
            for letter in letters:
                extended = word + (letter,)
                yield extended
                next_frontier.append(extended)
        frontier = next_frontier
