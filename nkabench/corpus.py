"""Seeded corpus of NKA equality queries drawn from the paper's own traffic.

Every query is a pair of expression *texts* in the surface syntax of
``repro.parse``: the program under test only ever receives text, exactly as
a client would send it.  :func:`build_corpus` is deterministic in its seed.

Each family records its share of the corpus and why it is there
(:data:`FAMILIES`).  ``expected`` is the verdict known by construction
(``True``/``False``) or ``None`` when only the oracle can tell.
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.expr import ONE, Expr, Product, Star, Sum, Symbol
from repro.core.theorems import (
    DENESTING,
    DENESTING_RIGHT,
    FIXED_POINT_LEFT,
    FIXED_POINT_RIGHT,
    PRODUCT_STAR,
    SLIDING,
    SWAP_STAR,
    UNROLLING,
)

_TESTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"
)
if _TESTS_DIR not in sys.path:
    sys.path.insert(0, _TESTS_DIR)
from gen import random_expr  # noqa: E402  (the test suite's seeded generator)


__all__ = [
    "FAMILIES",
    "Query",
    "build_corpus",
    "deep_star_text",
    "novel_queries",
    "tail_queries",
]


@dataclass(frozen=True)
class Query:
    family: str
    left: str
    right: str
    expected: Optional[bool]

    @property
    def key(self) -> Tuple[str, str]:
        return (self.left, self.right)


# The size family's largest members each take about a second to decide
# cold on a 2-core x86 box: a 200-letter product (0.5-0.7 s; 400 letters
# took 3.5 s) and a 60-deep star nest (0.8 s).  Determinization at k = 10
# takes 0.05 s unequal and 0.3 s equal.  These tail families have fixed
# members, so every seed carries the same compile-cost profile; the seed
# only picks their letters.
PRODUCT_LETTERS = (25, 100, 200)
STAR_DEPTHS = (10, 30, 60)
DETERMINIZATION_KS = (4, 7, 10)

# Shares of the seeded bulk, and counts of the fixed tail.
FAMILIES: Dict[str, Dict[str, object]] = {
    "laws": {
        "share": 0.33,
        "why": "Fig. 2 derived theorems over seeded subterms: the equal-by-"
        "construction traffic a proof assistant sends; full compile + Tzeng.",
    },
    "separations": {
        "share": 0.17,
        "why": "p+p vs p, (p*)* vs p*, p*p* vs p*, (1+p)* vs p*: the "
        "non-idempotent separations NKA turns on; unequal, short witnesses.",
    },
    "applications": {
        "share": 0.17,
        "why": "Enc() of the Sec. 5 compiler rules, the QSP pair and the "
        "Sec. 6 programs, plus law instances over their subterms.",
    },
    "random": {
        "share": 0.33,
        "why": "tests/gen.py random pairs: unstructured mostly-unequal "
        "traffic exercising every constructor and the 0/1 edge cases.",
    },
    "size": {
        "count": len(PRODUCT_LETTERS) + len(STAR_DEPTHS),
        "why": "long products and deep star nests up to ~1 s cold: the "
        "compile-cost tail that position-automaton compilation targets.",
    },
    "determinization": {
        "count": 2 * len(DETERMINIZATION_KS),
        "why": "(1*)((a+b)* a (a+b)^k), k<=10, equal and unequal: support-DFA "
        "subset-construction growth in the decide layer.",
    },
}

_LETTERS = ("a", "b", "c")
_LAWS = (
    FIXED_POINT_RIGHT,
    FIXED_POINT_LEFT,
    PRODUCT_STAR,
    SLIDING,
    DENESTING,
    DENESTING_RIGHT,
    UNROLLING,
)


def _subterm(rng: random.Random, depth: int = 2) -> Expr:
    # Bias against stars: law schemata already add up to three star levels.
    return random_expr(rng, _LETTERS, depth=depth, star_bias=0.1)


def _law_query(rng: random.Random, family: str, pool=None) -> Query:
    draw = (lambda: rng.choice(pool)) if pool else (lambda: _subterm(rng))
    if rng.random() < 0.15:
        # swap-star needs p q = q p: powers of one subterm commute.
        base = draw()
        p = _power(base, rng.randint(1, 2))
        q = _power(base, rng.randint(1, 2))
        equation = SWAP_STAR.instance({"p": p, "q": q})
    else:
        law = rng.choice(_LAWS)
        mapping = {name: draw() for name in sorted(law.variables)}
        equation = law.instance(mapping)
    left, right = equation.lhs, equation.rhs
    if rng.random() < 0.5:
        left, right = right, left
    return Query(family, str(left), str(right), True)


def _power(expr: Expr, n: int) -> Expr:
    result = expr
    for _ in range(n - 1):
        result = Product(result, expr)
    return result


def _separation_query(rng: random.Random) -> Query:
    # p = a·s + d with d a letter outside s: p[d] = 1 is finite and non-zero
    # and p[ε] = 0, which is what makes every pair below unequal.
    s = _subterm(rng)
    p = Sum(Product(Symbol(rng.choice(_LETTERS)), s), Symbol("d"))
    kind = rng.randrange(4)
    if kind == 0:
        left, right = Sum(p, p), p
    elif kind == 1:
        left, right = Star(Star(p)), Star(p)
    elif kind == 2:
        left, right = Product(Star(p), Star(p)), Star(p)
    else:
        left, right = Star(Sum(ONE, p)), Star(p)
    return Query("separations", str(left), str(right), False)


def _application_pairs() -> List[Tuple[Expr, Expr]]:
    """Enc(before) / Enc(after) of every paper program pair."""
    import numpy as np

    from repro.applications.normal_form import section6_example_programs, section6_space
    from repro.applications.optimization import (
        default_boundary_instance,
        default_unrolling_instance,
    )
    from repro.applications.qsp import build_qsp_programs, default_qsp_instance
    from repro.programs.encoder import EncoderSetting, encode
    from repro.programs.syntax import Unitary
    from repro.quantum.gates import H, X
    from repro.quantum.measurement import binary_projective

    pairs = []
    for make in (default_unrolling_instance, default_boundary_instance):
        rule = make()
        setting = EncoderSetting(rule.space)
        pairs.append((encode(rule.before, setting), encode(rule.after, setting)))
    for terms, iterations in ((2, 1), (2, 2), (3, 1)):
        instance = default_qsp_instance(terms, iterations)
        qsp, optimized = build_qsp_programs(instance)
        setting = EncoderSetting(instance.space())
        pairs.append((encode(qsp, setting), encode(optimized, setting)))
    projective = binary_projective(np.diag([0.0, 1.0]).astype(complex))
    original, constructed = section6_example_programs(
        projective,
        projective,
        Unitary(["p"], H, label="p1"),
        Unitary(["p"], X, label="p2"),
    )
    setting = EncoderSetting(section6_space())
    pairs.append((encode(original, setting), encode(constructed, setting)))
    return pairs


def _application_maker(rng: random.Random) -> Callable[[int], List[Query]]:
    """The program pairs themselves first, then law instances over their
    subterms."""
    pairs = _application_pairs()
    fixed = [Query("applications", str(l), str(r), None) for l, r in pairs]
    pool: List[Expr] = []
    for left, right in pairs:
        for expr in (left, right):
            pool.extend(_factors(expr))

    def make(count: int) -> List[Query]:
        queries = fixed[:count]
        del fixed[:count]
        while len(queries) < count:
            queries.append(_law_query(rng, "applications", pool))
        return queries

    return make


def _factors(expr: Expr) -> List[Expr]:
    """Small subterms of a program encoding (loop bodies, guards, stars)."""
    found = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, (Sum, Product, Star)) and len(str(node)) <= 40:
            found.append(node)
        stack.extend(node.children())
    return found or [expr]


def _size_queries(rng: random.Random) -> List[Query]:
    queries = []
    for n in PRODUCT_LETTERS:
        word = [rng.choice(_LETTERS) for _ in range(n)]
        text = " ".join(word)
        if rng.random() < 0.5:
            # Re-associated: equal, but not the same interned term.
            cut = rng.randint(1, n - 1)
            other = f"({' '.join(word[:cut])}) ({' '.join(word[cut:])})"
            queries.append(Query("size", text, other, True))
        else:
            # One extra single-letter word: the shortest witness has length 1.
            queries.append(Query("size", text, f"{text} + {word[0]}", False))
    for depth in STAR_DEPTHS:
        letters = rng.sample(_LETTERS, 3)
        body = rng.choice(_LETTERS)
        for level in range(depth):
            body = f"({letters[level % 3]} {body})*"
        # Fixed point: F* = 1 + F F* with F the outermost star's body.
        queries.append(Query("size", body, f"1 + ({body[1:-2]}) {body}", True))
    return queries


def _determinization_queries(rng: random.Random) -> List[Query]:
    queries = []
    for k in DETERMINIZATION_KS:
        x, y = rng.sample(_LETTERS, 2)
        core = f"({x} + {y})* {x}" + f" ({x} + {y})" * k
        queries.append(Query("determinization", f"1* ({core})", core, False))
        queries.append(
            Query("determinization", f"1* ({core})", f"1* 1* ({core})", True)
        )
    return queries


def _random_queries(rng: random.Random, count: int) -> List[Query]:
    queries = []
    for _ in range(count):
        left = random_expr(rng, _LETTERS, depth=3)
        right = random_expr(rng, _LETTERS, depth=3)
        queries.append(Query("random", str(left), str(right), None))
    return queries


def build_corpus(seed: int, bulk: int) -> List[Query]:
    """``bulk`` distinct seeded queries in the :data:`FAMILIES` shares,
    shuffled."""
    rng = random.Random(seed)
    makers: Dict[str, Callable[[int], List[Query]]] = {
        "laws": lambda n: [_law_query(rng, "laws") for _ in range(n)],
        "separations": lambda n: [_separation_query(rng) for _ in range(n)],
        "applications": _application_maker(rng),
        "random": lambda n: _random_queries(rng, n),
    }
    queries: List[Query] = []
    seen = set()
    for family, make in makers.items():
        want = round(bulk * float(FAMILIES[family]["share"]))
        got = 0
        while got < want:
            for query in make(want - got):
                if query.left != query.right and query.key not in seen:
                    seen.add(query.key)
                    queries.append(query)
                    got += 1
    rng.shuffle(queries)
    return queries


def tail_queries(seed: int) -> List[Query]:
    """The size and determinization families: fixed members, seeded letters."""
    rng = random.Random(f"tail-{seed}")
    return _size_queries(rng) + _determinization_queries(rng)


def novel_queries(seed: int, count: int, start: int = 0) -> List[Query]:
    """Fresh random queries from a stream disjoint from :func:`build_corpus`:
    distinct ``(seed, index)`` streams, so none repeats within a run."""
    queries = []
    for index in range(start, start + count):
        rng = random.Random(f"novel-{seed}-{index}")
        while True:
            left = random_expr(rng, _LETTERS + ("e",), depth=3)
            right = random_expr(rng, _LETTERS + ("e",), depth=3)
            if left is not right:
                break
        # The corpus never uses "e", so no novel left side is a known one.
        queries.append(Query("novel", str(Product(left, Symbol("e"))), str(right), None))
    return queries


def deep_star_text(depth: int) -> str:
    """A well-formed star nest deeper than the recursive parser handles."""
    return "(" * depth + "a" + ")*" * depth

