"""NKA expressions over an alphabet (paper Definition 2.2).

An expression is built from ``0``, ``1``, atomic symbols, binary ``+`` and
``·``, and the unary star::

    e ::= 0 | 1 | a | e1 + e2 | e1 · e2 | e1*

Expressions are immutable trees.  Python operators are overloaded so that
paper notation transliterates directly::

    m0, p, m1 = symbols("m0 p m1")
    loop = (m0 * p).star() * m1          # (m0 p)* m1

Two structural views coexist:

* the *binary* view (:class:`Sum`, :class:`Product` with exactly two
  children) mirrors Definition 2.2 and is what the constructors produce;
* the *flattened* view (:func:`sum_terms`, :func:`product_factors`) exposes
  ``+`` as an n-ary multiset and ``·`` as an n-ary sequence, which is the
  representation the rewrite engine and the decision procedure work with.

Hash-consing contract
---------------------

Expression nodes are **interned** (hash-consed): every constructor first
consults a per-process intern table, so structurally equal terms are
*pointer-identical*::

    Sum(a, b) is Sum(a, b)        # always True
    (a * b).star() is (a * b).star()

Consequences that the rest of the pipeline relies on:

* ``==`` **is identity** — syntactic equality in O(1) instead of a tree
  walk.  ``hash`` is the identity hash, also O(1), so expressions are cheap
  dictionary keys and every memo table downstream (``flatten``,
  ``expr_to_wfa``, the decision-procedure caches) can key on nodes directly.
* Shared subterms are stored once; an expression is physically a DAG even
  though the API presents a tree.
* The intern tables hold only **weak** references: an expression no longer
  reachable from user code is garbage-collected and its table entry
  disappears, so interning never leaks in long-lived processes and no
  manual clearing is required (:func:`intern_stats` reports live sizes).
  The derived *memo* caches do hold strong references; clear those with
  :func:`repro.core.decision.clear_caches`.
* Pickling and ``copy``/``deepcopy`` re-enter the constructors
  (``__reduce__``), so deserialised expressions re-intern and the identity
  invariant survives round-trips.

Equality (``==``) is purely syntactic on the binary tree.  Use
:func:`repro.core.decision.nka_equal` for provable equality, or
:func:`repro.core.rewrite.ac_equivalent` for equality modulo associativity,
commutativity of ``+`` and the unit/annihilator laws.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import reduce
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple, Union

from repro.util.cache import LRUCache

__all__ = [
    "Expr",
    "Zero",
    "One",
    "Symbol",
    "Sum",
    "Product",
    "Star",
    "ZERO",
    "ONE",
    "sym",
    "symbols",
    "sum_of",
    "product_of",
    "sum_terms",
    "product_factors",
    "alphabet",
    "expr_size",
    "star_height",
    "substitute",
    "subterms",
    "intern_stats",
]


class Expr:
    """Base class of NKA expressions.  Subclasses are frozen dataclasses.

    All six constructors intern their result (see the module docstring):
    ``==`` and ``hash`` are identity-based and O(1).
    """

    __slots__ = ("__weakref__",)

    # -- constructors via operators -----------------------------------------

    def __add__(self, other: "Expr") -> "Expr":
        return Sum(self, _as_expr(other))

    def __radd__(self, other: "Expr") -> "Expr":
        return Sum(_as_expr(other), self)

    def __mul__(self, other: "Expr") -> "Expr":
        return Product(self, _as_expr(other))

    def __rmul__(self, other: "Expr") -> "Expr":
        return Product(_as_expr(other), self)

    def star(self) -> "Expr":
        return Star(self)

    # -- traversal -----------------------------------------------------------

    def children(self) -> Tuple["Expr", ...]:
        return ()

    # -- display ---------------------------------------------------------------

    def __str__(self) -> str:
        return _render(self)

    def __repr__(self) -> str:
        return f"Expr[{_render(self)}]"


def _as_expr(value: Union[Expr, int, str]) -> Expr:
    """Coerce convenient literals: 0, 1 and symbol names."""
    if isinstance(value, Expr):
        return value
    if value == 0:
        return ZERO
    if value == 1:
        return ONE
    if isinstance(value, str):
        return Symbol(value)
    raise TypeError(f"cannot interpret {value!r} as an NKA expression")


# Intern tables.  Values are weak so unreachable expressions are collected;
# keys of the composite tables hold the (already interned) children, whose
# identity hashes make every lookup O(1).
_INTERN_SYMBOL: "weakref.WeakValueDictionary[str, Symbol]" = weakref.WeakValueDictionary()
_INTERN_SUM: "weakref.WeakValueDictionary[Tuple[Expr, Expr], Sum]" = weakref.WeakValueDictionary()
_INTERN_PRODUCT: "weakref.WeakValueDictionary[Tuple[Expr, Expr], Product]" = weakref.WeakValueDictionary()
_INTERN_STAR: "weakref.WeakValueDictionary[Expr, Star]" = weakref.WeakValueDictionary()


@dataclass(frozen=True, repr=False, eq=False)
class Zero(Expr):
    """The additive identity ``0`` (also encodes ``abort``).  A singleton."""

    __slots__ = ()
    _instance = None

    def __new__(cls) -> "Zero":
        inst = cls._instance
        if inst is None:
            inst = super().__new__(cls)
            cls._instance = inst
        return inst

    def __reduce__(self):
        return (Zero, ())

    def __str__(self) -> str:
        return "0"


@dataclass(frozen=True, repr=False, eq=False)
class One(Expr):
    """The multiplicative identity ``1`` (also encodes ``skip``).  A singleton."""

    __slots__ = ()
    _instance = None

    def __new__(cls) -> "One":
        inst = cls._instance
        if inst is None:
            inst = super().__new__(cls)
            cls._instance = inst
        return inst

    def __reduce__(self):
        return (One, ())

    def __str__(self) -> str:
        return "1"


@dataclass(frozen=True, repr=False, eq=False)
class Symbol(Expr):
    """An atomic symbol ``a ∈ Σ``."""

    name: str

    __slots__ = ("name",)

    def __new__(cls, name: str) -> "Symbol":
        inst = _INTERN_SYMBOL.get(name)
        if inst is None:
            if not isinstance(name, str):
                raise TypeError(f"symbol name must be a string, got {name!r}")
            if not name:
                raise ValueError("symbol name must be non-empty")
            inst = super().__new__(cls)
            object.__setattr__(inst, "name", name)
            _INTERN_SYMBOL[name] = inst
        return inst

    def __init__(self, name: str):
        pass  # fields are set in __new__ exactly once per interned node

    def __reduce__(self):
        return (Symbol, (self.name,))

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, repr=False, eq=False)
class Sum(Expr):
    """A binary sum ``left + right``."""

    left: Expr
    right: Expr

    __slots__ = ("left", "right")

    def __new__(cls, left: Expr, right: Expr) -> "Sum":
        if not isinstance(left, Expr):
            left = _as_expr(left)
        if not isinstance(right, Expr):
            right = _as_expr(right)
        key = (left, right)
        inst = _INTERN_SUM.get(key)
        if inst is None:
            inst = super().__new__(cls)
            object.__setattr__(inst, "left", left)
            object.__setattr__(inst, "right", right)
            _INTERN_SUM[key] = inst
        return inst

    def __init__(self, left: Expr, right: Expr):
        pass  # fields are set in __new__ exactly once per interned node

    def __reduce__(self):
        return (Sum, (self.left, self.right))

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)


@dataclass(frozen=True, repr=False, eq=False)
class Product(Expr):
    """A binary product ``left · right`` (sequential composition)."""

    left: Expr
    right: Expr

    __slots__ = ("left", "right")

    def __new__(cls, left: Expr, right: Expr) -> "Product":
        if not isinstance(left, Expr):
            left = _as_expr(left)
        if not isinstance(right, Expr):
            right = _as_expr(right)
        key = (left, right)
        inst = _INTERN_PRODUCT.get(key)
        if inst is None:
            inst = super().__new__(cls)
            object.__setattr__(inst, "left", left)
            object.__setattr__(inst, "right", right)
            _INTERN_PRODUCT[key] = inst
        return inst

    def __init__(self, left: Expr, right: Expr):
        pass  # fields are set in __new__ exactly once per interned node

    def __reduce__(self):
        return (Product, (self.left, self.right))

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)


@dataclass(frozen=True, repr=False, eq=False)
class Star(Expr):
    """The Kleene star ``body*``."""

    body: Expr

    __slots__ = ("body",)

    def __new__(cls, body: Expr) -> "Star":
        if not isinstance(body, Expr):
            body = _as_expr(body)
        inst = _INTERN_STAR.get(body)
        if inst is None:
            inst = super().__new__(cls)
            object.__setattr__(inst, "body", body)
            _INTERN_STAR[body] = inst
        return inst

    def __init__(self, body: Expr):
        pass  # fields are set in __new__ exactly once per interned node

    def __reduce__(self):
        return (Star, (self.body,))

    def children(self) -> Tuple[Expr, ...]:
        return (self.body,)


ZERO = Zero()
ONE = One()


def intern_stats() -> Dict[str, int]:
    """Live entry counts of the weak intern tables (for diagnostics)."""
    return {
        "symbol": len(_INTERN_SYMBOL),
        "sum": len(_INTERN_SUM),
        "product": len(_INTERN_PRODUCT),
        "star": len(_INTERN_STAR),
    }


def sym(name: str) -> Symbol:
    """Create a single atomic symbol."""
    return Symbol(name)


def symbols(names: str) -> Tuple[Symbol, ...]:
    """Create several symbols from a whitespace- or comma-separated string.

    >>> m0, p, m1 = symbols("m0 p m1")
    """
    parts = names.replace(",", " ").split()
    return tuple(Symbol(part) for part in parts)


def sum_of(terms: Sequence[Expr]) -> Expr:
    """Left-associated sum of a sequence of terms (empty sum is ``0``)."""
    terms = list(terms)
    if not terms:
        return ZERO
    return reduce(Sum, terms)


def product_of(factors: Sequence[Expr]) -> Expr:
    """Left-associated product of a sequence (empty product is ``1``)."""
    factors = list(factors)
    if not factors:
        return ONE
    return reduce(Product, factors)


def _flatten(expr: Expr, kind: type) -> List[Expr]:
    """The maximal ``kind`` (``Sum``/``Product``) chain under ``expr``,
    left to right, without recursion."""
    items: List[Expr] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, kind):
            stack.append(node.right)
            stack.append(node.left)
        else:
            items.append(node)
    return items


def sum_terms(expr: Expr) -> List[Expr]:
    """Flatten nested binary sums into a list of non-``Sum`` terms."""
    return _flatten(expr, Sum)


def product_factors(expr: Expr) -> List[Expr]:
    """Flatten nested binary products into a list of non-``Product`` factors."""
    return _flatten(expr, Product)


_ALPHABET_CACHE = LRUCache("expr.alphabet", maxsize=1 << 16)


def _fold(expr: Expr, combine, memo=None):
    """Bottom-up fold over ``expr``'s DAG with an explicit stack, so an
    expression of any depth is walked without recursion.

    ``combine(node, child_values)`` gives a node's value from its
    children's values; each distinct node is combined once.  ``memo``, if
    given, is an :class:`LRUCache` of composite nodes' values, consulted
    before and filled after each combine (the local dict keeps the walk
    correct when the walk outgrows it).
    """
    values: Dict[Expr, object] = {}
    stack = [expr]
    while stack:
        node = stack[-1]
        if node in values:
            stack.pop()
            continue
        children = node.children()
        value = memo.get(node) if memo is not None and children else None
        if value is None:
            pending = [child for child in children if child not in values]
            if pending:
                stack.extend(pending)
                continue
            value = combine(node, [values[child] for child in children])
            if memo is not None and children:
                memo.put(node, value)
        values[node] = value
        stack.pop()
    return values[expr]


def _letters(node: Expr, children: List[FrozenSet[str]]) -> FrozenSet[str]:
    if isinstance(node, Symbol):
        return frozenset((node.name,))
    return frozenset().union(*children)


def alphabet(expr: Expr) -> FrozenSet[str]:
    """The set of symbol names occurring in ``expr`` (memoized per node)."""
    if isinstance(expr, Symbol):
        return frozenset((expr.name,))
    return _fold(expr, _letters, _ALPHABET_CACHE)


def expr_size(expr: Expr) -> int:
    """Number of AST nodes (a standard size measure for benchmarks)."""
    return _fold(expr, lambda node, children: 1 + sum(children))


def star_height(expr: Expr) -> int:
    """Maximum nesting depth of stars."""
    return _fold(
        expr,
        lambda node, children: (
            1 + children[0] if isinstance(node, Star) else max(children, default=0)
        ),
    )


def substitute(expr: Expr, mapping: Dict[str, Expr]) -> Expr:
    """Replace every symbol named in ``mapping`` with the mapped expression.

    This is simultaneous (capture-free — symbols have no binders) textual
    substitution, the operation used to instantiate axiom schemata.
    """
    if isinstance(expr, Symbol):
        return mapping.get(expr.name, expr)
    if isinstance(expr, Sum):
        return Sum(substitute(expr.left, mapping), substitute(expr.right, mapping))
    if isinstance(expr, Product):
        return Product(substitute(expr.left, mapping), substitute(expr.right, mapping))
    if isinstance(expr, Star):
        return Star(substitute(expr.body, mapping))
    return expr


def subterms(expr: Expr) -> Iterator[Expr]:
    """Yield every subterm of ``expr`` (including itself), pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


# -- rendering -----------------------------------------------------------------


def _precedence(expr: Expr) -> int:
    if isinstance(expr, Sum):
        return 1
    if isinstance(expr, Product):
        return 2
    return 3


def _render(expr: Expr) -> str:
    """Surface syntax with minimal parentheses: ``+`` binds loosest, then
    juxtaposition, then ``*``; sums and products print flattened.

    The walk keeps its own stack of pending nodes and literal pieces, so
    expressions of any depth render.
    """
    pieces: List[str] = []
    # Each entry is a literal piece or a (node, parent precedence) pair.
    stack: List[Union[str, Tuple[Expr, int]]] = [(expr, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            pieces.append(item)
            continue
        node, parent_prec = item
        if isinstance(node, (Zero, One, Symbol)):
            pieces.append(str(node))  # atoms never need parentheses
            continue
        if isinstance(node, Star):
            parts: List[Union[str, Tuple[Expr, int]]] = [(node.body, 4), "*"]
            prec = 3
        elif isinstance(node, Sum):
            prec = 1
            parts = []
            for term in sum_terms(node):
                parts += [" + ", (term, prec)]
            del parts[0]
        elif isinstance(node, Product):
            prec = 2
            parts = []
            for factor in product_factors(node):
                parts += [" ", (factor, prec + 1)]
            del parts[0]
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown expression node {node!r}")
        if prec < parent_prec:
            parts = ["(", *parts, ")"]
        stack.extend(reversed(parts))
    return "".join(pieces)
