"""Term rewriting modulo the structural theory of NKA, on interned terms.

The equational steps in the paper's derivations (Sections 5, 6, Appendix B,
Appendix C) silently work *modulo* associativity of ``·``, associativity and
commutativity of ``+``, the unit laws for ``0``/``1`` and the annihilator
law ``0·p = p·0 = 0``.  This module implements that structural theory:

* **flattened terms** (:class:`FTerm`): ``+`` becomes an n-ary multiset
  (stored canonically sorted), ``·`` an n-ary sequence, with units and the
  annihilator normalised away;
* **AC matching** (:func:`match`): patterns are expressions over
  metavariables; in a product a metavariable may match any non-empty
  contiguous block of factors, in a sum any non-empty sub-multiset of
  summands — exactly what is needed so that e.g. the fixed-point law
  ``1 + p p* = p*`` applies inside ``1 + m0 p (m0 p)* + x``;
* **occurrence rewriting** (:func:`rewrite_candidates`): applies an oriented
  equation at any subterm, including partial slices of products and subsets
  of sums, yielding every result reachable in one step.

Interned-term architecture
--------------------------

Flattened terms are **hash-consed** exactly like :class:`repro.core.expr.Expr`
nodes: every constructor consults a weak per-process intern table, so
structurally equal terms are *pointer-identical*.  Consequences the engine
relies on:

* ``==`` and ``hash`` are identity-based and O(1) — candidate sets, visited
  sets and memo tables stop re-hashing whole subtrees on every insertion;
* ``sort_key`` is computed once, at intern time, into a slot (children are
  already interned, so their keys are one attribute read away);
* :func:`make_sum` / :func:`make_prod` canonicalise *through* the intern
  tables: the canonically sorted multiset representation means two AC-equal
  sums intern to the same node, so :func:`ac_equivalent` is a pointer check
  and a *ground* rewrite rule matches a subject iff pattern ``is`` subject;
* the intern tables hold only weak references — terms no longer reachable
  are collected and their entries disappear, so interning never leaks and
  must **never** be cleared manually (clearing would mint fresh twins of
  live terms and break the identity invariant).  Table sizes and hit rates
  are reported through :func:`repro.util.cache.all_cache_stats` under
  ``rewrite.interned`` (and :func:`fterm_intern_stats`).

On top of the interned core sits an **indexed rewrite engine**:

* :func:`compile_rule` flattens a rule's pattern once and records its *head
  shape* — outermost constructor plus leading ground symbol — in a bounded
  LRU (``rewrite.rules``); occurrence enumeration skips any subterm whose
  shape cannot possibly match (:func:`rewrite_candidates`,
  :func:`rewrite_with_substitutions`);
* match results are memoized per ``(pattern, subject, variables)`` node
  triple in ``rewrite.match`` — proof search asks the same question at the
  same interned subterm thousands of times;
* :class:`RuleIndex` buckets a whole law set by head shape so
  :func:`reachable_by_rules` enumerates the occurrences of each frontier
  term *once* and consults only the laws whose shape admits the occurrence,
  with an identity-keyed visited set bounding the BFS.

All derived memo tables (``rewrite.flatten``, ``rewrite.match``,
``rewrite.rules``) are bounded LRUs registered with :mod:`repro.util.cache`
(cleared by :func:`repro.core.decision.clear_caches`; clearing never changes
answers because the weak intern tables preserve node identity).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import product as iter_product
from operator import attrgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.expr import (
    Expr,
    One,
    Product,
    Star,
    Sum,
    Symbol,
    Zero,
    product_factors,
    product_of,
    sum_of,
    sum_terms,
)
from repro.util.cache import CacheStats, LRUCache, register_stats_provider

__all__ = [
    "FTerm",
    "FZero",
    "FOne",
    "FSym",
    "FStar",
    "FProd",
    "FSum",
    "make_sum",
    "make_prod",
    "flatten",
    "unflatten",
    "ac_equivalent",
    "Substitution",
    "match",
    "match_all",
    "instantiate",
    "CompiledRule",
    "compile_rule",
    "RuleIndex",
    "rewrite_candidates",
    "rewrite_with_substitutions",
    "rewrites_to",
    "first_rewrite",
    "reachable_by_rules",
    "fterm_intern_stats",
]


# -- interned flattened terms ---------------------------------------------------

# Interning hit/miss counters (one pair across all six constructors; the
# per-table live sizes are reported by fterm_intern_stats()).
_intern_hits = 0
_intern_misses = 0


class FTerm:
    """Base class of flattened terms (immutable, interned, totally ordered).

    Instances are hash-consed: constructors intern through weak per-process
    tables, so ``==``/``hash`` are identity-based O(1) operations and
    ``sort_key`` is a slot filled once at intern time.
    """

    __slots__ = ("__weakref__",)

    def sort_key(self) -> Tuple:
        return self._sort_key

    def __repr__(self) -> str:
        return f"FTerm[{self}]"


_SORT_KEY = attrgetter("_sort_key")


@dataclass(frozen=True, repr=False, eq=False)
class FZero(FTerm):
    """The flattened ``0``.  A singleton."""

    __slots__ = ("_sort_key",)
    _instance = None

    def __new__(cls) -> "FZero":
        inst = cls._instance
        if inst is None:
            inst = super().__new__(cls)
            object.__setattr__(inst, "_sort_key", (0,))
            cls._instance = inst
        return inst

    def __reduce__(self):
        return (FZero, ())

    def __str__(self) -> str:
        return "0"


@dataclass(frozen=True, repr=False, eq=False)
class FOne(FTerm):
    """The flattened ``1``.  A singleton."""

    __slots__ = ("_sort_key",)
    _instance = None

    def __new__(cls) -> "FOne":
        inst = cls._instance
        if inst is None:
            inst = super().__new__(cls)
            object.__setattr__(inst, "_sort_key", (1,))
            cls._instance = inst
        return inst

    def __reduce__(self):
        return (FOne, ())

    def __str__(self) -> str:
        return "1"


_INTERN_FSYM: "weakref.WeakValueDictionary[str, FSym]" = weakref.WeakValueDictionary()
_INTERN_FSTAR: "weakref.WeakValueDictionary[FTerm, FStar]" = weakref.WeakValueDictionary()
_INTERN_FPROD: "weakref.WeakValueDictionary[Tuple[FTerm, ...], FProd]" = weakref.WeakValueDictionary()
_INTERN_FSUM: "weakref.WeakValueDictionary[Tuple[FTerm, ...], FSum]" = weakref.WeakValueDictionary()


@dataclass(frozen=True, repr=False, eq=False)
class FSym(FTerm):
    """An atomic symbol (or a pattern metavariable)."""

    name: str
    __slots__ = ("name", "_sort_key")

    def __new__(cls, name: str) -> "FSym":
        global _intern_hits, _intern_misses
        inst = _INTERN_FSYM.get(name)
        if inst is not None:
            _intern_hits += 1
            return inst
        _intern_misses += 1
        inst = super().__new__(cls)
        object.__setattr__(inst, "name", name)
        object.__setattr__(inst, "_sort_key", (2, name))
        _INTERN_FSYM[name] = inst
        return inst

    def __init__(self, name: str):
        pass  # fields are set in __new__ exactly once per interned node

    def __reduce__(self):
        return (FSym, (self.name,))

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, repr=False, eq=False)
class FStar(FTerm):
    """The star of a flattened body."""

    body: FTerm
    __slots__ = ("body", "_sort_key")

    def __new__(cls, body: FTerm) -> "FStar":
        global _intern_hits, _intern_misses
        inst = _INTERN_FSTAR.get(body)
        if inst is not None:
            _intern_hits += 1
            return inst
        _intern_misses += 1
        inst = super().__new__(cls)
        object.__setattr__(inst, "body", body)
        object.__setattr__(inst, "_sort_key", (3, body._sort_key))
        _INTERN_FSTAR[body] = inst
        return inst

    def __init__(self, body: FTerm):
        pass  # fields are set in __new__ exactly once per interned node

    def __reduce__(self):
        return (FStar, (self.body,))

    def __str__(self) -> str:
        body = str(self.body)
        if isinstance(self.body, (FSym, FZero, FOne)):
            return f"{body}*"
        return f"({body})*"


@dataclass(frozen=True, repr=False, eq=False)
class FProd(FTerm):
    """An n-ary product; ``args`` has length ≥ 2, no ``FProd``/``FOne`` inside."""

    args: Tuple[FTerm, ...]
    __slots__ = ("args", "_sort_key")

    def __new__(cls, args: Tuple[FTerm, ...]) -> "FProd":
        global _intern_hits, _intern_misses
        inst = _INTERN_FPROD.get(args)
        if inst is not None:
            _intern_hits += 1
            return inst
        _intern_misses += 1
        inst = super().__new__(cls)
        object.__setattr__(inst, "args", args)
        object.__setattr__(inst, "_sort_key", (4, tuple(a._sort_key for a in args)))
        _INTERN_FPROD[args] = inst
        return inst

    def __init__(self, args: Tuple[FTerm, ...]):
        pass  # fields are set in __new__ exactly once per interned node

    def __reduce__(self):
        return (FProd, (self.args,))

    def __str__(self) -> str:
        parts = []
        for arg in self.args:
            text = str(arg)
            parts.append(f"({text})" if isinstance(arg, FSum) else text)
        return " ".join(parts)


@dataclass(frozen=True, repr=False, eq=False)
class FSum(FTerm):
    """An n-ary sum as a canonically sorted multiset; length ≥ 2."""

    args: Tuple[FTerm, ...]
    __slots__ = ("args", "_sort_key")

    def __new__(cls, args: Tuple[FTerm, ...]) -> "FSum":
        global _intern_hits, _intern_misses
        inst = _INTERN_FSUM.get(args)
        if inst is not None:
            _intern_hits += 1
            return inst
        _intern_misses += 1
        inst = super().__new__(cls)
        object.__setattr__(inst, "args", args)
        object.__setattr__(inst, "_sort_key", (5, tuple(a._sort_key for a in args)))
        _INTERN_FSUM[args] = inst
        return inst

    def __init__(self, args: Tuple[FTerm, ...]):
        pass  # fields are set in __new__ exactly once per interned node

    def __reduce__(self):
        return (FSum, (self.args,))

    def __str__(self) -> str:
        return " + ".join(str(arg) for arg in self.args)


_FZERO = FZero()
_FONE = FOne()


def fterm_intern_stats() -> Dict[str, int]:
    """Live entry counts of the weak FTerm intern tables (for diagnostics)."""
    return {
        "fsym": len(_INTERN_FSYM),
        "fstar": len(_INTERN_FSTAR),
        "fprod": len(_INTERN_FPROD),
        "fsum": len(_INTERN_FSUM),
    }


def _interned_stats() -> CacheStats:
    """Adapter exposing the weak intern tables in ``all_cache_stats()``.

    ``maxsize=0`` flags the entry as unbounded-and-weak: there is nothing to
    clear — entries vanish with their last strong reference, and clearing
    would break the identity invariant for live terms.
    """
    live = sum(fterm_intern_stats().values())
    return CacheStats(
        name="rewrite.interned",
        maxsize=0,
        currsize=live,
        hits=_intern_hits,
        misses=_intern_misses,
        evictions=0,
    )


register_stats_provider("rewrite.interned", _interned_stats)


def make_sum(args: Sequence[FTerm]) -> FTerm:
    """Smart constructor: flatten, drop zeros, canonicalise order, intern."""
    collected: List[FTerm] = []
    for arg in args:
        cls = type(arg)
        if cls is FSum:
            collected.extend(arg.args)
        elif cls is not FZero:
            collected.append(arg)
    if not collected:
        return _FZERO
    if len(collected) == 1:
        return collected[0]
    collected.sort(key=_SORT_KEY)
    return FSum(tuple(collected))


def make_prod(args: Sequence[FTerm]) -> FTerm:
    """Smart constructor: flatten, drop units, annihilate on zero, intern."""
    collected: List[FTerm] = []
    for arg in args:
        cls = type(arg)
        if cls is FZero:
            return _FZERO
        if cls is FProd:
            collected.extend(arg.args)
        elif cls is not FOne:
            collected.append(arg)
    if not collected:
        return _FONE
    if len(collected) == 1:
        return collected[0]
    return FProd(tuple(collected))


_FLATTEN_CACHE = LRUCache("rewrite.flatten", maxsize=1 << 16)


_ATOMS = (Zero, One, Symbol)


def _flatten_atom(expr: Expr) -> FTerm:
    if isinstance(expr, Zero):
        return _FZERO
    if isinstance(expr, One):
        return _FONE
    return FSym(expr.name)


def flatten(expr: Expr) -> FTerm:
    """Normalise an expression into its flattened canonical form.

    Memoized per node (expressions are interned, so the cache key is the
    node itself); repeated normalisation of shared subterms is O(1).  The
    result is itself interned, so ``flatten(e1) is flatten(e2)`` whenever
    ``e1`` and ``e2`` are AC-equal.

    The walk keeps its own stack, so an expression of any depth flattens.
    A maximal chain of ``+`` (or ``·``) is one step: its operands are
    flattened and joined by one :func:`make_sum` (:func:`make_prod`), which
    builds the same interned node as joining them pairwise, without the
    intermediate terms (quadratic in the chain's length).  Only chain roots
    and stars are memoized.
    """
    if isinstance(expr, _ATOMS):
        return _flatten_atom(expr)
    cached = _FLATTEN_CACHE.get(expr)
    if cached is not None:
        return cached
    values: Dict[Expr, FTerm] = {}
    # (node, operands): operands is None until the node has been expanded.
    stack: List[Tuple[Expr, Optional[List[Expr]]]] = [(expr, None)]
    while stack:
        node, operands = stack.pop()
        if operands is None:
            if node in values:
                continue
            if isinstance(node, _ATOMS):
                values[node] = _flatten_atom(node)
                continue
            if node is not expr:
                cached = _FLATTEN_CACHE.get(node)
                if cached is not None:
                    values[node] = cached
                    continue
            if isinstance(node, Star):
                operands = [node.body]
            elif isinstance(node, Sum):
                operands = sum_terms(node)
            elif isinstance(node, Product):
                operands = product_factors(node)
            else:
                raise TypeError(f"unknown expression node {node!r}")  # pragma: no cover
            stack.append((node, operands))
            stack.extend((operand, None) for operand in operands)
            continue
        flat = [values[operand] for operand in operands]
        if isinstance(node, Star):
            result = FStar(flat[0])
        elif isinstance(node, Sum):
            result = make_sum(flat)
        else:
            result = make_prod(flat)
        _FLATTEN_CACHE.put(node, result)
        values[node] = result
    return values[expr]


def unflatten(term: FTerm) -> Expr:
    """Convert a flattened term back to a binary expression tree."""
    if isinstance(term, FZero):
        return Zero()
    if isinstance(term, FOne):
        return One()
    if isinstance(term, FSym):
        return Symbol(term.name)
    if isinstance(term, FStar):
        return Star(unflatten(term.body))
    if isinstance(term, FProd):
        return product_of([unflatten(arg) for arg in term.args])
    if isinstance(term, FSum):
        return sum_of([unflatten(arg) for arg in term.args])
    raise TypeError(f"unknown flattened term {term!r}")  # pragma: no cover


def ac_equivalent(left: Expr, right: Expr) -> bool:
    """Equality modulo AC of ``+``, A of ``·``, units and annihilator.

    A pointer comparison: AC-equal expressions flatten to the same interned
    node.
    """
    return flatten(left) is flatten(right)


# -- matching ---------------------------------------------------------------------

Substitution = Dict[str, FTerm]


def _as_factors(term: FTerm) -> Tuple[FTerm, ...]:
    if isinstance(term, FProd):
        return term.args
    if isinstance(term, FOne):
        return ()
    return (term,)


def _as_summands(term: FTerm) -> Tuple[FTerm, ...]:
    if isinstance(term, FSum):
        return term.args
    if isinstance(term, FZero):
        return ()
    return (term,)


def match(
    pattern: FTerm,
    subject: FTerm,
    variables: FrozenSet[str],
    subst: Optional[Substitution] = None,
) -> Iterator[Substitution]:
    """Yield every substitution ``σ`` with ``σ(pattern) == subject``.

    ``variables`` names the metavariables of the pattern; other symbols are
    constants.  Metavariables match non-empty pieces only (a variable is
    never bound to ``1`` inside a product or ``0`` inside a sum); laws whose
    application needs a unit instantiation can be applied with an explicit
    substitution instead (see :meth:`repro.core.proof.Proof.step`).
    """
    if subst is None:
        subst = {}
    yield from _match(pattern, subject, variables, subst)


_MATCH_CACHE = LRUCache("rewrite.match", maxsize=1 << 15)


def match_all(
    pattern: FTerm, subject: FTerm, variables: FrozenSet[str]
) -> Tuple[Substitution, ...]:
    """All matches of ``pattern`` against ``subject``, memoized by identity.

    The key is the interned ``(pattern, subject, variables)`` triple, so the
    memo survives across rules, proof steps and BFS frontiers that revisit
    the same subterm.  Returned substitutions are shared — treat them as
    immutable.
    """
    if not variables:
        # Ground pattern: σ is empty and σ(pattern) == subject iff the two
        # interned nodes coincide.
        return (_EMPTY_SUBST,) if pattern is subject else ()
    key = (pattern, subject, variables)
    cached = _MATCH_CACHE.get(key)
    if cached is None:
        cached = tuple(_match(pattern, subject, variables, {}))
        _MATCH_CACHE.put(key, cached)
    return cached


_EMPTY_SUBST: Substitution = {}


def _match(
    pattern: FTerm, subject: FTerm, variables: FrozenSet[str], subst: Substitution
) -> Iterator[Substitution]:
    if isinstance(pattern, FSym) and pattern.name in variables:
        bound = subst.get(pattern.name)
        if bound is None:
            extended = dict(subst)
            extended[pattern.name] = subject
            yield extended
        elif bound is subject:
            yield subst
        return
    if isinstance(pattern, (FZero, FOne, FSym)):
        if pattern is subject:
            yield subst
        return
    if isinstance(pattern, FStar):
        if isinstance(subject, FStar):
            yield from _match(pattern.body, subject.body, variables, subst)
        return
    if isinstance(pattern, FProd):
        yield from _match_product(pattern.args, _as_factors(subject), variables, subst)
        return
    if isinstance(pattern, FSum):
        yield from _match_sum(list(pattern.args), list(_as_summands(subject)), variables, subst)
        return
    raise TypeError(f"unknown pattern {pattern!r}")  # pragma: no cover


def _match_product(
    pattern_args: Tuple[FTerm, ...],
    subject_args: Tuple[FTerm, ...],
    variables: FrozenSet[str],
    subst: Substitution,
) -> Iterator[Substitution]:
    if not pattern_args:
        if not subject_args:
            yield subst
        return
    head, rest = pattern_args[0], pattern_args[1:]
    if isinstance(head, FSym) and head.name in variables:
        bound = subst.get(head.name)
        if bound is not None:
            bound_factors = _as_factors(bound)
            width = len(bound_factors)
            if subject_args[:width] == bound_factors and width > 0:
                yield from _match_product(rest, subject_args[width:], variables, subst)
            return
        # A free variable takes any non-empty prefix, leaving at least one
        # factor per remaining mandatory pattern element.
        max_take = len(subject_args) - _min_width(rest, variables, subst)
        for take in range(1, max_take + 1):
            block = make_prod(subject_args[:take])
            extended = dict(subst)
            extended[head.name] = block
            yield from _match_product(rest, subject_args[take:], variables, extended)
        return
    if not subject_args:
        return
    for inner in _match(head, subject_args[0], variables, subst):
        yield from _match_product(rest, subject_args[1:], variables, inner)


def _min_width(
    pattern_args: Tuple[FTerm, ...], variables: FrozenSet[str], subst: Substitution
) -> int:
    total = 0
    for arg in pattern_args:
        if isinstance(arg, FSym) and arg.name in variables and arg.name in subst:
            total += len(_as_factors(subst[arg.name]))
        else:
            total += 1
    return total


def _match_sum(
    pattern_args: List[FTerm],
    subject_args: List[FTerm],
    variables: FrozenSet[str],
    subst: Substitution,
) -> Iterator[Substitution]:
    # Phase 1: bound variables and non-variable elements consume summands.
    free_vars: List[str] = []
    deferred: List[FTerm] = []
    for arg in pattern_args:
        if isinstance(arg, FSym) and arg.name in variables and arg.name not in subst:
            free_vars.append(arg.name)
        else:
            deferred.append(arg)

    def consume(
        elements: List[FTerm], remaining: List[FTerm], current: Substitution
    ) -> Iterator[Tuple[List[FTerm], Substitution]]:
        if not elements:
            yield remaining, current
            return
        element, rest = elements[0], elements[1:]
        if isinstance(element, FSym) and element.name in variables:
            # Bound variable: remove its summands from the remaining multiset.
            pieces = list(_as_summands(current[element.name]))
            reduced = _remove_multiset(remaining, pieces)
            if reduced is not None:
                yield from consume(rest, reduced, current)
            return
        tried: set = set()
        for index, candidate in enumerate(remaining):
            if candidate in tried:
                continue
            tried.add(candidate)
            for inner in _match(element, candidate, variables, current):
                yield from consume(
                    rest, remaining[:index] + remaining[index + 1:], inner
                )

    for remaining, current in consume(deferred, list(subject_args), dict(subst)):
        # A variable that looked free on entry may have been bound while a
        # non-variable element was matched (repeated variables, e.g. the
        # pattern ``q + p q``).  Such a variable must consume exactly its
        # binding's summands — handing it an arbitrary share of ``remaining``
        # would silently overwrite the binding with an inconsistent one.
        still_free: List[str] = []
        consistent = True
        for name in free_vars:
            bound = current.get(name)
            if bound is None:
                still_free.append(name)
                continue
            reduced = _remove_multiset(remaining, list(_as_summands(bound)))
            if reduced is None:
                consistent = False
                break
            remaining = reduced
        if not consistent:
            continue
        if not still_free:
            if not remaining:
                yield current
            continue
        yield from _distribute(still_free, remaining, current)


def _remove_multiset(pool: List[FTerm], pieces: List[FTerm]) -> Optional[List[FTerm]]:
    remaining = list(pool)
    for piece in pieces:
        if piece in remaining:
            remaining.remove(piece)
        else:
            return None
    return remaining


_MAX_DISTRIBUTIONS = 20000


def _distribute(
    free_vars: List[str], remaining: List[FTerm], subst: Substitution
) -> Iterator[Substitution]:
    k, n = len(free_vars), len(remaining)
    if n < k:
        return
    if k == 1:
        extended = dict(subst)
        extended[free_vars[0]] = make_sum(remaining)
        yield extended
        return
    if k ** n > _MAX_DISTRIBUTIONS:
        # Degenerate guard; the laws in this library never hit it.
        return
    seen: set = set()
    for assignment in iter_product(range(k), repeat=n):
        if len(set(assignment)) != k:
            continue
        groups: List[List[FTerm]] = [[] for _ in range(k)]
        for item, owner in zip(remaining, assignment):
            groups[owner].append(item)
        key = tuple(make_sum(group) for group in groups)
        if key in seen:
            continue
        seen.add(key)
        extended = dict(subst)
        for var, group_term in zip(free_vars, key):
            extended[var] = group_term
        yield extended


# -- instantiation ------------------------------------------------------------------


def instantiate(pattern: Expr, subst: Substitution, variables: FrozenSet[str]) -> FTerm:
    """Flatten ``pattern`` with metavariables replaced by their bindings."""

    def walk(node: Expr) -> FTerm:
        if isinstance(node, Symbol):
            if node.name in variables:
                if node.name not in subst:
                    raise KeyError(f"unbound metavariable {node.name!r}")
                return subst[node.name]
            return FSym(node.name)
        if isinstance(node, Zero):
            return _FZERO
        if isinstance(node, One):
            return _FONE
        if isinstance(node, Sum):
            return make_sum([walk(node.left), walk(node.right)])
        if isinstance(node, Product):
            return make_prod([walk(node.left), walk(node.right)])
        if isinstance(node, Star):
            return FStar(walk(node.body))
        raise TypeError(f"unknown expression node {node!r}")  # pragma: no cover

    return walk(pattern)


# -- compiled rules and head-shape indexing ------------------------------------------

# Head-shape kinds.  ANY admits every occurrence (pattern root is a free
# metavariable); ATOM admits exactly one interned node (ground patterns and
# constant roots); the rest gate on the outermost constructor, with products
# additionally gated on a leading ground symbol and a minimum arity.
_K_ANY, _K_ATOM, _K_STAR, _K_PROD, _K_SUM = range(5)


class CompiledRule:
    """An oriented rewrite rule with its pattern flattened and shape-keyed.

    ``pattern`` is the interned flattened LHS; ``kind``/``lead``/``min_arity``
    encode the head shape used to skip incompatible occurrences without
    invoking the matcher; for ground rules (``variables`` empty) ``rhs_flat``
    caches the interned replacement so application is rebuild-only.
    """

    __slots__ = ("lhs", "rhs", "variables", "pattern", "kind", "lead",
                 "min_arity", "ground", "rhs_flat")

    def __init__(self, lhs: Expr, rhs: Expr, variables: FrozenSet[str]):
        self.lhs = lhs
        self.rhs = rhs
        self.variables = variables
        pattern = flatten(lhs)
        self.pattern = pattern
        self.ground = not variables
        self.rhs_flat = flatten(rhs) if self.ground else None
        self.lead: Optional[FTerm] = None
        self.min_arity = 0
        if self.ground:
            self.kind = _K_ATOM
            self.lead = pattern
        elif isinstance(pattern, FSym):
            if pattern.name in variables:
                self.kind = _K_ANY
            else:
                self.kind = _K_ATOM
                self.lead = pattern
        elif isinstance(pattern, (FZero, FOne)):
            self.kind = _K_ATOM
            self.lead = pattern
        elif isinstance(pattern, FStar):
            self.kind = _K_STAR
        elif isinstance(pattern, FProd):
            self.kind = _K_PROD
            self.min_arity = len(pattern.args)
            first = pattern.args[0]
            if isinstance(first, FSym) and first.name not in variables:
                self.lead = first
        elif isinstance(pattern, FSum):
            self.kind = _K_SUM
            self.min_arity = len(pattern.args)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown pattern {pattern!r}")

    def admits(self, occurrence: FTerm) -> bool:
        """Cheap necessary condition for ``pattern`` to match ``occurrence``."""
        kind = self.kind
        if kind == _K_ANY:
            return True
        if kind == _K_ATOM:
            return occurrence is self.lead
        cls = type(occurrence)
        if kind == _K_STAR:
            return cls is FStar
        if kind == _K_PROD:
            return (
                cls is FProd
                and len(occurrence.args) >= self.min_arity
                and (self.lead is None or occurrence.args[0] is self.lead)
            )
        return cls is FSum and len(occurrence.args) >= self.min_arity

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"CompiledRule[{self.lhs} -> {self.rhs}]"


_RULE_CACHE = LRUCache("rewrite.rules", maxsize=4096)


def compile_rule(lhs: Expr, rhs: Expr, variables: FrozenSet[str]) -> CompiledRule:
    """Compile (and memoize, by node identity) an oriented rewrite rule."""
    key = (lhs, rhs, variables)
    cached = _RULE_CACHE.get(key)
    if cached is None:
        cached = CompiledRule(lhs, rhs, variables)
        _RULE_CACHE.put(key, cached)
    return cached


RuleTriple = Tuple[Expr, Expr, FrozenSet[str]]


class RuleIndex:
    """A law set bucketed by pattern head shape.

    ``candidates_for(occurrence)`` returns only the rules whose head shape
    can possibly match the occurrence: exact-node buckets for atoms and
    ground patterns, constructor buckets for stars/sums, and leading-symbol
    buckets for products.  Rules rooted at a free metavariable sit in a
    wildcard bucket consulted for every occurrence.
    """

    __slots__ = ("rules", "_atom", "_star", "_prod_lead", "_prod_any",
                 "_sum", "_any")

    def __init__(self, rules: Iterable[Union[RuleTriple, CompiledRule]]):
        self.rules: List[CompiledRule] = [
            rule if isinstance(rule, CompiledRule) else compile_rule(*rule)
            for rule in rules
        ]
        self._atom: Dict[FTerm, List[CompiledRule]] = {}
        self._star: List[CompiledRule] = []
        self._prod_lead: Dict[FTerm, List[CompiledRule]] = {}
        self._prod_any: List[CompiledRule] = []
        self._sum: List[CompiledRule] = []
        self._any: List[CompiledRule] = []
        for rule in self.rules:
            if rule.kind == _K_ANY:
                self._any.append(rule)
            elif rule.kind == _K_ATOM:
                self._atom.setdefault(rule.lead, []).append(rule)
            elif rule.kind == _K_STAR:
                self._star.append(rule)
            elif rule.kind == _K_PROD:
                if rule.lead is not None:
                    self._prod_lead.setdefault(rule.lead, []).append(rule)
                else:
                    self._prod_any.append(rule)
            else:
                self._sum.append(rule)

    def __len__(self) -> int:
        return len(self.rules)

    def candidates_for(self, occurrence: FTerm) -> List[CompiledRule]:
        cls = type(occurrence)
        out: List[CompiledRule] = []
        if cls is FProd:
            lead_bucket = self._prod_lead.get(occurrence.args[0])
            if lead_bucket:
                out.extend(lead_bucket)
            out.extend(self._prod_any)
        elif cls is FSum:
            out.extend(self._sum)
        elif cls is FStar:
            out.extend(self._star)
        atom_bucket = self._atom.get(occurrence)
        if atom_bucket:
            out.extend(atom_bucket)
        out.extend(self._any)
        return out


# -- occurrence rewriting --------------------------------------------------------------

_Context = Callable[[FTerm], FTerm]
_MAX_SUM_SUBSETS = 10

_OCCURRENCES_CACHE = LRUCache("rewrite.occurrences", maxsize=1 << 13)


class _MemoSeq:
    """A lazily-filled, replayable view of an occurrence enumeration.

    Rewriting both *re-enumerates* the same interned subject across proof
    steps (worth caching) and *abandons* enumerations early (``rewrites_to``
    stops at the target, ``first_rewrite`` after one hit) — so neither a
    plain generator (no reuse) nor an eager tuple (no early exit) is right.
    This buffers items as they are first pulled; every later iteration
    replays the buffer and only extends it on demand, so the skeleton of a
    repeated subject is enumerated at most once *up to the deepest position
    any caller ever reached*.
    """

    __slots__ = ("_source", "_buffer", "_exhausted")

    def __init__(self, source: Iterator[Tuple[FTerm, _Context]]):
        self._source = source
        self._buffer: List[Tuple[FTerm, _Context]] = []
        self._exhausted = False

    def __iter__(self) -> Iterator[Tuple[FTerm, _Context]]:
        if self._exhausted:
            # Fully-buffered sequences (every full scan, e.g. a ground-rule
            # identity sweep, exhausts the source) replay as a plain list
            # iterator — no generator frame per item.
            return iter(self._buffer)
        return self._replay_and_fill()

    def _replay_and_fill(self) -> Iterator[Tuple[FTerm, _Context]]:
        buffer = self._buffer
        index = 0
        while True:
            if index < len(buffer):
                yield buffer[index]
                index += 1
                continue
            if self._exhausted:
                return
            try:
                item = next(self._source)
            except StopIteration:
                self._exhausted = True
                return
            buffer.append(item)
            # No index bump: re-read the slot in case a nested iteration of
            # the same memo advanced the buffer past us meanwhile.


def _occurrences(term: FTerm) -> _MemoSeq:
    """The ``(occurrence, rebuild)`` skeleton of ``term``, memoized per node.

    Subjects repeat across proof steps and BFS frontiers (they are interned,
    so repetition is pointer identity), yet the position skeleton used to be
    re-enumerated on every rewrite call.  Each rebuild closure captures only
    the interned term's own parts — never caller state — so the memoized
    sequence is reusable verbatim; the recursion routes through the memo, so
    a shared subterm's skeleton is built once no matter how many parents
    reference it.  Entries are strong references in a bounded LRU
    (``rewrite.occurrences``, cleared with the other pipeline memos).
    """
    cached = _OCCURRENCES_CACHE.get(term)
    if cached is None:
        cached = _MemoSeq(_enumerate_occurrences(term))
        _OCCURRENCES_CACHE.put(term, cached)
    return cached


def _enumerate_occurrences(term: FTerm) -> Iterator[Tuple[FTerm, _Context]]:
    """Yield ``(occurrence, rebuild)`` pairs for every rewritable position.

    Occurrences include whole subterms, contiguous slices of products,
    sub-multisets of sums (so a rule whose left-hand side is a sum of two
    terms can fire inside a three-summand sum), and *unit gaps* — empty
    product positions matching ``1``, so that reversed unit hypotheses such
    as ``1 → u·u⁻¹`` can insert factors anywhere.  Because slices and
    subsets are built with the interning smart constructors, occurrences of
    equal shape are pointer-identical across calls and hit the shared match
    memo.
    """
    yield term, lambda replacement: replacement
    if not isinstance(term, (FZero, FOne)):
        factors = _as_factors(term)
        for gap in range(len(factors) + 1):

            def insert_at(replacement: FTerm, gap=gap, factors=factors) -> FTerm:
                return make_prod(
                    list(factors[:gap])
                    + list(_as_factors(replacement))
                    + list(factors[gap:])
                )

            yield _FONE, insert_at
    if isinstance(term, FStar):
        for occ, rebuild in _occurrences(term.body):
            yield occ, (lambda r, rb=rebuild: FStar(rb(r)))
    elif isinstance(term, FProd):
        args = term.args
        n = len(args)
        for i in range(n):
            for j in range(i + 1, n + 1):
                if i == 0 and j == n:
                    continue  # whole term already yielded
                if j - i == 1:
                    # Recurse into the single factor as well.
                    for occ, rebuild in _occurrences(args[i]):
                        yield occ, (
                            lambda r, rb=rebuild, i=i: make_prod(
                                list(args[:i]) + list(_as_factors(rb(r))) + list(args[i + 1:])
                            )
                        )
                else:
                    slice_term = make_prod(args[i:j])

                    def rebuild_slice(replacement: FTerm, i=i, j=j) -> FTerm:
                        return make_prod(
                            list(args[:i]) + list(_as_factors(replacement)) + list(args[j:])
                        )

                    yield slice_term, rebuild_slice
    elif isinstance(term, FSum):
        args = term.args
        n = len(args)
        for index in range(n):
            for occ, rebuild in _occurrences(args[index]):
                yield occ, (
                    lambda r, rb=rebuild, index=index: make_sum(
                        list(args[:index]) + [rb(r)] + list(args[index + 1:])
                    )
                )
        if 2 < n <= _MAX_SUM_SUBSETS:
            for mask in range(1, 1 << n):
                chosen = [i for i in range(n) if mask >> i & 1]
                if len(chosen) < 2 or len(chosen) == n:
                    continue
                subset = make_sum([args[i] for i in chosen])

                def rebuild_subset(replacement: FTerm, chosen=tuple(chosen)) -> FTerm:
                    rest = [args[i] for i in range(n) if i not in chosen]
                    return make_sum(rest + [replacement])

                yield subset, rebuild_subset


def _iter_rule_matches(
    subject: FTerm, rule: CompiledRule, limit: int
) -> Iterator[Tuple[FTerm, Substitution]]:
    """Raw (result, substitution) stream for one rule — callers dedupe."""
    budget = limit
    if rule.ground:
        replacement = rule.rhs_flat
        for occurrence, rebuild in _occurrences(subject):
            if occurrence is not rule.lead:
                continue
            budget -= 1
            if budget < 0:
                return
            yield rebuild(replacement), _EMPTY_SUBST
        return
    for occurrence, rebuild in _occurrences(subject):
        if not rule.admits(occurrence):
            continue
        for subst in match_all(rule.pattern, occurrence, rule.variables):
            budget -= 1
            if budget < 0:
                return
            try:
                replacement = instantiate(rule.rhs, subst, rule.variables)
            except KeyError:
                continue  # rhs uses a variable the lhs did not bind
            yield rebuild(replacement), subst


def rewrite_candidates(
    subject: FTerm,
    lhs: Expr,
    rhs: Expr,
    variables: FrozenSet[str],
    limit: int = 100000,
) -> Iterator[FTerm]:
    """All terms obtainable by one application of ``lhs → rhs`` in ``subject``.

    Results are deduplicated by interned node identity: the same rewritten
    term reachable through different occurrence slices is yielded once.
    """
    rule = compile_rule(lhs, rhs, variables)
    seen: set = set()
    for result, _subst in _iter_rule_matches(subject, rule, limit):
        if result not in seen:
            seen.add(result)
            yield result


def rewrite_with_substitutions(
    subject: FTerm,
    lhs: Expr,
    rhs: Expr,
    variables: FrozenSet[str],
    limit: int = 100000,
) -> Iterator[Tuple[FTerm, Substitution]]:
    """Like :func:`rewrite_candidates` but also yields the substitution used.

    Deduplicated on the ``(result, substitution)`` pair — distinct bindings
    producing the same result are all yielded, because conditional laws may
    discharge their premises under one binding but not another.
    """
    rule = compile_rule(lhs, rhs, variables)
    seen: set = set()
    for result, subst in _iter_rule_matches(subject, rule, limit):
        key = (result, frozenset(subst.items()))
        if key not in seen:
            seen.add(key)
            yield result, subst


def rewrites_to(
    subject: FTerm,
    target: FTerm,
    lhs: Expr,
    rhs: Expr,
    variables: FrozenSet[str],
    limit: int = 100000,
) -> bool:
    """Does one application of ``lhs → rhs`` turn ``subject`` into ``target``?"""
    rule = compile_rule(lhs, rhs, variables)
    for result, _subst in _iter_rule_matches(subject, rule, limit):
        if result is target:
            return True
    return False


def first_rewrite(
    subject: FTerm,
    lhs: Expr,
    rhs: Expr,
    variables: FrozenSet[str] = frozenset(),
    limit: int = 10000,
) -> Optional[FTerm]:
    """The first candidate of ``lhs → rhs`` in ``subject``, or ``None``."""
    for result in rewrite_candidates(subject, lhs, rhs, variables, limit):
        return result
    return None


def reachable_by_rules(
    start: FTerm,
    goal: FTerm,
    rules: Union[RuleIndex, Sequence[RuleTriple]],
    max_depth: int = 3,
    max_breadth: int = 2000,
    limit_per_rule: int = 500,
) -> bool:
    """Bounded BFS: is ``goal`` reachable from ``start`` using the rules?

    Used to discharge side conditions of conditional laws (e.g. the premise
    ``pq = qp`` of swap-star) from ground hypotheses; the bounds keep this a
    cheap, conservative check.  ``rules`` may be a prebuilt
    :class:`RuleIndex` (reused across calls, e.g. one per proof) or a raw
    sequence of ``(lhs, rhs, variables)`` triples.  The frontier enumerates
    each term's occurrences once and consults only shape-admissible rules;
    the visited set is keyed on interned node identity.
    """
    if start is goal:
        return True
    index = rules if isinstance(rules, RuleIndex) else RuleIndex(rules)
    frontier = [start]
    seen = {start}
    for _ in range(max_depth):
        next_frontier: List[FTerm] = []
        for term in frontier:
            budgets: Dict[int, int] = {}
            emitted: set = set()
            for occurrence, rebuild in _occurrences(term):
                for rule in index.candidates_for(occurrence):
                    if not rule.admits(occurrence):
                        continue
                    rule_key = id(rule)
                    budget = budgets.get(rule_key, limit_per_rule)
                    if budget <= 0:
                        continue
                    if rule.ground:
                        matches: Tuple[Substitution, ...] = (_EMPTY_SUBST,)
                    else:
                        matches = match_all(rule.pattern, occurrence, rule.variables)
                    for subst in matches:
                        budget -= 1
                        if budget < 0:
                            break
                        if rule.ground:
                            candidate = rebuild(rule.rhs_flat)
                        else:
                            try:
                                replacement = instantiate(rule.rhs, subst, rule.variables)
                            except KeyError:
                                continue
                            candidate = rebuild(replacement)
                        if candidate in emitted:
                            continue
                        emitted.add(candidate)
                        if candidate is goal:
                            return True
                        if candidate not in seen and len(seen) < max_breadth:
                            seen.add(candidate)
                            next_frontier.append(candidate)
                    budgets[rule_key] = budget
        frontier = next_frontier
        if not frontier:
            break
    return False
