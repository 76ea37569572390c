"""Weight-semiring protocol for the generic linear-algebra backend.

A :class:`SemiringSpec` bundles the constants and operations the kernels in
:mod:`repro.linalg.sparse` need; any coefficient type can be plugged in by
describing it here.  Two instances cover every weight domain the decision
pipeline uses today:

* :data:`EXT_NAT` — the paper's coefficient semiring ``N̄ = N ∪ {∞}``
  (:class:`repro.core.semiring.ExtNat`), a complete star semiring;
* :data:`BOOL` — the Boolean semiring ``({0,1}, ∨, ∧)``; its matrices are
  adjacency relations, which is how NFA/DFA reachability becomes an
  instance of the same kernels.

Tzeng's algorithm needs no spec: its vectors are plain integers
(:mod:`repro.linalg.rowspace`).

The protocol is deliberately *first-order* (plain callables, no abstract
base class): kernels fetch ``add``/``mul`` once into locals, which keeps the
inner loops free of attribute lookups and lets instances wrap existing
operator implementations without adapter classes.

Specs pickle **by name** through the registry below (the operation slots
hold lambdas, which cannot be pickled — and should not be: a deserialised
matrix must use *this* process's canonical instance so identity checks and
closures keep working).  That is what lets compiled automata cross process
boundaries — the engine's parallel executor and the warm-start persistence
layer (:mod:`repro.engine.persist`) both rely on it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.semiring import ONE, ZERO
from repro.util.errors import DecisionError

__all__ = [
    "SemiringSpec",
    "EXT_NAT",
    "BOOL",
    "semiring_by_name",
    "register_semiring",
]


@dataclass(frozen=True)
class SemiringSpec:
    """The operations a coefficient semiring exposes to the kernels.

    Attributes:
        name: identifier used in error messages and matrix ``repr``.
        zero: additive identity (matrices never store it explicitly).
        one: multiplicative identity.
        add: binary addition (associative, commutative, ``zero`` neutral).
        mul: binary multiplication (associative, ``one`` neutral, ``zero``
            annihilating).
        is_zero: fast zero test; instances provide the cheapest predicate
            available (e.g. ``ExtNat.is_zero`` avoids an ``__eq__`` call).
    """

    name: str
    zero: Any
    one: Any
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    is_zero: Callable[[Any], bool]

    # Specs are immutable bundles of constants and functions, so copying is
    # identity — this also keeps deepcopy of matrices (which would otherwise
    # route through __reduce__) working for unregistered custom specs.
    def __copy__(self) -> "SemiringSpec":
        return self

    def __deepcopy__(self, _memo) -> "SemiringSpec":
        return self

    def __reduce__(self):
        # Pickle by name: unpickling resolves to this process's canonical
        # instance, so spec identity (and the unpicklable operation
        # closures) survive process boundaries and on-disk round-trips.
        # Refuse to pickle a spec the registry would not faithfully restore
        # — an unregistered custom spec, or a name-shadowing twin of a
        # canonical one — rather than silently swap operations on load.
        if _SEMIRINGS_BY_NAME.get(self.name) is not self:
            raise DecisionError(
                f"semiring {self.name!r} is not the registered instance of "
                "that name; call repro.linalg.register_semiring(spec) (with "
                "a unique name) before pickling matrices built on it"
            )
        return (semiring_by_name, (self.name,))


_SEMIRINGS_BY_NAME: dict = {}


def semiring_by_name(name: str) -> "SemiringSpec":
    """The canonical registered instance of that name (pickle support)."""
    try:
        return _SEMIRINGS_BY_NAME[name]
    except KeyError:
        raise DecisionError(
            f"unknown weight semiring {name!r}; registered: "
            f"{sorted(_SEMIRINGS_BY_NAME)}"
        ) from None


def register_semiring(spec: "SemiringSpec") -> "SemiringSpec":
    """Make a custom spec the canonical instance of its name.

    Required before pickling matrices/automata built on the spec (pickling
    is by name — see :meth:`SemiringSpec.__reduce__`); the same
    registration must run in any process that unpickles them.  Re-binding a
    name already held by a *different* instance is rejected to protect the
    built-in instances (and everyone else) from silent operation swaps.
    """
    existing = _SEMIRINGS_BY_NAME.get(spec.name)
    if existing is not None and existing is not spec:
        raise DecisionError(
            f"semiring name {spec.name!r} is already registered to a "
            "different instance; pick a unique name"
        )
    _SEMIRINGS_BY_NAME[spec.name] = spec
    return spec


_register = register_semiring


EXT_NAT = _register(SemiringSpec(
    name="ExtNat",
    zero=ZERO,
    one=ONE,
    add=operator.add,
    mul=operator.mul,
    is_zero=lambda value: value.is_zero,
))
"""``N̄``: the complete star semiring of Def. A.1 (``INF`` available)."""


BOOL = _register(SemiringSpec(
    name="bool",
    zero=False,
    one=True,
    add=operator.or_,
    mul=operator.and_,
    is_zero=operator.not_,
))
"""Boolean semiring: supports, adjacency and reachability."""

