"""Rational power series over ``N̄`` (paper Definition A.5, Theorem A.6).

A rational series is one denoted by an NKA expression through ``{{−}}``.
This module is the user-facing wrapper tying together the two exact
representations the library maintains for such a series:

* the *automaton* form (:class:`repro.automata.wfa.WFA`, each letter's
  ``N̄`` transition matrix held as sparse dict rows) supporting
  coefficients of arbitrary words and exact equality;
* the *truncated table* form (:class:`repro.series.power_series.TruncatedSeries`)
  supporting exhaustive inspection up to a length bound.

Theorem A.6 (Bloom–Ésik / Ésik–Kuich) states NKA is sound and complete for
rational series: ``⊢NKA e = f  ⟺  {{e}} = {{f}}``.  :meth:`RationalSeries.
__eq__` decides the right-hand side, hence the left.  Equality and
coefficient queries are routed through an :class:`repro.engine.NKAEngine`
session — the process default unless one is attached at construction — so
they ride that session's compile/verdict caches instead of recompiling per
call, and a serving wrapper can give each tenant its own isolated engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.automata.equivalence import EquivalenceResult
from repro.automata.wfa import WFA
from repro.core.expr import Expr
from repro.core.semiring import ExtNat
from repro.engine import NKAEngine, default_engine
from repro.series.power_series import TruncatedSeries, series_of_expr

__all__ = ["RationalSeries"]


@dataclass
class RationalSeries:
    """The rational power series ``{{expr}}`` denoted by an NKA expression.

    ``engine`` pins the series to a specific decision session; ``None``
    means the process default.  Series tied to different engines can be
    compared — the left-hand side's session does the work (and caches the
    verdict).
    """

    expr: Expr
    engine: Optional[NKAEngine] = field(default=None, repr=False, compare=False)

    def _engine(self) -> NKAEngine:
        return self.engine if self.engine is not None else default_engine()

    @property
    def automaton(self) -> WFA:
        """The compiled automaton, through the session's compile cache."""
        return self._engine().compile(self.expr)

    def coefficient(self, word: Sequence[str]) -> ExtNat:
        """``{{expr}}[word]``, exact in ``N̄`` (cached compiled automaton)."""
        return self._engine().coefficient(self.expr, tuple(word))

    def truncate(self, max_length: int) -> TruncatedSeries:
        """All coefficients up to ``max_length`` via the direct evaluator."""
        return series_of_expr(self.expr, max_length)

    def equivalence(self, other: "RationalSeries") -> EquivalenceResult:
        """Decide series equality with a witness on failure.

        Delegates to the session's decision pipeline, sharing its compile
        and verdict caches: comparing one series against many others
        compiles each automaton once.
        """
        return self._engine().equal_detailed(self.expr, other.expr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return self.equivalence(other).equal

    def __hash__(self) -> int:  # pragma: no cover - sanity only
        raise TypeError("RationalSeries is unhashable (equality is semantic)")

    def counterexample(self, other: "RationalSeries") -> Optional[Tuple[str, ...]]:
        """A word separating the two series, or ``None`` when equal."""
        return self.equivalence(other).counterexample
