"""Verdict oracle independent of the automaton pipeline.

Checks a verdict against the truncated formal power series of Def. A.4
(``repro.series.power_series.series_of_expr``), a syntax-directed recursive
evaluator that shares no code with Thompson compilation, the support DFA or
Tzeng's walk, and against the verdict known by construction where there is
one:

* an *unequal* verdict's witness ``w`` must get different coefficients in
  the two series.  Letters absent from ``w`` are substituted by ``0`` first,
  which leaves the coefficient of ``w`` unchanged and keeps the truncated
  series small;
* an *equal* verdict's series must agree on every word up to a truncation
  length fixed by the alphabet size (:func:`truncation_length`).

Runs outside every timed window.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro import parse
from repro.core.expr import ZERO, Expr, alphabet, substitute
from repro.series.power_series import series_of_expr

# Verdict as the benchmark compares it: (equal, counterexample, reason).
Verdict = Tuple[bool, Optional[Tuple[str, ...]], str]


def truncation_length(letters: int) -> int:
    """Longest checked word for an equal verdict over ``letters`` letters.

    Fixed per alphabet size so that a check covers at most a few hundred
    words; the series products are quadratic in that count.
    """
    if letters <= 2:
        return 5
    if letters <= 4:
        return 3
    return 2


class Oracle:
    """Memoising checker; one instance per benchmark run."""

    def __init__(self) -> None:
        self._memo: Dict[Tuple[str, str, Verdict], bool] = {}

    def confirms(
        self, left: str, right: str, verdict: Verdict, expected: Optional[bool]
    ) -> bool:
        key = (left, right, verdict)
        known = self._memo.get(key)
        if known is None:
            known = self._check(left, right, verdict, expected)
            self._memo[key] = known
        return known

    def _check(
        self, left: str, right: str, verdict: Verdict, expected: Optional[bool]
    ) -> bool:
        equal, witness, _reason = verdict
        if expected is not None and equal != expected:
            return False
        left_expr, right_expr = parse(left), parse(right)
        if equal:
            return _series_agree(left_expr, right_expr)
        if witness is None:
            return False
        return _witness_separates(left_expr, right_expr, tuple(witness))


def _series_agree(left: Expr, right: Expr) -> bool:
    letters = alphabet(left) | alphabet(right)
    length = truncation_length(len(letters))
    return (
        series_of_expr(left, length, letters).as_dict()
        == series_of_expr(right, length, letters).as_dict()
    )


def _witness_separates(left: Expr, right: Expr, witness: Sequence[str]) -> bool:
    used = set(witness)
    coefficients = []
    for expr in (left, right):
        dropped = {name: ZERO for name in alphabet(expr) if name not in used}
        restricted = substitute(expr, dropped) if dropped else expr
        series = series_of_expr(restricted, len(witness), used)
        coefficients.append(series.coefficient(witness))
    return coefficients[0] != coefficients[1]
