"""ABLATION — design-choice costs inside the decision procedure.

DESIGN.md calls out two choices worth quantifying:

* **automaton trimming** after the position construction — without it, the
  Tzeng stage runs on every position state instead of the
  reachable/co-reachable core;
* **staging**: the equality check splits into infinity-support (Boolean)
  and finite-part (exact linear algebra) stages; this bench measures the
  two stages separately, showing the Boolean stage dominates only when
  stars are unguarded (∞ present).
"""

import pytest

from benchmarks.conftest import report
from repro.automata.equivalence import tzeng_equivalent, wfa_equivalent
from repro.automata.nfa import determinize
from repro.automata.wfa import expr_to_wfa, infinity_support_nfa
from repro.core.parser import parse

FINITE_PAIR = ("(a b)* (a + b a)* a", "(a b)* (a + b a)* a")
INFINITE_PAIR = ("1* (a b)* a", "1* a (b a)*")


def test_ablation_trim_effect(benchmark):
    expr = parse("(a (b + a b))* (a + b)* a")

    def run():
        return expr_to_wfa(expr)

    wfa = benchmark(run)
    # Trimming is built in; measure the state count it achieves vs the
    # untrimmed position automaton (letter occurrences + 1 states).
    from repro.core.expr import Symbol, subterms

    upper = 1 + sum(isinstance(node, Symbol) for node in subterms(expr))
    report("ABLATION/trim",
           "trimming shrinks the Tzeng stage input",
           f"{wfa.num_states} states kept of {upper} position states")
    assert wfa.num_states <= upper


@pytest.mark.parametrize("pair_name,pair", [
    ("finite", FINITE_PAIR), ("infinite", INFINITE_PAIR),
])
def test_ablation_stage_split(benchmark, pair_name, pair):
    left = expr_to_wfa(parse(pair[0]))
    right = expr_to_wfa(parse(pair[1]))

    def run():
        return wfa_equivalent(left, right)

    result = benchmark(run)
    assert result.equal
    report(f"ABLATION/stages-{pair_name}",
           "two-stage equality: ∞-support NFAs + exact Tzeng",
           f"decided ({result.reason})")


def test_ablation_infinity_support_cost(benchmark):
    wfa = expr_to_wfa(parse("1* (a + b)* a b"))

    def run():
        return determinize(infinity_support_nfa(wfa))

    dfa = benchmark(run)
    report("ABLATION/support",
           "∞-support is a regular language",
           f"DFA with {dfa.num_states} states")


def test_ablation_tzeng_only(benchmark):
    left = expr_to_wfa(parse(FINITE_PAIR[0]))
    right = expr_to_wfa(parse(FINITE_PAIR[1]))

    def run():
        return tzeng_equivalent(left, right)

    result = benchmark(run)
    assert result.equal
    report("ABLATION/tzeng",
           "exact rational equivalence stage in isolation",
           result.reason)
