"""Property-based tests of the model-level theorems on random programs.

These randomised suites close the loop on the paper's central guarantees:

* Theorem 4.5 on randomly generated quantum while-programs;
* wlp soundness: ``{wlp(P, B)} P {B}`` is always partially correct, and
  wlp is the *weakest* such precondition (any valid A is below it);
* Corollary 4.3-style transfer: random derivable equations get equal
  interpretations under random symbol assignments.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.decision import nka_equal
from repro.core.expr import ONE, Product, Star, Sum, Symbol, ZERO
from repro.nkat.effects import Effect
from repro.nkat.hoare import hoare_partial_valid, wlp
from repro.pathmodel.action import action_equal
from repro.programs.interpretation import Interpretation, check_encoding_theorem, qint
from repro.programs.syntax import (
    Abort,
    Init,
    Program,
    Seq,
    Skip,
    Unitary,
    While,
    if_then_else,
)
from repro.quantum.gates import H, X, Z, rx, ry
from repro.quantum.hilbert import Space, qubit
from repro.quantum.measurement import binary_projective
from repro.quantum.operators import dagger, random_unitary
from repro.quantum.superoperator import Superoperator

_SPACE = Space([qubit("q")])
_MEAS = binary_projective(np.diag([0.0, 1.0]).astype(complex))

_ELEMENTARY = [
    Skip(),
    Abort(),
    Init(("q",)),
    Unitary(["q"], H, label="h"),
    Unitary(["q"], X, label="x"),
    Unitary(["q"], rx(0.9), label="rx"),
]


def _programs(depth: int):
    base = st.sampled_from(_ELEMENTARY)

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: Seq(*t)),
            st.tuples(children, children).map(
                lambda t: if_then_else(_MEAS, ("q",), t[0], t[1], label="m")
            ),
            children.map(
                lambda body: While(
                    _MEAS, ("q",), Seq(body, Unitary(["q"], H, label="h")),
                    loop_outcome=1, exit_outcome=0, label="m",
                )
            ),
        )

    return st.recursive(base, extend, max_leaves=4)


class TestTheorem45Random:
    @given(_programs(3))
    @settings(max_examples=25, deadline=None)
    def test_commuting_square(self, program):
        assert check_encoding_theorem(program, _SPACE)


def _effects():
    return st.sampled_from([
        Effect.zero(2),
        Effect.top(2),
        Effect(np.diag([0.5, 0.5]).astype(complex)),
        Effect(np.diag([0.2, 0.9]).astype(complex)),
        Effect(np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex)),
    ])


class TestWlpSoundnessRandom:
    @given(_programs(3), _effects())
    @settings(max_examples=25, deadline=None)
    def test_wlp_is_valid_precondition(self, program, post):
        pre = wlp(program, post, _SPACE)
        assert hoare_partial_valid(pre, program, post, _SPACE, atol=1e-6)

    @given(_programs(2), _effects(), _effects())
    @settings(max_examples=25, deadline=None)
    def test_wlp_is_weakest(self, program, post, candidate):
        """Any valid precondition is Löwner-below wlp."""
        from repro.quantum.operators import loewner_leq

        if hoare_partial_valid(candidate, program, post, _SPACE, atol=1e-7):
            bound = wlp(program, post, _SPACE)
            assert loewner_leq(candidate.matrix, bound.matrix, atol=1e-6)


def _expr_over(letters):
    base = st.one_of(
        st.just(ZERO), st.just(ONE),
        st.sampled_from([Symbol(l) for l in letters]),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: Sum(*t)),
            st.tuples(children, children).map(lambda t: Product(*t)),
            children.map(Star),
        )

    return st.recursive(base, extend, max_leaves=5)


class TestSoundnessTransferRandom:
    """Theorem 4.2 soundness: ⊢NKA e = f ⟹ Qint(e) = Qint(f), sampled."""

    def _interpretation(self, seed: int) -> Interpretation:
        rng = np.random.default_rng(seed)
        return Interpretation(2, {
            "a": _MEAS.branch(0),
            "b": _MEAS.branch(1).then(Superoperator.unitary(random_unitary(2, rng))),
        })

    @given(_expr_over("ab"), st.integers(min_value=0, max_value=5))
    # Pinned: ``(b* (0 + b))*`` under seed 1 diverges in one direction while
    # converging in the other.  With the old 1e12 divergence guard the
    # truncated series totals carried ~eps·1e12 ≈ 2e-4 of float debris in
    # the surviving finite directions, which both tripped the
    # ExtendedPositive PSD check (compression residue, now clipped in
    # ``sum_extended_series``) and pushed the two sides ~2.5e-5 apart —
    # far beyond the 1e-6 tolerance here.  Guards now cap the noise floor
    # at ~2e-8; this example keeps both regressions covered.
    @example(expr=Product(Star(Symbol("b")), Sum(ZERO, Symbol("b"))), seed=1)
    # Pinned: the iterates of this star grow ~4^n, which overflowed float
    # range inside ``sum_extended_series`` before its 512-term cap (inf in
    # a finite part, failing the PSD check) until the series stopped at
    # the divergence guard.
    @example(
        expr=Sum(Sum(Star(ZERO), Sum(ONE, ONE)), Star(Product(ONE, Symbol("a")))),
        seed=3,
    )
    # Pinned: ``(b b*)*`` under seed 1 grows geometrically along one
    # direction only.  The growth window at the 1e8 guard carried ~7e-9 of
    # eigenvalue noise off that direction, which an absolute support cut
    # at 1e-9 reported as divergence on the whole space on one side only.
    @example(expr=Product(Symbol("b"), Star(Symbol("b"))), seed=1)
    @settings(max_examples=20, deadline=None)
    def test_fixed_point_instances_transfer(self, expr, seed):
        interp = self._interpretation(seed)
        left = Sum(ONE, Product(expr, Star(expr)))
        right = Star(expr)
        assert nka_equal(left, right)
        assert action_equal(qint(left, interp), qint(right, interp), atol=1e-6)

    @given(_expr_over("ab"), _expr_over("ab"))
    @settings(max_examples=15, deadline=None)
    def test_distributivity_instances_transfer(self, e, f):
        interp = self._interpretation(3)
        a = Symbol("a")
        left = Product(a, Sum(e, f))
        right = Sum(Product(a, e), Product(a, f))
        assert nka_equal(left, right)
        assert action_equal(qint(left, interp), qint(right, interp), atol=1e-6)
