"""Tests for quantum path actions P(H) (paper Section 3.3, Theorem 3.6)."""

import numpy as np
import pytest

from repro.pathmodel.action import (
    LiftedAction,
    StarAction,
    action_equal,
    action_leq,
    identity_action,
    standard_probes,
    star_apply_liouville,
    sum_extended_series,
    zero_action,
)
from repro.pathmodel.extended_positive import ExtendedPositive
from repro.pathmodel.lifting import (
    check_lemma_3_8_homomorphism,
    check_lemma_3_8_injective,
    check_lemma_3_8_linearity,
    lift,
)
from repro.pathmodel.soundness import (
    check_order_axioms,
    check_semiring_axioms,
    check_star_axioms,
)
from repro.quantum.gates import H, X
from repro.quantum.measurement import binary_projective
from repro.quantum.operators import operator_close, random_unitary
from repro.quantum.states import computational, density, plus
from repro.quantum.superoperator import Superoperator


def _measurement():
    return binary_projective(np.diag([0.0, 1.0]).astype(complex))


class TestLiftedAction:
    def test_acts_like_superoperator_on_finite(self):
        action = lift(Superoperator.unitary(X))
        out = action.apply(ExtendedPositive.of(computational(0, 2)))
        assert out.is_finite
        assert operator_close(out.finite_part, computational(1, 2))

    def test_kills_infinite_direction(self):
        branch = _measurement().branch(0)  # projects onto |0⟩
        action = lift(branch)
        out = action.apply(ExtendedPositive.infinite(2, computational(1, 2)))
        assert out.is_finite

    def test_propagates_infinite_direction(self):
        action = lift(Superoperator.unitary(X))
        out = action.apply(ExtendedPositive.infinite(2, computational(1, 2)))
        assert not out.is_finite
        assert operator_close(out.infinite_projector, computational(0, 2))

    def test_sum_and_composition_are_lifted(self):
        m = _measurement()
        total = lift(m.branch(0)) + lift(m.branch(1))
        assert total.as_superoperator() is not None
        assert total.as_superoperator().is_trace_preserving()
        composed = lift(m.branch(0)).then(lift(m.branch(0)))
        assert composed.as_superoperator().equals(m.branch(0))


class TestStar:
    def test_identity_star_diverges_everywhere(self):
        result = identity_action(2).star().apply(ExtendedPositive.of(np.eye(2)))
        assert not result.is_finite
        assert np.isclose(np.trace(result.infinite_projector).real, 2.0)

    def test_geometric_star_converges(self):
        half = Superoperator([np.sqrt(0.5) * np.eye(2)])
        result = lift(half).star().apply(ExtendedPositive.of(np.eye(2)))
        assert result.is_finite
        assert operator_close(result.finite_part, 2 * np.eye(2))

    def test_projector_star_splits(self):
        proj = Superoperator([np.diag([0.0, 1.0]).astype(complex)])
        result = lift(proj).star().apply(ExtendedPositive.of(np.eye(2)))
        assert operator_close(result.infinite_projector, computational(1, 2))
        assert operator_close(result.finite_part, computational(0, 2))

    def test_while_loop_composition(self):
        # Coin-flip loop: measure, on 1 apply H and repeat — terminates a.s.
        m = _measurement()
        loop = lift(m.branch(1).then(Superoperator.unitary(H)))
        exit_branch = lift(m.branch(0))
        action = loop.star().then(exit_branch)
        rho = density(plus())
        out = action.apply(ExtendedPositive.of(rho))
        assert out.is_finite
        assert np.isclose(np.trace(out.finite_part).real, 1.0)

    def test_star_of_infinite_input(self):
        action = lift(Superoperator.unitary(X)).star()
        out = action.apply(ExtendedPositive.infinite(2, computational(0, 2)))
        # X cycles the direction through both basis states: all infinite.
        assert np.isclose(np.trace(out.infinite_projector).real, 2.0)

    def test_star_apply_liouville_zero(self):
        zero = Superoperator.zero(2)
        result = star_apply_liouville(zero.liouville, np.eye(2))
        assert result.is_finite
        assert operator_close(result.finite_part, np.eye(2))  # only n=0 term

    def test_nested_star_generic_path(self):
        # ((1/2 I)*)* — base of outer star is not lifted; generic summation.
        half = Superoperator([np.sqrt(0.25) * np.eye(2)])
        inner = lift(half).star()     # converges to (4/3)·id-ish scaling
        outer = StarAction(inner, max_terms=256)
        out = outer.apply(ExtendedPositive.of(np.eye(2)))
        # inner maps I to (1/(1-1/4)) I = 4/3 I with factor >1 ⇒ diverges.
        assert not out.is_finite


class TestSumSeries:
    def test_sum_of_finitely_many(self):
        terms = [ExtendedPositive.of(computational(0, 2)) for _ in range(3)]
        total = sum_extended_series(iter(terms), dim=2)
        assert operator_close(total.finite_part, 3 * computational(0, 2))

    def test_divergent_sum_detected(self):
        terms = (ExtendedPositive.of(computational(1, 2)) for _ in range(4096))
        total = sum_extended_series(terms, dim=2, max_terms=4096)
        assert not total.is_finite

    def test_rank_one_geometric_growth_diverges_in_one_direction(self):
        # The window at the divergence guard is ~1e8 along |ψ⟩; its float
        # noise off |ψ⟩ must not make the orthogonal direction infinite.
        psi = np.array([
            -0.49397787494037915 - 0.1529870789894313j,
            -0.8157855169621357 + 0.258988036492981j,
        ])
        rank_one = np.outer(psi, psi.conj())
        terms = (ExtendedPositive.of(2.36 ** n * rank_one) for n in range(512))
        total = sum_extended_series(terms, dim=2)
        assert operator_close(total.infinite_projector, rank_one)

    def test_infinite_summand_propagates(self):
        terms = iter([
            ExtendedPositive.infinite(2, computational(0, 2)),
            ExtendedPositive.of(computational(1, 2)),
        ])
        total = sum_extended_series(terms, dim=2)
        assert operator_close(total.infinite_projector, computational(0, 2))


class TestOrderAndEquality:
    def test_action_equal_lifted_fast_path(self):
        assert action_equal(identity_action(2), lift(Superoperator.identity(2)))
        assert not action_equal(identity_action(2), zero_action(2))

    def test_action_leq(self):
        m = _measurement()
        partial = lift(m.branch(0))
        total = lift(m.branch(0)) + lift(m.branch(1))
        assert action_leq(partial, total)
        assert not action_leq(total, partial)

    def test_star_monotone(self):
        m = _measurement()
        small = lift(m.branch(0))
        big = lift(m.branch(0)) + lift(m.branch(1))
        assert action_leq(small.star(), big.star())


class TestLemma38:
    def test_linearity(self):
        rng = np.random.default_rng(7)
        superop = Superoperator([random_unitary(2, rng) * 0.9])
        assert check_lemma_3_8_linearity(superop)

    def test_injectivity(self):
        m = _measurement()
        assert check_lemma_3_8_injective(m.branch(0), m.branch(0))
        assert check_lemma_3_8_injective(m.branch(0), m.branch(1))

    def test_homomorphism(self):
        m = _measurement()
        assert check_lemma_3_8_homomorphism(m.branch(0), m.branch(1))


class TestTheorem36Soundness:
    """NKA axioms hold in the path model on sampled actions."""

    def _actions(self, seed: int):
        rng = np.random.default_rng(seed)
        m = _measurement()
        return (
            lift(m.branch(0)),
            lift(m.branch(1).then(Superoperator.unitary(H))),
            lift(Superoperator([random_unitary(2, rng) * 0.6])),
        )

    def test_semiring_axioms(self):
        p, q, r = self._actions(11)
        results = check_semiring_axioms(p, q, r)
        assert all(results.values()), results

    def test_star_axioms(self):
        p, q, r = self._actions(13)
        results = check_star_axioms(p, q, r)
        assert all(results.values()), results

    def test_order_axioms(self):
        p, q, r = self._actions(17)
        results = check_order_axioms(p, q, r, q)
        assert all(results.values()), results
