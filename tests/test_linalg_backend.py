"""Property tests for the semiring-generic sparse linear-algebra backend.

The sparse vector kernels (:mod:`repro.linalg.sparse`) are validated
against dense list-of-lists arithmetic on seeded random matrices from
:mod:`tests.gen`; the fraction-free integer ``RowSpace`` fast path is
validated against the classical ``Fraction`` echelon path; and the
end-to-end WFA pipeline is cross-checked sparse vs dense on random
expressions.
"""

import random
from fractions import Fraction

import pytest

from repro.automata.wfa import expr_to_wfa
from repro.core.decision import clear_caches, nka_equal_many_detailed
from repro.core.semiring import ExtNat, ONE, ZERO
from repro.linalg import (
    BOOL,
    EXT_NAT,
    RowSpace,
    SparseMatrix,
    dot,
    reachable,
    vec_mat,
)
from repro.util.errors import DecisionError
from tests.gen import random_exprs, random_int_entries, short_words


def _fraction_rank(rows, dim):
    """Rank by from-scratch ``Fraction`` Gaussian elimination."""
    matrix = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(dim):
        pivot_row = next(
            (r for r in range(rank, len(matrix)) if matrix[r][col] != 0),
            None,
        )
        if pivot_row is None:
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        lead = matrix[rank][col]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col] != 0:
                factor = matrix[r][col] / lead
                matrix[r] = [
                    a - factor * b for a, b in zip(matrix[r], matrix[rank])
                ]
        rank += 1
    return rank


def _build_pair(entries, nrows, ncols, semiring, embed):
    """The same matrix as (sparse, dense list-of-lists)."""
    sparse = SparseMatrix(nrows, ncols, semiring)
    dense = [[semiring.zero] * ncols for _ in range(nrows)]
    for i, j, value in entries:
        weight = embed(value)
        sparse.add_entry(i, j, weight)
        dense[i][j] = semiring.add(dense[i][j], weight) if dense[i][j] != semiring.zero else weight
    return sparse, dense


class TestSparseAgreesWithDense:
    def test_vec_mat_matches_dense(self):
        rng = random.Random(16)
        for _ in range(30):
            n, m = rng.randint(1, 7), rng.randint(1, 7)
            sparse, dense = _build_pair(
                random_int_entries(rng, n, m, 0.35, 0, 3),
                n, m, EXT_NAT, lambda v: ExtNat(abs(v)),
            )
            row = [ExtNat(rng.randint(0, 2)) for _ in range(n)]
            got = vec_mat(
                {i: v for i, v in enumerate(row) if not v.is_zero}, sparse
            )
            expected = [
                sum((row[i] * dense[i][j] for i in range(n)), ZERO)
                for j in range(m)
            ]
            assert [got.get(j, ZERO) for j in range(m)] == expected


class TestRowSpaceFastPath:
    def test_integer_and_fraction_modes_agree(self):
        """Same inserts, same verdicts, same ranks — int fast path vs ``Q``."""
        rng = random.Random(21)
        for _ in range(60):
            dim = rng.randint(1, 8)
            fast, slow = RowSpace(dim), RowSpace(dim)
            # Force the reference instance onto the Fraction path.
            slow._demote_to_fractions()
            for _ in range(2 * dim + 2):
                candidate = tuple(rng.randint(-6, 6) for _ in range(dim))
                as_fractions = tuple(Fraction(v) for v in candidate)
                assert fast.insert(candidate) == slow.insert(as_fractions)
                assert fast.rank == slow.rank
                assert fast.contains(candidate) and slow.contains(as_fractions)
            assert fast.integer_mode
            probe = tuple(rng.randint(-6, 6) for _ in range(dim))
            assert fast.contains(probe) == slow.contains(
                tuple(Fraction(v) for v in probe)
            )

    def test_demotion_mid_stream_keeps_answers(self):
        rng = random.Random(22)
        for _ in range(30):
            dim = rng.randint(2, 6)
            mixed, reference = RowSpace(dim), RowSpace(dim)
            reference._demote_to_fractions()
            inserted = []
            for step in range(dim + 2):
                if step == dim // 2:
                    candidate = tuple(
                        Fraction(rng.randint(-5, 5), rng.randint(2, 4))
                        for _ in range(dim)
                    )
                else:
                    candidate = tuple(rng.randint(-5, 5) for _ in range(dim))
                inserted.append(candidate)
                assert mixed.insert(candidate) == reference.insert(
                    tuple(Fraction(v) for v in candidate)
                )
            assert not mixed.integer_mode
            for candidate in inserted:
                assert mixed.contains(candidate)

    def test_rank_matches_brute_force(self):
        """Rank agrees with a from-scratch Fraction Gaussian elimination."""
        rng = random.Random(23)
        for _ in range(40):
            dim = rng.randint(1, 6)
            rows = [
                tuple(rng.randint(-4, 4) for _ in range(dim))
                for _ in range(rng.randint(1, 8))
            ]
            space = RowSpace(dim)
            for row in rows:
                space.insert(row)
            assert space.rank == _fraction_rank(rows, dim)
            assert space.integer_mode

    @pytest.mark.parametrize("dim", [64, 96])
    def test_entries_beyond_int64_stay_exact(self, dim):
        """Unbounded integers at wide dimensions: ``1 << 70`` entries and
        the products elimination builds from them never lose precision."""
        huge = 1 << 70
        rows = [
            (1,) * dim,
            (huge,) + (1,) * (dim - 1),
            tuple(range(1, dim + 1)),
            tuple(huge * (i % 3) - i for i in range(dim)),
            (0,) * (dim - 1) + (-huge,),
        ]
        rows += [rows[1], tuple(a + b for a, b in zip(rows[0], rows[3]))]
        fast, slow = RowSpace(dim), RowSpace(dim)
        slow._demote_to_fractions()
        for row in rows:
            assert fast.insert(row) == slow.insert(tuple(Fraction(v) for v in row))
            assert fast.rank == slow.rank
        assert fast.integer_mode
        assert fast.rank == _fraction_rank(rows, dim) == 5
        for row in rows:
            assert fast.contains(row)


class TestValidation:
    def test_ragged_dense_input_raises_decision_error(self):
        with pytest.raises(DecisionError, match="ragged"):
            SparseMatrix.from_dense([[ZERO, ONE], [ZERO]], EXT_NAT)

    def test_out_of_range_indices_raise_decision_error(self):
        matrix = SparseMatrix(2, 2, EXT_NAT)
        with pytest.raises(DecisionError, match="out of range"):
            matrix.set(2, 0, ONE)
        with pytest.raises(DecisionError, match="out of range"):
            matrix.get(0, 5)

    def test_vector_dimension_mismatch(self):
        with pytest.raises(DecisionError, match="dimension mismatch"):
            dot((1, 2), (1, 2, 3))
        space = RowSpace(3)
        with pytest.raises(DecisionError, match="dimension 2"):
            space.insert((1, 2))


class TestReachability:
    def test_reachable_matches_brute_force(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(1, 9)
            entries = random_int_entries(rng, n, n, 0.25, 1, 1)
            adjacency = SparseMatrix.from_entries(
                n, n, [(i, j, True) for i, j, _ in entries], BOOL
            )
            seeds = {s for s in range(n) if rng.random() < 0.3}
            got = reachable(adjacency, seeds)
            expected = set(seeds)
            changed = True
            while changed:
                changed = False
                for i, j, _ in entries:
                    if i in expected and j not in expected:
                        expected.add(j)
                        changed = True
            assert got == expected


class TestPipelineEndToEnd:
    def test_sparse_weights_match_dense_propagation(self):
        """Compiled WFAs: sparse ``weight`` vs dense vector propagation."""
        rng = random.Random(41)
        for expr in random_exprs(41, 25, depth=3):
            wfa = expr_to_wfa(expr)
            for word in list(short_words(("a", "b"), 3))[:20]:
                sparse_weight = wfa.weight(word)
                row = list(wfa.initial)
                for letter in word:
                    matrix = wfa.matrices.get(letter)
                    dense = (
                        matrix.to_dense()
                        if matrix is not None
                        else [
                            [ZERO] * wfa.num_states
                            for _ in range(wfa.num_states)
                        ]
                    )
                    row = [
                        sum(
                            (row[i] * dense[i][j] for i in range(wfa.num_states)),
                            ZERO,
                        )
                        for j in range(wfa.num_states)
                    ]
                expected = sum(
                    (value * final for value, final in zip(row, wfa.final)), ZERO
                )
                assert sparse_weight == expected, (expr, word)

    def test_equivalence_verdicts_stable_across_backend(self):
        """Seeded equality workload answers match direct series evidence."""
        clear_caches()
        exprs = random_exprs(42, 12, depth=3)
        pairs = [(e, e) for e in exprs[:4]]
        pairs += [(exprs[i], exprs[i + 1]) for i in range(len(exprs) - 1)]
        results = nka_equal_many_detailed(pairs)
        for (left, right), result in zip(pairs, results):
            left_wfa = expr_to_wfa(left, extra_alphabet=frozenset("abc"))
            right_wfa = expr_to_wfa(right, extra_alphabet=frozenset("abc"))
            if result.equal:
                assert all(
                    left_wfa.weight(w) == right_wfa.weight(w)
                    for w in short_words(("a", "b", "c"), 3)
                )
            else:
                witness = result.counterexample
                assert witness is not None
                assert left_wfa.weight(witness) != right_wfa.weight(witness)
