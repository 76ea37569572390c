"""Property tests for the decision pipeline's exact linear algebra.

The sparse integer ``RowSpace`` (:mod:`repro.linalg`) is validated against
a from-scratch ``Fraction`` Gaussian elimination.  The automata's dict-row
helpers — :func:`repro.automata.wfa.vec_mat` and
:func:`repro.automata.nfa.reachable` — are validated against dense
list-of-lists arithmetic and a brute-force fixpoint on seeded random
matrices from :mod:`tests.gen`, and the end-to-end WFA pipeline is
cross-checked sparse vs dense on random expressions.
"""

import random
from fractions import Fraction

import pytest

from repro.automata.nfa import reachable
from repro.automata.wfa import WFA, expr_to_wfa, vec_mat
from repro.core.decision import clear_caches, nka_equal_many_detailed
from repro.core.semiring import ExtNat, ONE, ZERO
from repro.linalg import RowSpace
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


def _build_pair(entries, nrows, ncols):
    """The same ``N̄`` matrix as (dict rows, dense list-of-lists); duplicate
    entries add up."""
    rows = {}
    dense = [[ZERO] * ncols for _ in range(nrows)]
    for i, j, value in entries:
        weight = ExtNat(abs(value))
        dense[i][j] = dense[i][j] + weight
        if not dense[i][j].is_zero:
            rows.setdefault(i, {})[j] = dense[i][j]
    return rows, dense


class TestSparseAgreesWithDense:
    def test_vec_mat_matches_dense(self):
        rng = random.Random(16)
        for _ in range(30):
            n, m = rng.randint(1, 7), rng.randint(1, 7)
            rows, dense = _build_pair(
                random_int_entries(rng, n, m, 0.35, 0, 3), n, m
            )
            row = [ExtNat(rng.randint(0, 2)) for _ in range(n)]
            got = vec_mat({i: v for i, v in enumerate(row) if not v.is_zero}, rows)
            expected = [
                sum((row[i] * dense[i][j] for i in range(n)), ZERO)
                for j in range(m)
            ]
            assert [got.get(j, ZERO) for j in range(m)] == expected


def _sparse(row):
    return {column: value for column, value in enumerate(row) if value}


def _insert_against_brute_force(rows, dim):
    """Insert ``rows`` one at a time; every verdict and rank must match a
    from-scratch ``Fraction`` elimination of the rows inserted so far, and
    re-inserting any of them afterwards must be rejected."""
    space = RowSpace(dim)
    for count, row in enumerate(rows, 1):
        before = space.rank
        inserted = space.insert(_sparse(row))
        expected = _fraction_rank(rows[:count], dim)
        assert space.rank == expected
        assert inserted == (expected > before)
    for row in rows:
        assert not space.insert(_sparse(row))
    assert space.rank == _fraction_rank(rows, dim)
    return space


class TestRowSpaceFastPath:
    def test_integer_and_fraction_modes_agree(self):
        """Same inserts, same verdicts, same ranks — the integer basis vs
        elimination over ``Q``, including a fresh probe's membership."""
        rng = random.Random(21)
        for _ in range(60):
            dim = rng.randint(1, 8)
            rows = [
                tuple(rng.randint(-6, 6) for _ in range(dim))
                for _ in range(2 * dim + 2)
            ]
            space = _insert_against_brute_force(rows, dim)
            probe = tuple(rng.randint(-6, 6) for _ in range(dim))
            spanned = _fraction_rank(rows + [probe], dim) == space.rank
            assert space.insert(_sparse(probe)) == (not spanned)

    def test_rank_matches_brute_force(self):
        """Rank agrees with a from-scratch Fraction Gaussian elimination."""
        rng = random.Random(23)
        for _ in range(40):
            dim = rng.randint(1, 6)
            rows = [
                tuple(rng.randint(-4, 4) for _ in range(dim))
                for _ in range(rng.randint(1, 8))
            ]
            _insert_against_brute_force(rows, dim)

    def test_basis_stays_reduced_and_indexed(self):
        """After every insert each row is zero at every other pivot,
        gcd-normalised with a positive pivot entry, and the column index
        lists exactly the rows with a non-zero in each non-pivot column."""
        from math import gcd

        rng = random.Random(24)
        for _ in range(40):
            dim = rng.randint(1, 10)
            space = RowSpace(dim)
            for _ in range(2 * dim):
                space.insert({
                    column: rng.randint(-5, 5)
                    for column in rng.sample(range(dim), rng.randint(1, dim))
                })
                rows = space._rows
                index = {}
                for pivot, row in rows.items():
                    assert row[pivot] > 0 and gcd(*row.values()) == 1
                    assert all(value for value in row.values())
                    for column in row:
                        assert column == pivot or column not in rows
                        if column != pivot:
                            index.setdefault(column, set()).add(pivot)
                assert index == {
                    column: pivots
                    for column, pivots in space._columns.items()
                    if pivots
                }

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
        space = _insert_against_brute_force(rows, dim)
        assert space.rank == 5


class TestValidation:
    def test_out_of_range_indices_raise_decision_error(self):
        """A hand-built automaton naming a state outside ``num_states``
        fails at :meth:`WFA.set_weight`, not as an ``IndexError`` later."""
        wfa = WFA(
            num_states=2, alphabet=frozenset("a"),
            initial=[ONE, ZERO], final=[ZERO, ONE],
        )
        with pytest.raises(DecisionError, match="out of range"):
            wfa.set_weight("a", 2, 0, ONE)
        with pytest.raises(DecisionError, match="out of range"):
            wfa.set_weight("a", 0, -1, ONE)
        assert wfa.matrices.get("a", {}) == {}
        wfa.set_weight("a", 0, 1, ExtNat(3))
        assert wfa.weight(("a",)) == ExtNat(3)
        wfa.set_weight("a", 0, 1, ZERO)  # a zero weight removes the edge
        assert wfa.matrices["a"] == {}

    def test_vector_dimension_mismatch(self):
        space = RowSpace(3)
        with pytest.raises(DecisionError, match="coordinate 3 .* dimension 3"):
            space.insert({0: 1, 3: 2})
        with pytest.raises(DecisionError, match="coordinate -1"):
            space.insert({-1: 1})
        assert space.rank == 0


class TestReachability:
    def test_reachable_matches_brute_force(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(1, 9)
            entries = random_int_entries(rng, n, n, 0.25, 1, 1)
            adjacency = {}
            for i, j, _ in entries:
                adjacency.setdefault(i, set()).add(j)
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
                    rows = wfa.matrices.get(letter, {})
                    dense = [
                        [
                            rows.get(i, {}).get(j, ZERO)
                            for j in range(wfa.num_states)
                        ]
                        for i in range(wfa.num_states)
                    ]
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
