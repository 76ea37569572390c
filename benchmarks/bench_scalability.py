"""SCALE — the paper's Section 1.1 motivation: algebraic succinctness.

"Existing methods for quantum program analysis and verification usually
involve exponential-size matrices in terms of the system size … a succinct
KA-based algebraic reasoning would greatly increase the scalability."

This bench quantifies that claim on the loop-unrolling equivalence:

* the **algebraic** route replays derivation (5.1.1) — its cost does not
  depend on the Hilbert-space dimension at all (the derivation never sees
  a matrix);
* the **semantic** route compares superoperators — its cost grows with
  ``dim⁴ = 16^qubits`` (Liouville matrices).

Expected shape: algebraic flat, semantic exploding; the crossover sits at
1–2 qubits on this machine.

A second axis: **dense vs sparse linear algebra**.  The decision pipeline
keeps each letter's transition matrix as sparse dict rows and Tzeng's
basis as a sparse integer row space (:mod:`repro.linalg`); this bench
sweeps sparse automata up to ≥200 states and times full weighted-automaton
equivalence on both the pipeline and a dense ``Fraction`` Tzeng baseline,
asserting the verdicts never change.  Run directly for a JSON report::

    PYTHONPATH=src python benchmarks/bench_scalability.py \
        --sizes 25 50 100 200 --json BENCH_scalability.json
"""

import argparse
import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

try:
    from benchmarks.conftest import report
except ModuleNotFoundError:  # invoked as a script: `python benchmarks/bench_scalability.py`
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    from benchmarks.conftest import report

from repro.applications.optimization import (
    prove_loop_unrolling,
    unrolling_programs,
)
from repro.automata.equivalence import wfa_equivalent
from repro.automata.wfa import WFA
from repro.core.decision import cache_stats, clear_caches, nka_equal_many
from repro.core.expr import ONE as EXPR_ONE, Product, Star, Sum, Symbol
from repro.core.hypotheses import projective_measurement
from repro.core.semiring import ExtNat, ONE, ZERO
from repro.programs.semantics import denotation
from repro.programs.syntax import Unitary
from repro.quantum.gates import H
from repro.quantum.hilbert import Space, qubit
from repro.quantum.measurement import binary_projective
from repro.quantum.operators import random_unitary

QUBIT_RANGE = [1, 2, 3]
STATE_SWEEP = [25, 50, 100, 200]
DENSE_EQUIV_CAP = 100  # dense Tzeng baseline is ~10s at n=100, minutes at 200


def test_scale_algebraic_derivation(benchmark):
    """Dimension-independent: the proof mentions no matrices at all."""
    m0, m1, p = Symbol("m0"), Symbol("m1"), Symbol("p")
    hyps = projective_measurement([m0, m1])
    proof = benchmark(prove_loop_unrolling, m0, m1, p, hyps)
    assert proof.conclusion
    report("SCALE/algebraic",
           "derivation cost independent of system size",
           f"{len(proof.steps)} steps, zero matrices")


@pytest.mark.parametrize("batch", [25, 100])
def test_scale_repeated_decision_traffic(benchmark, batch):
    """Serving-shaped traffic: overlapping equality queries, asked twice.

    The second pass over the workload must be dominated by cache hits —
    the headline win of the hash-consed, memoized compile pipeline.
    """
    rng = random.Random(batch)
    m0, m1, p = Symbol("m0"), Symbol("m1"), Symbol("p")
    seeds = [m0, m1, p, Product(m0, p), Star(Product(m0, p))]
    pairs = []
    for _ in range(batch):
        left = rng.choice(seeds)
        right = rng.choice(seeds)
        pairs.append((Sum(EXPR_ONE, Product(left, Star(left))), Star(left)))
        pairs.append((Product(Star(Product(left, right)), left),
                      Product(left, Star(Product(right, left)))))

    def run():
        clear_caches()
        first = nka_equal_many(pairs)
        second = nka_equal_many(pairs)  # all verdict-cache hits
        assert first == second
        return first

    results = benchmark(run)
    assert all(results)
    # Per-round hit rate from one fresh run (session counters are cumulative).
    clear_caches(reset_stats=True)
    run()
    stats = cache_stats()["decision.results"]
    total = stats.hits + stats.misses
    report(f"SCALE/traffic-{batch}",
           "caching amortises the automaton pipeline across queries",
           f"{2 * len(pairs)} queries per round, verdict cache served "
           f"{stats.hits}/{total} lookups")


@pytest.mark.parametrize("qubits", QUBIT_RANGE)
def test_scale_semantic_check(benchmark, qubits):
    """Exponential: superoperator comparison on n qubits is 16^n work."""
    registers = [qubit(f"q{i}") for i in range(qubits)]
    space = Space(registers)
    projector = np.diag([0.0, 1.0]).astype(complex)
    measurement = binary_projective(projector)
    rng = np.random.default_rng(qubits)
    body_matrix = random_unitary(2 ** qubits, rng)
    body = Unitary([r.name for r in registers], body_matrix, label="p")
    before, after = unrolling_programs(measurement, (registers[0].name,), body)

    def run():
        return denotation(before, space).equals(denotation(after, space))

    assert benchmark(run)
    report(f"SCALE/semantic-{qubits}q",
           "matrix route grows as 16^qubits",
           f"dim {space.dim}, Liouville {space.dim**2}×{space.dim**2}")


# -- dense vs sparse backend sweep ---------------------------------------------


def spread_wfa(n: int, permutation, weight_bump=None) -> WFA:
    """An all-finite WFA whose Tzeng vectors become dense as words grow.

    Letter ``a`` steps ``i → i+1`` and ``i → i+2`` (so left vectors spread
    to wide supports — the regime where dense vector–matrix products cost
    ``Θ(n²)`` per step while sparse rows stay ``O(1)``); letter ``b`` is a
    plain chain.  ``permutation[i]`` is the physical index of logical state
    ``i`` — permuting produces behaviourally identical automata with
    different matrices, the shape Tzeng's algorithm has to work for.
    ``weight_bump`` optionally doubles one transition to make the pair
    *inequivalent*.
    """
    wfa = WFA(
        num_states=n,
        alphabet=frozenset({"a", "b"}),
        initial=[ZERO] * n,
        final=[ZERO] * n,
    )
    wfa.initial[permutation[0]] = ONE
    wfa.final[permutation[n - 1]] = ONE
    for i in range(n - 1):
        weight = ExtNat(2) if weight_bump == i else ONE
        wfa.set_weight("a", permutation[i], permutation[i + 1], weight)
        if i + 2 < n:
            wfa.set_weight("a", permutation[i], permutation[i + 2], ONE)
        wfa.set_weight("b", permutation[i], permutation[i + 1], ONE)
    return wfa


def _dense_tzeng_equal(left: WFA, right: WFA) -> bool:
    """The pre-backend dense Tzeng loop: dense rows, ``Fraction`` vectors,
    and its own textbook ``Fraction`` elimination, sharing no code with the
    production basis."""
    n_left = left.num_states
    dense = {
        (side, letter): [
            [rows.get(i, {}).get(j, ZERO) for j in range(wfa.num_states)]
            for i in range(wfa.num_states)
        ]
        for side, wfa in (("L", left), ("R", right))
        for letter, rows in wfa.matrices.items()
    }

    def advance(vector, side, wfa, letter, offset):
        n = wfa.num_states
        result = [Fraction(0)] * n
        matrix = dense.get((side, letter))
        if matrix is None:
            return result
        for i in range(n):
            value = vector[offset + i]
            if value == 0:
                continue
            for j in range(n):
                weight = matrix[i][j]
                if not weight.is_zero:
                    result[j] += value * weight.finite_value
        return result

    functional = tuple(
        [Fraction(w.finite_value) for w in left.final]
        + [-Fraction(w.finite_value) for w in right.final]
    )
    start = tuple(
        [Fraction(w.finite_value) for w in left.initial]
        + [Fraction(w.finite_value) for w in right.initial]
    )
    alphabet = sorted(left.alphabet | right.alphabet)
    basis = []  # (pivot, row): each row is zero at every earlier pivot

    def insert(candidate):
        residue = list(candidate)
        for pivot, row in basis:
            if residue[pivot]:
                factor = residue[pivot] / row[pivot]
                residue = [a - factor * b for a, b in zip(residue, row)]
        pivot = next((i for i, value in enumerate(residue) if value), None)
        if pivot is not None:
            basis.append((pivot, residue))
        return pivot is not None

    queue = []
    if insert(start):
        queue.append(start)
    while queue:
        vector = queue.pop(0)
        if sum(a * b for a, b in zip(vector, functional)) != 0:
            return False
        for letter in alphabet:
            successor = tuple(
                advance(vector, "L", left, letter, 0)
                + advance(vector, "R", right, letter, n_left)
            )
            if insert(successor):
                queue.append(successor)
    return True


def _time(fn):
    begin = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - begin


def sweep_equivalence(sizes, dense_cap=DENSE_EQUIV_CAP, seed=2024):
    """Sparse vs dense WFA equivalence on permuted spread automata.

    Each size checks one equal pair (automaton vs state-permuted copy) and
    one unequal pair (one transition weight doubled); the dense and sparse
    routes must return identical verdicts.
    """
    rows = []
    for n in sizes:
        rng = random.Random(seed + n)
        identity = list(range(n))
        shuffled = list(range(n))
        rng.shuffle(shuffled)
        left = spread_wfa(n, identity)
        right = spread_wfa(n, shuffled)
        wrong = spread_wfa(n, identity, weight_bump=n // 2)

        def sparse_run():
            return (
                wfa_equivalent(left, right).equal,
                wfa_equivalent(left, wrong).equal,
            )

        (sparse_eq, sparse_neq), sparse_s = _time(sparse_run)
        assert sparse_eq and not sparse_neq
        row = {
            "n": n,
            "sparse_s": sparse_s,
            "dense_s": None,
            "speedup": None,
            "verdicts": [sparse_eq, sparse_neq],
        }
        if n <= dense_cap:
            # The infinity-support stage is Boolean and shared; the dense
            # baseline swaps in the legacy dense-Fraction Tzeng stage.
            def dense_run():
                return (
                    _dense_tzeng_equal(left, right),
                    _dense_tzeng_equal(left, wrong),
                )

            (dense_eq, dense_neq), dense_s = _time(dense_run)
            assert (dense_eq, dense_neq) == (sparse_eq, sparse_neq), (
                f"verdict mismatch at n={n}"
            )
            row["dense_s"] = dense_s
            row["speedup"] = dense_s / sparse_s if sparse_s > 0 else float("inf")
        rows.append(row)
    return rows


def run_backend_sweep(sizes=None, dense_equiv_cap=DENSE_EQUIV_CAP):
    sizes = list(sizes or STATE_SWEEP)
    return {
        "bench": "scalability/dense-vs-sparse",
        "sizes": sizes,
        "equivalence": sweep_equivalence(sizes, dense_equiv_cap),
    }


def _format_row(row):
    dense = f"{row['dense_s']*1000:9.1f}ms" if row["dense_s"] is not None else "        —"
    speed = f"{row['speedup']:6.1f}×" if row["speedup"] is not None else "      —"
    return (
        f"  n={row['n']:>4}  sparse {row['sparse_s']*1000:8.1f}ms  "
        f"dense {dense}  speedup {speed}"
    )


def test_backend_sweep_small():
    """Tier-agnostic smoke: sparse ≥5× faster than dense at n=100, verdicts equal."""
    results = run_backend_sweep(sizes=[25, 50, 100])
    for row in results["equivalence"]:
        if row["n"] >= 100:
            assert row["speedup"] is not None and row["speedup"] >= 5.0, row
    report(
        "SCALE/backend-equivalence",
        "sparse Tzeng advances in O(nnz) with the sparse integer RowSpace",
        "; ".join(_format_row(r).strip() for r in results["equivalence"]),
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=STATE_SWEEP)
    parser.add_argument("--dense-equiv-cap", type=int, default=DENSE_EQUIV_CAP,
                        help="largest n to run the dense Tzeng baseline at")
    parser.add_argument("--json", type=str, default=None,
                        help="write results to this JSON file")
    args = parser.parse_args(argv)
    results = run_backend_sweep(args.sizes, args.dense_equiv_cap)
    print("wfa equivalence (equal + unequal permuted chains):")
    for row in results["equivalence"]:
        print(_format_row(row))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2)
        print(f"wrote {args.json}")


if __name__ == "__main__":
    main()
