"""Differential gate for the vectorized (numpy) kernel backend.

The kernel protocol (:mod:`repro.linalg.kernels`) promises that every
vectorized fast path either returns **exactly** what the pure-python
oracle returns or declines back to it, and that declines are *observable*
(per-op fallback counters).  This suite holds both promises to the flame:

* operation-level parity on seeded random inputs — ``reachable``, NFA
  subset steps and ``RowSpace`` elimination;
* boundary cases that MUST decline: int64 overflow in the fraction-free
  elimination — asserted to take the fallback path via
  :func:`repro.linalg.kernels.fallback_count` *and* to produce the
  oracle's bytes anyway;
* pipeline-level parity — the :mod:`tests.gen` property workload decided
  under ``NKAEngine(kernel="python")`` vs ``kernel="numpy"``: verdicts
  and counterexample words must be pickled-bytes-identical, and compiled
  automata semantically equal.
"""

import pickle
import random

import pytest

from gen import random_int_entries, random_pairs

from repro.core.expr import Product, Star, Sum, Symbol, product_of
from repro.engine import NKAEngine
from repro.linalg import BOOL, RowSpace, SparseMatrix, kernels, reachable
from repro.linalg.kernels import KernelBackendError, numpy_backend

pytestmark = pytest.mark.skipif(
    not numpy_backend.available(), reason="numpy not importable"
)


@pytest.fixture(autouse=True)
def _fresh_counters():
    kernels.reset_kernel_stats()
    yield
    kernels.reset_kernel_stats()


class TestBackendSelection:
    def test_python_is_the_default(self):
        assert kernels.backend_name() in ("python", "numpy")
        with kernels.use_backend("python"):
            assert not kernels.vectorized_active()

    def test_unknown_backend_rejected(self):
        with pytest.raises(KernelBackendError, match="unknown kernel backend"):
            kernels.validate_backend("cuda")
        with pytest.raises(KernelBackendError):
            NKAEngine("bad-kernel", kernel="cuda")

    def test_use_backend_restores_previous(self):
        before = kernels.backend_name()
        with kernels.use_backend("numpy"):
            assert kernels.backend_name() == "numpy"
        assert kernels.backend_name() == before

    def test_engine_stats_expose_kernel_section(self):
        with NKAEngine("kernel-stats", kernel="numpy") as engine:
            a, b = Symbol("a"), Symbol("b")
            engine.equal(Star(Sum(a, b)), Star(Sum(b, a)))
            section = engine.stats()["kernel"]
        assert section["configured"] == "numpy"
        assert section["numpy_available"] is True
        assert set(section["ops"]) == {"reachable", "rowspace", "nfa_successors"}
        for counts in section["ops"].values():
            assert counts["fallback_total"] == sum(counts["fallbacks"].values())


class TestMulReachableParity:
    def test_reachable_matches_oracle_on_large_graphs(self):
        rng = random.Random(75)
        for _ in range(10):
            n = rng.randint(numpy_backend.REACHABLE_MIN_STATES, 140)
            adjacency = SparseMatrix(n, n, BOOL)
            for i, j, _ in random_int_entries(rng, n, n, 0.02, 1, 1):
                adjacency.add_entry(i, j, True)
            seeds = {s for s in range(n) if rng.random() < 0.05}
            with kernels.use_backend("python"):
                oracle = reachable(adjacency, set(seeds))
            with kernels.use_backend("numpy"):
                fast = reachable(adjacency, set(seeds))
            assert fast == oracle
        assert kernels.kernel_stats()["ops"]["reachable"]["vectorized"] > 0


class TestNfaSuccessorsParity:
    def _random_nfa(self, rng, n):
        from repro.automata.nfa import NFA

        nfa = NFA(num_states=n, alphabet=frozenset({"a", "b"}))
        for _ in range(3 * n):
            nfa.add_transition(
                rng.randrange(n), rng.choice(("a", "b")), rng.randrange(n)
            )
        return nfa

    def test_subset_steps_match_oracle(self):
        rng = random.Random(76)
        n = numpy_backend.NFA_MIN_STATES + 16
        nfa = self._random_nfa(rng, n)
        for _ in range(20):
            states = frozenset(
                s for s in range(n) if rng.random() < 0.2
            )
            letter = rng.choice(("a", "b"))
            with kernels.use_backend("python"):
                oracle = nfa.successors(states, letter)
            with kernels.use_backend("numpy"):
                fast = nfa.successors(states, letter)
            assert fast == oracle
        assert kernels.kernel_stats()["ops"]["nfa_successors"]["vectorized"] > 0

    def test_add_transition_invalidates_bitset_cache(self):
        rng = random.Random(77)
        n = numpy_backend.NFA_MIN_STATES + 8
        nfa = self._random_nfa(rng, n)
        states = frozenset(range(0, n, 3))
        with kernels.use_backend("numpy"):
            nfa.successors(states, "a")  # populate the bitset cache
            nfa.add_transition(0, "a", n - 1)
            after = nfa.successors(states, "a")
        with kernels.use_backend("python"):
            nfa_fresh = self._random_nfa(random.Random(77), n)
            nfa_fresh.add_transition(0, "a", n - 1)
            oracle = nfa_fresh.successors(states, "a")
        assert after == oracle
        assert n - 1 in after  # the new edge is visible through the cache


class TestRowSpaceParity:
    def test_large_dimension_elimination_matches_oracle(self):
        rng = random.Random(78)
        dim = numpy_backend.ROWSPACE_MIN_DIM
        fast, oracle = RowSpace(dim), RowSpace(dim)
        for _ in range(dim + 10):
            candidate = tuple(rng.randint(-5, 5) for _ in range(dim))
            with kernels.use_backend("numpy"):
                fast_verdict = fast.insert(candidate)
            with kernels.use_backend("python"):
                oracle_verdict = oracle.insert(candidate)
            assert fast_verdict == oracle_verdict
            assert fast.rank == oracle.rank
        assert fast._rows == oracle._rows  # gcd-normalised, so bit-equal
        assert kernels.kernel_stats()["ops"]["rowspace"]["vectorized"] > 0

    def test_int64_overflow_takes_fallback_and_matches(self):
        dim = numpy_backend.ROWSPACE_MIN_DIM
        fast, oracle = RowSpace(dim), RowSpace(dim)
        huge = 1 << 70  # beyond int64: rowspace_entry must refuse
        first = (1,) * dim
        second = (huge,) + (1,) * (dim - 1)
        third = tuple(range(1, dim + 1))
        for candidate in (first, second, third):
            with kernels.use_backend("numpy"):
                fast_verdict = fast.insert(candidate)
            with kernels.use_backend("python"):
                oracle_verdict = oracle.insert(candidate)
            assert fast_verdict == oracle_verdict
        assert kernels.fallback_count("rowspace", "overflow") >= 1
        assert fast._rows == oracle._rows

    def test_backend_toggle_between_inserts_stays_exact(self):
        rng = random.Random(79)
        dim = numpy_backend.ROWSPACE_MIN_DIM
        mixed, oracle = RowSpace(dim), RowSpace(dim)
        for step in range(dim // 2):
            candidate = tuple(rng.randint(-4, 4) for _ in range(dim))
            backend = "numpy" if step % 2 else "python"
            with kernels.use_backend(backend):
                mixed_verdict = mixed.insert(candidate)
            with kernels.use_backend("python"):
                oracle_verdict = oracle.insert(candidate)
            assert mixed_verdict == oracle_verdict
        assert mixed._rows == oracle._rows


# One batch of the gen.py property workload, shared by the engine tests.
PIPELINE_SPECS = (
    dict(seed=9001, count=40, letters=("a", "b"), depth=4,
         equal_fraction=0.15, star_bias=0.3),
    dict(seed=9002, count=40, letters=("a", "b", "c"), depth=3,
         equal_fraction=0.1, star_bias=0.25),
    dict(seed=9003, count=20, letters=("a",), depth=5,
         equal_fraction=0.1, star_bias=0.35),
)


@pytest.fixture(scope="module")
def pipeline_corpus():
    pairs = []
    for spec in PIPELINE_SPECS:
        pairs.extend(random_pairs(**spec))
    # The position automata of the gen.py workload stay below every
    # vectorization threshold; these wide pairs (80+ states) route through
    # the numpy reachability, subset-step and RowSpace kernels too.
    a, b = Symbol("a"), Symbol("b")
    wide = product_of([Star(Sum(a, b))] * 40)
    pairs += [
        (wide, product_of([Star(Sum(b, a))] * 40)),
        (wide, Product(wide, a)),
        (Star(Sum(wide, Star(Product(a, b)))), Star(wide)),
    ]
    return pairs


class TestEnginePipelineParity:
    def test_verdicts_and_counterexamples_bytes_identical(self, pipeline_corpus):
        with NKAEngine("kernel-py", kernel="python") as py_engine:
            py_verdicts = py_engine.equal_many_detailed(pipeline_corpus)
        kernels.reset_kernel_stats()
        with NKAEngine("kernel-np", kernel="numpy") as np_engine:
            np_verdicts = np_engine.equal_many_detailed(pipeline_corpus)
            stats = np_engine.stats()["kernel"]
        for index, (oracle, fast) in enumerate(zip(py_verdicts, np_verdicts)):
            assert pickle.dumps(oracle) == pickle.dumps(fast), (
                f"pair #{index}: {oracle} != {fast}"
            )
            assert oracle.counterexample == fast.counterexample
        # The run must actually have exercised the vectorized paths.
        for op in ("reachable", "rowspace", "nfa_successors"):
            assert stats["ops"][op]["vectorized"] > 0, op

    def test_compiled_automata_semantically_equal(self, pipeline_corpus):
        from repro.automata.wfa import expr_to_wfa

        exprs = {expr for pair in pipeline_corpus[:30] for expr in pair}
        for expr in exprs:
            with kernels.use_backend("python"):
                oracle = expr_to_wfa(expr)
            with kernels.use_backend("numpy"):
                fast = expr_to_wfa(expr)
            assert fast.num_states == oracle.num_states
            assert fast.initial == oracle.initial
            assert fast.final == oracle.final
            assert fast.matrices == oracle.matrices

    def test_infinity_heavy_expressions_agree(self):
        # {{1*}}[ε] = ∞ and friends: the ∞-support machinery must agree
        # across backends.
        from repro.core.expr import One

        a = Symbol("a")
        pairs = [
            (Star(One()), Star(Star(One()))),
            (Star(Sum(One(), a)), Star(a)),
            (Product(Star(One()), a), Product(a, Star(One()))),
        ]
        with NKAEngine("inf-py", kernel="python") as py_engine:
            oracle = py_engine.equal_many_detailed(pairs)
        with NKAEngine("inf-np", kernel="numpy") as np_engine:
            fast = np_engine.equal_many_detailed(pairs)
        assert [pickle.dumps(v) for v in oracle] == [pickle.dumps(v) for v in fast]


class TestThreadSafety:
    """Regression (serving satellite): the kernel layer is process-global
    state read by ``engine.stats()`` from serving threads while *other*
    threads compile.  Both tests fail on the pre-PR module — the counter
    hammer with ``RuntimeError: dictionary changed size during iteration``,
    the backend test by observing another thread's ``use_backend`` leak."""

    def test_kernel_stats_snapshot_survives_concurrent_fallbacks(self):
        import threading

        kernels.reset_kernel_stats()
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    kernels.kernel_stats()
                    kernels.fallback_count("rowspace")
                except RuntimeError as error:
                    errors.append(error)
                    return

        def writer():
            try:
                # Fresh reason strings grow the per-op fallbacks dict on
                # every record — exactly what tears an unlocked snapshot.
                for index in range(4000):
                    kernels.record_fallback("rowspace", f"hammer-reason-{index}")
                    kernels.record_vectorized("reachable")
            finally:
                stop.set()

        threads = [threading.Thread(target=reader) for _ in range(2)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        kernels.reset_kernel_stats()
        assert not errors, f"kernel_stats raced a recording thread: {errors[0]}"

    def test_engine_stats_concurrent_with_decisions(self):
        """The user-visible face of the same race: ``stats()`` polled from
        one thread while another runs ``equal_detailed``."""
        import threading

        engine = NKAEngine("stats-hammer")
        pairs = random_pairs(seed=77, count=30, depth=3, equal_fraction=0.2)
        errors = []
        done = threading.Event()

        def poll_stats():
            while not done.is_set():
                try:
                    engine.stats()
                except Exception as error:
                    errors.append(error)
                    return

        def decide():
            try:
                for left, right in pairs:
                    engine.equal_detailed(left, right)
            finally:
                done.set()

        poller = threading.Thread(target=poll_stats)
        decider = threading.Thread(target=decide)
        poller.start()
        decider.start()
        decider.join(60)
        poller.join(60)
        assert not errors, f"stats() raced equal_detailed: {errors[0]}"

    def test_use_backend_is_thread_local(self):
        import threading

        if not numpy_backend.available():
            pytest.skip("numpy backend unavailable")
        default = kernels.backend_name()
        observed = {}
        inside = threading.Barrier(2, timeout=10)
        sampled = threading.Barrier(2, timeout=10)

        def overriding_thread():
            with kernels.use_backend("numpy" if default == "python" else "python"):
                inside.wait()   # override active…
                sampled.wait()  # …while the other thread samples

        def sampling_thread():
            inside.wait()
            observed["other"] = kernels.backend_name()
            sampled.wait()

        threads = [
            threading.Thread(target=overriding_thread),
            threading.Thread(target=sampling_thread),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert observed["other"] == default, (
            "use_backend leaked across threads: one tenant's kernel choice "
            "must never change another tenant's concurrent compile"
        )
        assert kernels.backend_name() == default

    def test_set_backend_still_moves_the_process_default(self):
        """set_backend stays process-wide (the serving default); only
        use_backend scopes per-thread."""
        import threading

        if not numpy_backend.available():
            pytest.skip("numpy backend unavailable")
        previous = kernels.set_backend("numpy")
        try:
            seen = {}

            def sample():
                seen["worker"] = kernels.backend_name()

            thread = threading.Thread(target=sample)
            thread.start()
            thread.join(10)
            assert seen["worker"] == "numpy"
        finally:
            kernels.set_backend(previous)
