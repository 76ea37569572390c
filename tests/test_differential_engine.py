"""Differential oracle: engine configurations must agree byte-for-byte.

Kappé–Silva–Wagemaker's survey point, operationalised: a decision-procedure
implementation is only trustworthy if every execution strategy conforms to
the same algebraic semantics.  This suite pins the conformance surface: a
seeded 203-pair corpus is decided by

(a) the **sequential** engine (one planned batch on the engine's caches),
(b) a **fresh no-cache** oracle (caches wiped before every single pair, so
    no state whatsoever carries between queries), and
(c) a **store-served** engine (``store=``) answering entirely out of a
    :class:`~repro.engine.store.CompileStore` another engine populated —
    zero parent compilations, every automaton deserialized from disk,

and all of them must produce *identical* verdicts — including the
counterexample word and the deciding reason, compared byte-for-byte on the
pickled results.  Any divergence means planning, caching or the store
leaked into the answers, which the algebra forbids.

Agreement between configurations cannot catch a bug they all share, so
the sequential verdicts are also checked against the truncated power
series of Def. A.4 (:func:`repro.series.power_series.series_of_expr`), a
syntax-directed evaluator that shares no code with the automaton
pipeline.

The corpus mixes alphabet sizes, depths, star densities and
identical-by-construction pairs so all decision paths (pointer-equal
short-circuit, Tzeng exhaustion, counterexample search, ∞-support
handling through nested stars) are exercised.
"""

import pickle

import pytest

from gen import random_pairs

from repro.core.expr import Product, Star, Sum, Symbol, alphabet, product_of
from repro.core.semiring import ZERO
from repro.engine import NKAEngine
from repro.series.power_series import series_of_expr


# Four seeded slices, 200 pairs: varied alphabets/depths/star biases.
CORPUS_SPECS = (
    dict(seed=5001, count=60, letters=("a", "b", "c"), depth=3,
         equal_fraction=0.15, star_bias=0.2),
    dict(seed=5002, count=60, letters=("a", "b"), depth=4,
         equal_fraction=0.1, star_bias=0.3),
    dict(seed=5003, count=50, letters=("a", "b", "c", "d"), depth=3,
         equal_fraction=0.2, star_bias=0.25),
    dict(seed=5004, count=30, letters=("a",), depth=5,
         equal_fraction=0.1, star_bias=0.35),
)

CORPUS_SIZE = 203

# Equal verdicts must agree with the series on every word up to this length.
SERIES_LENGTH = 4


def _wide_pairs():
    """Three 80-position pairs: the seeded slices' position automata are
    small, these give every configuration wide automata to agree on."""
    a, b = Symbol("a"), Symbol("b")
    wide = product_of([Star(Sum(a, b))] * 40)
    return [
        (wide, product_of([Star(Sum(b, a))] * 40)),
        (wide, Product(wide, a)),
        (Star(Sum(wide, Star(Product(a, b)))), Star(wide)),
    ]


def _corpus():
    pairs = []
    for spec in CORPUS_SPECS:
        pairs.extend(random_pairs(**spec))
    return pairs + _wide_pairs()


@pytest.fixture(scope="module")
def corpus():
    pairs = _corpus()
    assert len(pairs) == CORPUS_SIZE
    return pairs


@pytest.fixture(scope="module")
def sequential_verdicts(corpus):
    """(a) The default engine, one batch."""
    engine = NKAEngine("diff-sequential")
    return engine.equal_many_detailed(corpus)


@pytest.fixture(scope="module")
def nocache_verdicts(corpus):
    """(b) The oracle: caches wiped before every pair — no carried state."""
    engine = NKAEngine("diff-nocache")
    verdicts = []
    for left, right in corpus:
        engine.clear()  # forget every compiled automaton and verdict
        verdicts.append(engine.equal_detailed(left, right))
    return verdicts


@pytest.fixture(scope="module")
def store_served_verdicts(corpus, tmp_path_factory):
    """(c) The shared compile store: a publisher engine fills a store, a
    *fresh* engine answers the whole corpus from it with zero parent
    compilations — the fleet-warm path of :mod:`repro.engine.store`."""
    root = str(tmp_path_factory.mktemp("diff-store"))
    with NKAEngine("diff-store-pub", store=root) as publisher:
        publisher.equal_many_detailed(corpus)
        assert publisher.stats()["store"]["publishes"] > 0
    with NKAEngine("diff-store-sub", store=root) as served:
        verdicts = served.equal_many_detailed(corpus)
        assert served.compilations == 0, (
            f"{served.compilations} compilations despite a populated store"
        )
        # The verdict tier answers the repeat batch outright: published
        # *verdicts* are served at plan time, so not even a Tzeng run —
        # or a WFA read — happens on the repeat path.
        assert served.stats()["decisions"] == 0
        assert served.stats()["verdicts"]["store_hits"] > 0
    return verdicts


def _chain_family(letters, factors, count, seed):
    """``count`` distinct-but-equivalent re-associations of one product,
    plus one refuting tail expression.

    Associativity makes every binary re-association of the same factor
    sequence denote the same series, so the family seeds a ``count``-sized
    equivalence class; the tail appends an extra letter, refuting against
    every member with one shared witness.
    """
    import random

    from repro.core.expr import sym

    rng = random.Random(seed)
    syms = [sym(letters[i % len(letters)] + str(i)) for i in range(factors)]

    def associate(lo, hi):
        if hi - lo == 1:
            return syms[lo]
        split = rng.randint(lo + 1, hi - 1)
        return associate(lo, split) * associate(split, hi)

    family = []
    seen = set()
    while len(family) < count:
        expr = associate(0, factors)
        if expr not in seen:
            seen.add(expr)
            family.append(expr)
    tail = family[0] * sym("tail")
    return family, tail


@pytest.fixture(scope="module")
def chain():
    family, tail = _chain_family(("a", "b", "c"), factors=8, count=6, seed=77)
    adjacent = [(family[i], family[i + 1]) for i in range(len(family) - 1)]
    adjacent.append((family[0], tail))
    closure = [
        (family[i], family[j])
        for i in range(len(family))
        for j in range(i + 2, len(family))
    ]
    closure.extend((member, tail) for member in family[1:])
    return adjacent, closure


def test_inferred_verdicts_byte_identical_modulo_reason(corpus, chain):
    """(d) The inference tier: ``infer_verdicts=True`` over the corpus plus
    seeded transitive chains.  The seeding batch decides corpus + adjacent
    chain pairs; the closure batch is then answered *entirely* by the
    union–find — zero decisions, zero compilations — and every verdict
    must be byte-identical to a direct decision modulo the canonical
    ``inferred:`` reason tag, with every inferred counterexample word
    re-verified against both series."""
    adjacent, closure = chain
    inferring = NKAEngine("diff-infer", infer_verdicts=True)
    inferring.equal_many_detailed(corpus + adjacent)
    decided = inferring.stats()["decisions"]
    compiled = inferring.compilations
    inferred = inferring.equal_many_detailed(closure)
    assert inferring.stats()["decisions"] == decided, "closure ran Tzeng"
    assert inferring.compilations == compiled, "closure compiled something"
    stats = inferring.stats()["verdicts"]
    assert stats["inferred_equal"] > 0 and stats["inferred_refuted"] > 0

    oracle = NKAEngine("diff-infer-oracle", infer_verdicts=False)
    oracle.equal_many_detailed(corpus + adjacent)
    direct = oracle.equal_many_detailed(closure)

    for index, (fast, slow) in enumerate(zip(inferred, direct)):
        assert fast.equal == slow.equal, f"closure pair #{index}"
        assert fast.counterexample == slow.counterexample, f"closure pair #{index}"
        assert fast.reason.startswith("inferred:"), fast.reason
        witness = fast.counterexample
        if witness is not None:
            lhs, rhs = _series_pair(*closure[index], len(witness))
            assert lhs.get(witness, ZERO) != rhs.get(witness, ZERO), (
                f"inferred witness does not distinguish closure pair #{index}"
            )

    # Byte-identity modulo the reason tag: re-tag and compare pickles.
    from repro.automata.equivalence import EquivalenceResult

    for index, (fast, slow) in enumerate(zip(inferred, direct)):
        retagged = EquivalenceResult(
            equal=fast.equal,
            counterexample=fast.counterexample,
            reason=slow.reason,
        )
        assert pickle.dumps(retagged) == pickle.dumps(slow), (
            f"closure pair #{index} differs beyond the reason tag"
        )


def _series_pair(left, right, length):
    """Both truncated series over the pair's joint alphabet, as dicts."""
    letters = alphabet(left) | alphabet(right)
    return (
        series_of_expr(left, length, letters).as_dict(),
        series_of_expr(right, length, letters).as_dict(),
    )


def _shortlex(word):
    return (len(word), word)


def test_sequential_verdicts_agree_with_series_oracle(corpus, sequential_verdicts):
    """(f) The independent oracle.  Equal verdicts: the series agree on
    every word up to :data:`SERIES_LENGTH`.  Refutations: the witness gets
    different coefficients, and no shortlex-smaller word separates the
    series the way the deciding stage looks at them — any difference at
    all for a finite-part refutation, ``∞`` on exactly one side for an
    infinity-support one.  (A word with differing *finite* coefficients can
    precede an infinity-support witness, since stage 1 decides first.)"""
    for index, ((left, right), verdict) in enumerate(zip(corpus, sequential_verdicts)):
        witness = verdict.counterexample
        if verdict.equal:
            lhs, rhs = _series_pair(left, right, SERIES_LENGTH)
            assert lhs == rhs, f"pair #{index}: equal verdict, series differ"
            continue
        lhs, rhs = _series_pair(left, right, len(witness))
        at_witness = (lhs.get(witness, ZERO), rhs.get(witness, ZERO))
        assert at_witness[0] != at_witness[1], f"pair #{index}: {verdict}"
        earlier = [
            word
            for word in lhs.keys() | rhs.keys()
            if _shortlex(word) < _shortlex(witness)
        ]
        infinity_stage = verdict.reason.startswith("infinity supports differ")
        if infinity_stage:
            assert at_witness[0].is_infinite != at_witness[1].is_infinite
        else:
            assert verdict.reason.startswith("finite coefficients differ"), verdict
        for word in earlier:
            a, b = lhs.get(word, ZERO), rhs.get(word, ZERO)
            separates = a.is_infinite != b.is_infinite if infinity_stage else a != b
            assert not separates, f"pair #{index}: {word} precedes witness {witness}"


def test_inference_off_is_the_default_and_oracle_equal(corpus):
    """``REPRO_VERDICT_INFER`` unset → inference off; verdicts unchanged."""
    engine = NKAEngine("diff-infer-default")
    assert engine.stats()["verdicts"]["infer_enabled"] is False
    toggled = NKAEngine("diff-infer-toggle")
    toggled.configure(infer_verdicts=True)
    assert toggled.stats()["verdicts"]["infer_enabled"] is True


def test_corpus_is_the_mandated_200_pairs(corpus):
    assert len(corpus) == CORPUS_SIZE


def test_sequential_equals_nocache_bytewise(sequential_verdicts, nocache_verdicts):
    for index, (sequential, oracle) in enumerate(
        zip(sequential_verdicts, nocache_verdicts)
    ):
        assert pickle.dumps(sequential) == pickle.dumps(oracle), (
            f"pair #{index}: sequential {sequential} != no-cache oracle {oracle}"
        )


def test_store_served_equals_sequential_bytewise(
    store_served_verdicts, sequential_verdicts
):
    """Store-served verdicts must be pickled-bytes-identical to fresh
    compiles: the store may change *where* an automaton comes from, never
    what it decides."""
    for index, (served, sequential) in enumerate(
        zip(store_served_verdicts, sequential_verdicts)
    ):
        assert pickle.dumps(served) == pickle.dumps(sequential), (
            f"pair #{index}: store-served {served} != sequential {sequential}"
        )


def test_counterexample_words_identical_across_configs(
    store_served_verdicts, sequential_verdicts, nocache_verdicts
):
    """The refuting word — not just the boolean — must be config-independent."""
    assert len(sequential_verdicts) == CORPUS_SIZE
    refuted = 0
    for served, sequential, oracle in zip(
        store_served_verdicts, sequential_verdicts, nocache_verdicts
    ):
        assert served.counterexample == sequential.counterexample == oracle.counterexample
        if not sequential.equal:
            refuted += 1
            assert sequential.counterexample is not None
    # The corpus must actually exercise the counterexample machinery.
    assert refuted > CORPUS_SIZE // 4, f"only {refuted} refutations in corpus"


def test_corpus_exercises_both_outcomes(sequential_verdicts):
    equal = sum(1 for verdict in sequential_verdicts if verdict.equal)
    assert equal > 10, f"too few equal pairs ({equal}) to trust the corpus"
    assert equal < CORPUS_SIZE - 10, "corpus must include refuted pairs too"
