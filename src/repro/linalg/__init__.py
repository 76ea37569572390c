"""Semiring-generic sparse linear algebra for the NKA decision pipeline.

Why this package exists
-----------------------

The paper's decision procedure (Remark 2.1, Bloom–Ésik) reduces NKA
equality to weighted-automata equivalence over ``N̄ = N ∪ {∞}``.  Every
matrix that pipeline touches is *sparse*: a position automaton's letter
matrices hold only the ``follow`` edges into that letter's positions, and
the Hadamard products used for infinity-support surgery only multiply
supports.  This package is the shared backend every layer compiles down
to instead of rolling its own arrays.

The semiring protocol
---------------------

All kernels are generic over :class:`repro.linalg.semiring.SemiringSpec`,
a record of ``(zero, one, add, mul, is_zero)``.  Two instances cover the
whole pipeline, which is the point — weighted and Boolean reasoning are
the *same algorithms* at different weights:

===============  =====================================  =========================
instance         coefficients                           used by
===============  =====================================  =========================
``EXT_NAT``      ``N̄`` (:class:`~repro.core.semiring.   series weights
                 ExtNat`), complete star semiring       (``automata.wfa``)
``BOOL``         ``{0,1}``, star ≡ 1                    reachability / trimming
                                                        (``automata.nfa``, WFA)
===============  =====================================  =========================

Following the weighted-KAT line of work (Gomes–Madeira–Barbosa), nothing
in the kernels assumes ``N̄``: plugging in a new weight domain (tropical
costs, probabilities, …) means writing one ``SemiringSpec``.

Representations
---------------

* :class:`repro.linalg.sparse.SparseMatrix` — dict-of-rows (CSR-style)
  storage holding only non-zeros, with sparse vector–matrix kernels and
  Boolean reachability.
* :class:`repro.linalg.rowspace.RowSpace` — the exact incremental row
  space behind Tzeng's algorithm: an integer basis in reduced echelon
  form over sparse ``{coordinate: int}`` vectors, indexed by pivot.

Both are pure python and exact over unbounded integers and ``∞``: this
is the only implementation, so exactness (what makes the procedure a
*decision* procedure) is never traded for speed.  A numpy backend was
tried and removed; see ``src/repro/linalg/README.md``.

Everything validates shapes eagerly and raises
:class:`repro.util.errors.DecisionError` carrying the offending shapes —
dimension bugs surface at the call boundary, not as ``IndexError`` three
stack frames deep.
"""

from repro.linalg.rowspace import RowSpace
from repro.linalg.semiring import (
    BOOL,
    EXT_NAT,
    SemiringSpec,
    register_semiring,
    semiring_by_name,
)
from repro.linalg.sparse import (
    SparseMatrix,
    SparseVec,
    mat_vec,
    reachable,
    vec_dot,
    vec_mat,
)

__all__ = [
    "SemiringSpec",
    "EXT_NAT",
    "BOOL",
    "register_semiring",
    "semiring_by_name",
    "SparseMatrix",
    "SparseVec",
    "vec_mat",
    "mat_vec",
    "vec_dot",
    "reachable",
    "RowSpace",
]
