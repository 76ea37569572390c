"""Exact linear algebra for the Tzeng stage of the NKA decision pipeline.

The paper's decision procedure (Remark 2.1, Bloom–Ésik) reduces NKA
equality to weighted-automata equivalence over ``N̄ = N ∪ {∞}``.  Its last
stage, Tzeng's algorithm, asks one question over and over: "is this
reachability vector linearly independent of the ones seen so far?".
:class:`repro.linalg.rowspace.RowSpace` answers it with an exact integer
basis in reduced echelon form over sparse ``{coordinate: int}`` vectors,
indexed by pivot.  Coordinates outside ``[0, dimension)`` raise
:class:`repro.util.errors.DecisionError`.

The two weight domains the rest of the pipeline needs live with the
automata as plain dict rows: ``N̄`` letter matrices in
:mod:`repro.automata.wfa` and Boolean successor rows in
:mod:`repro.automata.nfa`.

Everything is pure python and exact over unbounded integers: this is the
only implementation, so exactness (what makes the procedure a *decision*
procedure) is never traded for speed.  A numpy backend was tried and
removed; see ``src/repro/linalg/README.md``.
"""

from repro.linalg.rowspace import RowSpace

__all__ = ["RowSpace"]
