"""Quantum path actions ``P(H)`` (paper Section 3.3).

A quantum path action is a linear, monotone map on ``PO∞(H)``; the paper's
physical reading is "the accumulated quantum evolution over a collection of
trajectories".  The NKA operations are (Definition 3.5):

* ``Σ_i A_i`` — pointwise sum of results,
* ``A1; A2`` — diagrammatic composition (run ``A1`` then ``A2``),
* ``A* = Σ_{i≥0} A^i`` — the star, i.e. the sum of all finite iterates,
* ``A1 ⋄ A2 = A2; A1`` — the reversed composition used by NKAT, and
* the pointwise order ``⪯``.

Representation: an action is a small expression tree over
:class:`LiftedAction` leaves (lifted superoperators, Definition 3.7) with
sum/composition/star nodes, evaluated on demand against
:class:`~repro.pathmodel.extended_positive.ExtendedPositive` inputs.

**Star evaluation.**  ``A*`` applied to a finite class ``[ρ]`` with ``A``
(equivalent to) a lifted superoperator uses exact *doubling* on the
Liouville matrix: with ``S_N = Σ_{n<N} L^n`` the recurrences
``S_{2N} = S_N + L^N S_N`` and ``L^{2N} = L^N L^N`` reach ``N = 2^60`` in 60
steps.  CP trace-non-increasing maps have power-bounded ``L``, so partial
sums either converge numerically (geometric decay underflows) or grow
linearly in the divergent directions, which the algorithm reports as the
infinite directions of the resulting class.  Non-lifted bases (stars nested
under stars) fall back to direct series summation with growth detection.

Equality/order of actions is checked on a PSD spanning family plus infinite
probes (:func:`action_equal`, :func:`action_leq`): for lifted actions this
is *exactly* superoperator equality by Lemma 3.8(ii); in general it is a
sound check on the probe set (documented semidecision).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.pathmodel.extended_positive import ExtendedPositive
from repro.quantum.operators import psd_spanning_family, support_projector
from repro.quantum.superoperator import Superoperator, unvec, vec

__all__ = [
    "PathAction",
    "LiftedAction",
    "SumAction",
    "SeqAction",
    "StarAction",
    "identity_action",
    "zero_action",
    "sum_extended_series",
    "star_apply_liouville",
    "action_equal",
    "action_leq",
    "standard_probes",
]

_GROWTH_GUARD = 1e80
_CONVERGENCE_TOL = 1e-10


class PathAction:
    """Base class of path actions over a fixed Hilbert-space dimension."""

    def __init__(self, dim: int):
        self.dim = dim

    # -- evaluation ------------------------------------------------------------

    def apply(self, value: ExtendedPositive) -> ExtendedPositive:
        raise NotImplementedError

    def __call__(self, value) -> ExtendedPositive:
        if isinstance(value, np.ndarray):
            value = ExtendedPositive.of(value)
        return self.apply(value)

    # -- NKA operations (Definition 3.5) -------------------------------------------

    def __add__(self, other: "PathAction") -> "PathAction":
        self._check(other)
        return SumAction([self, other])

    def then(self, other: "PathAction") -> "PathAction":
        """Diagrammatic composition — the paper's ``self ; other``."""
        self._check(other)
        return SeqAction(self, other)

    def diamond(self, other: "PathAction") -> "PathAction":
        """``self ⋄ other = other ; self`` (Section 7.2)."""
        return other.then(self)

    def star(self) -> "PathAction":
        return StarAction(self)

    # -- lifted-superoperator normal form --------------------------------------------

    def as_superoperator(self) -> Optional[Superoperator]:
        """The superoperator this action lifts, when one exists.

        Star-free combinations of lifted actions are again lifted
        (Lemma 3.8(iii)); stars generally are not and return ``None``.
        """
        return None

    def _check(self, other: "PathAction") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def _liouville_if_lifted(self) -> Optional[np.ndarray]:
        superop = self.as_superoperator()
        if superop is None:
            return None
        return superop.liouville


class LiftedAction(PathAction):
    """The path lifting ``⟨E⟩↑`` of a superoperator (Definition 3.7)."""

    def __init__(self, superop: Superoperator):
        super().__init__(superop.dim)
        self.superop = superop

    def apply(self, value: ExtendedPositive) -> ExtendedPositive:
        # Representative series of (V, A): A followed by infinitely many
        # copies of P_{V⊥}.  Its image: E(A) plus infinitely many E(P_{V⊥}),
        # which diverges exactly on the support of E(P_{V⊥}).
        image_finite = self.superop(value.finite_part)
        if value.is_finite:
            return ExtendedPositive.of(image_finite)
        image_infinite = self.superop(value.infinite_projector)
        infinite_directions = support_projector(image_infinite)
        finite_projector = (
            np.eye(self.dim, dtype=complex) - infinite_directions
        )
        return ExtendedPositive(
            finite_projector @ image_finite @ finite_projector, finite_projector
        )

    def as_superoperator(self) -> Optional[Superoperator]:
        return self.superop

    def __repr__(self) -> str:
        return f"⟨{self.superop!r}⟩↑"


class SumAction(PathAction):
    """``(Σ_i A_i)(x) = Σ_i A_i(x)`` (finite index set here)."""

    def __init__(self, actions: Sequence[PathAction]):
        actions = list(actions)
        if not actions:
            raise ValueError("SumAction needs at least one summand")
        super().__init__(actions[0].dim)
        flattened: List[PathAction] = []
        for action in actions:
            if isinstance(action, SumAction):
                flattened.extend(action.actions)
            else:
                flattened.append(action)
        self.actions = flattened

    def apply(self, value: ExtendedPositive) -> ExtendedPositive:
        results = [action.apply(value) for action in self.actions]
        total = results[0]
        for result in results[1:]:
            total = total + result
        return total

    def as_superoperator(self) -> Optional[Superoperator]:
        parts = [action.as_superoperator() for action in self.actions]
        if any(part is None for part in parts):
            return None
        total = parts[0]
        for part in parts[1:]:
            total = total + part
        return total


class SeqAction(PathAction):
    """``(A1; A2)(x) = A2(A1(x))`` — diagrammatic composition."""

    def __init__(self, first: PathAction, second: PathAction):
        super().__init__(first.dim)
        self.first = first
        self.second = second

    def apply(self, value: ExtendedPositive) -> ExtendedPositive:
        return self.second.apply(self.first.apply(value))

    def as_superoperator(self) -> Optional[Superoperator]:
        first = self.first.as_superoperator()
        second = self.second.as_superoperator()
        if first is None or second is None:
            return None
        return first.then(second)


class StarAction(PathAction):
    """``A* = Σ_{n≥0} A^n`` (Definition 3.5, equation (3.3.5))."""

    def __init__(self, base: PathAction, max_terms: int = 512):
        super().__init__(base.dim)
        self.base = base
        self.max_terms = max_terms

    def apply(self, value: ExtendedPositive) -> ExtendedPositive:
        liouville = self.base._liouville_if_lifted()
        if liouville is not None and value.is_finite:
            return star_apply_liouville(liouville, value.finite_part)
        if liouville is not None:
            # Split the input class (V, A) = [A] + ∞·P_{V⊥}: by linearity the
            # star applies to each part; the infinite part stays a union of
            # the infinite images of every iterate.
            finite_result = star_apply_liouville(liouville, value.finite_part)
            infinite_result = self._star_infinite_directions(value)
            return finite_result + infinite_result
        return sum_extended_series(
            self._iterates(value), self.dim, max_terms=self.max_terms
        )

    def _iterates(self, value: ExtendedPositive) -> Iterator[ExtendedPositive]:
        current = value
        yield current
        for _ in range(self.max_terms):
            current = self.base.apply(current)
            yield current

    def _star_infinite_directions(self, value: ExtendedPositive) -> ExtendedPositive:
        """``Σ_n A^n`` of the purely-infinite part ``∞·P_{V⊥}``.

        The image under each iterate is ``∞`` on the support of
        ``E^n(P_{V⊥})``; the union over ``n`` stabilises within ``dim²``
        steps (supports form an increasing chain in finite dimension).
        """
        superop = self.base.as_superoperator()
        assert superop is not None
        current = value.infinite_projector
        union = support_projector(current)
        for _ in range(self.dim * self.dim + 1):
            current = superop(current)
            new_union = support_projector(union + support_projector(current))
            if np.allclose(new_union, union, atol=1e-9):
                break
            union = new_union
        return ExtendedPositive.infinite(self.dim, union)


def identity_action(dim: int) -> PathAction:
    """The identity action ``I_H``."""
    return LiftedAction(Superoperator.identity(dim))


def zero_action(dim: int) -> PathAction:
    """The zero action ``O_H`` (maps everything to ``[O_H]``)."""
    return LiftedAction(Superoperator.zero(dim))


# -- star via Liouville doubling --------------------------------------------------------


# Divergence guard: iterates above this magnitude are treated as growing
# without bound.  The guard also sets the numeric *noise floor* of every
# downstream comparison — compressing a divergent direction of magnitude G
# out of a series total leaves eps·G of spectral debris in the finite
# directions that survive, so finite parts coexisting with divergence are
# only trustworthy to ~eps·G ≈ 2e-8 at G = 1e8.  The previous guard of
# 1e12 put that floor at ~2e-4, which broke ``action_equal`` at the 1e-6
# tolerances the property suites use.  Legitimate finite sums here are
# bounded by (max_terms ≈ 512) · (unit-scale probes) ≈ 1e3, so 1e8 keeps
# five orders of margin on the detection side.
_DIVERGENCE_GUARD = 1e8

# A truncated-but-still-growing series component above this magnitude is
# treated as divergent tail rather than finite limit: legitimate finite
# sums here are bounded by (max_terms ≈ 512) · (unit-scale probes), orders
# of magnitude below, while genuine divergence reaches the 1e8 guard
# before the window detection trips.
_TAIL_GUARD = 1e5


def star_apply_liouville(
    liouville: np.ndarray,
    rho: np.ndarray,
    max_doublings: int = 64,
    tol: float = _CONVERGENCE_TOL,
) -> ExtendedPositive:
    """Evaluate ``(Σ_n E^n)([ρ])`` exactly-in-the-limit by doubling.

    Returns the ``(V, A)`` normal form: convergent directions carry the
    limit ``Σ_n E^n(ρ)``; directions of growth become infinite.

    Divergent directions are peeled off *iteratively*: each round runs the
    doubling with the convergence test on the partial sums compressed onto
    the not-yet-divergent subspace; if they fail to stabilise, the support
    of the last compressed growth joins the infinite directions and the
    round repeats.  Iteration is essential because divergence rates mix —
    an exponentially growing direction would otherwise mask a linearly
    growing one in a single growth snapshot.  At most ``dim`` rounds occur
    (the infinite rank strictly increases).
    """
    dim = int(round(np.sqrt(liouville.shape[0])))
    rho = np.asarray(rho, dtype=complex)
    if np.abs(rho).max(initial=0.0) < 1e-14:
        return ExtendedPositive.zero(dim)
    r = vec(rho)
    size = liouville.shape[0]
    identity = np.eye(dim, dtype=complex)
    infinite = np.zeros((dim, dim), dtype=complex)

    for _round in range(dim + 1):
        finite_projector = identity - infinite
        if np.abs(finite_projector).max(initial=0.0) < 1e-12:
            return ExtendedPositive.infinite(dim, support_projector(infinite))
        power = np.array(liouville, dtype=complex)          # L^N
        partial = np.eye(size, dtype=complex)               # S_N = Σ_{n<N} L^n
        prev_c = finite_projector @ _hermitise(unvec(partial @ r, dim)) @ finite_projector
        growth_c = None
        converged = False
        for _ in range(max_doublings):
            partial = partial + power @ partial
            power = power @ power
            current_full = unvec(partial @ r, dim)
            if not np.isfinite(current_full).all():
                break
            current_c = (
                finite_projector @ _hermitise(current_full) @ finite_projector
            )
            delta = np.abs(current_c - prev_c).max(initial=0.0)
            if delta <= tol * max(1.0, np.abs(prev_c).max(initial=0.0)):
                prev_c = current_c
                converged = True
                break
            growth_c = current_c - prev_c
            prev_c = current_c
            if np.abs(current_full).max(initial=0.0) > _DIVERGENCE_GUARD:
                break
            if not np.isfinite(power).all() or np.abs(power).max(initial=0.0) > 1e120:
                break
        if converged:
            return ExtendedPositive(
                _clip_psd(prev_c, clip_all=_round > 0),
                finite_projector if _round > 0 else None,
            )
        if growth_c is None:
            growth_c = prev_c
        normalised = np.nan_to_num(
            growth_c / max(np.abs(growth_c).max(initial=0.0), 1e-300)
        )
        new_directions = support_projector(_hermitise(normalised), atol=1e-10)
        infinite = support_projector(infinite + new_directions)
    # Fallback (cannot be reached: rank grows every round).
    return ExtendedPositive.infinite(dim)  # pragma: no cover


def _hermitise(matrix: np.ndarray) -> np.ndarray:
    return (matrix + matrix.conj().T) / 2


def _clip_psd(matrix: np.ndarray, atol: float = 1e-9, clip_all: bool = False) -> np.ndarray:
    """Remove tiny negative eigenvalues introduced by floating point.

    ``clip_all`` clamps *every* negative eigenvalue — used for divergent-
    direction compressions, whose residue is pure numeric noise.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(_hermitise(matrix))
    if clip_all:
        eigenvalues = np.maximum(eigenvalues, 0.0)
    else:
        eigenvalues = np.where(
            eigenvalues > -atol, np.maximum(eigenvalues, 0.0), eigenvalues
        )
    return (eigenvectors * eigenvalues) @ eigenvectors.conj().T


# -- countable sums of extended positives -----------------------------------------------


def sum_extended_series(
    terms: Iterable[ExtendedPositive],
    dim: int,
    max_terms: int = 512,
    growth_window: int = 16,
    tol: float = 1e-9,
) -> ExtendedPositive:
    """``Σ_i x_i`` for a series of extended positive operators (3.2.5).

    Infinite directions accumulate as the union of the summands' infinite
    directions plus any directions in which the finite parts' partial sums
    grow without bound (windowed growth detection).
    """
    infinite = np.zeros((dim, dim), dtype=complex)
    finite_total = np.zeros((dim, dim), dtype=complex)
    window = np.zeros((dim, dim), dtype=complex)
    previous_window: Optional[np.ndarray] = None
    count = 0
    converged = False
    exhausted = True
    for term in terms:
        if term.dim != dim:
            raise ValueError("dimension mismatch in extended series")
        if not term.is_finite:
            infinite = support_projector(infinite + term.infinite_projector)
        finite_total = finite_total + term.finite_part
        window = window + term.finite_part
        count += 1
        if count % growth_window == 0:
            if np.abs(window).max(initial=0.0) < tol:
                converged = True
                break
            previous_window = window
            window = np.zeros((dim, dim), dtype=complex)
        # Stop before a geometrically growing series (e.g. the iterates of
        # ``(1 + 1 + …)*``) overflows float range within ``max_terms``.
        if count >= max_terms or np.abs(finite_total).max(initial=0.0) > _DIVERGENCE_GUARD:
            exhausted = False
            break
    # An exhausted iterator is a *finite* series — trivially convergent.
    if not converged and not exhausted:
        residual = window if np.abs(window).max(initial=0.0) > tol else previous_window
        if residual is not None and np.abs(residual).max(initial=0.0) > tol:
            # The support cut is relative to the window's own scale, as in
            # ``star_apply_liouville``: a rank-one window grown to ~1e8 carries
            # eps-relative eigenvalue noise (~1e-8) off its direction, which
            # an absolute cut at ``tol`` would report as a second divergent
            # direction.
            scale = float(np.abs(residual).max(initial=0.0))
            infinite = support_projector(
                infinite + support_projector(residual, atol=max(tol, 1e-10 * scale))
            )
        # The last window's support can miss growth whose direction rotates
        # between windows: after projecting out the detected directions, any
        # direction of the (truncated, still-growing) total that remains at
        # divergence scale belongs to the growing tail, not to a finite
        # limit — fold it into the infinite directions too.  Iterate because
        # removing the dominant direction can expose a slower one; the
        # infinite rank strictly increases, so at most ``dim`` rounds.
        for _ in range(dim):
            finite_projector = np.eye(dim, dtype=complex) - infinite
            compressed = finite_projector @ finite_total @ finite_projector
            eigenvalues, eigenvectors = np.linalg.eigh(_hermitise(compressed))
            escaping = eigenvectors[:, np.abs(eigenvalues) > _TAIL_GUARD]
            if escaping.size == 0:
                break
            infinite = support_projector(
                infinite + escaping @ escaping.conj().T
            )
    finite_projector = np.eye(dim, dtype=complex) - infinite
    compressed = finite_projector @ finite_total @ finite_projector
    # Compressing away a divergent direction of size ~1e14 leaves an
    # anti-Hermitian float residue of order eps·(pre-compression scale) in
    # the remainder; a genuine finite limit is exactly Hermitian, so fold
    # residue bounded by that scale back onto the Hermitian part.  The
    # compressed total (not the divergent raw total) is what goes to
    # ExtendedPositive, so its dust threshold stays relative to the finite
    # part's own magnitude and a small finite limit coexisting with a large
    # divergent direction survives.
    pre_scale = float(np.abs(finite_total).max(initial=0.0))
    asymmetry = float(np.abs(compressed - compressed.conj().T).max(initial=0.0))
    if asymmetry <= max(1e-9, 1e-12 * pre_scale):
        compressed = _hermitise(compressed)
    if np.abs(infinite).max(initial=0.0) > 0.0:
        # The same compression also leaves *Hermitian* residue of order
        # eps·(pre-compression scale) whose spectrum dips below zero — a
        # truncated total of ~1e12 leaves ~1e-4 of spectral noise in the
        # compressed remainder.  Clip negative eigenvalues bounded by that
        # noise scale here, where ``pre_scale`` is still known; the
        # ExtendedPositive constructor only ever sees the compressed
        # matrix, so its own scale-relative bounds cannot cover this.
        # Larger negative eigenvalues are genuine errors and survive to
        # fail the constructor's PSD check.  (``star_series`` makes the
        # matching move via ``clip_all`` after peeling a direction.)
        compressed = _clip_psd(compressed, atol=max(tol, 1e-14 * pre_scale))
    return ExtendedPositive(compressed, finite_projector)


# -- comparison on probes ---------------------------------------------------------------------


def standard_probes(dim: int) -> List[ExtendedPositive]:
    """PSD spanning probes plus the all-infinite probe."""
    probes = [ExtendedPositive.of(rho) for rho in psd_spanning_family(dim)]
    probes.append(ExtendedPositive.infinite(dim))
    return probes


def action_equal(
    left: PathAction,
    right: PathAction,
    probes: Optional[Sequence[ExtendedPositive]] = None,
    atol: float = 1e-7,
) -> bool:
    """Equality of actions on the probe set.

    For lifted actions, agreement on the PSD spanning family is equivalent
    to equality of the underlying superoperators (Lemma 3.8(ii)); the fast
    path below uses that directly.  For general actions this is a sound
    probe-based check.
    """
    left_superop = left.as_superoperator()
    right_superop = right.as_superoperator()
    if left_superop is not None and right_superop is not None:
        return left_superop.equals(right_superop, atol=atol)
    if probes is None:
        probes = standard_probes(left.dim)
    return all(
        left.apply(probe).equals(right.apply(probe), atol=atol) for probe in probes
    )


def action_leq(
    left: PathAction,
    right: PathAction,
    probes: Optional[Sequence[ExtendedPositive]] = None,
    atol: float = 1e-7,
) -> bool:
    """The pointwise order ``⪯`` of (3.3.6), checked on the probe set."""
    if probes is None:
        probes = standard_probes(left.dim)
    return all(
        left.apply(probe).leq(right.apply(probe), atol=atol) for probe in probes
    )
