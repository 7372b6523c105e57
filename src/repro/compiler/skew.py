"""Hyperplane skewing: derive a legal integer time vector for a loop nest.

The derived loop structure of a multi-dependence wavefront — Needleman-
Wunsch, Smith-Waterman, any recurrence whose WSV has two or more nonzero
components — has *no* completely parallel dimension: every dimension either
carries the wavefront or is serialised, so the slab engines degenerate into
an O(n·m) pure-Python point loop.  The classic hyperplane (loop-skewing)
transformation recovers vector parallelism anyway: pick an integer **time
vector** τ over the looped dimensions and execute all iteration points with
equal ``τ·i`` — one *hyperplane*, the anti-diagonal for τ = (1, 1) —
simultaneously, sweeping the hyperplanes in increasing time.

Legality mirrors the classical condition, phrased over the paper's
unconstrained distance vectors (which live in array-dimension space, so no
loop-nest normalisation is needed):

* every nonzero **true** dependence vector ``v`` must satisfy ``τ·v > 0``
  (the producing iteration lies on a strictly earlier hyperplane);
* every **anti**/**output** vector must satisfy ``τ·v ≥ 0`` — a tie is fine
  because execution keeps array semantics within a hyperplane: each
  statement evaluates its whole right-hand side before it stores (into a
  fresh array, or through a ufunc ``out=``, which NumPy defines to behave
  as if it overlapped no input), and statements run in lexical order;
* components over completely *parallel* dimensions are ignored (those
  dimensions stay vectorised inside each hyperplane, exactly as in the flat
  engines; true dependences have zero components there by construction of
  :func:`repro.compiler.wsv.classify`).

The search is tiny by design: candidate components are the loop structure's
traversal signs scaled by 0..3 (not all zero), cheapest first — by the
number of hyperplanes the block's region would sweep, Σ|τ_k|·(extent_k − 1)
— so the common DP wavefronts get the canonical anti-diagonal ``τ = (1, 1)``
(or ``(-1, -1)`` for descending traversals) and pathological vectors like
``(-1, 2)`` are still covered.  A **zero** component is the paper's
loop-structure rule (Section 3.1) applied to the time vector: a dependence
constrains only the first loop that carries it, so a dimension no τ
component needs is dropped from :attr:`Skew.dims` and vectorised like a
parallel one.  When a single dimension carries every true dependence τ is
axis-aligned — a plain row loop over that dimension, no diagonal at all.
When no candidate is legal — or when fewer than two dimensions are looped,
where the flat engines already vectorise everything that can be vectorised
— :func:`derive_skew` returns ``None`` and the kernel engine keeps its flat
point loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from repro.compiler.loopstruct import LoopStructure
from repro.compiler.udv import Dependence, DepKind
from repro.compiler.wsv import DimClass

#: Largest |τ component| the search will try (per looped dimension).
MAX_COEFF = 3

#: Looped-dimension counts the time-vector search covers.  Beyond four
#: dimensions the candidate enumeration stops paying off.
MAX_SKEW_RANK = 4


@dataclass(frozen=True)
class Skew:
    """A legal hyperplane schedule for one compiled scan block.

    ``dims`` are the looped (non-parallel) dimensions with a nonzero time
    coefficient, in loop order, ``tau`` the coefficient per entry of
    ``dims``: iteration point ``i`` executes at time
    ``sum(tau[k] * i[dims[k]])``.  Every other dimension is vectorised.
    """

    dims: tuple[int, ...]
    tau: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def lowering(self) -> str | None:
        """How numpy sweeps the planes: ``rows`` (one dimension: a sliced row
        loop), ``shear`` (a pair with a unit coefficient: each plane is a
        line, hence a strided slice), or ``None`` — a plane that is not a
        line has no numpy sweep, and the block runs its flat family."""
        if self.rank == 1:
            return "rows"
        unit = any(abs(t) == 1 for t in self.tau)
        return "shear" if self.rank == 2 and unit else None

    def time(self, index: Sequence[int]) -> int:
        """The hyperplane (execution time) of one iteration point."""
        return sum(t * index[d] for t, d in zip(self.tau, self.dims))

    def planes(self, extents: Sequence[int]) -> int:
        """Hyperplanes swept over a region of ``extents`` (per array dim)."""
        return _planes(self.tau, self.dims, extents)

    def __repr__(self) -> str:
        terms = "+".join(
            f"{t}*i{d}" if t != 1 else f"i{d}" for t, d in zip(self.tau, self.dims)
        )
        return f"Skew(t={terms})"


def _planes(tau: Sequence[int], dims: Sequence[int], extents) -> int:
    """Distinct τ·i values over a box: 1 + Σ|τ_k|·(extent_k − 1)."""
    return 1 + sum(abs(t) * max(extents[d] - 1, 0) for t, d in zip(tau, dims))


def looped_dims(loops: LoopStructure) -> tuple[int, ...]:
    """The non-parallel dimensions, outermost first (the skewable subspace)."""
    return tuple(
        d for d in loops.order if loops.classes[d] is not DimClass.PARALLEL
    )


def legal_time_vector(
    tau: Sequence[int],
    dims: Sequence[int],
    dependences: Sequence[Dependence],
) -> bool:
    """The hyperplane legality rule over unconstrained distance vectors."""
    for dep in dependences:
        restricted = tuple(dep.vector[d] for d in dims)
        dot = sum(t * c for t, c in zip(tau, restricted))
        if dep.kind is DepKind.TRUE:
            if any(restricted) and dot <= 0:
                return False
        elif dot < 0:  # anti/output: write must not overtake the read
            return False
    return True


def derive_time_vector(
    loops: LoopStructure,
    dependences: Sequence[Dependence],
    extents: Sequence[int] | None = None,
) -> Skew | None:
    """Find the cheapest legal τ over the looped dimensions, or ``None``.

    Only worth doing when at least two dimensions are looped (otherwise the
    flat plans already vectorise the whole parallel subspace).  Candidates
    are the traversal signs scaled by 0..:data:`MAX_COEFF`, not all zero,
    tried in order of the hyperplanes they sweep over a region of
    ``extents`` (per array dimension; unit spans when unknown), then
    smallest total |τ|, then looping the outer storage dimension so the
    vectorised rows stay contiguous.  Zero components are dropped from the
    returned :class:`Skew`.
    """
    dims = looped_dims(loops)
    if not 2 <= len(dims) <= MAX_SKEW_RANK:
        return None
    if extents is None:
        extents = dict.fromkeys(dims, 2)  # unit spans
    storage = sorted(range(len(dims)), key=dims.__getitem__)

    def cost(coeffs):
        by_storage = tuple(-coeffs[k] for k in storage)
        return _planes(coeffs, dims, extents), sum(coeffs), by_storage

    for coeffs in sorted(
        filter(any, product(range(MAX_COEFF + 1), repeat=len(dims))), key=cost
    ):
        tau = tuple(loops.signs[d] * c for d, c in zip(dims, coeffs))
        if legal_time_vector(tau, dims, dependences):
            kept = [k for k, c in enumerate(coeffs) if c]
            return Skew(
                tuple(dims[k] for k in kept), tuple(tau[k] for k in kept)
            )
    return None


def derive_skew(compiled) -> Skew | None:
    """The skew of a :class:`~repro.compiler.lowering.CompiledScan`, if legal.

    Accepts any object carrying ``loops``, ``dependences`` and ``region``
    (duck-typed so the kernel layer can call it without importing lowering).
    """
    return derive_time_vector(
        compiled.loops, compiled.dependences, compiled.region.shape
    )
