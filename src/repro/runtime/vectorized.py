"""Vectorised sequential engine: the production uniprocessor runtime.

The derived loop structure partitions the dimensions into *looped* dimensions
(serial and pipelined — those carrying dependences) and *parallel* dimensions
(no true dependence component).  This engine runs a Python loop only over the
looped dimensions, in loop order with the derived traversal signs, and
evaluates each statement over the full parallel extent with numpy — the idiom
the HPC guides call "vectorise the inner loops, keep the carried loop outside".

For the common wavefront case (e.g. Tomcatv's WSV ``(-, 0)``) this means one
Python iteration per row and numpy kernels across the row, which is both fast
and exactly the shape a compiler would emit for the pipelined inner blocks.

Per-slab correctness argument: statements run in lexical order; each statement
fully evaluates its right-hand side over the slab before storing (array
semantics within the slab).  Any flow of *new* values along a dimension would
make that dimension non-parallel (it would carry a true dependence), so
vectorising the parallel dimensions can never read a value too early; and
anti-dependences within the slab are respected because evaluation precedes
assignment.

By default the per-iteration interpretation is skipped entirely: the block is
lowered once into a generated straight-line kernel (:mod:`repro.runtime.kernels`)
over pre-sliced storage views with a compile-time aliasing decision, and the
loop below only runs as the fallback/escape-hatch engine (``engine="interp"``
or ``REPRO_ENGINE=interp``).  Both paths are bit-identical by construction and by
the property tests.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.compiler.lowering import CompiledScan
from repro.compiler.wsv import DimClass
from repro.runtime.kernels import (
    resolve_engine,
    statement_needs_copy,
    try_execute_kernels,
)
from repro.zpl.arrays import ZArray
from repro.zpl.expr import Ref
from repro.zpl.regions import Region


def execute_vectorized(
    compiled: CompiledScan,
    within: Region | None = None,
    *,
    engine: str | None = None,
    tracer=None,
) -> None:
    """Run the compiled group, vectorising the parallel dimensions.

    ``within`` restricts execution to a sub-region of the compiled region —
    the distributed executor uses this to run one processor's portion (or one
    pipeline block) with identical code.

    ``engine`` selects the implementation: ``"kernel"`` (the default, also
    via ``REPRO_ENGINE``) executes ahead-of-time compiled statement kernels,
    auto-selecting the hyperplane-skewed plan family for multi-dependence
    wavefronts; ``"flat"`` keeps the kernels but never skews; ``"interp"``
    walks the expression trees per slab (the original engine).  ``tracer``
    (a :class:`repro.obs.Tracer`) records kernel-compile spans and
    plan-cache counters when given.
    """
    mode = resolve_engine(engine)
    if mode != "interp" and try_execute_kernels(
        compiled, within, tracer=tracer, engine=mode
    ):
        return
    compiled.prepare()
    region = compiled.region if within is None else compiled.region.intersect(within)
    if region.is_empty():
        return
    loops = compiled.loops
    looped_dims = [
        dim for dim in loops.order if loops.classes[dim] is not DimClass.PARALLEL
    ]
    looped_ranges = [loops.indices(region, dim) for dim in looped_dims]
    statements = compiled.statements
    contracted_ids = {id(a) for a in compiled.contracted}
    # The copy-or-not aliasing question is loop-invariant (the same arrays
    # flow through every slab), so decide it once per call, not per slab.
    copy_flags = tuple(
        statement_needs_copy(stmt, contracted_ids) for stmt in statements
    )
    buffers: dict[int, np.ndarray] = {}

    def reader(array: ZArray, shifted: Region, primed: bool) -> np.ndarray:
        if id(array) in contracted_ids and id(array) in buffers:
            # Contracted arrays are only read unprimed at zero shift, so the
            # read slab is exactly the current iteration's buffer.
            return buffers[id(array)]
        return array.read(shifted)

    for ordered in itertools.product(*looped_ranges):
        slab = region
        for dim, value in zip(looped_dims, ordered):
            slab = slab.slab(dim, value, value)
        buffers.clear()
        for stmt, needs_copy in zip(statements, copy_flags):
            values = stmt.expr.evaluate(slab, reader)
            if id(stmt.target) in contracted_ids:
                if isinstance(stmt.expr, Ref):  # a storage view: snapshot it
                    values = values.copy()
                buffers[id(stmt.target)] = np.broadcast_to(
                    np.asarray(values, dtype=float), slab.shape
                )
                continue
            if needs_copy and isinstance(values, np.ndarray):
                values = values.copy()
            if stmt.mask is not None:
                keep = stmt.mask.read(slab) != 0
                values = np.where(keep, values, stmt.target.read(slab))
            stmt.target.write(slab, values)
