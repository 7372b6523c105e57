"""The schedule IR: one value-free description of a distributed wavefront.

One schedule description — wavefront dimension, chunk dimension, block size
``b``, who forwards to whom — fixes both what runs and what Equation (1)
predicts (paper Section 4).  It is derived here, once, from a compiled block
and a processor grid alone (no values, clock, transport or environment):

* :func:`plan_wavefront` — the :class:`WavefrontPlan`: which dimension the
  wave travels along, which one is cut into pipeline blocks, how many rows
  cross each boundary (:func:`shift_depths`);
* :func:`place` — the region block-distributed over the grid, the ranks
  grouped into chains in wave order, the block-size-independent refusals;
* :meth:`ScheduleGeometry.chunked` — each rank's pipeline blocks at a block
  size, and the chain-legality refusals.

:func:`repro.parallel.plan.resolve_run` composes the resulting
:class:`ScheduleGeometry` with a fabric into the ``RunPlan`` the executors,
certifier and sanitizer read; :mod:`repro.machine.schedules` walks the same
object on the virtual clock.  One check, one block list: the simulator
refuses what ``execute()`` refuses and simulates the blocks that run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.compiler.distribution import BlockMap
from repro.compiler.grid import ProcessorGrid
from repro.compiler.lowering import CompiledScan
from repro.errors import DistributionError, MachineError
from repro.zpl.regions import Region


@dataclass(frozen=True)
class WavefrontPlan:
    """Static facts a distributed schedule needs about a compiled block."""

    compiled: CompiledScan
    #: The distributed dimension the wavefront travels along.
    wavefront_dim: int
    #: The dimension blocked into pipeline chunks (None: nothing chunkable).
    chunk_dim: int | None
    #: Per boundary crossing: elements per unit of chunk width that must flow
    #: with the wave (sum over block-written arrays of their shift depths).
    boundary_rows: int
    #: Same, for arrays the block only reads (pre-exchanged halo).
    halo_rows: int

    @property
    def region(self) -> Region:
        return self.compiled.region

    @property
    def rows(self) -> int:
        """Extent along the wavefront dimension."""
        return self.region.extent(self.wavefront_dim)

    @property
    def cols(self) -> int:
        """Extent along the chunk dimension (1: nothing to cut)."""
        return 1 if self.chunk_dim is None else self.region.extent(self.chunk_dim)


def _chunkable(compiled: CompiledScan, dim: int) -> bool:
    """A dimension is chunkable when every UDV component along it has one
    consistent sign (or zero): iterating chunks in that direction then
    respects all cross-chunk dependences."""
    signs = {
        (1 if d.vector[dim] > 0 else -1)
        for d in compiled.dependences
        if d.vector[dim] != 0
    }
    return len(signs) <= 1


def shift_depths(
    compiled: CompiledScan, dim: int
) -> tuple[dict[int, tuple[int, int]], dict[int, tuple[int, int]]]:
    """The deepest shifted reference per array along ``dim``.

    Returns ``(written, read_only)``: per array referenced with a shift
    along ``dim`` (keyed by ``id(array)``), the deepest ``(negative,
    positive)`` offset, split by whether the block writes the array (its
    rows flow with the wave) or only reads it (a halo exchanged once, up
    front).  ``max`` of a pair is the depth whichever way the wave runs.
    """
    is_written = {id(a) for a in compiled.written_arrays()}
    written: dict[int, tuple[int, int]] = {}
    read_only: dict[int, tuple[int, int]] = {}
    for stmt in compiled.statements:
        for ref in stmt.expr.refs():
            off = ref.offset[dim]
            if off == 0:
                continue
            key = id(ref.array)
            side = written if key in is_written else read_only
            neg, pos = side.get(key, (0, 0))
            side[key] = (max(neg, -off), max(pos, off))
    return written, read_only


def plan_wavefront(compiled: CompiledScan, wavefront_dim: int | None = None) -> WavefrontPlan:
    """Derive the distribution plan for a compiled scan block.

    ``wavefront_dim`` defaults to the compiler's first pipelined dimension.
    Raises :class:`DistributionError` when the block has no wavefront (use the
    fully parallel schedule) or the requested dimension carries no wavefront.
    """
    loops = compiled.loops
    if wavefront_dim is None:
        if not loops.wavefront_dims:
            raise DistributionError(
                "block has no pipelined dimension; use parallel_schedule"
            )
        wavefront_dim = loops.wavefront_dims[0]
    elif wavefront_dim not in loops.wavefront_dims:
        raise DistributionError(
            f"dimension {wavefront_dim} is not a wavefront dimension "
            f"(wavefront dims: {loops.wavefront_dims})"
        )

    chunk_dim = None
    for dim in loops.order[::-1]:  # prefer inner (parallel) dimensions
        if dim != wavefront_dim and _chunkable(compiled, dim):
            chunk_dim = dim
            break

    written, read_only = shift_depths(compiled, wavefront_dim)
    return WavefrontPlan(
        compiled,
        wavefront_dim,
        chunk_dim,
        boundary_rows=sum(max(depth) for depth in written.values()),
        halo_rows=sum(max(depth) for depth in read_only.values()),
    )


def _chunk_regions(region: Region, dim: int, width: int, reverse: bool) -> list[Region]:
    """Split ``region`` along ``dim`` into blocks of at most ``width``."""
    lo, hi = region.range(dim)
    chunks = []
    cursor = lo
    while cursor <= hi:
        top = min(cursor + width - 1, hi)
        chunks.append(region.slab(dim, cursor, top))
        cursor = top + 1
    return chunks[::-1] if reverse else chunks


def taskgraph_intervals(
    plan: WavefrontPlan,
    locals_by_rank: Sequence[Region],
    oversub: int,
    block_size: int,
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int] | None]]:
    """The two tiling axes of a task-graph decomposition.

    Returns ``(wave, chunk)``:

    * ``wave`` — ``(lo, hi, home_rank)`` intervals along the wavefront
      dimension, in traversal order.  Each rank's static local slab (the
      same :class:`~repro.compiler.distribution.BlockMap` split the
      pipelined schedule uses, so locality matches) is over-decomposed
      into up to ``oversub`` sub-slabs: the slack the stealing scheduler
      rebalances when per-block costs are skewed.
    * ``chunk`` — ``(lo, hi)`` intervals along the chunk dimension in
      traversal order, with exactly the pipelined schedule's block
      boundaries (:func:`_chunk_regions` at ``block_size``), or ``[None]``
      when the block has no chunkable dimension (rank-1 chains taskgraph
      can still run, one tile per wave slab).
    """
    region = plan.region
    loops = plan.compiled.loops
    w, c = plan.wavefront_dim, plan.chunk_dim
    wave: list[tuple[int, int, int]] = []
    for rank, local in enumerate(locals_by_rank):
        if local.is_empty():
            continue
        for piece in local.split(w, max(1, min(oversub, local.extent(w)))):
            if not piece.is_empty():
                lo, hi = piece.range(w)
                wave.append((lo, hi, rank))
    wave.sort(key=lambda t: t[0], reverse=loops.signs[w] < 0)
    if c is None:
        return wave, [None]
    reverse = loops.signs[c] < 0
    chunk = [
        piece.range(c)
        for piece in _chunk_regions(region, c, max(1, block_size), reverse)
    ]
    return wave, chunk


def _build_distribution(
    plan: WavefrontPlan, grid: ProcessorGrid, schedule: str | None = None
) -> BlockMap:
    """The plan's region with the wavefront dimension over grid dimension 0
    and, on a rank-2 grid, the chunk dimension over dimension 1.  A mesh and
    a multi-stage ``schedule="pipelined"`` chain need a dimension to cut."""
    region = plan.region
    w, c = plan.wavefront_dim, plan.chunk_dim
    if grid.rank not in (1, 2):
        raise MachineError(
            f"wavefront schedules run on rank-1 and rank-2 grids, "
            f"got rank {grid.rank}"
        )
    if c is None and (
        grid.rank == 2 or (schedule == "pipelined" and grid.dims[0] > 1)
    ):
        raise DistributionError(
            "no chunkable dimension: this block cannot be pipelined"
        )
    dim_map: list[int | None] = [None] * region.rank
    dim_map[w] = 0
    if grid.rank == 2:
        if any(d.vector[c] != 0 for d in plan.compiled.dependences):
            raise DistributionError(
                f"dimension {c} carries a dependence; a 2-D grid "
                f"would couple the pipeline chains — use a rank-1 grid"
            )
        dim_map[c] = 1
    return BlockMap(region, grid, tuple(dim_map))


def _chains(grid: ProcessorGrid, ascending: bool) -> list[list[int]]:
    """Processor ranks grouped into pipeline chains, in wave order."""
    rows = list(range(grid.dims[0]))
    if not ascending:
        rows.reverse()
    if grid.rank == 1:
        return [[grid.proc((row,)) for row in rows]]
    return [
        [grid.proc((row, col)) for row in rows] for col in range(grid.dims[1])
    ]


def chain_preds(chains) -> dict[int, int]:
    """Each rank's upstream neighbour on its pipeline chain."""
    return {
        downstream: upstream
        for chain in chains
        for upstream, downstream in zip(chain, chain[1:])
    }


def check_chain_legality(
    compiled: CompiledScan, plan: WavefrontPlan, n_stages: int, n_chunks: int
) -> None:
    """Refuse chain distributions the one-way boundary protocol cannot honour.

    Two shapes are sequentially legal yet race on a multi-stage chain:

    * **Upstream flow** — a dependence whose wave component opposes the
      traversal (reader in an *earlier* chain stage than the writer).
      Boundary data only travels down the chain, under every schedule, so
      the reader would consume values its downstream neighbour has not
      produced; no chunking makes this sound.
    * **Lookahead** — wave component along the traversal but chunk
      component against it (e.g. ``(1, -1)`` ascending): pipeline block
      ``k`` downstream reads columns its upstream stage only computes in
      block ``k + 1``.  Tokens, epoch stamps and simulated messages all
      release strictly in block order, so this races exactly when the
      chain is chunked; single-chunk (naive or full-width) runs are safe.

    Single-stage chains are always safe: no boundary ever crosses a rank.
    """
    if n_stages <= 1:
        return
    w, c = plan.wavefront_dim, plan.chunk_dim
    signs = compiled.loops.signs
    sw = 1 if signs[w] >= 0 else -1
    sc = 1 if c is None or signs[c] >= 0 else -1
    for dep in compiled.dependences:
        vw = dep.vector[w]
        vc = dep.vector[c] if c is not None else 0
        if vw * sw < 0:
            raise DistributionError(
                f"{dep.kind.value} dependence {dep.vector} on {dep.array!r} "
                f"points upstream along wavefront dimension {w}: boundary "
                f"data only flows down the chain — distribute along a "
                f"different wavefront dimension or run on one process"
            )
        if n_chunks > 1 and vw * sw > 0 and vc * sc < 0:
            raise DistributionError(
                f"{dep.kind.value} dependence {dep.vector} on {dep.array!r} "
                f"points against the chunk traversal: pipeline block k would "
                f"read columns its upstream stage only computes in block "
                f"k+1 — use schedule=\"naive\" or a block covering the full "
                f"width"
            )


@dataclass(frozen=True, eq=False)
class ScheduleGeometry:
    """Who owns what, who forwards to whom, and in which blocks — as data.

    Built by :func:`place` (everything but the blocks), completed by
    :meth:`chunked`.  ``schedule="taskgraph"`` geometries carry no
    ``chunks_by_rank``: their tiles are the task graph's, derived over the
    same ``locals_by_rank``.
    """

    wavefront: WavefrontPlan
    grid: ProcessorGrid
    schedule: str
    #: Wavefront traversal direction.
    ascending: bool
    #: Ranks grouped into pipeline chains, in wave order: each rank forwards
    #: its boundary to the next one of its chain.
    chains: tuple[tuple[int, ...], ...]
    #: Each rank's slab of the region, indexed by rank.
    locals_by_rank: tuple[Region, ...]
    #: Width of a pipeline block (``None``: one whole-width block, naive).
    block_size: int | None = None
    #: Max pipeline blocks on any rank.
    n_chunks: int = 1
    #: Each rank's pipeline blocks, in the order it runs them.  All ranks of
    #: a chain share the same chunk-dimension ranges, so block ``k`` means
    #: the same columns chain-wide.
    chunks_by_rank: dict[int, tuple[Region, ...]] = field(default_factory=dict)

    def default_block(self) -> int:
        """Static block-size heuristic: the classical half-the-columns-per-
        stage starting point, for planners with no timing constants."""
        return max(1, self.wavefront.cols // max(1, 2 * self.grid.dims[0]))

    def chunked(self, block_size: int | None) -> "ScheduleGeometry":
        """This placement cut into pipeline blocks ``block_size`` wide;
        refuses block sizes below 1 and illegal chains
        (:func:`check_chain_legality`)."""
        if block_size is not None and block_size < 1:
            raise MachineError(f"block size must be >= 1, got {block_size}")
        if self.schedule == "taskgraph":
            return replace(self, block_size=block_size)
        plan = self.wavefront
        c = plan.chunk_dim
        reverse = c is not None and plan.compiled.loops.signs[c] < 0
        chunks_by_rank = {
            rank: (local,)
            if c is None or local.extent(c) == 0
            else tuple(
                _chunk_regions(local, c, block_size or local.extent(c), reverse)
            )
            for rank, local in enumerate(self.locals_by_rank)
        }
        n_chunks = max(len(chunks) for chunks in chunks_by_rank.values())
        check_chain_legality(plan.compiled, plan, self.grid.dims[0], n_chunks)
        return replace(
            self,
            block_size=block_size,
            n_chunks=n_chunks,
            chunks_by_rank=chunks_by_rank,
        )

    def meta(self) -> dict:
        """The schedule's trace-meta vocabulary, whichever backend ran it."""
        plan = self.wavefront
        return {
            "schedule": self.schedule,
            "grid": list(self.grid.dims),
            "n_procs": self.grid.size,
            # Stages per pipeline chain (rank-2 grids run dims[1]
            # independent chains of dims[0] stages each).
            "pipeline_procs": self.grid.dims[0],
            "block_size": self.block_size,
            "n_chunks": self.n_chunks,
            "rows": plan.rows,
            "cols": plan.cols,
            "boundary_rows": plan.boundary_rows,
            "halo_rows": plan.halo_rows,
            "wavefront_dim": plan.wavefront_dim,
            "chunk_dim": plan.chunk_dim,
        }


def place(
    compiled: CompiledScan,
    grid: ProcessorGrid,
    schedule: str,
    wavefront_dim: int | None = None,
) -> ScheduleGeometry:
    """Distribute ``compiled`` over ``grid`` for ``schedule``.

    Raises the :class:`~repro.errors.MachineError` family for shapes no
    backend runs: no wavefront, a taskgraph on a rank-2 grid, a multi-stage
    pipeline or a mesh with no chunkable dimension, a mesh whose columns a
    dependence would couple.
    """
    plan = plan_wavefront(compiled, wavefront_dim)
    if schedule == "taskgraph" and grid.rank != 1:
        raise MachineError(
            "schedule=\"taskgraph\" runs on rank-1 grids: the scheduler "
            "itself spreads work along the chunk dimension"
        )
    dist = _build_distribution(plan, grid, schedule)
    ascending = compiled.loops.signs[plan.wavefront_dim] >= 0
    return ScheduleGeometry(
        wavefront=plan,
        grid=grid,
        schedule=schedule,
        ascending=ascending,
        chains=tuple(tuple(chain) for chain in _chains(grid, ascending)),
        locals_by_rank=tuple(dist.local_region(rank) for rank in grid),
    )
