"""Block-level task DAG derivation for ``schedule="taskgraph"``.

The pipelined schedule orders blocks statically: rank order along the
wavefront, chunk order within a rank.  That order is *sufficient* for the
UDVs but far from *necessary* — a block may fire the moment the blocks its
dependences actually reach have completed.  This module derives that exact
partial order at plan time, in two halves:

* **The structure** (:func:`tile_dag`, a :class:`TileDag`) is value-free:
  every tile, its home rank and every edge, before pruning.

  - *Tiles* come from :func:`repro.compiler.schedule.taskgraph_intervals`:
    the pipelined schedule's own chunk boundaries along the chunk
    dimension crossed with over-decomposed per-rank slabs along the
    wavefront dimension (so stolen work still lands near its home rank's
    data).
  - *Edges* are computed geometrically from the UDVs.  Every
    :class:`~repro.compiler.udv.Dependence` — true, anti *and* output —
    stores ``vector = dest - source`` with the source ordered first, so
    for a dependence ``v`` the predecessors of tile ``T`` are exactly the
    tiles intersecting ``T.shift(-v)``; components along untiled
    dimensions never cross a tile boundary and drop out.  Compile-time
    legality (the loop structure of :mod:`repro.compiler.loopstruct`,
    derived from the same constraint vectors :mod:`repro.compiler.legality`
    validates) guarantees each vector is non-negative along both tiled
    axes once normalised by the traversal sign; :func:`tile_dag` re-checks
    this and raises :class:`~repro.errors.DistributionError` rather than
    ever building a cyclic graph.

* **Liveness** (:func:`tile_liveness`) is the one part that depends on
  array values.  When every globally-storing statement is masked, none of
  its masks is written by the block, and all of them are zero everywhere
  on a tile, the tile stores nothing — running it would only recompute
  values that :func:`~repro.runtime.kernels.execute_vectorized` masks back
  out — so it never enters the graph.  This is the banded Smith-Waterman win: blocks
  entirely outside the band cost nothing.  Liveness is one block-reduce
  per mask over the plan region, and the :class:`TaskGraph` is the
  subgraph the structure induces on the live tiles
  (:meth:`TileDag.induce`).  Edges through a pruned tile need no
  rewiring: a tile that writes nothing orders nothing.

:func:`derive_taskgraph` composes the two.  A caller that keeps a graph
across runs (the worker pool) keeps its structure with it and, since masks
may change in place between calls, re-checks only liveness
(:func:`reprune`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.compiler.lowering import CompiledScan
from repro.errors import DistributionError
from repro.compiler.schedule import WavefrontPlan, taskgraph_intervals
from repro.zpl.regions import Region


@dataclass(frozen=True)
class TaskGraph:
    """The pruned block-level DAG, ready for the stealing scheduler."""

    #: Live tiles in traversal order (wave-major, chunk-minor).
    tiles: tuple[Region, ...]
    #: Home rank of each live tile (the rank whose static slab contains it).
    homes: tuple[int, ...]
    preds: tuple[tuple[int, ...], ...]
    succs: tuple[tuple[int, ...], ...]
    #: Fully-masked tiles that never entered the graph.
    n_pruned: int
    n_edges: int
    #: Tiling shape before pruning (wave tiles x chunk tiles).
    n_wave: int
    n_chunk: int
    #: The unpruned structure this graph was induced from.
    dag: "TileDag" = field(compare=False, repr=False)
    #: The liveness it was induced with, one flag per structural tile
    #: (``None``: pruning is unsound for the block, every tile is live).
    live: np.ndarray | None = field(compare=False, repr=False)

    @property
    def n_live(self) -> int:
        return len(self.tiles)

    @property
    def roots(self) -> tuple[int, ...]:
        return tuple(t for t, p in enumerate(self.preds) if not p)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        """Cells per live tile: what the scheduler counts, once per graph."""
        return tuple(tile.size for tile in self.tiles)

    def __repr__(self) -> str:
        return (
            f"TaskGraph({self.n_live} tiles [{self.n_wave}x{self.n_chunk}, "
            f"{self.n_pruned} pruned], {self.n_edges} edges)"
        )


@dataclass(frozen=True, eq=False)
class TileDag:
    """Every tile of a task-graph decomposition and every edge between
    them, before pruning: the value-free half of a :class:`TaskGraph`."""

    region: Region
    wavefront_dim: int
    chunk_dim: int | None
    #: ``(lo, hi, home_rank)`` wave intervals, in traversal order.
    wave: tuple[tuple[int, int, int], ...]
    #: ``(lo, hi)`` chunk intervals in traversal order, or ``(None,)``.
    chunk: tuple[tuple[int, int] | None, ...]
    #: All tiles, wave-major and chunk-minor: tile ``wi * n_chunk + cj``.
    tiles: tuple[Region, ...]
    homes: tuple[int, ...]
    preds: tuple[tuple[int, ...], ...]
    succs: tuple[tuple[int, ...], ...]

    def induce(self, live: np.ndarray | None) -> TaskGraph:
        """The subgraph on the tiles ``live`` flags (``None``: all), in
        O(tiles + edges).  Live tiles keep their relative order, so pred
        and succ lists stay sorted."""
        n = len(self.tiles)
        keep = range(n) if live is None else np.flatnonzero(live).tolist()
        new_id = [-1] * n
        for k, g in enumerate(keep):
            new_id[g] = k
        preds = tuple(
            tuple(new_id[p] for p in self.preds[g] if new_id[p] >= 0)
            for g in keep
        )
        return TaskGraph(
            tiles=tuple(self.tiles[g] for g in keep),
            homes=tuple(self.homes[g] for g in keep),
            preds=preds,
            succs=tuple(
                tuple(new_id[s] for s in self.succs[g] if new_id[s] >= 0)
                for g in keep
            ),
            n_pruned=n - len(keep),
            n_edges=sum(len(p) for p in preds),
            n_wave=len(self.wave),
            n_chunk=len(self.chunk),
            dag=self,
            live=live,
        )


def _projected_vectors(
    compiled: CompiledScan, w: int, c: int | None
) -> list[tuple[int, int]]:
    """Distinct UDV projections onto the tiled axes, normalised-sign-checked.

    All dependence kinds participate: out-of-order firing must respect anti
    and output dependences exactly as it respects flow.
    """
    signs = compiled.loops.signs
    sw = 1 if signs[w] >= 0 else -1
    sc = 1 if c is None or signs[c] >= 0 else -1
    seen: set[tuple[int, int]] = set()
    for dep in compiled.dependences:
        vw = dep.vector[w]
        vc = dep.vector[c] if c is not None else 0
        if vw == 0 and vc == 0:
            continue  # intra-tile along the tiled axes: the engine orders it
        if vw * sw < 0 or vc * sc < 0:
            raise DistributionError(
                f"{dep.kind.value} dependence {dep.vector} on {dep.array!r} "
                f"points against the traversal on a tiled dimension; this "
                f"block admits no forward task graph — use "
                f"schedule=\"pipelined\""
            )
        seen.add((vw, vc))
    return sorted(seen)


def _overlapping(
    intervals: Sequence[tuple[int, int]], lo: int, hi: int
) -> list[int]:
    """Indices of the intervals that intersect ``[lo, hi]`` (tens of tiles:
    a linear scan beats bookkeeping)."""
    return [
        k for k, (ilo, ihi) in enumerate(intervals) if ilo <= hi and ihi >= lo
    ]


def _prunable_masks(compiled: CompiledScan) -> list | None:
    """The mask arrays that decide tile liveness, or ``None`` when pruning
    is unsound for this block.

    Sound iff every statement with a *global* store (contracted targets
    allocate no storage, so a masked-off tile leaves them untouched
    everywhere it matters) carries a mask, and no mask array is itself
    written by the block — plan-time mask values then hold for the whole
    run, and a tile where every mask is zero stores nothing at all.
    """
    masks = []
    written = {id(stmt.target) for stmt in compiled.statements}
    for stmt in compiled.statements:
        if compiled.is_contracted(stmt.target):
            continue
        if stmt.mask is None or id(stmt.mask) in written:
            return None
        if all(stmt.mask is not m for m in masks):
            masks.append(stmt.mask)
    return masks if masks else None


def tile_dependences(
    compiled: CompiledScan,
    tiles: Sequence[Region],
    region: Region,
) -> list[tuple[int, int, object]]:
    """Geometric block-level dependence edges between arbitrary tiles.

    The projection :func:`tile_dag` applies to its own interval tiling,
    generalised to any tile set (the certifier feeds it the pipelined
    schedule's chunk regions too): for each dependence ``v`` and each
    non-empty destination tile ``T``, the source tiles are exactly the
    non-empty tiles intersecting ``T.shift(-v)`` clipped to ``region``.
    Returns ``(src_index, dst_index, dependence)`` triples, self-edges
    omitted — an engine orders the cells *within* one tile by construction,
    so only cross-tile edges need schedule-level synchronisation.
    """
    nonempty = [(i, tile) for i, tile in enumerate(tiles) if not tile.is_empty()]
    out: list[tuple[int, int, object]] = []
    for dep in compiled.dependences:
        if dep.is_loop_independent():
            continue
        back = tuple(-component for component in dep.vector)
        for dst, tile in nonempty:
            src_region = tile.shift(back).intersect(region)
            if src_region.is_empty():
                continue
            for src, src_tile in nonempty:
                if src == dst:
                    continue
                if not src_tile.intersect(src_region).is_empty():
                    out.append((src, dst, dep))
    return out


def tile_dag(
    compiled: CompiledScan,
    plan: WavefrontPlan,
    locals_by_rank: Sequence[Region],
    oversub: int,
    block_size: int,
) -> TileDag:
    """Tile the plan region and wire the exact dependence DAG between all
    tiles (arguments as for :func:`derive_taskgraph`)."""
    region = plan.region
    w, c = plan.wavefront_dim, plan.chunk_dim
    wave, chunk = taskgraph_intervals(plan, locals_by_rank, oversub, block_size)
    if not wave:
        raise DistributionError("empty region: nothing to schedule")
    vectors = _projected_vectors(compiled, w, c)
    n_wave, n_chunk = len(wave), len(chunk)

    tiles = []
    for wlo, whi, _home in wave:
        slab = region.slab(w, wlo, whi)
        for span in chunk:
            tiles.append(slab if span is None else slab.slab(c, *span))

    # Per vector: the source intervals each wave / chunk interval reads.
    wave_ranges = [(lo, hi) for lo, hi, _ in wave]
    chunk_ranges = [span for span in chunk if span is not None]
    sources = [
        (
            [_overlapping(wave_ranges, lo - vw, hi - vw) for lo, hi in wave_ranges],
            [
                [cj] if span is None
                else _overlapping(chunk_ranges, span[0] - vc, span[1] - vc)
                for cj, span in enumerate(chunk)
            ],
        )
        for vw, vc in vectors
    ]
    preds: list[set[int]] = [set() for _ in tiles]
    for wi in range(n_wave):
        for cj in range(n_chunk):
            dst = wi * n_chunk + cj
            for src_wave, src_chunk in sources:
                for wsrc in src_wave[wi]:
                    for csrc in src_chunk[cj]:
                        if (wsrc, csrc) == (wi, cj):
                            continue
                        # The sign check above makes every source tile
                        # earlier in traversal order — assert the invariant
                        # the acyclicity proof rests on.
                        assert wsrc <= wi and csrc <= cj
                        preds[dst].add(wsrc * n_chunk + csrc)
    succs: list[list[int]] = [[] for _ in tiles]
    for dst, srcs in enumerate(preds):
        for src in srcs:
            succs[src].append(dst)
    return TileDag(
        region=region,
        wavefront_dim=w,
        chunk_dim=c,
        wave=tuple(wave),
        chunk=tuple(chunk),
        tiles=tuple(tiles),
        homes=tuple(home for _lo, _hi, home in wave for _ in range(n_chunk)),
        preds=tuple(tuple(sorted(p)) for p in preds),
        succs=tuple(tuple(s) for s in succs),
    )


def _segments(
    intervals: Sequence[tuple[int, int]], lo: int, hi: int
) -> tuple[list[int], list[int]]:
    """``reduceat`` offsets covering ``[lo, hi]`` for disjoint intervals
    inside it, and each interval's segment index (gaps get segments of
    their own, which nothing indexes)."""
    starts = sorted(
        {a for a, _ in intervals} | {b + 1 for _, b in intervals if b < hi}
    )
    where = {start: k for k, start in enumerate(starts)}
    return [start - lo for start in starts], [where[a] for a, _ in intervals]


def tile_liveness(dag: TileDag, masks: Sequence | None) -> np.ndarray | None:
    """Per structural tile: does any mask hold a nonzero inside it?

    One block-reduce per mask over the plan region — ``!= 0``, then
    ``logical_or.reduceat`` along the wave and the chunk intervals, then
    ``any`` over the untiled dimensions — instead of one read per tile.
    ``masks`` is :func:`_prunable_masks`' answer; ``None`` (pruning
    unsound) returns ``None``: every tile is live.
    """
    if masks is None:
        return None
    region, w, c = dag.region, dag.wavefront_dim, dag.chunk_dim
    wlo, whi = region.range(w)
    wave_starts, wave_seg = _segments([(lo, hi) for lo, hi, _ in dag.wave], wlo, whi)
    tiled = [w] if c is None else [w, c]
    untiled = tuple(d for d in range(region.rank) if d not in tiled)
    hit = None
    for mask in masks:
        nz = mask.read(region) != 0
        if untiled:
            nz = nz.any(axis=untiled, keepdims=True)
        hit = nz if hit is None else hit | nz
    hit = np.logical_or.reduceat(hit, wave_starts, axis=w)
    if c is None:
        by_wave = np.moveaxis(hit, w, 0).reshape(len(wave_starts))
        return by_wave[wave_seg]
    clo, chi = region.range(c)
    chunk_starts, chunk_seg = _segments(dag.chunk, clo, chi)
    hit = np.logical_or.reduceat(hit, chunk_starts, axis=c)
    grid = np.moveaxis(hit, (w, c), (0, 1)).reshape(
        len(wave_starts), len(chunk_starts)
    )
    return grid[np.ix_(wave_seg, chunk_seg)].ravel()


def derive_taskgraph(
    compiled: CompiledScan,
    plan: WavefrontPlan,
    locals_by_rank: Sequence[Region],
    oversub: int,
    block_size: int,
    prune: bool = True,
) -> TaskGraph:
    """Tile the plan region, wire the exact dependence DAG between tiles
    and prune the dead ones.

    ``locals_by_rank`` are the per-rank static slabs (``BlockMap`` local
    regions, in rank order) that anchor each tile's home; ``oversub`` and
    ``block_size`` set the wave/chunk tile granularity (see
    :func:`repro.parallel.plan.resolve_run`).
    """
    dag = tile_dag(compiled, plan, locals_by_rank, oversub, block_size)
    masks = _prunable_masks(compiled) if prune else None
    return dag.induce(tile_liveness(dag, masks))


def reprune(graph: TaskGraph, compiled: CompiledScan) -> TaskGraph:
    """``graph`` if its liveness still holds for ``compiled``'s current
    mask values, else the subgraph its structure induces on the tiles that
    are live now.  ``compiled`` is the block ``graph`` was derived for."""
    if graph.live is None:
        return graph
    live = tile_liveness(graph.dag, _prunable_masks(compiled))
    if np.array_equal(live, graph.live):
        return graph
    return graph.dag.induce(live)
