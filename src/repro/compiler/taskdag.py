"""Block-level task DAG derivation for ``schedule="taskgraph"``.

The pipelined schedule orders blocks statically: rank order along the
wavefront, chunk order within a rank.  That order is *sufficient* for the
UDVs but far from *necessary* — a block may fire the moment the blocks its
dependences actually reach have completed.  This module derives that exact
partial order at plan time:

* **Tiles** come from :func:`repro.compiler.schedule.taskgraph_intervals`:
  the pipelined schedule's own chunk boundaries along the chunk dimension
  crossed with over-decomposed per-rank slabs along the wavefront
  dimension (so stolen work still lands near its home rank's data).
* **Edges** are computed geometrically from the UDVs.  Every
  :class:`~repro.compiler.udv.Dependence` — true, anti *and* output —
  stores ``vector = dest - source`` with the source ordered first, so for
  a dependence ``v`` the predecessors of tile ``T`` are exactly the tiles
  intersecting ``T.shift(-v)``; components along untiled dimensions never
  cross a tile boundary and drop out.  Compile-time legality (the loop
  structure of :mod:`repro.compiler.loopstruct`, derived from the same
  constraint vectors :mod:`repro.compiler.legality` validates) guarantees
  each vector is non-negative along both tiled axes once normalised by the
  traversal sign; :func:`derive_taskgraph` re-checks this and raises
  :class:`~repro.errors.DistributionError` rather than ever building a
  cyclic graph.
* **Dead tiles are pruned.**  When every globally-storing statement is
  masked, none of its masks is written by the block, and all of them are
  zero everywhere on a tile, the tile stores nothing — running it would
  only recompute values that :func:`~repro.runtime.vectorized` masks back
  out — so it never enters the graph.  This is the banded Smith-Waterman
  win: blocks entirely outside the band cost nothing.  Edges through a
  pruned tile need no rewiring: a tile that writes nothing orders nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    @property
    def n_live(self) -> int:
        return len(self.tiles)

    @property
    def roots(self) -> tuple[int, ...]:
        return tuple(t for t, p in enumerate(self.preds) if not p)

    def __repr__(self) -> str:
        return (
            f"TaskGraph({self.n_live} tiles [{self.n_wave}x{self.n_chunk}, "
            f"{self.n_pruned} pruned], {self.n_edges} edges)"
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
        masks.append(stmt.mask)
    return masks if masks else None


def tile_dependences(
    compiled: CompiledScan,
    tiles: Sequence[Region],
    region: Region,
) -> list[tuple[int, int, object]]:
    """Geometric block-level dependence edges between arbitrary tiles.

    The projection :func:`derive_taskgraph` applies to its own interval
    tiling, generalised to any tile set (the certifier feeds it the
    pipelined schedule's chunk regions too): for each dependence ``v`` and
    each non-empty destination tile ``T``, the source tiles are exactly the
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


def derive_taskgraph(
    compiled: CompiledScan,
    plan: WavefrontPlan,
    locals_by_rank: Sequence[Region],
    oversub: int,
    block_size: int,
    prune: bool = True,
) -> TaskGraph:
    """Tile the plan region and wire the exact dependence DAG between tiles.

    ``locals_by_rank`` are the per-rank static slabs (``BlockMap`` local
    regions, in rank order) that anchor each tile's home; ``oversub`` and
    ``block_size`` set the wave/chunk tile granularity (see
    :func:`repro.parallel.plan.resolve_run`).
    """
    region = plan.region
    w, c = plan.wavefront_dim, plan.chunk_dim
    wave, chunk = taskgraph_intervals(plan, locals_by_rank, oversub, block_size)
    if not wave:
        raise DistributionError("empty region: nothing to schedule")
    vectors = _projected_vectors(compiled, w, c)
    n_wave, n_chunk = len(wave), len(chunk)

    def tile_region(wi: int, cj: int) -> Region:
        wlo, whi, _home = wave[wi]
        tile = region.slab(w, wlo, whi)
        if chunk[cj] is not None:
            tile = tile.slab(c, *chunk[cj])
        return tile

    tiles_all = [
        tile_region(wi, cj) for wi in range(n_wave) for cj in range(n_chunk)
    ]

    masks = _prunable_masks(compiled) if prune else None
    if masks is None:
        live = [True] * len(tiles_all)
    else:
        live = [
            any(np.any(mask.read(tile) != 0) for mask in masks)
            for tile in tiles_all
        ]
    n_pruned = live.count(False)
    live_id = {}
    for g, alive in enumerate(live):
        if alive:
            live_id[g] = len(live_id)

    chunk_ranges = [r for r in chunk if r is not None]
    preds: list[set[int]] = [set() for _ in range(len(live_id))]
    succs: list[set[int]] = [set() for _ in range(len(live_id))]
    n_edges = 0
    for wi in range(n_wave):
        wlo, whi, _home = wave[wi]
        for cj in range(n_chunk):
            dst = live_id.get(wi * n_chunk + cj)
            if dst is None:
                continue
            for vw, vc in vectors:
                src_wave = _overlapping(
                    [(lo, hi) for lo, hi, _ in wave], wlo - vw, whi - vw
                )
                if chunk[cj] is None:
                    src_chunk = [cj]
                else:
                    clo, chi = chunk[cj]
                    src_chunk = _overlapping(chunk_ranges, clo - vc, chi - vc)
                for wsrc in src_wave:
                    for csrc in src_chunk:
                        if (wsrc, csrc) == (wi, cj):
                            continue
                        src = live_id.get(wsrc * n_chunk + csrc)
                        if src is None:
                            continue
                        # The sign check above makes every source tile
                        # earlier in traversal order — assert the invariant
                        # the acyclicity proof rests on.
                        assert wsrc <= wi and csrc <= cj
                        if src not in preds[dst]:
                            preds[dst].add(src)
                            succs[src].add(dst)
                            n_edges += 1

    live_tiles = tuple(t for t, alive in zip(tiles_all, live) if alive)
    homes = tuple(
        wave[g // n_chunk][2] for g, alive in enumerate(live) if alive
    )
    return TaskGraph(
        tiles=live_tiles,
        homes=homes,
        preds=tuple(tuple(sorted(p)) for p in preds),
        succs=tuple(tuple(sorted(s)) for s in succs),
        n_pruned=n_pruned,
        n_edges=n_edges,
        n_wave=n_wave,
        n_chunk=n_chunk,
    )
