"""Property: the block-reduce tile liveness equals the per-tile definition.

:func:`repro.compiler.taskdag.tile_liveness` decides which task-graph tiles
are dead with one reduction per mask over the whole plan region.  The
definition it replaces reads every tile: a tile is live when any mask holds
a nonzero inside it.  Random masked blocks — rank 2 or 3 (the third
dimension stays untiled), either traversal direction on both tiled axes, a
chunkless chain, one or two masks OR-ed together, over-decomposition past a
rank's extent — must agree tile for tile, and the graph the structure
induces on the live tiles must keep exactly the edges between them.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import zpl
from repro.compiler import compile_scan
from repro.compiler.grid import ProcessorGrid
from repro.compiler.schedule import _build_distribution, plan_wavefront
from repro.compiler.taskdag import (
    _prunable_masks,
    derive_taskgraph,
    tile_dag,
    tile_liveness,
)


@st.composite
def masked_blocks(draw):
    rank = draw(st.sampled_from((2, 3)))
    chunkless = rank == 2 and draw(st.booleans())
    n = draw(st.integers(6, 14 if rank == 2 else 8))
    sw, sc = draw(st.sampled_from((1, -1))), draw(st.sampled_from((1, -1)))
    n_masks = draw(st.integers(1, 2))
    density = draw(st.sampled_from((0.0, 0.01, 0.05, 0.3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))

    base = zpl.Region.square(1, n, rank=rank)
    region = zpl.Region.square(3, n - 2, rank=rank)

    def unit(dim, step):
        return tuple(step if d == dim else 0 for d in range(rank))

    wave = unit(0, -sw)
    if chunkless:
        # Both signs along dimension 1: nothing can be cut into chunks.
        reads = [(-sw, 1), (-sw, -1)]
    else:
        reads = [wave, unit(rank - 1, -sc)]

    targets, masks = [], []
    for k in range(n_masks):
        target = zpl.ZArray(base, name=f"t{k}", fluff=2)
        target._data[...] = 0.5
        mask = zpl.ZArray(base, name=f"m{k}", fluff=2)
        mask._data[...] = 0.0
        mask.load((rng.uniform(size=base.shape) < density).astype(float))
        targets.append(target)
        masks.append(mask)
    with zpl.covering(region):
        with zpl.scan(execute=False) as block:
            for target, mask in zip(targets, masks):
                with zpl.masked(mask):
                    expr = zpl.as_node(0.1)
                    for direction in reads:
                        expr = expr + 0.3 * (target.p @ direction)
                    target[...] = expr
    compiled = compile_scan(block)
    plan = plan_wavefront(compiled)
    grid = ProcessorGrid((draw(st.integers(1, 3)),))
    dist = _build_distribution(plan, grid)
    locals_by_rank = [dist.local_region(r) for r in grid]
    oversub = draw(st.integers(1, 12))
    block_size = draw(st.integers(1, 6))
    return compiled, plan, locals_by_rank, oversub, block_size, masks, chunkless


@given(masked_blocks())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_block_reduce_matches_per_tile_definition(case):
    compiled, plan, locals_by_rank, oversub, block_size, masks, chunkless = case
    dag = tile_dag(compiled, plan, locals_by_rank, oversub, block_size)
    assert (dag.chunk == (None,)) == chunkless
    assert len(_prunable_masks(compiled)) == len(masks)

    live = tile_liveness(dag, _prunable_masks(compiled))
    expected = [
        any(np.any(mask.read(tile) != 0) for mask in masks) for tile in dag.tiles
    ]
    assert live.tolist() == expected

    graph = derive_taskgraph(compiled, plan, locals_by_rank, oversub, block_size)
    kept = [g for g, alive in enumerate(expected) if alive]
    assert graph.tiles == tuple(dag.tiles[g] for g in kept)
    assert graph.n_pruned == len(dag.tiles) - len(kept)
    induced = {
        (p, g) for g in kept for p in dag.preds[g] if expected[p]
    }
    assert {
        (kept[p], kept[t]) for t, preds in enumerate(graph.preds) for p in preds
    } == induced
    assert graph.n_edges == len(induced)
