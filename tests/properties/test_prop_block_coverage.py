"""Property: every block the planner hands a worker lies inside the plan.

:meth:`repro.runtime.kernels.PlanRunner.run_block` binds the region it is
given as is — the worker loops, the simulator and the autotuner no longer
intersect each block with ``compiled.region`` first.  That is sound only
because every chunk in ``chunks_by_rank`` and every tile in ``graph.tiles``
that :func:`repro.parallel.plan.resolve_run` produces is already covered by
``compiled.region``.  Random blocks placed anywhere in their storage, under
naive, pipelined and taskgraph schedules, on grids 1–3, (2, 1) and (1, 2),
in both traversal directions, masked and unmasked, must keep that
invariant — and the static schedules' blocks must still tile the region
exactly, so dropping the intersection loses no cell either.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import zpl
from repro.compiler import compile_scan
from repro.errors import MachineError
from repro.parallel.plan import resolve_run


@st.composite
def planned_blocks(draw):
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    lo0, lo1 = draw(st.integers(3, 6)), draw(st.integers(3, 6))
    sw, sc = draw(st.sampled_from((1, -1))), draw(st.sampled_from((1, -1)))
    schedule = draw(st.sampled_from(("naive", "pipelined", "taskgraph")))
    grids = (1, 2, 3) if schedule == "taskgraph" else (1, 2, 3, (2, 1), (1, 2))
    grid = draw(st.sampled_from(grids))
    # A dependence along the chunk dimension would couple a mesh's chains.
    chunk_dep = not isinstance(grid, tuple) and draw(st.booleans())
    masked = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))

    region = zpl.Region.of((lo0, lo0 + rows - 1), (lo1, lo1 + cols - 1))
    base = zpl.Region.of((1, lo0 + rows + 2), (1, lo1 + cols + 2))
    a = zpl.ZArray(base, name="a", fluff=2)
    a._data[...] = 0.5
    reads = [(-sw, 0)] + ([(0, -sc)] if chunk_dep else [])
    mask = None
    if masked:
        mask = zpl.ZArray(base, name="m", fluff=2)
        mask._data[...] = 0.0
        mask.load((rng.uniform(size=base.shape) < 0.3).astype(float))
    with zpl.covering(region):
        with zpl.scan(execute=False) as block:
            expr = zpl.as_node(0.1)
            for direction in reads:
                expr = expr + 0.4 * (a.p @ direction)
            if mask is None:
                a[...] = expr
            else:
                with zpl.masked(mask):
                    a[...] = expr
    knobs = dict(
        schedule=schedule,
        block=draw(st.integers(1, 5)),
        oversub=draw(st.integers(1, 4)),
    )
    return compile_scan(block), grid, knobs


@given(planned_blocks())
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_every_chunk_and_tile_is_covered_by_the_plan_region(case):
    compiled, grid, knobs = case
    try:
        run_plan = resolve_run(compiled, grid, static=True, **knobs)
    except MachineError:
        assume(False)  # a refused shape dispatches nothing
    region = compiled.region
    chunks = [c for cs in run_plan.chunks_by_rank.values() for c in cs]
    blocks = list(chunks)
    if run_plan.graph is not None:
        blocks += run_plan.graph.tiles
        assert run_plan.graph.sizes == tuple(t.size for t in run_plan.graph.tiles)
        assert all(run_plan.graph.sizes)  # live tiles are never empty
    else:
        assert sum(c.size for c in chunks) == region.size
    for block in blocks:
        assert region.covers(block), f"{block!r} leaves {region!r}"
        assert block.is_empty() or region.intersect(block) == block
