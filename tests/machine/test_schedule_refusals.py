"""The simulator refuses what ``execute()`` refuses.

Both plan through :mod:`repro.compiler.schedule`, so a chain the one-way
boundary protocol cannot honour raises the same typed error from
``resolve_run`` and from every simulator entry point — before PR 24 the
simulator ran such blocks and returned wrong values without a word.
"""

import numpy as np
import pytest

from repro import zpl
from repro.compiler import compile_scan
from repro.errors import DistributionError
from repro.machine import (
    MachineParams,
    naive_wavefront,
    pipelined_wavefront,
    pipelined_wavefront_mesh,
)
from repro.parallel.plan import resolve_run
from repro.runtime import execute_loopnest, run_and_capture
from tests.parallel.test_collectives import _anti_diagonal_block

SMALL = MachineParams(name="small", alpha=40.0, beta=2.0)


def _primed_block():
    """``a = 0.5*(a' @ (-1, 1)) + 1`` over ``[2..12, 2..11]``: legal, but
    its one dependence points up the only chain the planner can build."""
    rng = np.random.default_rng(3)
    a = zpl.ZArray(zpl.Region.square(1, 13), name="a", fluff=2)
    a._data[...] = rng.uniform(0.5, 1.5, size=a._data.shape)
    with zpl.covering(zpl.Region.of((2, 12), (2, 11))):
        with zpl.scan(execute=False) as block:
            a[...] = 0.5 * (a.p @ (-1, 1)) + 1.0
    return compile_scan(block), [a]


def _primed_block_3d():
    """The same dependence with a free third dimension, so a mesh has a
    chunk dimension to distribute and the upstream check is what refuses
    (distributed along dimension 1, which the dependence runs against)."""
    rng = np.random.default_rng(4)
    a = zpl.ZArray(zpl.Region.square(1, 9, rank=3), name="a", fluff=2)
    a._data[...] = rng.uniform(0.5, 1.5, size=a._data.shape)
    with zpl.covering(zpl.Region.of((2, 8), (2, 8), (1, 8))):
        with zpl.scan(execute=False) as block:
            a[...] = 0.5 * (a.p @ (-1, 1, 0)) + 1.0
    return compile_scan(block), [a]


#: name -> (block factory, the wavefront dimension to distribute).
BLOCKS = {
    "primed": (_primed_block, None),
    "anti-diagonal": (_anti_diagonal_block, None),
    "primed-3d": (_primed_block_3d, 1),
}

#: (simulator call, the grid/schedule/block ``resolve_run`` plans for it).
SHAPES = {
    "pipelined p=2 b=3": (
        lambda c, w: pipelined_wavefront(c, SMALL, 2, 3, w),
        dict(grid=2, schedule="pipelined", block=3),
    ),
    "pipelined p=3 b=2": (
        lambda c, w: pipelined_wavefront(c, SMALL, 3, 2, w),
        dict(grid=3, schedule="pipelined", block=2),
    ),
    "pipelined p=2 b=12": (
        lambda c, w: pipelined_wavefront(c, SMALL, 2, 12, w),
        dict(grid=2, schedule="pipelined", block=12),
    ),
    "naive p=2": (
        lambda c, w: naive_wavefront(c, SMALL, 2, w),
        dict(grid=2, schedule="naive"),
    ),
    "mesh (2, 1) b=3": (
        lambda c, w: pipelined_wavefront_mesh(c, SMALL, (2, 1), 3, w),
        dict(grid=(2, 1), schedule="pipelined", block=3),
    ),
    "mesh (2, 2) b=2": (
        lambda c, w: pipelined_wavefront_mesh(c, SMALL, (2, 2), 2, w),
        dict(grid=(2, 2), schedule="pipelined", block=2),
    ),
}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name", BLOCKS)
def test_multi_stage_chains_raise_what_resolve_run_raises(name, shape):
    build, wavefront_dim = BLOCKS[name]
    compiled, arrays = build()
    simulate, kwargs = SHAPES[shape]
    with pytest.raises(DistributionError) as planned:
        resolve_run(compiled, static=True, wavefront_dim=wavefront_dim, **kwargs)
    before = [a._data.copy() for a in arrays]
    with pytest.raises(DistributionError) as simulated:
        simulate(compiled, wavefront_dim)
    assert str(simulated.value) == str(planned.value)
    # A mesh over a dependence-carrying chunk dimension is refused one
    # check earlier (it would couple the chains); every other shape here
    # is refused for the upstream dependence itself.
    coupled = shape.startswith("mesh") and name != "primed-3d"
    assert ("would couple" if coupled else "points upstream") in str(
        simulated.value
    )
    for array, data in zip(arrays, before):
        assert array._data.tobytes() == data.tobytes()


@pytest.mark.parametrize("name", BLOCKS)
def test_one_stage_still_simulates_and_matches_the_loop_nest(name):
    build, w = BLOCKS[name]
    compiled, arrays = build()
    oracle = run_and_capture(execute_loopnest, compiled, arrays)
    runs = [
        lambda c: pipelined_wavefront(c, SMALL, 1, 3, w),
        lambda c: naive_wavefront(c, SMALL, 1, w),
    ]
    if name == "primed-3d":
        # One stage per chain, two chains side by side.
        runs.append(lambda c: pipelined_wavefront_mesh(c, SMALL, (1, 2), 3, w))
    for run in runs:
        got = run_and_capture(run, compiled, arrays)
        for want, have in zip(oracle, got):
            np.testing.assert_array_equal(have, want)
