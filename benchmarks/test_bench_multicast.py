"""Multicast epoch fabric vs plain pipelined pipes at p=4.

A wide rank-2 wavefront (``N x 16``, dependences ``(0,1)`` and ``(1,1)``)
pipelines along the long dimension with fan-out 2 per producer, so the
planner auto-selects the epoch fabric: one shared-memory stamp releases the
whole consumer row instead of one pipe token per edge, and consumers read
the halo from shared storage on either fabric.  This bench regenerates the acceptance numbers on a
persistent :class:`WorkerPool` with four workers (override the mesh length
with ``REPRO_BENCH_MULTICAST_N`` — CI's smoke step runs a small n):

* both fabrics must leave the arrays **bit-identical** to the sequential
  vectorised engine (equality gate);
* the tile DAG's fan-out must make the planner pick ``fabric="multicast"``
  on its own (no forcing knobs);
* multicast must be at least **1.25x** faster than the plain pipelined
  pipes fabric at p=4 — the multicast vs pipes gate.  The gate
  needs real cores: on an oversubscribed host every "overlap" is
  time-sliced onto one CPU (see :func:`repro.parallel.oversubscription`),
  so there the bench gates a no-regression bound instead and stamps the
  host facts into the artifact for downstream filtering;
* the fitted collective constants (α_c and γ from
  :func:`repro.parallel.autotune.measure_multicast`) are recorded in the
  artifact next to the measured walls, so Model-2 predictions can be
  checked against this exact run.

The payload is written to ``BENCH_multicast.json`` via
:mod:`repro.util.benchjson` and uploaded by CI next to the other
``BENCH_*.json`` artifacts.
"""

import os

import numpy as np

from repro import zpl
from repro.compiler import compile_scan
from repro.machine.schedules import plan_wavefront
from repro.parallel import WorkerPool, oversubscription
from repro.parallel.autotune import measure_multicast
from repro.runtime import execute_vectorized
from repro.runtime.interp import ArraySnapshot
from repro.util.benchjson import read_bench, write_bench
from repro.util.timing import WallTimer

#: Acceptance-criterion length of the chunked (wide) dimension.
N = int(os.environ.get("REPRO_BENCH_MULTICAST_N", "2048"))
#: Wavefront width: 4 ranks x 4 columns each.
WIDTH = 16
BLOCK = max(16, N // 32)
PROCS = 4
REPEATS = 3
#: The CI gate: multicast vs pipes.
MIN_SPEEDUP = 1.25
#: Oversubscribed hosts time-slice both fabrics onto the same cores, which
#: erases the overlap the gate measures; there the bench only refuses a
#: real regression.
MIN_SPEEDUP_TIMESLICED = 0.7


def _wavefront_block(n, width):
    base = zpl.Region.of((1, n), (1, width))
    a = zpl.ZArray(base, name="a", fluff=2)
    rng = np.random.default_rng(7)
    a._data[...] = rng.uniform(0.5, 1.5, size=a._data.shape)
    region = zpl.Region.of((3, n), (3, width))
    # Reader offsets (0,-1) and (-1,-1) -> dependences (0,1) and (1,1):
    # the wavefront runs along the width, blocks chunk the long dimension,
    # and the (1,1) diagonal gives every producer two consumer tiles per
    # stamp — the fan-out that flips the planner to the epoch fabric.
    with zpl.covering(region):
        with zpl.scan(execute=False) as block:
            a[...] = 0.3 + 0.4 * (a.p @ (0, -1)) + 0.2 * (a.p @ (-1, -1))
    return compile_scan(block), a


def _timed(pool, compiled, snap, repeats, **kwargs):
    best_wall = float("inf")
    last_run = None
    for _ in range(repeats):
        snap.restore()
        timer = WallTimer()
        with timer:
            last_run = pool.execute(compiled, **kwargs)
        best_wall = min(best_wall, timer.elapsed)
    return best_wall, last_run


def test_multicast_fabric_artifact():
    compiled, a = _wavefront_block(N, WIDTH)
    plan = plan_wavefront(compiled)
    compiled.prepare()
    snap = ArraySnapshot([a])

    # The sequential oracle for the equality gate.
    execute_vectorized(compiled)
    oracle = a.to_numpy().copy()
    snap.restore()

    pool = WorkerPool(PROCS)
    try:
        pipes_wall, pipes_run = _timed(
            pool, compiled, snap, REPEATS,
            schedule="pipelined", block=BLOCK, multicast=False,
        )
        np.testing.assert_array_equal(a.to_numpy(), oracle)
        assert pipes_run.fabric == "pipes"

        mcast_wall, mcast_run = _timed(
            pool, compiled, snap, REPEATS,
            schedule="pipelined", block=BLOCK,
        )
        np.testing.assert_array_equal(a.to_numpy(), oracle)
    finally:
        pool.close()

    # The planner must have chosen the fabric from the DAG's fan-out alone.
    assert mcast_run.fabric == "multicast", (
        f"expected automatic multicast selection on the fan-out-2 "
        f"wavefront, got fabric={mcast_run.fabric!r}"
    )

    # The fitted collective constants the artifact promises: α_c + γ·f
    # measured on this host, this run.
    coll = measure_multicast(fanouts=(1, 2), cycles=60)

    host = oversubscription(PROCS)
    speedup = pipes_wall / mcast_wall
    results = [
        {
            "test": "multicast_vs_pipelined",
            "n": N,
            "width": WIDTH,
            "block_size": BLOCK,
            "p": PROCS,
            "pipelined_seconds": pipes_wall,
            "multicast_seconds": mcast_wall,
            "multicast_speedup": speedup,
            "fabric": mcast_run.fabric,
            "n_chunks": mcast_run.n_chunks,
            "alpha_c_seconds": coll.alpha_seconds,
            "gamma_seconds": coll.gamma_seconds,
            "fit_samples": [list(s) for s in coll.samples],
        }
    ]
    meta = {
        "benchmark": "wide-rank2-wavefront",
        "n": N,
        "width": WIDTH,
        "repeats": REPEATS,
        "host": host,
        "wave_dim": plan.wavefront_dim,
        "chunk_dim": plan.chunk_dim,
    }
    path = write_bench("multicast", results, meta=meta)

    written = read_bench("multicast")
    assert path.name == "BENCH_multicast.json"
    assert written["results"][0]["multicast_seconds"] > 0
    assert written["results"][0]["alpha_c_seconds"] > 0

    # The multicast vs pipes gate.
    gate = MIN_SPEEDUP_TIMESLICED if host["oversubscribed"] else MIN_SPEEDUP
    assert speedup >= gate, (
        f"multicast vs pipes: multicast must be >={gate}x the plain "
        f"pipelined fabric at p={PROCS}, n={N}x{WIDTH} "
        f"(host oversubscribed={host['oversubscribed']}): multicast "
        f"{mcast_wall:.4f}s vs pipes {pipes_wall:.4f}s ({speedup:.2f}x)"
    )
