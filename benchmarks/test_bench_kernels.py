"""The native loop nest vs the numpy row loop, measured on the paper's kernel.

This bench regenerates the acceptance numbers for the kernel layer on the
Tomcatv forward-elimination wavefront at the paper-scale mesh (256×256,
single process):

* engine throughput — what :func:`execute_vectorized` runs on this host
  (the native loop nest where the host has a compiler; cold first run,
  then warm minima) against the numpy row loop (``kernel_numpy_seconds``,
  the toolchain made to look absent), asserting the default lowering does
  not lose to the row loop by more than 10 %;
* dispatch cost — the per-block cost a pipelined schedule pays, in one
  process (``PlanRunner.run_block``) and through a persistent
  :class:`WorkerPool` (one token plus one warm dispatch).  Recorded for the
  trajectory, not gated.

The payload is written to ``BENCH_kernels.json`` directly (this module
bypasses pytest-benchmark: the interesting numbers are ratios between
lowerings, not the harness clock).  CI runs this as a smoke step with
``REPRO_PARALLEL_MAX_PROCS=2`` and uploads the artifact.
"""

from repro.parallel import (
    measure_block_overhead,
    measure_pool_dispatch,
    oversubscription,
    tomcatv_forward,
)
from repro.parallel.sharedmem import collect_arrays
from repro.runtime import KERNEL_STATS, execute_vectorized
from repro.runtime.interp import ArraySnapshot
from repro.util.benchjson import read_bench, write_bench
from repro.util.timing import WallTimer
from tests.conftest import numpy_lowerings

#: Acceptance-criterion mesh: the paper's Tomcatv size.
N = 256
REPEATS = 3


def _timed(compiled, snap, repeats):
    best = float("inf")
    for _ in range(repeats):
        snap.restore()
        timer = WallTimer()
        with timer:
            execute_vectorized(compiled)
        best = min(best, timer.elapsed)
    return best


def test_kernel_engine_artifact():
    compiled = tomcatv_forward(N)
    arrays = collect_arrays(compiled)
    compiled.prepare()
    snap = ArraySnapshot(arrays)
    host = oversubscription(1)

    # Engine throughput.  The first run pays template + plan compilation;
    # warm runs hit the plan cache.
    KERNEL_STATS.reset()
    snap.restore()
    cold_timer = WallTimer()
    with cold_timer:
        execute_vectorized(compiled)
    kernel_cold = cold_timer.elapsed
    kernel_best = _timed(compiled, snap, REPEATS)
    kernel_stats = KERNEL_STATS.snapshot()
    with numpy_lowerings():
        numpy_best = _timed(compiled, snap, 1 + REPEATS)

    # Dispatch cost per pipeline block: the in-process block path vs a warm
    # persistent pool (one token + one warm dispatch).
    snap.restore()
    dispatch_kernel = measure_block_overhead(compiled)
    snap.restore()
    dispatch_pooled = measure_pool_dispatch(compiled)
    snap.restore()

    results = [
        {
            "test": "engine_throughput",
            "n": N,
            "kernel_cold_seconds": kernel_cold,
            "kernel_seconds": kernel_best,
            "kernel_numpy_seconds": numpy_best,
            "native_speedup_vs_numpy": numpy_best / kernel_best,
        },
        {
            "test": "dispatch_per_block",
            "kernel_seconds": dispatch_kernel,
            "pooled_seconds": dispatch_pooled,
        },
    ]
    meta = {
        "benchmark": "tomcatv-forward",
        "n": N,
        "region_size": compiled.region.size,
        "repeats": REPEATS,
        "host": host,
        "oversubscribed": host["oversubscribed"],
        "kernel_stats": kernel_stats,
    }
    path = write_bench("kernels", results, meta=meta)

    written = read_bench("kernels")
    assert path.name == "BENCH_kernels.json"
    assert written["results"][0]["kernel_seconds"] > 0

    # Acceptance criterion — the CI gate.
    assert kernel_best <= numpy_best * 1.1, (
        f"the default lowering must not lose to the numpy row loop: "
        f"{kernel_best:.4f}s vs {numpy_best:.4f}s"
    )
