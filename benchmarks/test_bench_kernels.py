"""AOT kernels vs the tree-walking engine, measured on the paper's kernel.

This bench regenerates the acceptance numbers for the kernel layer on the
Tomcatv forward-elimination wavefront at the paper-scale mesh (256×256,
single process):

* engine throughput — the interpreted slab engine against the compiled
  kernel engine (cold first run, then warm minima), asserting the kernel
  path is at least **2×** faster.  The ratio was stated about the numpy row
  loop (hoisted interpretation, same row-steps), so it is asserted on that
  lowering (``kernel_numpy_seconds``, the toolchain made to look absent) as
  well as on what ``engine="kernel"`` runs by default — the native loop
  nest where the host has a compiler, which must not lose to the row loop;
* dispatch cost — the per-block cost a pipelined schedule pays, for the
  interpreted engine (the pre-kernel ~9 ms/block recorded in
  ``BENCH_parallel.json``) against a persistent :class:`WorkerPool`
  dispatch, asserting the pooled path is at least **5×** cheaper.

The payload is written to ``BENCH_kernels.json`` directly (this module
bypasses pytest-benchmark: the interesting numbers are ratios between
engines, not the harness clock).  CI runs this as a smoke step with
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


def _timed(compiled, snap, repeats, **kwargs):
    best = float("inf")
    for _ in range(repeats):
        snap.restore()
        timer = WallTimer()
        with timer:
            execute_vectorized(compiled, **kwargs)
        best = min(best, timer.elapsed)
    return best


def test_kernel_engine_artifact():
    compiled = tomcatv_forward(N)
    arrays = collect_arrays(compiled)
    compiled.prepare()
    snap = ArraySnapshot(arrays)
    host = oversubscription(1)

    # Engine throughput.  The first kernel run pays template + plan
    # compilation; warm runs hit the plan cache.
    interp_best = _timed(compiled, snap, REPEATS, engine="interp")
    KERNEL_STATS.reset()
    snap.restore()
    cold_timer = WallTimer()
    with cold_timer:
        execute_vectorized(compiled, engine="kernel")
    kernel_cold = cold_timer.elapsed
    kernel_best = _timed(compiled, snap, REPEATS, engine="kernel")
    kernel_stats = KERNEL_STATS.snapshot()
    with numpy_lowerings():
        numpy_best = _timed(compiled, snap, 1 + REPEATS, engine="kernel")

    # Dispatch cost per pipeline block: interpreted fork-per-run vs a warm
    # persistent pool (one token + one warm dispatch).
    snap.restore()
    dispatch_interp = measure_block_overhead(compiled, engine="interp")
    snap.restore()
    dispatch_kernel = measure_block_overhead(compiled, engine="kernel")
    snap.restore()
    dispatch_pooled = measure_pool_dispatch(compiled)
    snap.restore()

    results = [
        {
            "test": "engine_throughput",
            "n": N,
            "interp_seconds": interp_best,
            "kernel_cold_seconds": kernel_cold,
            "kernel_seconds": kernel_best,
            "kernel_numpy_seconds": numpy_best,
            "kernel_speedup": interp_best / kernel_best,
        },
        {
            "test": "dispatch_per_block",
            "interp_seconds": dispatch_interp,
            "kernel_seconds": dispatch_kernel,
            "pooled_seconds": dispatch_pooled,
            "pooled_reduction": dispatch_interp / max(dispatch_pooled, 1e-12),
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

    # Acceptance criteria — these are the CI gates.
    for label, best in (("kernel", kernel_best), ("numpy kernel", numpy_best)):
        assert best * 2 <= interp_best, (
            f"{label} engine must be >=2x faster than the interpreted engine "
            f"on Tomcatv forward n={N}: {label} {best:.4f}s vs "
            f"interp {interp_best:.4f}s"
        )
    assert kernel_best <= numpy_best * 1.1, (
        f"the default lowering must not lose to the numpy row loop: "
        f"{kernel_best:.4f}s vs {numpy_best:.4f}s"
    )
    assert dispatch_pooled * 5 <= dispatch_interp, (
        f"pooled dispatch must be >=5x cheaper than the interpreted "
        f"per-block dispatch: pooled {dispatch_pooled * 1e3:.3f}ms vs "
        f"interp {dispatch_interp * 1e3:.3f}ms"
    )
