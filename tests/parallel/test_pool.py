"""The persistent worker pool computes what the executor computes — faster.

Acceptance tests for :mod:`repro.parallel.pool`: pooled runs must be
bit-identical to ``execute_vectorized``, plans must ship to each worker at
most once, workers must see the arrays' current values between runs (they
map the arrays' own storage), and the lifecycle (close, broken, context
manager) must be unsurprising.  Worker counts stay at two so the suite is
CI-safe.
"""

import os
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro import zpl
from repro.compiler import compile_scan
from repro.errors import MachineError
from repro.obs import Tracer
from repro.parallel import WorkerPool, execute, shared_pool
from repro.parallel.pool import PLAN_ENTRY_CAP, close_pools
from repro.zpl.storage import handle
from repro.runtime import execute_vectorized, run_and_capture
from tests.conftest import record_tomcatv_block


def _compiled_tomcatv(n=24):
    block, arrays = record_tomcatv_block(n)
    return compile_scan(block), arrays


def _assert_pool_matches_vectorized(pool, compiled, arrays, **kwargs):
    oracle = run_and_capture(execute_vectorized, compiled, arrays)
    runs = []

    def engine(c):
        runs.append(pool.execute(c, **kwargs))

    pooled = run_and_capture(engine, compiled, arrays)
    for array, want, got in zip(arrays, oracle, pooled):
        np.testing.assert_array_equal(
            got, want, err_msg=f"array {array.name} diverged under {kwargs}"
        )
    return runs[0]


def test_pooled_pipelined_identical():
    compiled, arrays = _compiled_tomcatv()
    with WorkerPool(2) as pool:
        run = _assert_pool_matches_vectorized(
            pool, compiled, arrays, block=4
        )
        assert run.n_procs == 2
        assert run.block_size == 4
        assert run.n_chunks > 1
        assert len(run.worker_times) == 2


def test_pooled_naive_identical():
    compiled, arrays = _compiled_tomcatv()
    with WorkerPool(2) as pool:
        run = _assert_pool_matches_vectorized(
            pool, compiled, arrays, schedule="naive"
        )
        assert run.schedule == "naive"
        assert run.n_chunks == 1


def test_pooled_backward_wavefront():
    # A SOUTH-primed scan walks rows bottom-up: exercises the second
    # (descending) token fabric of the same pool.
    n = 16
    base = zpl.Region.square(1, n)
    a = zpl.ZArray(base, name="a")
    a.fill(1.0)
    with zpl.covering(zpl.Region.of((1, n - 1), (1, n))):
        with zpl.scan(execute=False) as block:
            a[...] = 0.5 * (a.p @ zpl.SOUTH) + 0.25
    compiled = compile_scan(block)
    with WorkerPool(2) as pool:
        _assert_pool_matches_vectorized(pool, compiled, arrays=[a], block=4)


def test_reuse_ships_blob_once():
    compiled, arrays = _compiled_tomcatv(16)
    with WorkerPool(2) as pool:
        for _ in range(3):
            _assert_pool_matches_vectorized(pool, compiled, arrays, block=4)
        assert pool.stats["executes"] == 3
        assert pool.stats["plan_misses"] == 1
        assert pool.stats["plan_hits"] == 2
        # one blob per worker, ever
        assert pool.stats["blobs_shipped"] == 2


def test_refresh_sees_current_values():
    # Change the inputs between runs: the reused segments must be refreshed,
    # so the pooled result tracks the sequential engine run-for-run.
    compiled, arrays = _compiled_tomcatv(16)
    rng = np.random.default_rng(17)
    with WorkerPool(2) as pool:
        for _ in range(2):
            _assert_pool_matches_vectorized(pool, compiled, arrays, block=4)
            arrays[0]._data[...] = rng.uniform(
                0.5, 1.5, size=arrays[0]._data.shape
            )


def test_two_plans_cached_independently():
    c1, a1 = _compiled_tomcatv(16)
    c2, a2 = _compiled_tomcatv(20)
    with WorkerPool(2) as pool:
        _assert_pool_matches_vectorized(pool, c1, a1, block=4)
        _assert_pool_matches_vectorized(pool, c2, a2, block=4)
        _assert_pool_matches_vectorized(pool, c1, a1, block=4)
        assert pool.stats["plan_misses"] == 2
        assert pool.stats["plan_hits"] == 1


def test_executor_delegates_to_pool():
    compiled, arrays = _compiled_tomcatv(16)
    oracle = run_and_capture(execute_vectorized, compiled, arrays)
    with WorkerPool(2) as pool:
        def engine(c):
            execute(c, schedule="pipelined", block=4, pool=pool)

        pooled = run_and_capture(engine, compiled, arrays)
        for want, got in zip(oracle, pooled):
            np.testing.assert_array_equal(got, want)
        assert pool.stats["executes"] == 1


def test_executor_rejects_conflicting_grid():
    compiled, _ = _compiled_tomcatv(16)
    with WorkerPool(2) as pool:
        with pytest.raises(MachineError, match="conflicts"):
            execute(compiled, grid=3, pool=pool)


def test_closed_pool_raises():
    compiled, _ = _compiled_tomcatv(16)
    pool = WorkerPool(2)
    pool.close()
    assert pool.closed
    with pytest.raises(MachineError, match="closed"):
        pool.execute(compiled)
    pool.close()  # idempotent


def test_worker_failure_breaks_pool():
    # A shifted read beyond the fluff only explodes inside the workers; the
    # pool must surface it as a MachineError and refuse further runs.
    n = 10
    base = zpl.Region.square(1, n)
    a = zpl.ZArray(base, name="a", fluff=1)
    a.fill(1.0)
    with zpl.covering(zpl.Region.square(4, n - 1)):
        with zpl.scan(execute=False) as block:
            a[...] = 0.5 * (a.p @ (-5, 0)) + 0.1
    compiled = compile_scan(block)
    pool = WorkerPool(2, timeout=30.0)
    try:
        with pytest.raises(MachineError, match="worker") as failure:
            pool.execute(compiled, block=4, timeout=30.0)
        assert "arrays possibly left partly written: a" in str(failure.value)
        assert pool.broken
        good, _ = _compiled_tomcatv(12)
        with pytest.raises(MachineError, match="broken"):
            pool.execute(good)
    finally:
        pool.close()


def test_pool_reuse_span_recorded():
    compiled, arrays = _compiled_tomcatv(16)
    with WorkerPool(2) as pool:
        pool.execute(compiled, block=4, tracer=Tracer())
        tracer = Tracer()
        run = pool.execute(compiled, block=4, tracer=tracer)
        names = {s.name for s in tracer.spans}
        assert "pool_reuse" in names      # storage checked, not re-shared
        assert "share" not in names       # nothing was re-shared
        assert "compute" in names         # worker spans rode home
        assert run.trace.meta["pool"] is True
        assert run.trace.counter_total("pool_plan_hits") >= 2  # one per worker
        assert tracer.counters[(-1, "pool_plan_hits")] == 1   # parent-side


def test_shared_pool_caches_and_replaces():
    try:
        p1 = shared_pool(2)
        assert shared_pool(2) is p1
        p1.close()
        p2 = shared_pool(2)
        assert p2 is not p1
        assert not p2.closed
    finally:
        close_pools()


def test_rebind_to_born_shared_storage_reships():
    compiled, arrays = _compiled_tomcatv(16)
    with WorkerPool(2) as pool:
        _assert_pool_matches_vectorized(pool, compiled, arrays, block=4)
        d = arrays[1]
        d._data = d.copy_like()._data  # new storage, allocated by a ZArray
        _assert_pool_matches_vectorized(pool, compiled, arrays, block=4)
        assert pool.stats["plan_misses"] == 2
        assert pool.stats["blobs_shipped"] == 4


def test_rebind_to_private_storage_is_refused_by_name():
    compiled, arrays = _compiled_tomcatv(16)
    with WorkerPool(2) as pool:
        pool.execute(compiled, block=4)
        d = arrays[1]
        d._data = d._data.copy()
        with pytest.raises(MachineError, match="array 'd' has private storage"):
            pool.execute(compiled, block=4)
        assert not pool.broken


def _mapped_inodes(pid: int) -> set[int]:
    with open(f"/proc/{pid}/maps") as maps:
        return {int(line.split()[4]) for line in maps}


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_evicted_block_is_unmapped_in_every_worker():
    with WorkerPool(2) as pool:
        blocks = [_compiled_tomcatv(12) for _ in range(PLAN_ENTRY_CAP + 1)]
        for compiled, _ in blocks:
            pool.execute(compiled, block=4)
        inodes = [
            {os.fstat(handle(a._data)[0]).st_ino for a in arrays}
            for _, arrays in (blocks[0], blocks[-1])
        ]
        for proc in pool._procs:
            mapped = _mapped_inodes(proc.pid)
            assert not inodes[0] & mapped   # evicted: gone
            assert inodes[1] <= mapped      # cached: still mapped


def test_array_storage_creates_no_dev_shm_segment(monkeypatch):
    # Only the scheduler, shadow and fabric state are segments; a plain
    # pipelined run, pooled or forked, makes none at all.
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    made = []
    real = shared_memory.SharedMemory.__init__

    def spy(self, *args, **kwargs):
        real(self, *args, **kwargs)
        made.append(self.name)

    with WorkerPool(2) as pool:
        monkeypatch.setattr(shared_memory.SharedMemory, "__init__", spy)
        compiled, arrays = _compiled_tomcatv(16)
        _assert_pool_matches_vectorized(
            pool, compiled, arrays, block=4, multicast=False
        )
        execute(compiled, grid=2, block=4, multicast=False, timeout=30.0)
    assert made == []
