"""Lifecycle robustness: a dead worker costs one request, not the process.

Regression tests for the serving-layer contract of
:mod:`repro.parallel.pool`: a worker killed out from under the pool must
surface as the typed :class:`~repro.errors.PoolBrokenError` on the affected
submission only, flag the pool broken, and — through
:class:`~repro.parallel.PoolSupervisor` — be transparently replaced before
the next submission.
"""

import os
import signal

import numpy as np
import pytest

from repro.compiler import compile_scan
from repro.errors import MachineError, PoolBrokenError
from repro.parallel import PoolSupervisor, WorkerPool
from repro.runtime import execute_vectorized, run_and_capture
from tests.conftest import record_tomcatv_block


def _compiled(n=16):
    block, arrays = record_tomcatv_block(n)
    return compile_scan(block), arrays


def _kill_worker(pool, index=0):
    proc = pool._procs[index]
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=10)
    assert not proc.is_alive()


def test_pool_broken_error_is_typed_machine_error():
    # Typed for the server's error mapping, MachineError for old callers.
    assert issubclass(PoolBrokenError, MachineError)


def test_killed_worker_fails_fast_with_typed_error():
    compiled, arrays = _compiled()
    pool = WorkerPool(2, timeout=30.0)
    try:
        pool.execute(compiled, block=4)  # healthy warm-up run
        _kill_worker(pool)
        with pytest.raises(PoolBrokenError, match="died") as failure:
            pool.execute(compiled, block=4)
        assert "r, d, rx, ry are untouched" in str(failure.value)
        assert pool.broken
        # Later callers keep getting the typed error, not a hang.
        with pytest.raises(PoolBrokenError, match="broken"):
            pool.execute(compiled, block=4)
    finally:
        pool.close()


def test_supervisor_respawns_after_worker_death():
    compiled, arrays = _compiled()
    with PoolSupervisor(2, timeout=30.0) as sup:
        sup.submit(compiled, block=4)  # builds the pool lazily
        _kill_worker(sup.pool, index=1)
        # Only the in-flight submission observes the failure (the arrays are
        # untouched: the dead worker is noticed before dispatch)...
        with pytest.raises(PoolBrokenError):
            sup.submit(compiled, block=4)
        # ...and the next one runs on a fresh pool, bit-identical again.
        oracle = run_and_capture(execute_vectorized, compiled, arrays)
        def engine(c):
            sup.submit(c, block=4)

        pooled = run_and_capture(engine, compiled, arrays)
        for want, got in zip(oracle, pooled):
            np.testing.assert_array_equal(got, want)
        assert sup.respawns == 1
        assert not sup.pool.broken


def test_supervisor_close_is_terminal():
    sup = PoolSupervisor(2)
    sup.close()
    compiled, _ = _compiled(12)
    with pytest.raises(MachineError, match="closed"):
        sup.submit(compiled)
    sup.close()  # idempotent
