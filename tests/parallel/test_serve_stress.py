"""Concurrent submissions are safe: plan LRU + plan-entry reuse.

The serving layer submits batches from threads; two batches with the same
fingerprint in flight must not interleave the pool's fingerprint-keyed plan
cache or its runs.  ``execute()`` serialises behind the pool's submission
lock — these tests hammer that path from many threads and check the caches
stayed consistent and the pool healthy.
"""

import threading

import numpy as np

from repro.compiler import compile_scan
from repro.parallel import WorkerPool
from repro.runtime import execute_vectorized, run_and_capture
from tests.conftest import record_tomcatv_block


def _compiled(n=16):
    block, arrays = record_tomcatv_block(n)
    return compile_scan(block), arrays


def _hammer(threads, n_threads=4):
    errors = []

    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException as exc:  # re-raised in the main thread
                errors.append(exc)
        return run

    workers = [threading.Thread(target=wrap(fn)) for fn in threads]
    for t in workers:
        t.start()
    for t in workers:
        t.join(timeout=120)
    return errors


def test_concurrent_same_fingerprint_submissions():
    compiled, arrays = _compiled()
    with WorkerPool(2, timeout=60.0) as pool:
        def submit():
            for _ in range(4):
                pool.execute(compiled, block=4)

        errors = _hammer([submit] * 4)
        assert not errors, errors
        assert not pool.broken
        # One fingerprint: a single miss + blob build, everything after
        # reuses the same cached entry — no duplicate shipping.
        assert pool.stats["executes"] == 16
        assert pool.stats["plan_misses"] == 1
        assert pool.stats["plan_hits"] == 15
        assert pool.stats["blobs_shipped"] == 2  # one per worker, ever

        # The caches survived the stampede: from the arrays' current state,
        # a pooled run still matches the sequential engine bit-for-bit.
        oracle = run_and_capture(execute_vectorized, compiled, arrays)

        def engine(c):
            pool.execute(c, block=4)

        pooled = run_and_capture(engine, compiled, arrays)
        for want, got in zip(oracle, pooled):
            np.testing.assert_array_equal(got, want)


def test_concurrent_mixed_fingerprint_submissions():
    c1, _ = _compiled(16)
    c2, _ = _compiled(20)
    with WorkerPool(2, timeout=60.0) as pool:
        def submit_1():
            for _ in range(3):
                pool.execute(c1, block=4)

        def submit_2():
            for _ in range(3):
                pool.execute(c2, block=4)

        errors = _hammer([submit_1, submit_2, submit_1, submit_2])
        assert not errors, errors
        assert not pool.broken
        assert pool.stats["executes"] == 12
        assert pool.stats["plan_misses"] == 2  # one per distinct fingerprint
        assert pool.stats["plan_hits"] == 10
