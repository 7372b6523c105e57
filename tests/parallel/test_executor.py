"""The multiprocess backend computes exactly what the sequential engine does.

These are the acceptance tests of the real backend: Tomcatv's forward
elimination under the pipelined and naive schedules, on real OS processes,
must leave every array bit-identical to ``execute_vectorized`` — same
compiled block, same storage, different machine.  Worker counts stay at two
(one test opts into a 2x2 mesh when the host has the cores) so the suite is
CI-safe.
"""

import os

import numpy as np
import pytest

from repro.compiler import compile_scan
from repro.errors import DistributionError, MachineError
from repro.machine import ProcessorGrid
from repro.parallel import ParallelRun, execute
from repro.runtime import execute_vectorized, run_and_capture
from tests.conftest import record_tomcatv_block


def _compiled_tomcatv(n=24):
    block, arrays = record_tomcatv_block(n)
    return compile_scan(block), arrays


def _assert_matches_vectorized(compiled, arrays, **kwargs):
    oracle = run_and_capture(execute_vectorized, compiled, arrays)
    runs: list[ParallelRun] = []

    def engine(c):
        runs.append(execute(c, **kwargs))

    parallel = run_and_capture(engine, compiled, arrays)
    for array, want, got in zip(arrays, oracle, parallel):
        np.testing.assert_array_equal(
            got, want, err_msg=f"array {array.name} diverged under {kwargs}"
        )
    return runs[0]


def test_pipelined_two_procs_identical():
    compiled, arrays = _compiled_tomcatv()
    run = _assert_matches_vectorized(
        compiled, arrays, grid=2, schedule="pipelined", block=4
    )
    assert run.n_procs == 2
    assert run.block_size == 4
    assert run.n_chunks > 1
    assert run.wall_time > 0
    assert len(run.worker_times) == 2


def test_naive_two_procs_identical():
    compiled, arrays = _compiled_tomcatv()
    run = _assert_matches_vectorized(compiled, arrays, grid=2, schedule="naive")
    assert run.schedule == "naive"
    assert run.n_chunks == 1


def test_single_proc_runs_in_real_process():
    compiled, arrays = _compiled_tomcatv(16)
    run = _assert_matches_vectorized(
        compiled, arrays, grid=1, schedule="pipelined", block=16
    )
    assert run.n_procs == 1


def test_grid_accepts_processor_grid_object():
    compiled, arrays = _compiled_tomcatv(16)
    run = _assert_matches_vectorized(
        compiled, arrays, grid=ProcessorGrid((2,)), schedule="pipelined", block=8
    )
    assert run.grid_dims == (2,)


def test_mesh_two_chains_identical():
    # Rank-2 grid: two independent single-stage chains (2 workers total).
    compiled, arrays = _compiled_tomcatv(16)
    run = _assert_matches_vectorized(
        compiled, arrays, grid=(1, 2), schedule="pipelined", block=4
    )
    assert run.grid_dims == (1, 2)


@pytest.mark.skipif((os.cpu_count() or 1) < 4, reason="needs 4 cores")
def test_mesh_2x2_identical():
    compiled, arrays = _compiled_tomcatv(20)
    run = _assert_matches_vectorized(
        compiled, arrays, grid=(2, 2), schedule="pipelined", block=3
    )
    assert run.n_procs == 4


def test_backward_wavefront_reversed_chain():
    # The south->north solve exercises the reversed processor chain.
    from repro import zpl

    n = 18
    rng = np.random.default_rng(3)
    base = zpl.Region.square(1, n)
    a = zpl.ZArray(base, name="a")
    a.load(rng.uniform(0.5, 1.5, size=base.shape))
    with zpl.covering(zpl.Region.of((2, n - 1), (2, n - 1))):
        with zpl.scan(execute=False) as block:
            a[...] = 0.5 * a + 0.25 * (a.p @ zpl.SOUTH)
    compiled = compile_scan(block)
    _assert_matches_vectorized(compiled, [a], grid=2, schedule="pipelined", block=5)


def test_rejects_bad_arguments():
    compiled, arrays = _compiled_tomcatv(12)
    with pytest.raises(MachineError):
        execute(compiled, grid=2, schedule="transpose")
    with pytest.raises(MachineError):
        execute(compiled, grid=2, block=0)
    with pytest.raises(MachineError):
        execute(compiled, grid=(1, 1, 2))


def test_mesh_rejects_coupled_chunk_dimension():
    # A block whose chunk dimension carries a dependence cannot be meshed.
    from repro import zpl

    n = 12
    base = zpl.Region.square(1, n)
    a = zpl.ZArray(base, name="a", fluff=2)
    a.fill(1.0)
    with zpl.covering(zpl.Region.square(3, n - 1)):
        with zpl.scan(execute=False) as block:
            a[...] = 0.3 * (a.p @ (-1, 0)) + 0.2 * (a.p @ (0, -1)) + 0.1
    compiled = compile_scan(block)
    with pytest.raises(DistributionError):
        execute(compiled, grid=(2, 1), schedule="pipelined", block=2)


def test_worker_failure_raises_instead_of_hanging():
    # Sabotage the pickled payload via a statement reading outside storage:
    # build a block whose shifted read exceeds the fluff, which only explodes
    # at execution time inside the workers.
    from repro import zpl

    n = 10
    base = zpl.Region.square(1, n)
    a = zpl.ZArray(base, name="a", fluff=1)
    a.fill(1.0)
    with zpl.covering(zpl.Region.square(4, n - 1)):
        with zpl.scan(execute=False) as block:
            a[...] = 0.5 * (a.p @ (-5, 0)) + 0.1
    compiled = compile_scan(block)
    with pytest.raises(MachineError, match="worker"):
        execute(compiled, grid=2, schedule="pipelined", block=4, timeout=30.0)


def test_killed_forked_worker_raises_typed_error_fast(monkeypatch):
    # A worker SIGKILLed mid-run never reports.  The collector must notice
    # the dead process within a couple of poll slices — not after the 60 s
    # timeout the caller passed — and tear every shared segment down.
    # (Thousands of one-column blocks keep the pipeline busy for seconds;
    # the suite-wide sanitize/certify CI knobs would spend those on checks.)
    monkeypatch.delenv("REPRO_CERTIFY", raising=False)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    import multiprocessing
    import signal
    import threading
    import time

    from repro import zpl
    from repro.obs import Tracer

    if not os.path.isdir("/dev/shm"):
        pytest.skip("needs /dev/shm to observe leaked segments")
    rows, cols = 64, 10000  # one column per block: seconds of pipeline
    a = zpl.ZArray(zpl.Region.of((1, rows), (1, cols)), name="a")
    a.fill(0.5)
    with zpl.covering(zpl.Region.of((2, rows), (1, cols))):
        with zpl.scan(execute=False) as block:
            a[...] = 0.9 * (a.p @ zpl.NORTH) + 0.1
    compiled = compile_scan(block)
    segments = set(os.listdir("/dev/shm"))
    tracer = Tracer()
    outcome = {}

    def run():
        try:
            execute(
                compiled, grid=2, schedule="pipelined", block=1,
                timeout=60.0, tracer=tracer,
            )
        except BaseException as exc:
            outcome["error"] = exc
        outcome["at"] = time.monotonic()

    thread = threading.Thread(target=run)
    thread.start()
    deadline = time.monotonic() + 30.0
    # The parent's barrier span closes once every worker is in its loop.
    while not any(s.name == "barrier" for s in list(tracer.spans)):
        assert time.monotonic() < deadline, "workers never met the barrier"
        time.sleep(0.001)
    (victim,) = [
        p for p in multiprocessing.active_children()
        if p.name == "repro-worker-1"
    ]
    os.kill(victim.pid, signal.SIGKILL)
    killed_at = time.monotonic()
    thread.join(timeout=30.0)
    assert not thread.is_alive()
    assert isinstance(outcome.get("error"), MachineError), outcome
    assert "died" in str(outcome["error"])
    assert outcome["at"] - killed_at < 5.0
    assert set(os.listdir("/dev/shm")) <= segments
