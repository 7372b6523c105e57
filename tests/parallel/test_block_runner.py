"""The per-block dispatch both worker loops share: one ``PlanRunner`` per job.

``block_loop`` and ``taskgraph_loop`` run every block through
:meth:`repro.runtime.kernels.PlanRunner.run_block`: the plan family and the
native kernel are resolved once per job, and a block costs one plan-cache
lookup plus its kernel — no ``Region`` intersection and no
``execute_vectorized`` call.  These tests drive both loops in-process (one
rank, no fabric) and pin what that hoisting must keep: bit-identity with the
loop-nest oracle, a rebind after storage moves, and the task-graph
scheduler's idle accounting.
"""

import multiprocessing as mp
import time

import pytest

from repro.compiler import compile_scan
from repro.obs.trace import NULL_TRACER, Tracer
from repro.parallel.plan import resolve_run
from repro.parallel.taskgraph import TaskgraphState, make_locks, taskgraph_loop
from repro.parallel.worker import PipeSync, block_loop
from repro.runtime import execute_loopnest, kernels, run_and_capture
from repro.runtime.kernels import KERNEL_STATS, PlanRunner
from repro.zpl.regions import Region
from tests.conftest import record_tomcatv_block
from tests.parallel.test_taskgraph import _banded_program


def _tomcatv(n=16):
    block, arrays = record_tomcatv_block(n)
    return compile_scan(block), list(arrays)


def _block_loop(compiled, tracer=NULL_TRACER):
    """One rank running every pipeline block of ``compiled`` (planned now,
    run by each call of the returned function)."""
    run_plan = resolve_run(compiled, 1, schedule="pipelined", block=3, static=True)
    plan = run_plan.wavefront

    def run(c):
        stats = {}
        block_loop(
            PlanRunner(c), run_plan.chunks_by_rank[0],
            PipeSync(None, None, 30.0, None), tracer,
            plan.chunk_dim, plan.boundary_rows, stats,
        )
        return stats

    return run


def _taskgraph_loop(compiled, tracer=NULL_TRACER, before=None):
    """One rank running the whole task graph of ``compiled``;
    ``before(state)`` may touch each run's fresh segment first."""
    graph = resolve_run(
        compiled, 1, schedule="taskgraph", block=4, static=True
    ).graph

    def run(c):
        state = TaskgraphState(graph, 1)
        try:
            if before is not None:
                before(state)
            stats = {}
            taskgraph_loop(
                PlanRunner(c), state.spec(graph, 1, False),
                make_locks(mp.get_context(), 1), 0, 30.0, tracer, stats,
            )
            return stats
        finally:
            state.release()

    return run


LOOPS = {"block_loop": _block_loop, "taskgraph_loop": _taskgraph_loop}


def _assert_matches_loopnest(compiled, arrays, run):
    oracle = run_and_capture(execute_loopnest, compiled, arrays)
    got = run_and_capture(run, compiled, arrays)
    for array, want, have in zip(arrays, oracle, got):
        assert have.tobytes() == want.tobytes(), f"array {array.name}"


def test_rebound_storage_reinstantiates():
    compiled, arrays = _tomcatv()
    chunks = resolve_run(
        compiled, 1, schedule="pipelined", block=3, static=True
    ).chunks_by_rank[0]
    runner = PlanRunner(compiled)

    def run(c):
        for chunk in chunks:
            runner.run_block(chunk)

    _assert_matches_loopnest(compiled, arrays, run)
    for array in arrays:  # what attaching shared memory does to a block
        array._data = array._data.copy()
    KERNEL_STATS.reset()
    _assert_matches_loopnest(compiled, arrays, run)
    assert KERNEL_STATS.plan_invalidations == KERNEL_STATS.plan_builds == len(chunks)
    _assert_matches_loopnest(compiled, arrays, run)
    assert KERNEL_STATS.plan_hits == len(chunks)  # rebound once, then warm


@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_warm_kernel_path_neither_intersects_nor_interprets(loop, monkeypatch):
    compiled, _ = _banded_program()
    run = LOOPS[loop](compiled)
    run(compiled)  # cold: templates and plans built
    counts = {"intersect": 0, "execute_vectorized": 0}
    intersect = Region.intersect

    def counting_intersect(self, other):
        counts["intersect"] += 1
        return intersect(self, other)

    def counting_execute(*args, **kwargs):
        counts["execute_vectorized"] += 1

    monkeypatch.setattr(Region, "intersect", counting_intersect)
    monkeypatch.setattr(kernels, "execute_vectorized", counting_execute)
    stats = run(compiled)
    assert stats["blocks"] > 1
    assert counts == {"intersect": 0, "execute_vectorized": 0}


def test_taskgraph_wait_is_the_time_actually_slept(monkeypatch):
    """A 50 µs sleep takes longer on a busy host: ``stats["wait"]`` and the
    idle span must report what was slept, not what was asked for."""
    compiled, arrays = _banded_program()
    real_sleep = time.sleep
    overshoot = 3e-3
    asked = []
    holder = {}

    def hide_roots(state):  # every deque empty until a "peer" releases
        holder["views"] = state._views
        state._views.head[0] = state._views.tail[0]

    def slow_sleep(seconds):
        asked.append(seconds)
        real_sleep(seconds + overshoot)
        if len(asked) == 3:
            holder["views"].head[0] = 0  # the roots become poppable again

    tracer = Tracer(proc=0)
    loop = _taskgraph_loop(compiled, tracer, before=hide_roots)
    monkeypatch.setattr(time, "sleep", slow_sleep)
    results = {}
    _assert_matches_loopnest(
        compiled, arrays, lambda c: results.update(loop(c))
    )
    assert len(asked) == 3
    assert results["wait"] >= 3 * overshoot > 10 * sum(asked)
    idle = [s for s in tracer.spans if s.name == "recv_wait"]
    assert len(idle) == 1  # one span per idle stretch, not per poll
    assert idle[0].args["schedule"] == "taskgraph"
    assert idle[0].duration >= results["wait"]


def test_taskgraph_run_with_no_idle_time_emits_no_idle_span():
    compiled, _ = _banded_program()
    tracer = Tracer(proc=0)
    stats = _taskgraph_loop(compiled, tracer)(compiled)
    assert stats["wait"] == 0.0
    assert not [s for s in tracer.spans if s.name == "recv_wait"]
    compute = [s for s in tracer.spans if s.name == "compute"]
    assert len(compute) == stats["tasks"]
    assert sum(s.args["elements"] for s in compute) == stats["elements"]
