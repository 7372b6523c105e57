"""The shared run plan and parent-side driver (``repro.parallel.plan``).

One :class:`RunPlan` feeds both process lifecycles, so what they report
about a run must agree key for key; the collector they share is unit-tested
here against a plain ``queue.Queue`` — no processes involved.
"""

import queue

import numpy as np
import pytest

from repro import zpl
from repro.compiler import compile_scan
from repro.errors import MachineError, PoolBrokenError, SanitizerError
from repro.machine import (
    CRAY_T3E,
    naive_wavefront,
    pipelined_wavefront,
    pipelined_wavefront_mesh,
)
from repro.obs import NULL_TRACER, Tracer
from repro.parallel import WorkerPool, execute
from repro.parallel.plan import RunResources, collect, finish, resolve_run
from repro.zpl import NORTH, Region


def _single_stream(n=32):
    a = zpl.ZArray(Region.square(1, n), name="a")
    rng = np.random.default_rng(5)
    a.load(rng.uniform(0.2, 1.0, size=(n, n)))
    with zpl.covering(Region.of((2, n), (1, n))):
        with zpl.scan(execute=False) as block:
            a[...] = 0.9 * (a.p @ NORTH) + 0.1
    return compile_scan(block)


def _ok(seq=None, **stats):
    return {"seq": seq, "elapsed": 0.5, "events": None, "stats": stats}


def _error(kind, detail, seq=None):
    return {"seq": seq, "error": kind, "detail": detail, "flight": None}


# ---------------------------------------------------------------------------
# The collector, on a plain queue.
# ---------------------------------------------------------------------------
def test_collect_gathers_one_report_per_rank_and_skips_stale_ones():
    run_plan = resolve_run(_single_stream(), 2, block=8, static=True)
    results = queue.Queue()
    results.put(("ok", 0, _ok(seq=6, busy=9.0)))  # a failed run's leftover
    results.put(("ok", 1, _ok(seq=7, busy=2.0)))
    results.put(("ok", 0, _ok(seq=7, busy=1.0)))
    outcomes, stats = collect(
        results, run_plan, 5.0, NULL_TRACER, dead_ranks=list, seq=7
    )
    assert outcomes == {0: 0.5, 1: 0.5}
    assert stats == {0: {"busy": 1.0}, 1: {"busy": 2.0}}


def test_collect_classifies_errors_by_type_not_by_text():
    run_plan = resolve_run(_single_stream(), 2, block=8, static=True)
    results = queue.Queue()
    # A plain failure whose traceback merely *mentions* the sanitizer.
    results.put(
        ("error", 1, _error("MachineError", "while handling SanitizerError"))
    )
    with pytest.raises(MachineError, match="worker 1 failed") as info:
        collect(results, run_plan, 5.0, NULL_TRACER, dead_ranks=list)
    assert not isinstance(info.value, SanitizerError)
    results.put(("error", 0, _error("SanitizerError", "wavefront race: ...")))
    with pytest.raises(SanitizerError, match="worker 0 detected"):
        collect(results, run_plan, 5.0, NULL_TRACER, dead_ranks=list)
    # The pool's flavour of "a worker failed" is its own typed error.
    results.put(("error", 0, _error("ValueError", "boom")))
    with pytest.raises(PoolBrokenError, match="boom"):
        collect(
            results, run_plan, 5.0, NULL_TRACER,
            dead_ranks=list, broken=PoolBrokenError,
        )


def test_collect_notices_a_dead_rank_long_before_the_timeout():
    run_plan = resolve_run(_single_stream(), 2, block=8, static=True)
    results = queue.Queue()
    results.put(("ok", 0, _ok()))
    with pytest.raises(MachineError, match=r"\[1\] died"):
        collect(results, run_plan, 60.0, NULL_TRACER, dead_ranks=lambda: [0, 1])


def test_finish_cross_checks_the_sanitizer_clocks():
    run_plan = resolve_run(
        _single_stream(), 2, schedule="pipelined", block=8, sanitize=True
    )
    n = run_plan.n_chunks
    outcomes = {0: 0.1, 1: 0.2}
    good = {0: {"clocks": [n, 0]}, 1: {"clocks": [n, n]}}
    run = finish(run_plan, outcomes, good, 0.0, NULL_TRACER)
    assert run.wall_time == 0.2 and run.n_chunks == n
    short = {0: {"clocks": [n, 0]}, 1: {"clocks": [n, n - 1]}}
    with pytest.raises(SanitizerError, match=f"worker 1 retired {n - 1} of {n}"):
        finish(run_plan, outcomes, short, 0.0, NULL_TRACER)


# ---------------------------------------------------------------------------
# Both lifecycles describe a run with the same words.
# ---------------------------------------------------------------------------
TASKGRAPH_KEYS = {"oversub", "n_tasks", "n_pruned", "n_edges", "steals"}


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(schedule="naive"),
        dict(schedule="pipelined", block=8, multicast=False),
        dict(schedule="pipelined", block=8, multicast=True),
        dict(schedule="taskgraph", block=8),
    ],
    ids=["naive", "pipes", "multicast", "taskgraph"],
)
def test_trace_meta_has_the_same_keys_on_fork_and_pool(kwargs):
    compiled = _single_stream()
    forked = execute(compiled, grid=2, tracer=Tracer(), timeout=60.0, **kwargs)
    with WorkerPool(2, timeout=60.0) as pool:
        pooled = pool.execute(compiled, tracer=Tracer(), **kwargs)
    fork_meta, pool_meta = forked.trace.meta, pooled.trace.meta
    assert set(pool_meta) - set(fork_meta) == {"pool"}
    assert set(fork_meta) <= set(pool_meta)
    assert pool_meta["pool"] is True
    for key in ("pipeline_procs", "boundary_rows", "halo_rows", "fabric", "fanout"):
        assert key in fork_meta
    assert TASKGRAPH_KEYS & set(fork_meta) == (
        TASKGRAPH_KEYS if kwargs["schedule"] == "taskgraph" else set()
    )
    static = set(fork_meta) - {"wall_time", "setup_time", "steals"}
    assert {k: fork_meta[k] for k in static} == {k: pool_meta[k] for k in static}


def test_jobs_carry_the_plan_chunks_verbatim():
    run_plan = resolve_run(_single_stream(), 2, block=8, static=True)
    resources = RunResources(run_plan)
    try:
        for rank in run_plan.grid:
            job = resources.job(rank, None, 1.0, False)
            assert job.chunks is run_plan.chunks_by_rank[rank]
    finally:
        resources.release()


# ---------------------------------------------------------------------------
# Simulated is what runs: one geometry under the virtual clock, the fork
# executor and the pool.
# ---------------------------------------------------------------------------
def _computed_blocks(spans, rank):
    """One rank's ``(block, elements)`` sequence, in the order it ran."""
    mine = sorted(
        (s for s in spans if s.proc == rank and s.name == "compute"),
        key=lambda s: s.start,
    )
    return [(s.args["block"], int(s.args["elements"])) for s in mine]


@pytest.mark.parametrize("grid", [2, (2, 1), (1, 2)], ids=str)
@pytest.mark.parametrize("schedule", ["naive", "pipelined"])
def test_simulator_and_both_executors_run_the_plan_chunks(schedule, grid):
    compiled = _single_stream()
    kwargs = dict(schedule=schedule, block=8, multicast=False)
    run_plan = resolve_run(compiled, grid, static=True, **kwargs)
    planned = {
        rank: [(k, c.size) for k, c in enumerate(chunks) if not c.is_empty()]
        for rank, chunks in run_plan.chunks_by_rank.items()
    }
    assert sum(size for blocks in planned.values() for _k, size in blocks) == (
        compiled.region.size
    )

    simulated = Tracer()
    options = dict(compute_values=False, tracer=simulated)
    if isinstance(grid, tuple):
        # Naive on a mesh is the pipelined mesh at full width.
        width = 8 if schedule == "pipelined" else run_plan.wavefront.cols
        pipelined_wavefront_mesh(compiled, CRAY_T3E, grid, width, **options)
    elif schedule == "naive":
        naive_wavefront(compiled, CRAY_T3E, grid, **options)
    else:
        pipelined_wavefront(compiled, CRAY_T3E, grid, 8, **options)

    forked = execute(compiled, grid=grid, tracer=Tracer(), timeout=60.0, **kwargs)
    with WorkerPool(grid, timeout=60.0) as pool:
        pooled = pool.execute(compiled, tracer=Tracer(), **kwargs)

    for rank in run_plan.grid:
        assert _computed_blocks(simulated.spans, rank) == planned[rank]
        assert _computed_blocks(forked.trace.spans, rank) == planned[rank]
        assert _computed_blocks(pooled.trace.spans, rank) == planned[rank]
