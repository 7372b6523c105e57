"""``schedule="taskgraph"``: DAG derivation, stealing execution, sanitizing.

Four layers, mirroring the feature:

* **DAG unit tests** — :func:`~repro.compiler.taskdag.derive_taskgraph` on
  real compiled blocks, no processes: traversal-order acyclicity, edge
  counts, home-rank assignment, and dead-tile pruning soundness on a
  banded (masked) program.
* **Execution tests** — the fork-per-run executor and the persistent pool
  must leave every array bit-identical to ``execute_vectorized``, including
  the rank-1 chain the pipelined schedule refuses, and with pruning active.
* **The pool's plan cache** — a warm call reuses its ``RunPlan``, re-checks
  only tile liveness against the masks' current values, re-plans when a
  knob changes, certifies once per plan, and lets an evicted block go.
* **Sanitizer interop** — a clean sanitized run stays bit-identical; the
  injected ``early-fire`` protocol fault is caught deterministically.
"""

import gc
import os
import weakref

import numpy as np
import pytest

from repro import zpl
from repro.analyze import certify as certify_module
from repro.analyze.sanitizer import parse_inject
from repro.compiler import compile_scan
from repro.compiler.schedule import _build_distribution, plan_wavefront
from repro.compiler.taskdag import derive_taskgraph, reprune
from repro.errors import CertifyError, DistributionError, MachineError, SanitizerError
from repro.parallel import WorkerPool, execute
from repro.parallel.plan import _as_grid
from repro.parallel.pool import PLAN_ENTRY_CAP
from repro.runtime import execute_loopnest, execute_vectorized, run_and_capture
from repro.runtime.kernels import plan_fingerprint
from tests.conftest import record_tomcatv_block

BAND = 3


def _compiled_tomcatv(n=24):
    block, arrays = record_tomcatv_block(n)
    return compile_scan(block), arrays


def _band(n, band):
    return np.fromfunction(
        lambda i, j: (np.abs(i - j) <= band).astype(float), (n, n)
    )


def _banded_program(n=24, band=BAND):
    """A masked wavefront recurrence: live only within ``|i - j| <= band``."""
    base = zpl.Region.square(1, n)
    a = zpl.ZArray(base, name="a", fluff=2)
    a._data[...] = 0.5
    mask = zpl.ZArray(base, name="m", fluff=2)
    mask._data[...] = 0.0
    mask.load(_band(n, band))
    region = zpl.Region.of((2, n), (1, n))
    with zpl.covering(region), zpl.masked(mask):
        with zpl.scan(execute=False) as block:
            a[...] = 0.2 + 0.45 * (a.p @ (-1, 0)) + 0.3 * (a.p @ (-1, -1))
    return compile_scan(block), [a, mask]


def _derive(compiled, n_ranks=2, oversub=3, block_size=4, **kwargs):
    plan = plan_wavefront(compiled)
    grid = _as_grid(n_ranks)
    dist = _build_distribution(plan, grid)
    locals_by_rank = [dist.local_region(rank) for rank in grid]
    return derive_taskgraph(
        compiled, plan, locals_by_rank, oversub, block_size, **kwargs
    )


def _assert_matches_vectorized(compiled, arrays, **kwargs):
    oracle = run_and_capture(execute_vectorized, compiled, arrays)
    runs = []
    parallel = run_and_capture(
        lambda c: runs.append(execute(c, **kwargs)), compiled, arrays
    )
    for array, want, got in zip(arrays, oracle, parallel):
        np.testing.assert_array_equal(
            got, want, err_msg=f"array {array.name} diverged under {kwargs}"
        )
    return runs[0]


# ---------------------------------------------------------------------------
# DAG derivation (no processes).
# ---------------------------------------------------------------------------
def test_taskgraph_shape_edges_and_acyclicity():
    compiled, _ = _compiled_tomcatv()
    graph = _derive(compiled)
    assert graph.n_live == graph.n_wave * graph.n_chunk  # nothing masked
    assert graph.n_pruned == 0
    assert graph.n_edges == sum(len(p) for p in graph.preds)
    assert graph.n_edges == sum(len(s) for s in graph.succs)
    assert graph.roots  # something must be fireable at t=0
    assert all(0 <= home < 2 for home in graph.homes)
    # Tiles are stored in traversal order and every dependence respects it:
    # the stealing scheduler's acyclicity rests exactly on this.
    for tile, preds in enumerate(graph.preds):
        assert all(p < tile for p in preds)
    # Every non-root is reachable: pred lists are mirrored by succ lists.
    for tile, preds in enumerate(graph.preds):
        for p in preds:
            assert tile in graph.succs[p]


def test_taskgraph_prunes_fully_masked_tiles():
    compiled, _ = _compiled_tomcatv()
    assert _derive(compiled).n_pruned == 0  # unmasked: pruning never fires

    banded, _arrays = _banded_program()
    graph = _derive(banded)
    full = _derive(banded, prune=False)
    assert graph.n_pruned > 0
    assert graph.n_live + graph.n_pruned == full.n_live == (
        graph.n_wave * graph.n_chunk
    )
    # Exactly the fully-masked tiles were dropped — no live tile is dead,
    # no pruned tile had work.
    mask = _arrays[1]
    live_tiles = set(graph.tiles)
    for tile in full.tiles:
        alive = bool(np.any(mask.read(tile) != 0))
        assert (tile in live_tiles) == alive


def test_reprune_rechecks_only_liveness():
    banded, arrays = _banded_program()
    graph = _derive(banded)
    assert reprune(graph, banded) is graph  # same mask values: same graph
    arrays[1].load(_band(24, 8))
    wider = reprune(graph, banded)
    assert wider.dag is graph.dag  # induced from the same structure
    assert wider == _derive(banded)
    assert wider.n_pruned < graph.n_pruned
    unmasked, _ = _compiled_tomcatv()
    full = _derive(unmasked)
    assert full.live is None and reprune(full, unmasked) is full


# ---------------------------------------------------------------------------
# Execution: fork-per-run executor and the persistent pool.
# ---------------------------------------------------------------------------
def test_executor_two_procs_identical():
    compiled, arrays = _compiled_tomcatv()
    run = _assert_matches_vectorized(
        compiled, arrays, grid=2, schedule="taskgraph", block=4
    )
    assert run.schedule == "taskgraph"
    assert run.n_procs == 2
    report = run.taskgraph
    assert report is not None
    assert run.n_chunks == report.n_tasks
    assert report.n_pruned == 0
    assert sum(report.tasks_by_rank) == report.n_tasks
    assert report.steals >= 0


def test_executor_prunes_and_stays_identical():
    compiled, arrays = _banded_program()
    run = _assert_matches_vectorized(
        compiled, arrays, grid=2, schedule="taskgraph", block=4
    )
    assert run.taskgraph.n_pruned > 0
    # Pruned tiles are skipped, not deferred: the executed count is the
    # live count.
    assert sum(run.taskgraph.tasks_by_rank) == run.taskgraph.n_tasks


def test_chunkless_chain_runs_where_pipelined_cannot():
    # Both-sign UDV components along dim 1 leave no chunkable dimension:
    # the pipelined schedule refuses outright, the task graph degenerates
    # to a wave-only chain (chunk list ``[None]``) and still runs.
    n = 24
    base = zpl.Region.square(1, n)
    a = zpl.ZArray(base, name="a", fluff=2)
    a._data[...] = 0.5
    with zpl.covering(zpl.Region.of((2, n), (2, n - 1))):
        with zpl.scan(execute=False) as block:
            a[...] = 0.1 + 0.45 * (a.p @ (-1, 1)) + 0.3 * (a.p @ (-1, -1))
    compiled = compile_scan(block)
    assert plan_wavefront(compiled).chunk_dim is None
    with pytest.raises(DistributionError):
        execute(compiled, grid=2, schedule="pipelined")
    run = _assert_matches_vectorized(
        compiled, [a], grid=2, schedule="taskgraph", block=4
    )
    assert run.taskgraph.n_tasks > 1


def test_pool_reuses_plans_and_reports():
    compiled, arrays = _compiled_tomcatv()
    oracle = run_and_capture(execute_vectorized, compiled, arrays)
    pool = WorkerPool(2)
    try:
        for rep in range(2):  # second run rides the shipped blob + plans
            runs = []
            got = run_and_capture(
                lambda c: runs.append(
                    pool.execute(c, schedule="taskgraph", block=4)
                ),
                compiled,
                arrays,
            )
            for array, want, have in zip(arrays, oracle, got):
                np.testing.assert_array_equal(
                    have, want, err_msg=f"rep {rep}: array {array.name}"
                )
            assert runs[0].schedule == "taskgraph"
            assert runs[0].taskgraph is not None
            assert runs[0].n_chunks == runs[0].taskgraph.n_tasks
        assert pool.stats["blobs_shipped"] == 2  # once per rank, not per run
    finally:
        pool.close()


def test_schedule_env_knob(monkeypatch):
    compiled, arrays = _compiled_tomcatv(16)
    monkeypatch.setenv("REPRO_SCHEDULE", "taskgraph")
    run = _assert_matches_vectorized(compiled, arrays, grid=2, block=4)
    assert run.schedule == "taskgraph"
    monkeypatch.setenv("REPRO_SCHEDULE", "wavefront-but-wrong")
    with pytest.raises(MachineError, match="REPRO_SCHEDULE"):
        execute(compiled, grid=2)


def test_oversub_env_knob(monkeypatch):
    compiled, arrays = _compiled_tomcatv(16)
    monkeypatch.setenv("REPRO_TASKGRAPH_OVERSUB", "1")
    run = _assert_matches_vectorized(
        compiled, arrays, grid=2, schedule="taskgraph"
    )
    assert run.taskgraph.n_tasks > 0
    monkeypatch.setenv("REPRO_TASKGRAPH_OVERSUB", "three")
    with pytest.raises(MachineError, match="REPRO_TASKGRAPH_OVERSUB"):
        execute(compiled, grid=2, schedule="taskgraph")


# ---------------------------------------------------------------------------
# The pool's plan cache.
# ---------------------------------------------------------------------------
def _cached_plans(pool, compiled):
    """The ``RunPlan`` objects the pool keeps for ``compiled``."""
    return list(pool._plans[plan_fingerprint(compiled)].plans.values())


def _pool_run(pool, compiled, arrays, **kwargs):
    """One pooled run, checked bit-identical to the loop-nest oracle."""
    oracle = run_and_capture(execute_loopnest, compiled, arrays)
    runs = []
    got = run_and_capture(
        lambda c: runs.append(pool.execute(c, timeout=60.0, **kwargs)),
        compiled,
        arrays,
    )
    for array, want, have in zip(arrays, oracle, got):
        np.testing.assert_array_equal(
            have, want, err_msg=f"array {array.name} under {kwargs}"
        )
    return runs[0]


def test_pool_reprunes_a_mask_changed_in_place(monkeypatch):
    monkeypatch.delenv("REPRO_TASKGRAPH_OVERSUB", raising=False)
    compiled, arrays = _banded_program()
    mask = arrays[1]
    with WorkerPool(2) as pool:
        pruned = []
        for band in (BAND, 8, 0):  # as built, widened, narrowed
            mask.load(_band(24, band))
            run = _pool_run(pool, compiled, arrays, schedule="taskgraph", block=4)
            assert run.taskgraph.n_pruned == _derive(compiled).n_pruned
            assert run.n_chunks == run.taskgraph.n_tasks
            pruned.append(run.taskgraph.n_pruned)
        assert pruned[1] < pruned[0] < pruned[2]
        # One plan throughout: only its tile liveness was re-checked.
        assert pool.stats["run_plan_misses"] == 1
        assert pool.stats["run_plan_hits"] == 2
        assert len(_cached_plans(pool, compiled)) == 1


def test_pool_warm_calls_share_one_run_plan():
    compiled, arrays = _banded_program()
    with WorkerPool(2) as pool:
        first = _pool_run(pool, compiled, arrays, schedule="taskgraph", block=4)
        (plan,) = _cached_plans(pool, compiled)
        second = _pool_run(pool, compiled, arrays, schedule="taskgraph", block=4)
        (again,) = _cached_plans(pool, compiled)
        assert again is plan
        assert second.plan is first.plan
        assert pool.stats["blobs_shipped"] == 2


def test_pool_ships_each_task_graph_once():
    class Spy:
        """A job pipe that records whether each run job carried a graph."""

        def __init__(self, conn, log):
            self._conn, self._log = conn, log

        def send(self, msg):
            if msg[0] == "run":
                self._log.append(msg[1].graph is not None)
            self._conn.send(msg)

        def __getattr__(self, name):
            return getattr(self._conn, name)

    compiled, arrays = _banded_program()
    with WorkerPool(2) as pool:
        shipped = []
        pool._jobs = {rank: Spy(conn, shipped) for rank, conn in pool._jobs.items()}
        for band in (BAND, BAND, 8, 8):  # a new mask value re-prunes once
            arrays[1].load(_band(24, band))
            _pool_run(pool, compiled, arrays, schedule="taskgraph", block=4)
        assert shipped == [True, True, False, False, True, True, False, False]


def test_pool_replans_when_an_environment_knob_flips(monkeypatch):
    for name in ("REPRO_TASKGRAPH_OVERSUB", "REPRO_MULTICAST", "REPRO_SCHEDULE"):
        monkeypatch.delenv(name, raising=False)
    compiled, arrays = _compiled_tomcatv(16)
    with WorkerPool(2) as pool:
        def misses_after(**kwargs):
            run = _pool_run(pool, compiled, arrays, block=4, **kwargs)
            return run, pool.stats["run_plan_misses"]

        run, misses = misses_after(schedule="taskgraph")
        tasks = run.taskgraph.n_tasks
        monkeypatch.setenv("REPRO_TASKGRAPH_OVERSUB", "1")
        run, now = misses_after(schedule="taskgraph")
        assert now == misses + 1 and run.taskgraph.n_tasks < tasks

        _run, misses = misses_after(schedule="pipelined")
        monkeypatch.setenv("REPRO_MULTICAST", "1")
        run, now = misses_after(schedule="pipelined")
        assert now == misses + 1 and run.fabric == "multicast"

        monkeypatch.setenv("REPRO_SCHEDULE", "naive")
        run, misses = misses_after()
        assert run.schedule == "naive"
        monkeypatch.setenv("REPRO_SCHEDULE", "taskgraph")
        run, now = misses_after()
        assert now == misses + 1 and run.schedule == "taskgraph"
        # Back to a knob set seen before: the entry still holds its plan.
        monkeypatch.setenv("REPRO_SCHEDULE", "naive")
        _run, again = misses_after()
        assert again == now


def test_pool_replans_a_recompiled_block():
    block, arrays = record_tomcatv_block(16)
    compiled = compile_scan(block)
    with WorkerPool(2) as pool:
        _pool_run(pool, compiled, arrays, schedule="taskgraph", block=4)
        (plan,) = _cached_plans(pool, compiled)
        recompiled = compile_scan(block)
        assert plan_fingerprint(recompiled) == plan_fingerprint(compiled)
        _pool_run(pool, recompiled, arrays, schedule="taskgraph", block=4)
        (fresh,) = _cached_plans(pool, recompiled)
        assert fresh is not plan and fresh.compiled is recompiled
        assert pool.stats["run_plan_misses"] == 2
        assert pool.stats["plan_misses"] == 2


def test_pool_eviction_releases_the_compiled_block():
    # The cached plans live on the pool's per-block entry, so evicting the
    # entry must let the block (and every array it pins) be collected.
    with WorkerPool(2) as pool:
        block, arrays = record_tomcatv_block(12)
        compiled = compile_scan(block)
        _pool_run(pool, compiled, arrays, schedule="taskgraph", block=4)
        ref = weakref.ref(compiled)
        del block, arrays, compiled
        for k in range(PLAN_ENTRY_CAP):
            other, _arrays = record_tomcatv_block(13 + k)
            pool.execute(compile_scan(other), block=4, timeout=60.0)
        gc.collect()
        assert ref() is None
        assert len(pool._plans) == PLAN_ENTRY_CAP


def test_pool_certifies_once_per_plan(monkeypatch):
    seen = []

    def fake_certify(target, **kwargs):
        seen.append(target)

    monkeypatch.setenv("REPRO_CERTIFY", "1")
    monkeypatch.setattr(certify_module, "certify_execution", fake_certify)
    compiled, arrays = _banded_program()
    with WorkerPool(2) as pool:
        for _ in range(3):
            _pool_run(pool, compiled, arrays, schedule="taskgraph", block=4)
        assert len(seen) == 1
        assert seen[0] is _cached_plans(pool, compiled)[0]
        # A re-pruned graph is a new plan: certified once, then cached.
        arrays[1].load(_band(24, 8))
        for _ in range(2):
            run = _pool_run(pool, compiled, arrays, schedule="taskgraph", block=4)
        assert len(seen) == 2
        assert seen[1].graph.n_pruned == run.taskgraph.n_pruned
        assert seen[1] is _cached_plans(pool, compiled)[0]


def test_pool_caches_no_plan_that_failed_certification(monkeypatch):
    calls = []

    def failing_certify(target, **kwargs):
        calls.append(target)
        if len(calls) == 1:
            raise CertifyError("refused (test)", [])

    monkeypatch.setenv("REPRO_CERTIFY", "1")
    monkeypatch.setattr(certify_module, "certify_execution", failing_certify)
    compiled, arrays = _banded_program()
    with WorkerPool(2) as pool:
        with pytest.raises(CertifyError):
            pool.execute(compiled, schedule="taskgraph", block=4, timeout=60.0)
        assert not pool.broken and not pool._plans  # refused pre-dispatch
        _pool_run(pool, compiled, arrays, schedule="taskgraph", block=4)
        _pool_run(pool, compiled, arrays, schedule="taskgraph", block=4)
        assert len(calls) == 2
        assert pool.stats["run_plan_misses"] == 2


# ---------------------------------------------------------------------------
# Sanitizer interop.
# ---------------------------------------------------------------------------
def test_parse_inject_accepts_early_fire():
    assert parse_inject("early-fire:1:7") == ("early-fire", 1, 7)
    assert parse_inject("early-release:0:3") == ("early-release", 0, 3)
    with pytest.raises(SanitizerError):
        parse_inject("late-fire:0:0")


def test_sanitized_taskgraph_clean_run(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.delenv("REPRO_SANITIZE_INJECT", raising=False)
    compiled, arrays = _compiled_tomcatv()
    run = _assert_matches_vectorized(
        compiled, arrays, grid=2, schedule="taskgraph", block=4
    )
    assert run.schedule == "taskgraph"


def test_sanitizer_catches_injected_early_fire(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.setenv("REPRO_SANITIZE_INJECT", "early-fire:1:20")
    compiled, arrays = _compiled_tomcatv()
    with pytest.raises(SanitizerError, match="taskgraph protocol violation"):
        execute(compiled, grid=2, schedule="taskgraph", block=4)
