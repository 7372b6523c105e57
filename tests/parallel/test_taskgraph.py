"""``schedule="taskgraph"``: DAG derivation, stealing execution, sanitizing.

Three layers, mirroring the feature:

* **DAG unit tests** — :func:`~repro.compiler.taskdag.derive_taskgraph` on
  real compiled blocks, no processes: traversal-order acyclicity, edge
  counts, home-rank assignment, and dead-tile pruning soundness on a
  banded (masked) program.
* **Execution tests** — the fork-per-run executor and the persistent pool
  must leave every array bit-identical to ``execute_vectorized``, including
  the rank-1 chain the pipelined schedule refuses, and with pruning active.
* **Sanitizer interop** — a clean sanitized run stays bit-identical; the
  injected ``early-fire`` protocol fault is caught deterministically.
"""

import os

import numpy as np
import pytest

from repro import zpl
from repro.analyze.sanitizer import parse_inject
from repro.compiler import compile_scan
from repro.compiler.schedule import _build_distribution, plan_wavefront
from repro.compiler.taskdag import derive_taskgraph
from repro.errors import DistributionError, MachineError, SanitizerError
from repro.parallel import WorkerPool, execute
from repro.parallel.plan import _as_grid
from repro.runtime import execute_vectorized, run_and_capture
from tests.conftest import record_tomcatv_block

BAND = 3


def _compiled_tomcatv(n=24):
    block, arrays = record_tomcatv_block(n)
    return compile_scan(block), arrays


def _banded_program(n=24, band=BAND):
    """A masked wavefront recurrence: live only within ``|i - j| <= band``."""
    base = zpl.Region.square(1, n)
    a = zpl.ZArray(base, name="a", fluff=2)
    a._data[...] = 0.5
    mask = zpl.ZArray(base, name="m", fluff=2)
    mask._data[...] = 0.0
    mask.load(
        np.fromfunction(
            lambda i, j: (np.abs(i - j) <= band).astype(float), (n, n)
        )
    )
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
