"""The multiprocess executor: real pipelined wavefronts on the host machine.

This is the production counterpart of :mod:`repro.machine.schedules`: the
same :class:`~repro.compiler.schedule.ScheduleGeometry` — wavefront plan,
block distribution, chains and per-rank blocks — under the same naive and
pipelined schedules, but run across real OS processes against shared
memory, on the real clock.  The virtual-clock simulator predicts; this
executor measures.

:func:`execute` is the fork-per-run *transport*: what runs is planned once
by :func:`repro.parallel.plan.resolve_run`, each forked worker runs its job
through :func:`repro.parallel.worker.run_blocks`, and the barrier, result
collection and :class:`ParallelRun` construction are the driver shared with
:mod:`repro.parallel.pool`.  This module only owns the process lifecycle:
share the arrays, spawn one worker per grid cell with its job and its
inherited pipes/semaphores/locks, and tear everything down.

Topology
--------
A rank-1 :class:`~repro.compiler.grid.ProcessorGrid` distributes the wavefront
dimension: one pipeline chain (paper Fig. 4).  A rank-2 grid additionally
distributes the chunk dimension: each mesh column runs an independent chain
over its slice, which requires the chunk dimension to be fully parallel
(:func:`~repro.machine.schedules.pipelined_wavefront_mesh` is refused by
the same check).

Block sizes
-----------
``block=None`` asks the autotuner for the host's measured α and β (cached per
process) and applies the paper's Equation (1); an explicit integer bypasses
the measurement.  ``schedule="naive"`` always uses the full local width —
whole-boundary messages, no overlap, Fig. 4(a).
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time

from repro.compiler.grid import ProcessorGrid
from repro.compiler.lowering import CompiledScan
from repro.errors import MachineError
from repro.obs.trace import resolve_tracer
from repro.parallel.channels import chain_links
from repro.parallel.collectives import MulticastFabric
from repro.parallel.plan import (
    ParallelRun,
    RunResources,
    _as_grid,
    collect,
    finish,
    meet_barrier,
    resolve_run,
)
from repro.parallel.sharedmem import BoundaryPool, SharedArrayPool
from repro.parallel.worker import WorkerTask, run_worker


def _context(start_method: str | None):
    if start_method is None:
        start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    return mp.get_context(start_method)


def execute(
    compiled: CompiledScan,
    grid: ProcessorGrid | int | tuple[int, ...] | None = None,
    *,
    schedule: str | None = None,
    block: int | None = None,
    wavefront_dim: int | None = None,
    start_method: str | None = None,
    timeout: float = 120.0,
    tracer=None,
    pool=None,
    sanitize: bool | None = None,
    multicast: bool | str | None = None,
    double_buffer: bool | None = None,
) -> ParallelRun:
    """Run a compiled scan block across real OS processes.

    The block's arrays are updated in place, exactly as the sequential
    engines would; the returned :class:`ParallelRun` carries the measured
    wall-clock times.  ``grid`` may be a :class:`ProcessorGrid`, a process
    count, a dims tuple, or ``None`` for a host-sized default.

    ``tracer`` opts this run into :mod:`repro.obs` recording (an explicit
    :class:`~repro.obs.Tracer`, or ``None`` to honour ``REPRO_TRACE``);
    workers then ship per-block spans and counters back with their
    results, and the packaged :class:`~repro.obs.Trace` is returned on
    ``ParallelRun.trace``.

    ``pool`` (a :class:`repro.parallel.pool.WorkerPool`) delegates the run
    to persistent workers — no fork, no pickle, no segment creation after
    the pool's first sight of the block.  The pool's grid is used; passing
    a conflicting ``grid`` raises.

    ``sanitize`` opts into the wavefront race sanitizer
    (:mod:`repro.analyze.sanitizer`): the sync protocol is wrapped in
    vector clocks and every primed read is happens-before-checked against
    the owning block's write.
    ``None`` honours ``REPRO_SANITIZE``.  A detected violation raises
    :class:`~repro.errors.SanitizerError`.  ``pool`` runs sanitize too —
    the shadow planes are built per run and the workers ship their final
    clocks back over the result channel.

    ``schedule`` picks ``"pipelined"`` (static rank order, blocked tokens),
    ``"naive"`` (whole-boundary messages), or ``"taskgraph"``
    (dependence-driven firing with work stealing and dead-block pruning —
    see :mod:`repro.compiler.taskdag`); ``None`` honours ``REPRO_SCHEDULE``
    and defaults to pipelined.

    ``multicast`` picks the pipelined schedule's communication fabric
    (:mod:`repro.parallel.collectives`): ``True`` forces the epoch fabric,
    ``False`` forces pipes, ``"auto"``/``None`` honours ``REPRO_MULTICAST``
    and selects the epoch fabric when the tile DAG shows fan-out ≥ 2 from
    one producer tile.  ``double_buffer`` gates the staged boundary copies
    on multicast runs (``None`` honours ``REPRO_DOUBLE_BUFFER``, default
    on).

    ``REPRO_CERTIFY=1`` additionally runs the static schedule certifier
    (:mod:`repro.analyze.certify`) on the resolved
    :class:`~repro.parallel.plan.RunPlan` before any worker forks;
    certification errors raise :class:`~repro.errors.CertifyError`.
    """
    if pool is not None:
        if grid is not None and _as_grid(grid).dims != pool.grid.dims:
            raise MachineError(
                f"grid {_as_grid(grid).dims} conflicts with the pool's "
                f"grid {pool.grid.dims}; omit grid or match the pool"
            )
        return pool.execute(
            compiled,
            schedule=schedule,
            block=block,
            wavefront_dim=wavefront_dim,
            timeout=timeout,
            tracer=tracer,
            sanitize=sanitize,
            multicast=multicast,
            double_buffer=double_buffer,
        )
    obs = resolve_tracer(tracer)
    setup_start = time.perf_counter()
    with obs.span("prepare", "setup"):
        compiled.prepare()  # hoisted temporaries: evaluated once, shared below
    run_plan = resolve_run(
        compiled,
        grid,
        schedule=schedule,
        block=block,
        wavefront_dim=wavefront_dim,
        multicast=multicast,
        double_buffer=double_buffer,
        sanitize=sanitize,
        tracer=obs,
    )
    n = run_plan.grid.size
    procs: list[mp.process.BaseProcess] = []
    owned: list = []  # everything holding shared memory, released in reverse
    try:
        with obs.span("share", "setup"):
            shared = SharedArrayPool(compiled)
        owned.append(shared)
        spawn_start = time.perf_counter()
        resources = RunResources(run_plan)
        owned.append(resources)
        blob = pickle.dumps(compiled)
        ctx = _context(start_method)
        # The fabric's inherited half: pipes, epoch semaphores or scheduler
        # locks travel as Process arguments, never over a pipe.
        links: dict = {}
        mcast_spec = sems = locks = None
        if run_plan.graph is not None:
            from repro.parallel.taskgraph import make_locks

            locks = make_locks(ctx, n)
        elif run_plan.fabric == "multicast":
            fabric = MulticastFabric(ctx, n)
            owned.append(fabric)
            bpool = None
            if run_plan.layout is not None:
                bpool = BoundaryPool(n, run_plan.layout.slot_elems)
                owned.append(bpool)
            mcast_spec = run_plan.multicast_spec(
                fabric.name, bpool.name if bpool is not None else None
            )
            sems = fabric.sems
        else:
            links = chain_links(ctx, run_plan.chains)
        barrier = ctx.Barrier(n + 1)
        results = ctx.Queue()
        preds = run_plan.pred_by_rank
        for rank in run_plan.grid:
            recv, send = links.get(rank, (None, None))
            task = WorkerTask(
                rank=rank,
                compiled_blob=blob,
                specs=shared.specs,
                job=resources.job(rank, mcast_spec, timeout, obs.enabled),
                recv=recv,
                send=send,
                peer=preds.get(rank),
                tg_locks=locks,
                mcast_sems=sems,
            )
            proc = ctx.Process(
                target=run_worker,
                args=(task, barrier, results),
                name=f"repro-worker-{rank}",
            )
            proc.start()
            procs.append(proc)
        obs.add_span("spawn", "setup", spawn_start, time.perf_counter())

        meet_barrier(barrier, results, timeout, obs)
        setup_time = time.perf_counter() - setup_start
        outcomes, run_stats = collect(
            results,
            run_plan,
            timeout,
            obs,
            dead_ranks=lambda: [
                rank
                for rank, proc in zip(run_plan.grid, procs)
                if not proc.is_alive()
            ],
        )
        for proc in procs:
            proc.join(timeout=timeout)
        with obs.span("gather", "setup"):
            shared.gather()
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for item in reversed(owned):
            item.release()
    return finish(run_plan, outcomes, run_stats, setup_time, obs)
