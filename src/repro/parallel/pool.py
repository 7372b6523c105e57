"""Persistent worker pool: fork once, execute many.

The fork-per-run executor (:mod:`repro.parallel.executor`) pays process
startup, ``pickle.dumps``, shared-segment creation and ``gc.freeze`` on every
``execute()`` — that is the ~milliseconds-per-run overhead that inflated the
measured ``dispatch_seconds_per_block`` three orders of magnitude above the
per-token α.  The pool amortises all of it:

* **Workers fork once** at pool construction and then loop on a per-worker
  job pipe.  The barrier, the result queue, and the token-pipe fabric are
  all built once and reused; both wavefront directions get their own static
  fabric so ascending and descending blocks can share one pool.
* **Plans ship once.**  Each compiled block is fingerprinted
  (:func:`repro.runtime.kernels.plan_fingerprint`); the parent keeps a
  fingerprint-keyed :class:`_PlanEntry` (shared segments + pickled blob) and
  each worker keeps the unpickled plan and its shared-memory attachment in a
  per-process cache.  A repeat ``execute()`` sends only a small job record —
  no blob, no re-attach — and refreshes the existing segments with the
  arrays' current values.
* **Kernel plans persist.**  Because the worker's unpickled ``CompiledScan``
  object survives across jobs, the AOT kernel templates and region plans of
  :mod:`repro.runtime.kernels` stay warm too: after the first run a pipeline
  block costs one cached view bind and one call of the generated kernel.

Failure semantics: any failed run — including a worker process dying
mid-request — marks the pool *broken* and raises the typed
:class:`~repro.errors.PoolBrokenError` for the affected in-flight request
only; every later ``execute()`` refuses with the same type until the pool
is replaced.  ``execute()`` is additionally serialised behind an internal
lock, so concurrent submissions from threads (the serving layer's batches)
are safe: the fingerprint-keyed plan LRU and the shared-segment
``refresh``/``gather`` cycle never interleave.  :class:`PoolSupervisor`
packages the recovery story — serialize, detect broken, respawn — for
callers that must survive worker death (``repro.serve``).

``shared_pool()`` hands out one module-level pool per grid shape, closed
automatically at interpreter exit; explicit pools support ``with``.
"""

from __future__ import annotations

import atexit
import gc
import os
import pickle
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from multiprocessing.connection import Connection

from repro.compiler.lowering import CompiledScan
from repro.errors import (
    DistributionError,
    MachineError,
    PoolBrokenError,
    SanitizerError,
)
from repro.machine.grid import ProcessorGrid
from repro.machine.schedules import plan_wavefront
from repro.obs.live import (
    FLIGHT,
    LIVE,
    MONITOR,
    current_tags,
    format_flight_tail,
)
from repro.obs.trace import NULL_TRACER, Trace, Tracer, resolve_tracer
from repro.parallel.channels import chain_links
from repro.parallel.collectives import (
    MulticastChannel,
    MulticastFabric,
    MulticastSpec,
    boundary_layout,
    plan_groups,
    resolve_double_buffer,
    resolve_multicast,
)
from repro.parallel.executor import (
    SCHEDULES,
    ParallelRun,
    _as_grid,
    _build_distribution,
    _chains,
    _context,
    _worker_chunks,
    check_chain_legality,
    resolve_schedule,
)
from repro.parallel.sharedmem import (
    ArraySpec,
    AttachedArrays,
    BoundaryPool,
    SharedArrayPool,
    collect_arrays,
)
from repro.parallel.worker import (
    multicast_pipeline_loop,
    pipeline_loop,
    sanitized_multicast_loop,
    sanitized_pipeline_loop,
)
from repro.runtime.kernels import plan_fingerprint
from repro.zpl.regions import Region

#: Parent-side cap on cached plan entries (each pins shared segments).
PLAN_ENTRY_CAP = 8


@dataclass
class PoolJob:
    """One run's worth of instructions for one pooled worker."""

    seq: int
    fingerprint: str
    #: Pickled CompiledScan — ``None`` when this worker already has it cached.
    blob: bytes | None
    specs: list[ArraySpec] | None
    chunks: tuple[Region, ...]
    #: Which static token fabric to use (wavefront traversal direction).
    ascending: bool
    chunk_dim: int | None
    boundary_rows: int
    timeout: float
    trace: bool
    #: Request-context tags (serving request ids) stamped onto this job's
    #: spans and flight events — the worker half of end-to-end tracing.
    tags: dict | None = None
    #: Task-graph spec (:class:`repro.parallel.taskgraph.TaskgraphSpec`)
    #: when ``schedule="taskgraph"``: the worker joins the run's shared
    #: scheduler segment instead of the static token fabric (``chunks`` is
    #: empty, ``ascending`` unused).
    taskgraph: object | None = None
    #: Multicast spec (:class:`repro.parallel.collectives.MulticastSpec`)
    #: when the planner selected the epoch fabric: the worker joins the
    #: pool-lifetime epoch segment instead of the token pipes.
    mcast: MulticastSpec | None = None
    #: Sanitizer spec (:class:`repro.analyze.sanitizer.SanitizerSpec`) when
    #: the run shadow-executes (``REPRO_SANITIZE=1``): the worker attaches
    #: the run's stamp segment and swaps in the sanitized pipeline loop.
    #: Taskgraph runs sanitize through ``taskgraph`` instead.
    sanitize: object | None = None


@dataclass
class PoolBoot:
    """Everything a pooled worker receives once, at fork time."""

    rank: int
    links_fwd: tuple[Connection | None, Connection | None]
    links_bwd: tuple[Connection | None, Connection | None]
    jobs: Connection
    #: The pool-lifetime ``(graph_lock, deque_locks)`` for taskgraph jobs —
    #: locks share only by inheritance, so they ship at fork time, not in
    #: the job record.  One set serves every run: submissions serialise.
    tg_locks: object | None = None
    #: The epoch fabric's per-rank semaphores — like ``tg_locks``, these
    #: only share by inheritance, so they ship at fork time.
    mcast_sems: object | None = None
    #: Predecessor rank on each pipe fabric (timeout diagnostics only).
    pred_fwd: int | None = None
    pred_bwd: int | None = None


def run_pool_worker(boot: PoolBoot, barrier, results) -> None:
    """Process entry point: loop on the job pipe until told to close.

    Per-job protocol (everything rides the per-worker job pipe; results ride
    the shared queue, tagged with the job's sequence number):

    * ``("run", PoolJob)`` — bind the plan (from cache, or unpickle + attach
      on first sight), meet the barrier, run the pipeline loop, report.
      A worker that fails *setup* still meets the barrier — keeping all
      parties in lockstep — and then skips the run and reports the error.
    * ``("forget", fingerprint)`` — drop a cached plan (the parent evicted
      or replaced it; the old segments are about to be unlinked).
    * ``("close",)`` — detach everything and exit.
    """
    #: fingerprint -> (compiled, attachment, runnable-with-hoisted-stripped)
    cache: dict[str, tuple[CompiledScan, AttachedArrays, CompiledScan]] = {}
    #: segment name -> SharedMemory: multicast attachments live here so a
    #: repeat job re-uses the mapping instead of re-attaching.
    seg_cache: dict[str, object] = {}
    #: fingerprint -> per-plan segment names (boundary pools); closed on
    #: "forget" so an evicted plan's staging memory is actually reclaimed.
    plan_segs: dict[str, set[str]] = {}
    #: (fingerprint, spec) -> MulticastChannel: a channel outlives its job
    #: so its compiled staging geometry (view plans, copy pairs) amortises
    #: across repeat runs of the same plan.
    channels: dict[tuple, MulticastChannel] = {}
    # Freeze the inherited heap once: every job after this pays collector
    # time only for what the pipeline loop itself allocates.
    gc.freeze()
    try:
        while True:
            try:
                msg = boot.jobs.recv()
            except (EOFError, OSError):
                return  # parent went away; exit quietly
            kind = msg[0]
            if kind == "close":
                return
            if kind == "forget":
                entry = cache.pop(msg[1], None)
                if entry is not None:
                    entry[1].detach()
                for key in [k for k in channels if k[0] == msg[1]]:
                    channels.pop(key).detach()
                for name in plan_segs.pop(msg[1], ()):
                    seg = seg_cache.pop(name, None)
                    if seg is not None:
                        try:
                            seg.close()
                        except BufferError:
                            pass
                continue
            job: PoolJob = msg[1]
            tracer = Tracer(proc=boot.rank) if job.trace else NULL_TRACER
            FLIGHT.event(
                "pool_job", seq=job.seq,
                fingerprint=job.fingerprint[:12], chunks=len(job.chunks),
            )
            err = None
            runnable = None
            try:
                entry = cache.get(job.fingerprint)
                if entry is None:
                    if job.blob is None:
                        raise MachineError(
                            f"pool worker {boot.rank} has no cached plan "
                            f"{job.fingerprint[:12]} and was sent no blob"
                        )
                    t0 = time.perf_counter()
                    compiled = pickle.loads(job.blob)
                    attached = AttachedArrays(compiled, job.specs)
                    entry = (compiled, attached, replace(compiled, hoisted=()))
                    cache[job.fingerprint] = entry
                    if tracer.enabled:
                        tracer.add_span(
                            "plan_bind", "setup", t0, time.perf_counter()
                        )
                        tracer.count("pool_plan_misses")
                elif tracer.enabled:
                    tracer.count("pool_plan_hits")
                runnable = entry[2]
            except BaseException:
                err = traceback.format_exc()
            try:
                # Always meet the barrier, even after a setup failure:
                # breaking it would poison every later run for every worker.
                barrier.wait(timeout=job.timeout)
            except Exception:
                if err is None:
                    err = traceback.format_exc()
            elapsed = 0.0
            stats: dict = {}
            if err is None:
                try:
                    if job.taskgraph is not None:
                        from repro.parallel.taskgraph import taskgraph_loop

                        elapsed = taskgraph_loop(
                            runnable,
                            job.taskgraph,
                            boot.tg_locks,
                            boot.rank,
                            job.timeout,
                            tracer,
                            stats=stats,
                            tags=job.tags,
                        )
                    elif job.mcast is not None:
                        if job.mcast.boundary_seg is not None:
                            plan_segs.setdefault(job.fingerprint, set()).add(
                                job.mcast.boundary_seg
                            )
                        chan_key = (job.fingerprint, job.mcast)
                        channel = channels.get(chan_key)
                        if channel is None:
                            channel = MulticastChannel(
                                job.mcast,
                                boot.mcast_sems,
                                boot.rank,
                                arrays=collect_arrays(
                                    cache[job.fingerprint][0]
                                ),
                                attach_cache=seg_cache,
                            )
                            channels[chan_key] = channel
                        channel.drain()
                        channel.reset_stats()
                        if job.sanitize is not None:
                            from repro.analyze.sanitizer import SanitizerState

                            state = SanitizerState(job.sanitize, boot.rank)
                            try:
                                elapsed = sanitized_multicast_loop(
                                    runnable,
                                    job.chunks,
                                    channel,
                                    job.timeout,
                                    tracer,
                                    state,
                                    stats=stats,
                                )
                            finally:
                                state.detach()
                        else:
                            elapsed = multicast_pipeline_loop(
                                runnable,
                                job.chunks,
                                channel,
                                job.timeout,
                                tracer,
                                job.chunk_dim,
                                job.boundary_rows,
                                stats=stats,
                                tags=job.tags,
                            )
                    else:
                        recv, send = (
                            boot.links_fwd if job.ascending else boot.links_bwd
                        )
                        peer = (
                            boot.pred_fwd if job.ascending else boot.pred_bwd
                        )
                        if job.sanitize is not None:
                            from repro.analyze.sanitizer import SanitizerState

                            state = SanitizerState(job.sanitize, boot.rank)
                            try:
                                elapsed = sanitized_pipeline_loop(
                                    runnable,
                                    job.chunks,
                                    recv,
                                    send,
                                    job.timeout,
                                    tracer,
                                    state,
                                    stats=stats,
                                )
                            finally:
                                state.detach()
                        else:
                            elapsed = pipeline_loop(
                                runnable,
                                job.chunks,
                                recv,
                                send,
                                job.timeout,
                                tracer,
                                job.chunk_dim,
                                job.boundary_rows,
                                stats=stats,
                                tags=job.tags,
                                peer=peer,
                            )
                except BaseException:
                    err = traceback.format_exc()
            if err is not None:
                # Ship the worker's flight-recorder tail home with the
                # traceback: the post-mortem of what this process was doing
                # in the moments before it failed.
                results.put(
                    (
                        "error",
                        boot.rank,
                        {
                            "seq": job.seq,
                            "detail": err,
                            "flight": FLIGHT.dump(),
                        },
                    )
                )
            else:
                results.put(
                    (
                        "ok",
                        boot.rank,
                        {
                            "seq": job.seq,
                            "elapsed": elapsed,
                            "events": tracer.drain(),
                            # The always-on incremental metrics flush: rides
                            # the existing result channel, costs a handful of
                            # floats per job.
                            "stats": stats,
                        },
                    )
                )
    finally:
        for channel in channels.values():
            channel.detach()
        for _, attached, _ in cache.values():
            attached.detach()
        for seg in seg_cache.values():
            try:
                seg.close()
            except BufferError:
                pass


@dataclass
class _PlanEntry:
    """Parent-side cache record for one compiled block."""

    fingerprint: str
    compiled: CompiledScan
    shared: SharedArrayPool
    blob: bytes
    #: Ranks that have already received (and cached) the blob.
    shipped: set[int] = field(default_factory=set)
    #: Lazily-built multicast plumbing per (wave_dim, ascending, staging):
    #: ``key -> (MulticastSpec, BoundaryPool | None)``.  Boundary pools pin
    #: shared memory, so they are released with the entry.
    mcast: dict = field(default_factory=dict)


class WorkerPool:
    """A persistent set of pipeline workers bound to one processor grid.

    >>> pool = WorkerPool(2)
    >>> run = pool.execute(compiled)        # forks + ships the plan
    >>> run = pool.execute(compiled)        # reuses everything
    >>> pool.close()

    Supports ``with WorkerPool(...) as pool:``.  See
    :meth:`execute` for the run-time surface (mirrors
    :func:`repro.parallel.executor.execute` minus ``start_method``, fixed at
    construction).
    """

    def __init__(
        self,
        grid: ProcessorGrid | int | tuple[int, ...] | None = None,
        *,
        start_method: str | None = None,
        timeout: float = 120.0,
    ):
        self.grid = _as_grid(grid)
        self.timeout = timeout
        ctx = _context(start_method)
        self._barrier = ctx.Barrier(self.grid.size + 1)
        self._results = ctx.Queue()
        # Two static token fabrics: one per wavefront direction.  A job
        # selects the fabric matching its traversal sign, so one pool serves
        # forward and backward sweeps without rebuilding pipes.
        chains_fwd = _chains(self.grid, True)
        chains_bwd = _chains(self.grid, False)
        links_fwd = chain_links(ctx, chains_fwd)
        links_bwd = chain_links(ctx, chains_bwd)
        self._links = (links_fwd, links_bwd)  # keep parent copies alive
        self._chains_by_dir = {True: chains_fwd, False: chains_bwd}
        pred_fwd: dict[int, int] = {}
        pred_bwd: dict[int, int] = {}
        for chains, preds in ((chains_fwd, pred_fwd), (chains_bwd, pred_bwd)):
            for chain in chains:
                for upstream, downstream in zip(chain, chain[1:]):
                    preds[downstream] = upstream
        # The pool-lifetime epoch fabric: the segment and the per-rank
        # semaphores must exist before the fork (semaphores only inherit).
        self._mcast_fabric = MulticastFabric(ctx, self.grid.size)
        # One lock set for every taskgraph job this pool will ever run:
        # locks cannot ride a pipe, so they must exist before the fork.
        from repro.parallel.taskgraph import make_locks

        self._tg_locks = make_locks(ctx, self.grid.size)
        self._jobs: dict[int, Connection] = {}
        self._procs = []
        self._plans: dict[str, _PlanEntry] = {}
        self._seq = 0
        self._broken = False
        self._closed = False
        # One submission at a time: the plan LRU, the barrier and the shared
        # segments are single-run state.  Re-entrant so error paths that
        # re-enter helpers under the lock stay deadlock-free.
        self._submit_lock = threading.RLock()
        self.stats = {
            "executes": 0,
            "plan_hits": 0,
            "plan_misses": 0,
            "blobs_shipped": 0,
        }
        try:
            for rank in self.grid:
                recv_end, send_end = ctx.Pipe(duplex=False)
                self._jobs[rank] = send_end
                boot = PoolBoot(
                    rank=rank,
                    links_fwd=links_fwd[rank],
                    links_bwd=links_bwd[rank],
                    jobs=recv_end,
                    tg_locks=self._tg_locks,
                    mcast_sems=self._mcast_fabric.sems,
                    pred_fwd=pred_fwd.get(rank),
                    pred_bwd=pred_bwd.get(rank),
                )
                proc = ctx.Process(
                    target=run_pool_worker,
                    args=(boot, self._barrier, self._results),
                    name=f"repro-pool-{rank}",
                )
                # Daemonic: a leaked pool must never keep the interpreter
                # alive (shared_pool() also closes at exit).
                proc.daemon = True
                proc.start()
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise

    # -- lifecycle -----------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def broken(self) -> bool:
        return self._broken

    def close(self, timeout: float = 5.0) -> None:
        """Shut the workers down and unlink every shared segment (idempotent).

        Safe to call any time — including on a broken pool, where workers may
        be stuck mid-pipeline: stragglers are terminated after ``timeout``.
        """
        if self._closed:
            return
        self._closed = True
        for conn in self._jobs.values():
            try:
                conn.send(("close",))
            except (OSError, BrokenPipeError, ValueError):
                pass
        for conn in self._jobs.values():
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=timeout)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=timeout)
        for entry in self._plans.values():
            entry.shared.release()
            for _spec, bpool in entry.mcast.values():
                if bpool is not None:
                    bpool.release()
        self._plans.clear()
        self._mcast_fabric.release()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- plan cache ----------------------------------------------------------
    def _forget(self, entry: _PlanEntry) -> None:
        """Evict one plan: tell the workers first, then unlink its segments."""
        for rank in entry.shipped:
            try:
                self._jobs[rank].send(("forget", entry.fingerprint))
            except (OSError, BrokenPipeError, ValueError):
                pass
        entry.shared.release()
        for _spec, bpool in entry.mcast.values():
            if bpool is not None:
                bpool.release()
        entry.mcast.clear()
        self._plans.pop(entry.fingerprint, None)

    def _entry_for(self, compiled: CompiledScan, obs) -> _PlanEntry:
        """The cached plan entry for ``compiled``, building/refreshing it.

        Identity rules: a hit requires the *same* ``CompiledScan`` object —
        two structurally identical blocks over different arrays fingerprint
        differently, but a recompiled block over the same arrays would not,
        and its segments/blob must be rebuilt.  On a hit the shared segments
        are refreshed with the arrays' current values (``pool_reuse`` span).
        """
        fingerprint = plan_fingerprint(compiled)
        entry = self._plans.get(fingerprint)
        if entry is not None and entry.compiled is not compiled:
            self._forget(entry)
            entry = None
        if entry is not None:
            self.stats["plan_hits"] += 1
            if obs.enabled:
                obs.count("pool_plan_hits")
            with obs.span("pool_reuse", "setup", fingerprint=fingerprint[:12]):
                entry.shared.refresh()
            return entry
        self.stats["plan_misses"] += 1
        if obs.enabled:
            obs.count("pool_plan_misses")
        with obs.span("share", "setup", fingerprint=fingerprint[:12]):
            shared = SharedArrayPool(compiled)
            blob = pickle.dumps(compiled)
        entry = _PlanEntry(fingerprint, compiled, shared, blob)
        self._plans[fingerprint] = entry
        while len(self._plans) > PLAN_ENTRY_CAP:
            oldest = next(iter(self._plans))
            if oldest == fingerprint:
                break
            self._forget(self._plans[oldest])
        return entry

    # -- execution -----------------------------------------------------------
    def execute(
        self,
        compiled: CompiledScan,
        *,
        schedule: str | None = None,
        block: int | None = None,
        wavefront_dim: int | None = None,
        timeout: float | None = None,
        tracer=None,
        multicast: bool | str | None = None,
        double_buffer: bool | None = None,
        sanitize: bool | None = None,
    ) -> ParallelRun:
        """Run a compiled scan block on the pooled workers.

        Same semantics and return type as
        :func:`repro.parallel.executor.execute`; the difference is purely in
        what is amortised.  The block's arrays are updated in place.
        ``sanitize`` (default: ``REPRO_SANITIZE``) shadow-executes the run
        with vector clocks; the stamp segment is per-run, so sanitizing one
        request costs nothing for the next.

        Thread-safe: submissions serialise behind an internal lock, so
        concurrent batches (same fingerprint or not) never interleave the
        plan cache, the segment refresh or the result queue.  A run that
        fails — or a worker found dead — raises the typed
        :class:`~repro.errors.PoolBrokenError` and flags the pool broken.
        """
        with self._submit_lock:
            return self._execute(
                compiled,
                schedule=schedule,
                block=block,
                wavefront_dim=wavefront_dim,
                timeout=timeout,
                tracer=tracer,
                multicast=multicast,
                double_buffer=double_buffer,
                sanitize=sanitize,
            )

    def _ensure_workers_alive(self) -> None:
        """Fail fast when a worker process died (kill -9, OOM, segfault)."""
        dead = [
            rank
            for rank, proc in zip(self.grid, self._procs)
            if not proc.is_alive()
        ]
        if dead:
            self._broken = True
            raise PoolBrokenError(
                f"pool worker(s) {dead} died; the pool is broken — "
                "respawn it (see PoolSupervisor) before the next request"
            )

    def _execute(
        self,
        compiled: CompiledScan,
        *,
        schedule: str | None,
        block: int | None,
        wavefront_dim: int | None,
        timeout: float | None,
        tracer,
        multicast: bool | str | None = None,
        double_buffer: bool | None = None,
        sanitize: bool | None = None,
    ) -> ParallelRun:
        if self._closed:
            raise MachineError("worker pool is closed")
        if self._broken:
            raise PoolBrokenError(
                "worker pool is broken (a previous run failed); "
                "close() it and build a new pool"
            )
        self._ensure_workers_alive()
        schedule = resolve_schedule(schedule)
        if sanitize is None:
            sanitize = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")
        timeout = self.timeout if timeout is None else timeout
        grid = self.grid
        obs = resolve_tracer(tracer)
        setup_start = time.perf_counter()

        plan = plan_wavefront(compiled, wavefront_dim)
        if plan.chunk_dim is None and grid.dims[0] > 1 and schedule == "pipelined":
            raise DistributionError(
                "no chunkable dimension: this block cannot be pipelined"
            )
        if schedule == "taskgraph" and grid.rank != 1:
            raise MachineError(
                "schedule=\"taskgraph\" runs on rank-1 grids: the scheduler "
                "itself spreads work along the chunk dimension"
            )
        dist = _build_distribution(plan, grid)
        loops = compiled.loops
        ascending = loops.signs[plan.wavefront_dim] >= 0
        reverse_chunks = (
            plan.chunk_dim is not None and loops.signs[plan.chunk_dim] < 0
        )
        locals_by_rank = {rank: dist.local_region(rank) for rank in grid}

        # Fabric selection before block sizing — the autotuner's cost model
        # depends on whether a release is one pipe round or one epoch stamp.
        fabric = "pipes"
        groups = None
        mcast_mode = resolve_multicast(multicast)
        if (
            schedule == "pipelined"
            and mcast_mode != "off"
            and plan.chunk_dim is not None
        ):
            groups = plan_groups(
                compiled,
                plan,
                self._chains_by_dir[ascending],
                locals_by_rank,
                grid.size,
            )
            if groups is not None and (
                mcast_mode == "on" or groups.max_fanout >= 2
            ):
                fabric = "multicast"
            else:
                groups = None

        oversub = None
        if schedule == "naive":
            block_size = None
        elif block is not None:
            if block < 1:
                raise MachineError(f"block size must be >= 1, got {block}")
            block_size = block
            if schedule == "taskgraph":
                from repro.parallel.taskgraph import resolve_oversub

                oversub = resolve_oversub()
        elif schedule == "taskgraph":
            from repro.parallel.autotune import taskgraph_tiling

            oversub, block_size = taskgraph_tiling(
                compiled, grid.dims[0], plan=plan
            )
        else:
            from repro.parallel.autotune import tuned_block_size

            block_size = tuned_block_size(
                compiled,
                grid.dims[0],
                plan=plan,
                fabric=fabric,
                fanout=groups.max_fanout if groups is not None else 1,
            )

        if os.environ.get("REPRO_CERTIFY", "") not in ("", "0"):
            from repro.analyze.certify import certify_execution

            # Certify exactly what is about to run on the pooled workers.
            if schedule == "taskgraph":
                certify_execution(
                    compiled,
                    schedule="taskgraph",
                    grid=grid,
                    block=block_size,
                    wavefront_dim=wavefront_dim,
                    oversub=oversub,
                )
            else:
                certify_execution(
                    compiled,
                    schedule=schedule,
                    grid=grid,
                    block=block_size,
                    wavefront_dim=wavefront_dim,
                    multicast=(fabric == "multicast"),
                    double_buffer=double_buffer,
                )

        chunks_by_rank: dict[int, tuple[Region, ...]] = {}
        n_chunks = 1
        if schedule in ("pipelined", "naive"):
            for rank in grid:
                local = locals_by_rank[rank]
                width = (
                    local.extent(plan.chunk_dim)
                    if plan.chunk_dim is not None
                    else 1
                )
                per_block = width if block_size is None else block_size
                chunks_by_rank[rank] = _worker_chunks(
                    plan, local, max(1, per_block), reverse_chunks
                )
                n_chunks = max(n_chunks, len(chunks_by_rank[rank]))
            # Pre-dispatch: raising mid-dispatch would abandon jobs already
            # sent and break the pool.
            check_chain_legality(compiled, plan, grid.dims[0], n_chunks)

        with obs.span("prepare", "setup"):
            compiled.prepare()  # hoisted temps must be current before refresh
        entry = self._entry_for(compiled, obs)

        mcast_spec = None
        if fabric == "multicast":
            staging = resolve_double_buffer(double_buffer)
            key = (plan.wavefront_dim, ascending, staging)
            spec_entry = entry.mcast.get(key)
            if spec_entry is None:
                layout = boundary_layout(compiled, plan) if staging else None
                bpool = (
                    BoundaryPool(grid.size, layout.slot_elems)
                    if layout is not None
                    else None
                )
                rows_by_rank = tuple(
                    None
                    if locals_by_rank[rank].is_empty()
                    else locals_by_rank[rank].range(plan.wavefront_dim)
                    for rank in grid
                )
                spec_entry = (
                    MulticastSpec(
                        epoch_seg=self._mcast_fabric.name,
                        n_ranks=grid.size,
                        groups=groups,
                        wave_dim=plan.wavefront_dim,
                        wave_ascending=ascending,
                        rows_by_rank=rows_by_rank,
                        boundary_seg=bpool.name if bpool is not None else None,
                        layout=layout if bpool is not None else None,
                        chunk_dim=plan.chunk_dim,
                    ),
                    bpool,
                )
                entry.mcast[key] = spec_entry
            mcast_spec = spec_entry[0]
            # Zero the epochs/credits from the previous run; safe because
            # submissions serialise and every worker is idle here.
            self._mcast_fabric.reset()

        graph = None
        state = None
        tg_spec = None
        if schedule == "taskgraph":
            from repro.compiler.taskdag import derive_taskgraph
            from repro.parallel.taskgraph import TaskgraphState

            with obs.span("taskdag", "setup"):
                graph = derive_taskgraph(
                    compiled,
                    plan,
                    [dist.local_region(rank) for rank in grid],
                    oversub,
                    block_size,
                )
            # Per-run scheduler segment: pending counts, deques, stamps.
            # Sanitizing rides the scheduler stamps, not a shadow segment.
            inject = None
            if sanitize:
                from repro.analyze.sanitizer import INJECT_ENV, parse_inject

                inject = parse_inject(os.environ.get(INJECT_ENV))
                if inject is not None and inject[0] != "early-fire":
                    inject = None  # other kinds target the pipe/epoch loops
            state = TaskgraphState(graph, grid.size, inject=inject)
            tg_spec = state.spec(graph, grid.size, sanitize)

        shadow = None
        if sanitize and tg_spec is None:
            from repro.analyze.sanitizer import (
                INJECT_ENV,
                ShadowPool,
                parse_inject,
            )

            # Per-run stamp plane, released in the finally below: one
            # sanitized request can never leak stamps into the next.
            shadow = ShadowPool(
                plan,
                grid,
                chunks_by_rank,
                inject=parse_inject(os.environ.get(INJECT_ENV)),
                # Multicast clocks ride the epochs: one immutable clock row
                # per (rank, block) in the shadow segment.
                epoch_clocks=n_chunks if mcast_spec is not None else 0,
            )

        self.stats["executes"] += 1
        self._seq += 1
        seq = self._seq
        # The serving layer's request ids arrive via the active request
        # context; stamping them onto the dispatch span and the jobs is what
        # links serve_request → dispatch → per-block worker spans.
        tags = current_tags()
        with obs.span("dispatch", "setup", **tags):
            for rank in grid:
                if tg_spec is None:
                    chunks = chunks_by_rank[rank]
                else:
                    chunks = ()
                    n_chunks = graph.n_live
                first_time = rank not in entry.shipped
                if first_time:
                    self.stats["blobs_shipped"] += 1
                job = PoolJob(
                    seq=seq,
                    fingerprint=entry.fingerprint,
                    blob=entry.blob if first_time else None,
                    specs=entry.shared.specs if first_time else None,
                    chunks=chunks,
                    ascending=ascending,
                    chunk_dim=plan.chunk_dim,
                    boundary_rows=plan.boundary_rows,
                    timeout=timeout,
                    trace=obs.enabled,
                    tags=tags or None,
                    taskgraph=tg_spec,
                    mcast=mcast_spec,
                    sanitize=shadow.spec if shadow is not None else None,
                )
                self._jobs[rank].send(("run", job))
                entry.shipped.add(rank)

        try:
            try:
                with obs.span("barrier", "sync"):
                    self._barrier.wait(timeout=timeout)
            except Exception as exc:
                self._broken = True
                detail = self._first_error(seq)
                raise PoolBrokenError(
                    f"pool workers failed to start: {exc}{detail}"
                ) from exc
            setup_time = time.perf_counter() - setup_start

            outcomes: dict[int, float] = {}
            run_stats: dict[int, dict] = {}
            deadline = time.monotonic() + timeout
            while len(outcomes) < grid.size:
                # Short poll slices instead of one long get(): a worker
                # killed mid-run is noticed within a slice, not after the
                # full timeout.
                try:
                    status, rank, payload = self._results.get(timeout=0.25)
                except Exception:
                    self._ensure_workers_alive()
                    if time.monotonic() > deadline:
                        self._broken = True
                        raise PoolBrokenError(
                            f"lost contact with "
                            f"{grid.size - len(outcomes)} pool "
                            f"worker(s) after {timeout:.0f}s"
                        ) from None
                    continue
                if payload.get("seq") != seq:
                    continue  # stale report from an earlier failed run
                if status != "ok":
                    self._broken = True
                    detail = payload["detail"]
                    if "SanitizerError" in detail:
                        # The race report, not the pool plumbing, is the
                        # story; the pool still breaks (workers may hold
                        # half-drained channels).
                        raise SanitizerError(
                            f"worker {rank} detected a wavefront race:\n"
                            f"{detail}"
                        )
                    flight_dump = payload.get("flight")
                    if flight_dump and flight_dump.get("events"):
                        detail += (
                            "\nworker flight recorder (last events before "
                            "failure):\n" + format_flight_tail(flight_dump)
                        )
                    raise PoolBrokenError(f"worker {rank} failed:\n{detail}")
                outcomes[rank] = payload["elapsed"]
                obs.absorb(payload["events"])
                run_stats[rank] = payload.get("stats") or {}
            with obs.span("gather", "setup"):
                entry.shared.gather()
            if shadow is not None:
                # Clock accounting over the result channel: every rank must
                # have advanced its own clock through all its blocks.  A
                # short count means completions went missing — a protocol
                # hole the per-block checks cannot see from the other side.
                for rank in grid:
                    clocks = run_stats.get(rank, {}).get("clocks")
                    expected = len(chunks_by_rank.get(rank, ()))
                    if clocks is None or clocks[rank] != expected:
                        got = "none" if clocks is None else clocks[rank]
                        raise SanitizerError(
                            f"sanitizer clock accounting failed: worker "
                            f"{rank} retired {got} of {expected} blocks"
                        )
        finally:
            if state is not None:
                state.release()
            if shadow is not None:
                shadow.release()

        report = None
        if graph is not None:
            from repro.parallel.taskgraph import report_from_stats

            report = report_from_stats(graph, run_stats)

        worker_times = tuple(outcomes[rank] for rank in grid)
        self._observe_run(
            plan, block_size, max(worker_times), seq, tags, run_stats
        )
        trace = None
        if obs.enabled:
            region = plan.region
            trace = Trace.from_tracer(
                obs,
                clock="wall",
                meta={
                    "backend": "parallel",
                    "pool": True,
                    "schedule": schedule,
                    "grid": list(grid.dims),
                    "n_procs": grid.size,
                    "pipeline_procs": grid.dims[0],
                    "block_size": block_size,
                    "n_chunks": n_chunks,
                    "rows": region.extent(plan.wavefront_dim),
                    "cols": (
                        region.extent(plan.chunk_dim)
                        if plan.chunk_dim is not None
                        else 1
                    ),
                    "boundary_rows": plan.boundary_rows,
                    "halo_rows": plan.halo_rows,
                    "wavefront_dim": plan.wavefront_dim,
                    "chunk_dim": plan.chunk_dim,
                    "wall_time": max(worker_times),
                    "setup_time": setup_time,
                    "fabric": fabric,
                    "fanout": (
                        groups.max_fanout if groups is not None else 1
                    ),
                    "sanitize": bool(sanitize),
                },
            )
            if report is not None:
                trace.meta.update(
                    oversub=oversub,
                    n_tasks=report.n_tasks,
                    n_pruned=report.n_pruned,
                    n_edges=report.n_edges,
                    steals=report.steals,
                )
        return ParallelRun(
            schedule=schedule,
            grid_dims=grid.dims,
            block_size=block_size,
            n_chunks=n_chunks,
            wall_time=max(worker_times),
            worker_times=worker_times,
            setup_time=setup_time,
            plan=plan,
            trace=trace,
            taskgraph=report,
            fabric=fabric,
        )

    def _observe_run(
        self,
        plan,
        block_size: int | None,
        wall: float,
        seq: int,
        tags: dict,
        run_stats: dict[int, dict],
    ) -> None:
        """Fold one run's worker flushes into the live telemetry.

        Per-rank counters land in the :data:`~repro.obs.live.metrics.LIVE`
        registry (what ``/metrics`` and ``obs top`` read), the aggregate
        steady-state profile feeds the online model monitor, and the run
        leaves one bounded event in the flight recorder.
        """
        busy = wait = elements = tokens = blocks = 0.0
        for rank, st in run_stats.items():
            if not st:
                continue
            label = str(rank)
            LIVE.counter(
                "repro_pool_worker_busy_seconds", rank=label
            ).inc(st.get("busy", 0.0))
            LIVE.counter(
                "repro_pool_worker_wait_seconds", rank=label
            ).inc(st.get("wait", 0.0))
            LIVE.counter(
                "repro_pool_worker_blocks_total", rank=label
            ).inc(st.get("blocks", 0))
            LIVE.counter(
                "repro_pool_worker_elements_total", rank=label
            ).inc(st.get("elements", 0))
            LIVE.counter(
                "repro_pool_worker_tokens_total", rank=label
            ).inc(st.get("tokens", 0))
            if "steals" in st:
                # Taskgraph-only series: keep pipelined rows unpolluted.
                LIVE.counter(
                    "repro_pool_worker_steals_total", rank=label
                ).inc(st.get("steals", 0))
                LIVE.gauge(
                    "repro_pool_worker_ready_depth", rank=label
                ).set(st.get("ready_peak", 0))
            if "mcast_releases" in st:
                # Multicast-fabric series: one release = one epoch stamp
                # serving the whole fan-out; flips count staged boundary
                # buffers, the gauge accumulates compute/copy overlap.
                LIVE.counter(
                    "repro_multicast_releases_total", rank=label
                ).inc(st.get("mcast_releases", 0))
                LIVE.counter(
                    "repro_boundary_buffer_flips_total", rank=label
                ).inc(st.get("buffer_flips", 0))
                LIVE.gauge(
                    "repro_multicast_overlap_seconds", rank=label
                ).inc(st.get("overlap_seconds", 0.0))
            busy += st.get("busy", 0.0)
            wait += st.get("wait", 0.0)
            elements += st.get("elements", 0)
            tokens += st.get("tokens", 0)
            blocks += st.get("blocks", 0)
        LIVE.counter("repro_pool_executes_total").inc()
        LIVE.histogram("repro_pool_execute_seconds").observe(wall)
        if elements > 0:
            # One token carries boundary_rows rows of one block width: the
            # live analogue of autotune's (message size, latency) sample.
            width = block_size if block_size else (
                elements / blocks if blocks else 1.0
            )
            MONITOR.observe_job(
                busy=busy,
                elements=elements,
                wait=wait,
                tokens=tokens,
                boundary_elements=max(1, plan.boundary_rows) * width,
            )
        FLIGHT.span(
            "pool_execute",
            time.perf_counter() - wall,
            time.perf_counter(),
            seq=seq,
            wall=wall,
            **tags,
        )

    def _first_error(self, seq: int) -> str:
        """Best-effort: pull this run's first worker error off the queue."""
        try:
            while True:
                status, rank, payload = self._results.get(timeout=1.0)
                if status == "error" and payload.get("seq") == seq:
                    return f"\nworker {rank}:\n{payload['detail']}"
        except Exception:
            return ""


class PoolSupervisor:
    """Thread-safe pool façade: serialize submissions, respawn broken pools.

    The serving layer's submission path.  ``submit()`` runs a compiled block
    on the supervised pool; when the pool is (or becomes) broken — a worker
    died, a run failed — only the in-flight submission observes the
    :class:`~repro.errors.PoolBrokenError`, and the supervisor replaces the
    pool before the next submission.  One dead worker therefore costs
    exactly the requests that were riding it, never every later caller.

    >>> sup = PoolSupervisor(2)
    >>> sup.submit(compiled, block=4)      # builds the pool lazily
    >>> sup.close()
    """

    def __init__(
        self,
        grid: ProcessorGrid | int | tuple[int, ...] | None = None,
        *,
        start_method: str | None = None,
        timeout: float = 120.0,
    ):
        self.grid = _as_grid(grid)
        self._start_method = start_method
        self._timeout = timeout
        self._pool: WorkerPool | None = None
        self._lock = threading.Lock()
        self._closed = False
        #: Pools built to replace a broken/closed predecessor.
        self.respawns = 0

    @property
    def pool(self) -> WorkerPool | None:
        """The current pool (``None`` before the first submission)."""
        return self._pool

    def _ensure_pool(self) -> WorkerPool:
        if self._pool is None or self._pool.closed or self._pool.broken:
            if self._pool is not None:
                self._pool.close()
                self.respawns += 1
            self._pool = WorkerPool(
                self.grid,
                start_method=self._start_method,
                timeout=self._timeout,
            )
        return self._pool

    def submit(self, compiled: CompiledScan, **kwargs) -> ParallelRun:
        """Run ``compiled`` on the supervised pool (lazily (re)built)."""
        with self._lock:
            if self._closed:
                raise MachineError("pool supervisor is closed")
            return self._ensure_pool().execute(compiled, **kwargs)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            if self._pool is not None:
                self._pool.close()
                self._pool = None

    def __enter__(self) -> "PoolSupervisor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


#: Module-level pools, one per (grid dims, start method) — see shared_pool().
_SHARED: dict[tuple, WorkerPool] = {}


def shared_pool(
    grid: ProcessorGrid | int | tuple[int, ...] | None = None,
    *,
    start_method: str | None = None,
    timeout: float = 120.0,
) -> WorkerPool:
    """A process-wide pool for the given grid shape, built on first use.

    Closed or broken pools are transparently replaced; every pool handed out
    here is closed at interpreter exit.  Callers that want deterministic
    teardown should build their own :class:`WorkerPool` and ``close()`` it.
    """
    g = _as_grid(grid)
    key = (g.dims, start_method)
    pool = _SHARED.get(key)
    if pool is not None and not (pool.closed or pool.broken):
        return pool
    if pool is not None:
        pool.close()
    pool = WorkerPool(g, start_method=start_method, timeout=timeout)
    _SHARED[key] = pool
    return pool


def close_pools() -> None:
    """Close every :func:`shared_pool` pool (idempotent)."""
    for pool in list(_SHARED.values()):
        pool.close()
    _SHARED.clear()


atexit.register(close_pools)
