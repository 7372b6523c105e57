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
* **Run plans resolve once.**  The entry also keeps the block's resolved
  :class:`~repro.parallel.plan.RunPlan` per
  :class:`~repro.parallel.plan.RunKnobs` (the environment is still read on
  every call, so a flipped variable re-plans).  A hit re-checks only the
  one value-dependent part, task-graph tile liveness
  (:func:`repro.compiler.taskdag.reprune`); ``REPRO_CERTIFY=1`` proves a
  plan when it is made or re-pruned, not on every call.  Plans live and die
  with their entry — no module-level cache holds a block.  Workers keep
  the task graph beside their plan, so it ships once per graph, not per
  run; the scheduler segment stays per run.

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

The pool is a *transport*: what runs is planned by
:func:`repro.parallel.plan.resolve_run` (the same ``RunPlan`` the
fork-per-run executor dispatches and ``REPRO_CERTIFY=1`` certifies), the
workers run it through :func:`repro.parallel.worker.run_blocks`, and the
barrier, result collection and ``ParallelRun`` construction are the shared
driver in :mod:`repro.parallel.plan`.  Only the lifecycle is the pool's own:
the job pipe, the plan/segment/channel caches, and the broken flag.

``shared_pool()`` hands out one module-level pool per grid shape, closed
automatically at interpreter exit; explicit pools support ``with``.
"""

from __future__ import annotations

import atexit
import gc
import pickle
import threading
import time
from dataclasses import dataclass, field, replace
from multiprocessing.connection import Connection

from repro.compiler.grid import ProcessorGrid
from repro.compiler.lowering import CompiledScan
from repro.compiler.schedule import _chains, chain_preds
from repro.compiler.taskdag import reprune
from repro.errors import MachineError, PoolBrokenError
from repro.obs.live import FLIGHT, LIVE, MONITOR, current_tags
from repro.obs.trace import NULL_TRACER, Tracer, resolve_tracer
from repro.parallel.channels import chain_links
from repro.parallel.collectives import (
    MulticastChannel,
    MulticastFabric,
    MulticastSpec,
)
from repro.parallel.executor import _context
from repro.parallel.plan import (
    ParallelRun,
    RunKnobs,
    RunPlan,
    RunResources,
    _as_grid,
    collect,
    finish,
    meet_barrier,
    plan_run,
    preflight,
    resolve_knobs,
)
from repro.parallel.sharedmem import (
    ArraySpec,
    AttachedArrays,
    BoundaryPool,
    SharedArrayPool,
    collect_arrays,
)
from repro.parallel.worker import (
    BlockJob,
    error_payload,
    ok_payload,
    run_blocks,
)
from repro.runtime.kernels import plan_fingerprint

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
    #: Which static token fabric to use (wavefront traversal direction).
    ascending: bool
    #: The rank's share of the run — the same record a forked worker gets,
    #: except that a taskgraph job's spec carries no graph: that rides in
    #: ``graph``, and only when the worker does not hold it yet.
    job: BlockJob
    #: The task graph's ``(tiles, homes, preds, succs)`` — ``None`` when
    #: this worker already holds the run's graph.
    graph: tuple | None = None


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
    #: Predecessor rank on each pipe fabric.
    pred_fwd: int | None = None
    pred_bwd: int | None = None


def run_pool_worker(boot: PoolBoot, barrier, results) -> None:
    """Process entry point: loop on the job pipe until told to close.

    Per-job protocol (everything rides the per-worker job pipe; results ride
    the shared queue, tagged with the job's sequence number):

    * ``("run", PoolJob)`` — bind the plan (from cache, or unpickle + attach
      on first sight) and the task graph (likewise), meet the barrier, run
      the pipeline loop, report.  A worker that fails *setup* still meets
      the barrier — keeping all parties in lockstep — and then skips the
      run and reports the error.
    * ``("forget", fingerprint)`` — drop a cached plan and its task graph
      (the parent evicted or replaced it; the old segments are about to be
      unlinked).
    * ``("close",)`` — detach everything and exit.
    """
    #: fingerprint -> (compiled, attachment, runnable-with-hoisted-stripped)
    cache: dict[str, tuple[CompiledScan, AttachedArrays, CompiledScan]] = {}
    #: fingerprint -> the last task graph shipped for it
    #: (:attr:`PoolJob.graph`); the parent tracks which one each rank holds.
    graphs: dict[str, tuple] = {}
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
                graphs.pop(msg[1], None)
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
            spec = job.job
            tracer = Tracer(proc=boot.rank) if spec.trace else NULL_TRACER
            FLIGHT.event(
                "pool_job", seq=job.seq,
                fingerprint=job.fingerprint[:12], chunks=len(spec.chunks),
            )
            err = None
            runnable = channel = None
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
                if spec.taskgraph is not None:
                    if job.graph is not None:
                        graphs[job.fingerprint] = job.graph
                    elif job.fingerprint not in graphs:
                        raise MachineError(
                            f"pool worker {boot.rank} has no cached task "
                            f"graph for {job.fingerprint[:12]} and was sent "
                            f"none"
                        )
                    tiles, homes, preds, succs = graphs[job.fingerprint]
                    spec = replace(spec, taskgraph=replace(
                        spec.taskgraph,
                        tiles=tiles, homes=homes, preds=preds, succs=succs,
                    ))
                if spec.mcast is not None:
                    if spec.mcast.boundary_seg is not None:
                        plan_segs.setdefault(job.fingerprint, set()).add(
                            spec.mcast.boundary_seg
                        )
                    chan_key = (job.fingerprint, spec.mcast)
                    channel = channels.get(chan_key)
                    if channel is None:
                        channel = MulticastChannel(
                            spec.mcast,
                            boot.mcast_sems,
                            boot.rank,
                            arrays=collect_arrays(entry[0]),
                            attach_cache=seg_cache,
                        )
                        channels[chan_key] = channel
                    # Every worker is idle between runs (submissions
                    # serialise), so the stale posts are all in by now.
                    channel.drain()
                    channel.reset_stats()
            except BaseException:
                err = error_payload(job.seq)
            try:
                # Always meet the barrier, even after a setup failure:
                # breaking it would poison every later run for every worker.
                barrier.wait(timeout=spec.timeout)
            except Exception:
                if err is None:
                    err = error_payload(job.seq)
            stats: dict = {}
            if err is None:
                try:
                    elapsed = run_blocks(
                        runnable,
                        spec,
                        boot.rank,
                        tracer,
                        stats,
                        links=boot.links_fwd if job.ascending else boot.links_bwd,
                        peer=boot.pred_fwd if job.ascending else boot.pred_bwd,
                        channel=channel,
                        tg_locks=boot.tg_locks,
                    )
                except BaseException:
                    err = error_payload(job.seq)
            if err is not None:
                results.put(("error", boot.rank, err))
            else:
                results.put(
                    ("ok", boot.rank, ok_payload(job.seq, elapsed, tracer, stats))
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
    #: Resolved plans, ``RunKnobs -> RunPlan``, least recently used first
    #: (at most :data:`PLAN_ENTRY_CAP`).
    plans: dict = field(default_factory=dict)
    #: The task graph each rank holds for this block, by rank.
    graphs: dict = field(default_factory=dict)


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
        pred_fwd, pred_bwd = chain_preds(chains_fwd), chain_preds(chains_bwd)
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
            "run_plan_hits": 0,
            "run_plan_misses": 0,
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

    def _lookup(self, compiled: CompiledScan) -> tuple[str, _PlanEntry | None]:
        """``compiled``'s fingerprint and cached entry, if it has one.

        Identity rules: a hit requires the *same* ``CompiledScan`` object —
        two structurally identical blocks over different arrays fingerprint
        differently, but a recompiled block over the same arrays would not,
        and its segments, blob and plans must be rebuilt, so the stale entry
        is forgotten here.
        """
        fingerprint = plan_fingerprint(compiled)
        entry = self._plans.get(fingerprint)
        if entry is not None and entry.compiled is not compiled:
            self._forget(entry)
            entry = None
        return fingerprint, entry

    def _plan(
        self, compiled: CompiledScan, entry: _PlanEntry | None, obs, plan_kwargs
    ) -> tuple[RunKnobs, RunPlan]:
        """The run's plan: the entry's cached one when the resolved knobs
        match, with only tile liveness re-checked; else a fresh one.

        Certifies (``REPRO_CERTIFY=1``) a fresh plan and a re-pruned graph,
        nothing else — a cached plan was proven when it was made.
        """
        knobs = resolve_knobs(self.grid, **plan_kwargs)
        run_plan = entry.plans.get(knobs) if entry is not None else None
        if run_plan is None:
            self.stats["run_plan_misses"] += 1
            if obs.enabled:
                obs.count("run_plan_misses")
            run_plan = plan_run(compiled, knobs, tracer=obs)
            preflight(run_plan)
            return knobs, run_plan
        self.stats["run_plan_hits"] += 1
        if obs.enabled:
            obs.count("run_plan_hits")
        if run_plan.graph is not None:
            # Mask values may have changed in place since the plan was made.
            with obs.span("taskdag", "setup", cached=True):
                graph = reprune(run_plan.graph, compiled)
            if graph is not run_plan.graph:
                run_plan = replace(run_plan, graph=graph)
                preflight(run_plan)
        return knobs, run_plan

    def _entry_for(
        self,
        compiled: CompiledScan,
        fingerprint: str,
        entry: _PlanEntry | None,
        obs,
    ) -> _PlanEntry:
        """``entry`` with its shared segments refreshed to the arrays'
        current values (``pool_reuse`` span), or a new entry for
        ``compiled`` (``share`` span), evicting the oldest past the cap."""
        if entry is not None:
            # Most recently used last: eviction takes the first.
            self._plans[fingerprint] = self._plans.pop(fingerprint)
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

    def _dead_ranks(self) -> list[int]:
        """Ranks whose worker process is gone (kill -9, OOM, segfault)."""
        return [
            rank
            for rank, proc in zip(self.grid, self._procs)
            if not proc.is_alive()
        ]

    def _multicast_spec(self, entry: _PlanEntry, run_plan: RunPlan) -> MulticastSpec:
        """The plan entry's cached epoch-fabric spec (and boundary pool)."""
        plan = run_plan.wavefront
        key = (plan.wavefront_dim, run_plan.ascending, run_plan.staging)
        spec_entry = entry.mcast.get(key)
        if spec_entry is None:
            layout = run_plan.layout
            bpool = (
                BoundaryPool(self.grid.size, layout.slot_elems)
                if layout is not None
                else None
            )
            spec_entry = (
                run_plan.multicast_spec(
                    self._mcast_fabric.name,
                    bpool.name if bpool is not None else None,
                ),
                bpool,
            )
            entry.mcast[key] = spec_entry
        # Zero the epochs/credits from the previous run; safe because
        # submissions serialise and every worker is idle here.
        self._mcast_fabric.reset()
        return spec_entry[0]

    def _execute(
        self,
        compiled: CompiledScan,
        *,
        timeout: float | None,
        tracer,
        **plan_kwargs,
    ) -> ParallelRun:
        if self._closed:
            raise MachineError("worker pool is closed")
        if self._broken:
            raise PoolBrokenError(
                "worker pool is broken (a previous run failed); "
                "close() it and build a new pool"
            )
        dead = self._dead_ranks()
        if dead:
            self._broken = True
            raise PoolBrokenError(
                f"pool worker(s) {dead} died; the pool is broken — "
                "respawn it (see PoolSupervisor) before the next request"
            )
        timeout = self.timeout if timeout is None else timeout
        obs = resolve_tracer(tracer)
        setup_start = time.perf_counter()
        with obs.span("prepare", "setup"):
            compiled.prepare()  # hoisted temps must be current before refresh
        # Every refusal is raised here, pre-dispatch: raising mid-dispatch
        # would abandon jobs already sent and break the pool.
        fingerprint, entry = self._lookup(compiled)
        knobs, run_plan = self._plan(compiled, entry, obs, plan_kwargs)
        entry = self._entry_for(compiled, fingerprint, entry, obs)
        entry.plans.pop(knobs, None)
        entry.plans[knobs] = run_plan
        if len(entry.plans) > PLAN_ENTRY_CAP:
            del entry.plans[next(iter(entry.plans))]
        mcast_spec = None
        if run_plan.fabric == "multicast":
            mcast_spec = self._multicast_spec(entry, run_plan)
        resources = RunResources(run_plan)
        try:
            self.stats["executes"] += 1
            self._seq += 1
            seq = self._seq
            # The serving layer's request ids arrive via the active request
            # context; stamping them onto the dispatch span and the jobs is
            # what links serve_request → dispatch → per-block worker spans.
            tags = current_tags()
            with obs.span("dispatch", "setup", **tags):
                graph = run_plan.graph
                for rank in self.grid:
                    first_time = rank not in entry.shipped
                    if first_time:
                        self.stats["blobs_shipped"] += 1
                    job = resources.job(
                        rank, mcast_spec, timeout, obs.enabled, tags or None
                    )
                    shipped_graph = None
                    if graph is not None:
                        # The graph rides apart from the per-run spec, and
                        # only to a worker that does not hold it yet.
                        if entry.graphs.get(rank) is not graph:
                            shipped_graph = (
                                graph.tiles, graph.homes, graph.preds, graph.succs
                            )
                        job = replace(job, taskgraph=replace(
                            job.taskgraph, tiles=(), homes=(), preds=(), succs=()
                        ))
                    self._jobs[rank].send(("run", PoolJob(
                        seq=seq,
                        fingerprint=entry.fingerprint,
                        blob=entry.blob if first_time else None,
                        specs=entry.shared.specs if first_time else None,
                        ascending=run_plan.ascending,
                        job=job,
                        graph=shipped_graph,
                    )))
                    entry.shipped.add(rank)
                    if graph is not None:
                        entry.graphs[rank] = graph
            try:
                meet_barrier(
                    self._barrier, self._results, timeout, obs,
                    seq=seq, broken=PoolBrokenError,
                )
                setup_time = time.perf_counter() - setup_start
                outcomes, run_stats = collect(
                    self._results, run_plan, timeout, obs,
                    dead_ranks=self._dead_ranks, seq=seq, broken=PoolBrokenError,
                )
                with obs.span("gather", "setup"):
                    entry.shared.gather()
                run = finish(
                    run_plan, outcomes, run_stats, setup_time, obs, pool=True
                )
            except BaseException:
                # Any failed run breaks the pool: workers may be stuck
                # mid-pipeline or hold half-drained channels.
                self._broken = True
                raise
        finally:
            resources.release()
        self._observe_run(run, run_plan.wavefront, seq, tags, run_stats)
        return run

    def _observe_run(
        self,
        run: ParallelRun,
        plan,
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
        block_size, wall = run.block_size, run.wall_time
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
