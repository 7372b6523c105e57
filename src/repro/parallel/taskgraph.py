"""Shared-memory task-graph scheduler: ready deques, stealing, completion.

The runtime half of ``schedule="taskgraph"`` (the plan-time half is
:mod:`repro.compiler.taskdag`).  One small shared segment holds the whole
scheduler state as int64 planes:

* ``pending[t]`` — unfinished predecessors of live tile ``t``; a tile is
  pushed onto a deque exactly when this hits zero.
* per-rank ready **deques** — a slot array plus ``head``/``tail`` cursors.
  The owner pushes and pops at the tail (LIFO: the tile just unblocked is
  the one whose inputs are hottest); a thief steals from the head (FIFO:
  the oldest ready tile, most likely far from the owner's current working
  set anyway).  Slots are never reused — every live tile is enqueued once,
  so ``n_live + 1`` slots per rank bound the worst case (the ``+1`` is the
  sanitizer's injected duplicate).
* ``stamps[t]`` — completion stamps, written under the graph lock *before*
  any successor's ``pending`` is decremented: the happens-before edge the
  sanitizer checks.
* each deque slot carries **evidence**: the pending count of the tile at
  the moment it was enqueued.  A correct scheduler only ever enqueues at
  zero, so a popped slot with nonzero evidence is a protocol violation
  regardless of thread timing — this is what makes the injected
  ``early-fire`` fault (:func:`repro.analyze.sanitizer.parse_inject`)
  deterministically detectable.

Locking: one graph lock (pending decrements, completion count) and one
lock per deque; ``complete()`` holds the graph lock and takes deque locks
one at a time inside it, pops/steals take a single deque lock — a strict
two-level order, so no deadlock.  Termination: ``completed == n_live``,
checked only when a worker finds every deque empty; a failing worker
raises after setting the shared error flag so its peers drain out instead
of spinning to the timeout.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.errors import MachineError, SanitizerError
from repro.parallel.sharedmem import _untracked_attach
from repro.runtime.kernels import plan_kind, resolve_engine
from repro.runtime.vectorized import execute_vectorized
from repro.zpl.regions import Region

#: Idle backoff while every deque is empty but the graph is unfinished.
POLL_SECONDS = 50e-6


@dataclass(frozen=True)
class TaskgraphSpec:
    """Everything a worker needs to join one task-graph run (picklable —
    the synchronisation locks travel separately, by fork/args inheritance)."""

    segment: str
    n_ranks: int
    tiles: tuple[Region, ...]
    homes: tuple[int, ...]
    preds: tuple[tuple[int, ...], ...]
    succs: tuple[tuple[int, ...], ...]
    #: Run the enqueue-evidence + completion-stamp checks on every pop.
    sanitize: bool = False

    @property
    def n_live(self) -> int:
        return len(self.tiles)


@dataclass(frozen=True)
class TaskgraphReport:
    """Scheduler-side outcome of one taskgraph run (on ``ParallelRun``)."""

    #: Live tiles executed (post-pruning).
    n_tasks: int
    #: Fully-masked tiles that never entered the graph.
    n_pruned: int
    n_edges: int
    #: Cross-rank steals, summed over workers.
    steals: int
    #: Tiles each rank actually executed (sums to ``n_tasks``).
    tasks_by_rank: tuple[int, ...]
    #: High-water mark of each rank's ready deque.
    ready_peak: tuple[int, ...]

    def __repr__(self) -> str:
        return (
            f"TaskgraphReport({self.n_tasks} tiles, {self.n_pruned} pruned, "
            f"{self.steals} steals)"
        )


def report_from_stats(graph, run_stats: dict[int, dict]) -> TaskgraphReport:
    """Fold per-rank worker stats into one :class:`TaskgraphReport`."""
    ranks = sorted(run_stats)
    return TaskgraphReport(
        n_tasks=graph.n_live,
        n_pruned=graph.n_pruned,
        n_edges=graph.n_edges,
        steals=int(sum(run_stats[r].get("steals", 0) for r in ranks)),
        tasks_by_rank=tuple(
            int(run_stats[r].get("tasks", 0)) for r in ranks
        ),
        ready_peak=tuple(
            int(run_stats[r].get("ready_peak", 0)) for r in ranks
        ),
    )


class _Views:
    """Numpy views over the scheduler segment (parent- or worker-side)."""

    HEADER = 2  # completed, error

    def __init__(self, buf, n_live: int, n_ranks: int):
        cap = n_live + 1
        plane = np.ndarray((self.HEADER + 2 * n_live + 3 * n_ranks
                            + 2 * n_ranks * cap,), dtype=np.int64, buffer=buf)
        off = self.HEADER
        self.header = plane[:off]
        self.pending = plane[off:off + n_live]; off += n_live
        self.stamps = plane[off:off + n_live]; off += n_live
        self.head = plane[off:off + n_ranks]; off += n_ranks
        self.tail = plane[off:off + n_ranks]; off += n_ranks
        self.peak = plane[off:off + n_ranks]; off += n_ranks
        self.slot_task = plane[off:off + n_ranks * cap].reshape(n_ranks, cap)
        off += n_ranks * cap
        self.slot_ev = plane[off:off + n_ranks * cap].reshape(n_ranks, cap)
        self.cap = cap

    @classmethod
    def nbytes(cls, n_live: int, n_ranks: int) -> int:
        cap = n_live + 1
        return 8 * (cls.HEADER + 2 * n_live + 3 * n_ranks
                    + 2 * n_ranks * cap)

    # Unlocked primitive: callers hold the deque's lock.
    def push(self, rank: int, task: int, evidence: int) -> None:
        slot = int(self.tail[rank])
        self.slot_task[rank, slot] = task
        self.slot_ev[rank, slot] = evidence
        self.tail[rank] = slot + 1
        depth = slot + 1 - int(self.head[rank])
        if depth > self.peak[rank]:
            self.peak[rank] = depth


class TaskgraphState:
    """Parent-side owner of the scheduler segment: create, seed, release."""

    def __init__(self, graph, n_ranks: int,
                 inject: tuple[str, int, int] | None = None):
        n_live = graph.n_live
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(8, _Views.nbytes(n_live, n_ranks))
        )
        views = _Views(self._shm.buf, n_live, n_ranks)
        views.header[:] = 0
        views.stamps[:] = 0
        views.head[:] = 0
        views.tail[:] = 0
        views.peak[:] = 0
        for t, preds in enumerate(graph.preds):
            views.pending[t] = len(preds)
        # Seed the roots before any worker exists: no locks needed.
        for t in graph.roots:
            views.push(graph.homes[t], t, 0)
        if inject is not None:
            kind, rank, task = inject
            if kind == "early-fire":
                if not 0 <= task < n_live:
                    raise SanitizerError(
                        f"early-fire injection names tile {task}, but the "
                        f"graph has {n_live} live tiles"
                    )
                # The injected protocol violation: enqueue a tile whose
                # predecessors have not completed, carrying its honest
                # (nonzero) pending count as evidence.
                views.push(rank % n_ranks, task, int(views.pending[task]))
        self._views = views
        self.spec_segment = self._shm.name

    def spec(self, graph, n_ranks: int, sanitize: bool) -> TaskgraphSpec:
        return TaskgraphSpec(
            segment=self.spec_segment,
            n_ranks=n_ranks,
            tiles=graph.tiles,
            homes=graph.homes,
            preds=graph.preds,
            succs=graph.succs,
            sanitize=sanitize,
        )

    def release(self) -> None:
        self._views = None
        try:
            self._shm.close()
            self._shm.unlink()
        except FileNotFoundError:
            pass


def make_locks(ctx, n_ranks: int):
    """The run's lock set: ``(graph_lock, (deque_lock, ...))``.  Built by
    whoever forks the workers — locks only travel by inheritance."""
    return (ctx.Lock(), tuple(ctx.Lock() for _ in range(n_ranks)))


def taskgraph_loop(
    runnable,
    spec: TaskgraphSpec,
    locks,
    rank: int,
    timeout: float,
    tracer,
    stats: dict | None = None,
    tags: dict | None = None,
) -> float:
    """One worker's run of the shared DAG: pop local, steal, fire, complete.

    Same contract as :func:`repro.parallel.worker.block_loop`: returns
    busy-loop seconds, records the :mod:`repro.obs` span/counter schema when
    ``tracer`` is enabled (spans tagged ``schedule="taskgraph"``), and fills
    ``stats`` with the pool's incremental flush — plus the scheduler's own
    ``steals``/``tasks``/``ready_peak`` numbers.
    """
    graph_lock, deque_locks = locks
    tracing = tracer.enabled
    # Loop-invariant engine resolution: skip the per-tile environment reads.
    engine = resolve_engine(None)
    extra = tags or {}
    kind = plan_kind(runnable) if tracing else None
    n_live = spec.n_live
    with _untracked_attach():
        shm = shared_memory.SharedMemory(name=spec.segment)
    try:
        views = _Views(shm.buf, n_live, spec.n_ranks)
        victims = [r for r in range(spec.n_ranks) if r != rank]
        victims = victims[rank:] + victims[:rank]  # stagger steal targets

        def pop(victim: int, from_head: bool):
            with deque_locks[victim]:
                head, tail = int(views.head[victim]), int(views.tail[victim])
                if head >= tail:
                    return None
                slot = head if from_head else tail - 1
                if from_head:
                    views.head[victim] = head + 1
                else:
                    views.tail[victim] = tail - 1
                return int(views.slot_task[victim, slot]), int(
                    views.slot_ev[victim, slot]
                )

        busy_s = wait_s = 0.0
        steals = tasks = elements = 0
        idle_poll = POLL_SECONDS
        start = time.perf_counter()
        deadline = start + timeout
        try:
            while True:
                if views.header[1]:
                    break  # a peer failed; drain out, it reports the error
                item = pop(rank, from_head=False)
                stolen = False
                if item is None:
                    for victim in victims:
                        item = pop(victim, from_head=True)
                        if item is not None:
                            stolen = True
                            break
                if item is None:
                    # Unlocked read: header[0] is a single aligned word that
                    # only ever reaches n_live once everything completed.
                    if int(views.header[0]) >= n_live:
                        break
                    if time.perf_counter() > deadline:
                        raise MachineError(
                            f"taskgraph worker {rank} idle past "
                            f"{timeout:.0f}s with "
                            f"{n_live - int(views.header[0])} tiles unfinished"
                        )
                    # Exponential backoff while empty-handed: on an
                    # oversubscribed host, idle pollers hammering the deque
                    # locks steal time slices from the workers doing the
                    # computing.
                    time.sleep(idle_poll)
                    wait_s += idle_poll
                    idle_poll = min(idle_poll * 2, 2e-3)
                    continue
                idle_poll = POLL_SECONDS
                task, evidence = item
                if stolen:
                    steals += 1
                    if tracing:
                        tracer.count("pool_steals")
                if spec.sanitize:
                    if evidence != 0:
                        raise SanitizerError(
                            f"tile {task} fired with {evidence} predecessor(s) "
                            f"unfinished at enqueue time (popped by rank "
                            f"{rank}): the ready protocol released it early"
                        )
                    late = [p for p in spec.preds[task]
                            if int(views.stamps[p]) == 0]
                    if late:
                        raise SanitizerError(
                            f"tile {task} fired before predecessor tile(s) "
                            f"{late} stamped completion (popped by rank "
                            f"{rank})"
                        )
                tile = spec.tiles[task]
                t0 = time.perf_counter()
                if not tile.is_empty():
                    execute_vectorized(
                        runnable, within=tile, engine=engine,
                        tracer=tracer if tracing else None,
                    )
                t1 = time.perf_counter()
                busy_s += t1 - t0
                tasks += 1
                elements += tile.size
                if tracing:
                    tracer.add_span(
                        "compute", "compute", t0, t1,
                        block=task, elements=tile.size, plan=kind,
                        schedule="taskgraph", stolen=stolen, **extra,
                    )
                    tracer.count("blocks_executed")
                    tracer.count("elements_computed", tile.size)
                with graph_lock:
                    views.stamps[task] = 1
                    views.header[0] += 1
                    ready = []
                    for succ in spec.succs[task]:
                        views.pending[succ] -= 1
                        if views.pending[succ] == 0:
                            ready.append(succ)
                    for succ in ready:
                        home = spec.homes[succ]
                        with deque_locks[home]:
                            views.push(home, succ, 0)
        except BaseException:
            views.header[1] = 1  # release the peers before reporting
            raise
        elapsed = time.perf_counter() - start
        if stats is not None:
            stats["elapsed"] = elapsed
            stats["busy"] = busy_s
            stats["wait"] = wait_s
            stats["blocks"] = tasks
            stats["elements"] = elements
            stats["tokens"] = 0
            stats["steals"] = steals
            stats["tasks"] = tasks
            stats["ready_peak"] = int(views.peak[rank])
        return elapsed
    finally:
        views = None
        try:
            shm.close()
        except BufferError:
            pass


def resolve_oversub(default: int = 3) -> int:
    """The wave-dimension over-decomposition factor (sub-slabs per rank).

    ``REPRO_TASKGRAPH_OVERSUB`` overrides; the default of 3 gives the
    stealing scheduler rebalancing slack at ~3x the tile bookkeeping.
    """
    raw = os.environ.get("REPRO_TASKGRAPH_OVERSUB", "")
    try:
        return max(1, int(raw)) if raw else default
    except ValueError:
        raise MachineError(
            f"REPRO_TASKGRAPH_OVERSUB={raw!r} is not an integer"
        ) from None
