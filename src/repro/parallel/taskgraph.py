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

The parent seeds the segment through numpy views (:class:`_Views`); a
worker's hot path touches the same words through one flat int64
``memoryview`` (:func:`_offsets` is the one layout), because a numpy
scalar read or write costs several times a Python int's and a tile pays
a dozen of them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import accumulate
from multiprocessing import shared_memory

import numpy as np

from repro.errors import MachineError, SanitizerError
from repro.parallel.sharedmem import _untracked_attach
from repro.runtime.kernels import PlanRunner
from repro.util.env import env_int
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
    #: Cells per tile (:attr:`repro.compiler.taskdag.TaskGraph.sizes`).
    sizes: tuple[int, ...]
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


def _offsets(n_live: int, n_ranks: int) -> tuple[int, ...]:
    """Word offsets of the segment's planes after the two header words
    (completed, error): ``(pending, stamps, head, tail, peak, slot_task,
    slot_ev, end)``.  Slot planes are rank-major, ``n_live + 1`` per rank."""
    cap = n_live + 1
    return tuple(accumulate(
        (2, n_live, n_live, n_ranks, n_ranks, n_ranks, n_ranks * cap, n_ranks * cap)
    ))


class _Views:
    """The parent's numpy views over the scheduler segment."""

    def __init__(self, buf, n_live: int, n_ranks: int):
        pending, stamps, head, tail, peak, task, ev, end = _offsets(n_live, n_ranks)
        plane = np.ndarray((end,), dtype=np.int64, buffer=buf)
        self.header = plane[:pending]
        self.pending = plane[pending:stamps]
        self.stamps = plane[stamps:head]
        self.head = plane[head:tail]
        self.tail = plane[tail:peak]
        self.peak = plane[peak:task]
        self.slot_task = plane[task:ev].reshape(n_ranks, n_live + 1)
        self.slot_ev = plane[ev:end].reshape(n_ranks, n_live + 1)

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
            create=True, size=8 * _offsets(n_live, n_ranks)[-1]
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
            sizes=graph.sizes,
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
    runner: PlanRunner,
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
    ``steals``/``tasks``/``ready_peak`` numbers.  ``stats["wait"]`` is the
    time actually slept, and each idle stretch (first empty-handed poll to
    the next pop or to termination) is one ``recv_wait`` span.

    The hot path reads and writes the segment through one flat int64
    ``memoryview`` (Python ints, no numpy scalars), reads each tile's size
    from ``spec.sizes`` and runs tiles through ``runner``, the job's
    :class:`PlanRunner`, so a tile costs its locks, its plan-cache lookup
    and its kernel.
    """
    graph_lock, deque_locks = locks
    tracing = tracer.enabled
    extra = tags or {}
    n_live, n_ranks, sizes = spec.n_live, spec.n_ranks, spec.sizes
    cap = n_live + 1
    pending, stamps, head, tail, peak, slot_task, slot_ev, end = _offsets(
        n_live, n_ranks
    )
    with _untracked_attach():
        shm = shared_memory.SharedMemory(name=spec.segment)
    words = shm.buf[:8 * end].cast("q")
    try:
        victims = [r for r in range(n_ranks) if r != rank]
        victims = victims[rank:] + victims[:rank]  # stagger steal targets

        def pop(victim: int, from_head: bool):
            with deque_locks[victim]:
                first, stop = words[head + victim], words[tail + victim]
                if first >= stop:
                    return None
                slot = first if from_head else stop - 1
                if from_head:
                    words[head + victim] = first + 1
                else:
                    words[tail + victim] = slot
                at = victim * cap + slot
                return words[slot_task + at], words[slot_ev + at]

        def push(home: int, task: int) -> None:  # under the deque's lock
            slot = words[tail + home]
            words[slot_task + home * cap + slot] = task
            words[slot_ev + home * cap + slot] = 0
            words[tail + home] = slot + 1
            depth = slot + 1 - words[head + home]
            if depth > words[peak + home]:
                words[peak + home] = depth

        def idle_span(since: float | None, until: float) -> None:
            if tracing and since is not None:
                tracer.add_span(
                    "recv_wait", "comm", since, until,
                    schedule="taskgraph", **extra,
                )

        busy_s = wait_s = 0.0
        steals = tasks = elements = 0
        idle_poll = POLL_SECONDS
        idle_since = None
        start = time.perf_counter()
        deadline = start + timeout
        try:
            while True:
                if words[1]:
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
                    # Unlocked read: word 0 is a single aligned word that
                    # only ever reaches n_live once everything completed.
                    if words[0] >= n_live:
                        break
                    now = time.perf_counter()
                    if now > deadline:
                        raise MachineError(
                            f"taskgraph worker {rank} idle past "
                            f"{timeout:.0f}s with "
                            f"{n_live - words[0]} tiles unfinished"
                        )
                    if idle_since is None:
                        idle_since = now
                    # Exponential backoff while empty-handed: on an
                    # oversubscribed host, idle pollers hammering the deque
                    # locks steal time slices from the workers doing the
                    # computing.  A short sleep overshoots, so time it.
                    time.sleep(idle_poll)
                    wait_s += time.perf_counter() - now
                    idle_poll = min(idle_poll * 2, 2e-3)
                    continue
                idle_poll = POLL_SECONDS
                if idle_since is not None:
                    idle_span(idle_since, time.perf_counter())
                    idle_since = None
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
                    late = [p for p in spec.preds[task] if words[stamps + p] == 0]
                    if late:
                        raise SanitizerError(
                            f"tile {task} fired before predecessor tile(s) "
                            f"{late} stamped completion (popped by rank "
                            f"{rank})"
                        )
                size = sizes[task]
                t0 = time.perf_counter()
                if size:
                    runner.run_block(spec.tiles[task], tracer)
                t1 = time.perf_counter()
                busy_s += t1 - t0
                tasks += 1
                elements += size
                if tracing:
                    tracer.add_span(
                        "compute", "compute", t0, t1,
                        block=task, elements=size, plan=runner.kind,
                        schedule="taskgraph", stolen=stolen, **extra,
                    )
                    tracer.count("blocks_executed")
                    tracer.count("elements_computed", size)
                with graph_lock:
                    words[stamps + task] = 1
                    words[0] += 1
                    ready = []
                    for succ in spec.succs[task]:
                        left = words[pending + succ] - 1
                        words[pending + succ] = left
                        if left == 0:
                            ready.append(succ)
                    for succ in ready:
                        home = spec.homes[succ]
                        with deque_locks[home]:
                            push(home, succ)
        except BaseException:
            words[1] = 1  # release the peers before reporting
            raise
        done = time.perf_counter()
        idle_span(idle_since, done)
        elapsed = done - start
        if stats is not None:
            stats["elapsed"] = elapsed
            stats["busy"] = busy_s
            stats["wait"] = wait_s
            stats["blocks"] = tasks
            stats["elements"] = elements
            stats["tokens"] = 0
            stats["steals"] = steals
            stats["tasks"] = tasks
            stats["ready_peak"] = words[peak + rank]
        return elapsed
    finally:
        words.release()
        try:
            shm.close()
        except BufferError:
            pass


def resolve_oversub(default: int = 3) -> int:
    """The wave-dimension over-decomposition factor (sub-slabs per rank).

    ``REPRO_TASKGRAPH_OVERSUB`` overrides; the default of 3 gives the
    stealing scheduler rebalancing slack at ~3x the tile bookkeeping.
    """
    return max(1, env_int("REPRO_TASKGRAPH_OVERSUB", default))
