"""The SPMD worker: one block loop over a wait/release sync protocol.

Every static-order schedule — naive, pipelined on pipes, pipelined on the
multicast epoch fabric, sanitized or not, forked per run or pooled — runs
the same :func:`block_loop`: *wait* for block ``k``'s inputs, execute the
block's local portion with the same
:func:`~repro.runtime.vectorized.execute_vectorized` the sequential engine
uses, *release* block ``k`` downstream.  What differs is the ``sync``
object the loop waits and releases on:

* :class:`PipeSync` — one token per block over the chain's pipe
  (:mod:`repro.parallel.channels`);
* :class:`EpochSync` — epoch waits plus boundary absorb, then stage plus
  one epoch stamp (:mod:`repro.parallel.collectives`);
* :class:`repro.analyze.sanitizer.SanitizedSync` — wraps either of the
  above with the race sanitizer's vector clocks, checks and fault
  injections (``REPRO_SANITIZE=1``).

:func:`run_blocks` picks the sync for both process entry points
(:func:`run_worker` here, :func:`repro.parallel.pool.run_pool_worker`), so a
fabric or the sanitizer exists in exactly one place.  The dynamic
``schedule="taskgraph"`` loop (:func:`repro.parallel.taskgraph.taskgraph_loop`)
stays its own function: pop/steal control flow is not a static block order.

Hoisted parallel operators were evaluated once by the parent before the
segments were filled, so a worker strips ``hoisted`` from its copy — the
temporaries' values are already in shared memory, and re-evaluating them
mid-wave would race against neighbours' stores.

The loop always fills ``stats`` (busy/wait seconds, tokens, blocks,
elements: the flush the live metrics registry and the model monitor read)
and feeds the process flight recorder when it is on; with tracing it also
records the :mod:`repro.obs` schema — ``recv_wait``/``compute``/``send``
spans per block plus blocks/tokens/elements/bytes counters — into a
per-process buffer that rides home on the result queue.
"""

from __future__ import annotations

import gc
import pickle
import sys
import time
import traceback
from dataclasses import dataclass, replace
from multiprocessing.connection import Connection

from repro.obs.live.flight import FLIGHT
from repro.obs.trace import NULL_TRACER, Tracer
from repro.parallel.channels import recv_token, send_token
from repro.parallel.sharedmem import ArraySpec, AttachedArrays, collect_arrays
from repro.runtime.kernels import plan_kind, resolve_engine
from repro.runtime.vectorized import execute_vectorized
from repro.zpl.regions import Region

#: float64 storage throughout the library (boundary-traffic accounting).
ELEMENT_BYTES = 8


@dataclass(frozen=True)
class BlockJob:
    """One rank's share of one run, as planned (plain data: it rides the
    fork-per-run Process arguments and the pool's job pipe alike)."""

    #: This worker's pipeline blocks, already localised and in wave order
    #: (empty under ``schedule="taskgraph"``).
    chunks: tuple[Region, ...]
    #: The plan's chunk dimension (block widths for the trace), if any.
    chunk_dim: int | None
    #: Boundary elements per unit block width (the model's ``m``).
    boundary_rows: int
    timeout: float
    #: Record :mod:`repro.obs` spans and counters for this run.
    trace: bool = False
    #: Request-context tags (serving request ids) stamped onto this job's
    #: spans and flight events — the worker half of end-to-end tracing.
    tags: dict | None = None
    #: :class:`repro.parallel.taskgraph.TaskgraphSpec` under
    #: ``schedule="taskgraph"``: the worker joins the run's shared scheduler
    #: segment instead of a token fabric.
    taskgraph: object | None = None
    #: :class:`repro.parallel.collectives.MulticastSpec` when the planner
    #: selected the epoch fabric.
    mcast: object | None = None
    #: :class:`repro.analyze.sanitizer.SanitizerSpec` when a static-order
    #: run shadow-executes; kept untyped so the worker does not import the
    #: analyzer unless asked.  Taskgraph runs sanitize through ``taskgraph``.
    sanitize: object | None = None


@dataclass
class WorkerTask:
    """Everything one forked worker needs, shipped as Process arguments."""

    rank: int
    compiled_blob: bytes
    specs: list[ArraySpec]
    job: BlockJob
    recv: Connection | None = None
    send: Connection | None = None
    #: Predecessor rank on the pipe fabric.
    peer: int | None = None
    #: The run's ``(graph_lock, deque_locks)`` — synchronisation primitives
    #: travel by Process-argument inheritance, never over a pipe.
    tg_locks: object | None = None
    #: The epoch fabric's per-rank semaphores (inherited like ``tg_locks``).
    mcast_sems: object | None = None


class PipeSync:
    """The point-to-point fabric: block ``k`` is one token down the pipe."""

    #: The ``REPRO_SANITIZE_INJECT`` kind that targets this fabric.
    inject_kind = "early-release"

    def __init__(
        self,
        recv: Connection | None,
        send: Connection | None,
        timeout: float,
        peer: int | None,
    ):
        self._recv, self._send = recv, send
        self._timeout, self._peer = timeout, peer
        #: Ranks whose release of block ``k`` this rank waits on.
        self.producers = () if recv is None else (peer,)
        #: Whether a release reaches anyone (traffic accounting).
        self.releases = send is not None

    def wait(self, k: int) -> int:
        """Block until block ``k`` may run; returns the tokens consumed."""
        if self._recv is None:
            return 0
        recv_token(self._recv, k, self._timeout, self._peer)
        return 1

    def release(self, k: int, chunk: Region) -> None:
        """Publish "block ``k`` is computed" to whoever waits on it."""
        if self._send is not None:
            send_token(self._send, k)

    def stats(self) -> dict:
        return {}


class EpochSync:
    """The multicast fabric: waits are epoch reads (plus the double-buffer
    absorb), a release is ``stage`` + one stamp serving every consumer."""

    inject_kind = "early-publish"

    def __init__(self, channel, chunks: tuple[Region, ...], timeout: float):
        self._channel, self._chunks, self._timeout = channel, chunks, timeout
        self._absorbed = 0
        self.producers = channel.producers
        self.releases = bool(channel.consumers)

    def wait(self, k: int) -> int:
        if not self.producers:
            return 0
        channel = self._channel
        channel.wait_block(k, self._timeout)
        self._absorbed = channel.absorb_through(k, self._absorbed, self._chunks)
        return len(self.producers)

    def release(self, k: int, chunk: Region) -> None:
        self._channel.stage(k, chunk, self._timeout)
        self._channel.publish(k)

    def stats(self) -> dict:
        return self._channel.stats()


def block_loop(
    runnable,
    chunks: tuple[Region, ...],
    sync,
    tracer,
    chunk_dim: int | None,
    boundary_rows: int,
    stats: dict,
    tags: dict | None = None,
) -> float:
    """The static-order inner loop: wait → compute block → release.

    Returns the busy seconds from the first wait to the last release and
    fills ``stats`` with the run's aggregate numbers (``busy``/``wait``
    seconds, ``tokens``, ``blocks``, ``elements``, plus whatever the sync
    reports).  ``tracer`` records the per-block span schema when enabled
    and is threaded into :func:`execute_vectorized` so kernel-compile
    spans ride home too; span names are the same on every fabric, so the
    phase analytics and residual tables apply unchanged.  ``tags`` (e.g.
    the serving request ids) are stamped onto every span and flight
    event, which is what makes end-to-end request tracing work.
    """
    tracing = tracer.enabled
    flight = FLIGHT if FLIGHT.enabled else None
    extra = tags or {}
    # The plan family is loop-invariant: resolve it once so every compute
    # span carries its kind (skewed/flat/interp) for the phase analytics.
    kind = plan_kind(runnable) if tracing else None
    kernel_tracer = tracer if tracing else None
    # Engine resolution reads environment knobs; loop-invariant, so pay for
    # it once per job instead of once per block.
    engine = resolve_engine(None)
    releases = sync.releases
    busy_s = wait_s = 0.0
    tokens = 0
    start = time.perf_counter()
    for k, chunk in enumerate(chunks):
        t = time.perf_counter()
        got = sync.wait(k)
        if got:
            t_done = time.perf_counter()
            wait_s += t_done - t
            tokens += got
            if tracing:
                tracer.add_span("recv_wait", "comm", t, t_done, block=k, **extra)
                tracer.count("tokens_recv", got)
        if not chunk.is_empty():
            t = time.perf_counter()
            execute_vectorized(
                runnable, within=chunk, engine=engine, tracer=kernel_tracer
            )
            t_done = time.perf_counter()
            busy_s += t_done - t
            if tracing:
                tracer.add_span(
                    "compute",
                    "compute",
                    t,
                    t_done,
                    block=k,
                    elements=chunk.size,
                    width=_width(chunk, chunk_dim),
                    plan=kind,
                    **extra,
                )
                tracer.count("blocks_executed")
                tracer.count("elements_computed", chunk.size)
            elif flight is not None:
                flight.span(
                    "block", t, t_done, block=k, elements=chunk.size, **extra
                )
        if tracing and releases:
            t = time.perf_counter()
            sync.release(k, chunk)
            tracer.add_span(
                "send", "comm", t, time.perf_counter(), block=k, **extra
            )
            tracer.count("tokens_sent")
            tracer.count(
                "bytes_moved",
                boundary_rows * _width(chunk, chunk_dim) * ELEMENT_BYTES,
            )
        else:
            sync.release(k, chunk)
    elapsed = time.perf_counter() - start
    stats["elapsed"] = elapsed
    stats["busy"] = busy_s
    stats["wait"] = wait_s
    stats["tokens"] = tokens
    stats["blocks"] = sum(1 for c in chunks if not c.is_empty())
    stats["elements"] = sum(c.size for c in chunks if not c.is_empty())
    stats.update(sync.stats())
    return elapsed


def _width(chunk: Region, chunk_dim: int | None) -> int:
    return chunk.extent(chunk_dim) if chunk_dim is not None else 1


def run_blocks(
    runnable,
    job: BlockJob,
    rank: int,
    tracer,
    stats: dict,
    *,
    links: tuple[Connection | None, Connection | None],
    peer: int | None,
    channel,
    tg_locks,
) -> float:
    """Run one rank's job on whichever loop and sync its plan calls for.

    ``links``/``peer`` are this rank's ends of the pipe fabric, ``channel``
    its :class:`~repro.parallel.collectives.MulticastChannel` (``None``
    unless ``job.mcast`` is set), ``tg_locks`` the taskgraph lock set — the
    pieces each process lifecycle inherits its own way.
    """
    if job.taskgraph is not None:
        from repro.parallel.taskgraph import taskgraph_loop

        return taskgraph_loop(
            runnable,
            job.taskgraph,
            tg_locks,
            rank,
            job.timeout,
            tracer,
            stats=stats,
            tags=job.tags,
        )
    if channel is not None:
        sync = EpochSync(channel, job.chunks, job.timeout)
    else:
        sync = PipeSync(*links, job.timeout, peer)
    state = None
    if job.sanitize is not None:
        from repro.analyze.sanitizer import SanitizedSync, SanitizerState

        state = SanitizerState(job.sanitize, rank)
        sync = SanitizedSync(sync, state, job.chunks)
    try:
        elapsed = block_loop(
            runnable, job.chunks, sync, tracer,
            job.chunk_dim, job.boundary_rows, stats, job.tags,
        )
        if state is not None and tracer.enabled:
            tracer.count("sanitize_checks", state.checks)
            tracer.count("sanitize_cells", state.cells)
        return elapsed
    finally:
        if state is not None:
            state.detach()


def ok_payload(seq: int | None, elapsed: float, tracer, stats: dict) -> dict:
    """A worker's success report (``seq`` tags pooled runs, else ``None``)."""
    return {
        "seq": seq,
        "elapsed": elapsed,
        "events": tracer.drain(),
        # The always-on incremental metrics flush: rides the existing
        # result channel, costs a handful of floats per job.
        "stats": stats,
    }


def error_payload(seq: int | None = None) -> dict:
    """A worker's failure report for the exception being handled.

    Names the exception class so the parent classifies by type, and ships
    the flight-recorder tail home with the traceback: the post-mortem of
    what this process was doing in the moments before it failed.
    """
    return {
        "seq": seq,
        "error": type(sys.exc_info()[1]).__name__,
        "detail": traceback.format_exc(),
        "flight": FLIGHT.dump(),
    }


def run_worker(task: WorkerTask, barrier, results) -> None:
    """Process entry point (top-level so every start method can import it)."""
    attached = channel = None
    job = task.job
    tracer = Tracer(proc=task.rank) if job.trace else NULL_TRACER
    tracing = tracer.enabled
    try:
        t_entry = time.perf_counter()
        compiled = pickle.loads(task.compiled_blob)
        attached = AttachedArrays(compiled, task.specs)
        runnable = replace(compiled, hoisted=())
        if job.mcast is not None:
            from repro.parallel.collectives import MulticastChannel

            channel = MulticastChannel(
                job.mcast,
                task.mcast_sems,
                task.rank,
                arrays=collect_arrays(compiled),
            )
        if tracing:
            tracer.add_span("startup", "setup", t_entry, time.perf_counter())
        # The inherited (forked) heap is garbage-collector ballast: freeze it
        # so collector pauses inside the timed loop depend only on what the
        # loop itself allocates, not on what the parent happened to import.
        gc.freeze()
        t_barrier = time.perf_counter()
        barrier.wait(timeout=job.timeout)
        if tracing:
            tracer.add_span("barrier", "sync", t_barrier, time.perf_counter())
        stats: dict = {}
        elapsed = run_blocks(
            runnable,
            job,
            task.rank,
            tracer,
            stats,
            links=(task.recv, task.send),
            peer=task.peer,
            channel=channel,
            tg_locks=task.tg_locks,
        )
        results.put(("ok", task.rank, ok_payload(None, elapsed, tracer, stats)))
    except BaseException:
        results.put(("error", task.rank, error_payload()))
    finally:
        if channel is not None:
            channel.detach()
        if attached is not None:
            attached.detach()
