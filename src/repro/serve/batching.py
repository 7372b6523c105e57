"""Request coalescing: same-key requests that queue together become one dispatch.

The batcher is the heart of :mod:`repro.serve`.  Requests arrive on the
event loop and are appended to a per-``batch_key`` pending list.  As
soon as the compute thread is free, the scheduling
:class:`~repro.serve.scheduler.Policy` picks a pending key and up to
``batch_max`` of its requests go to the backend as one batch — whatever
queued while the previous batch computed, so batch size follows load.
Compute runs on a single worker thread (compute is a shared resource —
the kernels and the worker pool serialise anyway, and one thread keeps
the event loop free to keep accepting while a batch runs).

Admission control happens at :meth:`Batcher.submit`: when ``max_queue``
requests are already pending the submission raises
:class:`~repro.serve.protocol.QueueFull` with a ``retry_after`` hint of
one dispatch's worth of drain time.  Requests whose caller gave up
(per-request timeout cancelled the future) are skipped at dispatch time
so a timed-out flood cannot poison the batches behind it.

A backend failure fails *that batch's* requests — typed, via the
future — and the dispatcher keeps running; the next batch gets a fresh
chance (with :class:`~repro.parallel.PoolSupervisor` underneath, on a
fresh pool).
"""

from __future__ import annotations

import asyncio
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.obs import NULL_TRACER
from repro.obs.live import FLIGHT, RequestContext, run_with_context
from repro.serve.metrics import ServeMetrics
from repro.serve.protocol import QueueFull, ShuttingDown
from repro.serve.scheduler import Candidate, Policy, estimate_cost


@dataclass
class BatchResult:
    """What each request's future resolves to."""

    value: object  # endpoint-specific result payload
    batch_size: int
    queue_wait: float  # seconds between enqueue and dispatch
    compute: float  # seconds the batch spent in the backend
    batch_id: int


@dataclass
class _Pending:
    request: object
    future: asyncio.Future
    enqueued: float
    rid: int = field(default=0)


class Batcher:
    """Coalesces submissions per batch key and drains them via a policy.

    ``backend`` is a callable ``(key, [requests]) -> [values]`` executed on
    the batcher's worker thread; it must return one value per request, in
    order.
    """

    def __init__(
        self,
        backend,
        policy: Policy,
        *,
        batch_max: int = 32,
        max_queue: int = 128,
        metrics: ServeMetrics | None = None,
        tracer=NULL_TRACER,
        model_params=None,
        procs: int = 1,
        clock=time.perf_counter,
    ):
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.backend = backend
        self.policy = policy
        self.batch_max = batch_max
        self.max_queue = max_queue
        self.metrics = metrics or ServeMetrics(clock=clock)
        self.tracer = tracer
        self.model_params = model_params
        self.procs = procs
        self._clock = clock
        self._pending: dict[tuple, list[_Pending]] = {}
        self._inflight: list[_Pending] = []
        self._queued = 0
        self._closed = False
        self._wake = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._executor = ThreadPoolExecutor(1, thread_name_prefix="repro-serve")
        self._batch_ids = itertools.count(1)

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def close(self) -> None:
        """Stop dispatching; fail whatever is still pending, typed."""
        self._closed = True
        self._wake.set()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
        leftovers = list(self._inflight)
        for entries in self._pending.values():
            leftovers.extend(entries)
        for p in leftovers:
            if not p.future.done():
                p.future.set_exception(ShuttingDown("server is shutting down"))
        self._pending.clear()
        self._inflight = []
        self._queued = 0
        self._executor.shutdown(wait=True)

    # -- admission -----------------------------------------------------------
    @property
    def depth(self) -> int:
        return self._queued

    def retry_after_hint(self) -> float:
        """A coarse back-off: one batch's recent compute, at least 50 ms."""
        recent = list(self.metrics._compute)
        drain = recent[-1] if recent else 0.0
        return round(max(drain, 0.05), 3)

    def submit(self, request, rid: int = 0) -> asyncio.Future:
        """Enqueue; returns the future resolving to a :class:`BatchResult`."""
        if self._closed:
            raise ShuttingDown("server is shutting down")
        if self._queued >= self.max_queue:
            self.metrics.on_rejected()
            raise QueueFull(
                f"queue is full ({self._queued}/{self.max_queue} pending)",
                retry_after=self.retry_after_hint(),
            )
        future = asyncio.get_running_loop().create_future()
        entry = _Pending(request, future, self._clock(), rid)
        self._pending.setdefault(request.batch_key, []).append(entry)
        self._queued += 1
        self.metrics.on_enqueued(self._queued)
        self._wake.set()
        return future

    # -- dispatch loop -------------------------------------------------------
    def _candidates(self) -> list[Candidate]:
        out = []
        for key, entries in self._pending.items():
            items = min(len(entries), self.batch_max)
            out.append(
                Candidate(
                    key=key,
                    items=items,
                    arrival=entries[0].enqueued,
                    cost=estimate_cost(
                        key, items, params=self.model_params, p=self.procs
                    ),
                )
            )
        return out

    def _take(self, key: tuple) -> list[_Pending]:
        entries = self._pending[key]
        batch, rest = entries[: self.batch_max], entries[self.batch_max:]
        if rest:
            self._pending[key] = rest
        else:
            del self._pending[key]
        self._queued -= len(batch)
        self.metrics.on_dequeued(self._queued)
        # Callers that already gave up (timeout cancelled the future) are
        # dropped here, before the backend spends anything on them.
        return [p for p in batch if not p.future.done()]

    async def _run(self) -> None:
        while not self._closed:
            if not self._pending:
                self._wake.clear()
                await self._wake.wait()
                continue
            choice = self.policy.select(self._candidates())
            live = self._take(choice.key)
            if not live:
                continue
            self._inflight = live
            try:
                await self._dispatch(choice.key, live)
            finally:
                self._inflight = []

    async def _dispatch(self, key: tuple, live: list[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        batch_id = next(self._batch_ids)
        requests = [p.request for p in live]
        # The batch's request context: every id this dispatch acts for.
        # run_in_executor does not carry ContextVars into the worker thread,
        # so the backend call is routed through run_with_context explicitly —
        # the pool reads the context back out at dispatch time.
        ctx = RequestContext(
            rids=tuple(p.rid for p in live), batch=batch_id
        )
        started = self._clock()
        try:
            values = await loop.run_in_executor(
                self._executor, run_with_context, ctx, self.backend,
                key, requests,
            )
            error = None
        except asyncio.CancelledError:
            raise  # close() is tearing us down; it fails the futures, typed
        except BaseException as exc:  # typed per-request; the loop survives
            values, error = None, exc
        finished = self._clock()
        compute = finished - started
        self.metrics.on_batch(len(live))
        self.tracer.add_span(
            "serve_batch", "compute", started, finished,
            batch=batch_id, items=len(live), kind=key[0],
            rids=list(ctx.rids),
        )
        FLIGHT.span(
            "serve_batch", started, finished,
            batch=batch_id, items=len(live), kind=key[0],
            rids=list(ctx.rids), ok=error is None,
        )
        if error is not None:
            self.metrics.on_failed()
            for p in live:
                if not p.future.done():
                    p.future.set_exception(error)
            return
        for p, value in zip(live, values):
            if not p.future.done():
                p.future.set_result(
                    BatchResult(
                        value=value,
                        batch_size=len(live),
                        queue_wait=started - p.enqueued,
                        compute=compute,
                        batch_id=batch_id,
                    )
                )
