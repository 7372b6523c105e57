"""Trace-context propagation and critical-path extraction.

A request id is minted once, in :mod:`repro.serve`, when a request is
admitted.  From there it must survive three hand-offs to reach the spans
that actually did the work:

1. **event loop → batcher**: requests that queued while the previous
   batch computed become one batch; the batch's :class:`RequestContext`
   carries all of their ids.
2. **event loop → backend thread**: ``loop.run_in_executor`` does *not*
   propagate :mod:`contextvars` into the worker thread, so the batcher
   wraps the backend call in :func:`run_with_context` explicitly.
3. **parent → pool workers**: the pool reads :func:`current_context` at
   dispatch, stamps the ids onto the job, and workers tag every per-block
   span with them.

The result is one id visible on ``serve_request`` → ``serve_batch`` →
``dispatch`` → per-block ``compute`` spans, which is what
:func:`critical_path` walks: starting from the last block to finish, it
follows whichever dependency (the serial predecessor on the same worker,
or the upstream token producer) finished later — the chain of spans that
actually bound the request's latency.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from repro.obs.trace import Span, Trace


@dataclass(frozen=True)
class RequestContext:
    """The ids of the serve requests a unit of work is acting for."""

    rids: tuple[int, ...]
    batch: int | None = None

    def tags(self) -> dict:
        """Span-args form: stamp these onto every downstream span."""
        out = {"rids": list(self.rids)}
        if self.batch is not None:
            out["batch"] = self.batch
        return out


_CONTEXT: contextvars.ContextVar[RequestContext | None] = (
    contextvars.ContextVar("repro_request_context", default=None)
)


def current_context() -> RequestContext | None:
    """The request context active in this thread/task, if any."""
    return _CONTEXT.get()


@contextmanager
def request_context(ctx: RequestContext | None):
    """Bind ``ctx`` as the active request context for the ``with`` body."""
    token = _CONTEXT.set(ctx)
    try:
        yield ctx
    finally:
        _CONTEXT.reset(token)


def run_with_context(ctx: RequestContext | None, fn: Callable, *args, **kwargs):
    """Call ``fn`` with ``ctx`` bound.

    The explicit thread hand-off: ``loop.run_in_executor`` copies the
    *submitting* context only for the callable's closure, not for the
    executor thread's ContextVar state, so the batcher routes backend
    calls through this shim.
    """
    with request_context(ctx):
        return fn(*args, **kwargs)


def current_tags() -> dict:
    """Span args for the active context, or ``{}`` when outside a request."""
    ctx = _CONTEXT.get()
    return ctx.tags() if ctx is not None else {}


# ---------------------------------------------------------------------------
# Request extraction and critical path
# ---------------------------------------------------------------------------

def span_rids(span: Span) -> tuple:
    """The request ids a span acted for (empty when untagged)."""
    rids = span.args.get("rids")
    if rids:
        return tuple(rids)
    rid = span.args.get("id")
    if rid is not None and span.name == "serve_request":
        return (rid,)
    return ()


@dataclass
class RequestSlice:
    """Every span a single request id touched, grouped by layer."""

    rid: int
    request: Span | None = None
    batches: list[Span] = field(default_factory=list)
    dispatches: list[Span] = field(default_factory=list)
    blocks: list[Span] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.request.duration if self.request is not None else 0.0


def request_slice(trace: Trace, rid: int) -> RequestSlice:
    """Collect the spans carrying ``rid`` across serve, batch, and pool."""
    out = RequestSlice(rid=rid)
    for span in trace.spans:
        if rid not in span_rids(span):
            continue
        if span.name == "serve_request":
            out.request = span
        elif span.name == "serve_batch":
            out.batches.append(span)
        elif span.name == "dispatch":
            out.dispatches.append(span)
        elif span.name == "compute" and "block" in span.args:
            out.blocks.append(span)
    return out


def block_spans(trace: Trace, rid: int | None = None) -> list[Span]:
    """Per-block compute spans, optionally filtered to one request id."""
    out = []
    for span in trace.spans:
        if span.name != "compute" or "block" not in span.args:
            continue
        if rid is not None and rid not in span_rids(span):
            continue
        out.append(span)
    return out


def critical_path(trace: Trace, rid: int | None = None) -> list[Span]:
    """The dependency chain of block spans that bounded completion.

    Walks backwards from the last block to finish.  A block ``(p, k)``
    depends on its serial predecessor ``(p, k-1)`` on the same worker and
    on the token producer ``(p-1, k)`` upstream; the walk follows
    whichever finished later, i.e. the edge that actually gated the
    block's start.  Returns spans in execution order; the summed duration
    is a lower bound on — and never exceeds — the request wall time.
    """
    blocks = block_spans(trace, rid)
    if not blocks:
        return []
    by_key: dict[tuple, Span] = {}
    for span in blocks:
        key = (span.proc, span.args["block"])
        prior = by_key.get(key)
        if prior is None or span.end > prior.end:
            by_key[key] = span
    procs = sorted({p for p, _ in by_key})
    upstream = {p: (procs[i - 1] if i else None) for i, p in enumerate(procs)}

    cur = max(by_key.values(), key=lambda s: s.end)
    path = [cur]
    while True:
        p, k = cur.proc, cur.args["block"]
        preds = [by_key.get((p, k - 1))]
        if upstream[p] is not None:
            preds.append(by_key.get((upstream[p], k)))
        preds = [s for s in preds if s is not None and s is not cur]
        if not preds:
            break
        cur = max(preds, key=lambda s: s.end)
        path.append(cur)
    path.reverse()
    return path


def path_duration(path: list[Span]) -> float:
    """Total busy time along a critical path (gaps excluded)."""
    return sum(span.duration for span in path)
