"""repro.serve — an async batch-serving front end for wavefront programs.

The paper's pipelining story, turned outward: where
:mod:`repro.parallel` pipelines *one* wavefront across processors, this
subsystem pipelines *many requests* through one compiled plan.  An
asyncio HTTP/JSON server accepts alignment scoring requests
(``POST /v1/align``) and generic compiled-scan requests
(``POST /v1/zpl``); requests that share a coalescing key — same shape,
same scoring parameters, same program — and queue while the previous
batch computes are fused into **one** batched kernel dispatch (a rank-3
stacked scan for alignment), so the per-dispatch overhead the paper's
α+β model prices is paid once per batch instead of once per request.

Layers (each importable and testable on its own):

* :mod:`repro.serve.protocol` — request schema, validation, typed errors;
* :mod:`repro.serve.scheduler` — FIFO/SJF batch ordering, Model-2 costs;
* :mod:`repro.serve.batching` — the per-key queues + dispatch-when-idle;
* :mod:`repro.serve.metrics` — counters, percentiles, ``/metrics``;
* :mod:`repro.serve.server` — the asyncio HTTP shell + compute backend;
* :mod:`repro.serve.client` — a stdlib client and load generators.

``python -m repro.serve`` runs a server; ``python -m repro.serve smoke``
runs the self-checking smoke used by CI.  See ``docs/serving.md``.
"""

from repro.serve.batching import Batcher, BatchResult
from repro.serve.client import (
    Sample,
    ServeClient,
    run_closed_loop,
    run_open_loop,
    summarize,
)
from repro.serve.metrics import ServeMetrics, percentile
from repro.serve.protocol import (
    AlignRequest,
    BackendBroken,
    BadRequest,
    PayloadTooLarge,
    QueueFull,
    RequestTimeout,
    ServeError,
    ShuttingDown,
    ZplRequest,
    parse_align,
    parse_request,
    parse_zpl,
)
from repro.serve.scheduler import (
    FIFOPolicy,
    SJFPolicy,
    estimate_cost,
    make_policy,
)
from repro.serve.server import ComputeBackend, ServeApp, ServeConfig

__all__ = [
    "AlignRequest",
    "BackendBroken",
    "BadRequest",
    "Batcher",
    "BatchResult",
    "ComputeBackend",
    "FIFOPolicy",
    "PayloadTooLarge",
    "QueueFull",
    "RequestTimeout",
    "SJFPolicy",
    "Sample",
    "ServeApp",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeMetrics",
    "ShuttingDown",
    "ZplRequest",
    "estimate_cost",
    "make_policy",
    "parse_align",
    "parse_request",
    "parse_zpl",
    "percentile",
    "run_closed_loop",
    "run_open_loop",
    "summarize",
]
