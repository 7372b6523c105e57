"""Load-test bench for :mod:`repro.serve` — the batching win, measured.

Two measurement harnesses (see :mod:`repro.serve.client`):

* **Stepped open loop** — three offered-QPS levels against one server;
  per level: p50/p99 latency, sustained throughput, rejection rate and
  the server's batch-size histogram.  This is the latency-vs-load curve.
* **Closed-loop saturation** — 16 back-to-back clients flood one
  same-shape alignment request for a fixed time, once with coalescing
  disabled (``batch_max=1``: every request is its own kernel dispatch)
  and once with the server defaults (``batch_max=32``, dispatch as soon
  as compute is free, so each batch is whatever queued meanwhile — 16
  here).  The mechanism is exactly the paper's economics — the
  per-dispatch overhead (Python loop set-up per anti-diagonal, request
  plumbing) is paid once per fused rank-3 batch instead of once per
  request.  With the toolchain made to look absent (the *numpy*
  lowering, ≈ 120 plane steps per 60×60 request) the asserted gate is
  **>= 2x** the per-request-dispatch throughput: 5.4–5.6x on the 2-core
  dev host (3,599–3,779 against 638–705 req/s).  Under the native
  lowering a request is ≈ 10 µs of compiled nest and the rest is HTTP
  and dispatch plumbing; batching still amortises the dispatch, 2.2–2.5x
  there (5,540–7,067 against 2,486–2,781 req/s), and is gated at
  batched >= per-request, plus each side at least as fast as numpy made
  it.

Results land in ``BENCH_serve.json`` (:func:`repro.util.benchjson.write_bench`).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.apps import alignment
from repro.runtime import native
from repro.serve import ServeApp, ServeConfig
from repro.serve.client import run_closed_loop, run_open_loop, summarize
from repro.util.benchjson import write_bench
from tests.conftest import numpy_lowerings

#: One same-shape scoring request, the flood's unit of work.
SEQ_A = "ACGTAGGCTA" * 6
SEQ_B = "TTACGGATCC" * 6
PAYLOAD = {"kind": "nw", "a": SEQ_A, "b": SEQ_B}

QPS_LEVELS = (50, 150, 400)
OPEN_LOOP_SECONDS = 1.5
SATURATION_CLIENTS = 16
SATURATION_SECONDS = 2.0

_RESULTS: list[dict] = []


def _serve_config(**overrides) -> ServeConfig:
    values = dict(port=0, batch_max=32, max_queue=256, timeout=60.0)
    values.update(overrides)
    return ServeConfig(**values)


async def _with_app(config: ServeConfig, measure):
    app = ServeApp(config)
    await app.start()
    try:
        return await measure(app), app.metrics.snapshot()
    finally:
        await app.stop()


def test_stepped_open_loop_latency():
    """Latency/rejection across >= 3 offered-QPS levels, one server."""

    async def run():
        config = _serve_config()
        app = ServeApp(config)
        await app.start()
        levels = []
        try:
            for qps in QPS_LEVELS:
                samples = await run_open_loop(
                    "127.0.0.1", app.port, lambda i: PAYLOAD,
                    qps=qps, duration=OPEN_LOOP_SECONDS,
                )
                levels.append((qps, summarize(samples, OPEN_LOOP_SECONDS)))
        finally:
            await app.stop()
        return levels, app.metrics.snapshot()

    levels, metrics = asyncio.run(run())
    for qps, stats in levels:
        _RESULTS.append({
            "test": "open_loop",
            "offered_qps": qps,
            **stats,
            "batch_histogram": metrics["batches"]["histogram"],
        })
        assert stats["completed"] > 0, f"no request completed at {qps} qps"
        # An admitted request's latency stays bounded at every level.
        assert stats["p99_ms"] < 5_000
    # Offered load was met at the lowest level (no saturation there).
    low = levels[0][1]
    assert low["rejection_rate"] == 0.0
    assert low["completed"] >= QPS_LEVELS[0] * OPEN_LOOP_SECONDS * 0.9


def test_batching_doubles_saturated_throughput():
    """The gates: coalescing sustains >= 2x per-request-dispatch throughput
    on the numpy lowering and does not lose on the native one."""

    async def saturate(**overrides):
        async def measure(app):
            return await run_closed_loop(
                "127.0.0.1", app.port, lambda i, n: PAYLOAD,
                clients=SATURATION_CLIENTS, duration=SATURATION_SECONDS,
            )

        (samples, wall), metrics = await _with_app(
            _serve_config(**overrides), measure
        )
        return summarize(samples, wall), metrics

    async def run():
        per_request = await saturate(batch_max=1)
        batched = await saturate()
        return per_request, batched

    def pair(lowering: str):
        # A cached stacked plan keeps the runner it was built with, and a
        # runner fixes its lowering at construction: start each pair empty.
        alignment._BATCH_PLANS.clear()
        (per_stats, per_metrics), (bat_stats, bat_metrics) = asyncio.run(run())
        speedup = bat_stats["throughput_rps"] / max(
            per_stats["throughput_rps"], 1e-9
        )
        _RESULTS.append({
            "test": "saturation_per_request",
            "lowering": lowering,
            "clients": SATURATION_CLIENTS,
            **per_stats,
            "batch_histogram": per_metrics["batches"]["histogram"],
        })
        _RESULTS.append({
            "test": "saturation_batched",
            "lowering": lowering,
            "clients": SATURATION_CLIENTS,
            **bat_stats,
            "batch_histogram": bat_metrics["batches"]["histogram"],
            "speedup_vs_per_request": speedup,
        })
        assert per_stats["completed"] > 0 and bat_stats["completed"] > 0
        # Batching actually happened (fused dispatches larger than 1).
        assert bat_metrics["batches"]["mean_size"] > 1.5
        return per_stats["throughput_rps"], bat_stats["throughput_rps"], speedup

    with numpy_lowerings():
        numpy_lone, numpy_batched, speedup = pair("numpy")
    # Both pairs are measured (and recorded) before either is gated.
    native_rps = pair("native")[:2] if native.HOST.error is None else None
    # Batching bought the sustained-throughput multiple the design promises.
    assert speedup >= 2.0, (
        f"batched {numpy_batched:.0f} rps vs "
        f"per-request {numpy_lone:.0f} rps = {speedup:.2f}x"
    )
    if native_rps is not None:
        lone, batched = native_rps
        assert lone >= numpy_lone and batched >= numpy_batched, (
            f"native: per-request {lone:.0f} rps (numpy {numpy_lone:.0f}), "
            f"batched {batched:.0f} rps (numpy {numpy_batched:.0f})"
        )
        assert batched >= lone, (
            f"native: batched {batched:.0f} rps < per-request {lone:.0f} rps"
        )


@pytest.fixture(scope="module", autouse=True)
def _flush_results():
    yield
    if _RESULTS:
        write_bench(
            "serve",
            _RESULTS,
            meta={
                "qps_levels": list(QPS_LEVELS),
                "saturation_clients": SATURATION_CLIENTS,
                "pair_shape": [len(SEQ_A), len(SEQ_B)],
            },
        )
