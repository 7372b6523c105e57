"""End-to-end serving contract: correctness, coalescing, shedding, recovery.

These tests drive a real :class:`~repro.serve.ServeApp` over real sockets
on an ephemeral port — the same transport the CLI serves — and assert the
contract docs/serving.md promises: right scores, fused batches, typed
errors for every failure mode, and no failure poisoning the next request.
"""

import asyncio
import threading
import time

import pytest

from repro.apps.alignment import nw_score_oracle, smith_waterman_score
from repro.errors import PoolBrokenError
from repro.obs import Tracer
from repro.serve import ServeApp, ServeConfig, ShuttingDown
from repro.serve.client import ServeClient


def _run(coro):
    return asyncio.run(coro)


async def _start(**overrides) -> ServeApp:
    values = dict(port=0, batch_max=16, max_queue=64, timeout=15.0)
    values.update(overrides)
    app = ServeApp(ServeConfig(**values))
    await app.start()
    return app


async def _until(condition, timeout=5.0):
    """Yield to the event loop until ``condition()`` holds, or time out."""

    async def poll():
        while not condition():
            await asyncio.sleep(0.001)

    await asyncio.wait_for(poll(), timeout)


async def _post_align(port, kind, a, b, **scores):
    async with ServeClient("127.0.0.1", port) as client:
        return await client.post(
            "/v1/align", {"kind": kind, "a": a, "b": b, **scores}
        )


class TestAlignEndpoint:
    def test_concurrent_scores_match_oracle_and_coalesce(self):
        pairs = [("GATTACA", "GCATGCU"), ("ACGTACG", "TACGTAC"),
                 ("AAAACCC", "AAACCCC"), ("CCCGGGA", "GGGCCCA")]

        async def scenario():
            app = await _start()
            real_backend = app.batcher.backend
            entered, release = threading.Event(), threading.Event()
            sizes = []

            def held(key, requests):
                sizes.append(len(requests))
                entered.set()
                release.wait(10)
                return real_backend(key, requests)

            app.batcher.backend = held
            try:
                # The first request occupies the compute thread; the other
                # three queue behind it and become the next dispatch.
                first = asyncio.ensure_future(
                    _post_align(app.port, "nw", *pairs[0])
                )
                await _until(entered.is_set)
                rest = [asyncio.ensure_future(_post_align(app.port, "nw", a, b))
                        for a, b in pairs[1:]]
                await _until(lambda: app.batcher.depth == len(rest))
                release.set()
                responses = await asyncio.gather(first, *rest)
            finally:
                release.set()
                await app.stop()
            return responses, sizes, app.metrics.snapshot()

        responses, sizes, metrics = _run(scenario())
        for (status, _, body), (a, b) in zip(responses, pairs):
            assert status == 200
            assert body["score"] == nw_score_oracle(a, b, 2.0, -1.0, 1.0)
        assert sizes == [1, 3]
        assert [body["batch"] for _, _, body in responses] == [1, 3, 3, 3]
        assert metrics["batches"]["dispatched"] == 2
        assert metrics["requests"]["completed"] == len(pairs)

    def test_sw_and_custom_scores(self):
        async def scenario():
            app = await _start()
            try:
                sw = await _post_align(app.port, "sw", "GGTTGACTA", "TGTTACGG")
                nw = await _post_align(app.port, "nw", "ACGT", "ACG",
                                       match=3.0, gap=0.5)
            finally:
                await app.stop()
            return sw, nw

        (sw_status, _, sw_body), (nw_status, _, nw_body) = _run(scenario())
        assert sw_status == 200
        assert sw_body["score"] == pytest.approx(
            smith_waterman_score("GGTTGACTA", "TGTTACGG")
        )
        assert nw_status == 200
        assert nw_body["score"] == pytest.approx(
            nw_score_oracle("ACGT", "ACG", 3.0, -1.0, 0.5)
        )

    def test_mixed_keys_do_not_cross_batch(self):
        async def scenario():
            app = await _start()
            try:
                responses = await asyncio.gather(
                    _post_align(app.port, "nw", "ACGTACG", "TACGTAC"),
                    _post_align(app.port, "sw", "ACGTACG", "TACGTAC"),
                )
            finally:
                await app.stop()
            return responses

        (nw_s, _, nw_b), (sw_s, _, sw_b) = _run(scenario())
        assert nw_s == sw_s == 200
        # Different modes never share a fused dispatch.
        assert nw_b["batch"] == 1 and sw_b["batch"] == 1
        assert nw_b["score"] == pytest.approx(
            nw_score_oracle("ACGTACG", "TACGTAC", 2.0, -1.0, 1.0)
        )


class TestZplEndpoint:
    SOURCE = """
    direction nw = (-1, -1);
    [2..8, 2..8] scan
        h := h'@nw + 1.0;
    end;
    """

    def test_wavefront_roundtrip(self):
        async def scenario():
            app = await _start()
            try:
                async with ServeClient("127.0.0.1", app.port) as client:
                    return await client.post("/v1/zpl", {
                        "source": self.SOURCE,
                        "arrays": {"h": {"lo": [1, 1], "hi": [8, 8]}},
                    })
            finally:
                await app.stop()

        status, _, body = _run(scenario())
        assert status == 200
        h = body["arrays"]["h"]
        # The scan's new-value diagonal dependence cascades: h[i,i] = i-1.
        assert [h[i][i] for i in range(8)] == [float(max(i - 1, 0))
                                               for i in range(1, 9)]

    def test_broken_program_is_typed_400(self):
        async def scenario():
            app = await _start()
            try:
                async with ServeClient("127.0.0.1", app.port) as client:
                    bad = await client.post("/v1/zpl", {
                        "source": "[1..4] nosuch := other + 1;",
                        "arrays": {"h": {"lo": [1], "hi": [4]}},
                    })
                    good = await client.post("/v1/zpl", {
                        "source": "[1..4, 1..4] h := h + 1.0;",
                        "arrays": {"h": {"lo": [1, 1], "hi": [4, 4]}},
                    })
            finally:
                await app.stop()
            return bad, good

        (bad_status, _, bad_body), (good_status, _, _) = _run(scenario())
        assert bad_status == 400
        assert bad_body["error"] == "bad_request"
        # A failed program never poisons the next request.
        assert good_status == 200


class TestErrorContract:
    def test_http_routing_errors(self):
        async def scenario():
            app = await _start()
            try:
                async with ServeClient("127.0.0.1", app.port) as client:
                    missing = await client.get("/v1/nope")
                    wrong_method = await client.get("/v1/align")
                    not_json = await client.request("POST", "/v1/align")
                    malformed = await client.post(
                        "/v1/align", {"kind": "nope"}
                    )
                    healthy = await client.get("/healthz")
            finally:
                await app.stop()
            return missing, wrong_method, not_json, malformed, healthy

        missing, wrong_method, not_json, malformed, healthy = _run(scenario())
        assert missing[0] == 404
        assert wrong_method[0] == 405
        assert not_json[0] == 400
        assert malformed[0] == 400 and malformed[2]["error"] == "bad_request"
        assert healthy[0] == 200 and healthy[2]["ok"] is True

    def test_timeout_is_typed_504_and_recovers(self):
        async def scenario():
            app = await _start(timeout=0.1)
            real_backend = app.batcher.backend

            def stall(key, requests):
                time.sleep(0.4)
                return real_backend(key, requests)

            app.batcher.backend = stall
            try:
                status, _, body = await _post_align(app.port, "nw", "AC", "GT")
                app.batcher.backend = real_backend
                # Let the stalled batch drain off the compute thread, then
                # verify it poisoned nothing.
                await asyncio.sleep(0.45)
                after = await _post_align(app.port, "nw", "ACG", "GTC")
            finally:
                await app.stop()
            return (status, body), after, app.metrics.snapshot()

        (status, body), (after_status, _, _), metrics = _run(scenario())
        assert status == 504 and body["error"] == "timeout"
        assert after_status == 200  # the stalled batch did not poison us
        assert metrics["requests"]["timeouts"] == 1

    def test_overload_sheds_429_with_retry_after(self):
        async def scenario():
            app = await _start(max_queue=4, batch_max=4, timeout=30.0)
            real_backend = app.batcher.backend

            def slow(key, requests):
                time.sleep(0.05)
                return real_backend(key, requests)

            app.batcher.backend = slow
            try:
                flood = await asyncio.gather(*(
                    _post_align(app.port, "nw", "ACGTACGT", "TACGTACG")
                    for _ in range(24)
                ))
            finally:
                await app.stop()
            return flood, app.metrics.snapshot()

        flood, metrics = _run(scenario())
        shed = [(s, h, b) for s, h, b in flood if s == 429]
        served = [(s, h, b) for s, h, b in flood if s == 200]
        assert shed, "a 6x-overloaded tiny queue must shed"
        assert served, "admitted requests still complete under overload"
        for _, headers, body in shed:
            # RFC 9110 §10.2.3: delay-seconds is a non-negative integer.
            assert headers["retry-after"].isdigit()
            assert int(headers["retry-after"]) >= 1
            assert body["error"] == "queue_full"
            assert body["retry_after"] > 0
        assert metrics["requests"]["rejected"] == len(shed)
        # Accepted requests' latency stays bounded while shedding:
        # at most (queue bound / smallest batch) dispatches ahead of any
        # admitted request, far under the per-request deadline.
        assert metrics["latency_ms"]["p99"] < 10_000

    def test_broken_pool_is_typed_503_and_recovers(self):
        async def scenario():
            app = await _start()
            real_backend = app.batcher.backend

            def broken(key, requests):
                raise PoolBrokenError("pool worker(s) [1] died")

            app.batcher.backend = broken
            try:
                status, _, body = await _post_align(app.port, "nw", "AC", "GT")
                app.batcher.backend = real_backend
                after = await _post_align(app.port, "nw", "AC", "GT")
            finally:
                await app.stop()
            return (status, body), after

        (status, body), (after_status, _, after_body) = _run(scenario())
        assert status == 503 and body["error"] == "pool_broken"
        assert after_status == 200
        assert after_body["score"] == pytest.approx(
            nw_score_oracle("AC", "GT", 2.0, -1.0, 1.0)
        )


class TestLifecycleAndObservability:
    def test_clean_shutdown_rejects_new_submissions(self):
        async def scenario():
            app = await _start()
            await app.stop()
            from repro.serve import parse_align

            with pytest.raises(ShuttingDown):
                app.batcher.submit(
                    parse_align({"kind": "nw", "a": "A", "b": "C"})
                )
            return app.batcher.depth

        assert _run(scenario()) == 0

    def test_metrics_and_trace_record_the_run(self):
        async def scenario():
            app = await _start(tracer=Tracer())
            try:
                await asyncio.gather(*(
                    _post_align(app.port, "nw", "GATTACA", "GCATGCU")
                    for _ in range(3)
                ))
                async with ServeClient("127.0.0.1", app.port) as client:
                    _, _, metrics = await client.get("/metrics")
            finally:
                await app.stop()
            return metrics, app.trace()

        metrics, trace = _run(scenario())
        assert metrics["requests"]["completed"] == 3
        assert metrics["throughput_rps"] > 0
        assert metrics["latency_ms"]["p99"] >= metrics["latency_ms"]["p50"] > 0
        assert sum(metrics["batches"]["histogram"].values()) \
            == metrics["batches"]["dispatched"]
        assert trace.meta["backend"] == "serve"
        requests = [s for s in trace.spans if s.name == "serve_request"]
        batches = [s for s in trace.spans if s.name == "serve_batch"]
        assert len(requests) == 3 and batches
        assert all(s.args["status"] == 200 for s in requests)
        assert sum(b.args["items"] for b in batches) == 3
