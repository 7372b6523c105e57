"""End-to-end request tracing and live telemetry through the serve stack.

The acceptance path for request-context propagation: a ``/v1/align``
request served through a real 2-worker pool must carry one request id
across every layer — ``serve_request`` (event loop), ``serve_batch``
(batcher), ``dispatch`` (pool parent), and the per-block worker
``compute`` spans — and critical-path extraction over those blocks must
return a non-empty chain bounded by the request's wall time.  The same
run feeds ``/metrics`` in both of its content-negotiated forms.
"""

import asyncio

import pytest

from repro.apps.alignment import nw_score_oracle
from repro.obs import Tracer
from repro.obs.live import (
    critical_path,
    path_duration,
    request_slice,
    span_rids,
)
from repro.obs.live.prometheus import CONTENT_TYPE
from repro.serve import ServeApp, ServeConfig

PAIRS = [
    ("GATTACAGATTACAGATTACA", "GCATGCAGCATGCAGCATGCA"),
    ("ACGTACGTACGTACGTACGTA", "TACGTACGTACGTACGTACGT"),
]


@pytest.fixture(scope="module")
def served():
    """Serve two concurrent nw requests through a pooled backend once."""

    async def scenario():
        tracer = Tracer()
        app = ServeApp(ServeConfig(
            batch_max=8, max_queue=32, timeout=90.0,
            grid=2, tracer=tracer,
        ))
        app.batcher.start()
        try:
            responses = await asyncio.gather(*(
                app.handle("POST", "/v1/align",
                           {"kind": "nw", "a": a, "b": b})
                for a, b in PAIRS
            ))
            json_doc = (await app.handle("GET", "/metrics", None))[1]
            prom = await app.handle(
                "GET", "/metrics", None,
                accept="text/plain; version=0.0.4",
            )
        finally:
            await app.batcher.close()
            app.backend.close()
        return responses, app.trace(), json_doc, prom

    return asyncio.run(scenario())


class TestEndToEndTrace:
    def test_requests_served_correctly(self, served):
        responses, _, _, _ = served
        for (status, body, _), (a, b) in zip(responses, PAIRS):
            assert status == 200
            assert body["score"] == pytest.approx(
                nw_score_oracle(a, b, 2.0, -1.0, 1.0)
            )
        ids = {body["id"] for _, body, _ in responses}
        assert len(ids) == len(PAIRS)

    def test_one_id_spans_every_layer(self, served):
        responses, trace, _, _ = served
        rid = responses[0][1]["id"]
        s = request_slice(trace, rid)
        assert s.request is not None
        assert s.request.args["id"] == rid
        assert len(s.batches) >= 1, "id missing from serve_batch spans"
        assert len(s.dispatches) >= 1, "id missing from pool dispatch spans"
        assert len(s.blocks) >= 1, "id missing from per-block worker spans"
        # Every layer carries the id explicitly, not by coincidence.
        for span in [*s.batches, *s.dispatches, *s.blocks]:
            assert rid in span_rids(span)
        # Worker blocks ran in the worker processes, not the driver.
        assert {b.proc for b in s.blocks} <= {0, 1}

    def test_critical_path_nonempty_and_bounded(self, served):
        responses, trace, _, _ = served
        for _, body, _ in responses:
            rid = body["id"]
            s = request_slice(trace, rid)
            path = critical_path(trace, rid)
            assert path, f"empty critical path for request {rid}"
            assert path_duration(path) > 0.0
            assert path_duration(path) <= s.wall * (1 + 1e-9)
            # The chain ends at the last block to finish.
            assert path[-1].end == max(b.end for b in s.blocks)

    def test_blocks_nest_inside_request_window(self, served):
        responses, trace, _, _ = served
        rid = responses[0][1]["id"]
        s = request_slice(trace, rid)
        for block in s.blocks:
            assert block.start >= s.request.start - 1e-9
            assert block.end <= s.request.end + 1e-9


class TestMetricsEndpoint:
    def test_json_document_carries_live_telemetry(self, served):
        _, _, doc, _ = served
        assert doc["requests"]["completed"] >= len(PAIRS)
        workers = doc["workers"]
        assert set(workers) >= {"0", "1"}
        for rank in ("0", "1"):
            assert workers[rank]["busy_seconds"] > 0.0
            assert workers[rank]["blocks_total"] >= 1
            assert workers[rank]["elements_total"] > 0
        assert doc["model"]["samples"] >= 1
        assert doc["flight"]["written"] > 0
        assert doc["flight"]["capacity"] >= 1

    def test_prometheus_negotiated_exposition(self, served):
        _, _, _, (status, body, headers) = served
        assert status == 200
        assert isinstance(body, str)
        assert dict(headers)["Content-Type"] == CONTENT_TYPE
        for metric in (
            "repro_serve_requests_total",
            "repro_serve_latency_seconds",
            "repro_pool_worker_busy_seconds",
            "repro_model_alpha_seconds",
            "repro_model_beta_seconds_per_element",
            "repro_model_drift ",
            "repro_flight_events_total",
        ):
            assert metric in body, f"{metric} missing from exposition"
        assert "# TYPE repro_serve_requests_total counter" in body
