"""The real backend's trace counters match the analytic pipeline counts.

For a rank-1 chain of ``p`` workers running ``K = ceil(cols/b)`` pipeline
blocks each: every worker executes K blocks, every non-last worker sends
one token per block, every non-first worker receives one, and the bytes on
the wire are the boundary rows of every column exactly once per hop.
"""

import math
import os

import pytest

from repro.compiler import compile_scan
from repro.obs.phases import analyze_phases, residual_table
from repro.obs.trace import TRACE_ENV, Tracer
from repro.parallel import execute
from tests.conftest import record_tomcatv_block


def _traced_run(n=24, **kwargs):
    block, _ = record_tomcatv_block(n)
    compiled = compile_scan(block)
    run = execute(compiled, tracer=Tracer(), **kwargs)
    assert run.trace is not None
    return run, run.trace


class TestRank1Counters:
    def test_analytic_counts(self):
        p, b = 2, 4
        run, trace = _traced_run(grid=p, schedule="pipelined", block=b)
        cols = trace.meta["cols"]
        rows = trace.meta["rows"]
        m = trace.meta["boundary_rows"]
        k = math.ceil(cols / b)
        assert run.n_chunks == k
        assert trace.counter_total("blocks_executed") == p * k
        assert trace.counter_total("tokens_sent") == (p - 1) * k
        assert trace.counter_total("tokens_recv") == (p - 1) * k
        assert trace.counter_total("elements_computed") == rows * cols
        assert trace.counter_total("bytes_moved") == (p - 1) * m * cols * 8

    def test_meta_describes_run(self):
        run, trace = _traced_run(grid=2, schedule="pipelined", block=4)
        assert trace.clock == "wall"
        assert trace.meta["backend"] == "parallel"
        assert trace.meta["schedule"] == "pipelined"
        assert trace.meta["n_procs"] == 2
        assert trace.meta["pipeline_procs"] == 2
        assert trace.meta["block_size"] == 4
        assert trace.meta["wall_time"] == run.wall_time

    def test_per_worker_block_spans(self):
        run, trace = _traced_run(grid=2, schedule="pipelined", block=4)
        for proc in trace.procs():
            spans = [s for s in trace.worker_spans("compute") if s.proc == proc]
            assert len(spans) == run.n_chunks
            assert [s.args["block"] for s in spans] == list(range(run.n_chunks))
            assert all(s.args["elements"] > 0 for s in spans)
        widths = [
            s.args["width"]
            for s in trace.worker_spans("compute")
            if s.proc == 0
        ]
        assert sum(widths) == trace.meta["cols"]

    def test_compute_spans_tagged_with_plan_kind(self):
        # Tomcatv has one looped dim: the workers run flat kernel plans,
        # and every compute span says so.
        _, trace = _traced_run(grid=2, schedule="pipelined", block=4)
        plans = {s.args["plan"] for s in trace.worker_spans("compute")}
        assert plans == {"flat"}

    def test_skewed_blocks_tagged_skewed(self):
        # The alignment DP carries both dims: workers auto-select the
        # skewed plans inside their chunks and tag the spans accordingly.
        from repro.apps.alignment import build_score_block, nw_score_oracle

        a, b = "GATTACAGGTCC" * 6, "GCATGCUTACGG" * 6
        compiled, h = build_score_block(a, b)
        run = execute(
            compiled, grid=2, schedule="pipelined", block=18, tracer=Tracer()
        )
        plans = {s.args["plan"] for s in run.trace.worker_spans("compute")}
        assert plans == {"skewed"}
        assert h.to_numpy()[-1, -1] == nw_score_oracle(a, b)

    def test_phase_report_and_residuals_from_real_trace(self):
        _, trace = _traced_run(grid=2, schedule="pipelined", block=4)
        report = analyze_phases(trace)
        assert len(report.workers) == 2
        assert report.coverage == pytest.approx(1.0)
        rows = residual_table(trace)
        assert rows
        assert sum(r.width for r in rows) == trace.meta["cols"]
        assert all(r.predicted_compute >= 0 for r in rows)

    def test_naive_schedule_single_token(self):
        _, trace = _traced_run(grid=2, schedule="naive")
        assert trace.counter_total("blocks_executed") == 2
        assert trace.counter_total("tokens_sent") == 1


class TestRank2Counters:
    def test_independent_chains_exchange_nothing(self):
        # (1, 2): two single-stage chains — all compute, zero tokens.
        _, trace = _traced_run(n=16, grid=(1, 2), schedule="pipelined", block=4)
        rows, cols = trace.meta["rows"], trace.meta["cols"]
        assert trace.meta["pipeline_procs"] == 1
        assert trace.counter_total("tokens_sent") == 0
        assert trace.counter_total("tokens_recv") == 0
        assert trace.counter_total("elements_computed") == rows * cols

    @pytest.mark.skipif((os.cpu_count() or 1) < 4, reason="needs 4 cores")
    def test_mesh_2x2(self):
        run, trace = _traced_run(n=20, grid=(2, 2), schedule="pipelined", block=3)
        rows, cols = trace.meta["rows"], trace.meta["cols"]
        assert trace.meta["pipeline_procs"] == 2
        assert trace.counter_total("elements_computed") == rows * cols
        # Each chain: one sender, one receiver, one token per block.
        assert trace.counter_total("tokens_sent") == trace.counter_total(
            "tokens_recv"
        )
        assert trace.counter_total("tokens_sent") > 0
        assert trace.counter_total("bytes_moved") > 0
        assert len(trace.procs()) == 4


class TestDisabledByDefault:
    def test_no_trace_without_optin(self, monkeypatch):
        monkeypatch.delenv(TRACE_ENV, raising=False)
        block, _ = record_tomcatv_block(16)
        compiled = compile_scan(block)
        run = execute(compiled, grid=2, schedule="pipelined", block=8)
        assert run.trace is None
