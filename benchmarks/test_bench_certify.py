"""Certifier latency: how much does ``REPRO_CERTIFY=1`` cost per execute?

The certifier runs *before* every dispatch when the pre-flight knob is on,
so its wall time is pure overhead on the critical path.  This bench times
the two halves separately — projecting the compiled plan into a
:class:`ScheduleModel` and discharging the two proof obligations over it
— at every pseudo-schedule on a representative rank-2 wavefront, and
gates the end-to-end proof under a generous ceiling: certification must
stay far below the cost of the run it certifies.

Timings land in ``BENCH_certify.json`` next to the other artifacts.
"""

import os

import numpy as np
import pytest

from repro import zpl
from repro.analyze.certify import (
    PSEUDO_SCHEDULES,
    build_schedule_model,
    certify_model,
    schedule_kwargs,
)
from repro.compiler import compile_scan

#: Chunked-dimension length (override with ``REPRO_BENCH_CERTIFY_N``).
N = int(os.environ.get("REPRO_BENCH_CERTIFY_N", "512"))
WIDTH = 16
PROCS = 4
BLOCK = max(16, N // 32)
#: Ceiling on one full build+certify pass at any schedule.  The pre-flight
#: must be cheap relative to the multi-process run it guards: the pipe
#: protocols prove over the rank-x-block tile grid, while taskgraph walks
#: the full tile DAG, so the ceiling is set by the taskgraph pass.
MAX_PROOF_SECONDS = 2.0


def _wavefront_block(n, width):
    base = zpl.Region.of((1, n), (1, width))
    a = zpl.ZArray(base, name="a", fluff=2)
    rng = np.random.default_rng(11)
    a._data[...] = rng.uniform(0.5, 1.5, size=a._data.shape)
    region = zpl.Region.of((3, n), (3, width))
    # (0,1) and (1,1) dependences: fan-out 2 per producer, so the
    # "multicast" pseudo-schedule proves epoch waits with a real fan-out.
    with zpl.covering(region):
        with zpl.scan(execute=False) as block:
            a[...] = 0.3 + 0.4 * (a.p @ (0, -1)) + 0.2 * (a.p @ (-1, -1))
    return compile_scan(block)


@pytest.mark.parametrize("pseudo", PSEUDO_SCHEDULES)
def test_certify_latency(bench, pseudo):
    compiled = _wavefront_block(N, WIDTH)
    kwargs = schedule_kwargs(pseudo)

    def proof():
        model = build_schedule_model(
            compiled, grid=PROCS, block=BLOCK, **kwargs
        )
        return model, certify_model(model)

    model, diagnostics = bench(proof)
    assert diagnostics == [], (
        f"clean plan failed certification at {pseudo}: "
        + "; ".join(f"{d.code}: {d.message}" for d in diagnostics)
    )
    assert model.n_blocks >= 1
    stats = getattr(bench, "stats", None)
    if stats is not None:  # absent under --benchmark-disable
        assert stats.stats.min < MAX_PROOF_SECONDS, (
            f"certify pre-flight at {pseudo} took "
            f"{stats.stats.min:.3f}s (ceiling {MAX_PROOF_SECONDS}s) on a "
            f"{N}x{WIDTH} plan — the pre-flight must stay cheap relative "
            f"to the run it guards"
        )


def test_certify_model_only(bench):
    """The proof half alone: obligations over an already-built model."""
    compiled = _wavefront_block(N, WIDTH)
    model = build_schedule_model(
        compiled, grid=PROCS, block=BLOCK, **schedule_kwargs("multicast")
    )
    diagnostics = bench(certify_model, model)
    assert diagnostics == []
