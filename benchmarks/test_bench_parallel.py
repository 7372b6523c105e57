"""The real machine, measured: multiprocess backend vs its own prediction.

Unlike every other bench in this suite, the times here are *not* produced by
the virtual clock: :func:`repro.parallel.bench.speedup_curve` runs the
Tomcatv forward wavefront across real OS processes, verifies the results
element-identical to the sequential engine, and records the simulator's
prediction for the same measured machine parameters alongside.  The payload
is written to ``BENCH_parallel.json`` directly (this module bypasses
pytest-benchmark — the workers carry their own clocks).

With ``REPRO_TRACE=1`` each processor count also yields one traced run,
written beside the bench artifact as ``TRACE_parallel_p<p>.json`` (the
:mod:`repro.obs` schema) plus a ``.chrome.json`` Perfetto export.

Sizes are CI-safe: two process counts, two repeats, a small mesh.
"""

from repro.obs import Trace, write_chrome
from repro.parallel import speedup_curve
from repro.util.benchjson import bench_dir, read_bench, write_bench

#: Process counts measured in CI; local runs can sweep further.
PROCS = (1, 2)


def test_measured_speedup_curve_artifact():
    payload = speedup_curve(n=64, procs=PROCS, repeats=2, use_pool=True)
    results = payload.pop("results")
    traces = payload.pop("traces", None)
    path = write_bench("parallel", results, meta=payload)

    if traces:
        out_dir = bench_dir()
        for p, data in sorted(traces.items()):
            trace = Trace.from_dict(data)
            trace.save(out_dir / f"TRACE_parallel_p{p}.json")
            write_chrome(trace, out_dir / f"TRACE_parallel_p{p}.chrome.json")

    written = read_bench("parallel")
    recorded = written["results"]
    assert len(recorded) == len(PROCS)
    for record, p in zip(recorded, PROCS):
        assert record["procs"] == p
        assert record["measured_seconds"] > 0
        assert record["predicted_seconds"] > 0
        assert record["verified_identical"] is True
        assert record["pool"] is True
    machine = written["meta"]["machine"]
    assert machine["alpha_seconds"] > 0
    # both dispatch regimes are persisted: the in-process block path's cost,
    # and the pooled cost Eq. (1) sees under the persistent pool.
    assert machine["dispatch_seconds_per_block"] > 0
    assert machine["dispatch_seconds_per_block_pooled"] >= 0
    assert "oversubscribed" in written["meta"]
    assert written["meta"]["host"]["cpu_count"] >= 1
    assert path.name == "BENCH_parallel.json"
