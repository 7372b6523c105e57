"""The wavefront race sanitizer on the real multiprocess backend.

Clean pipelined and naive runs (rank-1 chain and rank-2 mesh) must pass the
happens-before checks *and* stay bit-identical to the sequential engine; the
injected early-release token-protocol violation must be detected
deterministically.  Worker counts stay at two, matching the rest of the
parallel suite.

Coverage extends to every fabric and both process backends: the multicast
epoch fabric (the ``early-publish`` injection must trip) and the persistent
worker pool (a sanitized run stays bit-identical and every injection kind
still trips, breaking the pool as any failed run does).  The sanitizer is
one wrapper around the sync protocol of one block loop, so the closing
section runs the same clean and must-trip cases on both executors and
checks a sanitized run is as observable as a plain one.
"""

import numpy as np
import pytest

from repro import zpl
from repro.analyze.sanitizer import parse_inject
from repro.compiler import compile_scan
from repro.errors import PoolBrokenError, SanitizerError
from repro.obs import Tracer
from repro.obs.phases import analyze_phases
from repro.parallel import execute
from repro.parallel.pool import WorkerPool
from repro.runtime import execute_vectorized, run_and_capture
from repro.zpl import NORTH, Region
from tests.conftest import record_tomcatv_block


def _single_stream(n=32):
    a = zpl.ZArray(Region.square(1, n), name="a")
    rng = np.random.default_rng(5)
    a.load(rng.uniform(0.2, 1.0, size=(n, n)))
    with zpl.covering(Region.of((2, n), (1, n))):
        with zpl.scan(execute=False) as block:
            a[...] = 0.9 * (a.p @ NORTH) + 0.1
    return compile_scan(block), (a,)


def _assert_sanitized_matches(compiled, arrays, **kwargs):
    oracle = run_and_capture(execute_vectorized, compiled, arrays)
    runs = []

    def engine(c):
        runs.append(execute(c, sanitize=True, **kwargs))

    got = run_and_capture(engine, compiled, arrays)
    for array, want, have in zip(arrays, oracle, got):
        np.testing.assert_array_equal(
            have, want, err_msg=f"array {array.name} diverged under sanitizer"
        )
    return runs[0]


def test_parse_inject():
    assert parse_inject(None) is None
    assert parse_inject("") is None
    assert parse_inject("early-release:1:3") == ("early-release", 1, 3)
    assert parse_inject("early-publish:0:2") == ("early-publish", 0, 2)
    with pytest.raises(SanitizerError, match="expected"):
        parse_inject("late-release:1:3")
    with pytest.raises(SanitizerError, match="integers"):
        parse_inject("early-release:one:3")


def test_clean_pipelined_rank1():
    compiled, arrays = _single_stream()
    run = _assert_sanitized_matches(
        compiled, arrays, grid=2, schedule="pipelined", block=8
    )
    assert run.n_procs == 2 and run.n_chunks > 1


def test_clean_naive_rank1():
    compiled, arrays = _single_stream()
    run = _assert_sanitized_matches(compiled, arrays, grid=2, schedule="naive")
    assert run.schedule == "naive"


def test_clean_pipelined_rank2_mesh():
    # Rank-2 processor grid: two independent chains over the tomcatv block.
    block, arrays = record_tomcatv_block(16)
    run = _assert_sanitized_matches(
        compile_scan(block), arrays, grid=(1, 2), schedule="pipelined", block=4
    )
    assert run.grid_dims == (1, 2)


def test_env_knob_enables_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    compiled, arrays = _single_stream(24)
    oracle = run_and_capture(execute_vectorized, compiled, arrays)
    got = run_and_capture(
        lambda c: execute(c, grid=2, schedule="pipelined", block=6),
        compiled,
        arrays,
    )
    for want, have in zip(oracle, got):
        np.testing.assert_array_equal(have, want)


def test_injected_early_release_detected(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE_INJECT", "early-release:0:0")
    compiled, _ = _single_stream()
    with pytest.raises(SanitizerError, match="wavefront race"):
        execute(compiled, grid=2, schedule="pipelined", block=8, sanitize=True)


def test_injected_mid_pipeline_block_detected(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE_INJECT", "early-release:0:2")
    compiled, _ = _single_stream()
    with pytest.raises(SanitizerError, match="wavefront race"):
        execute(compiled, grid=2, schedule="pipelined", block=8, sanitize=True)


def test_injection_ignored_without_matching_rank(monkeypatch):
    # The fault targets a rank that never sends; the run stays clean.
    monkeypatch.setenv("REPRO_SANITIZE_INJECT", "early-release:7:0")
    compiled, arrays = _single_stream(24)
    _assert_sanitized_matches(
        compiled, arrays, grid=2, schedule="pipelined", block=6
    )


# ---------------------------------------------------------------------------
# Multicast fabric coverage: clocks ride the epoch-clock rows.
# ---------------------------------------------------------------------------
def test_clean_multicast_sanitized(monkeypatch):
    monkeypatch.setenv("REPRO_MULTICAST", "1")
    compiled, arrays = _single_stream()
    run = _assert_sanitized_matches(
        compiled, arrays, grid=2, schedule="pipelined", block=8
    )
    assert run.fabric == "multicast"


def test_injected_early_publish_detected(monkeypatch):
    monkeypatch.setenv("REPRO_MULTICAST", "1")
    monkeypatch.setenv("REPRO_SANITIZE_INJECT", "early-publish:0:0")
    compiled, _ = _single_stream()
    with pytest.raises(SanitizerError, match="wavefront race"):
        execute(compiled, grid=2, schedule="pipelined", block=8, sanitize=True)


def test_injected_mid_stream_early_publish_detected(monkeypatch):
    monkeypatch.setenv("REPRO_MULTICAST", "1")
    monkeypatch.setenv("REPRO_SANITIZE_INJECT", "early-publish:0:2")
    compiled, _ = _single_stream()
    with pytest.raises(SanitizerError, match="wavefront race"):
        execute(compiled, grid=2, schedule="pipelined", block=8, sanitize=True)


def test_early_publish_ignored_on_pipes(monkeypatch):
    # The fault targets the epoch fabric; a pipes run has no publishes, so
    # the run must stay clean (and bit-identical).
    monkeypatch.setenv("REPRO_SANITIZE_INJECT", "early-publish:0:0")
    compiled, arrays = _single_stream(24)
    _assert_sanitized_matches(
        compiled, arrays, grid=2, schedule="pipelined", block=6
    )


# ---------------------------------------------------------------------------
# Worker-pool coverage: clocks ride the result channel.
# ---------------------------------------------------------------------------
def test_pool_sanitized_pipes_matches():
    compiled, arrays = _single_stream()
    with WorkerPool(2) as pool:
        run = _assert_sanitized_matches(
            compiled, arrays, pool=pool, schedule="pipelined", block=8
        )
        assert run.fabric == "pipes"
        # A second sanitized run on the warm pool: the per-run shadow
        # segment must not leak state between requests.
        _assert_sanitized_matches(
            compiled, arrays, pool=pool, schedule="pipelined", block=8
        )


def test_pool_sanitized_multicast_matches(monkeypatch):
    monkeypatch.setenv("REPRO_MULTICAST", "1")
    compiled, arrays = _single_stream()
    with WorkerPool(2) as pool:
        run = _assert_sanitized_matches(
            compiled, arrays, pool=pool, schedule="pipelined", block=8
        )
        assert run.fabric == "multicast"
        # An unsanitized request after a sanitized one reuses the cached
        # channel without the shadow plane.
        execute(compiled, pool=pool, schedule="pipelined", block=8)


def test_pool_injected_early_release_detected(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE_INJECT", "early-release:0:0")
    compiled, _ = _single_stream()
    with WorkerPool(2) as pool:
        with pytest.raises(SanitizerError, match="wavefront race"):
            execute(
                compiled, pool=pool, schedule="pipelined", block=8,
                sanitize=True,
            )
        # A detected race is a failed run: the pool breaks by contract.
        with pytest.raises(PoolBrokenError):
            execute(compiled, pool=pool, schedule="pipelined", block=8)


def test_pool_injected_early_publish_detected(monkeypatch):
    monkeypatch.setenv("REPRO_MULTICAST", "1")
    monkeypatch.setenv("REPRO_SANITIZE_INJECT", "early-publish:0:1")
    compiled, _ = _single_stream()
    with WorkerPool(2) as pool:
        with pytest.raises(SanitizerError, match="wavefront race"):
            execute(
                compiled, pool=pool, schedule="pipelined", block=8,
                sanitize=True,
            )


def test_pool_sanitized_taskgraph_and_early_fire(monkeypatch):
    compiled, arrays = _single_stream()
    with WorkerPool(2) as pool:
        _assert_sanitized_matches(
            compiled, arrays, pool=pool, schedule="taskgraph", block=8
        )
    monkeypatch.setenv("REPRO_SANITIZE_INJECT", "early-fire:0:20")
    with WorkerPool(2) as pool:
        with pytest.raises(SanitizerError, match="wavefront race"):
            execute(
                compiled, pool=pool, schedule="taskgraph", block=8,
                sanitize=True,
            )


def test_pool_env_knob_enables_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    compiled, arrays = _single_stream(24)
    oracle = run_and_capture(execute_vectorized, compiled, arrays)
    with WorkerPool(2) as pool:
        got = run_and_capture(
            lambda c: execute(c, pool=pool, schedule="pipelined", block=6),
            compiled,
            arrays,
        )
    for want, have in zip(oracle, got):
        np.testing.assert_array_equal(have, want)


# ---------------------------------------------------------------------------
# Executor parity: one wrapped protocol under both process lifecycles.
# ---------------------------------------------------------------------------
@pytest.fixture(params=["fork", "pool"])
def on_executor(request):
    if request.param == "fork":
        yield {"grid": 2}
    else:
        with WorkerPool(2) as pool:
            yield {"pool": pool}


@pytest.mark.parametrize(
    "kwargs, fabric",
    [
        (dict(schedule="naive"), "pipes"),
        (dict(schedule="pipelined", block=8, multicast=False), "pipes"),
        (dict(schedule="pipelined", block=8, multicast=True), "multicast"),
    ],
    ids=["naive", "pipes", "multicast"],
)
def test_sanitized_run_is_clean_and_observable(on_executor, kwargs, fabric):
    compiled, arrays = _single_stream()
    run = _assert_sanitized_matches(
        compiled, arrays, tracer=Tracer(), **kwargs, **on_executor
    )
    assert run.fabric == fabric
    trace = run.trace
    assert trace.meta["sanitize"] is True
    # The same span and counter schema as an unsanitized run...
    for proc in trace.procs():
        blocks = [
            s.args["block"] for s in trace.worker_spans("compute")
            if s.proc == proc
        ]
        assert blocks == list(range(run.n_chunks))
    assert trace.counter_total("tokens_recv") == run.n_chunks
    assert trace.counter_total("tokens_sent") == run.n_chunks
    assert trace.counter_total("bytes_moved") > 0
    assert len(analyze_phases(trace).workers) == 2  # `obs summarize` works
    # ...plus the sanitizer's own: every block of both ranks was checked.
    assert trace.counter_total("sanitize_checks") == 2 * run.n_chunks


@pytest.mark.parametrize(
    "multicast, inject",
    [(False, "early-release:0:2"), (True, "early-publish:0:2")],
    ids=["pipes", "multicast"],
)
def test_mid_stream_injection_trips(on_executor, multicast, inject, monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE_INJECT", inject)
    compiled, _ = _single_stream()
    with pytest.raises(SanitizerError, match="wavefront race"):
        execute(
            compiled, schedule="pipelined", block=8, multicast=multicast,
            sanitize=True, **on_executor,
        )
