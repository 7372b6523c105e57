"""The multicast epoch fabric: groups, staging, flow control, channels.

Unit coverage for :mod:`repro.parallel.collectives` plus the channel-layer
error paths this PR hardened: `chain_links` layout validation, the timeout
messages (fractional seconds, peer rank), and the chain-legality guard
that turns silently-racing shapes into typed errors.
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro import zpl
from repro.compiler import compile_scan
from repro.compiler.schedule import (
    WavefrontPlan,
    _build_distribution,
    _chains,
    check_chain_legality,
    plan_wavefront,
)
from repro.errors import DistributionError, MachineError
from repro.machine import ProcessorGrid
from repro.parallel import execute
from repro.parallel.channels import chain_links, recv_token
from repro.parallel.collectives import (
    MulticastChannel,
    MulticastFabric,
    MulticastGroups,
    MulticastSpec,
    boundary_layout,
    plan_groups,
    resolve_double_buffer,
    resolve_multicast,
)
from repro.runtime import execute_vectorized, run_and_capture


def _ctx():
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    return mp.get_context(method)


def _diagonal_block(n=16, depth2=False):
    """A wavefront with a diagonal dependence: every producer tile feeds
    two consumer tiles of the next rank (fan-out 2 on the tile DAG)."""
    rng = np.random.default_rng(7)
    base = zpl.Region.square(1, n)
    region = zpl.Region.of((3, n - 1), (3, n - 1))
    a = zpl.ZArray(base, name="a", fluff=2)
    a._data[...] = rng.uniform(0.5, 1.5, size=a._data.shape)
    with zpl.covering(region):
        with zpl.scan(execute=False) as block:
            if depth2:
                a[...] = 0.3 + 0.4 * (a.p @ (-1, 0)) + 0.2 * (a.p @ (-2, 0))
            else:
                a[...] = 0.3 + 0.4 * (a.p @ (0, -1)) + 0.2 * (a.p @ (-1, -1))
    return compile_scan(block), [a]


def _groups_for(compiled, n_procs, ascending=True):
    grid = ProcessorGrid((n_procs,))
    plan = plan_wavefront(compiled)
    dist = _build_distribution(plan, grid)
    locals_by_rank = {rank: dist.local_region(rank) for rank in grid}
    chains = _chains(grid, ascending)
    return plan, plan_groups(compiled, plan, chains, locals_by_rank, grid.size)


# -- channel-layer error paths (the hardened satellites) ---------------------

def test_chain_links_rejects_duplicate_rank():
    with pytest.raises(MachineError, match="appears in two chains"):
        chain_links(_ctx(), [[0, 1], [1, 2]])


def test_chain_links_rejects_empty_chain():
    with pytest.raises(MachineError, match="empty pipeline chain"):
        chain_links(_ctx(), [[]])


def test_recv_token_timeout_names_peer_and_fractional_seconds():
    recv, _send = _ctx().Pipe(duplex=False)
    with pytest.raises(MachineError) as err:
        recv_token(recv, 3, timeout=0.05, peer=2)
    msg = str(err.value)
    assert "0.05s" in msg  # :.0f used to render this as "0s"
    assert "predecessor rank 2" in msg
    assert "block 3" in msg


def test_recv_token_timeout_without_peer():
    recv, _send = _ctx().Pipe(duplex=False)
    with pytest.raises(MachineError, match="from predecessor$"):
        recv_token(recv, 0, timeout=0.01)


# -- knob resolution ---------------------------------------------------------

def test_resolve_multicast_values(monkeypatch):
    monkeypatch.delenv("REPRO_MULTICAST", raising=False)
    assert resolve_multicast(None) == "auto"
    assert resolve_multicast(True) == "on"
    assert resolve_multicast(False) == "off"
    assert resolve_multicast("auto") == "auto"
    monkeypatch.setenv("REPRO_MULTICAST", "1")
    assert resolve_multicast(None) == "on"
    monkeypatch.setenv("REPRO_MULTICAST", "0")
    assert resolve_multicast(None) == "off"
    with pytest.raises(MachineError, match="REPRO_MULTICAST"):
        resolve_multicast("sometimes")


def test_resolve_double_buffer(monkeypatch):
    monkeypatch.delenv("REPRO_DOUBLE_BUFFER", raising=False)
    assert resolve_double_buffer(None) is True
    assert resolve_double_buffer(False) is False
    monkeypatch.setenv("REPRO_DOUBLE_BUFFER", "0")
    assert resolve_double_buffer(None) is False


# -- fan-out derivation ------------------------------------------------------

def test_plan_groups_diagonal_fanout_two():
    compiled, _ = _diagonal_block()
    _plan, groups = _groups_for(compiled, 4)
    assert groups is not None
    assert groups.producers[0] == ()
    for rank in range(1, 4):
        assert groups.producers[rank] == (rank - 1,)
    for rank in range(3):
        assert groups.consumers[rank] == (rank + 1,)
        # One stamp releases two consumer tiles: chunk k and chunk k+1.
        assert groups.fanout[rank] == 2
    assert groups.fanout[3] == 0
    assert groups.max_fanout == 2


def test_plan_groups_transitive_reduction_on_thin_slabs():
    # 5 wave rows over 4 ranks: some slabs are a single row, so a depth-2
    # dependence reaches two ranks back — but waiting on the direct
    # predecessor already implies the grandparent's epoch.
    compiled, _ = _diagonal_block(n=7, depth2=True)
    _plan, groups = _groups_for(compiled, 4)
    assert groups is not None
    for rank in range(1, 4):
        assert groups.producers[rank] == (rank - 1,)


def test_plan_groups_none_without_chunk_dim():
    # Mixed-sign dependences on the non-wave dimension leave nothing to
    # chunk along, so there is no boundary traffic to multicast.
    rng = np.random.default_rng(0)
    n = 12
    base = zpl.Region.square(1, n)
    region = zpl.Region.of((3, n - 1), (3, n - 1))
    a = zpl.ZArray(base, name="a", fluff=2)
    a._data[...] = rng.uniform(0.5, 1.5, size=a._data.shape)
    with zpl.covering(region):
        with zpl.scan(execute=False) as block:
            a[...] = 0.2 + 0.3 * (a.p @ (-1, -1)) + 0.3 * (a.p @ (-1, 1))
    compiled = compile_scan(block)
    plan = plan_wavefront(compiled)
    assert plan.chunk_dim is None
    grid = ProcessorGrid((1,))
    dist = _build_distribution(plan, grid)
    locals_by_rank = {rank: dist.local_region(rank) for rank in grid}
    groups = plan_groups(
        compiled, plan, _chains(grid, True), locals_by_rank, grid.size
    )
    assert groups is None


# -- boundary staging layout -------------------------------------------------

def test_boundary_layout_depths_and_offsets():
    compiled, _ = _diagonal_block()
    plan = plan_wavefront(compiled)
    layout = boundary_layout(compiled, plan)
    assert layout is not None
    assert layout.arrays == ((0, 1),)  # one written array, depth-1 halo
    assert layout.offsets == (0,)
    region = plan.region
    unit = region.size // region.extent(plan.wavefront_dim)
    assert layout.slot_elems == unit


def test_boundary_layout_depth_two():
    compiled, _ = _diagonal_block(depth2=True)
    plan = plan_wavefront(compiled)
    layout = boundary_layout(compiled, plan)
    assert layout.arrays == ((0, 2),)
    region = plan.region
    unit = region.size // region.extent(plan.wavefront_dim)
    assert layout.slot_elems == 2 * unit


# -- the epoch channel -------------------------------------------------------

def _fabric_pair():
    ctx = _ctx()
    groups = MulticastGroups(
        producers=((), (0,)), consumers=((1,), ()), fanout=(1, 0)
    )
    fabric = MulticastFabric(ctx, 2)
    spec = MulticastSpec(
        epoch_seg=fabric.name,
        n_ranks=2,
        groups=groups,
        wave_dim=0,
        wave_ascending=True,
        rows_by_rank=(None, None),
    )
    producer = MulticastChannel(spec, fabric.sems, 0)
    consumer = MulticastChannel(spec, fabric.sems, 1)
    return fabric, producer, consumer


def test_publish_releases_consumer_and_counts():
    fabric, producer, consumer = _fabric_pair()
    try:
        producer.publish(0)
        producer.publish(1)
        consumer.wait_block(0, timeout=1.0)
        consumer.wait_block(1, timeout=1.0)
        assert producer.releases == 2
        assert list(fabric.epochs()) == [2, 0]
        st = producer.stats()
        assert st["mcast_releases"] == 2
    finally:
        producer.detach()
        consumer.detach()
        fabric.release()


def test_wait_for_timeout_names_producer_and_epoch():
    fabric, producer, consumer = _fabric_pair()
    try:
        producer.publish(0)
        with pytest.raises(MachineError) as err:
            consumer.wait_for(0, 5, timeout=0.1)
        msg = str(err.value)
        assert "0.10s" in msg
        assert "block 5 from rank 0" in msg
        assert "sees epoch 1" in msg
    finally:
        producer.detach()
        consumer.detach()
        fabric.release()


def test_slow_consumer_blocks_buffer_reuse():
    # Epoch-flip correctness: the producer may not overwrite slot k % 2
    # until the (slow) consumer has credited block k - 1.  The front
    # buffer therefore stays stable for as long as any reader needs it.
    fabric, producer, consumer = _fabric_pair()
    try:
        assert producer.wait_credit(0, timeout=0.1) == 0.0  # slot 0 fresh
        assert producer.wait_credit(1, timeout=0.1) == 0.0  # slot 1 fresh
        with pytest.raises(MachineError) as err:
            producer.wait_credit(2, timeout=0.15)  # slot 0 still held
        assert "consumer rank(s) [1]" in str(err.value)
        consumer.credit(0, 0)  # the slow reader finally releases block 0
        producer.wait_credit(2, timeout=0.1)
        with pytest.raises(MachineError):
            producer.wait_credit(3, timeout=0.15)  # block 1 still held
        consumer.credit(0, 1)
        producer.wait_credit(3, timeout=0.1)
    finally:
        producer.detach()
        consumer.detach()
        fabric.release()


def test_drain_swallows_stale_posts_and_reset_zeroes():
    fabric, producer, consumer = _fabric_pair()
    try:
        fabric.sems[1].release()
        fabric.sems[1].release()
        consumer.drain()
        assert not fabric.sems[1].acquire(False)
        producer.publish(0)
        consumer.credit(0, 0)
        fabric.reset()
        assert list(fabric.epochs()) == [0, 0]
        assert fabric.consumed().sum() == 0
    finally:
        producer.detach()
        consumer.detach()
        fabric.release()


# -- chain legality (the guard the fabric work surfaced) ---------------------

def _anti_diagonal_block(n=7):
    rng = np.random.default_rng(0)
    base = zpl.Region.square(1, n)
    region = zpl.Region.of((3, n - 1), (3, n - 1))
    t0 = zpl.ZArray(base, name="t0", fluff=2)
    t0._data[...] = rng.uniform(0.5, 1.5, size=t0._data.shape)
    t1 = zpl.ZArray(base, name="t1", fluff=2)
    t1._data[...] = rng.uniform(0.5, 1.5, size=t1._data.shape)
    with zpl.covering(region):
        with zpl.scan(execute=False) as block:
            t0[...] = 0.5 + 0.25 * (t0.p @ (-1, 0))
            t1[...] = 0.5 + 0.25 * (t0.p @ (-1, 1))
    return compile_scan(block), [t0, t1]


def test_upstream_dependence_refused_on_chains():
    compiled, _ = _anti_diagonal_block()
    for schedule in ("pipelined", "naive"):
        with pytest.raises(DistributionError, match="points upstream"):
            execute(compiled, grid=2, schedule=schedule, block=2)


def test_upstream_dependence_runs_on_one_process():
    compiled, arrays = _anti_diagonal_block()
    oracle = run_and_capture(execute_vectorized, compiled, arrays)
    got = run_and_capture(
        lambda c: execute(c, grid=1, schedule="pipelined", block=2),
        compiled,
        arrays,
    )
    for want, have in zip(oracle, got):
        np.testing.assert_array_equal(have, want)


def test_lookahead_guard_refuses_chunked_chains_only():
    compiled, _ = _anti_diagonal_block()
    # Force the (wave, chunk) orientation where the dependence follows the
    # wave but opposes the chunk traversal: lookahead, chunked-only.
    plan = WavefrontPlan(compiled, 0, 1, 1, 0)
    with pytest.raises(DistributionError, match="against the chunk traversal"):
        check_chain_legality(compiled, plan, 2, 4)
    check_chain_legality(compiled, plan, 2, 1)  # single chunk: safe
    check_chain_legality(compiled, plan, 1, 4)  # single stage: safe


# -- fabric selection end to end ---------------------------------------------

def test_auto_selects_multicast_for_diagonal_fanout(monkeypatch):
    monkeypatch.delenv("REPRO_MULTICAST", raising=False)
    compiled, arrays = _diagonal_block()
    oracle = run_and_capture(execute_vectorized, compiled, arrays)
    runs = []

    def engine(c):
        runs.append(execute(c, grid=2, schedule="pipelined", block=3))

    got = run_and_capture(engine, compiled, arrays)
    for want, have in zip(oracle, got):
        np.testing.assert_array_equal(have, want)
    assert runs[0].fabric == "multicast"


def test_multicast_off_forces_pipes():
    compiled, arrays = _diagonal_block()
    runs = []

    def engine(c):
        runs.append(
            execute(c, grid=2, schedule="pipelined", block=3, multicast=False)
        )

    run_and_capture(engine, compiled, arrays)
    assert runs[0].fabric == "pipes"
