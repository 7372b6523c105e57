"""Autotuning: measure the host's real α and β, feed the paper's Eq. (1).

The analytic machinery (:mod:`repro.models.pipeline_model`) works in
*element-compute units*: α and β are expressed as multiples of the time to
compute one element of the data space.  On a real host all three quantities
are measurable:

* **α** — one-way latency of a synchronisation token between two processes,
  measured by pipe ping-pong at several payload sizes and read off as the
  intercept of the fitted line;
* **β** — per-element transfer cost, the slope of the same line (on a
  shared-memory host this is small but not zero: tokens still cross the
  kernel and array traffic crosses the cache hierarchy);
* **compute cost** — seconds per element of the actual compiled block under
  :func:`~repro.runtime.kernels.execute_vectorized`, in whichever lowering
  the host runs (the native nest where it builds one, else numpy).

Dividing the measured α and β by the measured per-element compute time gives
a :class:`~repro.machine.params.MachineParams` directly comparable with the
``CRAY_T3E``-style presets — the same object drives the simulator, Model1/
Model2, and Equation (1)'s optimal block size for the real backend.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection

from repro.compiler.lowering import CompiledScan
from repro.errors import MachineError
from repro.machine.params import MachineParams
from repro.compiler.grid import ProcessorGrid
from repro.compiler.schedule import WavefrontPlan, place, plan_wavefront
from repro.models.pipeline_model import model2_of
from repro.models.tuning import Probe, TuningResult, select_dynamic
from repro.parallel.sharedmem import collect_arrays
from repro.runtime.interp import ArraySnapshot
from repro.runtime.kernels import (
    PlanRunner, execute_vectorized, plan_fingerprint, plan_kind,
)

#: Bytes per element everywhere in this library (float64 storage).
ELEMENT_BYTES = 8


@dataclass(frozen=True)
class CommParams:
    """Measured communication constants of the host, in seconds."""

    #: One-way per-message latency (the real α), seconds.
    alpha_seconds: float
    #: One-way per-element cost (the real β), seconds per float64.
    beta_seconds: float
    #: The (size, one-way seconds) samples the fit was made from.
    samples: tuple[tuple[int, float], ...]

    def message_seconds(self, size: int) -> float:
        """The fitted linear model at ``size`` elements."""
        return self.alpha_seconds + self.beta_seconds * size


def _echo_child(conn: Connection) -> None:
    """Ping-pong peer: echo every payload until the empty sentinel."""
    while True:
        payload = conn.recv_bytes()
        if not payload:
            return
        conn.send_bytes(payload)


def measure_comm(
    sizes: tuple[int, ...] = (1, 64, 512, 4096),
    repeats: int = 30,
    start_method: str | None = None,
) -> CommParams:
    """Measure α and β by pipe ping-pong against a real child process.

    For each payload size the minimum round trip over ``repeats`` trials is
    halved into a one-way latency; a least-squares line over the samples
    yields α (intercept) and β (slope per element).
    """
    if len(sizes) < 2:
        raise MachineError("need at least two payload sizes to fit alpha and beta")
    if start_method is None:
        start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    ctx = mp.get_context(start_method)
    here, there = ctx.Pipe(duplex=True)
    child = ctx.Process(target=_echo_child, args=(there,), name="repro-pingpong")
    child.start()
    samples: list[tuple[int, float]] = []
    try:
        there.close()
        for size in sizes:
            payload = bytes(size * ELEMENT_BYTES)
            # Warm the pipe (page faults, allocator) before timing.
            here.send_bytes(payload)
            here.recv_bytes()
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                here.send_bytes(payload)
                here.recv_bytes()
                best = min(best, time.perf_counter() - start)
            samples.append((size, best / 2.0))
        here.send_bytes(b"")
    finally:
        child.join(timeout=10.0)
        if child.is_alive():
            child.terminate()
            child.join(timeout=5.0)
        here.close()

    n = len(samples)
    mean_x = sum(s for s, _ in samples) / n
    mean_y = sum(t for _, t in samples) / n
    var = sum((s - mean_x) ** 2 for s, _ in samples)
    cov = sum((s - mean_x) * (t - mean_y) for s, t in samples)
    beta = max(0.0, cov / var)
    alpha = max(0.0, mean_y - beta * mean_x)
    if alpha == 0.0:
        # Degenerate fit (huge-payload noise): fall back to the smallest
        # sample, which is almost pure startup cost.
        alpha = min(t for _, t in samples)
    return CommParams(alpha, beta, tuple(samples))


def measure_compute_cost(compiled: CompiledScan, repeats: int = 3) -> float:
    """Seconds per element of the compiled block on one processor.

    Runs the real sequential engine over the full region ``repeats`` times
    (restoring the arrays between runs so every run does identical work) and
    takes the fastest.
    """
    if repeats < 1:
        raise MachineError(f"repeats must be >= 1, got {repeats}")
    arrays = collect_arrays(compiled)
    snap = ArraySnapshot(arrays)
    compiled.prepare()
    best = float("inf")
    try:
        for _ in range(repeats):
            snap.restore()
            start = time.perf_counter()
            execute_vectorized(compiled)
            best = min(best, time.perf_counter() - start)
    finally:
        snap.restore()
    return best / max(1, compiled.region.size)


def _one_stage(compiled: CompiledScan, block: int):
    """The whole region on one rank, cut into a run's pipeline blocks."""
    return place(compiled, ProcessorGrid((1,)), "pipelined").chunked(block)


def measure_block_overhead(
    compiled: CompiledScan,
    block: int = 8,
    repeats: int = 3,
) -> float:
    """Seconds of extra per-block dispatch cost of the block path workers run.

    On the real machine a pipeline block costs more than its elements: every
    block pays its dispatch, which behaves exactly like an additional
    per-message startup cost.  The measurement is differential — run the
    whole region once as one block and once split into blocks of ``block``
    columns, both through the :meth:`~repro.runtime.kernels.PlanRunner.run_block`
    the worker loops call, and attribute the gap to the extra block
    boundaries.  The result is folded into the *effective* α that Equation
    (1) sees (pure pipe latency alone would suggest far smaller blocks than
    the host actually rewards).  A block pays only a plan-cache lookup per
    region plus its kernel, in the lowering the host runs.
    """
    chunks = _one_stage(compiled, block).chunks_by_rank[0]
    if len(chunks) < 2:
        return 0.0
    arrays = collect_arrays(compiled)
    snap = ArraySnapshot(arrays)
    compiled.prepare()
    runner = PlanRunner(compiled)
    try:
        whole = float("inf")
        blocked = float("inf")
        for _ in range(repeats):
            snap.restore()
            start = time.perf_counter()
            runner.run_block(compiled.region)
            whole = min(whole, time.perf_counter() - start)
            snap.restore()
            start = time.perf_counter()
            for chunk in chunks:
                runner.run_block(chunk)
            blocked = min(blocked, time.perf_counter() - start)
    finally:
        snap.restore()
    return max(0.0, (blocked - whole) / (len(chunks) - 1))


def measure_pool_dispatch(
    compiled: CompiledScan,
    pool=None,
    block: int = 8,
    repeats: int = 3,
) -> float:
    """Per-pipeline-block dispatch cost through the *persistent pool*, seconds.

    The pooled counterpart of :func:`measure_block_overhead`: run the block
    through :class:`repro.parallel.pool.WorkerPool` once with a single
    whole-width chunk and once split into ``block``-column chunks, and
    attribute the wall-clock gap to the extra block boundaries.  The
    differential cancels the per-run costs the pool already amortises
    (job send, barrier, result return), leaving the true marginal cost of
    one more pipeline block: one token crossing plus one warm kernel-engine
    dispatch.  This is the ``dispatch_seconds_per_block`` a pooled schedule
    actually pays, and what Equation (1) should see when the pool is used.

    ``pool`` defaults to a throwaway single-worker pool (closed before
    returning); pass an existing pool to measure its grid instead.
    """
    geometry = _one_stage(compiled, block)
    cols, n_blocked = geometry.wavefront.cols, geometry.n_chunks
    if n_blocked < 2:
        return 0.0
    from repro.parallel.pool import WorkerPool

    own_pool = pool is None
    if own_pool:
        pool = WorkerPool(1)
    snap = ArraySnapshot(collect_arrays(compiled))
    try:
        # Warm the pool: ship the blob, build the worker's kernel plans.
        pool.execute(compiled, block=cols)
        snap.restore()
        whole = float("inf")
        blocked = float("inf")
        for _ in range(repeats):
            run = pool.execute(compiled, block=cols)
            whole = min(whole, run.wall_time)
            snap.restore()
            run = pool.execute(compiled, block=block)
            blocked = min(blocked, run.wall_time)
            snap.restore()
        # Each worker's chunk count grew by (n_blocked - 1) / n_procs on
        # average; charge the gap to the blocks the critical path added.
        extra = max(1, (n_blocked - 1) // max(1, pool.grid.dims[0]))
        return max(0.0, (blocked - whole) / extra)
    finally:
        snap.restore()
        if own_pool:
            pool.close()


@dataclass(frozen=True)
class AutotuneResult:
    """The host, measured and normalised, plus the Eq. (1) block size."""

    comm: CommParams
    #: Seconds per element of the tuned block (the normalisation unit).
    compute_seconds: float
    #: Per-pipeline-block dispatch overhead of the engine, seconds.
    dispatch_seconds: float
    #: α and β in element-compute units: the simulator-ready machine.
    params: MachineParams
    #: Like ``params`` but with the dispatch overhead folded into α — the
    #: machine Equation (1) should see on this host.
    effective_params: MachineParams
    block_size: int
    n_procs: int
    #: The plan family the measured engine executed (``skewed``/``flat``).
    #: Skewed plans have a very different per-element cost and per-block
    #: dispatch cost than flat point loops, so Eq. (1) must not mix
    #: measurements across kinds.
    plan_kind: str = "flat"

    def __repr__(self) -> str:
        return (
            f"AutotuneResult(alpha={self.params.alpha:.1f}, "
            f"beta={self.params.beta:.3f}, b*={self.block_size}, "
            f"p={self.n_procs}, plan={self.plan_kind})"
        )


def normalized_params(
    comm: CommParams, compute_seconds: float, name: str = "measured host"
) -> MachineParams:
    """Express measured seconds as element-compute units (simulator-ready)."""
    if compute_seconds <= 0:
        raise MachineError(f"compute cost must be positive, got {compute_seconds}")
    return MachineParams(
        name=name,
        alpha=comm.alpha_seconds / compute_seconds,
        beta=comm.beta_seconds / compute_seconds,
    )


def optimal_block_size(
    plan: WavefrontPlan, params: MachineParams, n_procs: int
) -> int:
    """Equation (1) (exact integer search) for a planned block on ``params``."""
    cols = plan.cols
    if n_procs < 2 or cols <= 1:
        return max(1, cols)  # no pipe to fill: one whole-width block
    return model2_of(plan, params, n_procs).optimal_block_size(b_max=cols)


def autotune(
    compiled: CompiledScan,
    n_procs: int,
    *,
    comm: CommParams | None = None,
    compute_seconds: float | None = None,
    dispatch_seconds: float | None = None,
    start_method: str | None = None,
) -> AutotuneResult:
    """Measure the host and derive the optimal pipeline block size.

    Pass ``comm``/``compute_seconds``/``dispatch_seconds`` to reuse earlier
    measurements (the benchmarks measure once and tune for every processor
    count) — but only measurements taken under the same plan kind: the
    result records :func:`repro.runtime.kernels.plan_kind` so callers can
    tell which plan family the constants describe.
    """
    plan = plan_wavefront(compiled)
    kind = plan_kind(compiled)
    if comm is None:
        comm = measure_comm(start_method=start_method)
    if compute_seconds is None:
        compute_seconds = measure_compute_cost(compiled)
    if dispatch_seconds is None:
        dispatch_seconds = measure_block_overhead(compiled)
    params = normalized_params(comm, compute_seconds)
    effective = effective_params(comm, compute_seconds, dispatch_seconds, n_procs)
    block = optimal_block_size(plan, effective, n_procs)
    return AutotuneResult(
        comm, compute_seconds, dispatch_seconds, params, effective, block,
        n_procs, kind,
    )


def effective_params(
    comm: CommParams,
    compute_seconds: float,
    dispatch_seconds: float,
    n_procs: int,
    name: str = "measured host (effective)",
) -> MachineParams:
    """The machine Equation (1) should see: α plus per-block dispatch cost.

    The dispatch overhead was measured over whole-column blocks; with the
    wavefront dimension split ``n_procs`` ways each pipeline stage pays only
    its local share, hence the division.
    """
    if compute_seconds <= 0:
        raise MachineError(f"compute cost must be positive, got {compute_seconds}")
    local_dispatch = dispatch_seconds / max(1, n_procs)
    return MachineParams(
        name=name,
        alpha=(comm.alpha_seconds + local_dispatch) / compute_seconds,
        beta=comm.beta_seconds / compute_seconds,
    )


@dataclass(frozen=True)
class CollectiveParams:
    """Measured collective-release constants of the host, in seconds.

    The multicast fabric's cost model: releasing one pipeline block to
    ``fanout`` consumers costs ``α_c + γ·fanout`` seconds.  α_c is the
    fixed epoch publish (one stamp, independent of fan-out) and γ the
    marginal per-consumer cost (parked-flag checks and semaphore posts).
    The fabric moves no data — consumers read the halo from shared storage
    after the stamp, as a pipe consumer does after its token — so the
    per-element β is the pipe fabric's (:class:`CommParams`).  Dividing by
    the fan-out gives the *per-edge* α the paper's Eq. (1) sees — the
    amortisation the multicast fabric buys.
    """

    #: Fixed per-release cost (the collective α_c), seconds.
    alpha_seconds: float
    #: Marginal per-consumer cost, seconds per unit of fan-out.
    gamma_seconds: float
    #: The ``(fanout, seconds)`` samples the fit was made from.
    samples: tuple[tuple[int, float], ...]

    def release_seconds(self, fanout: int) -> float:
        """The fitted model: one release to ``fanout`` consumers."""
        return self.alpha_seconds + self.gamma_seconds * fanout

    def per_edge_seconds(self, fanout: int) -> float:
        """The amortised per-consumer cost (Eq. (1)'s α on this fabric)."""
        return self.release_seconds(fanout) / max(1, fanout)


def _collective_child(spec, sems, rank: int, cycles: int) -> None:
    """Consumer peer of :func:`measure_multicast`: wait, publish back."""
    from repro.parallel.collectives import MulticastChannel

    channel = MulticastChannel(spec, sems, rank)
    try:
        for k in range(cycles + 1):
            channel.wait_block(k, 60.0)
            channel.publish(k)
    finally:
        channel.detach()


def measure_multicast(
    fanouts: tuple[int, ...] = (1, 2, 4),
    cycles: int = 200,
    start_method: str | None = None,
) -> CollectiveParams:
    """Measure the collective cost model against real consumer processes.

    For each fan-out ``f`` a producer and ``f`` consumers ping-pong on the
    epoch fabric: the producer publishes block ``k``, every consumer waits
    for it and publishes ``k`` back, and the producer waits for all ``f``.
    Half the mean round over ``cycles`` rounds is the one-way release
    cost, and the samples are least-squares fitted to ``α_c + γ·f``.
    """
    import numpy as np

    from repro.parallel.collectives import (
        MulticastChannel,
        MulticastGroups,
        MulticastFabric,
        MulticastSpec,
    )

    if not fanouts:
        raise MachineError("need at least one fanout to fit the collective model")
    if start_method is None:
        start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    ctx = mp.get_context(start_method)
    samples: list[tuple[int, float]] = []
    for f in fanouts:
        n_ranks = f + 1
        peers = tuple(range(1, n_ranks))
        # Rank 0 releases every consumer; each consumer releases rank 0.
        groups = MulticastGroups(
            producers=(peers,) + ((0,),) * f,
            consumers=(peers,) + ((0,),) * f,
            fanout=(f,) + (1,) * f,
        )
        fabric = MulticastFabric(ctx, n_ranks)
        spec = MulticastSpec(fabric.name, n_ranks, groups)
        procs = [
            ctx.Process(
                target=_collective_child,
                args=(spec, fabric.sems, r, cycles),
                name=f"repro-mcast-probe-{r}",
            )
            for r in peers
        ]
        channel = MulticastChannel(spec, fabric.sems, 0)
        try:
            for proc in procs:
                proc.start()
            # One untimed round: every consumer is up and parked.
            channel.publish(0)
            channel.wait_block(0, 60.0)
            start = time.perf_counter()
            for k in range(1, cycles + 1):
                channel.publish(k)
                channel.wait_block(k, 60.0)
            elapsed = time.perf_counter() - start
            samples.append((f, elapsed / cycles / 2.0))
            for proc in procs:
                proc.join(timeout=30.0)
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5.0)
            channel.detach()
            fabric.release()

    design = np.array([[1.0, f] for f, _ in samples])
    y = np.array([t for _, t in samples])
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    alpha = max(0.0, float(coeffs[0]))
    gamma = max(0.0, float(coeffs[1]))
    if alpha == 0.0:
        # Degenerate fit: the cheapest sample is almost pure publish cost.
        alpha = min(t for _, t in samples)
    return CollectiveParams(alpha, gamma, tuple(samples))


def collective_effective_params(
    coll: CollectiveParams,
    comm: CommParams,
    compute_seconds: float,
    dispatch_seconds: float,
    n_procs: int,
    fanout: int = 1,
    name: str = "measured host (multicast)",
) -> MachineParams:
    """The machine Eq. (1) sees on the multicast fabric.

    One release costs ``α_c + γ·f`` regardless of block width; amortised
    over the ``f`` consumer tiles it unblocks, the per-edge α drops by the
    fan-out — that is the speedup Model 2 must predict.  β is ``comm``'s:
    the halo moves through shared storage exactly as on the pipe fabric.
    Per-block engine dispatch folds in exactly as on the pipe fabric.
    """
    if compute_seconds <= 0:
        raise MachineError(f"compute cost must be positive, got {compute_seconds}")
    local_dispatch = dispatch_seconds / max(1, n_procs)
    return MachineParams(
        name=name,
        alpha=(coll.per_edge_seconds(max(1, fanout)) + local_dispatch)
        / compute_seconds,
        beta=comm.beta_seconds / compute_seconds,
    )


#: Per-process cache of the host's comm constants (measuring costs a child
#: process; the constants do not change between calls).
_HOST_COMM: CommParams | None = None


def host_comm(start_method: str | None = None) -> CommParams:
    """The host's measured :class:`CommParams`, measured once per process."""
    global _HOST_COMM
    if _HOST_COMM is None:
        _HOST_COMM = measure_comm(start_method=start_method)
    return _HOST_COMM


#: Per-process cache of the collective constants (same rationale).
_HOST_COLL: CollectiveParams | None = None


def host_collective(start_method: str | None = None) -> CollectiveParams:
    """The host's measured :class:`CollectiveParams`, measured once."""
    global _HOST_COLL
    if _HOST_COLL is None:
        _HOST_COLL = measure_multicast(start_method=start_method)
    return _HOST_COLL


#: (plan fingerprint, plan kind) -> (compute s/elt, dispatch s/block).
#: Skewed and flat plans have wildly different constants (one fused kernel
#: per hyperplane vs one dispatch per point), so the kind is part of the key
#: and a memo entry never describes another family's α.
_BLOCK_COSTS: dict[tuple[str, str], tuple[float, float]] = {}


def tuned_block_size(
    compiled: CompiledScan,
    n_procs: int,
    plan: WavefrontPlan | None = None,
    *,
    fabric: str = "pipes",
    fanout: int = 1,
) -> int:
    """The executor's default block size: cached host α/β into Eq. (1).

    Compute and dispatch costs are memoised per (plan fingerprint, plan
    kind), so structurally equal blocks tune once per plan family.
    ``fabric="multicast"`` swaps the pipe constants for the collective
    model (:func:`host_collective`) amortised over ``fanout`` — a cheaper
    α rewards narrower blocks, so the fabrics tune to different widths.
    """
    if plan is None:
        plan = plan_wavefront(compiled)
    key = (plan_fingerprint(compiled), plan_kind(compiled))
    costs = _BLOCK_COSTS.get(key)
    if costs is None:
        costs = (
            measure_compute_cost(compiled, repeats=1),
            measure_block_overhead(compiled, repeats=1),
        )
        _BLOCK_COSTS[key] = costs
    compute, dispatch = costs
    if fabric == "multicast":
        params = collective_effective_params(
            host_collective(), host_comm(), compute, dispatch, n_procs, fanout
        )
    else:
        params = effective_params(host_comm(), compute, dispatch, n_procs)
    return optimal_block_size(plan, params, n_procs)


def measured_probe(
    compiled: CompiledScan,
    n_procs: int,
    schedule: str = "pipelined",
    start_method: str | None = None,
) -> Probe:
    """A :mod:`repro.models.tuning` probe that runs the *real* backend.

    Restores array state after every run, so a selector may probe freely.
    """
    from repro.parallel.executor import execute

    snap = ArraySnapshot(collect_arrays(compiled))

    def probe(b: int) -> float:
        try:
            run = execute(
                compiled,
                grid=n_procs,
                schedule=schedule,
                block=b,
                start_method=start_method,
            )
            return run.wall_time
        finally:
            snap.restore()

    return probe


def dynamic_block_size(
    compiled: CompiledScan,
    n_procs: int,
    b_max: int | None = None,
    start_method: str | None = None,
) -> TuningResult:
    """The paper's future-work selector, on real hardware: ternary search
    over measured wall-clock times (reuses ``models.tuning.select_dynamic``,
    swapping its simulated probe for the multiprocess backend)."""
    probe = measured_probe(compiled, n_procs, start_method=start_method)
    params = normalized_params(host_comm(), measure_compute_cost(compiled, repeats=1))
    return select_dynamic(compiled, params, n_procs, probe=probe, b_max=b_max)
