"""Per-layer measurements: trace folding and direct probes of public calls.

The timed loops say how long a whole call took.  This module says where:
spans the program already emits are folded by name into ``parallel.*_ms``,
and each remaining layer is timed by calling its public function directly
on the workload's own compiled block.
"""

from __future__ import annotations

import time
from collections import defaultdict

from repro.analyze.certify import certify
from repro.compiler import derive_skew
from repro.compiler.taskdag import derive_taskgraph
from repro.machine import BlockMap, ProcessorGrid, plan_wavefront
from repro.models import model2
from repro.obs import PARENT_PROC
from repro.parallel import measure_comm, normalized_params, optimal_block_size
from repro.parallel.taskgraph import resolve_oversub
from repro.runtime import KERNEL_STATS, execute_vectorized

from harness import median

#: Parent-side span name -> the ``parallel.*`` metric it is folded into.
PARENT_SPANS = {
    "prepare": "parallel.plan_ms",
    "taskdag": "parallel.plan_ms",
    "share": "parallel.share_ms",
    "pool_reuse": "parallel.share_ms",
    "spawn": "parallel.spawn_ms",
    "dispatch": "parallel.dispatch_ms",
    "barrier": "parallel.barrier_ms",
    "gather": "parallel.gather_ms",
}
#: Worker-side span names; the slowest rank's totals are reported.  Worker
#: ``startup``/``barrier`` spans overlap the parent's ``spawn``/``barrier``
#: and ``kernel_compile`` nests inside ``compute``, so none is added again.
WORKER_SPANS = {
    "compute": "parallel.compute_ms",
    "recv_wait": "parallel.recv_wait_ms",
    "send": "parallel.send_ms",
}
FOLDED = sorted(set(PARENT_SPANS.values()) | set(WORKER_SPANS.values()))


def fold_parallel(spans) -> dict[str, float]:
    """Milliseconds per folded metric for one traced ``execute`` call."""
    out = dict.fromkeys(FOLDED, 0.0)
    ranks: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        ms = (span.end - span.start) * 1e3
        if span.proc == PARENT_PROC:
            if span.name in PARENT_SPANS:
                out[PARENT_SPANS[span.name]] += ms
        elif span.name in WORKER_SPANS:
            ranks[span.proc][WORKER_SPANS[span.name]] += ms
    if ranks:
        out.update(max(ranks.values(), key=lambda r: sum(r.values())))
    return out


def parallel_obs(run, call_ms: float) -> dict[str, float]:
    """What one ``ParallelRun`` says about its own call, in milliseconds."""
    busy = [t * 1e3 for t in run.worker_times]
    mean_busy = sum(busy) / len(busy)
    setup_ms, wall_ms = run.setup_time * 1e3, run.wall_time * 1e3
    return {
        "parallel.setup_ms_p50": setup_ms,
        "parallel.wall_ms_p50": wall_ms,
        "parallel.return_ms_p50": call_ms - setup_ms - wall_ms,
        "parallel.worker_busy_ms_p50": mean_busy,
        "parallel.worker_imbalance": max(busy) / mean_busy if mean_busy else 1.0,
    }


def parallel_summary(run, untraced, traced) -> dict[str, float]:
    """Per-run facts of the parallel layer, and the folded traced call.

    The traced layers are medians over the traced calls; the remainder of
    the median traced call is ``parallel.unaccounted_ms``, itself a layer.
    """
    out = {
        "parallel.n_chunks": run.n_chunks,
        "parallel.fabric_multicast": int(run.fabric == "multicast"),
        "parallel.cpu_ms_per_run": untraced.cpu_s * 1e3 / len(untraced.times_ms),
    }
    if traced is not None:
        out.update({name: traced.p50(name) or 0.0 for name in FOLDED})
        out["parallel.traced_call_ms"] = traced.p50("parallel.traced_call_ms")
        out["parallel.unaccounted_ms"] = out["parallel.traced_call_ms"] - sum(
            out[name] for name in FOLDED
        )
    return out


def timed_ms(fn, repeats: int) -> float:
    """Median milliseconds of ``fn()`` over ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return median(samples)


def serial_probe(compiled, snap, repeats: int, engine=None, within=None):
    """Warm ``execute_vectorized`` median plus per-call ``KERNEL_STATS`` deltas."""
    snap.restore()
    execute_vectorized(compiled, within, engine=engine)  # plans built here
    before = KERNEL_STATS.snapshot()
    samples = []
    for _ in range(repeats):
        snap.restore()
        start = time.perf_counter()
        execute_vectorized(compiled, within, engine=engine)
        samples.append((time.perf_counter() - start) * 1e3)
    after = KERNEL_STATS.snapshot()
    snap.restore()
    per_call = {k: (after[k] - before[k]) / repeats for k in after}
    return median(samples), per_call


def serial_layers(compiled, snap, repeats, cold_serial_ms, engine=None) -> dict:
    """The single-thread baseline: warm median, plan-build cost, exact counts."""
    serial_ms, per_call = serial_probe(compiled, snap, repeats, engine=engine)
    return {
        "runtime.serial_ms_p50": serial_ms,
        "runtime.ns_per_cell": serial_ms * 1e6 / compiled.region.size,
        "runtime.plan_build_ms": cold_serial_ms - serial_ms,
        "runtime.plan_builds": per_call["plan_builds"],
        "runtime.plan_hits": per_call["plan_hits"],
        "runtime.fallbacks": per_call["fallbacks"],
        "runtime.hyperplanes": per_call["hyperplanes"],
        "compiler.skew_derive_ms": timed_ms(lambda: derive_skew(compiled), repeats),
    }


def rank_locals(plan, procs: int):
    """Each rank's static slab of the plan region, in rank order."""
    grid = ProcessorGrid((procs,))
    dim_map = [None] * plan.region.rank
    dim_map[plan.wavefront_dim] = 0
    dist = BlockMap(plan.region, grid, tuple(dim_map))
    return [dist.local_region(rank) for rank in grid]


def one_block(plan, procs: int, block: int):
    """Rank 0's first pipeline block: what one worker computes per token."""
    local = rank_locals(plan, procs)[0]
    lo = plan.region.lo[plan.chunk_dim]
    hi = min(lo + block - 1, plan.region.hi[plan.chunk_dim])
    return local.slab(plan.chunk_dim, lo, hi)


def scan_block_layers(
    compiled, snap, *, procs, block, schedule, multicast, repeats, cold_serial_ms,
    wall_ms,
) -> dict[str, float]:
    """Direct probes of every layer a distributed scan block passes through.

    ``wall_ms`` is the measured ``parallel.wall_ms_p50`` the model is held
    against.
    """
    out = serial_layers(compiled, snap, repeats, cold_serial_ms)
    plan = plan_wavefront(compiled)
    serial_ms = out["runtime.serial_ms_p50"]
    out["runtime.block_kernel_ms_p50"], _ = serial_probe(
        compiled, snap, repeats, within=one_block(plan, procs, block)
    )
    out["machine.plan_wavefront_ms"] = timed_ms(
        lambda: plan_wavefront(compiled), repeats
    )
    out["analyze.certify_ms"] = timed_ms(
        lambda: certify(
            compiled, schedule=schedule, grid=procs, block=block,
            multicast=multicast,
        ),
        max(1, repeats // 5),
    )

    # Eq. (1) / Model2 at this host's measured alpha and beta (the Fig. 5
    # comparison): explains the wall time, gates nothing.
    comm = measure_comm()
    unit_seconds = serial_ms / 1e3 / plan.region.size
    params = normalized_params(comm, unit_seconds)
    rows = plan.region.extent(plan.wavefront_dim)
    cols = plan.region.extent(plan.chunk_dim)
    model = model2(
        params, rows, procs, boundary_rows=max(1, plan.boundary_rows), cols=cols
    )
    out["parallel.alpha_us"] = comm.alpha_seconds * 1e6
    out["parallel.beta_ns_per_byte"] = comm.beta_seconds * 1e9 / 8
    out["models.eq1_block"] = optimal_block_size(plan, params, procs)
    out["models.predicted_ms"] = model.predicted_time(block) * unit_seconds * 1e3
    out["models.residual_share"] = (wall_ms - out["models.predicted_ms"]) / wall_ms
    return out


def taskdag_layers(compiled, procs: int, block: int, repeats: int) -> dict[str, float]:
    """``derive_taskgraph`` timed directly; its counts repeat exactly."""
    plan = plan_wavefront(compiled)
    locals_by_rank = rank_locals(plan, procs)
    oversub = resolve_oversub()

    def derive():
        return derive_taskgraph(compiled, plan, locals_by_rank, oversub, block)

    graph = derive()
    return {
        "compiler.taskdag_ms": timed_ms(derive, repeats),
        "compiler.taskdag_tiles": graph.n_live,
        "compiler.taskdag_edges": graph.n_edges,
        "compiler.taskdag_pruned_share": graph.n_pruned
        / (graph.n_live + graph.n_pruned),
    }
