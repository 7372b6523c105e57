"""Measured speedup curves: the real backend against its own prediction.

The paper's Fig. 7 plots measured speedup against processors; the simulator
reproduces the *predicted* curve.  This module closes the loop: it runs the
Tomcatv forward-elimination wavefront on real processes for a sweep of
processor counts, runs the virtual-clock simulator at the *measured* machine
parameters for the same configurations, and reports both side by side —
the validation data Model1/Model2 never had in this repository before.

All measured times are minima over repeats (the standard defence against
scheduler noise); every parallel run is verified element-identical to the
sequential vectorised engine before its time is accepted.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from repro.apps import tomcatv
from repro.compiler.lowering import CompiledScan
from repro.compiler.schedule import plan_wavefront
from repro.errors import MachineError
from repro.machine.schedules import naive_wavefront, pipelined_wavefront
from repro.parallel.autotune import (
    CommParams,
    effective_params,
    measure_block_overhead,
    measure_comm,
    measure_compute_cost,
    measure_pool_dispatch,
    normalized_params,
    optimal_block_size,
)
from repro.parallel.executor import execute
from repro.parallel.sharedmem import collect_arrays
from repro.runtime.interp import ArraySnapshot
from repro.runtime.vectorized import execute_vectorized
from repro.util.timing import WallTimer


def oversubscription(procs: tuple[int, ...] | int) -> dict:
    """Host-vs-request facts for the bench artifacts.

    On a 1-CPU host a "2-processor speedup" time-slices one core, so the
    measured curve must not be read against Equation (1)'s predictions.
    Returns ``{"cpu_count": ..., "max_procs": ..., "oversubscribed": ...}``
    and emits a :class:`RuntimeWarning` when the host is oversubscribed —
    benchmarks stamp the dict into their artifacts so downstream comparisons
    can filter.
    """
    max_procs = max(procs) if isinstance(procs, tuple) else int(procs)
    cpu_count = os.cpu_count() or 1
    oversubscribed = cpu_count < max_procs
    if oversubscribed:
        warnings.warn(
            f"host has {cpu_count} CPU(s) but the benchmark asks for "
            f"{max_procs} worker process(es); measured speedups are "
            f"time-sliced and must not be compared against Eq. (1) "
            f"predictions",
            RuntimeWarning,
            stacklevel=2,
        )
    return {
        "cpu_count": cpu_count,
        "max_procs": max_procs,
        "oversubscribed": oversubscribed,
    }


def tomcatv_forward(n: int, seed: int = 7) -> CompiledScan:
    """The paper's benchmark kernel: Tomcatv forward elimination at size n.

    Builds a real Tomcatv instance, runs the (parallel) coefficients phase so
    the solve sees physical inputs, and compiles the Fig. 2(b) scan block.
    """
    state = tomcatv.build(n, seed=seed)
    tomcatv.coefficients_phase(state)
    tomcatv.prepare_solve(state)
    return tomcatv.compile_forward(state)


def _timed_serial(compiled: CompiledScan, snap: ArraySnapshot, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        snap.restore()
        timer = WallTimer()
        with timer:
            execute_vectorized(compiled)
        best = min(best, timer.elapsed)
    return best


def speedup_curve(
    n: int = 97,
    procs: tuple[int, ...] = (1, 2),
    block: int | None = None,
    repeats: int = 3,
    schedule: str = "pipelined",
    start_method: str | None = None,
    comm: CommParams | None = None,
    verify: bool = True,
    collect_traces: bool | None = None,
    use_pool: bool = False,
) -> dict:
    """Measured-vs-predicted times for the Tomcatv wavefront.

    Returns a JSON-ready payload: the measured host constants, the serial
    baseline, and one record per processor count with the real wall-clock
    time and the simulator's prediction at the same (measured) machine
    parameters and block size.

    ``collect_traces`` (default: follow ``REPRO_TRACE``) adds one traced
    run per processor count — serialised :mod:`repro.obs` traces under
    ``payload["traces"]``, keyed by processor count, each carrying the
    measured machine model so residual reports work offline.  Traced runs
    are *extra* runs: the timed minima above stay untraced.

    ``use_pool`` runs the sweep through a persistent
    :class:`~repro.parallel.pool.WorkerPool` per processor count — fork,
    pickle and segment creation paid once per ``p`` instead of once per
    repeat, so the timed minima measure the pipeline, not process startup.

    The ``machine`` block reports three dispatch costs: the kernel engine's
    (``dispatch_seconds_per_block``, what the default schedule pays), the
    tree-walking interpreter's (``..._interp``, the pre-kernel cost kept for
    comparability with older artifacts), and the pooled cost (``..._pooled``,
    one token plus one warm dispatch — what Eq. (1) sees under the pool).
    The payload also carries :func:`oversubscription` facts; oversubscribed
    hosts get a :class:`RuntimeWarning` and a marked artifact.
    """
    from repro.obs.trace import Tracer, tracing_enabled

    collect = tracing_enabled() if collect_traces is None else collect_traces
    host = oversubscription(procs)
    compiled = tomcatv_forward(n)
    plan = plan_wavefront(compiled)
    arrays = collect_arrays(compiled)
    compiled.prepare()
    snap = ArraySnapshot(arrays)

    serial_seconds = _timed_serial(compiled, snap, repeats)
    reference = None
    if verify:
        snap.restore()
        execute_vectorized(compiled)
        reference = [a._data.copy() for a in arrays]
        snap.restore()

    if comm is None:
        comm = measure_comm(start_method=start_method)
    compute_seconds = measure_compute_cost(compiled)
    dispatch_seconds = measure_block_overhead(compiled)
    dispatch_interp = measure_block_overhead(compiled, engine="interp")
    snap.restore()
    dispatch_pooled = measure_pool_dispatch(compiled)
    snap.restore()
    params = normalized_params(comm, compute_seconds)

    results = []
    traces: dict[str, dict] = {}
    for p in procs:
        # Equation (1) and the predictions see the *effective* α: real pipe
        # latency plus this p's share of the per-block dispatch overhead —
        # the pooled cost when the pool runs the schedule.
        per_block = dispatch_pooled if use_pool else dispatch_seconds
        effective = effective_params(comm, compute_seconds, per_block, p)
        b = block if block is not None else optimal_block_size(plan, effective, p)
        pool = None
        if use_pool:
            from repro.parallel.pool import WorkerPool

            pool = WorkerPool(p, start_method=start_method)
        measured = float("inf")
        for _ in range(repeats):
            snap.restore()
            run = execute(
                compiled,
                grid=p,
                schedule=schedule,
                block=b,
                start_method=start_method,
                pool=pool,
            )
            measured = min(measured, run.wall_time)
        if reference is not None:
            mismatched = [
                a.name
                for a, ref in zip(arrays, reference)
                if not np.array_equal(a._data, ref)
            ]
            if mismatched:
                raise MachineError(
                    f"parallel backend diverged from execute_vectorized at "
                    f"p={p} on arrays {mismatched}"
                )
        if p >= 2 and schedule == "pipelined":
            sim = pipelined_wavefront(
                compiled, effective, n_procs=p, block_size=b, compute_values=False
            )
            predicted = sim.total_time * compute_seconds
        elif p >= 2:
            sim = naive_wavefront(compiled, effective, n_procs=p, compute_values=False)
            predicted = sim.total_time * compute_seconds
        else:
            predicted = compiled.region.size * compute_seconds
        results.append(
            {
                "procs": p,
                "block_size": b,
                "schedule": schedule,
                "pool": use_pool,
                "measured_seconds": measured,
                "predicted_seconds": predicted,
                "alpha_effective": effective.alpha,
                "measured_speedup": serial_seconds / measured,
                "predicted_speedup": (compiled.region.size * compute_seconds)
                / predicted,
                "verified_identical": reference is not None,
            }
        )
        if collect:
            snap.restore()
            tracer = Tracer()
            traced = execute(
                compiled,
                grid=p,
                schedule=schedule,
                block=b,
                start_method=start_method,
                tracer=tracer,
                pool=pool,
            )
            trace = traced.trace
            trace.meta["benchmark"] = "tomcatv-forward"
            trace.meta["model"] = {
                "alpha": effective.alpha,
                "beta": effective.beta,
                "m": max(1, plan.boundary_rows),
                "unit_seconds": compute_seconds,
            }
            traces[str(p)] = trace.to_dict()
        if pool is not None:
            pool.close()
    snap.restore()

    payload_traces = {"traces": traces} if collect else {}
    return {
        **payload_traces,
        "benchmark": "tomcatv-forward",
        "n": n,
        "region_size": compiled.region.size,
        "serial_seconds": serial_seconds,
        "host": host,
        "oversubscribed": host["oversubscribed"],
        "machine": {
            "alpha_seconds": comm.alpha_seconds,
            "beta_seconds": comm.beta_seconds,
            "dispatch_seconds_per_block": dispatch_seconds,
            "dispatch_seconds_per_block_interp": dispatch_interp,
            "dispatch_seconds_per_block_pooled": dispatch_pooled,
            "compute_seconds_per_element": compute_seconds,
            "alpha_normalized": params.alpha,
            "beta_normalized": params.beta,
            "comm_samples": [list(s) for s in comm.samples],
        },
        "results": results,
    }
