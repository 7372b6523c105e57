"""One-call trace capture: run a suite kernel under tracing, either backend.

These helpers exist so the CLI (:mod:`repro.obs.__main__`), the benchmarks
and the tests can produce comparable traces with one line each.  Both
return ``(outcome, Trace)`` with the trace's ``meta["model"]`` filled in —
the simulator from its preset α/β, the real backend from the autotuner's
measured host constants — which is what the residual analysis keys on.
"""

from __future__ import annotations

from repro.apps import suite
from repro.compiler.schedule import plan_wavefront
from repro.machine.params import CRAY_T3E, MachineParams
from repro.machine.schedules import (
    DistributedOutcome,
    naive_wavefront,
    pipelined_wavefront,
)
from repro.obs.trace import Trace, Tracer


def capture_simulator(
    kernel: str = "single-stream",
    n: int = 48,
    procs: int = 4,
    block: int | None = None,
    schedule: str = "pipelined",
    params: MachineParams | None = None,
) -> tuple[DistributedOutcome, Trace]:
    """Run a suite kernel on the virtual-clock machine, traced.

    ``block=None`` picks the Eq. (1) optimum for ``params`` (default Cray
    T3E).  Values are not computed (``compute_values=False``): the trace
    is about time, and the virtual clock does not need the numpy work.
    The trace meta is the walked geometry's own
    (:meth:`~repro.compiler.schedule.ScheduleGeometry.meta`), so both
    backends describe a schedule with the same keys.
    """
    params = params or CRAY_T3E
    compiled = suite.get(kernel).build(n)
    plan = plan_wavefront(compiled)
    if block is None:
        from repro.parallel.autotune import optimal_block_size

        block = optimal_block_size(plan, params, procs)
    tracer = Tracer()
    options = dict(n_procs=procs, compute_values=False, tracer=tracer)
    if schedule == "naive":
        outcome = naive_wavefront(compiled, params, **options)
    else:
        outcome = pipelined_wavefront(compiled, params, block_size=block, **options)
    trace = Trace.from_tracer(
        tracer,
        clock="virtual",
        meta={
            **outcome.geometry.meta(),
            "backend": "simulator",
            "kernel": kernel,
            "total_time": outcome.total_time,
            "params": params.name,
            "model": {
                "alpha": params.alpha,
                "beta": params.beta,
                "m": max(1, plan.boundary_rows),
                "unit_seconds": 1.0,
            },
        },
    )
    return outcome, trace


def capture_parallel(
    kernel: str = "single-stream",
    n: int = 32,
    procs: int = 2,
    block: int | None = None,
    schedule: str = "pipelined",
    measure_model: bool = True,
    start_method: str | None = None,
):
    """Run a suite kernel on the real multiprocess backend, traced.

    With ``measure_model=True`` the host's α/β/compute constants are
    measured first (cached pipe ping-pong plus one timed sequential run)
    and recorded in ``trace.meta["model"]`` so residuals compare against
    the same Eq. (1) instance the autotuner optimises.
    """
    from repro.parallel.autotune import (
        effective_params,
        host_comm,
        measure_block_overhead,
        measure_compute_cost,
        optimal_block_size,
    )
    from repro.parallel.executor import execute

    compiled = suite.get(kernel).build(n)
    plan = plan_wavefront(compiled)
    model_meta = None
    if measure_model:
        comm = host_comm(start_method)
        compute_seconds = measure_compute_cost(compiled, repeats=1)
        dispatch = measure_block_overhead(compiled, repeats=1)
        effective = effective_params(comm, compute_seconds, dispatch, procs)
        if block is None and schedule == "pipelined":
            block = optimal_block_size(plan, effective, procs)
        model_meta = {
            "alpha": effective.alpha,
            "beta": effective.beta,
            "m": max(1, plan.boundary_rows),
            "unit_seconds": compute_seconds,
        }
    tracer = Tracer()
    run = execute(
        compiled,
        grid=procs,
        schedule=schedule,
        block=block,
        start_method=start_method,
        tracer=tracer,
    )
    trace = run.trace
    trace.meta["kernel"] = kernel
    if model_meta is not None:
        trace.meta["model"] = model_meta
    return run, trace
