"""One planner for a real parallel run, and the parent-side driver over it.

The paper's point is that one schedule description — wavefront dimension,
chunk dimension, block size ``b``, who releases whom — fixes both what runs
and what Equation (1) predicts.  That description is the value-free
:class:`~repro.compiler.schedule.ScheduleGeometry` the simulator walks too;
:func:`resolve_run` composes it with what only a real run has — fabric and
multicast groups, autotuned block size, task graph, sanitizer knobs — into
a frozen :class:`RunPlan`, and everything else *reads* it: the fork-per-run
executor and the worker pool build their jobs from it, the certifier
projects its :class:`~repro.analyze.certify.ScheduleModel` from it, the
sanitizer lays its shadow planes out from it, and the trace meta is
:meth:`RunPlan.meta`.  ``REPRO_CERTIFY=1`` therefore certifies the very
object that is dispatched.  :func:`resolve_run` is :func:`resolve_knobs`
(every environment read) then :func:`plan_run` then :func:`preflight` (the
certification), so a caller that keeps plans across runs — the worker
pool — keys them by the resolved :class:`RunKnobs` and certifies only the
plans it makes.

The second half of the module is the part of a run both process lifecycles
share once their workers exist: per-run shared state (:class:`RunResources`),
the start barrier (:func:`meet_barrier`), the liveness-polled result
collector (:func:`collect`) and the :class:`ParallelRun` construction
(:func:`finish`).  The lifecycles themselves — spawn-with-arguments in
:mod:`repro.parallel.executor`, job pipe in :mod:`repro.parallel.pool` —
stay thin transports over these.
"""

from __future__ import annotations

import os
import queue
import time
from dataclasses import dataclass
from typing import Callable

from repro.compiler.grid import ProcessorGrid
from repro.compiler.lowering import CompiledScan
from repro.compiler.schedule import (
    ScheduleGeometry,
    WavefrontPlan,
    chain_preds,
    place,
)
from repro.errors import MachineError, SanitizerError
from repro.obs.live import format_flight_tail
from repro.obs.trace import NULL_TRACER, Trace
from repro.parallel.collectives import (
    MulticastGroups,
    MulticastSpec,
    plan_groups,
    resolve_multicast,
)
from repro.parallel.worker import BlockJob
from repro.runtime.kernels import ensure_native
from repro.util.env import env_flag, env_int

#: Environment knob: hard cap on worker counts chosen *by default* (CI safety).
MAX_PROCS_ENV = "REPRO_PARALLEL_MAX_PROCS"

#: Environment knob: the default schedule when a caller passes ``None``.
SCHEDULE_ENV = "REPRO_SCHEDULE"

SCHEDULES = ("pipelined", "naive", "taskgraph")

#: Result-queue poll slice: a worker killed mid-run is noticed within two
#: slices, not after the caller's full timeout.
POLL_SECONDS = 0.25


def resolve_schedule(schedule: str | None) -> str:
    """An explicit schedule, else ``REPRO_SCHEDULE``, else ``pipelined``."""
    source = "schedule"
    if schedule is None:
        schedule = os.environ.get(SCHEDULE_ENV, "") or "pipelined"
        source = SCHEDULE_ENV
    if schedule not in SCHEDULES:
        raise MachineError(
            f"unknown {source} {schedule!r}; pick from {SCHEDULES}"
        )
    return schedule


def default_grid(max_procs: int | None = None) -> ProcessorGrid:
    """A rank-1 grid sized to the host, honouring ``REPRO_PARALLEL_MAX_PROCS``."""
    cap = max_procs or env_int(MAX_PROCS_ENV, 4)
    return ProcessorGrid((max(1, min(cap, os.cpu_count() or 1)),))


def _as_grid(grid: ProcessorGrid | int | tuple[int, ...] | None) -> ProcessorGrid:
    if grid is None:
        return default_grid()
    if isinstance(grid, ProcessorGrid):
        return grid
    if isinstance(grid, int):
        return ProcessorGrid((grid,))
    return ProcessorGrid(tuple(grid))


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RunPlan:
    """One resolved run: the schedule geometry, the fabric and the knobs.

    Built only by :func:`resolve_run`.  The geometry's fields read through
    (``run_plan.chunks_by_rank`` is ``run_plan.geometry.chunks_by_rank``).
    Static-order schedules carry ``chunks_by_rank`` (each rank's pipeline
    blocks, in wave order); ``schedule="taskgraph"`` carries ``graph`` and
    ``oversub`` instead.
    """

    geometry: ScheduleGeometry
    #: ``"pipes"`` or ``"multicast"`` (taskgraph runs report ``"pipes"``:
    #: neither token fabric is involved, and that is what they always said).
    fabric: str
    #: The epoch fabric's producer/consumer relation (multicast runs only).
    groups: MulticastGroups | None = None
    oversub: int | None = None
    #: The pruned tile DAG (:class:`repro.compiler.taskdag.TaskGraph`).
    graph: object | None = None
    sanitize: bool = False
    #: Parsed ``REPRO_SANITIZE_INJECT`` (sanitized runs only).
    inject: tuple[str, int, int] | None = None

    wavefront = property(lambda self: self.geometry.wavefront)
    compiled = property(lambda self: self.geometry.wavefront.compiled)
    grid = property(lambda self: self.geometry.grid)
    schedule = property(lambda self: self.geometry.schedule)
    block_size = property(lambda self: self.geometry.block_size)
    #: Which static pipe fabric a pool uses.
    ascending = property(lambda self: self.geometry.ascending)
    chains = property(lambda self: self.geometry.chains)
    pred_by_rank = property(lambda self: chain_preds(self.geometry.chains))
    chunks_by_rank = property(lambda self: self.geometry.chunks_by_rank)

    @property
    def n_chunks(self) -> int:
        """Max pipeline blocks on any rank (taskgraph: the live tile count)."""
        if self.graph is not None:
            return self.graph.n_live
        return self.geometry.n_chunks

    @property
    def fanout(self) -> int:
        return self.groups.max_fanout if self.groups is not None else 1

    def multicast_spec(self, epoch_seg: str) -> MulticastSpec:
        """What a worker needs to join the epoch fabric for this plan."""
        return MulticastSpec(epoch_seg, self.grid.size, self.groups)

    def meta(self) -> dict:
        """The run's trace meta (timings are added by :func:`finish`)."""
        meta = {
            "backend": "parallel",
            **self.geometry.meta(),
            "n_chunks": self.n_chunks,
            "sanitize": self.sanitize,
            "fabric": self.fabric,
            "fanout": self.fanout,
        }
        if self.graph is not None:
            meta.update(
                oversub=self.oversub,
                n_tasks=self.graph.n_live,
                n_pruned=self.graph.n_pruned,
                n_edges=self.graph.n_edges,
            )
        return meta


@dataclass(frozen=True)
class RunKnobs:
    """Every choice a :class:`RunPlan` depends on besides the block itself,
    with the ``REPRO_*`` variables already read (:func:`resolve_knobs`).

    A plan is a pure function of the compiled block's structure and these
    — save tile pruning, which also reads mask values — so this is the
    key a caller that keeps plans across runs caches them under.
    """

    grid: tuple[int, ...]
    schedule: str
    block: int | None
    wavefront_dim: int | None
    #: ``"on"``/``"off"``/``"auto"`` (:func:`resolve_multicast`).
    multicast: str
    oversub: int | None
    sanitize: bool
    #: Parsed ``REPRO_SANITIZE_INJECT`` (sanitized runs only).
    inject: tuple[str, int, int] | None


def resolve_knobs(
    grid: ProcessorGrid | int | tuple[int, ...] | None = None,
    *,
    schedule: str | None = None,
    block: int | None = None,
    wavefront_dim: int | None = None,
    multicast: bool | str | None = None,
    sanitize: bool | None = None,
    oversub: int | None = None,
    static: bool = False,
) -> RunKnobs:
    """Read every environment variable a plan depends on, once.

    Arguments as for :func:`resolve_run`; a malformed variable raises here.
    """
    schedule = resolve_schedule(schedule)
    if sanitize is None:
        sanitize = not static and env_flag("REPRO_SANITIZE", False)
    if schedule == "taskgraph" and oversub is None:
        from repro.parallel.taskgraph import resolve_oversub

        oversub = resolve_oversub()
    inject = None
    if sanitize:
        from repro.analyze.sanitizer import INJECT_ENV, parse_inject

        inject = parse_inject(os.environ.get(INJECT_ENV))
    return RunKnobs(
        grid=_as_grid(grid).dims,
        schedule=schedule,
        block=None if schedule == "naive" else block,
        wavefront_dim=wavefront_dim,
        multicast=resolve_multicast(multicast),
        oversub=oversub,
        sanitize=bool(sanitize),
        inject=inject,
    )


def plan_run(
    compiled: CompiledScan,
    knobs: RunKnobs,
    *,
    static: bool = False,
    tracer=NULL_TRACER,
) -> RunPlan:
    """Plan one run for resolved ``knobs`` (:func:`resolve_run` minus the
    environment reads and the certification pre-flight)."""
    schedule, block = knobs.schedule, knobs.block
    placed = place(
        compiled, ProcessorGrid(knobs.grid), schedule, knobs.wavefront_dim
    )
    plan, grid = placed.wavefront, placed.grid
    if not static:
        # Workers never run the C compiler: publish the block's native
        # object from here, so all they do is load it.
        ensure_native(compiled)

    # Fabric selection happens before block sizing: the autotuner's cost
    # model depends on whether a release costs one pipe round per edge or
    # one epoch stamp per fan-out.
    fabric, groups = "pipes", None
    mode = knobs.multicast
    if schedule == "pipelined" and mode != "off" and plan.chunk_dim is not None:
        groups = plan_groups(
            compiled, plan, placed.chains, placed.locals_by_rank, grid.size
        )
        if groups is not None and (mode == "on" or groups.max_fanout >= 2):
            fabric = "multicast"
        else:
            groups = None

    if block is None and schedule != "naive":
        if static:
            block = placed.default_block()
        else:
            from repro.parallel.autotune import tuned_block_size

            block = tuned_block_size(
                compiled,
                grid.dims[0],
                plan=plan,
                fabric=fabric,
                fanout=groups.max_fanout if groups is not None else 1,
            )
    geometry = placed.chunked(block)

    # Taskgraph tiles reuse the pipelined block width along the chunk
    # dimension (per-tile compute vs per-tile scheduling overhead trades
    # off like Eq. (1)'s compute vs message cost, and it keeps the two
    # schedules block-for-block comparable); the wave dimension is
    # over-decomposed ``oversub`` slabs per rank so stealing has slack.
    graph = None
    if schedule == "taskgraph":
        from repro.compiler.taskdag import derive_taskgraph

        with tracer.span("taskdag", "setup", cached=False):
            graph = derive_taskgraph(
                compiled, plan, geometry.locals_by_rank, knobs.oversub, block
            )

    return RunPlan(
        geometry=geometry,
        fabric=fabric,
        groups=groups,
        oversub=knobs.oversub,
        graph=graph,
        sanitize=knobs.sanitize,
        inject=knobs.inject,
    )


def preflight(run_plan: RunPlan) -> None:
    """``REPRO_CERTIFY=1``: certify exactly what is about to be dispatched
    (raises :class:`~repro.errors.CertifyError` on a violation)."""
    if env_flag("REPRO_CERTIFY", False):
        from repro.analyze.certify import certify_execution

        certify_execution(run_plan)


def resolve_run(
    compiled: CompiledScan,
    grid: ProcessorGrid | int | tuple[int, ...] | None = None,
    *,
    schedule: str | None = None,
    block: int | None = None,
    wavefront_dim: int | None = None,
    multicast: bool | str | None = None,
    sanitize: bool | None = None,
    oversub: int | None = None,
    static: bool = False,
    tracer=NULL_TRACER,
) -> RunPlan:
    """Plan one run: every derivation, validation and refusal, once.

    Arguments mean what they mean on
    :func:`repro.parallel.executor.execute`; ``None`` honours the matching
    ``REPRO_*`` variable.  ``static`` plans without touching the host — the
    block size defaults to a static heuristic instead of the autotuner,
    the sanitizer knobs are not read, and the ``REPRO_CERTIFY`` pre-flight
    is skipped: it is how the analyzer's own entry points plan.  ``tracer``
    receives the ``taskdag`` span.  Raises the
    :class:`~repro.errors.MachineError` family for configurations no
    executor would run; the geometry's refusals come from
    :mod:`repro.compiler.schedule`, so the simulator raises the same ones.
    """
    knobs = resolve_knobs(
        grid,
        schedule=schedule,
        block=block,
        wavefront_dim=wavefront_dim,
        multicast=multicast,
        sanitize=sanitize,
        oversub=oversub,
        static=static,
    )
    run_plan = plan_run(compiled, knobs, static=static, tracer=tracer)
    if not static:
        preflight(run_plan)
    return run_plan


# ---------------------------------------------------------------------------
# The parent-side driver both process lifecycles share
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParallelRun:
    """Outcome of one real parallel execution (values land in the arrays)."""

    schedule: str
    grid_dims: tuple[int, ...]
    block_size: int | None
    n_chunks: int
    #: Pipeline busy time: the slowest worker's barrier-to-finish seconds.
    wall_time: float
    #: Per-processor busy times, indexed by grid rank.
    worker_times: tuple[float, ...]
    #: Parent-side overhead: planning, sharing, pickling, process startup
    #: or dispatch, up to the start barrier (seconds).
    setup_time: float
    plan: WavefrontPlan
    #: Structured event recording (:mod:`repro.obs`), when tracing was on.
    trace: Trace | None = None
    #: Scheduler outcome (:class:`repro.parallel.taskgraph.TaskgraphReport`)
    #: when ``schedule="taskgraph"``: tile/pruning/steal accounting.
    taskgraph: object | None = None
    #: The communication fabric the run synchronised on: ``"pipes"``
    #: (point-to-point tokens) or ``"multicast"`` (epoch publishes).
    fabric: str = "pipes"

    @property
    def n_procs(self) -> int:
        total = 1
        for extent in self.grid_dims:
            total *= extent
        return total

    def __repr__(self) -> str:
        return (
            f"ParallelRun({self.schedule}, grid={self.grid_dims}, "
            f"b={self.block_size}, wall={self.wall_time * 1e3:.2f}ms)"
        )


class RunResources:
    """The per-run shared segments a plan needs, whoever runs it.

    A taskgraph run owns one scheduler segment (pending counts, deques,
    stamps — sanitizing rides those stamps); a sanitized static-order run
    owns one shadow segment (stamp plane + per-``(rank, block)`` clock
    rows).  Both are per run, so one request can never leak state into
    the next; :meth:`release` unlinks them.
    """

    def __init__(self, run_plan: RunPlan):
        self.run_plan = run_plan
        self._segment = self._taskgraph = self._sanitize = None
        n = run_plan.grid.size
        if run_plan.graph is not None:
            from repro.parallel.taskgraph import TaskgraphState

            self._segment = TaskgraphState(
                run_plan.graph, n, inject=run_plan.inject
            )
            self._taskgraph = self._segment.spec(
                run_plan.graph, n, run_plan.sanitize
            )
        elif run_plan.sanitize:
            from repro.analyze.sanitizer import ShadowPool

            self._segment = ShadowPool(run_plan.geometry, run_plan.inject)
            self._sanitize = self._segment.spec

    def job(
        self,
        rank: int,
        mcast: MulticastSpec | None,
        timeout: float,
        trace: bool,
        tags: dict | None = None,
    ) -> BlockJob:
        """One rank's share of the run, as the worker loop consumes it."""
        plan = self.run_plan.wavefront
        return BlockJob(
            chunks=self.run_plan.chunks_by_rank.get(rank, ()),
            chunk_dim=plan.chunk_dim,
            boundary_rows=plan.boundary_rows,
            timeout=timeout,
            trace=trace,
            tags=tags,
            taskgraph=self._taskgraph,
            mcast=mcast,
            sanitize=self._sanitize,
        )

    def release(self) -> None:
        if self._segment is not None:
            self._segment.release()


def target_names(compiled: CompiledScan) -> str:
    """The arrays a run of ``compiled`` writes (non-contracted targets)."""
    return ", ".join(
        a.name or "<anonymous>"
        for a in compiled.written_arrays()
        if not compiled.is_contracted(a)
    )


def _first_error(results, seq: int | None) -> str:
    """Best-effort: pull this run's first worker error off the queue."""
    try:
        while True:
            status, rank, payload = results.get(timeout=1.0)
            if status == "error" and payload.get("seq") == seq:
                return f"\nworker {rank}:\n{payload['detail']}"
    except Exception:
        return ""


def meet_barrier(
    barrier,
    results,
    timeout: float,
    obs,
    *,
    seq: int | None = None,
    broken: type[MachineError] = MachineError,
) -> None:
    """Meet the workers at the start barrier (the ``barrier`` span)."""
    try:
        with obs.span("barrier", "sync"):
            barrier.wait(timeout=timeout)
    except Exception as exc:
        raise broken(
            f"workers failed to start: {exc}{_first_error(results, seq)}"
        ) from exc


def _worker_error(
    run_plan: RunPlan, rank: int, payload: dict, broken: type[MachineError]
) -> Exception:
    """The typed parent-side error for one worker's failure report."""
    detail = payload["detail"] + _partly_written(run_plan)
    if payload.get("error") == "SanitizerError":
        # The race report, not the process plumbing, is the story.
        what = (
            "a wavefront race (taskgraph protocol violation)"
            if run_plan.graph is not None
            else "a wavefront race"
        )
        return SanitizerError(f"worker {rank} detected {what}:\n{detail}")
    flight_dump = payload.get("flight")
    if flight_dump and flight_dump.get("events"):
        detail += (
            "\nworker flight recorder (last events before failure):\n"
            + format_flight_tail(flight_dump)
        )
    return broken(f"worker {rank} failed:\n{detail}")


def _partly_written(run_plan: RunPlan) -> str:
    """Workers write the caller's storage in place, so a failed run, like a
    failed serial one, may leave its targets partly updated: say which."""
    names = target_names(run_plan.compiled)
    return f"\narrays possibly left partly written: {names}"


def collect(
    results,
    run_plan: RunPlan,
    timeout: float,
    obs,
    *,
    dead_ranks: Callable[[], list[int]],
    seq: int | None = None,
    broken: type[MachineError] = MachineError,
) -> tuple[dict[int, float], dict[int, dict]]:
    """Gather one report per rank: ``(elapsed by rank, stats by rank)``.

    Polls in :data:`POLL_SECONDS` slices instead of one long ``get()``.
    ``dead_ranks()`` names the ranks whose process is gone; one that is
    still unreported on two consecutive empty polls (a worker's report is
    flushed to the queue before its process exits, so the second poll
    would have delivered it) raises ``broken`` at once.  Raises on the
    first failure report — downstream stages are blocked on releases that
    will never arrive, so waiting out their timeouts only delays the
    traceback — classified by the exception type the worker named, never
    by the text of its traceback.  Reports tagged with another run's
    ``seq`` are stale leftovers of a failed pooled run and are skipped.
    """
    n = run_plan.grid.size
    outcomes: dict[int, float] = {}
    run_stats: dict[int, dict] = {}
    deadline = time.monotonic() + timeout
    strikes = 0
    while len(outcomes) < n:
        try:
            status, rank, payload = results.get(timeout=POLL_SECONDS)
        except queue.Empty:
            lost = [r for r in dead_ranks() if r not in outcomes]
            strikes = strikes + 1 if lost else 0
            if strikes >= 2:
                raise broken(
                    f"worker(s) {lost} died mid-run without reporting"
                    + _partly_written(run_plan)
                ) from None
            if time.monotonic() > deadline:
                raise broken(
                    f"lost contact with {n - len(outcomes)} worker(s) "
                    f"after {timeout:.0f}s" + _partly_written(run_plan)
                ) from None
            continue
        if payload.get("seq") != seq:
            continue
        if status != "ok":
            raise _worker_error(run_plan, rank, payload, broken)
        outcomes[rank] = payload["elapsed"]
        run_stats[rank] = payload.get("stats") or {}
        obs.absorb(payload["events"])
    return outcomes, run_stats


def finish(
    run_plan: RunPlan,
    outcomes: dict[int, float],
    run_stats: dict[int, dict],
    setup_time: float,
    obs,
    *,
    pool: bool = False,
) -> ParallelRun:
    """Close one collected run: sanitizer accounting, report, trace, result."""
    if run_plan.sanitize and run_plan.graph is None:
        # Clock accounting over the result channel: every rank must have
        # advanced its own clock through all its blocks.  A short count
        # means completions went missing — a protocol hole the per-block
        # checks cannot see from the other side.
        for rank in run_plan.grid:
            clocks = run_stats[rank].get("clocks")
            expected = len(run_plan.chunks_by_rank[rank])
            if clocks is None or clocks[rank] != expected:
                got = "none" if clocks is None else clocks[rank]
                raise SanitizerError(
                    f"sanitizer clock accounting failed: worker "
                    f"{rank} retired {got} of {expected} blocks"
                )
    report = None
    if run_plan.graph is not None:
        from repro.parallel.taskgraph import report_from_stats

        report = report_from_stats(run_plan.graph, run_stats)
    worker_times = tuple(outcomes[rank] for rank in run_plan.grid)
    wall_time = max(worker_times)
    trace = None
    if obs.enabled:
        meta = run_plan.meta()
        meta.update(wall_time=wall_time, setup_time=setup_time)
        if pool:
            meta["pool"] = True
        if report is not None:
            meta["steals"] = report.steals
        trace = Trace.from_tracer(obs, clock="wall", meta=meta)
    return ParallelRun(
        schedule=run_plan.schedule,
        grid_dims=run_plan.grid.dims,
        block_size=run_plan.block_size,
        n_chunks=run_plan.n_chunks,
        wall_time=wall_time,
        worker_times=worker_times,
        setup_time=setup_time,
        plan=run_plan.wavefront,
        trace=trace,
        taskgraph=report,
        fabric=run_plan.fabric,
    )
