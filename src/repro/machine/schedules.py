"""Distributed execution schedules for compiled scan blocks.

Three ways to run a wavefront on the simulated machine (paper Fig. 4 and
Section 4):

* :func:`naive_wavefront` — each processor waits for its entire boundary,
  computes its whole local block, then forwards (Fig. 4(a)).  No parallelism
  along the wavefront dimension.
* :func:`pipelined_wavefront` — each processor works in blocks of ``b``
  columns, forwarding each block's boundary as soon as it is computed
  (Fig. 4(b)).  The naive schedule is the special case ``b = full width``;
  :func:`pipelined_wavefront_mesh` is the general case on a 2-D grid, of
  which a rank-1 grid is the one-column mesh.
* :func:`transpose_wavefront` — the alternative the paper's Section 2.2
  discusses: redistribute the data so the wavefront dimension is local,
  compute with no pipelining, and redistribute back (two all-to-alls).

The naive, pipelined and mesh schedules are thin entry points over one
discrete-event walker (:func:`_walk`).  Each plans its
:class:`~repro.compiler.schedule.ScheduleGeometry` with the planner
:func:`repro.parallel.execute` uses — same refusals, same typed errors —
and the walker derives nothing of its own: predecessors and successors are
the geometry's ``chains``, the blocks its ``chunks_by_rank``, a token
``boundary_rows × block width`` elements.

All schedules operate on a real :class:`~repro.compiler.lowering.CompiledScan`;
with ``compute_values=True`` the actual element values are produced (and are
bit-identical to the sequential engines: the planner refuses every chain
whose dependences the down-the-chain, block-order messages would not
enforce), while the virtual clock charges the α+β model.
``compute_values=False`` skips the numpy work for large timing sweeps.

Terminology: the *wavefront dimension* ``w`` is distributed across the
processors; the *chunk dimension* ``c`` is blocked into pipeline chunks of
width ``b``.  Boundary data of the block-written arrays flows with the wave;
halo data of arrays the block only reads is pre-exchanged before the pipeline
starts (their values are loop-invariant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.compiler.grid import ProcessorGrid
from repro.compiler.lowering import CompiledScan
from repro.compiler.schedule import (
    ScheduleGeometry,
    WavefrontPlan,
    _build_distribution,
    place,
    plan_wavefront,
    shift_depths,
)
from repro.compiler.wsv import DimClass
from repro.errors import DistributionError
from repro.machine.comm import Endpoint
from repro.machine.params import MachineParams
from repro.machine.simulator import Machine, RunResult
from repro.runtime.kernels import PlanRunner, execute_vectorized

#: Tag used by the pre-pipeline halo exchange.
HALO_TAG = -1


@dataclass(frozen=True)
class DistributedOutcome:
    """Result of one distributed run: timing plus schedule facts."""

    run: RunResult
    plan: WavefrontPlan
    n_procs: int
    block_size: int | None
    n_chunks: int
    schedule: str
    #: The geometry the walker ran (wavefront schedules only).
    geometry: ScheduleGeometry | None = None

    @property
    def total_time(self) -> float:
        return self.run.total_time

    def __repr__(self) -> str:
        return (
            f"DistributedOutcome({self.schedule}, p={self.n_procs}, "
            f"b={self.block_size}, t={self.total_time:.1f})"
        )


def pipelined_wavefront(
    compiled: CompiledScan,
    params: MachineParams,
    n_procs: int,
    block_size: int,
    wavefront_dim: int | None = None,
    compute_values: bool = True,
    work_per_element: float = 1.0,
    send_overhead: float = 0.0,
    wire_latency: float = 0.0,
    trace_activity: bool = False,
    tracer=None,
) -> DistributedOutcome:
    """Run a scan block with pipelined communication (paper Section 4).

    The region is block distributed across ``n_procs`` along the wavefront
    dimension; each processor computes blocks of ``block_size`` along the
    chunk dimension, forwarding boundaries eagerly.
    """
    grid = ProcessorGrid((n_procs,))
    geometry = place(compiled, grid, "pipelined", wavefront_dim).chunked(block_size)
    return _walk(
        geometry, params, "pipelined", compute_values, work_per_element,
        send_overhead=send_overhead, wire_latency=wire_latency,
        trace_activity=trace_activity, tracer=tracer,
    )


def naive_wavefront(
    compiled: CompiledScan,
    params: MachineParams,
    n_procs: int,
    wavefront_dim: int | None = None,
    compute_values: bool = True,
    work_per_element: float = 1.0,
    send_overhead: float = 0.0,
    wire_latency: float = 0.0,
    trace_activity: bool = False,
    tracer=None,
) -> DistributedOutcome:
    """Run a scan block with naive (whole-block) communication (Fig. 4(a))."""
    grid = ProcessorGrid((n_procs,))
    geometry = place(compiled, grid, "naive", wavefront_dim).chunked(None)
    return _walk(
        geometry, params, "naive", compute_values, work_per_element,
        send_overhead=send_overhead, wire_latency=wire_latency,
        trace_activity=trace_activity, tracer=tracer,
    )


def pipelined_wavefront_mesh(
    compiled: CompiledScan,
    params: MachineParams,
    mesh: tuple[int, int],
    block_size: int,
    wavefront_dim: int | None = None,
    compute_values: bool = True,
    work_per_element: float = 1.0,
    tracer=None,
) -> DistributedOutcome:
    """Pipelined execution on a 2-D processor mesh (the paper's Fig. 4 shape).

    ``mesh = (pw, pc)`` distributes the wavefront dimension across ``pw``
    processors and the chunk dimension across ``pc``.  Each column of the
    mesh runs an independent pipeline chain over its slice of the chunk
    dimension, so the per-chain boundary messages shrink by a factor of
    ``pc`` — the surface-to-volume effect that motivates 2-D distributions.

    Requires the chunk dimension to be completely parallel (no dependence
    component at all): a dependence along a distributed chunk dimension
    would couple the chains.
    """
    pw, pc = mesh
    geometry = place(
        compiled, ProcessorGrid((pw, pc)), "pipelined", wavefront_dim
    ).chunked(block_size)
    return _walk(
        geometry, params, f"pipelined-mesh{mesh}", compute_values,
        work_per_element, tracer=tracer,
    )


def _walk(
    geometry: ScheduleGeometry,
    params: MachineParams,
    schedule: str,
    compute_values: bool,
    work_per_element: float,
    **machine_options,
) -> DistributedOutcome:
    """Run a planned geometry on the virtual clock, one process per rank.

    Each rank pre-exchanges the read-only halo (old values, off the wave's
    critical path: one message down the chain and, on a mesh, one to each
    side neighbour for shifts along the chunk dimension), then per block
    waits for its predecessor's token, computes, and forwards its own.
    Values are computed block by block through one
    :class:`~repro.runtime.kernels.PlanRunner`, as the workers compute them.
    """
    plan, grid = geometry.wavefront, geometry.grid
    compiled = plan.compiled
    w, c = plan.wavefront_dim, plan.chunk_dim
    side_halo = 0
    if grid.rank == 2:
        side_halo = sum(max(d) for d in shift_depths(compiled, c)[1].values())
    runner = None
    if compute_values:
        compiled.prepare()
        runner = PlanRunner(compiled)
    machine = Machine(params, grid.size, **machine_options)

    def width(region) -> int:
        return region.extent(c) if c is not None else 1

    def body(ep: Endpoint, pred: int | None, succ: int | None) -> Generator:
        local = geometry.locals_by_rank[ep.rank]
        if side_halo > 0 and local.extent(w) > 0:
            sides = (grid.neighbor(ep.rank, 1, -1), grid.neighbor(ep.rank, 1, 1))
            sides = [other for other in sides if other is not None]
            size = max(1, side_halo * local.extent(w))
            for other in sides:
                ep.send(other, size=size, tag=HALO_TAG - 1)
            for other in sides:
                yield from ep.recv(other, tag=HALO_TAG - 1)
        if plan.halo_rows > 0:
            if succ is not None:
                ep.send(
                    succ, size=max(1, plan.halo_rows * width(local)), tag=HALO_TAG
                )
            if pred is not None:
                yield from ep.recv(pred, tag=HALO_TAG)
        for k, chunk in enumerate(geometry.chunks_by_rank[ep.rank]):
            if pred is not None and plan.boundary_rows > 0:
                yield from ep.recv(pred, tag=k)
            if not chunk.is_empty():
                if runner is not None:
                    runner.run_block(chunk)
                yield from ep.compute(chunk.size * work_per_element, label=k)
            if succ is not None and plan.boundary_rows > 0:
                ep.send(
                    succ, size=max(1, plan.boundary_rows * width(chunk)), tag=k
                )

    for chain in geometry.chains:
        for pred, rank, succ in zip((None, *chain), chain, (*chain[1:], None)):
            machine.sim.process(
                body(machine.endpoint(rank), pred, succ), name=f"proc{rank}"
            )

    return DistributedOutcome(
        machine.run(), plan, grid.size, geometry.block_size,
        geometry.n_chunks, schedule, geometry,
    )


def parallel_schedule(
    compiled: CompiledScan,
    params: MachineParams,
    n_procs: int,
    dist_dim: int = 0,
    compute_values: bool = True,
    work_per_element: float = 1.0,
) -> DistributedOutcome:
    """Run a dependence-free (non-wavefront) block fully in parallel.

    Each processor exchanges whatever halo its shifted references need along
    the distributed dimension, then computes its local portion.  Used for the
    parallel phases of whole-program simulations (Fig. 7's baseline parts).
    """
    region = compiled.region
    loops = compiled.loops
    if loops.classes[dist_dim] is not DimClass.PARALLEL:
        raise DistributionError(
            f"dimension {dist_dim} carries a wavefront; use pipelined_wavefront"
        )
    # Halo depth: the deepest shifted read along the distributed dimension,
    # summed over arrays (each array is a separate neighbour message).
    written, read_only = shift_depths(compiled, dist_dim)
    depths = [*written.values(), *read_only.values()]
    depth_up = sum(neg for neg, _pos in depths)
    depth_down = sum(pos for _neg, pos in depths)
    plan = WavefrontPlan(compiled, dist_dim, None, 0, max(depth_up, depth_down))
    grid = ProcessorGrid((n_procs,))
    dist = _build_distribution(plan, grid)

    if compute_values:
        compiled.prepare()
        execute_vectorized(compiled)  # parallel block: order-independent

    other = region.size // max(1, region.extent(dist_dim))

    machine = Machine(params, n_procs)

    def body(ep: Endpoint) -> Generator:
        proc = ep.rank
        local = dist.local_region(proc)
        up = grid.neighbor(proc, 0, -1)
        down = grid.neighbor(proc, 0, +1)
        if up is not None and depth_down > 0:
            ep.send(up, size=depth_down * other, tag=HALO_TAG)
        if down is not None and depth_up > 0:
            ep.send(down, size=depth_up * other, tag=HALO_TAG)
        if up is not None and depth_up > 0:
            yield from ep.recv(up, tag=HALO_TAG)
        if down is not None and depth_down > 0:
            yield from ep.recv(down, tag=HALO_TAG)
        yield from ep.compute(local.size * work_per_element)

    for rank in range(n_procs):
        machine.spawn(body, rank)
    run = machine.run()
    return DistributedOutcome(run, plan, n_procs, None, 1, "parallel")


def transpose_wavefront(
    compiled: CompiledScan,
    params: MachineParams,
    n_procs: int,
    wavefront_dim: int | None = None,
    work_per_element: float = 1.0,
) -> DistributedOutcome:
    """The transpose alternative: redistribute, compute locally, restore.

    Models the Section 2.2 scenario: instead of pipelining a wavefront that
    crosses the distribution, transpose the data so the wavefront dimension
    becomes processor-local (two all-to-all phases around a fully parallel
    compute).  Timing only — transposition in shared storage is a no-op, so
    values are produced by one sequential execution.
    """
    plan = plan_wavefront(compiled, wavefront_dim)
    region = plan.region
    compiled.prepare()
    execute_vectorized(compiled)

    n_arrays = len(compiled.written_arrays()) + len(
        [a for a in compiled.read_arrays() if not compiled.is_contracted(a)]
    )
    piece = max(1, region.size // (n_procs * n_procs))

    machine = Machine(params, n_procs)

    def body(ep: Endpoint) -> Generator:
        others = [r for r in range(n_procs) if r != ep.rank]
        # Transpose out: exchange a piece with every other processor,
        # once per live array.
        for phase in (0, 1):
            for other in others:
                ep.send(other, size=piece * n_arrays, tag=phase)
            for other in others:
                yield from ep.recv(other, tag=phase)
            if phase == 0:
                yield from ep.compute(
                    (region.size / n_procs) * work_per_element
                )

    for rank in range(n_procs):
        machine.spawn(body, rank)
    run = machine.run()
    return DistributedOutcome(run, plan, n_procs, None, 1, "transpose")
