"""The simulated distributed-memory machine.

Layers, bottom up:

* :mod:`repro.machine.event` — deterministic discrete-event simulation core;
* :mod:`repro.machine.params` — α+β communication model + cache geometry,
  with ``CRAY_T3E`` / ``SGI_POWERCHALLENGE`` / ``HYPOTHETICAL_HIGH_BETA``
  presets calibrated against the paper's reported numbers;
* :class:`ProcessorGrid` / :class:`BlockMap` / :class:`WavefrontPlan` —
  processor meshes, block distributions, the wavefront plan: value-free
  geometry re-exported from the schedule IR (:mod:`repro.compiler.schedule`);
* :mod:`repro.machine.comm` / :mod:`repro.machine.simulator` — the
  message-passing fabric and per-run machine façade;
* :mod:`repro.machine.schedules` — naive, pipelined (rank-1 and mesh) and
  transpose wavefront schedules plus the fully parallel schedule, all
  operating on compiled scan blocks and producing both values and virtual
  times; the wavefront ones walk the geometry ``execute()`` runs.
"""

from repro.machine.event import Simulator, Store, Timeout
from repro.machine.params import (
    CacheGeometry,
    MachineParams,
    CRAY_T3E,
    SGI_POWERCHALLENGE,
    HYPOTHETICAL_HIGH_BETA,
    PRESETS,
)
from repro.compiler.grid import ProcessorGrid
from repro.compiler.distribution import BlockMap
from repro.machine.comm import Activity, Endpoint, Message, Network, ProcStats, RecvRequest
from repro.machine.simulator import Machine, RunResult
from repro.machine.gantt import render_gantt
from repro.machine.collectives import allreduce, barrier, broadcast, reduce
from repro.machine.program import (
    ProgramRunResult,
    WavefrontSpec,
    optimal_spec,
    simulate_program,
)
from repro.compiler.schedule import WavefrontPlan, plan_wavefront
from repro.machine.schedules import (
    DistributedOutcome,
    pipelined_wavefront,
    pipelined_wavefront_mesh,
    naive_wavefront,
    parallel_schedule,
    transpose_wavefront,
    HALO_TAG,
)

__all__ = [
    "Simulator",
    "Store",
    "Timeout",
    "CacheGeometry",
    "MachineParams",
    "CRAY_T3E",
    "SGI_POWERCHALLENGE",
    "HYPOTHETICAL_HIGH_BETA",
    "PRESETS",
    "ProcessorGrid",
    "BlockMap",
    "Activity",
    "Endpoint",
    "RecvRequest",
    "render_gantt",
    "allreduce",
    "barrier",
    "broadcast",
    "reduce",
    "ProgramRunResult",
    "WavefrontSpec",
    "optimal_spec",
    "simulate_program",
    "Message",
    "Network",
    "ProcStats",
    "Machine",
    "RunResult",
    "DistributedOutcome",
    "WavefrontPlan",
    "plan_wavefront",
    "pipelined_wavefront",
    "pipelined_wavefront_mesh",
    "naive_wavefront",
    "parallel_schedule",
    "transpose_wavefront",
    "HALO_TAG",
]
