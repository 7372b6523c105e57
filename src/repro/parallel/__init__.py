"""Real multiprocess pipelined-wavefront execution (the measured machine).

Everything else in :mod:`repro.machine` runs on a virtual clock; this package
runs the same compiled scan blocks on the *host*: one OS process per
processor-grid cell, global arrays in :mod:`multiprocessing.shared_memory`,
pipeline synchronisation over real pipes, and per-block local execution
through the very same :func:`~repro.runtime.vectorized.execute_vectorized`
the sequential engine uses — so the compiler output, the schedule geometry
(:mod:`repro.compiler.schedule`: one planner, one set of refusals) and the
semantics are all shared with the simulator, and the results are
element-identical.

Layers:

* :mod:`repro.parallel.sharedmem` — shared-segment array storage;
* :mod:`repro.parallel.channels`  — token pipes between pipeline stages;
* :mod:`repro.parallel.collectives` — multicast epoch fabric + double
  buffering (one stamp releases a whole fan-out; ``REPRO_MULTICAST``);
* :mod:`repro.parallel.plan`      — :func:`resolve_run`: one ``RunPlan`` per
  run, read by both executors, the worker loop and the certifier;
* :mod:`repro.parallel.worker`    — the one block loop + its sync protocol;
* :mod:`repro.parallel.executor`  — :func:`execute`, the single entry point
  (fork-per-run transport);
* :mod:`repro.parallel.pool`      — :class:`WorkerPool`, fork once / run many
  (job-pipe transport);
* :mod:`repro.parallel.autotune`  — measured α/β → Equation (1) block sizes;
* :mod:`repro.parallel.bench`     — measured-vs-predicted speedup curves.
"""

from repro.parallel.autotune import (
    AutotuneResult,
    CollectiveParams,
    CommParams,
    autotune,
    collective_effective_params,
    dynamic_block_size,
    effective_params,
    host_collective,
    host_comm,
    measure_block_overhead,
    measure_comm,
    measure_compute_cost,
    measure_multicast,
    measure_pool_dispatch,
    measured_probe,
    normalized_params,
    optimal_block_size,
    tuned_block_size,
)
from repro.parallel.bench import oversubscription, speedup_curve, tomcatv_forward
from repro.parallel.collectives import (
    DOUBLE_BUFFER_ENV,
    MULTICAST_ENV,
    MulticastChannel,
    MulticastFabric,
    MulticastGroups,
    MulticastSpec,
    boundary_layout,
    plan_groups,
    resolve_double_buffer,
    resolve_multicast,
)
from repro.parallel.executor import execute
from repro.parallel.plan import (
    MAX_PROCS_ENV,
    ParallelRun,
    SCHEDULE_ENV,
    SCHEDULES,
    default_grid,
    resolve_schedule,
)
from repro.parallel.pool import (
    PoolSupervisor,
    WorkerPool,
    close_pools,
    shared_pool,
)
from repro.parallel.sharedmem import (
    BoundaryPool,
    SharedArrayPool,
    collect_arrays,
)
from repro.parallel.taskgraph import TaskgraphReport

__all__ = [
    "AutotuneResult",
    "BoundaryPool",
    "CollectiveParams",
    "CommParams",
    "DOUBLE_BUFFER_ENV",
    "MAX_PROCS_ENV",
    "MULTICAST_ENV",
    "MulticastChannel",
    "MulticastFabric",
    "MulticastGroups",
    "MulticastSpec",
    "ParallelRun",
    "SCHEDULE_ENV",
    "SCHEDULES",
    "TaskgraphReport",
    "SharedArrayPool",
    "PoolSupervisor",
    "WorkerPool",
    "autotune",
    "boundary_layout",
    "close_pools",
    "collect_arrays",
    "collective_effective_params",
    "default_grid",
    "dynamic_block_size",
    "effective_params",
    "execute",
    "host_collective",
    "host_comm",
    "measure_block_overhead",
    "measure_comm",
    "measure_compute_cost",
    "measure_multicast",
    "measure_pool_dispatch",
    "measured_probe",
    "normalized_params",
    "optimal_block_size",
    "oversubscription",
    "plan_groups",
    "resolve_double_buffer",
    "resolve_multicast",
    "resolve_schedule",
    "shared_pool",
    "speedup_curve",
    "tomcatv_forward",
    "tuned_block_size",
]
