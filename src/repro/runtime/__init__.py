"""Sequential execution engines for compiled scan blocks.

* :func:`execute_loopnest` — scalar element-at-a-time oracle (slow, obviously
  correct);
* :func:`execute_vectorized` — the production engine: Python loop over the
  dependence-carrying dimensions, numpy across the parallel ones.  By default
  it dispatches to ahead-of-time statement kernels (:mod:`repro.runtime.kernels`),
  hyperplane-skewed for multi-dependence wavefronts; ``engine="flat"`` disables
  skewing, ``engine="interp"`` / ``REPRO_ENGINE=interp`` select the
  tree-walking path;
* :func:`execute_interpreted` — pure array semantics for non-scan statements
  (same kernel fast path, same escape hatch);
* :mod:`repro.runtime.kernels` — the AOT kernel layer: plan templates, the
  region-plan cache, compile-time aliasing analysis, plan fingerprints;
* :class:`ArraySnapshot` / :func:`run_and_capture` — differential-test helpers.
"""

from repro.runtime.loopnest import execute_loopnest
from repro.runtime.vectorized import execute_vectorized
from repro.runtime.interp import (
    execute_interpreted,
    ArraySnapshot,
    run_and_capture,
)
from repro.runtime.kernels import (
    ENGINE_ENV,
    ENGINES,
    KERNEL_STATS,
    PlanRunner,
    default_engine,
    plan_fingerprint,
    plan_kind,
    resolve_engine,
    statement_needs_copy,
    try_execute_kernels,
)

__all__ = [
    "ENGINE_ENV",
    "ENGINES",
    "KERNEL_STATS",
    "ArraySnapshot",
    "PlanRunner",
    "default_engine",
    "execute_loopnest",
    "execute_vectorized",
    "execute_interpreted",
    "plan_fingerprint",
    "plan_kind",
    "resolve_engine",
    "run_and_capture",
    "statement_needs_copy",
    "try_execute_kernels",
]
