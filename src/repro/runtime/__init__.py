"""Sequential execution engines for compiled scan blocks.

* :func:`execute_loopnest` — scalar element-at-a-time oracle (slow, obviously
  correct);
* :func:`execute_vectorized` — the production engine: the block's
  ahead-of-time kernel (:mod:`repro.runtime.kernels`).  The host picks the
  lowering: the native C loop nest where it builds one, else numpy —
  hyperplane-skewed for multi-dependence wavefronts, a row loop over the
  dependence-carrying dimensions otherwise;
* :func:`execute_interpreted` — pure array semantics for non-scan statements
  (the same kernels, and a tree walk for what they cannot express);
* :mod:`repro.runtime.kernels` — the AOT kernel layer: plan templates, the
  region-plan cache, compile-time aliasing analysis, plan fingerprints;
* :class:`ArraySnapshot` / :func:`run_and_capture` — differential-test helpers.
"""

from repro.runtime.loopnest import execute_loopnest
from repro.runtime.interp import (
    execute_interpreted,
    ArraySnapshot,
    run_and_capture,
)
from repro.runtime.kernels import (
    KERNEL_STATS,
    PlanRunner,
    execute_vectorized,
    plan_fingerprint,
    plan_kind,
    statement_needs_copy,
)

__all__ = [
    "KERNEL_STATS",
    "ArraySnapshot",
    "PlanRunner",
    "execute_loopnest",
    "execute_vectorized",
    "execute_interpreted",
    "plan_fingerprint",
    "plan_kind",
    "run_and_capture",
    "statement_needs_copy",
]
