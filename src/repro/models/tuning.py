"""Block-size selection strategies (the paper's future work, implemented).

"Because the optimal block size is a function of non-static parameters such
as problem size and computation cost, we will develop dynamic techniques for
calculating it.  We will investigate the quality of block size selection
using only static and profile information."

Three selectors over the same interface:

* :func:`select_static` — Equation (1) with compile-time machine constants
  (the "static information" selector);
* :func:`select_profiled` — fit α and β from a handful of timed probe runs
  (profile information), then apply Equation (1) with the fitted constants;
* :func:`select_dynamic` — ternary search on the measured time curve itself
  (T(b) is unimodal: it is a sum of a decreasing hyperbola and an increasing
  linear term), probing the machine as it goes.

Each returns a :class:`TuningResult` recording the chosen block size and how
many (simulated) probe runs it spent — the cost/quality tradeoff the paper
proposed to study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.compiler.lowering import CompiledScan
from repro.errors import ModelError
from repro.machine.params import MachineParams
from repro.machine.schedules import pipelined_wavefront, plan_wavefront
from repro.models.pipeline_model import model2_of

#: A probe runs the schedule at block size b and returns its time.
Probe = Callable[[int], float]


@dataclass(frozen=True)
class TuningResult:
    """Outcome of one selection strategy."""

    strategy: str
    block_size: int
    probes: int
    probe_times: tuple[tuple[int, float], ...]

    def __repr__(self) -> str:
        return (
            f"TuningResult({self.strategy}: b={self.block_size}, "
            f"{self.probes} probes)"
        )


def make_simulated_probe(
    compiled: CompiledScan, params: MachineParams, n_procs: int
) -> Probe:
    """A probe that runs the pipelined schedule on the simulated machine."""

    def probe(b: int) -> float:
        return pipelined_wavefront(
            compiled, params, n_procs=n_procs, block_size=b, compute_values=False
        ).total_time

    return probe


def select_static(
    compiled: CompiledScan, params: MachineParams, n_procs: int
) -> TuningResult:
    """Equation (1) with the machine's published α and β.  Zero probes."""
    b = model2_of(plan_wavefront(compiled), params, n_procs).optimal_block_size()
    return TuningResult("static", b, probes=0, probe_times=())


def select_profiled(
    compiled: CompiledScan,
    params: MachineParams,
    n_procs: int,
    probe: Probe | None = None,
    probe_sizes: tuple[int, int] = (2, 16),
) -> TuningResult:
    """Fit α, β from two probe runs, then apply Equation (1).

    With the blocking-receive cost model, ``T(b) - T_comp(b)`` is linear in
    the per-message cost ``α + βmb`` times the message count — two probes at
    different block sizes determine both constants.
    """
    plan = plan_wavefront(compiled)
    cols, m = plan.cols, max(1, plan.boundary_rows)
    if probe is None:
        probe = make_simulated_probe(compiled, params, n_procs)
    b_lo, b_hi = probe_sizes
    if not 1 <= b_lo < b_hi <= cols:
        raise ModelError(f"probe sizes {probe_sizes} out of range 1..{cols}")
    base = model2_of(plan, params, n_procs)
    times = []
    for b in (b_lo, b_hi):
        times.append((b, probe(b)))
    # Communication residual after subtracting the known compute term.
    # Chunk counts quantise (the DES sends ceil(cols/b) messages per hop),
    # so fit against the ceiling, not the model's smooth cols/b.
    residuals = [t - base.compute_time(b) for b, t in times]
    hops = [-(-cols // b) + n_procs - 2 for b, _ in times]
    msg_lo, msg_hi = residuals[0] / hops[0], residuals[1] / hops[1]
    # msg(b) = alpha + beta*m*b  =>  solve the 2x2 system.
    beta_m = (msg_hi - msg_lo) / (b_hi - b_lo)
    alpha = msg_lo - beta_m * b_lo
    alpha = max(alpha, 0.0)
    beta = max(beta_m / m, 0.0)
    fitted = MachineParams(name=f"{params.name} (profiled)", alpha=alpha, beta=beta)
    b = model2_of(plan, fitted, n_procs).optimal_block_size()
    return TuningResult("profiled", b, probes=2, probe_times=tuple(times))


def select_dynamic(
    compiled: CompiledScan,
    params: MachineParams,
    n_procs: int,
    probe: Probe | None = None,
    b_max: int | None = None,
) -> TuningResult:
    """Ternary search on the measured (probed) time curve.

    Converges in O(log b_max) probes because T(b) is unimodal in b.
    """
    cols = plan_wavefront(compiled).cols
    if probe is None:
        probe = make_simulated_probe(compiled, params, n_procs)
    hi = min(b_max or cols, cols)
    lo = 1
    cache: dict[int, float] = {}

    def timed(b: int) -> float:
        if b not in cache:
            cache[b] = probe(b)
        return cache[b]

    while hi - lo > 3:
        third = (hi - lo) // 3
        m1, m2 = lo + third, hi - third
        if timed(m1) <= timed(m2):
            hi = m2
        else:
            lo = m1
    best = min(range(lo, hi + 1), key=timed)
    return TuningResult(
        "dynamic",
        best,
        probes=len(cache),
        probe_times=tuple(sorted(cache.items())),
    )
