"""Fig. 7: speedup of pipelined over non-pipelined parallel codes.

The paper's parallel experiment: Tomcatv and SIMPLE with all arrays
distributed across the wavefront dimension, on the Cray T3E and the SGI
PowerChallenge, at several processor counts.  Grey bars: the wavefront
computations alone, whose non-pipelined baseline is serialised across the
processors — their speedup should approach p.  Black bars: the whole
program, whose baseline already runs every parallel phase at full speed —
improvements reach ~3x for Tomcatv and stay in the 5-8%+ range at the low
end for SIMPLE.

Regeneration: every wavefront phase of each benchmark runs on the
discrete-event machine under both the naive (Fig. 4(a)) and the pipelined
(Fig. 4(b)) schedule, at the Model2-optimal block size for that phase's
compute weight; whole-program times compose the phase times (parallel
phases: work/p plus one halo exchange; serial phases: unscaled).

The paper does not state Fig. 7's problem size; ``n = 1025`` (a typical
large mesh of the era) makes the communication/computation ratio match the
reported behaviour — with the Fig. 5(a) problem size the T3E's huge α would
cap the wavefront speedup well below p, which is exactly the efficiency
decay the paper describes for growing p.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from repro.apps import simple, tomcatv
from repro.compiler.lowering import CompiledScan
from repro.experiments.common import PAPER_MACHINES, PAPER_PROCS, heading
from repro.machine.params import MachineParams
from repro.machine.schedules import (
    naive_wavefront,
    pipelined_wavefront,
    plan_wavefront,
)
from repro.models.amdahl import PhaseKind, ProgramProfile
from repro.models.pipeline_model import model2_of
from repro.util.tables import format_bar_chart

DESCRIPTION = "Fig. 7: pipelined vs non-pipelined parallel speedup, Tomcatv & SIMPLE"


@dataclass(frozen=True)
class PhaseTimes:
    """Naive and pipelined times of one wavefront phase at one (machine, p)."""

    phase: str
    naive: float
    pipelined: float
    block_size: int

    @property
    def speedup(self) -> float:
        return self.naive / self.pipelined


@dataclass(frozen=True)
class BenchmarkPipelineResult:
    benchmark: str
    machine: MachineParams
    procs: int
    wavefronts: tuple[PhaseTimes, ...]
    whole_nonpipelined: float
    whole_pipelined: float

    @property
    def whole_speedup(self) -> float:
        return self.whole_nonpipelined / self.whole_pipelined


@dataclass(frozen=True)
class Fig7Result:
    n: int
    results: tuple[BenchmarkPipelineResult, ...]

    def report(self) -> str:
        sections = [
            heading(f"Fig. 7 — pipelined vs non-pipelined speedup (n={self.n})")
        ]
        by_machine: dict[str, list[BenchmarkPipelineResult]] = {}
        for r in self.results:
            by_machine.setdefault(r.machine.name, []).append(r)
        for machine_name, rows in by_machine.items():
            bars = []
            for r in rows:
                for w in r.wavefronts:
                    bars.append(
                        (f"{r.benchmark} p={r.procs} {w.phase} (grey)", w.speedup)
                    )
                bars.append(
                    (f"{r.benchmark} p={r.procs} whole (black)", r.whole_speedup)
                )
            sections.append(format_bar_chart(machine_name, bars))
            sections.append("")
        return "\n".join(sections)

    def lookup(
        self, benchmark: str, machine_name: str, procs: int
    ) -> BenchmarkPipelineResult:
        for r in self.results:
            if (
                r.benchmark == benchmark
                and r.machine.name == machine_name
                and r.procs == procs
            ):
                return r
        raise KeyError((benchmark, machine_name, procs))


def _scaled_optimal_b(
    compiled: CompiledScan, params: MachineParams, p: int, work: float
) -> int:
    """Model2's best block size when each element costs ``work`` units."""
    scaled = dataclasses.replace(
        params, alpha=params.alpha / work, beta=params.beta / work
    )
    return model2_of(plan_wavefront(compiled), scaled, p).optimal_block_size()


def _wavefront_phase_times(
    compiled: CompiledScan,
    params: MachineParams,
    p: int,
    phase_name: str,
    work: float,
) -> PhaseTimes:
    b = _scaled_optimal_b(compiled, params, p, work)
    naive = naive_wavefront(
        compiled, params, n_procs=p, compute_values=False, work_per_element=work
    ).total_time
    piped = pipelined_wavefront(
        compiled, params, n_procs=p, block_size=b,
        compute_values=False, work_per_element=work,
    ).total_time
    return PhaseTimes(phase_name, naive, piped, b)


#: benchmark name -> (profile builder, wavefront fragments builder).
#: The fragments builder returns phase-name -> compiled scan, with per-element
#: work equal to the profile weight of that phase.
FragmentMap = Callable[[int], dict[str, tuple[CompiledScan, float]]]


def _tomcatv_fragments(n: int) -> dict[str, tuple[CompiledScan, float]]:
    state = tomcatv.build(n)
    interior = state.interior.size
    prof = tomcatv.profile(n)
    weights = {ph.name: ph.work / interior for ph in prof.phases}
    return {
        "forward-solve": (tomcatv.compile_forward(state), weights["forward-solve"]),
        "backward-solve": (tomcatv.compile_backward(state), weights["backward-solve"]),
    }


def _simple_fragments(n: int) -> dict[str, tuple[CompiledScan, float]]:
    state = simple.build(n)
    ns_f, _, we_f, _ = simple.compile_sweeps(state)
    interior = state.interior.size
    prof = simple.profile(n)
    weights = {ph.name: ph.work / interior for ph in prof.phases}
    return {
        "conduction-ns": (ns_f, weights["conduction-ns"]),
        "conduction-we": (we_f, weights["conduction-we"]),
    }


BENCHMARKS: tuple[tuple[str, Callable[[int], ProgramProfile], FragmentMap], ...] = (
    ("tomcatv", tomcatv.profile, _tomcatv_fragments),
    ("simple", simple.profile, _simple_fragments),
)


def run(
    n: int = 1025,
    procs: tuple[int, ...] = PAPER_PROCS,
    machines: tuple[MachineParams, ...] = PAPER_MACHINES,
    quick: bool = False,
) -> Fig7Result:
    """Regenerate the figure for both benchmarks on both machines."""
    if quick:
        n = min(n, 129)
        procs = tuple(p for p in procs if p <= 8)
    results = []
    for benchmark, profile_fn, fragments_fn in BENCHMARKS:
        profile = profile_fn(n)
        fragments = fragments_fn(n)
        width = int(round(profile.total_work() ** 0.5))  # halo-size scale
        for machine in machines:
            for p in procs:
                wave_times = tuple(
                    _wavefront_phase_times(compiled, machine, p, name, work)
                    for name, (compiled, work) in fragments.items()
                )
                by_phase = {w.phase: w for w in wave_times}
                halo = 2.0 * machine.message_cost(n)

                def nonpipelined(phase) -> float:
                    if phase.kind is PhaseKind.WAVEFRONT:
                        return by_phase[phase.name].naive
                    if phase.kind is PhaseKind.SERIAL:
                        return phase.work
                    return phase.work / p + halo

                def pipelined(phase) -> float:
                    if phase.kind is PhaseKind.WAVEFRONT:
                        return by_phase[phase.name].pipelined
                    if phase.kind is PhaseKind.SERIAL:
                        return phase.work
                    return phase.work / p + halo

                results.append(
                    BenchmarkPipelineResult(
                        benchmark=benchmark,
                        machine=machine,
                        procs=p,
                        wavefronts=wave_times,
                        whole_nonpipelined=profile.compose(nonpipelined),
                        whole_pipelined=profile.compose(pipelined),
                    )
                )
    return Fig7Result(n=n, results=tuple(results))
