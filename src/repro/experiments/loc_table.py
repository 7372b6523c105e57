"""The expressiveness claim: kernel lines vs explicit-parallel machinery.

The paper's Section 1: "the core of the ASCI SWEEP3D benchmark is 626 lines
of code, only 179 of which are fundamental to the computation.  The remainder
are devoted to tiling, buffer management, and communication."

This library reproduces the comparison with its own artifacts: for each
wavefront application we count (a) the lines of the scan-block kernel — the
code a ZPL programmer writes — and (b) the lines of the explicit machinery
(schedules, distribution, message plumbing) that the language-based approach
renders reusable instead of per-application.  The measured ratio makes the
same point the paper's SWEEP3D numbers do: the fundamental computation is a
small minority of an explicitly parallel implementation.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from repro.apps import alignment, simple, sweep3d, tomcatv
from repro.experiments.common import heading
from repro.util.tables import Table

DESCRIPTION = "Expressiveness: scan-block kernel lines vs explicit-parallel machinery"

#: The paper's SWEEP3D line counts.
PAPER_SWEEP3D_TOTAL = 626
PAPER_SWEEP3D_FUNDAMENTAL = 179


def _code_lines(obj: object) -> int:
    """Non-blank, non-comment source lines of a function/module."""
    source = inspect.getsource(obj)  # type: ignore[arg-type]
    count = 0
    in_doc = False
    for raw in source.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith(('"""', "'''")):
            # Toggle docstring state (one-line docstrings toggle twice).
            if in_doc or not (line.endswith(('"""', "'''")) and len(line) > 3):
                in_doc = not in_doc
            continue
        if in_doc:
            continue
        count += 1
    return count


@dataclass(frozen=True)
class LocRow:
    application: str
    kernel_lines: int
    machinery_lines: int

    @property
    def total(self) -> int:
        return self.kernel_lines + self.machinery_lines

    @property
    def fundamental_fraction(self) -> float:
        return self.kernel_lines / self.total


@dataclass(frozen=True)
class LocResult:
    rows: tuple[LocRow, ...]
    machinery_lines: int

    def report(self) -> str:
        table = Table(
            "Kernel vs explicit-parallel machinery (lines of code)",
            ["application", "kernel", "machinery", "total", "fundamental %"],
            precision=1,
        )
        for row in self.rows:
            table.add_row(
                row.application,
                row.kernel_lines,
                row.machinery_lines,
                row.total,
                100.0 * row.fundamental_fraction,
            )
        paper_pct = 100.0 * PAPER_SWEEP3D_FUNDAMENTAL / PAPER_SWEEP3D_TOTAL
        return "\n".join(
            [
                heading("Expressiveness (the paper's SWEEP3D 626/179 claim)"),
                table.render(),
                "",
                f"paper's SWEEP3D: {PAPER_SWEEP3D_FUNDAMENTAL} fundamental of "
                f"{PAPER_SWEEP3D_TOTAL} total lines ({paper_pct:.0f}%)",
                "the machinery column counts this library's reusable pipelined-"
                "execution plumbing (schedule geometry + schedules + comm + "
                "distribution), which an explicit MPI implementation re-writes "
                "per application.",
            ]
        )


def run(quick: bool = False) -> LocResult:
    """Count kernel and machinery lines from the actual sources."""
    from repro.compiler import distribution, schedule
    from repro.machine import comm, schedules

    machinery = sum(
        _code_lines(module)
        for module in (schedule, schedules, comm, distribution)
    )
    kernels = (
        ("tomcatv-solves", (tomcatv.record_forward_block, tomcatv.record_backward_block)),
        ("simple-conduction", (simple.record_row_sweep, simple.record_column_sweep)),
        ("sweep3d-octant", (sweep3d.record_octant_block,)),
        ("alignment-dp", (alignment.build_score_block,)),
    )
    rows = tuple(
        LocRow(
            name,
            kernel_lines=sum(_code_lines(fn) for fn in fns),
            machinery_lines=machinery,
        )
        for name, fns in kernels
    )
    return LocResult(rows=rows, machinery_lines=machinery)
