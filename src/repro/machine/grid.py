"""Re-export: processor grids live with the schedule IR, in
:mod:`repro.compiler.grid`."""

from repro.compiler.grid import ProcessorGrid  # noqa: F401
