"""Re-export: block distributions live with the schedule IR, in
:mod:`repro.compiler.distribution`."""

from repro.compiler.distribution import BlockMap  # noqa: F401
