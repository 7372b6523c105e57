"""Parsing ``REPRO_*`` environment variables: one grammar, typed refusals.

A boolean switch is off for ``0``/``false``/``off``/``no`` and on for
``1``/``true``/``on``/``yes`` (case and surrounding blanks ignored); unset
or empty means the switch's default.  Anything else raises
:class:`~repro.errors.MachineError` naming the variable, so a typo never
silently flips a feature.
"""

from __future__ import annotations

import os

from repro.errors import MachineError

OFF = ("0", "false", "off", "no")
ON = ("1", "true", "on", "yes")


def env_flag(name: str, default: bool) -> bool:
    """The boolean switch ``name``, or ``default`` when unset or empty."""
    value = os.environ.get(name, "").strip().lower()
    if not value:
        return default
    if value in OFF:
        return False
    if value in ON:
        return True
    raise MachineError(
        f"{name}={os.environ[name]!r} is not a switch; "
        f"use one of {ON} or {OFF}"
    )


def env_int(name: str, default: int) -> int:
    """The integer ``name``, or ``default`` when unset or empty."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise MachineError(f"{name}={raw!r} is not an integer") from None
