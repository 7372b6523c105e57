"""The flight recorder: a bounded ring of recent events, cheap enough to
leave on always.

Where :class:`repro.obs.Tracer` is the *opt-in* full-fidelity tier
(``REPRO_TRACE=1``, unbounded buffers, every span), the flight recorder is
the *always-on* tier: a fixed-capacity ring buffer of recent span/counter
events that every process keeps regardless of tracing, so a failure can be
post-mortemed from what actually just happened.  Design constraints:

* **Bounded.**  The ring holds ``capacity`` events; an overflowing write
  overwrites the oldest.  Nothing ever grows with run length.
* **Lock-free per process.**  A write is one tuple construction, one list
  store and one integer increment under the GIL — no locks, no syscalls.
  There is one logical writer per process (the worker loop, or the serve
  event loop); :meth:`FlightRecorder.dump` tolerates racing writers from
  auxiliary threads by snapshotting slot references and re-ordering by
  sequence number.
* **Exact drop accounting.**  Every event carries a monotonically
  increasing sequence number; ``dropped`` is derived from it
  (``written - capacity``), so the overflow count is exact, not sampled.

Disable with ``REPRO_FLIGHT=0`` (the overhead bench compares the two
states); resize with ``REPRO_FLIGHT_CAPACITY``.  The module-level
:data:`FLIGHT` instance is the per-process recorder every layer shares —
workers inherit a private copy at fork, and a failed pool worker ships its
:meth:`~FlightRecorder.dump` home in the error payload so the parent can
render the last events before death (:func:`format_flight_tail`).
"""

from __future__ import annotations

import os
import time

from repro.util.env import env_flag

SCHEMA = "repro-flight/1"

#: Environment kill switch (default on; :func:`repro.util.env.env_flag`).
FLIGHT_ENV = "REPRO_FLIGHT"

#: Environment override for the ring capacity (events, not bytes).
FLIGHT_CAPACITY_ENV = "REPRO_FLIGHT_CAPACITY"

DEFAULT_CAPACITY = 4096


def flight_enabled() -> bool:
    """True unless ``REPRO_FLIGHT`` explicitly disables the recorder."""
    return env_flag(FLIGHT_ENV, True)


class FlightRecorder:
    """A bounded, per-process ring buffer of span/counter events.

    >>> rec = FlightRecorder(capacity=2, enabled=True)
    >>> rec.event("boot")
    >>> rec.span("block", 0.0, 1.5, block=0)
    >>> rec.event("overflow")          # overwrites "boot"
    >>> snap = rec.dump()
    >>> snap["dropped"], [e["name"] for e in snap["events"]]
    (1, ['block', 'overflow'])
    """

    __slots__ = ("capacity", "enabled", "_slots", "_written")

    def __init__(self, capacity: int | None = None, enabled: bool | None = None):
        if capacity is None:
            capacity = int(
                os.environ.get(FLIGHT_CAPACITY_ENV, DEFAULT_CAPACITY)
            )
        if capacity < 1:
            raise ValueError(f"flight capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.enabled = flight_enabled() if enabled is None else enabled
        self._slots: list = [None] * capacity
        self._written = 0

    # -- recording (the hot path) -------------------------------------------
    def event(self, name: str, **fields) -> None:
        """Record a point event at the current perf_counter time."""
        if not self.enabled:
            return
        seq = self._written
        self._slots[seq % self.capacity] = (
            seq, time.perf_counter(), "event", name, fields or None,
        )
        self._written = seq + 1

    def span(self, name: str, start: float, end: float, **fields) -> None:
        """Record an already-measured ``[start, end]`` interval."""
        if not self.enabled:
            return
        fields["start"] = start
        fields["end"] = end
        seq = self._written
        self._slots[seq % self.capacity] = (seq, end, "span", name, fields)
        self._written = seq + 1

    def count(self, name: str, n: float = 1, **fields) -> None:
        """Record a counter increment event."""
        if not self.enabled:
            return
        fields["n"] = n
        seq = self._written
        self._slots[seq % self.capacity] = (
            seq, time.perf_counter(), "counter", name, fields,
        )
        self._written = seq + 1

    # -- accounting ----------------------------------------------------------
    @property
    def written(self) -> int:
        """Total events ever recorded (including overwritten ones)."""
        return self._written

    @property
    def dropped(self) -> int:
        """Events lost to ring overflow — exact, derived from sequencing."""
        return max(0, self._written - self.capacity)

    # -- snapshot ------------------------------------------------------------
    def dump(self) -> dict:
        """Snapshot the ring: recent events in order, plus drop accounting.

        Safe against a concurrently appending writer thread: the slot list
        is snapshotted by reference and re-ordered by sequence number, so
        the result is always a well-formed, strictly-ordered event list of
        at most ``capacity`` events (a racing writer may push the window
        forward mid-copy; it can never tear an individual event).
        """
        written = self._written
        taken = [e for e in list(self._slots) if e is not None]
        taken.sort(key=lambda e: e[0])
        if taken:
            written = max(written, taken[-1][0] + 1)
        events = []
        for seq, t, kind, name, fields in taken:
            record = {"seq": seq, "t": t, "kind": kind, "name": name}
            if fields:
                record["fields"] = dict(fields)
            events.append(record)
        return {
            "schema": SCHEMA,
            "capacity": self.capacity,
            "written": written,
            "dropped": max(0, written - self.capacity),
            "events": events,
        }

    def clear(self) -> None:
        """Empty the ring and reset the sequence (drop accounting restarts)."""
        self._slots = [None] * self.capacity
        self._written = 0

    def configure(
        self, capacity: int | None = None, enabled: bool | None = None
    ) -> "FlightRecorder":
        """Reconfigure *in place* (the shared instance keeps its identity)."""
        if capacity is not None:
            if capacity < 1:
                raise ValueError(
                    f"flight capacity must be >= 1, got {capacity}"
                )
            self.capacity = capacity
            self.clear()
        if enabled is not None:
            self.enabled = enabled
        return self


def format_flight_tail(dump: dict, limit: int = 8) -> str:
    """Render the last ``limit`` events of a :meth:`FlightRecorder.dump`.

    The post-mortem view: a failed worker ships its dump home in the error
    payload and the parent appends this tail to the raised message.
    """
    events = dump.get("events", [])[-limit:]
    if not events:
        return "  (flight recorder empty)"
    lines = []
    for e in events:
        fields = e.get("fields") or {}
        detail = " ".join(
            f"{k}={v!r}" for k, v in fields.items() if k not in ("start", "end")
        )
        if e["kind"] == "span":
            dur = (fields.get("end", 0.0) - fields.get("start", 0.0)) * 1e3
            detail = f"{dur:.3f} ms {detail}".strip()
        lines.append(f"  #{e['seq']:<6} {e['kind']:<7} {e['name']:<16} {detail}")
    dropped = dump.get("dropped", 0)
    if dropped:
        lines.append(f"  ({dropped} older event(s) overwritten)")
    return "\n".join(lines)


#: The per-process recorder every layer shares.  Workers inherit a private
#: copy at fork; tests and the overhead bench may toggle ``FLIGHT.enabled``.
FLIGHT = FlightRecorder()
