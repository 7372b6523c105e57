"""The span/counter recorder shared by every execution engine.

One schema, three producers: the real multiprocess backend
(:mod:`repro.parallel`) records wall-clock spans, the discrete-event
simulator (:mod:`repro.machine`) records virtual-clock spans, and the
compiler (:func:`repro.compiler.lowering.compile_scan`) records pass
timings.  All of them speak through the same two nouns:

* a **span** — a named, categorised ``[start, end]`` interval on one
  logical processor (``proc=-1`` is the parent/driver), with free-form
  ``args`` (``block`` index, ``elements``, ...);
* a **counter** — a monotonically accumulated per-processor total
  (blocks executed, tokens exchanged, bytes moved).

The recorder comes in two flavours with an identical surface:
:class:`Tracer` (records) and :class:`NullTracer` (a guarded no-op, the
default).  Hot paths branch on ``tracer.enabled`` once, so a disabled
tracer costs one attribute read — the backend's <2% overhead budget.

Tracing is off unless the caller passes a :class:`Tracer` explicitly or
sets ``REPRO_TRACE=1`` in the environment (:func:`resolve_tracer`).

A finished recording is packaged as a :class:`Trace`: spans + counters +
metadata + the clock they were measured on (``"wall"`` in seconds,
``"virtual"`` in element-compute units).  Traces serialise to JSON
(:meth:`Trace.save`/:meth:`Trace.load`) so benchmarks can drop them next
to their ``BENCH_*.json`` artifacts and the CLI can analyse them later.

Cross-process note: workers record with :func:`time.perf_counter`, which
shares its epoch across processes on Linux (``CLOCK_MONOTONIC``); the
parent aligns everything to the earliest span at export time, so traces
are portable even where the epoch is per-process only approximately.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.util.env import env_flag

SCHEMA = "repro-trace/1"

#: Environment switch (default off; :func:`repro.util.env.env_flag`):
#: enables tracing for runs that were not handed an explicit tracer.
TRACE_ENV = "REPRO_TRACE"

#: The ``proc`` of driver-side spans (setup, compile passes, gather).
PARENT_PROC = -1


@dataclass(frozen=True)
class Span:
    """One named busy interval on one logical processor."""

    name: str
    cat: str  # "compute" | "comm" | "sync" | "setup" | "compile"
    start: float
    end: float
    proc: int
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def tracing_enabled() -> bool:
    """True when ``REPRO_TRACE`` asks for tracing."""
    return env_flag(TRACE_ENV, False)


class _SpanScope:
    """Context manager recording one span into its tracer on exit."""

    __slots__ = ("_tracer", "_name", "_cat", "_proc", "_args", "_start")

    def __init__(self, tracer: "Tracer", name: str, cat: str, proc: int, args: dict):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._proc = proc
        self._args = args

    def __enter__(self) -> "_SpanScope":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self._tracer.add_span(
            self._name, self._cat, self._start, time.perf_counter(),
            self._proc, **self._args,
        )


class _NullScope:
    """The reusable no-op context manager of :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SCOPE = _NullScope()


class Tracer:
    """A recording span/counter buffer for one process.

    >>> tracer = Tracer()
    >>> with tracer.span("compute", cat="compute", proc=0, block=3):
    ...     pass
    >>> tracer.count("blocks_executed", proc=0)
    >>> len(tracer.spans), tracer.counters[(0, "blocks_executed")]
    (1, 1)
    """

    enabled = True

    def __init__(self, proc: int = PARENT_PROC):
        #: Default processor id for spans/counters that do not name one.
        self.proc = proc
        self.spans: list[Span] = []
        self.counters: dict[tuple[int, str], float] = {}

    def span(
        self, name: str, cat: str = "", proc: int | None = None, **args: Any
    ) -> _SpanScope:
        """A context manager timing its body with :func:`time.perf_counter`."""
        return _SpanScope(self, name, cat, self.proc if proc is None else proc, args)

    def add_span(
        self,
        name: str,
        cat: str,
        start: float,
        end: float,
        proc: int | None = None,
        **args: Any,
    ) -> None:
        """Record an already-measured interval (any clock)."""
        self.spans.append(
            Span(name, cat, start, end, self.proc if proc is None else proc, args)
        )

    def count(self, name: str, n: float = 1, proc: int | None = None) -> None:
        """Accumulate ``n`` into the per-processor counter ``name``."""
        key = (self.proc if proc is None else proc, name)
        self.counters[key] = self.counters.get(key, 0) + n

    # -- inter-process shipping --------------------------------------------
    def drain(self) -> dict:
        """Detach the buffered events as a plain, picklable payload."""
        payload = {
            "spans": [
                (s.name, s.cat, s.start, s.end, s.proc, s.args) for s in self.spans
            ],
            "counters": dict(self.counters),
        }
        self.spans = []
        self.counters = {}
        return payload

    def absorb(self, payload: dict | None) -> None:
        """Merge a :meth:`drain` payload (typically from another process)."""
        if not payload:
            return
        for name, cat, start, end, proc, args in payload.get("spans", ()):
            self.spans.append(Span(name, cat, start, end, proc, dict(args)))
        for key, value in payload.get("counters", {}).items():
            proc, name = key
            self.count(name, value, proc=proc)


class NullTracer:
    """The do-nothing tracer: identical surface, near-zero cost."""

    enabled = False
    proc = PARENT_PROC
    spans: tuple = ()
    counters: dict = {}

    def span(self, name: str, cat: str = "", proc: int | None = None, **args: Any):
        return _NULL_SCOPE

    def add_span(self, *a: Any, **k: Any) -> None:
        return None

    def count(self, *a: Any, **k: Any) -> None:
        return None

    def drain(self) -> None:
        return None

    def absorb(self, payload: dict | None) -> None:
        return None


#: The module-wide no-op instance every untraced run shares.
NULL_TRACER = NullTracer()


def resolve_tracer(tracer: "Tracer | NullTracer | None") -> "Tracer | NullTracer":
    """Tracer resolution used by every entry point: explicit > env > off."""
    if tracer is not None:
        return tracer
    return Tracer() if tracing_enabled() else NULL_TRACER


@dataclass
class Trace:
    """A finished recording: spans + counters + the clock they live on.

    ``clock`` is ``"wall"`` (seconds, real backend) or ``"virtual"``
    (element-compute units, simulator).  ``meta`` carries the run's
    geometry (schedule, grid, block size, rows/cols, boundary rows) and —
    when the producer knows them — the machine model under ``meta["model"]``
    (``alpha``/``beta`` in clock units, ``m``, ``unit_seconds``), which is
    what the residual analysis consumes.
    """

    clock: str
    meta: dict = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    counters: dict[tuple[int, str], float] = field(default_factory=dict)

    @classmethod
    def from_tracer(
        cls, tracer: Tracer, clock: str, meta: dict | None = None
    ) -> "Trace":
        """Package a tracer's buffers (the tracer keeps its contents)."""
        return cls(
            clock=clock,
            meta=dict(meta or {}),
            spans=list(tracer.spans),
            counters=dict(tracer.counters),
        )

    # -- views --------------------------------------------------------------
    def procs(self) -> tuple[int, ...]:
        """Worker processor ids present (driver ``proc=-1`` excluded)."""
        return tuple(sorted({s.proc for s in self.spans if s.proc >= 0}))

    def worker_spans(self, *cats: str) -> Iterable[Span]:
        """Worker-side spans, optionally restricted to categories."""
        for s in self.spans:
            if s.proc >= 0 and (not cats or s.cat in cats):
                yield s

    @property
    def t0(self) -> float:
        spans = [s for s in self.spans if s.proc >= 0]
        if not spans:
            raise ValueError("trace has no worker spans")
        return min(s.start for s in spans)

    @property
    def t_end(self) -> float:
        spans = [s for s in self.spans if s.proc >= 0]
        if not spans:
            raise ValueError("trace has no worker spans")
        return max(s.end for s in spans)

    @property
    def wall(self) -> float:
        """The traced window: first worker span start to last span end."""
        return self.t_end - self.t0

    def counter_total(self, name: str) -> float:
        """Sum of one counter across all processors."""
        return sum(v for (_, n), v in self.counters.items() if n == name)

    # -- (de)serialisation ---------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "clock": self.clock,
            "meta": self.meta,
            "spans": [
                {
                    "name": s.name,
                    "cat": s.cat,
                    "start": s.start,
                    "end": s.end,
                    "proc": s.proc,
                    "args": s.args,
                }
                for s in self.spans
            ],
            "counters": [
                {"proc": proc, "name": name, "value": value}
                for (proc, name), value in sorted(self.counters.items())
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Trace":
        if payload.get("schema") != SCHEMA:
            raise ValueError(
                f"trace has schema {payload.get('schema')!r}, want {SCHEMA}"
            )
        return cls(
            clock=payload["clock"],
            meta=dict(payload.get("meta", {})),
            spans=[
                Span(
                    e["name"], e["cat"], e["start"], e["end"], e["proc"],
                    dict(e.get("args", {})),
                )
                for e in payload.get("spans", ())
            ],
            counters={
                (c["proc"], c["name"]): c["value"]
                for c in payload.get("counters", ())
            },
        )

    def save(self, path: str | Path) -> Path:
        """Write the internal-schema JSON (``Trace.load`` round-trips it)."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        return cls.from_dict(json.loads(Path(path).read_text()))
