"""Pipeline phase analytics and model-residual reports.

Two analyses over the shared event schema (:mod:`repro.obs.trace`):

* :func:`analyze_phases` splits a run into the paper's Fig. 4 phases —
  **fill** (until the last processor starts its first block), **steady
  state**, and **drain** (after the first processor finishes its last
  block) — and reports per-worker utilisation and wait time plus the
  critical-path wait (the wait of the processor that finishes last).
  The three phases partition the traced window, so their coverage of
  wall time is 100% by construction.

* :func:`residual_table` compares each pipeline block's measured compute
  and wait time against the Section 4 model the paper's Equation (1)
  optimises: per stage, a block of width ``w`` should cost ``(n/p)·w``
  compute units and ``α + β·m·w`` per received token.  Because both the
  simulator and the real backend emit the same schema, the same residual
  code diagnoses both — model error in the virtual machine, measurement
  noise and dispatch overhead on the real one.

Both analyses work on whichever clock the trace carries; times are
printed in milliseconds for wall traces and raw units for virtual ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.trace import Trace


@dataclass(frozen=True)
class WorkerStat:
    """One processor's share of the traced window."""

    proc: int
    busy: float  # total compute-span time
    wait: float  # total recv-wait time
    first_compute: float
    last_compute: float
    utilization: float


@dataclass(frozen=True)
class PhaseReport:
    """The fill/steady/drain split of one traced run."""

    clock: str
    t0: float
    t_end: float
    fill_end: float
    drain_start: float
    workers: tuple[WorkerStat, ...]
    critical_path_wait: float

    @property
    def wall(self) -> float:
        return self.t_end - self.t0

    @property
    def fill(self) -> float:
        return self.fill_end - self.t0

    @property
    def steady(self) -> float:
        return self.drain_start - self.fill_end

    @property
    def drain(self) -> float:
        return self.t_end - self.drain_start

    @property
    def coverage(self) -> float:
        """Fraction of the traced window the three phases account for."""
        if self.wall <= 0:
            return 1.0
        return (self.fill + self.steady + self.drain) / self.wall

    @property
    def utilization(self) -> float:
        """Mean worker busy fraction over the traced window."""
        if not self.workers:
            return 0.0
        return sum(w.utilization for w in self.workers) / len(self.workers)


def analyze_phases(trace: Trace) -> PhaseReport:
    """Split a traced run into pipeline fill, steady state, and drain."""
    compute = [s for s in trace.worker_spans("compute")]
    if not compute:
        raise ValueError("trace has no compute spans; was tracing enabled?")
    waits = [s for s in trace.worker_spans("comm") if s.name == "recv_wait"]
    # The pipeline window: first compute/wait activity to last.  Setup
    # spans (process startup, barriers) are deliberately outside it — the
    # phases describe the pipeline, not process creation.
    pipeline = compute + waits
    t0 = min(s.start for s in pipeline)
    t_end = max(s.end for s in pipeline)

    per_proc: dict[int, dict] = {}
    for s in compute:
        rec = per_proc.setdefault(
            s.proc, {"busy": 0.0, "wait": 0.0, "first": s.start, "last": s.end}
        )
        rec["busy"] += s.duration
        rec["first"] = min(rec["first"], s.start)
        rec["last"] = max(rec["last"], s.end)
    for s in waits:
        rec = per_proc.setdefault(
            s.proc, {"busy": 0.0, "wait": 0.0, "first": s.start, "last": s.end}
        )
        rec["wait"] += s.duration

    window = max(t_end - t0, 1e-12)
    workers = tuple(
        WorkerStat(
            proc=proc,
            busy=rec["busy"],
            wait=rec["wait"],
            first_compute=rec["first"],
            last_compute=rec["last"],
            utilization=rec["busy"] / window,
        )
        for proc, rec in sorted(per_proc.items())
    )
    fill_end = max(w.first_compute for w in workers)
    drain_start = max(fill_end, min(w.last_compute for w in workers))
    # The worker whose pipeline finishes last carries the critical path.
    last = max(workers, key=lambda w: w.last_compute)
    return PhaseReport(
        clock=trace.clock,
        t0=t0,
        t_end=t_end,
        fill_end=fill_end,
        drain_start=drain_start,
        workers=workers,
        critical_path_wait=last.wait,
    )


def _fmt(value: float, clock: str) -> str:
    return f"{value * 1e3:10.3f} ms" if clock == "wall" else f"{value:10.1f} u"


def format_phase_report(report: PhaseReport, title: str | None = None) -> str:
    """Render the phase split and per-worker table as text."""
    lines = []
    if title:
        lines.append(title)
    wall = max(report.wall, 1e-12)
    lines.append(
        f"traced window {_fmt(report.wall, report.clock).strip()} "
        f"({len(report.workers)} workers, clock={report.clock})"
    )
    for label, value in (
        ("fill", report.fill),
        ("steady", report.steady),
        ("drain", report.drain),
    ):
        lines.append(
            f"  {label:<7}{_fmt(value, report.clock)}  ({value / wall:6.1%})"
        )
    lines.append(
        f"  phase coverage {report.coverage:.1%} of wall time; "
        f"mean utilisation {report.utilization:.1%}; "
        f"critical-path wait {_fmt(report.critical_path_wait, report.clock).strip()}"
    )
    lines.append("  proc       busy        wait    util")
    for w in report.workers:
        lines.append(
            f"  P{w.proc:<4}{_fmt(w.busy, report.clock)}"
            f"{_fmt(w.wait, report.clock)}  {w.utilization:6.1%}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Measured vs Eq. (1) residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualRow:
    """One pipeline block: measured vs modelled stage cost."""

    block: int
    width: int
    n_spans: int
    measured_compute: float  # mean over stages, clock units
    predicted_compute: float
    measured_wait: float
    predicted_comm: float

    @property
    def residual(self) -> float:
        return self.measured_compute - self.predicted_compute

    @property
    def ratio(self) -> float:
        if self.predicted_compute <= 0:
            return float("inf")
        return self.measured_compute / self.predicted_compute


def _model_constants(trace: Trace) -> dict:
    """The α/β/m/unit block residuals need, with a trace-derived fallback."""
    model = dict(trace.meta.get("model", {}))
    if "unit_seconds" not in model:
        # Estimate seconds (or units) per element from the compute spans
        # themselves: the aggregate fit every residual is measured against.
        total = elements = 0.0
        for s in trace.worker_spans("compute"):
            total += s.duration
            elements += s.args.get("elements", 0)
        model["unit_seconds"] = total / elements if elements else 0.0
    model.setdefault("alpha", 0.0)
    model.setdefault("beta", 0.0)
    model.setdefault("m", trace.meta.get("boundary_rows", 1))
    return model


def residual_table(trace: Trace) -> list[ResidualRow]:
    """Per-block measured-vs-predicted stage costs (Section 4 model).

    Prediction per stage and block of width ``w``: compute ``(rows/p)·w``
    elements at ``unit`` each; one received token at ``(α + β·m·w)·unit``.
    ``meta["model"]`` supplies α, β, m and the unit (virtual traces use
    unit 1); without it the unit is fitted from the trace itself.
    """
    model = _model_constants(trace)
    meta = trace.meta
    rows = meta.get("rows", 0)
    n_procs = max(
        1,
        meta.get("pipeline_procs")
        or len(trace.procs())
        or meta.get("n_procs", 1),
    )
    unit = model["unit_seconds"]
    alpha, beta, m = model["alpha"], model["beta"], model["m"]

    by_block: dict[int, dict] = {}
    for s in trace.worker_spans("compute"):
        k = s.args.get("block")
        if k is None:
            continue
        rec = by_block.setdefault(
            k, {"compute": [], "wait": [], "width": 0}
        )
        rec["compute"].append(s.duration)
        rec["width"] = max(rec["width"], s.args.get("width", 0))
    for s in trace.worker_spans("comm"):
        k = s.args.get("block")
        if s.name != "recv_wait" or k is None:
            continue
        by_block.setdefault(k, {"compute": [], "wait": [], "width": 0})[
            "wait"
        ].append(s.duration)

    cols = meta.get("cols", 0)
    block_size = meta.get("block_size") or cols  # None: one whole-width block
    out: list[ResidualRow] = []
    for k in sorted(by_block):
        rec = by_block[k]
        width = rec["width"]
        if not width and block_size and cols:
            width = max(1, min(block_size, cols - k * block_size))
        mean_compute = (
            sum(rec["compute"]) / len(rec["compute"]) if rec["compute"] else 0.0
        )
        mean_wait = sum(rec["wait"]) / len(rec["wait"]) if rec["wait"] else 0.0
        stage_rows = rows / n_procs if rows else 0.0
        out.append(
            ResidualRow(
                block=k,
                width=width,
                n_spans=len(rec["compute"]),
                measured_compute=mean_compute,
                predicted_compute=stage_rows * width * unit,
                measured_wait=mean_wait,
                predicted_comm=(alpha + beta * m * width) * unit,
            )
        )
    return out


def format_residuals(trace: Trace, title: str | None = None) -> str:
    """Render the per-block residual table, plus the Eq. (1) summary."""
    rows = residual_table(trace)
    if not rows:
        raise ValueError("trace has no per-block compute spans")
    clock = trace.clock
    lines = []
    if title:
        lines.append(title)
    model = _model_constants(trace)
    lines.append(
        f"model: alpha={model['alpha']:.3g} beta={model['beta']:.3g} "
        f"m={model['m']} unit={model['unit_seconds']:.3g} "
        f"(clock={clock})"
    )
    summary = _eq1_summary(trace, model)
    if summary:
        lines.append(summary)
    lines.append(
        "  block width   measured_comp  predicted_comp   residual   ratio"
        "    measured_wait  predicted_comm"
    )
    for r in rows:
        lines.append(
            f"  {r.block:>5} {r.width:>5}  {_fmt(r.measured_compute, clock)}"
            f"  {_fmt(r.predicted_compute, clock)} {_fmt(r.residual, clock)}"
            f"  {r.ratio:6.2f}   {_fmt(r.measured_wait, clock)}"
            f"  {_fmt(r.predicted_comm, clock)}"
        )
    total_measured = sum(r.measured_compute + r.measured_wait for r in rows)
    total_predicted = sum(r.predicted_compute + r.predicted_comm for r in rows)
    lines.append(
        f"  per-stage totals: measured {_fmt(total_measured, clock).strip()}"
        f"  predicted {_fmt(total_predicted, clock).strip()}"
    )
    return "\n".join(lines)


def _eq1_summary(trace: Trace, model: dict) -> str | None:
    """Whole-run Eq. (1) line via :class:`repro.models.pipeline_model`."""
    meta = trace.meta
    rows, cols = meta.get("rows"), meta.get("cols")
    n_procs = (
        meta.get("pipeline_procs")
        or meta.get("n_procs")
        or len(trace.procs())
    )
    block = meta.get("block_size")
    if not (rows and cols and block and n_procs and n_procs >= 2):
        return None
    from repro.machine.params import MachineParams
    from repro.models.pipeline_model import model2

    params = MachineParams(
        name="traced", alpha=model["alpha"], beta=model["beta"]
    )
    pm = model2(params, rows, n_procs, boundary_rows=model["m"], cols=cols)
    unit = model["unit_seconds"]
    return (
        f"Eq.(1): b*={pm.optimal_block_size()} (ran b={block}); "
        f"predicted total at b: "
        f"{_fmt(pm.predicted_time(block) * unit, trace.clock).strip()}"
    )


# ---------------------------------------------------------------------------
# Serve traces: per-request latency breakdown
# ---------------------------------------------------------------------------


def is_serve_trace(trace: Trace) -> bool:
    """True for traces recorded by :mod:`repro.serve` (request spans)."""
    if trace.meta.get("backend") == "serve":
        return True
    return any(s.name == "serve_request" for s in trace.spans)


def format_serve_report(trace: Trace, title: str | None = None) -> str:
    """Render a serve trace: one row per request, batches summarised.

    The ``serve_request`` spans carry the request's end-to-end window and
    its queue/compute split in their args; ``serve_batch`` spans record
    each fused dispatch.  Together they answer the serving questions the
    phase report cannot: where did a request's latency go, and how many
    requests did each dispatch carry?
    """
    from repro.util.tables import Table

    requests = [s for s in trace.spans if s.name == "serve_request"]
    batches = [s for s in trace.spans if s.name == "serve_batch"]
    lines = []
    if title:
        lines.append(title)
    table = Table(
        title=f"serve requests ({len(requests)})",
        headers=["id", "kind", "status", "batch", "queue ms", "compute ms",
                 "e2e ms"],
    )
    e2e_ok = []
    statuses: dict[int, int] = {}
    for s in sorted(requests, key=lambda s: s.args.get("id", 0)):
        args = s.args
        status = int(args.get("status", 0))
        statuses[status] = statuses.get(status, 0) + 1
        e2e = s.duration * 1e3
        if status == 200:
            e2e_ok.append(e2e)
        table.add_row(
            args.get("id", "?"), args.get("kind", "?"), status,
            args.get("batch", 0), round(args.get("queue_ms", 0.0), 3),
            round(args.get("compute_ms", 0.0), 3), round(e2e, 3),
        )
    lines.append(table.render())
    from repro.serve.metrics import percentile

    if e2e_ok:
        lines.append(
            f"  completed {len(e2e_ok)}: p50 {percentile(e2e_ok, 50):.3f} ms, "
            f"p99 {percentile(e2e_ok, 99):.3f} ms"
        )
    shed = sum(n for code, n in statuses.items() if code != 200)
    if shed:
        detail = ", ".join(
            f"{n}x {code}" for code, n in sorted(statuses.items()) if code != 200
        )
        lines.append(f"  non-200: {detail}")
    if batches:
        items = [int(b.args.get("items", 0)) for b in batches]
        lines.append(
            f"  batches {len(batches)}: {sum(items)} requests fused, "
            f"mean size {sum(items) / len(batches):.2f}, largest {max(items)}"
        )
    return "\n".join(lines)
