"""The observability CLI: ``python -m repro.obs summarize|export|residuals|top``.

Every analysis subcommand either loads a saved trace (``Trace.save``
JSON, the artifact the benchmarks drop next to ``BENCH_*.json``) or
captures a fresh one by running a suite kernel:

* ``summarize [TRACE]`` — pipeline fill/steady/drain phase report,
  per-worker utilisation, critical-path wait, counter totals;
* ``export [TRACE] -o OUT`` — Chrome trace-event JSON; open in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``;
* ``residuals [TRACE]`` — per-block measured-vs-Eq.(1) table; with no
  trace argument it runs **both** the simulator and the real backend on
  the same kernel so the two tables are directly comparable;
* ``top [--url URL]`` — live dashboard of a running :mod:`repro.serve`
  instance (throughput, latency quantiles, queue depth, per-worker
  utilisation, model drift), polling its JSON ``/metrics``.

A missing, empty, or truncated trace file fails with a one-line
``error: ...`` on stderr and exit code 1 — never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs.export import write_chrome
from repro.obs.phases import (
    analyze_phases,
    format_phase_report,
    format_residuals,
    format_serve_report,
    is_serve_trace,
)
from repro.obs.trace import Trace


class CLIError(Exception):
    """A user-facing failure: rendered as one line, exit code 1."""


def _load_trace(path: str) -> Trace:
    """Load a saved trace, mapping every broken-file mode to a CLIError."""
    p = Path(path)
    if not p.exists():
        raise CLIError(f"trace file not found: {p}")
    if p.is_dir():
        raise CLIError(f"{p} is a directory, not a trace file")
    try:
        text = p.read_text()
    except OSError as exc:
        raise CLIError(f"cannot read trace file {p}: {exc}") from exc
    if not text.strip():
        raise CLIError(f"trace file is empty: {p}")
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise CLIError(
            f"trace file {p} is not valid JSON (truncated or corrupt): {exc}"
        ) from exc
    try:
        return Trace.from_dict(payload)
    except (ValueError, KeyError, TypeError) as exc:
        raise CLIError(f"{p} is not a repro trace: {exc}") from exc


def _capture(backend: str, args: argparse.Namespace) -> Trace:
    from repro.obs import capture

    if backend == "simulator":
        _, trace = capture.capture_simulator(
            kernel=args.kernel,
            n=args.n,
            procs=args.procs or 4,
            block=args.block,
            schedule=args.schedule,
        )
    else:
        from repro.parallel.plan import default_grid

        procs = args.procs or default_grid().size
        _, trace = capture.capture_parallel(
            kernel=args.kernel,
            n=args.n,
            procs=procs,
            block=args.block,
            schedule=args.schedule,
        )
    return trace


def _traces(args: argparse.Namespace) -> list[tuple[str, Trace]]:
    if args.trace:
        return [(args.trace, _load_trace(args.trace))]
    backends = (
        ("simulator", "parallel") if args.backend == "both" else (args.backend,)
    )
    return [(backend, _capture(backend, args)) for backend in backends]


def _add_source_args(p: argparse.ArgumentParser, backend_default: str) -> None:
    p.add_argument(
        "trace",
        nargs="?",
        default=None,
        help="saved trace JSON; omit to capture a fresh run",
    )
    p.add_argument(
        "--backend",
        choices=("simulator", "parallel", "both"),
        default=backend_default,
        help="which backend to capture when no trace file is given",
    )
    p.add_argument("--kernel", default="single-stream", help="suite kernel name")
    p.add_argument("--n", type=int, default=48, help="problem size")
    p.add_argument("--procs", type=int, default=None, help="processor count")
    p.add_argument("--block", type=int, default=None, help="pipeline block size")
    p.add_argument(
        "--schedule", choices=("pipelined", "naive"), default="pipelined"
    )


def _counter_lines(trace: Trace) -> list[str]:
    names = sorted({name for (_, name) in trace.counters})
    return [
        f"  counter {name:<18} total {trace.counter_total(name):g}"
        for name in names
    ]


def _run(args: argparse.Namespace) -> int:
    if args.command == "summarize":
        for label, trace in _traces(args):
            if is_serve_trace(trace):
                # Serve traces have no worker pipeline to phase-split;
                # render the per-request latency breakdown instead.
                print(format_serve_report(trace, title=f"== {label} =="))
            else:
                try:
                    report = analyze_phases(trace)
                except ValueError as exc:
                    raise CLIError(str(exc)) from exc
                print(format_phase_report(report, title=f"== {label} =="))
            for line in _counter_lines(trace):
                print(line)
        return 0

    if args.command == "export":
        traces = _traces(args)
        for label, trace in traces:
            if args.out:
                out = Path(args.out)
                if len(traces) > 1:  # one file per backend, not one overwrite
                    out = out.with_name(f"{out.stem}.{label}{out.suffix}")
            elif args.trace:
                out = Path(args.trace).with_suffix(".chrome.json")
            else:
                out = Path(f"TRACE_{label}.chrome.json")
            path = write_chrome(trace, out)
            print(f"wrote {path} ({len(trace.spans)} spans; open in Perfetto)")
        return 0

    if args.command == "residuals":
        for label, trace in _traces(args):
            try:
                print(format_residuals(trace, title=f"== {label} =="))
            except ValueError as exc:
                raise CLIError(str(exc)) from exc
        return 0

    if args.command == "top":
        from repro.obs.live.top import run_top

        iterations = 1 if args.once else args.iterations
        return run_top(
            args.url, interval=args.interval, iterations=iterations,
            clear=not args.once,
        )

    return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="phase report for a traced run")
    _add_source_args(p_sum, backend_default="simulator")

    p_exp = sub.add_parser("export", help="write Chrome trace-event JSON")
    _add_source_args(p_exp, backend_default="simulator")
    p_exp.add_argument("-o", "--out", default=None, help="output path")

    p_res = sub.add_parser("residuals", help="measured vs Eq. (1), per block")
    _add_source_args(p_res, backend_default="both")

    p_top = sub.add_parser(
        "top", help="live dashboard of a running repro.serve instance"
    )
    p_top.add_argument(
        "--url", default="http://127.0.0.1:8077",
        help="server base URL (its /metrics is polled)",
    )
    p_top.add_argument(
        "--interval", type=float, default=1.0, help="refresh period, seconds"
    )
    p_top.add_argument(
        "--once", action="store_true", help="render one frame and exit"
    )
    p_top.add_argument(
        "--iterations", type=int, default=None,
        help="stop after N frames (default: run until interrupted)",
    )

    args = parser.parse_args(argv)
    try:
        return _run(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
