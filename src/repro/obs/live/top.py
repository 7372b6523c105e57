"""``python -m repro.obs top`` — a live terminal view of a running server.

Polls the JSON ``/metrics`` endpoint of a :mod:`repro.serve` instance and
renders a compact dashboard: request throughput and latency quantiles,
queue depth, batch shape, per-worker utilization (from the busy-seconds
counters the pool flushes), and the model monitor's drift status.

The renderer (:func:`render_top`) is a pure function of two snapshots —
current and previous (for rate/utilization deltas) — so tests exercise it
without a server; :func:`run_top` owns the fetch/clear/sleep loop.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request

#: ANSI "clear screen, cursor home" prefix used between refreshes.
CLEAR = "\x1b[2J\x1b[H"


def fetch_metrics(url: str, timeout: float = 2.0) -> dict:
    """GET the JSON ``/metrics`` document of a running server."""
    if not url.rstrip("/").endswith("/metrics"):
        url = url.rstrip("/") + "/metrics"
    request = urllib.request.Request(url, headers={"Accept": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read().decode())


def _bar(fraction: float, width: int = 20) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def render_top(
    doc: dict, prev: dict | None = None, interval: float | None = None
) -> str:
    """Render one dashboard frame from a ``/metrics`` JSON document.

    ``prev``/``interval`` enable rate readouts (requests/s since the last
    frame, per-worker utilization as busy-seconds delta over wall delta);
    without them the cumulative numbers are shown alone.
    """
    lines: list[str] = []
    requests = doc.get("requests", {})
    latency = doc.get("latency_ms", {})
    queue = doc.get("queue", {})
    batches = doc.get("batches", {})

    uptime = doc.get("uptime_seconds", 0.0)
    completed = requests.get("completed", 0)
    rate = doc.get("throughput_rps", 0.0)
    if prev is not None and interval:
        rate = (completed - prev.get("requests", {}).get("completed", 0)) / interval
    lines.append(
        f"repro.serve up {uptime:8.1f}s   "
        f"req {completed} ok / {requests.get('rejected', 0)} shed / "
        f"{requests.get('failed', 0) + requests.get('timeouts', 0)} err   "
        f"{rate:7.1f} req/s"
    )
    lines.append(
        f"latency ms  p50 {latency.get('p50', 0.0):8.2f}   "
        f"p95 {latency.get('p95', 0.0):8.2f}   "
        f"p99 {latency.get('p99', 0.0):8.2f}"
    )
    depth = queue.get("depth", 0)
    peak = max(1, queue.get("peak", 0))
    lines.append(
        f"queue       {depth:4d} [{_bar(depth / peak)}] peak {queue.get('peak', 0)}"
    )
    hist = batches.get("histogram", {})
    hist_text = " ".join(f"{k}x{v}" for k, v in sorted(
        hist.items(), key=lambda kv: int(kv[0])
    )) or "-"
    lines.append(
        f"batches     {batches.get('dispatched', 0)} dispatched, "
        f"mean size {batches.get('mean_size', 0.0):.2f}   sizes: {hist_text}"
    )

    workers = doc.get("workers", {})
    if workers:
        lines.append("")
        lines.append(
            f"{'rank':>4}  {'busy s':>9}  {'blocks':>8}  {'elements':>12}  "
            f"{'steals':>7}  util"
        )
        prev_workers = (prev or {}).get("workers", {})
        for rank in sorted(workers, key=lambda r: int(r)):
            row = workers[rank]
            busy = row.get("busy_seconds", 0.0)
            util_text = "   --"
            if prev is not None and interval:
                prev_busy = prev_workers.get(rank, {}).get("busy_seconds", 0.0)
                util = (busy - prev_busy) / interval
                util_text = f"{util * 100:4.0f}% [{_bar(util, 10)}]"
            # Steals only exist under schedule="taskgraph"; pipelined rows
            # show a dash rather than a misleading zero.
            steals = row.get("steals_total")
            steals_text = f"{steals:7.0f}" if steals is not None else f"{'--':>7}"
            lines.append(
                f"{rank:>4}  {busy:9.3f}  {row.get('blocks_total', 0):8.0f}  "
                f"{row.get('elements_total', 0):12.0f}  {steals_text}  "
                f"{util_text}"
            )

    model = doc.get("model", {})
    if model:
        status = "DRIFT" if model.get("drift") else "ok"
        lines.append("")
        lines.append(
            f"model       alpha {model.get('alpha_seconds', 0.0) * 1e6:8.2f} us  "
            f"beta {model.get('beta_seconds_per_element', 0.0) * 1e9:8.2f} ns/elt  "
            f"unit {model.get('unit_seconds', 0.0) * 1e9:8.2f} ns/elt"
        )
        lines.append(
            f"drift       [{status}]  ratio {model.get('ratio', 1.0):.3f}  "
            f"({model.get('samples', 0)} jobs, "
            f"{model.get('drift_events', 0)} transitions)"
        )
    fabric = doc.get("fabric", {})
    if fabric:
        lines.append(
            f"fabric      multicast: "
            f"{fabric.get('multicast_releases', 0):.0f} releases"
        )
    flight = doc.get("flight", {})
    if flight:
        lines.append(
            f"flight      {'on ' if flight.get('enabled') else 'off'}  "
            f"{flight.get('written', 0)} events, "
            f"{flight.get('dropped', 0)} overwritten"
        )
    return "\n".join(lines)


def run_top(
    url: str,
    interval: float = 1.0,
    iterations: int | None = None,
    out=None,
    clear: bool = True,
) -> int:
    """The polling loop behind ``python -m repro.obs top``."""
    out = sys.stdout if out is None else out
    prev = None
    frames = 0
    while iterations is None or frames < iterations:
        try:
            doc = fetch_metrics(url)
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"error: cannot fetch {url}: {exc}", file=sys.stderr)
            return 1
        frame = render_top(doc, prev, interval if frames else None)
        if clear and frames:
            out.write(CLEAR)
        out.write(frame + "\n")
        out.flush()
        prev = doc
        frames += 1
        if iterations is not None and frames >= iterations:
            break
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            break
    return 0
