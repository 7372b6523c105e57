"""Measurement plumbing shared by every workload.

Nothing here knows what a wavefront is: percentiles, the closed timing
loop, process-tree CPU and peak RSS, ``/dev/shm`` residue, the host block
and the metric specification read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: How many failure reasons a result carries verbatim.
MAX_ERRORS = 5


# ---------------------------------------------------------------------------
# The metric specification (BENCHMARK.json is the single source of names)
# ---------------------------------------------------------------------------
def load_spec() -> dict:
    """``BENCHMARK.json`` plus two name -> entry indexes."""
    spec = json.loads(SPEC_PATH.read_text())
    spec["e2e"] = {m["name"]: m for m in spec["end_to_end"]}
    spec["layers"] = {m["name"]: m for m in spec["per_layer"]}
    return spec


def with_units(values: dict[str, float], entries: dict[str, dict]) -> dict:
    """``{name: {"value", "unit"}}`` for the names the spec knows.

    A name the code emits but the spec does not list is a bug in the
    benchmark, not a measurement: refuse it loudly.
    """
    unknown = sorted(set(values) - set(entries))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    return {
        name: {"value": values[name], "unit": entries[name]["unit"]}
        for name in entries
        if name in values
    }


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return float(ordered[int(rank) - 1])


def tail_p90(values) -> float | None:
    """p90, reported only when at least ten samples lie beyond it."""
    return percentile(values, 90) if len(values) >= 100 else None


def spread(values) -> float | None:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else None


# ---------------------------------------------------------------------------
# The closed timing loop
# ---------------------------------------------------------------------------
@dataclass
class Loop:
    """Outcome of one timed loop: per-call times plus per-call observations."""

    times_ms: list[float] = field(default_factory=list)
    restore_ms: list[float] = field(default_factory=list)
    obs: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Calls that count towards goodput: correct and, where the workload
    #: sets a latency limit, within it.
    good: int = 0
    errors: list[str] = field(default_factory=list)
    #: Process-tree CPU seconds spent between the first and the last call.
    cpu_s: float = 0.0

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(reason)

    def p50(self, key: str) -> float | None:
        values = self.obs.get(key)
        return median(values) if values else None


def closed_loop(workload, seconds: float, min_samples: int, traced: bool) -> Loop:
    """One caller, next call only after the previous one is verified.

    Per iteration: ``prepare`` (snapshot restore, untimed), ``call`` (timed
    by the workload: inputs ready -> results in the arrays), ``verify``
    (oracle compare, untimed).  A call that raises ends the loop: a broken
    pool would fail every later call for the same reason.
    """
    loop = Loop()
    extra_pids = workload.child_pids()
    cpu0 = tree_cpu_seconds(extra_pids)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or loop.attempted < min_samples:
        start = time.perf_counter()
        workload.prepare()
        loop.restore_ms.append((time.perf_counter() - start) * 1e3)
        loop.attempted += 1
        try:
            elapsed_ms, obs = workload.call(traced)
        except Exception as exc:  # the benchmark must report, not crash
            loop.fail(f"call raised {type(exc).__name__}: {exc}")
            break
        loop.times_ms.append(elapsed_ms)  # a wrong answer still took this long
        reasons = workload.verify()
        if reasons:
            loop.fail("; ".join(reasons))
        else:
            loop.good += 1  # a closed loop sets no latency limit
        for key, value in obs.items():
            loop.obs.setdefault(key, []).append(value)
    loop.cpu_s = tree_cpu_seconds(extra_pids) - cpu0
    return loop


# ---------------------------------------------------------------------------
# Process-tree accounting
# ---------------------------------------------------------------------------
_TICK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _proc_cpu_seconds(pid: int) -> float:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK  # utime + stime


def tree_cpu_seconds(extra_pids=()) -> float:
    """CPU seconds of this process, its reaped children and its live ones.

    Pool workers stay alive across calls, so their time is read from
    ``/proc``; fork-per-run workers have exited and show up in ``os.times``.
    """
    t = os.times()
    total = t.user + t.system + t.children_user + t.children_system
    live = {p.pid for p in multiprocessing.active_children()} | set(extra_pids)
    return total + sum(_proc_cpu_seconds(pid) for pid in live)


def peak_rss_mib() -> float:
    """This process's peak RSS plus its largest reaped child's, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # Linux reports KiB


def shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments Python created."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def clean_env() -> dict[str, str]:
    """The environment every child starts from: no ``REPRO_*`` knob set."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


#: Spins at idle priority on one core until killed or orphaned.
_SPINNER = """
import os, sys
os.sched_setaffinity(0, {int(sys.argv[1])})
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
parent = os.getppid()
while os.getppid() == parent:
    for _ in range(1000000):
        pass
"""


@contextlib.contextmanager
def cores_awake():
    """Keep every core out of the halted state for the duration.

    A pipeline worker computes for a millisecond or two and then blocks on
    a token, so its core halts hundreds of times a second.  On a virtual
    machine a halting vCPU drops, for tens of seconds at a time, into a
    mode where the same Python runs 1.8x slower; which mode a run lands in
    is the host's business and swamps any bound this benchmark could set.
    One ``SCHED_IDLE`` spinner per core (the process-level equivalent of
    booting with ``idle=poll``) only ever runs when nothing else wants the
    core, and pins every run to the fast mode.
    """
    spinners = [
        subprocess.Popen([sys.executable, "-c", _SPINNER, str(cpu)])
        for cpu in sorted(os.sched_getaffinity(0))
    ]
    try:
        yield
    finally:
        for proc in spinners:
            proc.kill()
        for proc in spinners:
            proc.wait()


def host_block() -> dict:
    """The facts a reader needs before comparing two outputs."""
    import numpy

    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": platform.release(),
        "machine": platform.machine(),
        "oversubscribed": nproc < 2,
    }
