"""The seven workloads: inputs from a seed, one timed call, one check.

Each workload drives ``repro`` through its public API only and follows one
lifecycle, driven by ``run.py``:

``setup``  (timed as ``setup_s``: inputs, compile, pool/server start, the
cold first call)  ->  ``build_oracle``  ->  ``measure`` (untraced)  ->
``measure`` (traced)  ->  ``probes``  ->  ``teardown``.

Why each workload exists is recorded in ``BENCHMARK.json`` and, at length,
in ``README.md``.
"""

from __future__ import annotations

import asyncio
import select
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro import zpl
from repro.apps import tomcatv
from repro.apps.alignment import build_score_block, score_many
from repro.compiler import compile_scan
from repro.machine import CRAY_T3E, naive_wavefront, pipelined_wavefront
from repro.obs import Trace, Tracer
from repro.obs.live import LIVE, fabric_summary
from repro.parallel import WorkerPool, collect_arrays, execute
from repro.runtime import ArraySnapshot, execute_vectorized, plan_kind
from repro.serve import ServeClient

import layers
import oracles
from harness import ROOT, Loop, clean_env, closed_loop, median, tree_cpu_seconds

PROCS = 2


def _ms_since(start: float) -> float:
    return (time.perf_counter() - start) * 1e3


class Workload:
    """Lifecycle and bookkeeping common to all seven."""

    name = ""

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        #: Per-layer metric name -> value, filled as the lifecycle advances.
        self.layers: dict[str, float] = {}
        #: Failures outside the timed loops (cold call, oracle cross-check,
        #: wrong plan kind, residue); each counts as one failed operation.
        self.failures: list[str] = []

    # -- lifecycle ---------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def build_oracle(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Put the inputs back (outside the timed region)."""

    def call(self, traced: bool) -> tuple[float, dict[str, float]]:
        raise NotImplementedError

    def verify(self) -> list[str]:
        """Why the last call was wrong; empty when it matched the oracle."""
        raise NotImplementedError

    def measure(self, seconds: float, min_samples: int, traced: bool) -> Loop:
        return closed_loop(self, seconds, min_samples, traced)

    def summarise(self, untraced: Loop, traced: Loop | None) -> None:
        """Turn the loops' observations into per-layer metrics.

        Observations keyed by a metric name become that metric's median.
        """
        self.run_ms_p50 = median(untraced.times_ms)
        for key in untraced.obs:
            if "." in key:
                self.layers[key] = untraced.p50(key)
        if traced is not None:
            self.layers["obs.spans_per_run"] = traced.p50("obs.spans_per_run")

    def probes(self) -> None:
        """Direct per-layer probes; only traced runs pay for them."""

    def teardown(self) -> None:
        pass

    def child_pids(self) -> tuple[int, ...]:
        """Children not started through ``multiprocessing`` (CPU accounting)."""
        return ()

    @property
    def repeats(self) -> int:
        return 3 if self.smoke else 15


# ---------------------------------------------------------------------------
# Input builders (seeded; the program only ever sees these arrays)
# ---------------------------------------------------------------------------
def tomcatv_forward_block(n: int, seed: int):
    """The paper's Fig. 2(b) forward elimination on a seeded Tomcatv mesh."""
    state = tomcatv.build(n, seed=seed)
    tomcatv.coefficients_phase(state)
    tomcatv.prepare_solve(state)
    return tomcatv.record_forward_block(state), state


def wide_block(n: int, width: int, seed: int):
    """``n x width`` wavefront with dependences (0,1) and (1,1): fan-out 2."""
    a = zpl.ZArray(zpl.Region.of((1, n), (1, width)), name="a", fluff=2)
    rng = np.random.default_rng(seed)
    a.write(a.storage_region, rng.uniform(0.5, 1.5, size=a.storage_region.shape))
    with zpl.covering(zpl.Region.of((3, n), (3, width))):
        with zpl.scan(execute=False) as block:
            a[...] = 0.3 + 0.4 * (a.p @ (0, -1)) + 0.2 * (a.p @ (-1, -1))
    return block


def banded_block(n: int, band: int, seed: int):
    """Banded DP: a mask keeps ``|i - j| <= band`` alive, the rest is dead."""
    base = zpl.Region.square(1, n)
    a = zpl.ZArray(base, name="a", fluff=2)
    rng = np.random.default_rng(seed)
    a.write(a.storage_region, rng.uniform(0.4, 0.6, size=a.storage_region.shape))
    mask = zpl.ZArray(base, name="m", fluff=2)
    i, j = np.indices((n, n))
    mask.load((np.abs(i - j) <= band).astype(float))
    with zpl.covering(zpl.Region.of((2, n), (1, n))), zpl.masked(mask):
        with zpl.scan(execute=False) as block:
            a[...] = 0.2 + 0.45 * (a.p @ (-1, 0)) + 0.3 * (a.p @ (-1, -1))
    return block


def random_bases(rng, length: int) -> str:
    return "".join(rng.choice(list("ACGT"), length))


# ---------------------------------------------------------------------------
# Workloads 1-3: a compiled block on a warm WorkerPool(2)
# ---------------------------------------------------------------------------
class PoolWorkload(Workload):
    """Steady state of an iterative solver: same block, warm pool, p = 2."""

    exec_kwargs: dict = {}
    expect_fabric = "pipes"
    #: (timed size, loop-nest cross-check size), each a tuple of arguments
    #: for ``record``.  Smoke runs keep the timed size and only loop less:
    #: at smaller sizes the un-spanned fixed costs of a call (result queue,
    #: span shipping) stop being a small share of it.
    sizes = ((), ())
    pool = None

    def record(self, *size):
        raise NotImplementedError

    def setup(self):
        start = time.perf_counter()
        block = self.record(*self.sizes[0])
        self.layers["apps.build_ms"] = _ms_since(start)
        start = time.perf_counter()
        self.compiled = compile_scan(block)
        self.layers["compiler.compile_ms"] = _ms_since(start)
        self.arrays = collect_arrays(self.compiled)
        self.snap = ArraySnapshot(self.arrays)
        start = time.perf_counter()
        self.pool = WorkerPool(PROCS)
        self.layers["parallel.pool_start_ms"] = _ms_since(start)
        start = time.perf_counter()
        self.run = self.pool.execute(self.compiled, **self.exec_kwargs)
        self.layers["parallel.first_call_ms"] = _ms_since(start)

    def build_oracle(self):
        cold = oracles.storage(self.arrays)
        self.snap.restore()
        start = time.perf_counter()
        execute_vectorized(self.compiled)
        self.cold_serial_ms = _ms_since(start)
        self.expected = oracles.storage(self.arrays)
        self.snap.restore()
        if any(not np.array_equal(c, e) for c, e in zip(cold, self.expected)):
            self.failures.append("cold first call differs from the oracle")
        small = compile_scan(self.record(*self.sizes[1]))
        if not oracles.loopnest_agrees(small, collect_arrays(small)):
            self.failures.append("execute_vectorized disagrees with the loop nest")

    def prepare(self):
        self.snap.restore()

    def call(self, traced):
        tracer = Tracer() if traced else None
        start = time.perf_counter()
        self.run = self.pool.execute(self.compiled, tracer=tracer, **self.exec_kwargs)
        ms = _ms_since(start)
        obs = layers.parallel_obs(self.run, ms)
        if traced:
            obs.update(layers.fold_parallel(tracer.spans))
            obs["parallel.traced_call_ms"] = ms
            obs["obs.spans_per_run"] = len(tracer.spans)
        return ms, obs

    def verify(self):
        reasons = oracles.mismatches(self.arrays, self.expected)
        want = self.exec_kwargs["schedule"]
        if self.run.schedule != want:
            reasons.append(f"ran schedule {self.run.schedule!r}, expected {want!r}")
        if self.run.fabric != self.expect_fabric:
            reasons.append(
                f"ran on fabric {self.run.fabric!r}, expected {self.expect_fabric!r}"
            )
        return reasons

    def summarise(self, untraced, traced):
        super().summarise(untraced, traced)
        out = self.layers
        out.update(layers.parallel_summary(self.run, untraced, traced))
        fabric = fabric_summary(LIVE)
        if fabric:
            runs = self.pool.stats["executes"]
            out["parallel.multicast_releases"] = fabric["multicast_releases"] / runs
            out["parallel.buffer_flips"] = fabric["buffer_flips"] / runs
            out["parallel.multicast_overlap_ms"] = fabric["overlap_seconds"] * 1e3 / runs
        report = self.run.taskgraph
        if report is not None:
            out["parallel.tg_tasks"] = report.n_tasks
            out["parallel.tg_pruned"] = report.n_pruned
            out["parallel.tg_steals"] = report.steals
            out["parallel.tg_ready_peak"] = max(report.ready_peak)

    def probes(self):
        out = self.layers
        out.update(
            layers.scan_block_layers(
                self.compiled, self.snap, procs=PROCS,
                block=self.exec_kwargs["block"],
                schedule=self.exec_kwargs["schedule"],
                multicast=self.exec_kwargs.get("multicast"),
                repeats=self.repeats, cold_serial_ms=self.cold_serial_ms,
                wall_ms=out["parallel.wall_ms_p50"],
            )
        )
        serial, wall = out["runtime.serial_ms_p50"], out["parallel.wall_ms_p50"]
        out["parallel.overhead_ms_per_block"] = (wall - serial / PROCS) / out[
            "parallel.n_chunks"
        ]
        out["parallel.speedup_vs_serial"] = serial / self.run_ms_p50

    def teardown(self):
        if self.pool is not None:
            self.pool.close()


class TomcatvPipesPool(PoolWorkload):
    name = "tomcatv_pipes_pool"
    exec_kwargs = dict(schedule="pipelined", block=64, multicast=False)
    sizes = ((513,), (65,))

    def record(self, n):
        return tomcatv_forward_block(n, self.seed)[0]


class WideMulticastPool(PoolWorkload):
    name = "wide_multicast_pool"
    # The fabric is left on auto: the planner must pick the epoch fabric
    # from the tile DAG's fan-out, and ``verify`` fails the call if not.
    exec_kwargs = dict(schedule="pipelined", block=64, double_buffer=True)
    expect_fabric = "multicast"
    sizes = ((2048, 16), (128, 16))

    def record(self, n, width):
        return wide_block(n, width, self.seed)


class BandedTaskgraphPool(PoolWorkload):
    name = "banded_taskgraph_pool"
    exec_kwargs = dict(schedule="taskgraph", block=16)
    sizes = ((512, 64), (64, 8))

    def record(self, n, band):
        return banded_block(n, band, self.seed)

    def probes(self):
        super().probes()
        self.layers.update(
            layers.taskdag_layers(
                self.compiled, PROCS, self.exec_kwargs["block"], self.repeats
            )
        )


# ---------------------------------------------------------------------------
# Workload 4: Smith-Waterman on the skewed kernel engine, one process
# ---------------------------------------------------------------------------
class SwKernelSerial(Workload):
    name = "sw_kernel_serial"

    def setup(self):
        length = 80 if self.smoke else 700
        rng = np.random.default_rng(self.seed)
        self.a, self.b = random_bases(rng, length), random_bases(rng, length)
        start = time.perf_counter()
        self.compiled, self.h = build_score_block(self.a, self.b, local=True)
        self.layers["apps.build_ms"] = _ms_since(start)
        self.snap = ArraySnapshot([self.h])
        if plan_kind(self.compiled, "kernel") != "skewed":
            self.failures.append("the alignment block did not get a skewed plan")
        start = time.perf_counter()
        execute_vectorized(self.compiled, engine="kernel")
        self.cold_serial_ms = _ms_since(start)

    def build_oracle(self):
        table = oracles.alignment_table(self.a, self.b, local=True)
        self.expected = np.array(table)
        if self.verify():
            self.failures.append("cold first call differs from the oracle")

    def prepare(self):
        self.snap.restore()

    def call(self, traced):
        tracer = Tracer() if traced else None
        start = time.perf_counter()
        execute_vectorized(self.compiled, engine="kernel", tracer=tracer)
        ms = _ms_since(start)
        return ms, {"obs.spans_per_run": len(tracer.spans)} if traced else {}

    def verify(self):
        if np.array_equal(self.h.to_numpy(), self.expected):
            return []
        return ["the DP table differs from the plain-Python Smith-Waterman"]

    def probes(self):
        self.layers.update(
            layers.serial_layers(
                self.compiled, self.snap, self.repeats, self.cold_serial_ms,
                engine="kernel",
            )
        )


# ---------------------------------------------------------------------------
# Workload 5: program text -> arrays, every cache cold, fork per run
# ---------------------------------------------------------------------------
FIG_2B = """
    region R = [2..n-2, 2..n-1];
    [R] scan
          r := aa * d'@north;
          d := 1.0 / (dd - aa@north * r);
          rx := rx - rx'@north * r;
          ry := ry - ry'@north * r;
        end;
"""


class ColdTextFork(Workload):
    name = "cold_text_fork"
    names = ("r", "aa", "d", "dd", "rx", "ry")

    def setup(self):
        self.n = 33 if self.smoke else 257
        self.block = 8 if self.smoke else 32
        start = time.perf_counter()
        self.state = tomcatv_forward_block(self.n, self.seed)[1]
        self.inputs = {k: oracles.storage([getattr(self.state, k)])[0] for k in self.names}
        self.layers["apps.build_ms"] = _ms_since(start)
        start = time.perf_counter()
        self.call(False)
        self.layers["parallel.first_call_ms"] = _ms_since(start)

    def build_oracle(self):
        # The oracle never sees the parser: it runs the recorded (embedded)
        # form of the same block, serially, on the seed's own arrays.
        compiled = tomcatv.compile_forward(self.state)
        arrays = [getattr(self.state, k) for k in self.names]
        self.snap = ArraySnapshot(arrays)
        start = time.perf_counter()
        execute_vectorized(compiled)
        self.cold_serial_ms = _ms_since(start)
        self.expected = oracles.storage(arrays)
        self.snap.restore()
        self.oracle_compiled = compiled
        if self.verify():
            self.failures.append("cold first call differs from the oracle")
        small, _ = tomcatv_forward_block(33, self.seed)
        small = compile_scan(small)
        if not oracles.loopnest_agrees(small, collect_arrays(small)):
            self.failures.append("execute_vectorized disagrees with the loop nest")

    def call(self, traced):
        tracer = Tracer() if traced else None
        start = time.perf_counter()
        self.arrays = {
            k: zpl.ZArray(zpl.Region.square(1, self.n), name=k) for k in self.names
        }
        for k, array in self.arrays.items():
            array.write(array.storage_region, self.inputs[k])
        t_parse = time.perf_counter()
        block = zpl.parse_scan_block(FIG_2B, self.arrays, constants={"n": self.n})
        t_compile = time.perf_counter()
        compiled = compile_scan(block, tracer=tracer)
        t_execute = time.perf_counter()
        self.run = execute(
            compiled, grid=PROCS, schedule="pipelined", block=self.block,
            timeout=60.0, tracer=tracer,
        )
        end = time.perf_counter()
        execute_ms = (end - t_execute) * 1e3
        obs = layers.parallel_obs(self.run, execute_ms)
        obs["zpl.parse_ms"] = (t_compile - t_parse) * 1e3
        obs["compiler.compile_ms"] = (t_execute - t_compile) * 1e3
        if traced:
            tracer.add_span("zpl.parse", "bench", t_parse, t_compile)
            tracer.add_span("compiler.compile", "bench", t_compile, t_execute)
            tracer.add_span("parallel.execute", "bench", t_execute, end)
            obs.update(layers.fold_parallel(tracer.spans))
            obs["parallel.traced_call_ms"] = execute_ms
            obs["obs.spans_per_run"] = len(tracer.spans)
        return (end - start) * 1e3, obs

    def verify(self):
        reasons = oracles.mismatches(
            [self.arrays[k] for k in self.names], self.expected
        )
        if (self.run.schedule, self.run.fabric) != ("pipelined", "pipes"):
            reasons.append(
                f"ran {self.run.schedule!r} on {self.run.fabric!r}, "
                f"expected pipelined on pipes"
            )
        return reasons

    def summarise(self, untraced, traced):
        super().summarise(untraced, traced)
        self.layers.update(layers.parallel_summary(self.run, untraced, traced))

    def probes(self):
        self.layers.update(
            layers.scan_block_layers(
                self.oracle_compiled, self.snap, procs=PROCS, block=self.block,
                schedule="pipelined", multicast=None, repeats=self.repeats,
                cold_serial_ms=self.cold_serial_ms,
                wall_ms=self.layers["parallel.wall_ms_p50"],
            )
        )


# ---------------------------------------------------------------------------
# Workload 6: the alignment server under an open-loop arrival schedule
# ---------------------------------------------------------------------------
class ServeAlignOpen(Workload):
    name = "serve_align_open"
    host = "127.0.0.1"
    limit_ms = 50.0
    #: (kind, len a, len b, share of the pool): two coalescing keys.
    mix = (("nw", 60, 60, 3), ("sw", 120, 90, 1))
    #: What a request can raise without the benchmark itself being broken.
    request_errors = (OSError, EOFError, ValueError, asyncio.TimeoutError)

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.rate = 100.0 if smoke else 250.0
        self.servers: list[subprocess.Popen] = []
        self.rng = np.random.default_rng(seed)

    # -- server children ---------------------------------------------------
    def start_server(self, *extra: str) -> int:
        """Start ``python -m repro.serve`` with its defaults; return the port."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0", *extra],
            stdout=subprocess.PIPE, text=True, env=clean_env(), cwd=ROOT,
        )
        self.servers.append(proc)
        ready, _, _ = select.select([proc.stdout], [], [], 60.0)
        line = proc.stdout.readline() if ready else ""
        if "listening on" not in line:
            raise RuntimeError(f"server did not come up: {line!r}")
        return int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])

    def stop_server(self, proc: subprocess.Popen) -> None:
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)  # the documented clean shutdown
            try:
                proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()

    def child_pids(self):
        return tuple(p.pid for p in self.servers if p.poll() is None)

    async def ask(self, port: int, index: int) -> tuple[int, dict]:
        """One request on its own connection, as an independent user sends it."""
        kind, a, b = self.pairs[index]
        async with ServeClient(self.host, port) as client:
            status, _, body = await asyncio.wait_for(
                client.post("/v1/align", {"kind": kind, "a": a, "b": b}),
                timeout=10.0,
            )
        return status, body

    # -- lifecycle ---------------------------------------------------------
    def setup(self):
        start = time.perf_counter()
        per_share = 4 if self.smoke else 32
        self.pairs = [
            (kind, random_bases(self.rng, la), random_bases(self.rng, lb))
            for kind, la, lb, share in self.mix
            for _ in range(share * per_share)
        ]
        self.layers["apps.build_ms"] = _ms_since(start)
        self.port = self.start_server()
        # One cold request per coalescing key builds both stacked plans.
        self.cold = {
            index: asyncio.run(self.ask(self.port, index))
            for index in (0, len(self.pairs) - 1)
        }

    def build_oracle(self):
        self.scores = [
            oracles.alignment_score(a, b, local=(kind == "sw"))
            for kind, a, b in self.pairs
        ]
        for index, (status, body) in self.cold.items():
            if status != 200 or body.get("score") != self.scores[index]:
                self.failures.append(f"cold request answered {status}: {body}")

    def measure(self, seconds, min_samples, traced):
        count = max(min_samples, int(seconds * self.rate))
        order = [int(i) for i in self.rng.integers(0, len(self.pairs), size=count)]
        if not traced:
            return asyncio.run(self.open_loop(self.port, order))
        # The traced run is a second server with the public --trace flag;
        # its spans are written on shutdown and counted per request.
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_") as tmp:
            path = f"{tmp}/serve_trace.json"
            port = self.start_server("--trace", path)
            loop = asyncio.run(self.open_loop(port, order))
            self.stop_server(self.servers.pop())
            spans = len(Trace.load(path).spans)
        loop.obs["obs.spans_per_run"] = [spans / count]
        return loop

    async def open_loop(self, port: int, order: list[int]) -> Loop:
        """Offer ``order`` at ``self.rate``; time each request from when it was
        due, so a stalled generator counts against the requests it delayed."""
        loop = Loop()
        statuses = loop.obs.setdefault("status", [])
        lateness = loop.obs.setdefault("harness.lateness_ms_p50", [])

        async def one(index: int, due: float) -> None:
            loop.attempted += 1
            try:
                status, body = await self.ask(port, index)
            except self.request_errors as exc:
                loop.fail(f"request raised {type(exc).__name__}: {exc}")
                return
            latency_ms = _ms_since(due)
            statuses.append(status)
            if status != 200:
                loop.fail(f"request answered {status}: {body.get('error')}")
            elif body.get("score") != self.scores[index]:
                loop.fail(f"score {body.get('score')!r}, oracle {self.scores[index]!r}")
            else:
                loop.times_ms.append(latency_ms)
                loop.good += latency_ms <= self.limit_ms

        cpu0 = tree_cpu_seconds(self.child_pids())
        start = time.perf_counter() + 0.02
        tasks = []
        for i, index in enumerate(order):
            due = start + i / self.rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(_ms_since(due))
            tasks.append(asyncio.ensure_future(one(index, due)))
        await asyncio.gather(*tasks)
        loop.cpu_s = tree_cpu_seconds(self.child_pids()) - cpu0
        return loop

    def summarise(self, untraced, traced):
        super().summarise(untraced, traced)
        out = self.layers
        statuses = untraced.obs["status"]
        out["serve.rejected_share"] = statuses.count(429) / untraced.attempted
        out["serve.timeout_share"] = statuses.count(504) / untraced.attempted
        out["parallel.cpu_ms_per_run"] = untraced.cpu_s * 1e3 / untraced.attempted

    def probes(self):
        asyncio.run(self.server_probes())
        # The same batches through the library, no HTTP, no queue: the
        # kernel's share of request latency.
        size = max(1, round(self.layers["serve.batch_mean_size"]))
        samples = []
        for k in range(self.repeats * 2):
            kind = self.mix[0 if k % 4 else 1][0]
            batch = [(a, b) for kd, a, b in self.pairs if kd == kind][:size]
            start = time.perf_counter()
            score_many(batch, local=(kind == "sw"))
            samples.append(_ms_since(start))
        self.layers["serve.score_many_ms_p50"] = median(samples)

    async def server_probes(self):
        out = self.layers
        async with ServeClient(self.host, self.port) as client:
            _, _, doc = await client.get("/metrics")
            out["serve.queue_wait_ms_p50"] = doc["queue_wait_ms"]["p50"]
            out["serve.compute_ms_p50"] = doc["compute_ms"]["p50"]
            out["serve.batch_mean_size"] = doc["batches"]["mean_size"]
            out["serve.batches"] = doc["batches"]["dispatched"]
            samples = []
            for _ in range(self.repeats * 4):
                start = time.perf_counter()
                await client.get("/healthz")
                samples.append(_ms_since(start))
            out["serve.healthz_ms_p50"] = median(samples)

    def teardown(self):
        while self.servers:
            self.stop_server(self.servers.pop())


# ---------------------------------------------------------------------------
# Workload 7: the discrete-event simulator on the paper's Cray T3E
# ---------------------------------------------------------------------------
class SimT3eSweep(Workload):
    name = "sim_t3e_sweep"
    configs = tuple(oracles.SIM_GOLDENS)

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        if smoke:  # the cheapest pipelined and naive cells keep their goldens
            self.configs = (("pipelined", 4, 23), ("naive", 4, None))
        #: Why the last sweep was wrong: ``call`` compares between its six
        #: simulations, so ``verify`` only hands the reasons over.
        self._reasons: list[str] = []

    def setup(self):
        start = time.perf_counter()
        block, _ = tomcatv_forward_block(129, self.seed)
        self.layers["apps.build_ms"] = _ms_since(start)
        start = time.perf_counter()
        self.compiled = compile_scan(block)
        self.layers["compiler.compile_ms"] = _ms_since(start)
        self.arrays = collect_arrays(self.compiled)
        self.snap = ArraySnapshot(self.arrays)
        self.expected = None
        self.call(False)

    def build_oracle(self):
        cold_reasons = self._reasons
        self.snap.restore()
        self.expected = oracles.serial_snapshot(self.compiled, self.arrays)
        self.call(False)
        if cold_reasons or self._reasons:
            self.failures.append("cold sweep: " + "; ".join(cold_reasons + self._reasons))
        small = compile_scan(tomcatv_forward_block(33, self.seed)[0])
        if not oracles.loopnest_agrees(small, collect_arrays(small)):
            self.failures.append("execute_vectorized disagrees with the loop nest")

    def simulate(self, config, compute_values=True, tracer=None):
        schedule, procs, block = config
        if schedule == "naive":
            return naive_wavefront(
                self.compiled, CRAY_T3E, procs,
                compute_values=compute_values, tracer=tracer,
            )
        return pipelined_wavefront(
            self.compiled, CRAY_T3E, procs, block,
            compute_values=compute_values, tracer=tracer,
        )

    def call(self, traced):
        """One sweep: six simulations, timed one by one so that the restore
        and the compare between them stay outside the timed region."""
        tracer = Tracer() if traced else None
        self._reasons = []
        total = virtual = messages = 0.0
        for config in self.configs:
            self.snap.restore()
            start = time.perf_counter()
            outcome = self.simulate(config, tracer=tracer)
            total += _ms_since(start)
            virtual += outcome.total_time
            messages += outcome.run.total_messages
            drift = oracles.sim_drift(
                config, outcome.total_time, outcome.run.total_messages
            )
            if drift:
                self._reasons.append(drift)
            if self.expected is not None:
                self._reasons += oracles.mismatches(self.arrays, self.expected)
        obs = {
            "machine.sim_values_ms": total,
            "machine.virtual_time": virtual,
            "machine.sim_messages": messages,
        }
        if traced:
            obs["obs.spans_per_run"] = len(tracer.spans)
        return total, obs

    def verify(self):
        return self._reasons

    def probes(self):
        def sweep_without_values():
            for config in self.configs:
                self.simulate(config, compute_values=False)

        self.layers["machine.sim_novalues_ms"] = layers.timed_ms(
            sweep_without_values, self.repeats
        )
        self.layers["machine.plan_wavefront_ms"] = layers.timed_ms(
            lambda: layers.plan_wavefront(self.compiled), self.repeats
        )


WORKLOADS = {
    cls.name: cls
    for cls in (
        TomcatvPipesPool, WideMulticastPool, BandedTaskgraphPool, SwKernelSerial,
        ColdTextFork, ServeAlignOpen, SimT3eSweep,
    )
}
