"""The always-on observability tax: flight recorder on vs off.

``repro.obs.live`` keeps the flight recorder enabled by default, so its
cost rides every kernel dispatch.  This bench measures that tax on the
alignment kernel path — the same skewed Smith-Waterman workload as
``test_bench_alignment.py`` — by interleaving runs with the recorder on
and off and comparing medians.  The CI gate: the always-on tier must
cost **under 5 % median overhead**, or it has no business being
always-on.  Results land in ``BENCH_obs_overhead.json``.
"""

import os
import random
import statistics

from repro.apps.alignment import build_score_block
from repro.obs.live.flight import FLIGHT
from repro.parallel import oversubscription
from repro.runtime import execute_vectorized
from repro.runtime.interp import ArraySnapshot
from repro.util.benchjson import read_bench, write_bench
from repro.util.timing import WallTimer

N = int(os.environ.get("REPRO_BENCH_OBS_N", "400"))
REPEATS = 7
#: The CI gate: median slowdown with the recorder on, as a fraction.
MAX_OVERHEAD = 0.05


def _random_sequence(rng, n):
    return "".join(rng.choice("ACGT") for _ in range(n))


def _timed_run(compiled, snap):
    snap.restore()
    timer = WallTimer()
    with timer:
        execute_vectorized(compiled)
    return timer.elapsed


def test_obs_overhead_artifact():
    rng = random.Random(20000614)
    compiled, h = build_score_block(
        _random_sequence(rng, N), _random_sequence(rng, N), local=True
    )
    compiled.prepare()
    snap = ArraySnapshot([h])
    host = oversubscription(1)

    was_enabled = FLIGHT.enabled
    on_times, off_times = [], []
    try:
        # Warm the kernel plans (and the page cache) outside the clock.
        FLIGHT.enabled = True
        _timed_run(compiled, snap)
        # Interleave on/off runs so drift (thermal, cache, GC) cancels
        # instead of biasing whichever state is measured second.
        for _ in range(REPEATS):
            FLIGHT.enabled = True
            on_times.append(_timed_run(compiled, snap))
            FLIGHT.enabled = False
            off_times.append(_timed_run(compiled, snap))
    finally:
        FLIGHT.enabled = was_enabled
        snap.restore()

    median_on = statistics.median(on_times)
    median_off = statistics.median(off_times)
    overhead = (median_on - median_off) / median_off

    results = [
        {
            "test": "flight_recorder_alignment",
            "n": N,
            "table_cells": N * N,
            "repeats": REPEATS,
            "median_on_seconds": median_on,
            "median_off_seconds": median_off,
            "min_on_seconds": min(on_times),
            "min_off_seconds": min(off_times),
            "overhead_fraction": overhead,
        },
    ]
    meta = {
        "benchmark": "obs-overhead",
        "n": N,
        "repeats": REPEATS,
        "max_overhead_gate": MAX_OVERHEAD,
        "flight_capacity": FLIGHT.capacity,
        "host": host,
        "oversubscribed": host["oversubscribed"],
    }
    path = write_bench("obs_overhead", results, meta=meta)

    written = read_bench("obs_overhead")
    assert path.name == "BENCH_obs_overhead.json"
    assert written["results"][0]["median_off_seconds"] > 0

    # Acceptance criterion — the CI gate.
    assert overhead < MAX_OVERHEAD, (
        f"always-on flight recorder costs {overhead:.1%} median overhead "
        f"on the n={N} alignment kernel (gate {MAX_OVERHEAD:.0%}): "
        f"on {median_on:.4f}s vs off {median_off:.4f}s"
    )
