"""Smith-Waterman at ~1k×1k: the skewed plans vs the O(n·m) loop nest.

Both dimensions of the alignment DP carry dependences, so before hyperplane
skewing every engine degenerated to O(n·m) Python iterations; the skewed
kernel plans sweep O(n+m) anti-diagonals instead.  This bench regenerates
the acceptance numbers on random ~1k-base sequences (override the size with
``REPRO_BENCH_ALIGN_N`` — CI's smoke step runs a small n):

* both lowerings and the scalar loop-nest oracle
  (:func:`~repro.runtime.execute_loopnest`) produce the *same score*
  (equality gate);
* the skewed engine is at least **5×** faster than the oracle's O(n·m)
  point loop (the acceptance gate; on a typical host the ratio is far
  larger).  The ratio is a statement about the *numpy* sheared lowering —
  O(n+m) plane steps against O(n·m) point steps — so it is asserted on that
  lowering (``skewed_numpy_seconds``, the toolchain made to look absent) as
  well as on what :func:`execute_vectorized` runs by default, the native
  loop nest where the host has a compiler, which must in turn not be slower
  than the numpy lowering it replaces.

The payload is written to ``BENCH_alignment.json`` via
:mod:`repro.util.benchjson` and uploaded by CI next to the other
``BENCH_*.json`` artifacts.
"""

import os
import random

from repro.apps.alignment import build_score_block
from repro.parallel import oversubscription
from repro.runtime import KERNEL_STATS, execute_loopnest, execute_vectorized, plan_kind
from repro.runtime.interp import ArraySnapshot
from repro.util.benchjson import read_bench, write_bench
from repro.util.timing import WallTimer
from tests.conftest import numpy_lowerings

#: Acceptance-criterion sequence length (~1k×1k DP table).
N = int(os.environ.get("REPRO_BENCH_ALIGN_N", "1000"))
REPEATS = 3
#: The CI gate: skewed must beat the loop-nest point loop by this factor.
MIN_SPEEDUP = 5.0


def _random_sequence(rng, n):
    return "".join(rng.choice("ACGT") for _ in range(n))


def _timed(compiled, snap, repeats, run=execute_vectorized):
    best = float("inf")
    for _ in range(repeats):
        snap.restore()
        timer = WallTimer()
        with timer:
            run(compiled)
        best = min(best, timer.elapsed)
    return best


def test_alignment_engine_artifact():
    rng = random.Random(20000614)
    a = _random_sequence(rng, N)
    b = _random_sequence(rng, N)
    compiled, h = build_score_block(a, b, local=True)
    compiled.prepare()
    snap = ArraySnapshot([h])
    host = oversubscription(1)
    assert plan_kind(compiled) == "skewed"

    # The oracle's point loop pays O(n·m) scalar tree walks: one repeat is
    # plenty (it is the slow baseline, minutes at full size).
    loopnest_best = _timed(compiled, snap, 1, execute_loopnest)
    loopnest_score = float(h.to_numpy().max())

    KERNEL_STATS.reset()
    snap.restore()
    cold_timer = WallTimer()
    with cold_timer:
        execute_vectorized(compiled)
    skewed_cold = cold_timer.elapsed
    skewed_score = float(h.to_numpy().max())
    skewed_best = _timed(compiled, snap, REPEATS)
    kernel_stats = KERNEL_STATS.snapshot()
    with numpy_lowerings():
        numpy_best = _timed(compiled, snap, 1 + REPEATS)
    numpy_score = float(h.to_numpy().max())
    snap.restore()

    results = [
        {
            "test": "smith_waterman_engines",
            "n": N,
            "table_cells": N * N,
            "loopnest_seconds": loopnest_best,
            "skewed_cold_seconds": skewed_cold,
            "skewed_seconds": skewed_best,
            "skewed_numpy_seconds": numpy_best,
            "skewed_speedup_vs_loopnest": loopnest_best / skewed_best,
            "score": skewed_score,
            "cells_per_second": N * N / skewed_best,
        },
    ]
    meta = {
        "benchmark": "smith-waterman",
        "n": N,
        "repeats": REPEATS,
        "min_speedup_gate": MIN_SPEEDUP,
        "host": host,
        "oversubscribed": host["oversubscribed"],
        "kernel_stats": kernel_stats,
        "hyperplanes_per_run": kernel_stats["hyperplanes"]
        // max(1, 1 + REPEATS),
    }
    path = write_bench("alignment", results, meta=meta)

    written = read_bench("alignment")
    assert path.name == "BENCH_alignment.json"
    assert written["results"][0]["skewed_seconds"] > 0

    # Both lowerings compute the oracle's alignment (equal table maxima).
    assert skewed_score == numpy_score == loopnest_score

    # Acceptance criterion — the CI gate, on both lowerings of the plan.
    for label, best in (("skewed", skewed_best), ("numpy skewed", numpy_best)):
        assert best * MIN_SPEEDUP <= loopnest_best, (
            f"{label} engine must be >={MIN_SPEEDUP}x faster than the "
            f"loop-nest point loop on Smith-Waterman n={N}: "
            f"{label} {best:.4f}s vs loopnest {loopnest_best:.4f}s"
        )
    assert skewed_best <= numpy_best * 1.1, (
        f"the default lowering must not lose to the numpy sheared sweep: "
        f"{skewed_best:.4f}s vs {numpy_best:.4f}s"
    )
