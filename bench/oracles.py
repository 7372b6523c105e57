"""Expected results that do not come from the path under test.

* Workloads 1-3 and 5 run a compiled scan block across processes; their
  oracle is the single-process ``execute_vectorized`` result from the same
  inputs, and that engine is itself cross-checked once per run against the
  scalar loop-nest interpreter.
* Workloads 4 and 6 score alignments; their oracle is the textbook
  dynamic program in plain Python, sharing no code with ``repro``.
* Workload 7 is a deterministic simulation; its virtual times and message
  counts are pinned below and any drift is a failure.
"""

from __future__ import annotations

import math

import numpy as np

from repro.runtime import ArraySnapshot, execute_loopnest, execute_vectorized

#: Alignment scoring constants: the defaults of ``repro.apps.alignment`` and
#: of ``POST /v1/align``, restated here so a silent change there is caught.
MATCH, MISMATCH, GAP = 2.0, -1.0, 1.0


def storage(arrays) -> list[np.ndarray]:
    """Copies of the arrays' whole storage, fluff included."""
    return [a.read(a.storage_region).copy() for a in arrays]


def mismatches(arrays, expected: list[np.ndarray]) -> list[str]:
    """Names of arrays whose storage is not bit-identical to ``expected``."""
    return [
        f"array {a.name!r} differs from the oracle"
        for a, want in zip(arrays, expected)
        if not np.array_equal(a.read(a.storage_region), want)
    ]


def serial_snapshot(compiled, arrays) -> list[np.ndarray]:
    """What one ``execute_vectorized`` leaves in ``arrays``; state restored."""
    snap = ArraySnapshot(arrays)
    execute_vectorized(compiled)
    expected = storage(arrays)
    snap.restore()
    return expected


def loopnest_agrees(compiled, arrays) -> bool:
    """Does the vectorised engine match the scalar loop nest on this block?

    The loop nest costs seconds at the timed sizes, so callers pass a small
    instance of the same program built from the same seed.
    """
    snap = ArraySnapshot(arrays)
    execute_loopnest(compiled)
    scalar = storage(arrays)
    snap.restore()
    vectorised = serial_snapshot(compiled, arrays)
    return all(np.array_equal(got, want) for got, want in zip(vectorised, scalar))


def alignment_table(a: str, b: str, local: bool) -> list[list[float]]:
    """The full DP table: Smith-Waterman if ``local`` else Needleman-Wunsch."""
    la, lb = len(a), len(b)
    h = [[0.0] * (lb + 1) for _ in range(la + 1)]
    if not local:
        for i in range(1, la + 1):
            h[i][0] = -GAP * i
        for j in range(1, lb + 1):
            h[0][j] = -GAP * j
    for i in range(1, la + 1):
        row, above, ai = h[i], h[i - 1], a[i - 1]
        for j in range(1, lb + 1):
            best = above[j - 1] + (MATCH if ai == b[j - 1] else MISMATCH)
            if above[j] - GAP > best:
                best = above[j] - GAP
            if row[j - 1] - GAP > best:
                best = row[j - 1] - GAP
            row[j] = best if not local or best > 0.0 else 0.0
    return h


def alignment_score(a: str, b: str, local: bool) -> float:
    table = alignment_table(a, b, local)
    return max(map(max, table)) if local else table[len(a)][len(b)]


#: Cray T3E virtual time and message count of ``tomcatv_forward(129)`` per
#: (schedule, processors, block size).  Input values do not enter the cost
#: model, so these hold for every seed.
SIM_GOLDENS = {
    ("pipelined", 4, 8): (42852.39999999999, 51),
    ("pipelined", 4, 23): (32573.399999999998, 21),
    ("pipelined", 16, 8): (62899.59999999997, 255),
    ("pipelined", 16, 23): (65976.59999999998, 105),
    ("naive", 4, None): (46980.0, 6),
    ("naive", 16, None): (172984.79999999996, 30),
}


def sim_drift(key, total_time: float, messages: int) -> str | None:
    """Why a simulation outcome is not its golden (``None`` when it is)."""
    want_time, want_messages = SIM_GOLDENS[key]
    if messages != want_messages:
        return f"sim {key}: {messages} messages, golden {want_messages}"
    if not math.isclose(total_time, want_time, rel_tol=1e-12, abs_tol=0.0):
        return f"sim {key}: virtual time {total_time!r}, golden {want_time!r}"
    return None
