"""Sequence alignment: the dynamic-programming wavefronts of the paper's intro.

"Wavefront computations frequently appear in scientific applications,
including solvers and dynamic programming codes" — this module is the
dynamic-programming representative: Needleman-Wunsch global alignment and
Smith-Waterman local alignment.  The DP recurrence

    H[i,j] = max(H[i-1,j-1] + s(a_i, b_j), H[i-1,j] - gap, H[i,j-1] - gap)

depends on north, west and northwest neighbours: a classic two-direction
wavefront, written as a single scan block over a precomputed substitution
score array.  Traceback is ordinary sequential code.

Both dimensions of the DP carry dependences, so this workload is exactly
what the hyperplane-skewed kernel plans (:mod:`repro.runtime.kernels`) were
built for: the default engine sweeps anti-diagonals — with the native plane
nest where the host builds it, else one fused numpy kernel each (O(n+m)
dispatches) — instead of interpreting O(n·m) points.  The ``engine``
parameters below take any callable with the
:func:`~repro.runtime.kernels.execute_vectorized` signature.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro import zpl
from repro.compiler import compile_scan
from repro.compiler.lowering import CompiledScan
from repro.runtime import PlanRunner, execute_vectorized
from repro.zpl import NORTH, NORTHWEST, WEST, Region, ZArray


@dataclass(frozen=True)
class AlignmentResult:
    """Score and aligned strings (gaps as ``-``)."""

    score: float
    aligned_a: str
    aligned_b: str


def _substitution_scores(
    a: str, b: str, match: float, mismatch: float
) -> np.ndarray:
    arr_a = np.frombuffer(a.encode("ascii"), dtype=np.uint8)[:, None]
    arr_b = np.frombuffer(b.encode("ascii"), dtype=np.uint8)[None, :]
    return np.where(arr_a == arr_b, match, mismatch).astype(float)


def build_score_block(
    a: str,
    b: str,
    match: float = 2.0,
    mismatch: float = -1.0,
    gap: float = 1.0,
    local: bool = False,
) -> tuple[CompiledScan, ZArray]:
    """Record and compile the DP scan block; returns (compiled, H matrix).

    The H matrix is declared over ``[0..len(a), 0..len(b)]``; row/column 0
    hold the standard boundary (gap penalties for global, zero for local).
    """
    if not a or not b:
        raise ValueError("sequences must be non-empty")
    la, lb = len(a), len(b)
    h_region = Region.of((0, la), (0, lb))
    h = zpl.ZArray(h_region, name="H")
    scores = zpl.ZArray(h_region, name="S")
    scores.write(Region.of((1, la), (1, lb)), _substitution_scores(a, b, match, mismatch))
    if local:
        h.fill(0.0)
    else:
        h.fill(0.0)
        h.write(Region.of((0, la), (0, 0)), -gap * np.arange(la + 1.0)[:, None])
        h.write(Region.of((0, 0), (0, lb)), -gap * np.arange(lb + 1.0)[None, :])

    inner = Region.of((1, la), (1, lb))
    with zpl.covering(inner):
        with zpl.scan(name="alignment", execute=False) as block:
            best = zpl.maximum(
                (h.p @ NORTHWEST) + scores,
                zpl.maximum((h.p @ NORTH) - gap, (h.p @ WEST) - gap),
            )
            h[...] = zpl.maximum(best, 0.0) if local else best
    return compile_scan(block), h


# ---------------------------------------------------------------------------
# Batched scoring: many same-shape pairs through ONE stacked compiled plan
# ---------------------------------------------------------------------------
#: Cached stacked batch plans; each pins two float arrays of
#: ``capacity × (la+1) × (lb+1)``, so the cache stays deliberately small.
_BATCH_PLAN_CAP = 16

#: Per-array element budget for one stacked batch (keeps a batch of long
#: sequences from ballooning: capacity is clamped so that
#: ``capacity · (la+1) · (lb+1)`` stays under this).
_BATCH_ELEMENT_BUDGET = 1 << 22


@dataclass
class _BatchPlan:
    """One cached rank-3 stacked DP plan: ``capacity`` pairs of one shape.

    Dimension 0 is the *pair* index — completely parallel, so the skewed
    kernel plans execute every pair's anti-diagonal in one fused numpy call
    per hyperplane: O(la+lb) dispatches for the whole batch instead of per
    pair.  ``lock`` serialises use of the plan's arrays (they are shared
    mutable state across executes).
    """

    compiled: CompiledScan
    h: ZArray
    s: ZArray
    capacity: int
    la: int
    lb: int
    local: bool
    runner: PlanRunner | None = None
    lock: threading.Lock = field(default_factory=threading.Lock)

    def execute(self, engine, items: int) -> None:
        """Run the stacked plan: an amortised runner for the default
        engine, any other callable verbatim."""
        if engine is not execute_vectorized:
            engine(self.compiled)
            return
        if self.runner is None:
            self.runner = PlanRunner(self.compiled)
        self.runner.run(items)


_BATCH_PLANS: "OrderedDict[tuple, _BatchPlan]" = OrderedDict()
_BATCH_PLANS_LOCK = threading.Lock()


def _batch_capacity(k: int, la: int, lb: int) -> int:
    """Stacked-slab capacity for a group of ``k`` pairs of shape (la, lb).

    Rounded up to a power of two so repeated traffic at varying batch sizes
    hits a handful of cached plans, then clamped by the element budget.
    """
    cap = 1 << max(0, k - 1).bit_length()
    budget = max(1, _BATCH_ELEMENT_BUDGET // ((la + 1) * (lb + 1)))
    return max(1, min(cap, budget))


def _build_batch_plan(
    capacity: int, la: int, lb: int, match: float, mismatch: float,
    gap: float, local: bool,
) -> _BatchPlan:
    store = Region.of((0, capacity - 1), (0, la), (0, lb))
    h = zpl.ZArray(store, name="H")
    s = zpl.ZArray(store, name="S")
    h.fill(0.0)
    if not local:
        h.write(
            Region.of((0, capacity - 1), (0, la), (0, 0)),
            np.broadcast_to(
                -gap * np.arange(la + 1.0)[None, :, None], (capacity, la + 1, 1)
            ),
        )
        h.write(
            Region.of((0, capacity - 1), (0, 0), (0, lb)),
            np.broadcast_to(
                -gap * np.arange(lb + 1.0)[None, None, :], (capacity, 1, lb + 1)
            ),
        )
    inner = Region.of((0, capacity - 1), (1, la), (1, lb))
    with zpl.covering(inner):
        with zpl.scan(name="alignment_batch", execute=False) as block:
            best = zpl.maximum(
                (h.p @ (0, -1, -1)) + s,
                zpl.maximum((h.p @ (0, -1, 0)) - gap, (h.p @ (0, 0, -1)) - gap),
            )
            h[...] = zpl.maximum(best, 0.0) if local else best
    return _BatchPlan(compile_scan(block), h, s, capacity, la, lb, local)


def _batch_plan(
    capacity: int, la: int, lb: int, match: float, mismatch: float,
    gap: float, local: bool,
) -> _BatchPlan:
    key = (capacity, la, lb, match, mismatch, gap, local)
    with _BATCH_PLANS_LOCK:
        plan = _BATCH_PLANS.get(key)
        if plan is not None:
            _BATCH_PLANS.move_to_end(key)
            return plan
        plan = _build_batch_plan(capacity, la, lb, match, mismatch, gap, local)
        _BATCH_PLANS[key] = plan
        while len(_BATCH_PLANS) > _BATCH_PLAN_CAP:
            _BATCH_PLANS.popitem(last=False)
        return plan


def _check_pair(a: str, b: str) -> None:
    if not a or not b:
        raise ValueError("sequences must be non-empty")
    try:
        a.encode("ascii")
        b.encode("ascii")
    except UnicodeEncodeError as exc:
        raise ValueError(f"sequences must be ASCII: {exc}") from None


def batch_tables(
    pairs,
    match: float = 2.0,
    mismatch: float = -1.0,
    gap: float = 1.0,
    local: bool = False,
    engine=execute_vectorized,
) -> np.ndarray:
    """Fill the DP tables of same-shape pairs with one stacked compiled plan.

    All pairs must share ``(len(a), len(b))``; the result is a
    ``(len(pairs), la+1, lb+1)`` float array of filled tables, in input
    order.  This is the serving layer's batching hook: one fingerprinted
    plan, one kernel dispatch, ``len(pairs)`` answers.  Groups larger than
    the cached slab capacity are filled in capacity-sized waves.
    """
    if not pairs:
        raise ValueError("batch_tables needs at least one pair")
    for a, b in pairs:
        _check_pair(a, b)
    la, lb = len(pairs[0][0]), len(pairs[0][1])
    for a, b in pairs:
        if (len(a), len(b)) != (la, lb):
            raise ValueError(
                f"batch_tables pairs must share one shape; got "
                f"({len(a)}, {len(b)}) alongside ({la}, {lb})"
            )
    capacity = _batch_capacity(len(pairs), la, lb)
    plan = _batch_plan(capacity, la, lb, match, mismatch, gap, local)
    out = np.empty((len(pairs), la + 1, lb + 1), dtype=float)
    inner = Region.of((0, capacity - 1), (1, la), (1, lb))
    with plan.lock:
        s_view = plan.s.read(inner)  # a view: per-pair writes land in storage
        h_view = plan.h.read(plan.h.region)
        for start in range(0, len(pairs), capacity):
            wave = pairs[start:start + capacity]
            for k, (a, b) in enumerate(wave):
                s_view[k] = _substitution_scores(a, b, match, mismatch)
            plan.execute(engine, len(wave))
            out[start:start + len(wave)] = h_view[: len(wave)]
    return out


def score_many(
    pairs,
    match: float = 2.0,
    mismatch: float = -1.0,
    gap: float = 1.0,
    local: bool = False,
    engine=execute_vectorized,
) -> list[float]:
    """Batch scores for many pairs, one compiled plan per distinct shape.

    Pairs are grouped by ``(len(a), len(b))``; each group runs through
    :func:`batch_tables` (one stacked kernel dispatch per capacity wave) and
    scores come back in input order.  Global (Needleman-Wunsch) scores by
    default; ``local=True`` gives Smith-Waterman local scores.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (a, b) in enumerate(pairs):
        _check_pair(a, b)
        groups.setdefault((len(a), len(b)), []).append(i)
    scores = [0.0] * len(pairs)
    for (la, lb), idxs in groups.items():
        tables = batch_tables(
            [pairs[i] for i in idxs], match, mismatch, gap, local, engine
        )
        for j, i in enumerate(idxs):
            scores[i] = (
                float(tables[j].max()) if local else float(tables[j][la, lb])
            )
    return scores


def _traceback_global(
    h: np.ndarray, a: str, b: str, scores: np.ndarray, gap: float
) -> tuple[str, str]:
    i, j = len(a), len(b)
    out_a: list[str] = []
    out_b: list[str] = []
    while i > 0 or j > 0:
        if i > 0 and j > 0 and np.isclose(h[i, j], h[i - 1, j - 1] + scores[i - 1, j - 1]):
            out_a.append(a[i - 1])
            out_b.append(b[j - 1])
            i, j = i - 1, j - 1
        elif i > 0 and np.isclose(h[i, j], h[i - 1, j] - gap):
            out_a.append(a[i - 1])
            out_b.append("-")
            i -= 1
        else:
            out_a.append("-")
            out_b.append(b[j - 1])
            j -= 1
    return "".join(reversed(out_a)), "".join(reversed(out_b))


def needleman_wunsch(
    a: str,
    b: str,
    match: float = 2.0,
    mismatch: float = -1.0,
    gap: float = 1.0,
    engine=execute_vectorized,
) -> AlignmentResult:
    """Global alignment via the scan-block DP wavefront.

    Delegates the DP fill to the batched plan cache (:func:`batch_tables`
    with a single pair), so repeated calls at one shape reuse one compiled
    plan; traceback stays ordinary sequential code.
    """
    table = batch_tables([(a, b)], match, mismatch, gap, False, engine)[0]
    scores = _substitution_scores(a, b, match, mismatch)
    aligned_a, aligned_b = _traceback_global(table, a, b, scores, gap)
    return AlignmentResult(float(table[len(a), len(b)]), aligned_a, aligned_b)


def smith_waterman_score(
    a: str,
    b: str,
    match: float = 2.0,
    mismatch: float = -1.0,
    gap: float = 1.0,
    engine=execute_vectorized,
) -> float:
    """Local alignment score (max over the clamped DP table).

    Delegates to :func:`score_many` — a single-pair batch — so repeated
    calls at one shape share a cached compiled plan.
    """
    return score_many([(a, b)], match, mismatch, gap, local=True, engine=engine)[0]


def nw_score_oracle(
    a: str, b: str, match: float = 2.0, mismatch: float = -1.0, gap: float = 1.0
) -> float:
    """Plain-python Needleman-Wunsch score for differential testing."""
    la, lb = len(a), len(b)
    h = [[0.0] * (lb + 1) for _ in range(la + 1)]
    for i in range(1, la + 1):
        h[i][0] = -gap * i
    for j in range(1, lb + 1):
        h[0][j] = -gap * j
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            s = match if a[i - 1] == b[j - 1] else mismatch
            h[i][j] = max(h[i - 1][j - 1] + s, h[i - 1][j] - gap, h[i][j - 1] - gap)
    return h[la][lb]
