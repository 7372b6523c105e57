"""Multicast collectives: one epoch publish releases a whole fan-out.

The point-to-point fabric (:mod:`repro.parallel.channels`) charges one pipe
round — one α — per producer→consumer edge per pipeline block.  This module
replaces those tokens with a **shared-memory epoch fabric**: every rank owns
one int64 *epoch* slot in a small shared segment, and "my block ``k`` is
computed" becomes a single store of ``k + 1`` into that slot plus one
semaphore post per *parked* consumer.  The stamp is one userspace write no
matter how many consumers it releases, so the per-message α is amortised
across the fan-out — exactly the ``summa_manual`` → ``summa_multicasting``
step of ROADMAP item 3 — and in the steady state (producer running ahead)
a consumer's wait is a plain memory read: zero syscalls, zero pickling.

Fan-out is derived from the same UDV projections the tile DAG
(:mod:`repro.compiler.taskdag`) is built from: a producer tile with a
diagonal dependence ``(1, 1)`` feeds *two* consumer tiles of the next rank
(chunk ``k`` and ``k + 1``), and one epoch stamp releases both.  The
planner selects the fabric automatically when that tile fan-out is ≥ 2
(``REPRO_MULTICAST=auto``, the default); ``1``/``0`` force it on/off.

The fabric moves no data.  Array storage is shared from allocation
(:mod:`repro.zpl.storage`), so once a consumer has seen its producers'
epochs for block ``k`` it reads their halo rows straight from the caller's
arrays, exactly as a pipe consumer does after its token.

Liveness note: the park/stamp handshake is a Dekker-style flag protocol
without fences, so a wakeup can in principle be missed; every semaphore
wait therefore uses short timeout slices and re-checks the epoch word, so
a missed post costs one slice of latency, never a hang.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Mapping, Sequence

import numpy as np

from repro.compiler.lowering import CompiledScan
from repro.compiler.schedule import WavefrontPlan
from repro.compiler.taskdag import _projected_vectors
from repro.errors import DistributionError, MachineError
from repro.parallel.sharedmem import _untracked_attach
from repro.zpl.regions import Region

#: Fabric knob: ``auto`` (tile fan-out >= 2 selects multicast), ``1`` (always
#: for pipelined schedules), ``0`` (never — point-to-point pipes only).
MULTICAST_ENV = "REPRO_MULTICAST"

#: Slices for semaphore waits: the recovery bound for a missed wakeup.
WAIT_SLICE = 0.05

#: Spin bound before parking on the semaphore: pure memory reads for this
#: long first, because with spare cores the awaited stamp is usually
#: microseconds away and a kernel sleep would put a whole scheduler quantum
#: on the critical path of every block.  Spinning only pays when the ranks
#: are not time-sliced onto the waited-on rank's core, so the channel
#: disables it (parks immediately) when the host has no spare cores.
SPIN_SLICE = 0.0005


def resolve_multicast(multicast: bool | str | None) -> str:
    """Normalise the fabric request to ``"on"``/``"off"``/``"auto"``.

    ``None`` honours ``REPRO_MULTICAST`` (default ``auto``); booleans map
    to ``on``/``off``.
    """
    if multicast is None:
        multicast = os.environ.get(MULTICAST_ENV, "") or "auto"
    if multicast in (True, 1, "1", "on"):
        return "on"
    if multicast in (False, 0, "0", "off", ""):
        return "off"
    if multicast == "auto":
        return "auto"
    raise MachineError(
        f"unknown {MULTICAST_ENV} value {multicast!r}; pick 0, 1 or auto"
    )


# ---------------------------------------------------------------------------
# Fan-out derivation (rank-level groups from the tile-DAG projections)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MulticastGroups:
    """Who releases whom: the rank-level producer/consumer relation.

    Derived once per (plan, grid) from the UDV projections; plain data, so
    it rides a pool job pipe unchanged.  ``producers[r]`` is transitively
    reduced — a producer implied by another producer's own waits is
    dropped, so each rank performs the minimum number of epoch reads.
    """

    #: Per rank: the ranks whose epochs it must wait on (reduced).
    producers: tuple[tuple[int, ...], ...]
    #: Per rank: the ranks its stamp releases (inverse of ``producers``).
    consumers: tuple[tuple[int, ...], ...]
    #: Per rank: consumer *tiles* one stamp releases (Σ distinct chunk
    #: offsets per consumer rank) — the amortisation factor f.
    fanout: tuple[int, ...]

    @property
    def max_fanout(self) -> int:
        return max(self.fanout, default=0)


def plan_groups(
    compiled: CompiledScan,
    plan: WavefrontPlan,
    chains: Sequence[Sequence[int]],
    locals_by_rank: Mapping[int, Region] | Sequence[Region],
    n_ranks: int,
) -> MulticastGroups | None:
    """Derive the epoch-fabric groups, or ``None`` when pipes must be used.

    Works per chain (mesh columns are independent: the chunk dimension is
    dependence-free by :func:`~repro.compiler.schedule.place`).
    A consumer's slab needs the ``d`` wave-rows before its first row for
    every projected dependence depth ``d``; the ranks owning those rows are
    its producers.  Returns ``None`` when a projection points against the
    traversal (the tile DAG refuses such blocks too) or when there is no
    chunkable dimension (a single block per rank: nothing to pipeline).
    """
    w, c = plan.wavefront_dim, plan.chunk_dim
    if c is None:
        return None
    try:
        vectors = _projected_vectors(compiled, w, c)
    except DistributionError:
        return None
    sw = 1 if compiled.loops.signs[w] >= 0 else -1
    # Depths (normalised wave components) that cross rank boundaries, with
    # the distinct chunk offsets riding each: the per-edge tile fan-out.
    depths: dict[int, set[int]] = {}
    for vw, vc in vectors:
        d = vw * sw
        if d > 0:
            depths.setdefault(d, set()).add(vc)
    producers: list[set[int]] = [set() for _ in range(n_ranks)]
    tile_edges: dict[tuple[int, int], set[int]] = {}
    for chain in chains:
        spans: dict[int, tuple[int, int]] = {}
        for rank in chain:
            local = locals_by_rank[rank]
            if local.is_empty():
                continue
            lo, hi = local.range(w)
            # Normalise to traversal order: descending waves flip the axis.
            spans[rank] = (lo, hi) if sw > 0 else (-hi, -lo)
        for rank in chain:
            if rank not in spans:
                continue
            start = spans[rank][0]
            for d, offsets in depths.items():
                for src in chain:
                    if src == rank or src not in spans:
                        continue
                    s_lo, s_hi = spans[src]
                    if s_lo <= start - 1 and s_hi >= start - d:
                        producers[rank].add(src)
                        tile_edges.setdefault((src, rank), set()).update(
                            offsets
                        )
    # Transitive reduction: drop a producer already implied by another
    # producer's own (transitive) waits — epoch[q] >= k+1 proves q saw
    # epoch[p] >= k+1 for every p it waits on, at the same block index.
    closure: list[set[int]] = [set() for _ in range(n_ranks)]

    def ancestors(r: int) -> set[int]:
        if not closure[r]:
            for p in producers[r]:
                closure[r].add(p)
                closure[r] |= ancestors(p)
        return closure[r]

    reduced: list[tuple[int, ...]] = []
    for r in range(n_ranks):
        keep = {
            p
            for p in producers[r]
            if not any(p in ancestors(q) for q in producers[r] if q != p)
        }
        reduced.append(tuple(sorted(keep)))
    consumers: list[list[int]] = [[] for _ in range(n_ranks)]
    for r, preds in enumerate(reduced):
        for p in preds:
            consumers[p].append(r)
    fanout = tuple(
        sum(
            max(1, len(tile_edges.get((p, r), ())))
            for r in consumers[p]
        )
        for p in range(n_ranks)
    )
    return MulticastGroups(
        producers=tuple(reduced),
        consumers=tuple(tuple(sorted(cs)) for cs in consumers),
        fanout=fanout,
    )


# ---------------------------------------------------------------------------
# The fabric: parent-side owner + worker-side channel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MulticastSpec:
    """Everything a worker needs to join the epoch fabric (plain data;
    the per-rank semaphores travel separately, by Process-argument or
    fork-time inheritance — they cannot ride a pipe)."""

    epoch_seg: str
    n_ranks: int
    groups: MulticastGroups


def _epoch_words(n_ranks: int) -> int:
    # epochs | parked flags.
    return 2 * n_ranks


class MulticastFabric:
    """Parent-side owner of the epoch segment and the per-rank semaphores.

    Built once per :class:`~repro.parallel.pool.WorkerPool` (before the
    fork: semaphores inherit, they do not pickle) or once per fork-per-run
    execute.  ``reset()`` re-zeroes the epochs between pooled runs —
    submissions serialise, so no worker is mid-flight when it runs.
    """

    def __init__(self, ctx, n_ranks: int):
        self.n_ranks = n_ranks
        self.seg = shared_memory.SharedMemory(
            create=True, size=_epoch_words(n_ranks) * 8
        )
        self._words = np.ndarray(
            (_epoch_words(n_ranks),), dtype=np.int64, buffer=self.seg.buf
        )
        self._words[:] = 0
        self.sems = tuple(ctx.Semaphore(0) for _ in range(n_ranks))

    @property
    def name(self) -> str:
        return self.seg.name

    def reset(self) -> None:
        self._words[:] = 0

    def epochs(self) -> np.ndarray:
        """Parent-side view of the epoch row (tests and probes)."""
        return self._words[: self.n_ranks]

    def release(self) -> None:
        if self._words is None:
            return
        self._words = None
        try:
            self.seg.close()
            self.seg.unlink()
        except FileNotFoundError:
            pass


def attach_segment(name: str, cache: dict | None = None):
    """Attach a shared segment without resource-tracker registration,
    optionally through a worker-lifetime cache keyed by name."""
    if cache is not None and name in cache:
        return cache[name]
    with _untracked_attach():
        seg = shared_memory.SharedMemory(name=name)
    if cache is not None:
        cache[name] = seg
    return seg


class MulticastChannel:
    """One rank's endpoint on the epoch fabric.

    :meth:`publish` is the single-stamp multicast release and
    :meth:`wait_block` the consumer side.  Counters (``releases``/
    ``wakeups``) accumulate for the worker's stats flush.
    """

    def __init__(
        self,
        spec: MulticastSpec,
        sems,
        rank: int,
        attach_cache: dict | None = None,
    ):
        self.rank = rank
        self.sems = sems
        n = spec.n_ranks
        self._own_segment = attach_cache is None
        self._epoch_mem = attach_segment(spec.epoch_seg, attach_cache)
        # Flat int64 view of epochs | parked.  A memoryview element access
        # is ~10x cheaper than a numpy scalar index, and the fabric words
        # are touched several times per pipeline block — this is the
        # fabric's α, so it runs on raw buffer words.
        self._words = self._epoch_mem.buf.cast("q")
        self.producers = spec.groups.producers[rank]
        self.consumers = spec.groups.consumers[rank]
        #: Hot-path index tables: this rank's parked flag and its
        #: consumers' parked flags.
        self._park_idx = n + rank
        self._consumer_park = [(r, n + r) for r in self.consumers]
        #: Pre-park spin budget: only with cores to spare (see SPIN_SLICE).
        self._spin_s = (
            SPIN_SLICE if (os.cpu_count() or 1) > spec.n_ranks else 0.0
        )
        # Stats the worker loop flushes home.
        self.releases = 0
        self.wakeups = 0

    # -- producer side ------------------------------------------------------
    def publish(self, k: int) -> None:
        """The multicast release: one epoch stamp serves every consumer."""
        words = self._words
        words[self.rank] = k + 1
        if self.consumers:
            self.releases += 1
            for r, pidx in self._consumer_park:
                if words[pidx]:
                    self.sems[r].release()

    # -- consumer side ------------------------------------------------------
    def wait_for(self, producer: int, k: int, timeout: float) -> None:
        """Block until ``producer`` has published block ``k``."""
        target = k + 1
        words = self._words
        if words[producer] >= target:
            return
        now = time.perf_counter()
        deadline = now + timeout
        spin_until = now + self._spin_s
        while time.perf_counter() < spin_until:
            if words[producer] >= target:
                return
        sem = self.sems[self.rank]
        park_idx = self._park_idx
        while True:
            words[park_idx] = 1
            if words[producer] >= target:
                words[park_idx] = 0
                return
            if sem.acquire(timeout=WAIT_SLICE):
                self.wakeups += 1
            elif time.perf_counter() > deadline:
                words[park_idx] = 0
                raise MachineError(
                    f"timed out after {timeout:.2f}s waiting for multicast "
                    f"epoch of block {k} from rank {producer} "
                    f"(rank {self.rank} sees epoch "
                    f"{int(words[producer])})"
                )

    def wait_block(self, k: int, timeout: float) -> None:
        for producer in self.producers:
            self.wait_for(producer, k, timeout)

    # -- lifecycle ----------------------------------------------------------
    def drain(self) -> None:
        """Swallow stale semaphore posts left by an earlier run."""
        while self.sems[self.rank].acquire(False):
            pass

    def reset_stats(self) -> None:
        """Zero the per-run counters (a pooled channel outlives its jobs)."""
        self.releases = self.wakeups = 0

    def stats(self) -> dict:
        return {
            "mcast_releases": self.releases,
            "mcast_wakeups": self.wakeups,
        }

    def detach(self) -> None:
        """Close this endpoint's attachment (owned-segment mode only)."""
        if self._words is not None:
            self._words.release()
        self._words = None
        if self._own_segment:
            try:
                self._epoch_mem.close()
            except BufferError:
                pass
