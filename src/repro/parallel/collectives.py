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

On top of the epochs sits **double-buffered boundary staging**
(``REPRO_DOUBLE_BUFFER``): each producer owns a two-slot boundary segment
(:class:`repro.parallel.sharedmem.BoundaryPool`) and copies block ``k``'s
halo rows into slot ``k % 2`` *before* stamping, while its consumers may
still be reading block ``k - 1`` out of the other slot.  The epoch flip is
the only synchronisation: overwriting a slot is gated on a per-consumer
credit stamp (the last reader of block ``k - 2`` releases the slot), so
the front buffer stays stable until every consumer is done with it.  On a
shared-memory host the copy-back writes values bit-identical to what the
producer already stored globally — the staging traffic is the transfer a
future distributed backend needs, measured here under the same α+β model.

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
from repro.compiler.schedule import WavefrontPlan, shift_depths
from repro.compiler.taskdag import _projected_vectors
from repro.errors import DistributionError, MachineError
from repro.parallel.sharedmem import BoundaryPool, _untracked_attach
from repro.zpl.regions import Region

#: Fabric knob: ``auto`` (tile fan-out >= 2 selects multicast), ``1`` (always
#: for pipelined schedules), ``0`` (never — point-to-point pipes only).
MULTICAST_ENV = "REPRO_MULTICAST"

#: Staging knob: double-buffered boundary segments on multicast runs
#: (default on; ``0`` publishes epochs without staging copies).
DOUBLE_BUFFER_ENV = "REPRO_DOUBLE_BUFFER"

#: Slices for semaphore waits: the recovery bound for a missed wakeup.
WAIT_SLICE = 0.05

#: Spin bound before parking on the semaphore: pure memory reads for this
#: long first, because with spare cores the awaited stamp is usually
#: microseconds away and a kernel sleep would put a whole scheduler quantum
#: on the critical path of every block.  Spinning only pays when the ranks
#: are not time-sliced onto the waited-on rank's core, so the channel
#: disables it (parks immediately) when the host has no spare cores.
CREDIT_SLICE = 0.0005


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


def resolve_double_buffer(double_buffer: bool | None) -> bool:
    """``None`` honours ``REPRO_DOUBLE_BUFFER`` (default on)."""
    if double_buffer is None:
        return os.environ.get(DOUBLE_BUFFER_ENV, "") not in ("0", "off")
    return bool(double_buffer)


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
# Boundary staging layout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryLayout:
    """Where each written array's halo rows live inside a staging slot.

    Arrays are identified by index into :func:`collect_arrays` order — the
    one enumeration both parent and workers derive from the same pickled
    structure, so the indices agree by construction.
    """

    #: ``(array index, shift depth along the wave dimension)`` per staged
    #: array, in :func:`collect_arrays` order.
    arrays: tuple[tuple[int, int], ...]
    #: Element offset of each array's area inside a slot.
    offsets: tuple[int, ...]
    #: Slot capacity in elements (two slots per producer).
    slot_elems: int


def boundary_layout(
    compiled: CompiledScan, plan: WavefrontPlan
) -> BoundaryLayout | None:
    """The staging layout for ``plan``, or ``None`` when nothing flows.

    The same accounting as the plan's ``boundary_rows``
    (:func:`~repro.compiler.schedule.shift_depths`): for each written
    array, the deepest wave-dimension shift any reference makes is the
    number of halo rows consumers need.
    """
    from repro.parallel.sharedmem import collect_arrays

    w = plan.wavefront_dim
    index_of = {id(a): i for i, a in enumerate(collect_arrays(compiled))}
    depth_by_index = {
        index_of[key]: max(depth)
        for key, depth in shift_depths(compiled, w)[0].items()
    }
    if not depth_by_index:
        return None
    region = plan.region
    # Capacity per halo row: the region's full cross-section off the wave
    # dimension (an upper bound on any block's staged row).
    unit = max(1, region.size // max(1, region.extent(w)))
    entries = sorted(depth_by_index.items())
    offsets: list[int] = []
    cursor = 0
    for _idx, depth in entries:
        offsets.append(cursor)
        cursor += depth * unit
    return BoundaryLayout(
        arrays=tuple(entries), offsets=tuple(offsets), slot_elems=cursor
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
    wave_dim: int
    wave_ascending: bool
    #: Per rank: its local wave-dimension row range, or ``None`` when the
    #: rank owns no rows (consumers derive producers' staged regions here).
    rows_by_rank: tuple[tuple[int, int] | None, ...]
    #: Staging segment + layout; ``None`` disables double buffering.
    boundary_seg: str | None = None
    layout: BoundaryLayout | None = None
    #: The plan's chunk dimension.  When set, successive blocks differ only
    #: along this axis, so the channel compiles the staging geometry to
    #: direct numpy views once and reslices a single axis per block.
    chunk_dim: int | None = None


def _epoch_words(n_ranks: int) -> int:
    # epochs | parked | consumed matrix (row per producer).
    return 2 * n_ranks + n_ranks * n_ranks


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

    def consumed(self) -> np.ndarray:
        """Parent-side view of the credit matrix (producer-major)."""
        n = self.n_ranks
        return self._words[2 * n :].reshape(n, n)

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

    The primitive of the tentpole: :meth:`publish` is the single-stamp
    multicast release, :meth:`wait_block` the consumer side, and
    :meth:`stage`/:meth:`absorb` the double-buffered boundary transfer.
    Counters (``releases``/``flips``/``overlap_s``/``wakeups``) accumulate
    for the worker's stats flush.
    """

    def __init__(
        self,
        spec: MulticastSpec,
        sems,
        rank: int,
        arrays=None,
        attach_cache: dict | None = None,
    ):
        self.spec = spec
        self.rank = rank
        self.sems = sems
        n = spec.n_ranks
        self._n = n
        self._own_segments = attach_cache is None
        self._epoch_mem = attach_segment(spec.epoch_seg, attach_cache)
        # Flat int64 view of epochs | parked | consumed.  A memoryview
        # element access is ~10x cheaper than a numpy scalar index, and the
        # fabric words are touched several times per pipeline block — this
        # is the fabric's α, so it runs on raw buffer words.
        self._words = self._epoch_mem.buf.cast("q")
        self.producers = spec.groups.producers[rank]
        self.consumers = spec.groups.consumers[rank]
        #: Hot-path index tables: this rank's parked flag, its consumers'
        #: credit cells (consumed[rank][r]) and parked flags.
        self._park_idx = n + rank
        self._credit_idx = [2 * n + rank * n + r for r in self.consumers]
        self._consumer_park = [(r, n + r) for r in self.consumers]
        self._slots = None
        self._staged: list[tuple] = []
        if (
            spec.boundary_seg is not None
            and spec.layout is not None
            and arrays is not None
        ):
            self._bound_mem = attach_segment(spec.boundary_seg, attach_cache)
            per_rank = BoundaryPool.N_SLOTS * spec.layout.slot_elems
            self._slots = np.ndarray(
                (n, BoundaryPool.N_SLOTS, spec.layout.slot_elems),
                dtype=np.float64,
                buffer=self._bound_mem.buf,
            )
            self._staged = [
                (idx, depth, off, arrays[idx])
                for (idx, depth), off in zip(
                    spec.layout.arrays, spec.layout.offsets
                )
            ]
        else:
            self._bound_mem = None
        #: producer -> (fixed ranges, [(data, slices, axis base, offset)]):
        #: the staging geometry compiled to raw numpy views (hot path).
        self._view_plans: dict = {}
        #: (producer, chunk ranges, slot parity) -> [(array view, slot
        #: view)]: fully-materialised copy pairs, so a repeat visit of a
        #: block is one dict hit and one ``copyto`` per staged array.
        self._pair_cache: dict = {}
        #: Pre-park spin budget: only with cores to spare (see CREDIT_SLICE).
        self._spin_s = (
            CREDIT_SLICE if (os.cpu_count() or 1) > spec.n_ranks else 0.0
        )
        # Stats the worker loop flushes home.
        self.releases = 0
        self.flips = 0
        self.wakeups = 0
        self.overlap_s = 0.0

    # -- staging geometry ---------------------------------------------------
    @property
    def staging(self) -> bool:
        return self._slots is not None

    def _tail_rows(self, producer: int, depth: int) -> tuple[int, int] | None:
        """The last ``depth`` wave-rows of ``producer``'s slab, in traversal
        direction (what its consumers read)."""
        rows = self.spec.rows_by_rank[producer]
        if rows is None:
            return None
        lo, hi = rows
        depth = min(depth, hi - lo + 1)
        if self.spec.wave_ascending:
            return (hi - depth + 1, hi)
        return (lo, lo + depth - 1)

    def _stage_region(
        self, chunk: Region, rows: tuple[int, int]
    ) -> Region:
        ranges = list(chunk.ranges)
        ranges[self.spec.wave_dim] = rows
        return Region(ranges)

    def _halo_views(self, producer: int, chunk: Region) -> list[tuple]:
        """Numpy views of ``producer``'s staged halo under ``chunk``.

        Successive blocks of one run differ only along the chunk dimension,
        so the Region arithmetic (bounds checks, local-coordinate mapping)
        runs once per run; every later block reslices that single axis from
        two integers.  This is what keeps the double-buffer copies off the
        α budget the fabric is trying to save.  Specs without a chunk
        dimension (hand-built, in probes and tests) take the uncached
        Region path every call.
        """
        cd = self.spec.chunk_dim
        ranges = chunk.ranges
        fixed = None if cd is None else ranges[:cd] + ranges[cd + 1 :]
        plan = self._view_plans.get(producer)
        if plan is None or plan[0] != fixed:
            entries = []
            for _idx, depth, off, array in self._staged:
                rows = self._tail_rows(producer, depth)
                if rows is None:
                    continue
                region = self._stage_region(chunk, rows)
                slices = list(array._slices(region))
                base = 0 if cd is None else array._storage_region.lo[cd]
                entries.append((array._data, slices, base, off))
            plan = (fixed, entries)
            if cd is not None:
                self._view_plans[producer] = plan
        if cd is None:
            return [(data[tuple(sl)], off) for data, sl, _base, off in plan[1]]
        lo, hi = ranges[cd]
        views = []
        for data, slices, base, off in plan[1]:
            slices[cd] = slice(lo - base, hi + 1 - base)
            views.append((data[tuple(slices)], off))
        return views

    def _copy_pairs(self, producer: int, chunk: Region, parity: int) -> list:
        """``(array view, slot view)`` pairs for one staged block.

        The first visit of a ``(producer, chunk, parity)`` block builds the
        views through :meth:`_halo_views`; repeat visits — every run after
        the first on a pooled channel — are a dict hit and a ``copyto`` per
        array.  Keyed on the full chunk ranges, so a plan change can never
        serve stale views.
        """
        key = (producer, chunk.ranges, parity)
        pairs = self._pair_cache.get(key)
        if pairs is None:
            slot = self._slots[producer][parity]
            pairs = []
            for view, off in self._halo_views(producer, chunk):
                n = view.size
                if n:
                    pairs.append(
                        (view, slot[off : off + n].reshape(view.shape))
                    )
            if self.spec.chunk_dim is not None:
                self._pair_cache[key] = pairs
        return pairs

    # -- producer side ------------------------------------------------------
    def wait_credit(self, k: int, timeout: float) -> float:
        """Block until slot ``k % 2`` is reusable: every consumer has
        released block ``k - 2`` (credited ``k - 1``).  Returns the seconds
        spent waiting (producer-side backpressure).

        The slow path is the same parked-flag handshake as
        :meth:`wait_for`, in the opposite direction: the producer parks
        itself and :meth:`absorb`/:meth:`credit` post its semaphore when
        they see the flag.  A brief spin comes first — in a balanced
        pipeline the credit is typically microseconds away, and sleeping
        into the kernel would put a whole scheduler quantum on the
        critical path of every block.
        """
        if k < BoundaryPool.N_SLOTS or not self.consumers:
            return 0.0
        need = k - 1
        words = self._words
        credit_idx = self._credit_idx
        if all(words[i] >= need for i in credit_idx):
            return 0.0
        t0 = time.perf_counter()
        deadline = t0 + timeout
        spin_until = t0 + self._spin_s
        park_idx = self._park_idx
        sem = self.sems[self.rank]
        while not all(words[i] >= need for i in credit_idx):
            if time.perf_counter() < spin_until:
                continue
            words[park_idx] = 1
            if all(words[i] >= need for i in credit_idx):
                words[park_idx] = 0
                break
            if sem.acquire(timeout=WAIT_SLICE):
                self.wakeups += 1
            elif time.perf_counter() > deadline:
                words[park_idx] = 0
                laggards = [
                    r
                    for r, i in zip(self.consumers, credit_idx)
                    if words[i] < need
                ]
                raise MachineError(
                    f"timed out after {timeout:.2f}s waiting for consumer "
                    f"rank(s) {laggards} to release boundary slot for "
                    f"block {k} (rank {self.rank})"
                )
        words[park_idx] = 0
        return time.perf_counter() - t0

    def stage(self, k: int, chunk: Region, timeout: float) -> float:
        """Copy block ``k``'s halo rows into the back buffer (slot
        ``k % 2``) while consumers may still read ``k - 1``'s front buffer.
        Returns the credit-wait seconds (the rest of the copy overlaps)."""
        if not self.staging or not self.consumers or chunk.is_empty():
            return 0.0
        waited = self.wait_credit(k, timeout)
        words = self._words
        # "Overlap": staging k while some consumer still holds k-1's front
        # buffer — the copy the serial fabric would keep on the critical path.
        front_live = k >= 1 and any(words[i] < k for i in self._credit_idx)
        t0 = time.perf_counter()
        parity = k % BoundaryPool.N_SLOTS
        for view, slot_view in self._copy_pairs(self.rank, chunk, parity):
            np.copyto(slot_view, view)
        self.flips += 1
        if front_live:
            self.overlap_s += time.perf_counter() - t0
        return waited

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

    def absorb(self, k: int, chunk: Region) -> None:
        """Copy every producer's front buffer for block ``k`` back into the
        global coordinates it describes, then credit the slot.

        The values are bit-identical to what the producer already stored in
        shared memory, so concurrent absorbs by sibling consumers are
        benign; the credit is what lets the producer flip the buffer.
        """
        if not self.staging:
            return
        words = self._words
        n_ranks = self._n
        empty = chunk.is_empty()
        parity = k % BoundaryPool.N_SLOTS
        for producer in self.producers:
            if not empty:
                for view, slot_view in self._copy_pairs(
                    producer, chunk, parity
                ):
                    np.copyto(view, slot_view)
            words[2 * n_ranks + producer * n_ranks + self.rank] = k + 1
            if words[n_ranks + producer]:
                self.sems[producer].release()

    def absorb_through(self, k: int, start: int, chunks) -> int:
        """Absorb blocks ``start .. k`` plus every further block already
        published by all producers.  Returns the next unabsorbed index.

        The eager tail is what keeps the two-slot window off the critical
        path: copying a published halo out of its slot immediately (instead
        of when the consumer's compute catches up) returns the credit while
        the producer still has runway, so backpressure parks only when the
        consumer is genuinely behind on copies, not on compute.  Absorbing
        ahead is safe — published halo values are final, and the absorbed
        rows belong to the producer's slab, which this rank never writes.
        """
        hi = k + 1
        words = self._words
        if self.producers:
            epoch = min(int(words[p]) for p in self.producers)
            if epoch > hi:
                hi = min(epoch, len(chunks))
        if hi <= start:
            return start
        for j in range(start, hi):
            self.absorb(j, chunks[j])
        return hi

    def credit(self, producer: int, k: int) -> None:
        """Release ``producer``'s slot for block ``k`` without a copy-back
        (probes and tests that read the slot directly)."""
        n = self._n
        self._words[2 * n + producer * n + self.rank] = k + 1
        if self._words[n + producer]:
            self.sems[producer].release()

    # -- lifecycle ----------------------------------------------------------
    def drain(self) -> None:
        """Swallow stale semaphore posts left by an earlier run."""
        while self.sems[self.rank].acquire(False):
            pass

    def reset_stats(self) -> None:
        """Zero the per-run counters (a pooled channel outlives its jobs)."""
        self.releases = self.flips = self.wakeups = 0
        self.overlap_s = 0.0

    def stats(self) -> dict:
        return {
            "mcast_releases": self.releases,
            "buffer_flips": self.flips,
            "overlap_seconds": self.overlap_s,
            "mcast_wakeups": self.wakeups,
        }

    def detach(self) -> None:
        """Close this endpoint's attachments (owned-segment mode only)."""
        if self._words is not None:
            self._words.release()
        self._words = self._slots = None
        self._view_plans.clear()
        self._pair_cache.clear()
        if self._own_segments:
            for seg in (self._epoch_mem, self._bound_mem):
                if seg is not None:
                    try:
                        seg.close()
                    except BufferError:
                        pass
