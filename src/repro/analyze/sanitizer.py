"""Dynamic wavefront race sanitizer for the multiprocess backend.

``REPRO_SANITIZE=1`` turns every real parallel run into a shadow execution:
alongside the data arrays, the parent allocates one shared *shadow segment*
— a stamp plane over the plan's region plus a per-``(rank, block)`` clock
plane — and every worker keeps a **vector clock** over the processor grid.
The invariant checked is exactly the paper's pipelined-schedule correctness
condition: a primed read of cell ``c`` during block ``k`` is legal only
when the block that *writes* ``c`` is happens-before-ordered ahead of the
read via the sync protocol (or by the reader's own program order).

Protocol
--------
The sanitizer is a *wrapping sync* (:class:`SanitizedSync`) around whichever
fabric the run uses (:class:`~repro.parallel.worker.PipeSync` or
:class:`~repro.parallel.worker.EpochSync`): the worker's one block loop is
unchanged, and every fabric — on both process lifecycles — is checked by
the same code.

* Every cell of the plan's region has a static **owner** (the grid rank
  whose local region contains it) and a static **block index** (which of
  the owner's pipeline blocks writes it).  The parent precomputes both
  planes from the :class:`~repro.parallel.plan.RunPlan`'s own
  ``chunks_by_rank`` — the chunk lists the jobs are built from — so the
  sanitizer validates the actual schedule, not a re-derivation of it.
* Releasing block ``k``, the wrapper stamps the block's cells with
  ``k + 1`` in the shared stamp plane, increments its own clock entry,
  writes the clock into row ``(rank, k)`` of the clock plane
  (:meth:`SanitizerState.publish_clocks`), and only then lets the wrapped
  fabric release (token send, or stage + epoch stamp).
* After the wrapped fabric's wait for block ``k`` returns, the wrapper
  joins row ``(producer, k)`` of every producer it waited on into its own
  clock (element-wise max, :meth:`SanitizerState.join_epoch`), which is
  transitive along the chain.  Each row is written exactly once — it is
  never overwritten by later releases, so an early-released (un-advanced)
  clock stays visible to every consumer no matter how the processes
  interleave, keeping the must-trip injections deterministic.
* Before block ``k`` computes, the wrapper takes every primed reference's
  read region (the block shifted by the reference's direction, clipped to
  the plan region) and verifies per cell: either the cell is outside the
  region (boundary values, never written by the block), or the reader
  itself owns it in an earlier-or-current block (program order / in-block
  loop order), or the joined clock proves the owner completed the cell's
  block **and** the stamp is present.

A protocol regression — the deliberate one below, or a real scheduler bug
— makes the clock test fail *deterministically*: an early release carries
a clock that does not yet cover the block, no matter how the processes
interleave afterwards.  Plain stamp-checking would only catch the race
when the timing happened to expose it.

Workers ship their final clock back over the result channel
(``stats["clocks"]``) and the parent cross-checks it against the block
count each rank owned (:func:`repro.parallel.plan.finish`), on the
fork-per-run executor and the pool alike.  ``schedule="taskgraph"`` runs
sanitize through the scheduler's own enqueue evidence and completion
stamps (:mod:`repro.parallel.taskgraph`) instead.

Fault injection
---------------
``REPRO_SANITIZE_INJECT=kind:rank:block`` plants one deterministic
protocol violation (the knob only exists while the sanitizer is on); the
wrapper owns the two static-order kinds:

* ``early-release:RANK:BLOCK`` — the pipe fabric's canonical violation:
  the worker at ``RANK`` sends its token for ``BLOCK`` *before* computing
  it, with its honest, un-incremented clock.
* ``early-publish:RANK:STAMP`` — the epoch-fabric twin: the producer at
  ``RANK`` stages and publishes the epoch stamp for block ``STAMP``
  *before* computing it — every consumer's join then fails the
  happens-before check.
* ``early-fire:RANK:TILE`` — the taskgraph violation: ``TILE`` is enqueued
  onto ``RANK``'s deque before its predecessors complete, with its honest,
  non-zero pending count as enqueue evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.analyze.diagnostics import Because, Diagnostic
from repro.errors import SanitizerError
from repro.parallel.sharedmem import _untracked_attach
from repro.zpl.regions import Region

#: Environment knobs.
SANITIZE_ENV = "REPRO_SANITIZE"
INJECT_ENV = "REPRO_SANITIZE_INJECT"


def parse_inject(value: str | None) -> tuple[str, int, int] | None:
    """Parse ``REPRO_SANITIZE_INJECT`` (``kind:rank:block``), or ``None``.

    ``early-release`` targets the pipelined schedule (publish a token before
    computing the block); ``early-fire`` targets ``schedule="taskgraph"``
    (enqueue a tile before its predecessors complete); ``early-publish``
    targets the multicast fabric (stamp an epoch before computing its
    block).
    """
    if not value:
        return None
    parts = value.split(":")
    kinds = ("early-release", "early-fire", "early-publish")
    if len(parts) != 3 or parts[0] not in kinds:
        raise SanitizerError(
            f"bad {INJECT_ENV}={value!r}; expected 'early-release:RANK:BLOCK',"
            f" 'early-fire:RANK:TILE' or 'early-publish:RANK:STAMP'"
        )
    try:
        return (parts[0], int(parts[1]), int(parts[2]))
    except ValueError:
        raise SanitizerError(
            f"bad {INJECT_ENV}={value!r}; rank and block must be integers"
        ) from None


@dataclass(frozen=True)
class SanitizerSpec:
    """Everything a worker needs to run shadow checks (pickled per worker).

    The owner/block planes are small read-only int arrays over the plan
    region; only the stamp plane lives in shared memory (workers write it).
    """

    stamp_segment: str
    ranges: tuple[tuple[int, int], ...]  # the plan region's bounds
    owner: np.ndarray  # int32, rank owning each cell (-1: never written)
    block_index: np.ndarray  # int32, owner's block writing each cell (-1 id.)
    n_procs: int
    #: Distinct primed reads: (array name, shift vector).
    primed: tuple[tuple[str, tuple[int, ...]], ...]
    inject: tuple[str, int, int] | None = None
    #: Block count of the per-``(rank, block)`` clock plane appended to the
    #: stamp segment; ``0`` allocates no plane.
    epoch_clocks: int = 0


class ShadowPool:
    """Parent-side owner of the shared stamp plane + the static planes."""

    def __init__(self, geometry, inject: tuple[str, int, int] | None = None):
        """Lay the planes out from a chunked ``ScheduleGeometry``."""
        plan, grid = geometry.wavefront, geometry.grid
        epoch_clocks = geometry.n_chunks
        region = plan.region
        base = region.lo
        owner = np.full(region.shape, -1, dtype=np.int32)
        block_index = np.full(region.shape, -1, dtype=np.int32)
        for rank, chunks in geometry.chunks_by_rank.items():
            for k, chunk in enumerate(chunks):
                if chunk.is_empty():
                    continue
                sl = chunk.to_local(base)
                owner[sl] = rank
                block_index[sl] = k
        stamps = np.zeros(region.shape, dtype=np.int64)
        # The per-(rank, block) clock plane: row (p, k) receives p's clock
        # exactly once, when p releases block k.
        plane_bytes = 8 * grid.size * epoch_clocks * grid.size
        self._segment = shared_memory.SharedMemory(
            create=True, size=max(1, stamps.nbytes + plane_bytes)
        )
        view = np.ndarray(
            stamps.shape, dtype=stamps.dtype, buffer=self._segment.buf
        )
        view[...] = 0
        if epoch_clocks:
            plane = np.ndarray(
                (grid.size, epoch_clocks, grid.size),
                dtype=np.int64,
                buffer=self._segment.buf,
                offset=stamps.nbytes,
            )
            plane[...] = 0
        primed = sorted(
            {
                (ref.array.name or "<array>", tuple(ref.offset))
                for stmt in plan.compiled.statements
                for ref in stmt.expr.refs()
                if ref.primed
            }
        )
        self.spec = SanitizerSpec(
            stamp_segment=self._segment.name,
            ranges=region.ranges,
            owner=owner,
            block_index=block_index,
            n_procs=grid.size,
            primed=tuple(primed),
            inject=inject,
            epoch_clocks=epoch_clocks,
        )

    def release(self) -> None:
        """Close and unlink the stamp segment (idempotent)."""
        if self._segment is not None:
            try:
                self._segment.close()
                self._segment.unlink()
            except FileNotFoundError:
                pass
            self._segment = None


class SanitizerState:
    """Worker-side shadow state: attached stamp plane + the vector clock."""

    def __init__(self, spec: SanitizerSpec, rank: int):
        self.spec = spec
        self.rank = rank
        self.region = Region(spec.ranges)
        self.base = self.region.lo
        self.clocks = np.zeros(spec.n_procs, dtype=np.int64)
        with _untracked_attach():
            self._segment = shared_memory.SharedMemory(name=spec.stamp_segment)
        self.stamps = np.ndarray(
            self.region.shape, dtype=np.int64, buffer=self._segment.buf
        )
        self.epoch_clocks = None
        if spec.epoch_clocks:
            self.epoch_clocks = np.ndarray(
                (spec.n_procs, spec.epoch_clocks, spec.n_procs),
                dtype=np.int64,
                buffer=self._segment.buf,
                offset=self.stamps.nbytes,
            )
        #: Checks run / cells verified, for the obs counters.
        self.checks = 0
        self.cells = 0

    # -- the protocol hooks --------------------------------------------------
    def publish_clocks(self, k: int) -> None:
        """Write our clock into clock row ``(rank, k)``, ahead of the
        fabric's own release of block ``k``.  Each row is written exactly
        once (block ``k`` releases once), so an early-released, un-advanced
        clock can never be papered over by a later release."""
        self.epoch_clocks[self.rank, k, :] = self.clocks

    def join_epoch(self, producer: int, k: int) -> None:
        """Join the clock ``producer`` published with its release of block
        ``k`` (element-wise max), after the fabric's wait returned."""
        np.maximum(
            self.clocks, self.epoch_clocks[producer, k], out=self.clocks
        )

    def check(self, chunk: Region, k: int) -> None:
        """Verify every primed read of block ``k`` is happens-before ordered.

        Raises :class:`~repro.errors.SanitizerError` (diagnostic ``E100``
        attached) on the first violating read region.
        """
        if chunk.is_empty():
            return
        for name, offset in self.spec.primed:
            read = chunk.shift(offset).intersect(self.region)
            if read.is_empty():
                continue
            sl = read.to_local(self.base)
            owner = self.spec.owner[sl]
            block = self.spec.block_index[sl]
            stamp = self.stamps[sl]
            outside = block < 0
            mine = (owner == self.rank) & (block <= k)
            known = np.where(outside, 0, owner)
            ordered = (self.clocks[known] > block) & (stamp > block)
            violation = ~(outside | mine | ordered)
            self.checks += 1
            self.cells += int(violation.size)
            if not violation.any():
                continue
            local = np.argwhere(violation)[0]
            cell = tuple(int(c) + lo for c, lo in zip(local, read.lo))
            cell_owner = int(owner[tuple(local)])
            cell_block = int(block[tuple(local)])
            raise self._violation(
                name, offset, k, cell, cell_owner, cell_block,
                int(stamp[tuple(local)]),
            )

    def complete(self, chunk: Region, k: int) -> None:
        """Record block ``k`` computed: stamp its cells, advance the clock."""
        if not chunk.is_empty():
            self.stamps[chunk.to_local(self.base)] = k + 1
        self.clocks[self.rank] = k + 1

    def detach(self) -> None:
        """Drop the stamp view and close the segment handle."""
        self.stamps = None
        self.epoch_clocks = None
        try:
            self._segment.close()
        except BufferError:
            pass

    # -- reporting -----------------------------------------------------------
    def _violation(
        self,
        array: str,
        offset: tuple[int, ...],
        k: int,
        cell: tuple[int, ...],
        owner: int,
        block: int,
        stamp: int,
    ) -> SanitizerError:
        message = (
            f"wavefront race: processor {self.rank} reads {array}'@{offset} "
            f"at cell {cell} during block {k}, but the owning write "
            f"(processor {owner}, block {block}) is not ordered before it"
        )
        diagnostic = Diagnostic(
            "E100",
            message,
            because=(
                Because(
                    "token",
                    f"reader's joined vector clock knows {int(self.clocks[owner])} "
                    f"completed block(s) of processor {owner}; the read needs "
                    f"{block + 1}",
                ),
                Because(
                    "note",
                    f"shadow stamp at {cell} is {stamp} (0 = never written; "
                    f"the owning block would stamp {block + 1})",
                ),
                Because(
                    "note",
                    "a block released before it completed (or a mis-derived "
                    "schedule) produces exactly this state",
                ),
            ),
            hint="inspect the pipelined schedule: a block may be released only "
            "after its stores are complete",
            data={
                "reader": self.rank,
                "block": k,
                "array": array,
                "offset": list(offset),
                "cell": list(cell),
                "owner": owner,
                "owner_block": block,
                "clock": int(self.clocks[owner]),
                "stamp": stamp,
            },
        )
        error = SanitizerError(message)
        error.diagnostic = diagnostic
        return error


class SanitizedSync:
    """A wait/release sync wrapped in the sanitizer's clock protocol.

    Same ``wait``/``release`` surface as the fabric it wraps, so the
    worker's block loop runs it unchanged: a wait additionally joins the
    producers' clock rows and happens-before-checks the block about to
    run; a release first stamps the block complete and publishes the
    advanced clock.  The injected faults live here — the stock fabrics
    stay untouched: on the matching ``(rank, block)`` the wrapped release
    happens at the end of the *wait*, before the block has computed, with
    the honest, un-advanced clock, so every consumer's check must trip.
    """

    def __init__(self, inner, state: SanitizerState, chunks):
        self._inner, self._state, self._chunks = inner, state, chunks
        self.releases = inner.releases
        inject = state.spec.inject
        #: The block this rank releases early, if the injection targets it.
        self._early = (
            inject[2]
            if inject is not None
            and inject[0] == inner.inject_kind
            and inject[1] == state.rank
            else None
        )

    def wait(self, k: int) -> int:
        got = self._inner.wait(k)
        state = self._state
        for producer in self._inner.producers:
            state.join_epoch(producer, k)
        state.check(self._chunks[k], k)
        if k == self._early:
            self._release(k, self._chunks[k])
        return got

    def release(self, k: int, chunk: Region) -> None:
        self._state.complete(chunk, k)
        if k != self._early:
            self._release(k, chunk)

    def _release(self, k: int, chunk: Region) -> None:
        self._state.publish_clocks(k)
        self._inner.release(k, chunk)

    def stats(self) -> dict:
        return {**self._inner.stats(), "clocks": self._state.clocks.tolist()}
