"""Array storage as the worker processes see it.

Every :class:`~repro.zpl.arrays.ZArray` is born shared
(:mod:`repro.zpl.storage`), so nothing is copied in before a run or back
after it.  A forked worker inherits the mappings and runs the caller's own
``CompiledScan``.  A pooled worker, forked before the block existed, gets
it once as a value-free blob (:func:`dump_block`: each array's storage is a
persistent id) plus one descriptor per array (:func:`send_fds`), and
:func:`load_block` maps each descriptor where the values would have been.

Because storage is global, a shifted reference that crosses a processor
boundary reads the neighbour's elements directly: messages between workers
carry only synchronisation (the pipeline tokens of
:mod:`repro.parallel.channels`), never data.  This is the natural
shared-memory realisation of the paper's message-passing schedules — the
α cost survives as per-token latency, the β cost as memory traffic.  Only
the scheduler, shadow and epoch-fabric state live in named
:mod:`multiprocessing.shared_memory` segments.
"""

from __future__ import annotations

import io
import os
import pickle
import socket
from contextlib import contextmanager
from multiprocessing import resource_tracker
from multiprocessing.connection import Connection
from multiprocessing.reduction import recvfds, sendfds

import numpy as np

from repro.compiler.lowering import CompiledScan
from repro.errors import ArrayError, MachineError
from repro.zpl.arrays import ZArray
from repro.zpl.storage import attach, handle


def collect_arrays(compiled: CompiledScan) -> tuple[ZArray, ...]:
    """Every array the lowered block touches, in deterministic order.

    Order: hoisted temporaries (already evaluated by the parent), then for
    each statement its target, its mask, and its referenced arrays, each in
    first-occurrence order.  Contracted arrays are included.
    """
    seen: list[ZArray] = []

    def add(array: ZArray) -> None:
        if not any(array is a for a in seen):
            seen.append(array)

    for temp in compiled.hoisted:
        add(temp.temp)
    for stmt in compiled.statements:
        add(stmt.target)
        if stmt.mask is not None:
            add(stmt.mask)
        for ref in stmt.expr.refs():
            add(ref.array)
    return tuple(seen)


@contextmanager
def _untracked_attach():
    """Keep segment *attaches* out of the resource tracker.

    The parent owns every segment's lifetime (it unlinks them), but
    Python ≤3.12 registers attachers with the resource tracker too: the
    tracker then either warns about "leaked" segments the parent already
    cleaned up, or — if each attacher unregisters — raises KeyError when
    several workers attached the same segment.  Suppressing the spurious
    registration at the source avoids both.  (Python 3.13 exposes this as
    ``SharedMemory(..., track=False)``.)
    """
    original = resource_tracker.register

    def register(name, rtype):
        if rtype != "shared_memory":
            original(name, rtype)

    resource_tracker.register = register
    try:
        yield
    finally:
        resource_tracker.register = original


class _BlockPickler(pickle.Pickler):
    """Pickles a block with every array's storage as a persistent id."""

    def __init__(self, file):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.arrays: list[ZArray] = []  # in persistent-id order
        self._ids: dict[int, tuple] = {}

    def persistent_id(self, obj):
        if isinstance(obj, ZArray) and id(obj._data) not in self._ids:
            shared = handle(obj._data)
            if shared is None:
                raise MachineError(
                    f"array {obj.name or '<anonymous>'!r} has private storage "
                    "(its _data was rebound); workers can only share storage "
                    "a ZArray allocated"
                )
            self._ids[id(obj._data)] = (
                len(self.arrays), shared[1], obj._data.shape, obj.dtype
            )
            self.arrays.append(obj)
        elif type(obj) is np.ndarray:
            return self._ids.get(id(obj))
        return None


def dump_block(compiled: CompiledScan) -> tuple[bytes, tuple[ZArray, ...]]:
    """``compiled`` as a value-free blob, and the arrays whose storage it
    names in persistent-id order: ship each one's descriptor, in order.
    An array with private storage is refused by name."""
    buf = io.BytesIO()
    pickler = _BlockPickler(buf)
    pickler.dump(compiled)
    return buf.getvalue(), tuple(pickler.arrays)


class _BlockUnpickler(pickle.Unpickler):
    def __init__(self, file, fds: list[int]):
        super().__init__(file)
        self.fds, self.mapped = fds, {}

    def persistent_load(self, pid):
        index, offset, shape, dtype = pid
        if index not in self.mapped:
            self.mapped[index] = attach(self.fds[index], offset, shape, dtype)
        return self.mapped[index]


def load_block(blob: bytes, fds: list[int]) -> CompiledScan:
    """The block :func:`dump_block` pickled, its arrays mapped onto ``fds``
    (which it owns from here on); a count or size mismatch is refused."""
    unpickler = _BlockUnpickler(io.BytesIO(blob), fds)
    try:
        compiled = unpickler.load()
    except (IndexError, ArrayError) as exc:
        raise MachineError(f"cannot map the block's arrays: {exc}") from None
    finally:
        for index, fd in enumerate(fds):
            if index not in unpickler.mapped:
                os.close(fd)
    if len(unpickler.mapped) != len(fds):
        raise MachineError(
            f"worker mapped {len(unpickler.mapped)} arrays, parent shipped {len(fds)}"
        )
    return compiled


def send_fds(conn: Connection, fds: list[int]) -> None:
    """Pass ``fds`` over a duplex (socket) connection in one message."""
    with socket.fromfd(conn.fileno(), socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sendfds(sock, fds)


def recv_fds(conn: Connection, count: int) -> list[int]:
    """Receive the ``count`` descriptors :func:`send_fds` passed."""
    with socket.fromfd(conn.fileno(), socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        return recvfds(sock, count)
