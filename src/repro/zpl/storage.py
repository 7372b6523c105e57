"""Born-shared array storage: every array's memory is a mappable file.

:func:`allocate` is the only allocator of array storage in the library.  It
returns a ``MAP_SHARED`` mapping of an anonymous ``memfd_create`` file (an
unlinked temporary file where that is missing), so a forked process
inherits the very pages, and any process handed the descriptor maps them
with :func:`attach`: a worker's writes land in the caller's array with no
copy in or out.  The mapping owns its descriptor and closes it when the
last view dies, so a live array costs two descriptors and a dead one none.
"""

from __future__ import annotations

import errno
import math
import mmap
import os
import tempfile

import numpy as np

from repro.errors import ArrayError


class _Mapping(mmap.mmap):
    __slots__ = ("fd",)

    def __del__(self, _close=os.close):
        fd = getattr(self, "fd", None)  # a failed mmap() dies without one
        if fd is not None:
            _close(fd)


def _map(fd: int, offset: int, shape: tuple[int, ...], dtype) -> np.ndarray:
    mapping = _Mapping(fd, offset + dtype.itemsize * math.prod(shape))
    mapping.fd = fd
    return np.ndarray(shape, dtype=dtype, buffer=mapping, offset=offset)


def _new_storage(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    try:
        fd = os.memfd_create("repro-zarray")
    except (AttributeError, OSError):
        with tempfile.TemporaryFile() as spare:
            fd = os.dup(spare.fileno())
    # Mappings start on a page, so arrays used together would put the same
    # index at the same low address bits (4 KiB aliasing, ~20 % on Tomcatv's
    # sweep on x86-64).  Start each one some cache lines further in.
    offset = fd % 64 * 64
    try:
        os.ftruncate(fd, offset + dtype.itemsize * math.prod(shape))
        return _map(fd, offset, shape, dtype)
    except BaseException:
        os.close(fd)
        raise


def _lift_fd_limit() -> bool:
    """Raise the soft descriptor limit to the hard one (a common soft limit
    of 1024 would cap a process at about 500 arrays); False if it is."""
    import resource

    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    target = max(soft, 1 << 16) if hard == resource.RLIM_INFINITY else hard
    if soft >= target:
        return False
    resource.setrlimit(resource.RLIMIT_NOFILE, (target, hard))
    return True


def allocate(shape: tuple[int, ...], dtype, fill: float = 0.0) -> np.ndarray:
    """New storage of ``shape``, every element ``fill``."""
    dtype = np.dtype(dtype)
    try:
        data = _new_storage(shape, dtype)
    except OSError as exc:
        if exc.errno != errno.EMFILE or not _lift_fd_limit():
            raise
        data = _new_storage(shape, dtype)
    if fill != 0 or math.copysign(1.0, fill) < 0:  # a fresh file reads +0.0
        data[...] = fill
    return data


def attach(fd: int, offset: int, shape: tuple[int, ...], dtype) -> np.ndarray:
    """Map storage another process allocated (:func:`handle` gave ``fd`` and
    ``offset``); the result owns ``fd`` (on failure, the caller still does)."""
    dtype = np.dtype(dtype)
    size = os.fstat(fd).st_size
    if size != offset + dtype.itemsize * math.prod(shape):
        raise ArrayError(
            f"storage file holds {size} bytes, not {shape} {dtype} at {offset}"
        )
    return _map(fd, offset, shape, dtype)


def handle(data: np.ndarray) -> tuple[int, int] | None:
    """``(descriptor, byte offset)`` behind born-shared storage, ``None`` for
    any other array."""
    base = data.base
    if not isinstance(base, _Mapping):
        return None
    return base.fd, len(base) - data.nbytes
