"""Parallel arrays: region-allocated numpy storage with boundary "fluff".

A :class:`ZArray` is declared over a region and allocated with extra border
storage (ZPL's *fluff*) so that shifted references such as ``a @ north`` near
the region edge read well-defined boundary values.  Arrays use *global*
indices: element ``(i, j)`` of a ZArray means the same index everywhere,
regardless of how storage happens to be laid out or distributed.

Assignment statements are written with ``[]``-assignment:

* ``a[R] = expr`` — evaluate ``expr`` over region ``R`` with whole-array
  semantics (right-hand side fully evaluated before any element is stored);
* ``a[...] = expr`` — the same, covered by the ambient region established
  with :func:`repro.zpl.program.covering`;
* inside a ``scan()`` block, the statement is *recorded* instead of executed,
  forming the scan block that the compiler turns into a pipelined loop nest.
"""

from __future__ import annotations

import copyreg
from typing import Sequence

import numpy as np

from repro.errors import ArrayError
from repro.zpl.directions import Direction, as_direction
from repro.zpl.expr import Node, Ref, as_node
from repro.zpl.regions import Region
from repro.zpl.storage import allocate, handle

#: Default fluff depth on every side of every dimension.
DEFAULT_FLUFF = 1


class ZArray:
    """A parallel array declared over a region.

    Parameters
    ----------
    region:
        The declared index space of the array.
    name:
        Optional name used in diagnostics and pretty-printing.
    dtype:
        Element dtype (default ``float64``).
    fluff:
        Border depth allocated outside the declared region on each side of
        each dimension, so shifted references near the edge stay in storage.
    fill:
        Initial value of every element, border included.

    Storage is born shared (:mod:`repro.zpl.storage`) and ``_data`` is never
    rebound, so views handed out by :meth:`read` stay valid for the array's
    lifetime and a worker process can map the very memory it writes.
    """

    __slots__ = ("_declared", "_storage_region", "_data", "name", "dtype")

    def __init__(
        self,
        region: Region,
        name: str | None = None,
        dtype: type | np.dtype = np.float64,
        fluff: int = DEFAULT_FLUFF,
        fill: float = 0.0,
    ):
        if region.is_empty():
            raise ArrayError(f"cannot declare an array over empty region {region!r}")
        if fluff < 0:
            raise ArrayError(f"fluff must be >= 0, got {fluff}")
        self._declared = region
        self._storage_region = region.expand(((fluff, fluff),) * region.rank)
        self.dtype = np.dtype(dtype)
        self._data = allocate(self._storage_region.shape, self.dtype, fill)
        self.name = name

    def __reduce__(self):
        state = (
            self._declared, self._storage_region, self.dtype, self.name, self._data
        )
        return copyreg.__newobj__, (type(self),), state

    def __setstate__(self, state) -> None:
        # Born shared too: adopt storage a worker mapped (a persistent id,
        # :mod:`repro.parallel.sharedmem`), else copy values into new storage.
        self._declared, self._storage_region, self.dtype, self.name, data = state
        if handle(data) is None:
            values, data = data, allocate(data.shape, data.dtype)
            data[...] = values
        self._data = data

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def region(self) -> Region:
        """The declared index space."""
        return self._declared

    @property
    def storage_region(self) -> Region:
        """The allocated index space (declared region plus fluff)."""
        return self._storage_region

    @property
    def rank(self) -> int:
        """Number of dimensions."""
        return self._declared.rank

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the declared region."""
        return self._declared.shape

    def __repr__(self) -> str:
        label = self.name or "<anonymous>"
        return f"ZArray({label}, {self._declared!r}, dtype={self.dtype})"

    # ------------------------------------------------------------------
    # Storage access
    # ------------------------------------------------------------------
    def _slices(self, region: Region) -> tuple[slice, ...]:
        if not self._storage_region.covers(region):
            raise ArrayError(
                f"region {region!r} is outside the storage of {self!r} "
                f"(storage {self._storage_region!r}); declare more fluff or "
                f"initialise the border first"
            )
        return region.to_local(self._storage_region.lo)

    def read(self, region: Region) -> np.ndarray:
        """A numpy *view* of the array over ``region`` (global indices)."""
        if region.rank != self.rank:
            raise ArrayError(
                f"read region rank {region.rank} != array rank {self.rank}"
            )
        return self._data[self._slices(region)]

    def write(self, region: Region, values: np.ndarray | float) -> None:
        """Store ``values`` over ``region`` (global indices)."""
        if region.rank != self.rank:
            raise ArrayError(
                f"write region rank {region.rank} != array rank {self.rank}"
            )
        self._data[self._slices(region)] = values

    def get(self, index: Sequence[int]) -> float:
        """Read a single element by global index."""
        offset = tuple(i - b for i, b in zip(index, self._storage_region.lo))
        for o, extent in zip(offset, self._data.shape):
            if not 0 <= o < extent:
                raise ArrayError(f"index {tuple(index)} outside storage of {self!r}")
        return self._data[offset]

    def put(self, index: Sequence[int], value: float) -> None:
        """Write a single element by global index."""
        offset = tuple(i - b for i, b in zip(index, self._storage_region.lo))
        for o, extent in zip(offset, self._data.shape):
            if not 0 <= o < extent:
                raise ArrayError(f"index {tuple(index)} outside storage of {self!r}")
        self._data[offset] = value

    def fill(self, value: float) -> None:
        """Set every element (border included) to ``value``."""
        self._data[...] = value

    def to_numpy(self) -> np.ndarray:
        """A copy of the declared region's values."""
        return self.read(self._declared).copy()

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """Numpy interop: ``np.asarray(zarr)`` sees the declared region."""
        values = self.to_numpy()
        return values.astype(dtype) if dtype is not None else values

    def load(self, values: np.ndarray) -> None:
        """Copy ``values`` (shaped like the declared region) into the array."""
        values = np.asarray(values)
        if values.shape != self.shape:
            raise ArrayError(
                f"load shape {values.shape} != declared shape {self.shape}"
            )
        self.write(self._declared, values)

    def set_border(
        self,
        direction: Direction | tuple[int, ...],
        values: np.ndarray | float,
    ) -> None:
        """Initialise the border strip outside the declared region.

        ``direction`` selects the side (ZPL's ``[d of R]``); e.g. ``north``
        writes the row immediately above the declared region.
        """
        self.write(self._declared.border(as_direction(direction, self.rank)), values)

    def copy_like(self, name: str | None = None) -> "ZArray":
        """A new array with the same region/dtype/storage contents."""
        fluff = self._declared.lo[0] - self._storage_region.lo[0]
        clone = ZArray(self._declared, name=name or self.name, dtype=self.dtype, fluff=fluff)
        clone._data[...] = self._data
        return clone

    # ------------------------------------------------------------------
    # Expression building
    # ------------------------------------------------------------------
    @property
    def ref(self) -> Ref:
        """An unshifted, unprimed reference to this array."""
        return Ref(self)

    @property
    def p(self) -> Ref:
        """The prime operator: reference values from previous loop iterations."""
        return Ref(self, primed=True)

    @property
    def primed(self) -> Ref:
        """Alias for :attr:`p`."""
        return self.p

    def at(self, direction: Direction | tuple[int, ...]) -> Ref:
        """Shifted reference, ``a.at(north)`` == ``a @ north``."""
        return Ref(self) @ direction

    def __matmul__(self, direction: object) -> Ref:
        return Ref(self) @ direction

    # Arithmetic delegates to the expression layer.
    def __add__(self, other: object) -> Node:
        return Ref(self) + other

    def __radd__(self, other: object) -> Node:
        return as_node(other) + Ref(self)

    def __sub__(self, other: object) -> Node:
        return Ref(self) - other

    def __rsub__(self, other: object) -> Node:
        return as_node(other) - Ref(self)

    def __mul__(self, other: object) -> Node:
        return Ref(self) * other

    def __rmul__(self, other: object) -> Node:
        return as_node(other) * Ref(self)

    def __truediv__(self, other: object) -> Node:
        return Ref(self) / other

    def __rtruediv__(self, other: object) -> Node:
        return as_node(other) / Ref(self)

    def __pow__(self, other: object) -> Node:
        return Ref(self) ** as_node(other)

    def __neg__(self) -> Node:
        return -Ref(self)

    # Comparisons produce elementwise boolean expressions (for ``where``).
    def __lt__(self, other: object) -> Node:
        return Ref(self) < other

    def __le__(self, other: object) -> Node:
        return Ref(self) <= other

    def __gt__(self, other: object) -> Node:
        return Ref(self) > other

    def __ge__(self, other: object) -> Node:
        return Ref(self) >= other

    # ------------------------------------------------------------------
    # Statement syntax:  a[R] = expr  /  a[...] = expr
    # ------------------------------------------------------------------
    def __getitem__(self, key: object) -> np.ndarray | float:
        if isinstance(key, Region):
            return self.read(key)
        if key is Ellipsis:
            return self.read(self._declared)
        if isinstance(key, tuple) and all(isinstance(k, (int, np.integer)) for k in key):
            return self.get(key)
        raise ArrayError(f"cannot index ZArray with {key!r}")

    def __setitem__(self, key: object, value: object) -> None:
        from repro.zpl.program import statement  # late: avoids import cycle

        if isinstance(key, tuple) and all(isinstance(k, (int, np.integer)) for k in key):
            if isinstance(value, Node):
                raise ArrayError("cannot assign an expression to a single element")
            self.put(key, float(value))  # type: ignore[arg-type]
            return
        if isinstance(key, Region):
            region: Region | None = key
        elif key is Ellipsis:
            region = None  # resolved against the ambient covering region
        else:
            raise ArrayError(f"cannot index ZArray with {key!r}")

        if isinstance(value, (Node, int, float, np.integer, np.floating)):
            statement(self, as_node(value), region)
        elif isinstance(value, np.ndarray):
            self.write(region if region is not None else self._declared, value)
        else:
            raise ArrayError(f"cannot assign {value!r} to a ZArray region")


def zeros(region: Region, name: str | None = None, fluff: int = DEFAULT_FLUFF) -> ZArray:
    """A float array of zeros over ``region``."""
    return ZArray(region, name=name, fluff=fluff, fill=0.0)


def ones(region: Region, name: str | None = None, fluff: int = DEFAULT_FLUFF) -> ZArray:
    """A float array of ones over ``region``."""
    return ZArray(region, name=name, fluff=fluff, fill=1.0)


def full(
    region: Region,
    value: float,
    name: str | None = None,
    fluff: int = DEFAULT_FLUFF,
) -> ZArray:
    """A float array filled with ``value`` over ``region``."""
    return ZArray(region, name=name, fluff=fluff, fill=value)


def from_numpy(
    values: np.ndarray,
    base: int = 1,
    name: str | None = None,
    fluff: int = DEFAULT_FLUFF,
) -> ZArray:
    """Wrap a numpy array as a ZArray whose region starts at ``base``."""
    values = np.asarray(values, dtype=np.float64)
    region = Region.from_shape(values.shape, base=base)
    arr = ZArray(region, name=name, fluff=fluff)
    arr.load(values)
    return arr
