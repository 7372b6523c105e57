"""Processor grids: logical meshes of simulated processors."""

from __future__ import annotations

from typing import Iterator

from repro.errors import MachineError
from repro.util.validation import check_tuple_of_int


class ProcessorGrid:
    """A rank-g mesh of processors, e.g. ``ProcessorGrid((2, 2))``.

    Processors are identified by integer *ranks* in row-major order or by
    coordinate tuples; the mapping matches how regions are split across the
    grid by :class:`repro.compiler.distribution.BlockMap`.
    """

    def __init__(self, dims: tuple[int, ...]):
        self.dims = check_tuple_of_int(dims, "dims")
        if not self.dims:
            raise MachineError("a processor grid needs at least one dimension")
        for extent in self.dims:
            if extent < 1:
                raise MachineError(f"grid extent must be >= 1, got {extent}")

    @property
    def size(self) -> int:
        """Total number of processors."""
        total = 1
        for extent in self.dims:
            total *= extent
        return total

    @property
    def rank(self) -> int:
        """Number of mesh dimensions."""
        return len(self.dims)

    def coords(self, proc: int) -> tuple[int, ...]:
        """Mesh coordinates of processor ``proc`` (row-major)."""
        if not 0 <= proc < self.size:
            raise MachineError(f"processor {proc} out of range (size {self.size})")
        out = []
        for extent in reversed(self.dims):
            out.append(proc % extent)
            proc //= extent
        return tuple(reversed(out))

    def proc(self, coords: tuple[int, ...]) -> int:
        """Rank of the processor at ``coords``."""
        if len(coords) != self.rank:
            raise MachineError(
                f"coords {coords} have rank {len(coords)}, grid has {self.rank}"
            )
        rank = 0
        for c, extent in zip(coords, self.dims):
            if not 0 <= c < extent:
                raise MachineError(f"coordinate {c} out of range 0..{extent - 1}")
            rank = rank * extent + c
        return rank

    def neighbor(self, proc: int, dim: int, delta: int) -> int | None:
        """Rank of the neighbour ``delta`` steps along mesh dim, or None."""
        coords = list(self.coords(proc))
        coords[dim] += delta
        if not 0 <= coords[dim] < self.dims[dim]:
            return None
        return self.proc(tuple(coords))

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.size))

    def __repr__(self) -> str:
        return f"ProcessorGrid{self.dims}"
