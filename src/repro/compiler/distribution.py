"""Block data distributions: mapping region dimensions onto grid dimensions.

The paper's implementation assumption (Section 3.2, the WYSIWYG model): all
arrays in a scan block are aligned and block distributed, so communication
arises only from shifted references.  A :class:`BlockMap` captures one such
distribution: for each array dimension, either ``None`` (not distributed) or
the index of the grid dimension it is split across.

The final distribution decision is "deferred until application startup time"
(Section 2.2's assumptions) — in this library, until the executor is built.
"""

from __future__ import annotations

from repro.compiler.grid import ProcessorGrid
from repro.errors import DistributionError
from repro.zpl.regions import Region


class BlockMap:
    """A balanced block distribution of a region over a processor grid.

    Parameters
    ----------
    region:
        The global index space being distributed.
    grid:
        The processor mesh.
    dim_map:
        ``dim_map[k]`` is the grid dimension that array dimension ``k`` is
        split across, or ``None`` when dimension ``k`` is not distributed.
        Every grid dimension with extent > 1 must be used exactly once.
    """

    def __init__(
        self,
        region: Region,
        grid: ProcessorGrid,
        dim_map: tuple[int | None, ...],
    ):
        if len(dim_map) != region.rank:
            raise DistributionError(
                f"dim_map has rank {len(dim_map)}, region has {region.rank}"
            )
        used = [g for g in dim_map if g is not None]
        if len(set(used)) != len(used):
            raise DistributionError(f"grid dimension used twice in {dim_map}")
        for g in used:
            if not 0 <= g < grid.rank:
                raise DistributionError(f"grid dimension {g} out of range")
        for g in range(grid.rank):
            if grid.dims[g] > 1 and g not in used:
                raise DistributionError(
                    f"grid dimension {g} (extent {grid.dims[g]}) is unused; "
                    f"map some array dimension onto it"
                )
        self.region = region
        self.grid = grid
        self.dim_map = tuple(dim_map)
        # Precompute per-dimension slab boundaries.
        self._slabs: list[list[Region] | None] = []
        for k, g in enumerate(self.dim_map):
            if g is None:
                self._slabs.append(None)
            else:
                self._slabs.append(region.split(k, grid.dims[g]))

    def local_region(self, proc: int) -> Region:
        """The sub-region owned by processor ``proc``."""
        coords = self.grid.coords(proc)
        local = self.region
        for k, g in enumerate(self.dim_map):
            if g is None:
                continue
            lo, hi = self._slabs[k][coords[g]].range(k)
            local = local.slab(k, lo, hi)
        return local

    def owner(self, index: tuple[int, ...]) -> int:
        """Rank of the processor owning a global index."""
        if not self.region.contains(index):
            raise DistributionError(f"index {index} outside {self.region!r}")
        coords = [0] * self.grid.rank
        for k, g in enumerate(self.dim_map):
            if g is None:
                continue
            for c, slab in enumerate(self._slabs[k]):
                lo, hi = slab.range(k)
                if lo <= index[k] <= hi:
                    coords[g] = c
                    break
        return self.grid.proc(tuple(coords))

    def neighbors_along(self, proc: int, array_dim: int) -> tuple[int | None, int | None]:
        """(predecessor, successor) processor ranks along an array dimension.

        Returns ``(None, None)`` when the dimension is not distributed.
        """
        g = self.dim_map[array_dim]
        if g is None:
            return (None, None)
        return (
            self.grid.neighbor(proc, g, -1),
            self.grid.neighbor(proc, g, +1),
        )

    def check_balanced(self) -> float:
        """Return max/min local size ratio (1.0 = perfectly balanced)."""
        sizes = [max(1, self.local_region(p).size) for p in self.grid]
        return max(sizes) / min(sizes)

    def __repr__(self) -> str:
        return f"BlockMap({self.region!r} over {self.grid!r} via {self.dim_map})"
