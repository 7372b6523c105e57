"""Batch scheduling policies: which coalesced batch dispatches next.

The batcher keeps one pending list per coalescing key.  Whenever the
compute thread is free and more than one key has requests pending, a
:class:`Policy` picks the dispatch order:

* :class:`FIFOPolicy` — oldest first-arrival wins.  Fair, no starvation,
  the default.
* :class:`SJFPolicy` — shortest predicted job first.  Minimises mean
  latency under mixed shapes at the price of possible starvation of
  large batches; ties (and equal costs) fall back to arrival order, so
  a stream of small jobs still cannot overtake an *equal-cost* earlier
  one.

Costs come from :func:`estimate_cost`.  On a worker pool (``p >= 2``)
it asks the paper's Model 2 (:func:`repro.models.pipeline_model.model2`)
for the predicted pipelined time at the model's optimal block size —
the same α+β machine model the rest of the repository calibrates and
validates.  In-process (``p == 1``) there is no pipeline to model and
the cost degenerates to the DP volume: ``items x rows x cols`` element
updates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.params import MachineParams
from repro.models.pipeline_model import ModelError, model2


@dataclass(frozen=True)
class Candidate:
    """One ready batch as the policy sees it."""

    key: tuple
    items: int
    arrival: float  # monotonic first-arrival of the batch's oldest request
    cost: float  # predicted seconds (pool) or element updates (in-process)


def _key_geometry(key: tuple, items: int) -> tuple[int, int]:
    """(rows, cols) of the stacked dispatch a key would produce."""
    if key[0] == "align":
        _, _local, la, lb = key[:4]
        return la, lb * items
    # zpl keys carry ("zpl", digest, ((name, lo, hi), ...)); use the
    # largest declared array as the proxy for the scan geometry.
    rows = cols = 1
    for _name, lo, hi in key[2]:
        extents = [h - l + 1 for l, h in zip(lo, hi)]
        r = extents[-2] if len(extents) >= 2 else 1
        c = extents[-1]
        if r * c > rows * cols:
            rows, cols = r, c
    return rows, cols * items


def estimate_cost(
    key: tuple,
    items: int,
    params: MachineParams | None = None,
    p: int = 1,
) -> float:
    """Predicted cost of dispatching ``items`` coalesced requests of ``key``.

    With a machine model and ``p >= 2`` processors this is Model 2's
    predicted pipelined time at its own optimal block size; otherwise it
    is the raw element-update count (monotone in the same quantities, so
    SJF ordering is preserved).
    """
    rows, cols = _key_geometry(key, items)
    if params is not None and p >= 2:
        try:
            model = model2(params, n=rows, p=p, cols=cols)
            return model.predicted_time(model.optimal_block_size())
        except ModelError:
            pass  # degenerate geometry: fall through to the volume proxy
    return float(rows) * float(cols)


class Policy:
    """The seam: order ready batches; smallest sort key dispatches first."""

    name = "base"

    def sort_key(self, candidate: Candidate) -> tuple:
        raise NotImplementedError

    def select(self, candidates: list[Candidate]) -> Candidate:
        return min(candidates, key=self.sort_key)


class FIFOPolicy(Policy):
    name = "fifo"

    def sort_key(self, candidate: Candidate) -> tuple:
        return (candidate.arrival,)


class SJFPolicy(Policy):
    name = "sjf"

    def sort_key(self, candidate: Candidate) -> tuple:
        return (candidate.cost, candidate.arrival)


POLICIES = {cls.name: cls for cls in (FIFOPolicy, SJFPolicy)}


def make_policy(name: str) -> Policy:
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown scheduling policy {name!r}; choose from {sorted(POLICIES)}"
        ) from None
