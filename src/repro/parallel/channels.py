"""Point-to-point synchronisation channels between pipeline workers.

Data lives in shared memory (:mod:`repro.parallel.sharedmem`); what flows
between workers is *ordering*.  Each adjacent pair along a pipeline chain is
connected by a one-directional :func:`multiprocessing.Pipe`, and a worker
publishes "my block ``k`` is computed" by sending the integer ``k`` downstream.
The receive therefore plays exactly the role of the paper's blocking receive:
the successor cannot start block ``k`` before its predecessor finished it,
which is the entire dependence structure of the pipelined schedule.

Every token crossing costs one real pipe round through the kernel — that is
the per-message α the autotuner measures, and why the measured machine still
obeys the α+β model even though no array data rides on the messages.
"""

from __future__ import annotations

from multiprocessing.connection import Connection
from typing import Mapping

from repro.errors import MachineError


def chain_links(
    ctx, chains: list[list[int]]
) -> Mapping[int, tuple[Connection | None, Connection | None]]:
    """Build the pipe fabric for a set of independent pipeline chains.

    ``chains`` lists processor ranks in wave order, one list per chain.
    Returns ``{rank: (recv_from_pred, send_to_succ)}`` with ``None`` at the
    chain ends.  ``ctx`` is the multiprocessing context the workers will be
    spawned from (pipes must come from the same context).
    """
    links: dict[int, list[Connection | None]] = {}
    for chain in chains:
        if not chain:
            raise MachineError("empty pipeline chain in chain layout")
        for rank in chain:
            if rank in links:
                raise MachineError(f"processor {rank} appears in two chains")
            links[rank] = [None, None]
        for upstream, downstream in zip(chain, chain[1:]):
            recv_end, send_end = ctx.Pipe(duplex=False)
            links[upstream][1] = send_end
            links[downstream][0] = recv_end
    return {rank: (pair[0], pair[1]) for rank, pair in links.items()}


def send_token(conn: Connection, k: int) -> None:
    """Publish completion of block ``k`` downstream."""
    conn.send(k)


def _peer_label(peer: int | None) -> str:
    return "predecessor" if peer is None else f"predecessor rank {peer}"


def recv_token(
    conn: Connection, k: int, timeout: float, peer: int | None = None
) -> None:
    """Block until the predecessor finishes block ``k``.

    A bounded wait keeps a crashed predecessor from hanging the whole
    pipeline; the executor turns the raised error into a clean teardown.
    """
    if not conn.poll(timeout):
        raise MachineError(
            f"timed out after {timeout:.2f}s waiting for pipeline block {k} "
            f"from {_peer_label(peer)}"
        )
    got = conn.recv()
    if got != k:
        raise MachineError(f"pipeline protocol error: expected block {k}, got {got}")
