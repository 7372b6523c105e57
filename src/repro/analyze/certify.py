"""Static schedule certifier: sync-coverage and deadlock-freedom proofs.

The parallel schedules are *derived* from the dependence vectors, which makes
their correctness statically checkable: before a single worker forks we can
prove that the sync protocol a schedule would execute — pipe tokens
(:mod:`repro.parallel.channels`), taskgraph pending-count decrements
(:mod:`repro.parallel.taskgraph`), or multicast epoch stamps
(:mod:`repro.parallel.collectives`) — honours every block-level dependence
edge the compiler projects (:mod:`repro.compiler.taskdag`).

The certifier derives no geometry of its own.  :func:`project` reads a
:class:`~repro.parallel.plan.RunPlan` — the one object
:func:`~repro.parallel.plan.resolve_run` plans for the executors, with the
chunk regions, fabric, groups, staging layout or tile DAG the jobs are
built from — into a :class:`ScheduleModel`: plain frozen data that adds the
projected dependence edges and names the sync edges, so the mutation
harness can corrupt it.  :func:`build_schedule_model` is ``project`` of a
statically planned run.  Over the model :func:`certify_model` proves three
properties:

* **Coverage** (``E101``): every projected dependence edge between tiles is
  covered by a happens-before path of the protocol (program order within a
  rank composed with the protocol's sync edges).  An uncovered edge means a
  block could read cells its source block has not yet written.
* **Deadlock freedom** (``E102``): the protocol's wait-for graph — tokens,
  pending counts, epoch waits, and (with double buffering) the slot-credit
  backpressure edges of the staging protocol — is acyclic, and every
  taskgraph tile's pending count is satisfiable.  Cycles are rendered
  rustc-style, one ``because:`` line per hop.
* **Staging safety** (``E103``): no double-buffer boundary slot can be
  overwritten while a consumer may still read it (the slot count must cover
  the credit lag), slot areas do not overlap, and no area overruns the slot.

Soundness is demonstrated by the mutation harness (:data:`MUTATIONS`): each
named mutation corrupts a model the way a scheduler bug would — dropping a
token edge, shrinking a pending count, forcing a single buffer slot — and the
certifier must flag every mutant with the expected code.  The dynamic
sanitizer (:mod:`repro.analyze.sanitizer`) trips on the same corruptions at
run time; the harness ties the two proofs together.

Set ``REPRO_CERTIFY=1`` and :func:`~repro.parallel.plan.resolve_run` hands
every ``RunPlan`` it resolves for an executor (fork and pool paths alike) to
:func:`certify_execution` — what is certified is the object that is then
dispatched; certification failures raise
:class:`~repro.errors.CertifyError` before any worker starts.  The CLI front
end is ``python -m repro.analyze certify``.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.analyze.diagnostics import Because, Diagnostic, Severity, render_all
from repro.errors import CertifyError, MachineError
from repro.zpl.regions import Region

#: Pseudo-schedules the CLI exposes: the three executor schedules plus
#: ``multicast`` (the pipelined schedule with the epoch fabric forced on).
PSEUDO_SCHEDULES = ("naive", "pipelined", "multicast", "taskgraph")


def schedule_kwargs(pseudo: str) -> dict:
    """Map a pseudo-schedule name to :func:`build_schedule_model` kwargs.

    ``pipelined`` forces pipes so the CLI certifies both fabrics distinctly;
    ``multicast`` is the pipelined schedule with the fabric forced on.
    """
    if pseudo not in PSEUDO_SCHEDULES:
        raise MachineError(
            f"unknown schedule {pseudo!r}; pick from {PSEUDO_SCHEDULES}"
        )
    if pseudo == "multicast":
        return {"schedule": "pipelined", "multicast": True}
    if pseudo == "pipelined":
        return {"schedule": "pipelined", "multicast": False}
    return {"schedule": pseudo}


# ---------------------------------------------------------------------------
# The model: a RunPlan's sync protocol and dependence edges, as plain data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DepEdge:
    """One projected block-level dependence edge: tile ``src`` must complete
    before tile ``dst`` starts, demanded by UDV ``vector`` on ``array``."""

    src: int
    dst: int
    vector: tuple[int, ...]
    array: str
    kind: str


@dataclass(frozen=True)
class SlotArea:
    """One staged array's halo area inside a double-buffer slot."""

    array_index: int
    depth: int
    offset: int
    elems: int


@dataclass(frozen=True)
class ScheduleModel:
    """Everything the certifier needs to know about one planned run.

    Tiles are numbered globally; ``owners[t]``/``local_index[t]`` give the
    rank that executes tile ``t`` and its position in that rank's program
    order (the pipeline block index ``k``, or the enqueue order for
    taskgraph homes).  The sync protocol appears as whichever of
    ``token_edges`` (pipes), ``producers`` (multicast epochs), or
    ``graph_edges``/``pending`` (taskgraph) the fabric uses.
    """

    schedule: str
    #: ``"pipes"``, ``"multicast"``, or ``"graph"`` (taskgraph scheduler).
    fabric: str
    n_ranks: int
    #: Max pipeline blocks on any rank (taskgraph: the live tile count).
    n_blocks: int
    tiles: tuple[Region, ...]
    owners: tuple[int, ...]
    local_index: tuple[int, ...]
    dep_edges: tuple[DepEdge, ...]
    #: Pipes: ``(upstream, downstream)`` rank pairs carrying block tokens.
    token_edges: tuple[tuple[int, int], ...] = ()
    #: Multicast: per rank, the ranks whose epoch stamps it waits on.
    producers: tuple[tuple[int, ...], ...] = ()
    #: Taskgraph: ``(pred_tile, succ_tile)`` decrement edges.
    graph_edges: tuple[tuple[int, int], ...] = ()
    #: Taskgraph: per tile, the pending count it fires at zero of.
    pending: tuple[int, ...] = ()
    #: Double-buffered boundary staging active (multicast only).
    staging: bool = False
    #: Staging slots per producer (block ``k`` writes slot ``k % n_slots``).
    n_slots: int = 0
    #: Blocks a producer may run ahead of its slowest consumer's absorbs
    #: before ``wait_credit`` parks it (the protocol uses the slot count).
    credit_lag: int = 0
    #: Slot capacity in elements.
    slot_elems: int = 0
    slot_areas: tuple[SlotArea, ...] = ()
    block_size: int | None = None
    grid_dims: tuple[int, ...] = ()

    @property
    def n_tasks(self) -> int:
        return len(self.tiles)

    def __repr__(self) -> str:
        return (
            f"ScheduleModel({self.schedule}/{self.fabric}, "
            f"grid={self.grid_dims}, {self.n_tasks} tiles, "
            f"{len(self.dep_edges)} dep edges)"
        )


def _dep_edges(compiled, tiles, region) -> tuple[DepEdge, ...]:
    from repro.compiler.taskdag import tile_dependences

    out = []
    seen = set()
    for src, dst, dep in tile_dependences(compiled, tiles, region):
        key = (src, dst, dep.vector, dep.array, dep.kind.value)
        if key in seen:
            continue
        seen.add(key)
        out.append(
            DepEdge(
                src=src,
                dst=dst,
                vector=dep.vector,
                array=dep.array,
                kind=dep.kind.value,
            )
        )
    return tuple(out)


def project(run_plan) -> ScheduleModel:
    """The :class:`ScheduleModel` of a resolved
    :class:`~repro.parallel.plan.RunPlan`: its tiles, owners and sync
    edges read off the plan, plus the dependence edges to prove covered."""
    from repro.parallel.sharedmem import BoundaryPool

    compiled, grid = run_plan.compiled, run_plan.grid
    region = run_plan.wavefront.region
    graph = run_plan.graph
    if graph is not None:
        local_index: list[int] = []
        counts: dict[int, int] = {}
        for home in graph.homes:
            local_index.append(counts.get(home, 0))
            counts[home] = local_index[-1] + 1
        return ScheduleModel(
            schedule=run_plan.schedule,
            fabric="graph",
            n_ranks=grid.size,
            n_blocks=graph.n_live,
            tiles=graph.tiles,
            owners=graph.homes,
            local_index=tuple(local_index),
            dep_edges=_dep_edges(compiled, graph.tiles, region),
            graph_edges=tuple(
                (pred, succ)
                for succ, preds in enumerate(graph.preds)
                for pred in preds
            ),
            pending=tuple(len(p) for p in graph.preds),
            block_size=run_plan.block_size,
            grid_dims=grid.dims,
        )

    placed = [
        (chunk, rank, k)
        for rank in grid
        for k, chunk in enumerate(run_plan.chunks_by_rank[rank])
    ]
    tiles = tuple(chunk for chunk, _rank, _k in placed)
    sync: dict = {}
    if run_plan.fabric == "multicast":
        sync["producers"] = run_plan.groups.producers
        layout = run_plan.layout
        if layout is not None:
            bounds = layout.offsets + (layout.slot_elems,)
            sync.update(
                staging=True,
                n_slots=BoundaryPool.N_SLOTS,
                # The channel's wait_credit parks a producer once it is a
                # full slot rotation ahead of its slowest consumer: the
                # credit lag *is* the slot count in the implementation;
                # the model keeps them separate so mutations can break one.
                credit_lag=BoundaryPool.N_SLOTS,
                slot_elems=layout.slot_elems,
                slot_areas=tuple(
                    SlotArea(
                        array_index=idx,
                        depth=depth,
                        offset=off,
                        elems=bounds[i + 1] - off,
                    )
                    for i, ((idx, depth), off) in enumerate(
                        zip(layout.arrays, layout.offsets)
                    )
                ),
            )
    else:
        sync["token_edges"] = tuple(
            (upstream, downstream)
            for downstream, upstream in run_plan.pred_by_rank.items()
        )
    return ScheduleModel(
        schedule=run_plan.schedule,
        fabric=run_plan.fabric,
        n_ranks=grid.size,
        n_blocks=run_plan.n_chunks,
        tiles=tiles,
        owners=tuple(rank for _chunk, rank, _k in placed),
        local_index=tuple(k for _chunk, _rank, k in placed),
        dep_edges=_dep_edges(compiled, tiles, region),
        block_size=run_plan.block_size,
        grid_dims=grid.dims,
        **sync,
    )


def build_schedule_model(
    compiled,
    *,
    schedule: str | None = None,
    grid=None,
    block: int | None = None,
    wavefront_dim: int | None = None,
    multicast=None,
    double_buffer: bool | None = None,
    oversub: int | None = None,
) -> ScheduleModel:
    """Plan a run statically and :func:`project` it.

    The planner is the executors' own
    (:func:`~repro.parallel.plan.resolve_run` with ``static=True``), so its
    legality refusals raise here precisely when an executor would refuse
    to run, and the certifier never reports errors on configurations the
    planner refuses natively.  ``block`` and ``oversub`` default to static
    heuristics instead of the autotuner.
    """
    from repro.parallel.plan import resolve_run

    return project(
        resolve_run(
            compiled,
            grid,
            schedule=schedule,
            block=block,
            wavefront_dim=wavefront_dim,
            multicast=multicast,
            double_buffer=double_buffer,
            oversub=oversub,
            static=True,
        )
    )


# ---------------------------------------------------------------------------
# The proofs
# ---------------------------------------------------------------------------

def _find_cycle(adjacency: dict) -> list | None:
    """One cycle of a directed graph, as ``[n0, ..., nm]`` with the closing
    edge ``nm -> n0``, or ``None`` when the graph is acyclic."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict = {}
    for root in list(adjacency):
        if color.get(root, WHITE) != WHITE:
            continue
        stack = [(root, iter(adjacency.get(root, ())))]
        color[root] = GRAY
        while stack:
            node, edges = stack[-1]
            succ = next(edges, None)
            if succ is None:
                color[node] = BLACK
                stack.pop()
                continue
            if color.get(succ, WHITE) == GRAY:
                path = []
                for frame_node, _ in reversed(stack):
                    path.append(frame_node)
                    if frame_node == succ:
                        break
                path.reverse()
                return path
            if color.get(succ, WHITE) == WHITE:
                color[succ] = GRAY
                stack.append((succ, iter(adjacency.get(succ, ()))))
    return None


def _task_map(model: ScheduleModel) -> dict[tuple[int, int], int]:
    return {
        (rank, k): t
        for t, (rank, k) in enumerate(zip(model.owners, model.local_index))
    }


def _hb_edges(model: ScheduleModel) -> tuple[dict[int, list[int]], dict]:
    """The task-level happens-before graph: adjacency + edge labels.

    Program order within each rank composed with the protocol's sync edges
    (token per block for pipes, epoch stamp per block for multicast,
    pending-decrement edges for taskgraph — excluding edges into tiles
    whose pending count is smaller than their in-degree, because such a
    tile fires before those decrements arrive and they synchronise
    nothing).
    """
    adjacency: dict[int, list[int]] = {t: [] for t in range(model.n_tasks)}
    labels: dict[tuple[int, int], str] = {}

    def add(a: int, b: int, label: str) -> None:
        adjacency[a].append(b)
        labels.setdefault((a, b), label)

    if model.schedule == "taskgraph":
        indegree = Counter(dst for _src, dst in model.graph_edges)
        for src, dst in model.graph_edges:
            if model.pending[dst] < indegree[dst]:
                continue  # fires early: this decrement synchronises nothing
            add(src, dst, f"pending-count decrement tile {src} -> {dst}")
        return adjacency, labels

    at = _task_map(model)
    blocks = Counter(model.owners)
    by_rank: dict[int, list[tuple[int, int]]] = {}
    for t, (rank, k) in enumerate(zip(model.owners, model.local_index)):
        by_rank.setdefault(rank, []).append((k, t))
    for rank, seq in by_rank.items():
        seq.sort()
        for (_, a), (_, b) in zip(seq, seq[1:]):
            add(a, b, f"program order on rank {rank}")
    for upstream, downstream in model.token_edges:
        for k in range(min(blocks.get(upstream, 0), blocks.get(downstream, 0))):
            add(
                at[(upstream, k)],
                at[(downstream, k)],
                f"block-{k} pipe token rank {upstream} -> rank {downstream}",
            )
    for rank, preds in enumerate(model.producers):
        for producer in preds:
            for k in range(min(blocks.get(producer, 0), blocks.get(rank, 0))):
                add(
                    at[(producer, k)],
                    at[(rank, k)],
                    f"block-{k} epoch stamp rank {producer} -> rank {rank}",
                )
    return adjacency, labels


def _describe_task(model: ScheduleModel, t: int) -> str:
    if model.schedule == "taskgraph":
        return f"tile {t} (home rank {model.owners[t]})"
    return f"rank {model.owners[t]} block {model.local_index[t]}"


def _protocol_name(model: ScheduleModel) -> str:
    return {
        "pipes": "pipe-token",
        "multicast": "epoch-stamp",
        "graph": "pending-count",
    }[model.fabric]


def _deadlock_diagnostics(model: ScheduleModel) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    adjacency, labels = _hb_edges(model)
    cycle = _find_cycle(adjacency)
    if cycle is not None:
        hops = list(zip(cycle, cycle[1:] + cycle[:1]))
        because = tuple(
            Because(
                "token",
                f"{_describe_task(model, b)} waits for "
                f"{_describe_task(model, a)} ({labels.get((a, b), 'sync edge')})",
            )
            for a, b in hops
        )
        out.append(
            Diagnostic(
                code="E102",
                message=(
                    f"potential deadlock: {len(cycle)} task(s) of the "
                    f"{_protocol_name(model)} protocol wait on each other "
                    f"in a cycle"
                ),
                because=because,
                hint=(
                    "the wait-for graph must stay acyclic: sync edges may "
                    "only point forward in traversal order"
                ),
                data={
                    "cycle": [int(t) for t in cycle],
                    "fabric": model.fabric,
                },
            )
        )
    if model.schedule == "taskgraph":
        indegree = Counter(dst for _src, dst in model.graph_edges)
        for t in range(model.n_tasks):
            if model.pending[t] > indegree[t]:
                out.append(
                    Diagnostic(
                        code="E102",
                        message=(
                            f"potential deadlock: tile {t} waits for "
                            f"{model.pending[t]} completion(s) but only "
                            f"{indegree[t]} predecessor edge(s) can ever "
                            f"decrement it — it never fires"
                        ),
                        because=(
                            Because(
                                "model",
                                f"pending[{t}] = {model.pending[t]} exceeds "
                                f"the in-degree {indegree[t]}",
                            ),
                        ),
                        hint=(
                            "each tile's pending count must equal the number "
                            "of live predecessor edges"
                        ),
                        data={"tile": t, "pending": model.pending[t]},
                    )
                )
    staged = _staging_cycle(model)
    if staged is not None:
        out.append(staged)
    return out


def _staging_cycle(model: ScheduleModel) -> Diagnostic | None:
    """Deadlock check over the double-buffer staging protocol's event graph.

    Events are ``(rank, block, phase)`` with phases WAIT (epoch waits +
    boundary absorbs), STAGE (slot-credit gate + halo copy), PUB (epoch
    stamp).  Credit backpressure adds ``WAIT(consumer, k - lag) ->
    STAGE(producer, k)``: a producer may not reuse a slot until every
    consumer has absorbed ``lag`` blocks behind it.  A cycle means a
    producer parks on a credit its consumer can only grant after the very
    publish the producer is parked before.  The block horizon ``lag + 3``
    suffices: the protocol is block-periodic, so any cycle shows up within
    one credit rotation of the start.
    """
    if not (model.fabric == "multicast" and model.staging):
        return None
    horizon = min(model.n_blocks, model.credit_lag + 3)
    if horizon <= 0 or not any(model.producers):
        return None
    consumers: list[list[int]] = [[] for _ in range(model.n_ranks)]
    for rank, preds in enumerate(model.producers):
        for producer in preds:
            consumers[producer].append(rank)
    WAIT, STAGE, PUB = "WAIT", "STAGE", "PUB"
    adjacency: dict[tuple, list[tuple]] = {}

    def add(a: tuple, b: tuple) -> None:
        adjacency.setdefault(a, []).append(b)

    for rank in range(model.n_ranks):
        for k in range(horizon):
            add((rank, k, WAIT), (rank, k, STAGE))
            add((rank, k, STAGE), (rank, k, PUB))
            if k + 1 < horizon:
                add((rank, k, PUB), (rank, k + 1, WAIT))
    for rank, preds in enumerate(model.producers):
        for producer in preds:
            for k in range(horizon):
                add((producer, k, PUB), (rank, k, WAIT))
    for producer in range(model.n_ranks):
        for rank in consumers[producer]:
            for k in range(model.credit_lag, horizon):
                add((rank, k - model.credit_lag, WAIT), (producer, k, STAGE))
    cycle = _find_cycle(adjacency)
    if cycle is None:
        return None
    phase_text = {
        WAIT: "waits for its producers' epochs of block",
        STAGE: "stages the boundary of block",
        PUB: "publishes the epoch stamp of block",
    }
    because = tuple(
        Because(
            "token",
            f"rank {rank} {phase_text[phase]} {k}",
        )
        for rank, k, phase in cycle
    )
    return Diagnostic(
        code="E102",
        message=(
            "potential deadlock: the double-buffer slot-credit protocol "
            "admits a wait cycle (a producer parks on a credit its consumer "
            "grants only after that producer's own publish)"
        ),
        because=because,
        hint=(
            f"the credit lag ({model.credit_lag}) must stay positive and "
            f"within the slot count ({model.n_slots}) so consumers always "
            f"run one full slot rotation behind producers"
        ),
        data={
            "cycle": [[int(r), int(k), p] for r, k, p in cycle],
            "credit_lag": model.credit_lag,
            "n_slots": model.n_slots,
        },
    )


def _staging_diagnostics(model: ScheduleModel) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    if not (model.fabric == "multicast" and model.staging):
        return out
    if model.n_slots < model.credit_lag:
        out.append(
            Diagnostic(
                code="E103",
                message=(
                    f"staging slot aliases a live read window: block k and "
                    f"block k-{model.n_slots} share slot k % {model.n_slots}, "
                    f"but consumers are only guaranteed to have absorbed "
                    f"through block k-{model.credit_lag}"
                ),
                because=(
                    Because(
                        "model",
                        f"{model.n_slots} slot(s) cannot cover a credit lag "
                        f"of {model.credit_lag} in-flight block(s)",
                    ),
                ),
                hint=(
                    "provision at least as many slots as the credit lag "
                    "(BoundaryPool.N_SLOTS) so a staged block survives "
                    "until every consumer has absorbed it"
                ),
                data={
                    "n_slots": model.n_slots,
                    "credit_lag": model.credit_lag,
                },
            )
        )
    areas = sorted(model.slot_areas, key=lambda a: a.offset)
    for first, second in zip(areas, areas[1:]):
        if first.offset + first.elems > second.offset:
            out.append(
                Diagnostic(
                    code="E103",
                    message=(
                        f"staging slot aliases a live read window: array "
                        f"{first.array_index}'s area "
                        f"[{first.offset}, {first.offset + first.elems}) "
                        f"overlaps array {second.array_index}'s area at "
                        f"offset {second.offset}"
                    ),
                    because=(
                        Because(
                            "model",
                            f"area of array {first.array_index} spans "
                            f"{first.elems} element(s) from offset "
                            f"{first.offset}",
                        ),
                    ),
                    hint="staged halo areas must be disjoint within a slot",
                    data={
                        "arrays": [first.array_index, second.array_index],
                    },
                )
            )
    for area in model.slot_areas:
        if area.offset + area.elems > model.slot_elems:
            out.append(
                Diagnostic(
                    code="E103",
                    message=(
                        f"staging slot aliases a live read window: array "
                        f"{area.array_index}'s area runs to element "
                        f"{area.offset + area.elems} but the slot holds "
                        f"only {model.slot_elems} — the copy would spill "
                        f"into the next slot's live data"
                    ),
                    because=(
                        Because(
                            "model",
                            f"{area.depth} halo row(s) at offset "
                            f"{area.offset} need {area.elems} element(s)",
                        ),
                    ),
                    hint=(
                        "slot capacity must cover every staged array's "
                        "deepest halo"
                    ),
                    data={"array": area.array_index},
                )
            )
    return out


def _coverage_diagnostics(model: ScheduleModel) -> list[Diagnostic]:
    adjacency, _labels = _hb_edges(model)
    reach_cache: dict[int, set[int]] = {}

    def reachable(src: int, dst: int) -> bool:
        seen = reach_cache.get(src)
        if seen is None:
            seen = set()
            frontier = deque(adjacency.get(src, ()))
            while frontier:
                node = frontier.popleft()
                if node in seen:
                    continue
                seen.add(node)
                frontier.extend(adjacency.get(node, ()))
            reach_cache[src] = seen
        return dst in seen

    out: list[Diagnostic] = []
    protocol = _protocol_name(model)
    for edge in model.dep_edges:
        if reachable(edge.src, edge.dst):
            continue
        out.append(
            Diagnostic(
                code="E101",
                message=(
                    f"unsynchronized dependence: {edge.kind} dependence "
                    f"{edge.vector} on {edge.array!r} needs tile {edge.src} "
                    f"({_describe_task(model, edge.src)}) to complete before "
                    f"tile {edge.dst} ({_describe_task(model, edge.dst)}), "
                    f"but no happens-before path of the {protocol} protocol "
                    f"orders them"
                ),
                because=(
                    Because(
                        "udv",
                        f"UDV {edge.vector} projects source cells of tile "
                        f"{edge.dst} into tile {edge.src}",
                    ),
                    Because(
                        "model",
                        f"schedule {model.schedule!r} on grid "
                        f"{model.grid_dims} synchronises via "
                        f"{protocol} edges only",
                    ),
                ),
                hint=(
                    "every projected dependence edge must be released by a "
                    "token, epoch stamp, or pending-count decrement before "
                    "its reader fires"
                ),
                data={
                    "src": edge.src,
                    "dst": edge.dst,
                    "vector": list(edge.vector),
                    "array": edge.array,
                    "kind": edge.kind,
                },
            )
        )
    return out


def certify_model(model: ScheduleModel) -> list[Diagnostic]:
    """Prove the model sound, returning diagnostics for every violation.

    Order: deadlock (``E102``) first — a cyclic wait-for graph makes the
    coverage question moot — then staging safety (``E103``), then
    dependence coverage (``E101``).  An empty list is the proof.
    """
    out: list[Diagnostic] = []
    out.extend(_deadlock_diagnostics(model))
    out.extend(_staging_diagnostics(model))
    out.extend(_coverage_diagnostics(model))
    return out


def certify(compiled, **kwargs) -> list[Diagnostic]:
    """Build the schedule model for ``compiled`` and certify it.

    Accepts :func:`build_schedule_model`'s keyword arguments.  Raises the
    planner's own :class:`~repro.errors.MachineError` family when the
    configuration cannot be planned at all (the executor would refuse it
    natively; the CLI reports those as ``W110``).
    """
    return certify_model(build_schedule_model(compiled, **kwargs))


def certify_execution(target, **kwargs) -> list[Diagnostic] | None:
    """The ``REPRO_CERTIFY=1`` pre-flight hook.

    ``target`` is the resolved :class:`~repro.parallel.plan.RunPlan` about
    to be dispatched (how :func:`~repro.parallel.plan.resolve_run` calls
    it), or a compiled block plus :func:`build_schedule_model`'s keyword
    arguments.  Planner refusals are swallowed — the run itself is about to
    raise the native error, which is the better message.  Certification
    *errors* raise :class:`~repro.errors.CertifyError` carrying the
    diagnostics.  Returns the (warning-only or empty) diagnostics
    otherwise, ``None`` when the configuration could not be modelled.
    """
    from repro.parallel.plan import RunPlan

    try:
        if isinstance(target, RunPlan):
            model = project(target)
        else:
            model = build_schedule_model(target, **kwargs)
    except MachineError:
        return None
    diagnostics = certify_model(model)
    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    if errors:
        raise CertifyError(
            "schedule certification failed (REPRO_CERTIFY=1):\n\n"
            + render_all(errors),
            diagnostics,
        )
    return diagnostics


# ---------------------------------------------------------------------------
# The mutation harness
# ---------------------------------------------------------------------------

class MutationUnsupported(ValueError):
    """The requested mutation does not apply to this schedule model."""


@dataclass(frozen=True)
class Mutation:
    """One named plan corruption and the diagnostic it must provoke."""

    name: str
    #: The sync protocol it targets: ``pipes``/``taskgraph``/``multicast``.
    protocol: str
    #: The diagnostic code :func:`certify_model` must report on the mutant.
    expected: str
    summary: str
    apply: Callable[[ScheduleModel], ScheduleModel] = field(repr=False)


#: Registry of every plan mutation, ``name -> Mutation`` (order stable).
MUTATIONS: dict[str, Mutation] = {}


def _register(name: str, protocol: str, expected: str, summary: str):
    def decorate(fn):
        MUTATIONS[name] = Mutation(name, protocol, expected, summary, fn)
        return fn

    return decorate


def _need(condition: bool, what: str) -> None:
    if not condition:
        raise MutationUnsupported(f"mutation needs {what}")


def _flags(model: ScheduleModel, code: str) -> bool:
    return any(d.code == code for d in certify_model(model))


@_register(
    "drop-token", "pipes", "E101",
    "remove a load-bearing pipe token edge",
)
def _drop_token(model: ScheduleModel) -> ScheduleModel:
    _need(model.fabric == "pipes" and model.token_edges, "a pipe-token fabric")
    for i in range(len(model.token_edges)):
        mutated = replace(
            model,
            token_edges=model.token_edges[:i] + model.token_edges[i + 1:],
        )
        if _flags(mutated, "E101"):
            return mutated
    raise MutationUnsupported(
        "mutation needs a token edge that carries a dependence"
    )


@_register(
    "token-backedge", "pipes", "E102",
    "add a token edge pointing back up the chain",
)
def _token_backedge(model: ScheduleModel) -> ScheduleModel:
    _need(model.fabric == "pipes" and model.token_edges, "a pipe-token fabric")
    upstream, downstream = model.token_edges[0]
    return replace(
        model, token_edges=model.token_edges + ((downstream, upstream),)
    )


@_register(
    "detach-rank", "pipes", "E101",
    "detach one dependence-carrying rank from all incoming tokens",
)
def _detach_rank(model: ScheduleModel) -> ScheduleModel:
    _need(model.fabric == "pipes" and model.token_edges, "a pipe-token fabric")
    seen: list[int] = []
    for _upstream, downstream in model.token_edges:
        if downstream not in seen:
            seen.append(downstream)
    for rank in seen:
        mutated = replace(
            model,
            token_edges=tuple(
                e for e in model.token_edges if e[1] != rank
            ),
        )
        if _flags(mutated, "E101"):
            return mutated
    raise MutationUnsupported(
        "mutation needs a rank whose incoming tokens carry a dependence"
    )


@_register(
    "drop-graph-edge", "taskgraph", "E101",
    "drop a dependence-carrying graph edge (and its pending count)",
)
def _drop_graph_edge(model: ScheduleModel) -> ScheduleModel:
    _need(
        model.schedule == "taskgraph" and model.graph_edges,
        "a taskgraph with edges",
    )
    dep_pairs = {(e.src, e.dst) for e in model.dep_edges}
    for i, (src, dst) in enumerate(model.graph_edges):
        if (src, dst) not in dep_pairs:
            continue
        pending = list(model.pending)
        pending[dst] -= 1
        mutated = replace(
            model,
            graph_edges=model.graph_edges[:i] + model.graph_edges[i + 1:],
            pending=tuple(pending),
        )
        if _flags(mutated, "E101"):
            return mutated
    raise MutationUnsupported(
        "mutation needs a graph edge that is the sole cover of a dependence"
    )


@_register(
    "shrink-pending", "taskgraph", "E101",
    "decrement one tile's pending count below its in-degree",
)
def _shrink_pending(model: ScheduleModel) -> ScheduleModel:
    _need(model.schedule == "taskgraph" and model.pending, "a taskgraph")
    for edge in model.dep_edges:
        if model.pending[edge.dst] < 1:
            continue
        pending = list(model.pending)
        pending[edge.dst] -= 1
        mutated = replace(model, pending=tuple(pending))
        if _flags(mutated, "E101"):
            return mutated
    raise MutationUnsupported(
        "mutation needs a tile whose early firing uncovers a dependence"
    )


@_register(
    "grow-pending", "taskgraph", "E102",
    "increment one tile's pending count past its in-degree",
)
def _grow_pending(model: ScheduleModel) -> ScheduleModel:
    _need(model.schedule == "taskgraph" and model.pending, "a taskgraph")
    pending = list(model.pending)
    pending[0] += 1
    return replace(model, pending=tuple(pending))


@_register(
    "graph-backedge", "taskgraph", "E102",
    "reverse-duplicate a graph edge, forming a two-tile cycle",
)
def _graph_backedge(model: ScheduleModel) -> ScheduleModel:
    _need(
        model.schedule == "taskgraph" and model.graph_edges,
        "a taskgraph with edges",
    )
    src, dst = model.graph_edges[0]
    pending = list(model.pending)
    pending[src] += 1
    return replace(
        model,
        graph_edges=model.graph_edges + ((dst, src),),
        pending=tuple(pending),
    )


@_register(
    "drop-producer", "multicast", "E101",
    "remove a load-bearing producer from one rank's epoch waits",
)
def _drop_producer(model: ScheduleModel) -> ScheduleModel:
    _need(
        model.fabric == "multicast" and any(model.producers),
        "a multicast fabric",
    )
    for rank, preds in enumerate(model.producers):
        for producer in preds:
            producers = list(model.producers)
            producers[rank] = tuple(p for p in preds if p != producer)
            mutated = replace(model, producers=tuple(producers))
            if _flags(mutated, "E101"):
                return mutated
    raise MutationUnsupported(
        "mutation needs a producer edge that carries a dependence"
    )


@_register(
    "producer-backedge", "multicast", "E102",
    "make a producer wait on its own consumer's epoch",
)
def _producer_backedge(model: ScheduleModel) -> ScheduleModel:
    _need(
        model.fabric == "multicast" and any(model.producers),
        "a multicast fabric",
    )
    for rank, preds in enumerate(model.producers):
        for producer in preds:
            producers = list(model.producers)
            producers[producer] = tuple(
                sorted(set(producers[producer]) | {rank})
            )
            return replace(model, producers=tuple(producers))
    raise MutationUnsupported("mutation needs a producer edge")


@_register(
    "self-producer", "multicast", "E102",
    "make a rank wait on its own epoch stamp",
)
def _self_producer(model: ScheduleModel) -> ScheduleModel:
    _need(model.fabric == "multicast", "a multicast fabric")
    _need(model.n_tasks > 0, "at least one tile")
    rank = model.owners[0]
    producers = list(model.producers)
    producers[rank] = tuple(sorted(set(producers[rank]) | {rank}))
    return replace(model, producers=tuple(producers))


@_register(
    "single-slot", "multicast", "E103",
    "shrink the boundary pool to one slot under a two-block credit lag",
)
def _single_slot(model: ScheduleModel) -> ScheduleModel:
    _need(model.staging, "double-buffered staging")
    return replace(model, n_slots=1)


@_register(
    "slot-overflow", "multicast", "E103",
    "grow one staged area past the slot capacity",
)
def _slot_overflow(model: ScheduleModel) -> ScheduleModel:
    _need(model.staging and model.slot_areas, "double-buffered staging")
    last = max(model.slot_areas, key=lambda a: a.offset)
    grown = replace(last, elems=model.slot_elems - last.offset + 1)
    areas = tuple(grown if a is last else a for a in model.slot_areas)
    return replace(model, slot_areas=areas)


@_register(
    "eager-credit", "multicast", "E102",
    "zero the slot-credit lag so staging waits on the same block's absorb",
)
def _eager_credit(model: ScheduleModel) -> ScheduleModel:
    _need(
        model.staging and any(model.producers),
        "double-buffered staging with consumers",
    )
    return replace(model, credit_lag=0)


def apply_mutation(
    model: ScheduleModel, name: str
) -> tuple[Mutation, ScheduleModel]:
    """Apply one named mutation; :class:`MutationUnsupported` when it does
    not fit this model (wrong fabric, nothing to corrupt)."""
    mutation = MUTATIONS.get(name)
    if mutation is None:
        raise MutationUnsupported(
            f"unknown mutation {name!r}; pick from {', '.join(MUTATIONS)}"
        )
    return mutation, mutation.apply(model)


def mutants(model: ScheduleModel):
    """Yield ``(mutation, mutated_model)`` for every applicable mutation."""
    for name in MUTATIONS:
        try:
            mutation, mutated = apply_mutation(model, name)
        except MutationUnsupported:
            continue
        yield mutation, mutated
