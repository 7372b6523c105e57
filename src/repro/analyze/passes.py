"""The lint-pass registry: static analyses over parsed programs.

Every pass is a function from a :class:`~repro.zpl.parser.Program` (or, for
block-scoped passes, a statement sequence) to a list of
:class:`~repro.analyze.diagnostics.Diagnostic`.  Passes *analyse only*: they
may parse, extract dependences, classify dimensions, and evaluate the α+β
model, but they never execute a program, never build kernel plans
(:mod:`repro.runtime.kernels` is deliberately not imported), and never write
array storage.

The registry covers three groups:

* **Legality** — the Section 2.2 conditions (``E001``–``E009``), reusing
  :func:`repro.compiler.legality.legality_diagnostics` plus the constructive
  over-constraint check (``E002``).
* **Lints** — unused declarations (``W101``–``W103``), redundant primes
  (``W104``), dead masks (``W105``), dead stores (``W106``), the α+β
  pipeline-hazard advisor (``W107``), the taskgraph-schedule advisor
  (``W108``), and the forced-multicast fan-out advisor (``W109``, only
  when ``REPRO_MULTICAST=1`` overrides the auto fabric selection).
* **Explanations** (``I301``/``I302``) — *why* fusion split a statement
  sequence, and why skewing found no legal time vector.  These are emitted
  by :func:`explain_program` (the CLI's ``explain`` command), not by plain
  linting.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.analyze.diagnostics import Because, Diagnostic, Label
from repro.compiler.fusion import can_fuse
from repro.compiler.legality import legality_diagnostics
from repro.compiler.loopstruct import derive_loop_structure, structure_exists
from repro.compiler.skew import (
    MAX_COEFF,
    MAX_SKEW_RANK,
    derive_time_vector,
    looped_dims,
    planes_independent,
)
from repro.compiler.udv import constraint_vectors, extract_dependences, true_vectors
from repro.compiler.wsv import DimClass, classify
from repro.errors import ReproError
from repro.machine.params import CRAY_T3E
from repro.models.pipeline_model import PipelineModel
from repro.runtime.kernels import native_obstacle
from repro.zpl.parser import Program
from repro.zpl.scan import ScanBlock
from repro.zpl.span import span_of
from repro.zpl.statements import Assign

#: Advisor defaults: processors assumed along the wavefront dimension, and
#: the predicted speedup below which pipelining is flagged as unprofitable.
HAZARD_PROCS = 4
HAZARD_SPEEDUP = 1.1

#: Taskgraph-advisor (W108) defaults: the analysis tiling (splits per
#: dimension), the fully-masked tile fraction above which dead-block pruning
#: pays, and the live-cost coefficient of variation above which work
#: stealing pays.
TG_ADVISOR_SPLITS = 4
TG_DEAD_FRACTION = 0.25
TG_COST_CV = 0.5


def _block_label(block: ScanBlock, index: int) -> str:
    return block.name or f"scan#{index}"


# ---------------------------------------------------------------------------
# Legality (E001-E009)
# ---------------------------------------------------------------------------
def pass_legality(program: Program) -> list[Diagnostic]:
    """The Section 2.2 checks plus implementation checks, per scan block."""
    out: list[Diagnostic] = []
    for index, block in enumerate(program.scan_blocks()):
        found = legality_diagnostics(block)
        for diagnostic in found:
            diagnostic.data.setdefault("block", _block_label(block, index))
        out.extend(found)
        if not found:  # condition (ii): only meaningful on well-formed blocks
            out.extend(_overconstrained(block, index))
    return out


def _overconstrained(block: ScanBlock, index: int) -> list[Diagnostic]:
    """Condition (ii): the constructive loop-structure existence check."""
    deps = extract_dependences(block.statements)
    constraints = constraint_vectors(deps)
    if structure_exists(constraints, block.rank):
        return []
    primed = [
        ref
        for stmt in block.statements
        for ref in stmt.expr.refs()
        if ref.primed
    ]
    span = next((s for s in map(span_of, primed) if s), None) or span_of(
        block.statements[0]
    )
    return [
        Diagnostic(
            "E002",
            "the directions on primed references over-constrain the scan "
            "block: no loop nest can respect every dependence",
            span=span,
            because=tuple(
                Because(
                    "udv",
                    f"{d.kind.value} dependence {d.vector} on "
                    f"{d.array!r} (S{d.src} -> S{d.dst})",
                )
                for d in deps
                if not d.is_loop_independent()
            ),
            hint="remove one of the conflicting primed shifts, or split "
            "the block so each part admits a traversal order",
            data={"block": _block_label(block, index)},
        )
    ]


# ---------------------------------------------------------------------------
# Unused declarations (W101-W103)
# ---------------------------------------------------------------------------
def pass_unused(program: Program) -> list[Diagnostic]:
    """Arrays, regions and directions declared but never referenced."""
    out: list[Diagnostic] = []
    for name in sorted(set(program.arrays) - program.used_arrays):
        out.append(
            Diagnostic(
                "W101",
                f"array {name!r} is never read, written or used as a mask",
                hint=f"remove {name!r} from the environment, or use it",
                data={"array": name},
            )
        )
    for name, span in program.declared_regions.items():
        if name not in program.used_regions:
            out.append(
                Diagnostic(
                    "W102",
                    f"region {name!r} is declared but never used",
                    span=span,
                    hint=f"delete the declaration of {name!r}",
                    data={"region": name},
                )
            )
    for name, span in program.declared_directions.items():
        if name not in program.used_directions:
            out.append(
                Diagnostic(
                    "W103",
                    f"direction {name!r} is declared but never used",
                    span=span,
                    hint=f"delete the declaration of {name!r}",
                    data={"direction": name},
                )
            )
    return out


# ---------------------------------------------------------------------------
# Redundant primes (W104)
# ---------------------------------------------------------------------------
def redundant_primes(
    statements: Sequence[Assign], block: str | None = None
) -> list[Diagnostic]:
    """Primed references whose prime does not change the dependence.

    A primed reference names the wavefront (new) value of its array.  When
    every statement writing that array is lexically *earlier* than the
    reading statement, the unprimed reference extracts the identical true
    dependence (see :mod:`repro.compiler.udv`) and the engines read the same
    storage — the prime is noise.  Primes of arrays written by the same or a
    later statement are load-bearing and never flagged.
    """
    writers: dict[int, list[int]] = {}
    for j, stmt in enumerate(statements):
        writers.setdefault(id(stmt.target), []).append(j)
    out: list[Diagnostic] = []
    for j, stmt in enumerate(statements):
        for ref in stmt.expr.refs():
            if not ref.primed:
                continue
            indices = writers.get(id(ref.array))
            if not indices or max(indices) >= j:
                continue
            name = ref.array.name or "<array>"
            out.append(
                Diagnostic(
                    "W104",
                    f"statement {j}: redundant prime on {name!r} — every "
                    f"write of {name!r} is lexically earlier, so the "
                    f"unprimed reference names the same wavefront value",
                    span=span_of(ref) or span_of(stmt),
                    because=(
                        Because(
                            "udv",
                            f"primed and unprimed reads of {name!r} both "
                            f"extract a true dependence with vector "
                            f"{tuple(-c for c in ref.offset)}",
                        ),
                    ),
                    hint="drop the prime",
                    data={"statement": j, "array": name}
                    | ({"block": block} if block else {}),
                )
            )
    return out


# ---------------------------------------------------------------------------
# Dead masks (W105) and dead stores (W106)
# ---------------------------------------------------------------------------
def _assigned_arrays(program: Program) -> set[int]:
    ids: set[int] = set()
    for item in program.items:
        statements = item.statements if isinstance(item, ScanBlock) else [item]
        for stmt in statements:
            ids.add(id(stmt.target))
    return ids


def pass_dead_masks(program: Program) -> list[Diagnostic]:
    """Masks that provably reject every store.

    Flagged only when the mask array is never assigned anywhere in the
    program *and* its current storage is zero everywhere on the covering
    region — then the masked statement can never store.  Reading storage is
    not execution; nothing is written.
    """
    assigned = _assigned_arrays(program)
    out: list[Diagnostic] = []
    for item in program.items:
        statements = item.statements if isinstance(item, ScanBlock) else [item]
        for stmt in statements:
            if stmt.mask is None or id(stmt.mask) in assigned:
                continue
            if np.any(stmt.mask.read(stmt.region) != 0):
                continue
            name = stmt.mask.name or "<array>"
            out.append(
                Diagnostic(
                    "W105",
                    f"dead mask: {name!r} is zero everywhere on "
                    f"{stmt.region!r} and the program never assigns it, so "
                    f"this statement can never store",
                    span=span_of(stmt),
                    hint=f"initialise {name!r} (or drop the 'with {name}' "
                    f"clause)",
                    data={"mask": name},
                )
            )
    return out


def _item_touches(item: Assign | ScanBlock, array_id: int) -> bool:
    statements = item.statements if isinstance(item, ScanBlock) else [item]
    for stmt in statements:
        if id(stmt.target) == array_id:
            return True
        if stmt.mask is not None and id(stmt.mask) == array_id:
            return True
        if any(id(ref.array) == array_id for ref in stmt.expr.refs()):
            return True
    return False


def pass_dead_stores(program: Program) -> list[Diagnostic]:
    """Top-level assignments whose value is overwritten before any read.

    The language has no control flow, so this is also the unreachable-effect
    check: a store is dead when a later top-level statement unconditionally
    overwrites the whole covered region and nothing in between (scan blocks
    included) reads, masks on, or partially rewrites the array.
    """
    out: list[Diagnostic] = []
    items = program.items
    for i, item in enumerate(items):
        if isinstance(item, ScanBlock):
            continue
        target_id = id(item.target)
        if any(id(ref.array) == target_id for ref in item.expr.refs()):
            continue  # self-referential update: the store is observable
        for later in items[i + 1 :]:
            if (
                isinstance(later, Assign)
                and id(later.target) == target_id
                and later.mask is None
                and later.region.covers(item.region)
                and not any(
                    id(ref.array) == target_id for ref in later.expr.refs()
                )
            ):
                name = item.target.name or "<array>"
                later_span = span_of(later)
                out.append(
                    Diagnostic(
                        "W106",
                        f"dead store to {name!r}: a later statement "
                        f"overwrites all of {item.region!r} before anything "
                        f"reads it",
                        span=span_of(item),
                        labels=()
                        if later_span is None
                        else (Label(later_span, "overwritten here"),),
                        because=(
                            Because(
                                "note",
                                f"the overwriting statement covers "
                                f"{later.region!r} unmasked",
                            ),
                        ),
                        hint="delete this statement",
                        data={"array": name},
                    )
                )
                break
            if _item_touches(later, target_id):
                break
    return out


# ---------------------------------------------------------------------------
# Pipeline-hazard advisor (W107)
# ---------------------------------------------------------------------------
def pipeline_hazard(
    statements: Sequence[Assign],
    block: str | None = None,
    boundary_rows: int | None = None,
    procs: int = HAZARD_PROCS,
    params=CRAY_T3E,
) -> list[Diagnostic]:
    """Warn when the α+β model predicts pipelining is unprofitable.

    Uses the Section 4 Model2 at the block's actual extents with the
    optimal block size (Eq. (1) via exact search): when even the *best*
    pipelined schedule on ``procs`` processors is predicted slower than
    ``HAZARD_SPEEDUP`` times serial, the scan block's shape (usually: too
    small along the wavefront for the per-message startup α) makes the
    pipeline a hazard, not a win.
    """
    if not statements:
        return []
    region = statements[0].region
    deps = extract_dependences(statements)
    classes = classify(true_vectors(deps), region.rank)
    pipelined = [k for k, c in enumerate(classes) if c is DimClass.PIPELINED]
    if not pipelined:
        return []
    wave = pipelined[0]
    n = region.extent(wave)
    cols = max(
        (region.extent(k) for k in range(region.rank) if k != wave),
        default=n,
    )
    if boundary_rows is None:
        boundary_rows = max(
            1,
            len(
                {
                    id(ref.array)
                    for stmt in statements
                    for ref in stmt.expr.refs()
                    if ref.primed
                }
            ),
        )
    try:
        model = PipelineModel(
            params, n=n, p=procs, boundary_rows=boundary_rows, cols=cols
        )
        best = model.optimal_block_size()
        speedup = model.speedup(best)
    except ReproError:
        return []
    if speedup >= HAZARD_SPEEDUP:
        return []
    return [
        Diagnostic(
            "W107",
            f"pipelining this scan block is predicted unprofitable: "
            f"speedup {speedup:.2f}x over serial at p={procs} even at the "
            f"optimal block size b*={best}",
            span=span_of(statements[0]),
            because=(
                Because(
                    "model",
                    f"wavefront extent n={n}, width={cols}, "
                    f"boundary rows m={boundary_rows}",
                ),
                Because(
                    "model",
                    f"alpha={model.alpha:g}, beta={model.beta:g} "
                    f"(element-compute units): T_serial="
                    f"{model.serial_time():.0f}, "
                    f"T_pipe(b*)={model.predicted_time(best):.0f}",
                ),
            ),
            hint="grow the problem, or run the sequential engine for this "
            "block",
            data={
                "speedup": round(speedup, 4),
                "block_size": best,
                "n": n,
                "cols": cols,
                "boundary_rows": boundary_rows,
                "p": procs,
            }
            | ({"block": block} if block else {}),
        )
    ]


# ---------------------------------------------------------------------------
# Taskgraph advisor (W108)
# ---------------------------------------------------------------------------
def _advisor_masks(statements: Sequence[Assign]) -> list | None:
    """The masks that decide tile liveness, or ``None`` when the block gives
    the advisor nothing to reason about.

    Mirrors the soundness rule of
    :func:`repro.compiler.taskdag._prunable_masks` at the statement level:
    every statement must carry a mask and no mask array may be written by
    the block — otherwise plan-time mask values say nothing about run-time
    liveness and the advisor stays silent.
    """
    region = statements[0].region
    written = {id(stmt.target) for stmt in statements}
    masks = []
    for stmt in statements:
        if (
            stmt.mask is None
            or id(stmt.mask) in written
            or stmt.region.ranges != region.ranges
        ):
            return None
        masks.append(stmt.mask)
    return masks or None


def taskgraph_advisor(
    statements: Sequence[Assign],
    block: str | None = None,
    procs: int = HAZARD_PROCS,
) -> list[Diagnostic]:
    """Warn when ``schedule="taskgraph"`` is predicted to beat pipelining.

    The pipelined schedule fires every block and gives every rank the same
    static share; the task-graph schedule prunes fully-masked tiles and
    steals around load imbalance.  This advisor predicts when that matters,
    from mask values alone: it tiles the block's region
    (``TG_ADVISOR_SPLITS`` balanced slabs per dimension, the same
    wave x chunk shape the scheduler would use) and counts live elements
    per tile.

    * **Dead fraction** — the fraction of tiles where every mask is zero.
      At or above ``TG_DEAD_FRACTION`` the pruner would skip that share of
      the schedule outright (the banded-alignment case).
    * **Cost variance** — the coefficient of variation of live-element
      counts across the remaining tiles.  At or above ``TG_COST_CV`` the
      static pipelined shares are unbalanced enough that stealing pays
      (the density-gradient case).
    """
    if not statements:
        return []
    deps = extract_dependences(statements)
    region = statements[0].region
    classes = classify(true_vectors(deps), region.rank)
    if not any(c is DimClass.PIPELINED for c in classes):
        return []  # no wavefront: nothing for either schedule to pipeline
    masks = _advisor_masks(statements)
    if masks is None:
        return []

    tiles = [region]
    for dim in range(region.rank):
        splits = min(TG_ADVISOR_SPLITS, region.extent(dim))
        tiles = [
            piece
            for tile in tiles
            for piece in tile.split(dim, max(1, splits))
            if not piece.is_empty()
        ]
    costs = []
    for tile in tiles:
        live = np.zeros(tile.shape, dtype=bool)
        for mask in masks:
            live |= mask.read(tile) != 0
        costs.append(int(np.count_nonzero(live)))
    n_dead = sum(1 for cost in costs if cost == 0)
    dead_fraction = n_dead / len(costs)
    live_costs = np.array([c for c in costs if c > 0], dtype=float)
    cost_cv = (
        float(live_costs.std() / live_costs.mean()) if live_costs.size else 0.0
    )

    data = {
        "dead_fraction": round(dead_fraction, 4),
        "cost_cv": round(cost_cv, 4),
        "tiles": len(costs),
        "p": procs,
    } | ({"block": block} if block else {})
    hint = (
        'run this block with schedule="taskgraph" (or REPRO_SCHEDULE='
        "taskgraph) to prune dead tiles and steal around the imbalance"
    )
    if dead_fraction >= TG_DEAD_FRACTION:
        return [
            Diagnostic(
                "W108",
                f"{n_dead} of {len(costs)} analysis tiles are fully masked "
                f"off ({dead_fraction:.0%}): the pipelined schedule computes "
                f"them anyway, the task-graph schedule prunes them",
                span=span_of(statements[0]),
                because=(
                    Because(
                        "note",
                        f"a {TG_ADVISOR_SPLITS}-way per-dimension tiling of "
                        f"{region!r} was probed against the block's masks",
                    ),
                ),
                hint=hint,
                data=data | {"branch": "dead-fraction"},
            )
        ]
    if cost_cv >= TG_COST_CV:
        return [
            Diagnostic(
                "W108",
                f"live work is unevenly masked across the region "
                f"(per-tile cost CV {cost_cv:.2f}): static pipelined shares "
                f"will load-imbalance at p={procs}",
                span=span_of(statements[0]),
                because=(
                    Because(
                        "note",
                        f"live elements per analysis tile range "
                        f"{int(live_costs.min())}..{int(live_costs.max())} "
                        f"(mean {live_costs.mean():.0f})",
                    ),
                ),
                hint=hint,
                data=data | {"branch": "cost-variance"},
            )
        ]
    return []


def multicast_advisor(
    block: ScanBlock,
    label: str | None = None,
    procs: int = HAZARD_PROCS,
) -> list[Diagnostic]:
    """Warn when ``REPRO_MULTICAST=1`` forces the fabric onto fan-out < 2.

    The multicast fabric pays off when one producer's boundary feeds two or
    more consumers; at uniform fan-out 1 it is a straight chain wearing
    epoch-stamp overhead (stamps, parked-flag checks) for nothing — the
    pipe-token fabric is the cheaper identical schedule.  The auto mode
    (``REPRO_MULTICAST`` unset) already makes that call per plan; this
    advisor fires only when the env knob overrides it to ``on``, reading the
    groups off the :class:`~repro.parallel.plan.RunPlan` the executor would
    resolve for a rank-1 chain of ``procs`` workers.
    """
    try:
        from repro.compiler.lowering import compile_scan
        from repro.compiler.schedule import plan_wavefront
        from repro.parallel.collectives import resolve_multicast
        from repro.parallel.plan import resolve_run

        if resolve_multicast(None) != "on":
            return []
        compiled = compile_scan(block)
        plan = plan_wavefront(compiled, None)
        if plan.chunk_dim is None:
            return []  # cannot pipeline at all; the fabric never engages
        run_plan = resolve_run(
            compiled, max(2, min(procs, plan.rows)), schedule="pipelined",
            static=True,
        )
    except ReproError:
        return []  # the executor will explain; the advisor stays silent
    groups, grid = run_plan.groups, run_plan.grid
    if groups is None or groups.max_fanout >= 2:
        return []
    return [
        Diagnostic(
            "W109",
            f"REPRO_MULTICAST=1 forces the multicast fabric, but every "
            f"producer in this block feeds at most one consumer "
            f"(uniform fan-out {groups.max_fanout}): the epoch fabric "
            f"adds stamp and wake-up overhead over plain pipe tokens",
            span=span_of(block.statements[0]),
            because=(
                Because(
                    "model",
                    f"boundary projection on a {grid.dims[0]}-rank chain: "
                    f"max consumer tiles per stamp is {groups.max_fanout}, "
                    f"and the fabric only amortises at 2 or more",
                ),
            ),
            hint="unset REPRO_MULTICAST (auto mode picks pipes here), or "
            "reshape the block so a boundary feeds several ranks",
            data={
                "max_fanout": groups.max_fanout,
                "p": grid.dims[0],
            }
            | ({"block": label} if label else {}),
        )
    ]


def pass_block_lints(program: Program) -> list[Diagnostic]:
    """Block-scoped lints (W104, W107, W108, W109) over every scan block."""
    out: list[Diagnostic] = []
    for index, block in enumerate(program.scan_blocks()):
        if legality_diagnostics(block):
            continue  # errors already reported; lints would be noise
        label = _block_label(block, index)
        out.extend(redundant_primes(block.statements, block=label))
        out.extend(pipeline_hazard(block.statements, block=label))
        out.extend(taskgraph_advisor(block.statements, block=label))
        out.extend(multicast_advisor(block, label=label))
    return out


# ---------------------------------------------------------------------------
# Explanations (I301, I302)
# ---------------------------------------------------------------------------
def explain_fusion(statements: Sequence[Assign]) -> list[Diagnostic]:
    """Why adjacent top-level statements do not fuse into one loop nest."""
    out: list[Diagnostic] = []
    group: list[Assign] = []
    for j, stmt in enumerate(statements):
        if not group or can_fuse(group + [stmt]):
            group.append(stmt)
            continue
        prev = group[-1]
        if stmt.region != prev.region:
            reason = (
                f"covering regions differ: {prev.region!r} vs {stmt.region!r}"
            )
            hint = "cover both statements with the same region to fuse them"
        elif stmt.expr.has_prime():
            reason = "the statement uses a primed reference"
            hint = "primed references require a scan block, not fusion"
        else:
            deps = extract_dependences(group + [stmt], primed_allowed=False)
            vectors = [
                d for d in deps if not d.is_loop_independent()
            ]
            reason = (
                "the combined dependences admit no loop structure: "
                + "; ".join(
                    f"{d.kind.value}{d.vector} on {d.array!r}" for d in vectors
                )
            )
            hint = "reorder or split the statements so the loop nest exists"
        out.append(
            Diagnostic(
                "I301",
                f"statement {j} starts a new fusion group: {reason}",
                span=span_of(stmt),
                because=(
                    Because("note", f"previous group ends at statement {j-1}"),
                ),
                hint=hint,
                data={"statement": j},
            )
        )
        group = [stmt]
    return out


def explain_skew(
    statements: Sequence[Assign], block: str | None = None
) -> list[Diagnostic]:
    """Why hyperplane skewing is (in)eligible for a scan-block body."""
    if not statements:
        return []
    region = statements[0].region
    deps = extract_dependences(statements)
    classes = classify(true_vectors(deps), region.rank)
    try:
        loops = derive_loop_structure(
            constraint_vectors(deps), classes, region.rank
        )
    except ReproError:
        return []  # over-constrained: E002 already explains everything
    dims = looped_dims(loops)
    # A block with no looped dimension is one ufunc pass per statement and
    # keeps numpy by design; any other block that would is a W111.
    obstacle = native_obstacle(statements) if dims else None
    data = {"looped_dims": list(dims), "native": bool(dims) and obstacle is None}
    if block:
        data["block"] = block
    w111 = [] if obstacle is None else [
        Diagnostic(
            "W111",
            f"native loop nest unavailable: {obstacle} — the block runs its "
            f"numpy lowering (one ufunc call per node per row-step)",
            span=span_of(statements[0]),
            hint="results are identical; only the constant factor changes "
                 "(docs/performance.md, \"The per-row-step floor\")",
            data={"reason": obstacle} | ({"block": block} if block else {}),
        )
    ]
    if len(dims) < 2:
        return [
            Diagnostic(
                "I302",
                f"skew ineligible: only {len(dims)} looped dimension(s) — "
                f"the row loop already vectorises the parallel subspace",
                span=span_of(statements[0]),
                hint="nothing to do; the row loop is already the whole nest",
                data=data,
            )
        ] + w111
    if len(dims) > MAX_SKEW_RANK:
        return [
            Diagnostic(
                "I302",
                f"skew ineligible: {len(dims)} looped dimensions exceed the "
                f"supported maximum of {MAX_SKEW_RANK}",
                span=span_of(statements[0]),
                hint="reduce the rank or accept the flat point loop",
                data=data,
            )
        ] + w111
    skew = derive_time_vector(loops, deps, region.shape)
    if skew is None:
        return [
            Diagnostic(
                "I302",
                f"skew ineligible: no legal time vector with coefficients "
                f"up to {MAX_COEFF} over dimensions {dims}",
                span=span_of(statements[0]),
                because=tuple(
                    Because(
                        "udv",
                        f"{d.kind.value} dependence {d.vector} on {d.array!r}",
                    )
                    for d in deps
                    if not d.is_loop_independent()
                ),
                hint="the block runs with the flat point loop",
                data=data,
            )
        ] + w111
    planes = skew.planes(region.shape)
    sliced = [d for d in dims if d not in skew.dims]
    coefficient = dict(zip(skew.dims, skew.tau))
    # The kernel layer's decision, dependence by dependence: the ones a
    # point-by-point sweep of a plane would break.
    ties = [d for d in deps if not planes_independent(skew.tau, skew.dims, (d,))]
    data |= {
        "tau": [coefficient.get(d, 0) for d in dims],
        "axis_aligned": skew.lowering == "rows",
        "lowering": skew.lowering or "flat",
        "planes": planes,
        "native_order": "planes" if skew.lowering and not ties else "loop",
    }
    if skew.lowering is None:
        return [
            Diagnostic(
                "I302",
                f"skew ineligible: the {planes} planes of {skew!r} are not "
                f"lines (three or more components, or no unit coefficient), "
                f"so neither numpy nor the native nest sweeps them",
                span=span_of(statements[0]),
                hint="the native loop nest runs the block in loop order; "
                     "without a C compiler the flat point loop does",
                data=data,
            )
        ] + w111
    if skew.lowering == "rows":
        how = (
            f"dimension {skew.dims[0]} carries every dependence — a row loop "
            f"of {planes} steps, no hyperplane gathers"
        )
    else:
        how = f"{planes} sheared diagonals over dimensions {skew.dims}"
        if sliced:
            how += f", looped dimension(s) {sliced} carrying nothing"
    if ties:
        how += (
            "; numpy evaluates each plane whole, but the native nest keeps "
            "loop order: a dependence ties inside a plane"
        )
    else:
        how += "; the native nest runs plane by plane, numpy slices each plane"
    return [
        Diagnostic(
            "I302",
            f"skew eligible: {skew!r} — {how}",
            span=span_of(statements[0]),
            because=tuple(
                Because(
                    "udv",
                    f"{d.kind.value} dependence {d.vector} on {d.array!r} "
                    f"ties inside a plane (τ·v = 0)",
                )
                for d in ties
            ),
            hint="every entry point runs this plan; no option selects it",
            data=data,
        )
    ] + w111


def explain_program(program: Program) -> list[Diagnostic]:
    """The I-series explanations for a whole program."""
    out: list[Diagnostic] = []
    top_level = [item for item in program.items if isinstance(item, Assign)]
    out.extend(explain_fusion(top_level))
    for index, block in enumerate(program.scan_blocks()):
        if legality_diagnostics(block):
            continue
        out.extend(
            explain_skew(block.statements, block=_block_label(block, index))
        )
    return out


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
#: The registry, in run order.  Keys are stable pass names (CLI ``--pass``).
PASSES: dict[str, Callable[[Program], list[Diagnostic]]] = {
    "legality": pass_legality,
    "unused": pass_unused,
    "block-lints": pass_block_lints,
    "dead-masks": pass_dead_masks,
    "dead-stores": pass_dead_stores,
}


def lint_program(
    program: Program, only: Sequence[str] | None = None
) -> list[Diagnostic]:
    """Run the registry over a parsed program (no execution, ever).

    ``only`` restricts to a subset of pass names.  Diagnostics come back in
    pass order, errors first within equal severity left as-is (stable).
    """
    names = list(PASSES) if only is None else list(only)
    out: list[Diagnostic] = []
    for name in names:
        out.extend(PASSES[name](program))
    return out


def lint_block(block: ScanBlock, name: str | None = None) -> list[Diagnostic]:
    """Lint a single DSL-built scan block (no Program wrapper needed)."""
    label = name or block.name or "scan"
    out = legality_diagnostics(block)
    for diagnostic in out:
        diagnostic.data.setdefault("block", label)
    if out:
        return out
    out = _overconstrained(block, 0)
    if out:
        return out
    out = redundant_primes(block.statements, block=label)
    out.extend(pipeline_hazard(block.statements, block=label))
    out.extend(taskgraph_advisor(block.statements, block=label))
    out.extend(multicast_advisor(block, label=label))
    return out


def explain_block(block: ScanBlock, name: str | None = None) -> list[Diagnostic]:
    """Explanations (I302 and legality/E002, if any) for one scan block."""
    out = lint_block(block, name=name)
    if any(d.severity.value == "error" for d in out):
        return out
    out.extend(explain_skew(block.statements, block=name or block.name))
    return out
