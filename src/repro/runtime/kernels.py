"""Ahead-of-time statement kernels: generate the code once, bind regions cheap.

:func:`execute_vectorized` runs a compiled scan block.  Interpreting it per
carried iteration would re-walk the expression tree, re-build shifted
:class:`~repro.zpl.regions.Region` objects, re-derive numpy slices through
``ZArray._slices`` and re-run the ``np.shares_memory`` aliasing check every
row.  All of that is loop-invariant, so this module hoists each piece to the
outermost level it is invariant at:

* **template -> source.**  A :class:`KernelTemplate` is derived once per
  :class:`CompiledScan` (cached by object identity, evicted with the plan).
  It lowers the statement list to the *source of one straight-line Python
  function* (:class:`_Emitter`), compiled once and independent of the
  executed region: the loop nest over the carried dimensions, one ufunc call
  per expression node, the root ufunc of a statement writing straight into
  the target row through ``out=``, ``np.where`` mask blending, contracted
  temporaries as locals, and the ``values.copy()``-or-not aliasing decision
  (:func:`statement_needs_copy`) already taken.  The text stays on
  :attr:`KernelTemplate.source` and in :mod:`linecache`, so tracebacks and
  profilers show real lines.
* **region -> views.**  ``template.instantiate(region)`` only *binds*: per
  distinct ``(array, offset)`` access it validates storage coverage and
  slices one view — parallel dimensions sliced, carried dimensions moved to
  the front, pre-offset by the shift and pre-reversed for a descending
  traversal — so iteration ``k`` reads row ``v[k]`` with no arithmetic.  The
  bound :class:`KernelPlan` objects are cached per region inside the template
  (the autotuner, the simulator and the pipelined workers execute the same
  block regions thousands of times) and validated against the arrays'
  current storage bindings, so a rebound ``_data`` transparently rebinds
  while in-place restores (:class:`~repro.runtime.interp.ArraySnapshot`)
  keep hitting the cache.
* **iteration -> nothing but ufunc calls.**  What is left inside the loop is
  one integer index per view and one C call per expression node.

Multi-dependence wavefronts get a second plan family: when two or more
looped dimensions are non-parallel (Needleman-Wunsch, Smith-Waterman,
multi-direction recurrences) the flat plans above degenerate into an
O(n·m) point loop, so the template additionally derives a hyperplane
schedule (:mod:`repro.compiler.skew`: traversal signs scaled by 0..3,
fewest planes first) and, when numpy can sweep it, generates a *skewed*
kernel from the same emitter.  A τ with one nonzero component — a single
dimension carries every dependence — is lowered as the flat family's row
loop over that dimension alone, every other dimension sliced.  A τ with two
components, one of them ±1 — the anti-diagonal τ = (1, 1) of every
alignment DP — keeps that same straight-line body: a diagonal of a strided
array is a strided array, so the bind *shears* each view
(``W[t, q] = V[t - c·q, q]``, one ``as_strided`` call) and plane ``t`` is
the slice ``W[t, a:b]``, read and stored in place.  Both are O(n+m)
interpreter iterations instead of O(n·m), with masks and contraction
spelled exactly as in the flat family; :attr:`repro.compiler.skew.Skew.lowering`
is the one place that names which applies, and a plane that is not a line
(three or more components, or a pair with no unit coefficient) has no numpy
sweep: it runs the flat family.

**The native lowering.**  Every numpy lowering above approximates, with one
ufunc call per node per row, the loop nest the paper's compiler emits.  Where
the host has a C compiler the emitter's second back end (:class:`_CEmitter`)
writes that nest itself, statements in lexical order at each point.  A block
with a skew whose planes are independent
(:func:`~repro.compiler.skew.planes_independent`: no dependence ties inside
a plane) gets the *plane nest*: an outer loop over the planes, an inner loop
over the points of one plane — no two of which wait on each other, so the
CPU overlaps them instead of running at the recurrence's latency — and every
other dimension inside those in ``loops.order``.  Any other block gets
exactly the nest :func:`~repro.runtime.loopnest.execute_loopnest` runs, every
dimension in ``loops.order``.  Either is one C function over the same slots
(base pointer and element strides per ``(array, offset)`` view, with
``loops.signs`` folded in; extents, start coordinates and signs are run-time
arguments, so the text is region- and shape-independent), and
:mod:`repro.runtime.native` builds it once per machine behind a source-hash
disk cache.  It is a *lowering*, not a plan family: it runs for either
family whenever it exists, and :func:`plan_kind` still answers
``flat``/``skewed``.  Bit-identity defines what it covers: float64 storage
and exactly rounded operators only (``+ - * /``, unary ``-``, ``abs``,
``sqrt``, ``floor``/``ceil``, ``max``/``min`` with numpy's NaN and ±0
choices, comparisons, ``where``); anything else — and any
block with no looped dimension, which is already one ufunc pass per
statement — keeps the numpy lowering, counted in ``KERNEL_STATS.fallbacks``
and reported by ``repro.analyze explain`` as W111 when that was not the plan.

**The host picks the lowering; nothing else does.**
:func:`execute_vectorized`, :class:`PlanRunner` and the worker loops built
on it run the native nest where the host builds it.  Otherwise they run
numpy: the ``rows``/``shear`` sweep when the block has a line-shaped skew,
the flat row loop when it has none.  There is no knob, because every
lowering is bit-identical to
:func:`~repro.runtime.loopnest.execute_loopnest` and the choice moves only
the constant factor.  ``engine=`` survives on :func:`execute_vectorized` and
:func:`plan_kind` as ``None`` or ``"kernel"`` for callers that still pass
it; any other value is refused.  Every node of a compiled block is
expressible (lowering hoists the parallel operators), so the template
refuses anything else when it is built.

:func:`plan_fingerprint` names a lowered plan by *structure* (region, loop
nest, statement trees with arrays numbered in first-occurrence order) so
that equal work is recognised across process boundaries: a pickled copy of
a plan fingerprints identically to its original, which is what lets the
persistent worker pool (:mod:`repro.parallel.pool`) key its per-worker plan
caches without shipping object identity.
"""

from __future__ import annotations

import hashlib
import linecache
import math
import time
import weakref
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.compiler.lowering import CompiledScan
from repro.compiler.skew import derive_skew, planes_independent
from repro.compiler.wsv import DimClass
from repro.errors import ArrayError, ExpressionError, MachineError
from repro.obs.live.context import current_tags
from repro.obs.live.flight import FLIGHT
from repro.obs.trace import NULL_TRACER
from repro.runtime import native
from repro.zpl.arrays import ZArray
from repro.zpl.expr import (
    BinOp, Const, IndexExpr, Node, ParallelOp, Ref, UnOp, Where,
)
from repro.zpl.regions import Region
from repro.zpl.statements import Assign

#: Plans kept per template and lowering.  A plan is a tuple of views (or one
#: packed argument block), so the cap only has to exceed the block regions one
#: decomposition cycles through (a p=16 simulator sweep of Tomcatv 129^2
#: touches 460).
PLAN_CACHE_CAP = 1024


def _check_engine(engine: str | None) -> None:
    """Refuse any ``engine=`` but the default: the host picks the lowering."""
    if engine not in (None, "kernel"):
        raise MachineError(
            f"unknown engine {engine!r}: the host picks the lowering, so only "
            f"None or 'kernel' is accepted"
        )


class KernelStats:
    """Process-wide cache counters (mirrored into tracers when tracing)."""

    __slots__ = (
        "template_builds",
        "plan_builds",
        "plan_hits",
        "plan_invalidations",
        "fallbacks",
        "skew_plan_builds",
        "skew_plan_hits",
        "hyperplanes",
        "batch_dispatches",
        "batch_items",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.template_builds = 0
        self.plan_builds = 0
        self.plan_hits = 0
        self.plan_invalidations = 0
        self.fallbacks = 0
        self.skew_plan_builds = 0
        self.skew_plan_hits = 0
        self.hyperplanes = 0
        self.batch_dispatches = 0
        self.batch_items = 0

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


#: Module-wide counters: tests and benchmarks read (and reset) these.
KERNEL_STATS = KernelStats()


# ---------------------------------------------------------------------------
# Compile-time aliasing analysis
# ---------------------------------------------------------------------------
def statement_needs_copy(stmt: Assign) -> bool:
    """Decide the ``values.copy()`` question once per plan, not once per row.

    Only a *root-level* :class:`Ref` can evaluate to a view of array storage —
    every other node allocates a fresh array (ufuncs, ``np.where``, reduction
    copies).  A masked store never needs the copy either: the ``np.where``
    blend allocates before anything is written.  A contracted source needs
    no rule of its own: once defined it is an emitter local, always a fresh
    array or a ``.copy()`` snapshot, and before that it reads its own
    storage, which the overlap test below sees like any other array's.
    """
    expr = stmt.expr
    if not isinstance(expr, Ref) or stmt.mask is not None:
        return False
    return bool(np.shares_memory(expr.array._data, stmt.target._data))


def _unexpressible(node: Node, rank: int) -> Node | None:
    """The first node under ``node`` the kernel builder cannot express (a
    parallel operator, or an index past ``rank``), or ``None``."""
    if isinstance(node, IndexExpr):
        return node if node.dim >= rank else None
    if not isinstance(node, (Const, Ref, BinOp, UnOp, Where)):
        return node
    return next(
        filter(None, (_unexpressible(c, rank) for c in node.children())), None
    )


def _check_expressible(statements, rank: int) -> None:
    """Raise the error the tree walk would for a node no kernel expresses."""
    for stmt in statements:
        node = _unexpressible(stmt.expr, rank)
        if isinstance(node, IndexExpr):
            raise ExpressionError(
                f"index dimension {node.dim} out of range for rank {rank}"
            )
        if node is not None:
            raise MachineError(
                f"kernel builder cannot express {type(node).__name__} nodes; "
                f"compile the block so its parallel operators are hoisted"
            )


# ---------------------------------------------------------------------------
# Code generation: one straight-line function per template and plan family
# ---------------------------------------------------------------------------
#: Root operators whose ufunc may write the target row through ``out=``:
#: exactly rounded arithmetic only, so the stored bits cannot depend on which
#: inner loop numpy picks for the output's strides.
_OUT_OPS = frozenset(("+", "-", "*", "/", "max", "min", "abs"))

_COMPARISONS = frozenset(("<", "<=", ">", ">=", "==", "!="))


class _Emitter:
    """Lowers a statement list to the source of one region-independent function.

    The function's signature is ``kernel(N, V)``.  ``V`` is the tuple of
    region-bound *slots* the emitter asked for, in :attr:`slots` order: one
    pre-sliced storage view per distinct ``(array, offset)`` access, the
    coordinate table (``coords``; a sheared ``grid`` under ``shear``) of every
    dimension an :class:`IndexExpr` names, and the slab shape when a
    contracted temporary must be broadcast.  Flat kernels
    take the trip counts as ``N``, loop ``k0, k1, ...`` over them and bind
    each view's row once per iteration (``r3 = v3[k0]`` — a live view, so
    later statements see earlier stores).  A ``shear`` kernel is the same
    body over sheared views: ``N`` holds the ``(t, a, b)`` range of every
    plane and a row is ``r3 = v3[t, a:b]`` (looped-dimension coordinate grids
    are bound like views).  Everything else — expression trees, mask
    blending, contraction, the copy-or-not decision — is spelled identically
    for both lowerings.
    """

    def __init__(self, looped: tuple[int, ...], rank: int,
                 contracted_ids: frozenset[int], lowering: str):
        self.looped = looped
        self.rank = rank
        self.contracted_ids = contracted_ids
        #: :attr:`Skew.lowering` of the family (``rows`` for flat plans).
        self.lowering = lowering
        self.slots: list[tuple] = []
        self._slot_of: dict[tuple, int] = {}
        self.namespace: dict[str, object] = {
            "where": np.where, "broadcast_to": np.broadcast_to,
            "asarray": np.asarray, "inf": math.inf, "nan": math.nan,
        }
        #: id(contracted array) -> local name, once a statement defined it:
        #: a read earlier in the iteration still reads storage.
        self.locals: dict[int, str] = {}
        self.body: list[str] = []

    def _slot(self, key: tuple, spec: tuple) -> int:
        j = self._slot_of.get(key)
        if j is None:
            j = self._slot_of[key] = len(self.slots)
            self.slots.append(spec)
        return j

    def _view(self, array: ZArray, offset: tuple[int, ...]) -> int:
        return self._slot(("view", id(array), offset), ("view", array, offset))

    def _store(self, j: int, value: str) -> None:
        self.body.append(f"r{j}[...] = {value}")

    def _call(self, node: BinOp | UnOp | Where, extra: str = "") -> str:
        fn = np.where if isinstance(node, Where) else node._fn
        self.namespace[fn.__name__] = fn
        args = ", ".join(self.expr(child) for child in node.children())
        return f"{fn.__name__}({args}{extra})"

    def expr(self, node: Node) -> str:
        if isinstance(node, Const):
            return repr(node.value)
        if isinstance(node, Ref):
            local = self.locals.get(id(node.array))
            if local is not None:
                return local
            return f"r{self._view(node.array, tuple(node.offset))}"
        if isinstance(node, (BinOp, UnOp, Where)):
            return self._call(node)
        if isinstance(node, IndexExpr):
            if node.dim in self.looped and self.lowering == "shear":
                return f"r{self._slot(('grid', node.dim), ('grid', node.dim))}"
            j = self._slot(("coords", node.dim), ("coords", node.dim))
            if node.dim not in self.looped:
                return f"v{j}"
            return f"v{j}[k{self.looped.index(node.dim)}]"
        raise MachineError(
            f"kernel builder cannot express {type(node).__name__} nodes"
        )

    def _dense(self, node: Node) -> bool:
        """True when ``node`` surely yields a float64 array of the slab shape."""
        if isinstance(node, Ref):
            return node.array.dtype == np.float64
        if isinstance(node, BinOp) and node.op in _COMPARISONS:
            return False
        if isinstance(node, Where):
            return self._dense(node.if_true) or self._dense(node.if_false)
        return any(self._dense(child) for child in node.children())

    def statement(self, stmt: Assign, needs_copy: bool) -> None:
        expr = stmt.expr
        tid = id(stmt.target)
        if tid in self.contracted_ids:
            value = self.expr(expr)
            if isinstance(expr, Ref) and id(expr.array) not in self.locals:
                value += ".copy()"  # a live row view: later stores would show
            if not self._dense(expr):
                shape = f"v{self._slot(('shape',), ('shape',))}"
                if self.lowering != "rows":  # one leading plane axis
                    shape = f"(b - a,) + {shape}"
                value = f"broadcast_to(asarray({value}, dtype=float), {shape})"
            name = self.locals.setdefault(tid, f"c{len(self.locals)}")
            self.body.append(f"{name} = {value}")
            return
        zero = (0,) * self.rank
        t = self._view(stmt.target, zero)
        if stmt.mask is not None:
            keep = self._view(stmt.mask, zero)
            self._store(t, f"where(r{keep} != 0, {self.expr(expr)}, r{t})")
        elif needs_copy:
            self._store(t, f"{self.expr(expr)}.copy()")
        elif (
            stmt.target.dtype == np.float64
            and isinstance(expr, (BinOp, UnOp))
            and expr.op in _OUT_OPS
        ):
            self.body.append(self._call(expr, f", out=r{t}"))
        else:
            self._store(t, self.expr(expr))

    def source(self, tag: str) -> str:
        lines = [f"def kernel(N, V):  # {tag}"]
        if self.slots:
            names = "".join(f"v{j}, " for j in range(len(self.slots)))
            lines.append(f"    ({names}) = V")
        shear = self.lowering == "shear"
        loops = range(len(self.looped))
        if shear:
            lines.append("    for t, a, b in N:")
        else:
            if loops:
                lines.append("    (" + "".join(f"n{k}, " for k in loops) + ") = N")
            lines += ["    " * (k + 1) + f"for k{k} in range(n{k}):" for k in loops]
        depth = len(loops) + 1 if self.lowering == "rows" else 2
        row = "[t, a:b]" if shear else (
            "[" + ", ".join(f"k{k}" for k in loops) + "]" if loops else ""
        )
        body = [
            f"r{j} = v{j}{row}"
            for j, slot in enumerate(self.slots) if slot[0] in ("view", "grid")
        ] + self.body
        pad = "    " * depth
        return "\n".join(lines + [pad + line for line in body]) + "\n"


#: What the C back end writes per operator: exactly rounded, so the stored
#: bits match numpy's whatever the compiler (no fast-math, no contraction).
_C_BINOPS = {op: f"({{}} {op} {{}})" for op in ("+", "-", "*", "/", *_COMPARISONS)}
_C_BINOPS |= {"max": "mx({}, {})", "min": "mn({}, {})"}
_C_UNOPS = {"-": "(-{})", "abs": "fabs({})", "sqrt": "sqrt({})",
            "floor": "floor({})", "ceil": "ceil({})"}

#: ``np.maximum``/``np.minimum`` as numpy's x86 loops compute them (and as
#: ``evaluate_at`` therefore does): a NaN first operand wins, otherwise an
#: unordered or *equal* comparison yields the second — so ``max(0.0, -0.0)``
#: is ``-0.0``.  Not C's ``fmax``/``fmin``, which drop NaNs.
_C_PRELUDE = """\
#include <math.h>
static inline double mx(double a, double b) { double m = a > b ? a : b; return a != a ? a : m; }
static inline double mn(double a, double b) { double m = a < b ? a : b; return a != a ? a : m; }
"""


def _c_const(value: float) -> str:
    """A C literal with exactly ``value``'s bits (hex floats; builtins for
    the non-finite ones)."""
    if math.isfinite(value):
        return f"({value.hex()})"
    builtin = '__builtin_nan("")' if math.isnan(value) else "__builtin_inf()"
    return f"({'-' if math.copysign(1.0, value) < 0 else ''}{builtin})"


def _is_bool(node: Node) -> bool:
    """True when numpy evaluates ``node`` to booleans, not float64."""
    if isinstance(node, Where):
        return _is_bool(node.if_true) and _is_bool(node.if_false)
    return isinstance(node, BinOp) and node.op in _COMPARISONS


def _native_unsupported(statements) -> str | None:
    """The first construct the C back end would not reproduce bit for bit.

    A parallel operator passes: lowering hoists it into a float64 temporary
    before the kernel layer sees the block (the template refuses a stray
    one), and ``repro.analyze`` asks about blocks it has not lowered.
    """

    def walk(node: Node) -> str | None:
        if isinstance(node, ParallelOp):
            return None
        if isinstance(node, Ref) and node.array.dtype != np.float64:
            return f"{node.array.dtype} array {node.array.name!r}"
        if isinstance(node, (BinOp, UnOp)):
            table = _C_BINOPS if isinstance(node, BinOp) else _C_UNOPS
            if node.op not in table:
                return f"operator {node.op!r} (not exactly rounded)"
            # numpy keeps bool ∘ bool in bool (True + True is True).
            if node.op not in _COMPARISONS and all(map(_is_bool, node.children())):
                return f"operator {node.op!r} on comparison results"
        elif not isinstance(node, (Const, Ref, IndexExpr, Where)):
            return f"{type(node).__name__} node"
        return next(filter(None, map(walk, node.children())), None)

    for stmt in statements:
        for array in (stmt.target, stmt.mask):
            if array is not None and array.dtype != np.float64:
                return f"{array.dtype} array {array.name!r}"
        why = walk(stmt.expr)
        if why is not None:
            return why
    return None


class _CEmitter(_Emitter):
    """The emitter's second back end: the block as a scalar C loop nest.

    Same slots, same contraction bookkeeping, different text: every dimension
    is looped, outermost first in ``order`` — the bind folds each traversal
    sign into the view's base pointer and strides, so the C always counts
    ``i`` up from zero — and the body is scalar: statements in lexical order
    at each point, a mask as a select on the store, a contracted temporary as
    a ``double``, an :class:`IndexExpr` as ``start + sign·i``.  ``order`` is
    ``loops.order`` (the oracle's nest) or a skew's dimensions followed by the
    rest of ``loops.order`` (the plane nest).  A ``shear`` coefficient
    ``c > 0`` sweeps the first two, ``u`` then ``q``, plane by plane: ``t``
    runs over the planes of τ = (1, c) and the inner loop over the ``q`` of
    plane ``t``, with ``i_u = t - c·i_q``.  The function takes one packed
    ``long long`` block (:meth:`KernelTemplate._bind_native` fills it):
    ``rank`` extents, start coordinates and signs, then base address and
    ``rank`` element strides per view slot.  No ``restrict``: views of one
    array overlap, and the reloads that costs are the oracle's semantics.
    Nothing in the text depends on a region, a shape, an address or a hash
    order, so equal programs give equal bytes in every interpreter.
    """

    def __init__(self, order: tuple[int, ...], contracted_ids: frozenset[int],
                 shear: int = 0):
        super().__init__(order, len(order), contracted_ids, "rows")
        self.shear = shear
        self.index_dims: set[int] = set()

    def _at(self, array: ZArray, offset: tuple[int, ...]) -> str:
        j = self._view(array, offset)
        index = " + ".join(f"i{d} * s{j}_{d}" for d in range(self.rank))
        return f"v{j}[{index}]"

    def expr(self, node: Node) -> str:
        if isinstance(node, Const):
            return _c_const(node.value)
        if isinstance(node, Ref):
            local = self.locals.get(id(node.array))
            return local or self._at(node.array, tuple(node.offset))
        if isinstance(node, IndexExpr):
            self.index_dims.add(node.dim)
            return f"x{node.dim}"
        args = [self.expr(child) for child in node.children()]
        if isinstance(node, Where):
            if not _is_bool(node.cond):
                args[0] = f"({args[0]} != 0.0)"
            return "({} ? {} : {})".format(*args)
        table = _C_BINOPS if isinstance(node, BinOp) else _C_UNOPS
        return table[node.op].format(*args)

    def statement(self, stmt: Assign) -> None:  # no copies: values are scalars
        value = self.expr(stmt.expr)  # before the target becomes a local
        tid = id(stmt.target)
        if tid in self.contracted_ids:
            name = self.locals.setdefault(tid, f"c{len(self.locals)}")
            self.body.append(f"{name} = {value};")
            return
        zero = (0,) * self.rank
        target = self._at(stmt.target, zero)
        if stmt.mask is not None:
            value = f"({self._at(stmt.mask, zero)} != 0.0) ? {value} : {target}"
        self.body.append(f"{target} = {value};")

    def source(self) -> str:
        rank = self.rank
        # ``KernelPlan.run`` calls every kernel as ``fn(trips, views)``.
        lines = [_C_PRELUDE + "void kernel(const long long *A, const void *views)", "{"]
        lines.append(
            "    const long long "
            + ", ".join(f"n{d} = A[{d}]" for d in range(rank)) + ";"
        )
        for j in range(len(self.slots)):
            base = 3 * rank + j * (rank + 1)
            strides = ", ".join(
                f"s{j}_{d} = A[{base + 1 + d}]" for d in range(rank)
            )
            lines.append(
                f"    double *const v{j} = (double *)A[{base}]; "
                f"const long long {strides};"
            )
        loops = [f"for (long long i{d} = 0; i{d} < n{d}; i{d}++)" for d in self.looped]
        if self.shear:
            (u, q), c = self.looped[:2], self.shear
            cq, first = (
                (f"{c} * ", f"(t - n{u}) / {c} + 1") if c > 1 else ("", f"t - n{u} + 1")
            )
            loops[:2] = [
                f"for (long long t = 0; t < n{u} + {cq}(n{q} - 1); t++)",
                f"for (long long i{q} = t < n{u} ? 0 : {first}, i{u} = t - {cq}i{q}; "
                f"i{q} < n{q} && i{u} >= 0; i{q}++, i{u} -= {c})",
            ]
        for depth, loop in enumerate(loops, 1):
            lines.append("    " * depth + loop + (" {" if depth == rank else ""))
        body = [
            f"const double x{d} = (double)(A[{rank + d}] + A[{2 * rank + d}] * i{d});"
            for d in sorted(self.index_dims)
        ]
        if self.locals:
            body.append("double " + ", ".join(self.locals.values()) + ";")
        pad = "    " * (rank + 1)
        lines += [pad + line for line in body + self.body]
        return "\n".join(lines + ["    " * rank + "}", "}"]) + "\n"


class _Kernel(NamedTuple):
    """One generated function plus what a region bind must hand it."""

    fn: Callable
    source: str
    slots: tuple[tuple, ...]
    #: How a native kernel was obtained (``cache``: hit/miss, ``cc_ms``).
    info: dict = {}


class KernelPlan:
    """One region's bound kernel: the generated function and its slot values.

    ``trips`` is the trip-count tuple of a row-loop plan, the ``(t, a, b)``
    plane ranges of a sheared one or the packed argument block of a native
    one (whose ``views`` is ``None``: the addresses are in the block);
    ``n_planes`` the loop-body executions per run of the plan family
    (hyperplanes swept, or row steps); ``binding`` records the storage
    buffers the views were sliced from.
    """

    __slots__ = ("fn", "trips", "views", "binding", "n_planes")

    def __init__(self, fn: Callable, trips: tuple, views: tuple,
                 binding: tuple[tuple[ZArray, np.ndarray], ...], n_planes: int):
        self.fn = fn
        self.trips = trips
        self.views = views
        self.binding = binding
        self.n_planes = n_planes

    def valid(self) -> bool:
        """True while every sliced storage buffer is still the array's.

        In-place restores keep plans valid; rebinding ``_data`` (shared-memory
        attachment, manual replacement) invalidates, forcing a rebind.
        """
        return all(array._data is data for array, data in self.binding)

    def run(self) -> None:
        self.fn(self.trips, self.views)


# ---------------------------------------------------------------------------
# Region binding: pre-sliced views and plane ranges
# ---------------------------------------------------------------------------
def _bind_view(
    array: ZArray,
    offset: tuple[int, ...],
    region: Region,
    perm: tuple[int, ...],
    reverse: tuple[int, ...],
    binding: dict[int, tuple[ZArray, np.ndarray]],
) -> np.ndarray:
    """Storage of ``array`` over ``region`` shifted by ``offset``, as a view.

    Axes come out in ``perm`` order (looped dimensions first), the
    dimensions in ``reverse`` run backwards, so iteration ``k`` of a looped
    dimension is plain index ``k`` whatever the shift and traversal sign.
    """
    data = binding.setdefault(id(array), (array, array._data))[1]
    storage = array._storage_region
    index = []
    for d, ((lo, hi), (slo, shi)) in enumerate(zip(region.ranges, storage.ranges)):
        lo += offset[d]
        hi += offset[d]
        if lo < slo or hi > shi:
            raise ArrayError(
                f"region {region.shift(offset)!r} is outside the storage of "
                f"{array!r} (storage {storage!r}); declare more fluff or "
                f"initialise the border first"
            )
        if d in reverse:
            index.append(slice(hi - slo, lo - slo - 1 if lo > slo else None, -1))
        else:
            index.append(slice(lo - slo, hi - slo + 1))
    return data[tuple(index)].transpose(perm)


def _shear(view: np.ndarray, c: int) -> np.ndarray:
    """``W[t, q] = view[t - c*q, q]``: plane ``t`` of τ = (1, c) is row ``W[t]``.

    A diagonal of a strided array is a strided array, so this is a view —
    but one whose nominal extent overruns ``view``: only ``W[t, a:b]`` for
    the ``(t, a, b)`` of :func:`_plane_ranges` may be touched.
    """
    (n_u, n_q), (s_u, s_q) = view.shape[:2], view.strides[:2]
    return as_strided(
        view,
        (n_u + c * (n_q - 1), n_q) + view.shape[2:],
        (s_u, s_q - c * s_u) + view.strides[2:],
    )


def _plane_ranges(n_u: int, n_q: int, c: int) -> tuple[tuple[int, int, int], ...]:
    """``(t, a, b)`` per non-empty plane of τ = (1, c) over an ``n_u × n_q`` box:
    plane ``t`` holds ``q`` in ``a:b``, where ``0 <= t - c*q < n_u``."""
    ranges = (
        (t, max(0, -((n_u - 1 - t) // c)), min(n_q, t // c + 1))
        for t in range(n_u + c * (n_q - 1))
    )
    return tuple(r for r in ranges if r[1] < r[2])


class KernelTemplate:
    """Per-plan compile-time state: generated kernels plus the region-plan cache."""

    __slots__ = ("_compiled", "statements", "loops", "region", "contracted",
                 "contracted_ids", "looped", "skew", "native_order", "plans",
                 "_kernels", "_native", "native_error")

    def __init__(self, statements, region: Region, loops=None, contracted=()):
        _check_expressible(statements, region.rank)
        self._compiled = None
        self.statements = statements
        self.loops = loops
        self.region = region
        self.contracted = contracted
        self.contracted_ids = frozenset(id(a) for a in contracted)
        #: Flat loop nest: the non-parallel dimensions, outermost first.
        self.looped = () if loops is None else tuple(
            d for d in loops.order if loops.classes[d] is not DimClass.PARALLEL
        )
        #: Legal hyperplane schedule numpy can sweep, or None (one looped dim,
        #: no legal τ, or a plane that is not a line).  Set once by
        #: :func:`template_for`.
        self.skew = None
        #: The native nest: ``planes`` sweeps :attr:`skew`'s planes (no
        #: dependence ties inside one), ``loop`` is ``loops.order``.  Set
        #: once by :func:`template_for`.
        self.native_order = "loop"
        #: (region.ranges, skewed | "native") -> plan, insertion-ordered (LRU
        #: eviction).
        self.plans: dict[tuple, KernelPlan] = {}
        #: (skewed, copy flags) -> generated kernel.
        self._kernels: dict[tuple, _Kernel] = {}
        #: (host asked, its answer): what :meth:`native` found, and where.
        self._native: tuple = (None, None)
        #: Why :meth:`native` answered None although a nest was wanted.
        self.native_error: str | None = None

    def kernel(self, skewed: bool = False) -> _Kernel:
        """The generated kernel of one plan family (compiled once, cached).

        The copy-or-not decisions are part of the text, so they key the
        cache: storage rebound to something that aliases differently gets
        its own kernel instead of a stale one.  The source is registered
        with :mod:`linecache` under its ``<repro-kernel:…>`` file name, so
        tracebacks and profilers show the generated lines; the entry goes
        when the function does.
        """
        copies = tuple(map(statement_needs_copy, self.statements))
        key = (skewed, copies)
        kern = self._kernels.get(key)
        if kern is not None:
            return kern
        looped, _, lowering = self._nest(skewed)
        emitter = _Emitter(
            looped, self.region.rank, self.contracted_ids, lowering
        )
        for stmt, needs_copy in zip(self.statements, copies):
            emitter.statement(stmt, needs_copy)
        digest = _fingerprint(
            self.region, self.loops, self.statements, self.contracted
        )
        filename = (
            f"<repro-kernel:{digest[:12]}:{'skewed' if skewed else 'flat'}"
            f"@{id(self):x}.{len(self._kernels)}>"
        )
        source = emitter.source(filename)
        exec(compile(source, filename, "exec"), emitter.namespace)
        kern = _Kernel(emitter.namespace["kernel"], source, tuple(emitter.slots))
        linecache.cache[filename] = (
            len(source), None, source.splitlines(True), filename
        )
        weakref.finalize(kern.fn, linecache.cache.pop, filename, None)
        self._kernels[key] = kern
        return kern

    def native(self) -> _Kernel | None:
        """The host-compiled loop nest of this block, or ``None`` (memoised).

        ``None`` without a :attr:`native_error` is by design — no looped
        dimension means one ufunc pass per statement already, and a compile
        would buy nothing.  ``None`` *with* one is a fallback: an operator
        or dtype outside the exactly rounded set (decided by inspection), or
        a host that cannot build or load (decided once per process by
        :mod:`repro.runtime.native`).  It is counted, and ``repro.analyze
        explain`` reports it as W111.
        """
        host = native.HOST
        if self._native[0] is not host:
            self._native = (host, self._lower_native(host))
        return self._native[1]

    def _lower_native(self, host: native.Host) -> _Kernel | None:
        self.native_error = None
        if not self.looped:
            return None
        why = _native_unsupported(self.statements)
        if why is None:
            order, shear = self.loops.order, 0
            if self.native_order == "planes":
                dims, _, lowering = self._nest(True)
                order = dims + tuple(d for d in order if d not in dims)
                shear = max(map(abs, self.skew.tau)) if lowering == "shear" else 0
            emitter = _CEmitter(order, self.contracted_ids, shear)
            for stmt in self.statements:
                emitter.statement(stmt)
            source = emitter.source()
            fn, info = host.load(source)
            if fn is not None:
                return _Kernel(fn, source, tuple(emitter.slots), info)
            why = info["error"]
        self.native_error = why
        KERNEL_STATS.fallbacks += 1
        return None

    def _nest(self, skewed: bool) -> tuple[tuple[int, ...], tuple[int, ...], str]:
        """``(looped dims, descending dims, lowering)`` of one plan family.

        The flat family and an axis-aligned τ are both ``rows``; otherwise
        :attr:`Skew.lowering` decides.  A sheared pair comes unit coefficient
        first, so the bound views are always τ = (1, c).
        """
        if not skewed:
            dims, how = self.looped, "rows"
            signs = [self.loops.signs[d] for d in dims]
        else:
            dims, signs, how = self.skew.dims, self.skew.tau, self.skew.lowering
            if abs(signs[0]) != 1:
                dims, signs = dims[::-1], signs[::-1]
        return dims, tuple(d for d, s in zip(dims, signs) if s < 0), how

    @property
    def source(self) -> str:
        """Generated source of the kernel the default engine runs: the C nest
        where the host built it, else the numpy lowering's Python."""
        return (self.native() or self.kernel(self.skew is not None)).source

    def instantiate(
        self, region: Region, tracer=NULL_TRACER, skewed: bool = False,
        native: bool = False,
    ) -> KernelPlan:
        """The bound plan of ``region`` for one plan family (cached, LRU).

        ``native`` binds the family's plan to the host-compiled nest
        (:meth:`native` must have answered) instead of its numpy kernel.
        """
        lowered = "native" if native else skewed
        key = (region.ranges, lowered)
        plan = self.plans.get(key)
        if plan is not None:
            if plan.valid():
                KERNEL_STATS.plan_hits += 1
                if skewed:
                    KERNEL_STATS.skew_plan_hits += 1
                if tracer.enabled:
                    tracer.count("kernel_plan_hits")
                    if skewed:
                        tracer.count("skew_plan_hits")
                self.plans.pop(key)
                self.plans[key] = plan  # LRU touch
                return plan
            KERNEL_STATS.plan_invalidations += 1
            if tracer.enabled:
                tracer.count("kernel_plan_invalidations")
            del self.plans[key]
        KERNEL_STATS.plan_builds += 1
        if skewed:
            KERNEL_STATS.skew_plan_builds += 1
        start = time.perf_counter()
        plan = self._build(region, skewed, native)
        if tracer.enabled:
            kern = self._native[1] if native else self.kernel(skewed)
            tracer.count("kernel_plan_misses")
            tracer.add_span(
                "kernel_compile", "compile", start, time.perf_counter(),
                region=repr(region), skewed=skewed,
                lowering=self._nest(skewed)[2],
                lines=kern.source.count("\n"), native=native, **kern.info,
            )
        self.plans[key] = plan
        if len(self.plans) > PLAN_CACHE_CAP:  # evict this lowering's LRU
            family = [k for k in self.plans if k[1] == lowered]
            for stale in family[: len(family) - PLAN_CACHE_CAP]:
                del self.plans[stale]
        return plan

    def _build(
        self, region: Region, skewed: bool = False, native: bool = False
    ) -> KernelPlan:
        """Bind one region: slice the views, fill the slots, count the trips."""
        looped, reverse, lowering = self._nest(skewed)
        rows = lowering == "rows"
        if native:
            n_planes = (
                self.skew.planes(region.shape) if skewed
                else math.prod(map(region.extent, looped))
            )
            return self._bind_native(region, n_planes)
        kern = self.kernel(skewed)
        par = tuple(d for d in range(region.rank) if d not in looped)
        perm = looped + par
        c = max(map(abs, self.skew.tau)) if lowering == "shear" else 0
        binding: dict[int, tuple[ZArray, np.ndarray]] = {}
        values = []
        for kind, *spec in kern.slots:
            if kind == "view":
                view = _bind_view(*spec, region, perm, reverse, binding)
                if c:
                    view = _shear(view, c)
                # out= and row stores need an array even with no parallel
                # extent: keep a length-1 trailing axis on all-looped rows.
                values.append(view if par or not rows else view[..., None])
            elif kind == "shape":
                values.append(
                    tuple(region.extent(d) for d in par)
                    or ((1,) if rows else ())
                )
            elif kind == "grid":  # a looped dim's coordinate at every point
                (dim,) = spec
                axis = [1] * len(perm)
                axis[looped.index(dim)] = -1
                coords = np.array(region.indices(dim, dim in reverse), float)
                box = tuple(map(region.extent, looped)) + (1,) * len(par)
                values.append(_shear(np.broadcast_to(coords.reshape(axis), box), c))
            else:
                values.append(self._coords(region, spec[0], par, reverse, rows))
        if c:
            trips = _plane_ranges(*map(region.extent, looped), c)
        else:
            trips = tuple(region.extent(d) for d in looped)
        return KernelPlan(
            kern.fn, trips, tuple(values), tuple(binding.values()),
            math.prod(trips) if rows else len(trips),
        )

    def _bind_native(self, region: Region, n_planes: int) -> KernelPlan:
        """Pack the argument block :class:`_CEmitter`'s function reads.

        :func:`_bind_view` does the coverage check and folds shift and
        traversal sign into each view, so element ``[0, ..., 0]`` is the
        first iteration point and the strides already run the loop's way.
        """
        import ctypes

        kern, signs = self._native[1], self.loops.signs
        dims = tuple(range(region.rank))
        reverse = tuple(d for d in dims if signs[d] < 0)
        block = [*region.shape]
        block += (region.hi[d] if d in reverse else region.lo[d] for d in dims)
        block += (-1 if d in reverse else 1 for d in dims)
        binding: dict[int, tuple[ZArray, np.ndarray]] = {}
        for _, array, offset in kern.slots:
            view = _bind_view(array, offset, region, dims, reverse, binding)
            if view.dtype != np.float64:  # storage rebound under the template
                raise ArrayError(f"{array!r} no longer holds float64 storage")
            block.append(view.ctypes.data)
            block += (step // view.itemsize for step in view.strides)
        return KernelPlan(
            kern.fn, (ctypes.c_longlong * len(block))(*block), None,
            tuple(binding.values()), n_planes,
        )

    @staticmethod
    def _coords(region: Region, dim: int, par, reverse, rows: bool):
        """The slot value an ``IndexExpr`` on ``dim`` reads its floats from."""
        lo, hi = region.range(dim)
        if dim not in par and rows:
            # ``coords[k]`` must stay a Python float, as the oracle's is.
            return tuple(map(float, region.indices(dim, reverse=dim in reverse)))
        coords = np.arange(lo, hi + 1, dtype=float)
        shape = [1] * len(par)
        shape[par.index(dim)] = -1
        return coords.reshape((() if rows else (1,)) + tuple(shape))


#: id(CompiledScan) -> template; entries evicted when the plan is collected.
_TEMPLATES: dict[int, KernelTemplate] = {}


def template_for(compiled: CompiledScan) -> KernelTemplate:
    """The (cached) kernel template of a compiled plan."""
    key = id(compiled)
    cached = _TEMPLATES.get(key)
    if cached is not None and cached._compiled() is compiled:
        return cached
    template = KernelTemplate(
        compiled.statements, compiled.region, compiled.loops, compiled.contracted
    )
    template._compiled = weakref.ref(compiled)
    skew = derive_skew(compiled)
    if skew is not None and skew.lowering is not None:
        template.skew = skew
        if planes_independent(skew.tau, skew.dims, compiled.dependences):
            template.native_order = "planes"
    KERNEL_STATS.template_builds += 1
    _TEMPLATES[key] = template
    weakref.finalize(compiled, _TEMPLATES.pop, key, None)
    return template


def _family(template: KernelTemplate) -> str:
    """The plan family a template runs: ``skewed`` when numpy can sweep a
    skew of the block, else ``flat``."""
    return "flat" if template.skew is None else "skewed"


def native_obstacle(statements) -> str | None:
    """Why a looped block of ``statements`` would keep its numpy lowering in
    this process, or ``None`` — by inspection only: the first construct
    outside the exactly rounded set, else what is known of the toolchain
    (no compiler, unusable cache directory, an earlier failed compile)."""
    return _native_unsupported(statements) or native.HOST.probe()


def ensure_native(compiled: CompiledScan) -> None:
    """Build or load ``compiled``'s native object *now*, in this process.

    The planning side of a pooled or forked run calls this before it
    dispatches: worker processes never run the compiler
    (:mod:`repro.runtime.native`), they load what the planner published.
    """
    template_for(compiled).native()


def _dispatch(template: KernelTemplate, region: Region, skewed: bool, obs,
              native: bool = False) -> None:
    """The one dispatch tail: bind (or hit the cache), run, count."""
    plan = template.instantiate(region, obs, skewed=skewed, native=native)
    plan.run()
    if skewed:
        KERNEL_STATS.hyperplanes += plan.n_planes
        if obs.enabled:
            obs.count("hyperplanes", plan.n_planes)


def execute_vectorized(
    compiled: CompiledScan,
    within: Region | None = None,
    *,
    engine: str | None = None,
    tracer=None,
) -> None:
    """Run the compiled block: the sequential engine every entry point uses.

    ``within`` restricts execution to a sub-region of the compiled region —
    the distributed executor uses this to run one processor's portion (or one
    pipeline block) with identical code.  The block runs through its
    template: the native nest where the host builds it, else the numpy
    lowering of its plan family (:func:`plan_kind`).  Every lowering keeps
    the loop nest's traversal order (hyperplane sweeps respect it via the
    legality rule), mask blending and contraction buffering, so all are
    bit-identical to :func:`~repro.runtime.loopnest.execute_loopnest`.
    ``engine`` accepts only ``None`` or ``"kernel"``.  ``tracer`` (a
    :class:`repro.obs.Tracer`) records kernel-compile spans and plan-cache
    counters when given.
    """
    _check_engine(engine)
    obs = tracer if tracer is not None else NULL_TRACER
    template = template_for(compiled)
    region = compiled.region if within is None else compiled.region.intersect(within)
    compiled.prepare()
    if not region.is_empty():
        _dispatch(template, region, template.skew is not None, obs,
                  template.native() is not None)


class PlanRunner:
    """Amortised repeated dispatch of one compiled plan: the serving hot path
    and the body of every loop that runs a plan block by block.

    A server, a worker's block loop, the simulator's value walk and the
    autotuner execute the *same* plan thousands of times, and
    :func:`execute_vectorized` pays template lookup, native probing, region
    intersection and ``prepare()`` on every call.  ``PlanRunner`` hoists all
    of it to construction, so a block costs one ``template.instantiate``
    (the template's plan cache is the only cache; a rebound storage buffer
    re-instantiates) plus its kernel:

    * ``run_block(region)`` executes one block.  The caller evaluates the
      hoisted temporaries once per loop (``compiled.prepare()``; a worker's
      replica has none, the parent evaluated them) and passes a non-empty
      region inside ``compiled.region`` — every chunk and tile the planner
      makes is — so nothing is intersected per block.
    * ``run(items=k)`` is the whole-region case, accounted as one *batched*
      kernel dispatch covering ``items`` logical requests
      (``KERNEL_STATS.batch_dispatches`` / ``batch_items``).

    The lowering is fixed at construction, as :func:`execute_vectorized`
    would pick it then; a loop builds its runner once per job.
    """

    __slots__ = ("compiled", "kind", "_template", "_native")

    def __init__(self, compiled: CompiledScan):
        self.compiled = compiled
        self._template = template_for(compiled)
        #: The plan family ``run`` executes: ``skewed``/``flat``.
        self.kind = _family(self._template)
        self._native = self._template.native() is not None

    def run(self, items: int = 1, tracer=None) -> None:
        """Execute the plan once, covering ``items`` coalesced requests.

        When the always-on flight recorder is enabled, every dispatch
        leaves one ring event tagged with the active request context — the
        in-process serving path's half of end-to-end request tracing.
        """
        obs = tracer if tracer is not None else NULL_TRACER
        KERNEL_STATS.batch_dispatches += 1
        KERNEL_STATS.batch_items += items
        if obs.enabled:
            obs.count("batch_dispatches")
            obs.count("batch_items", items)
        flight = FLIGHT if FLIGHT.enabled else None
        t0 = time.perf_counter() if flight is not None else 0.0
        try:
            self.compiled.prepare()
            if not self.compiled.region.is_empty():
                self.run_block(self.compiled.region, obs)
        finally:
            if flight is not None:
                flight.span(
                    "kernel_dispatch", t0, time.perf_counter(),
                    items=items, kind=self.kind, **current_tags(),
                )

    def run_block(self, region: Region, tracer=NULL_TRACER) -> None:
        """Execute the plan over one block ``region`` (see the class notes)."""
        _dispatch(self._template, region, self.kind == "skewed", tracer,
                  self._native)


def plan_kind(compiled: CompiledScan, engine: str | None = None) -> str:
    """The plan family ``compiled`` executes: ``skewed`` or ``flat``.

    Pure query — no plan is instantiated (the template is, which is cheap
    and cached).  The parallel workers use this to tag ``compute`` spans and
    the autotuner to key its per-kind cost memo.  ``engine`` accepts only
    ``None`` or ``"kernel"``, as :func:`execute_vectorized`'s does.
    """
    _check_engine(engine)
    return _family(template_for(compiled))


# ---------------------------------------------------------------------------
# Single-statement kernels (eager array-semantics statements)
# ---------------------------------------------------------------------------
#: id(Assign) -> (weakref to stmt, bound plan) for eager array-semantics
#: statements.
_STMT_KERNELS: dict[int, tuple] = {}


def statement_kernel(stmt: Assign) -> Callable[[], None] | None:
    """An AOT kernel for one eager (array-semantics) statement, or ``None``.

    Pure array semantics means no looped dimensions: the whole region is one
    slab, so the generated kernel is the statement's ufunc calls and nothing
    else.  Statements the emitter cannot express (parallel operators,
    primes) return ``None`` and the caller keeps its tree-walking path.
    Cached by statement identity, invalidated when the target or operand
    storage is rebound.
    """
    key = id(stmt)
    cached = _STMT_KERNELS.get(key)
    if cached is not None:
        ref, plan = cached
        if ref() is stmt and plan.valid():
            KERNEL_STATS.plan_hits += 1
            return plan.run
        del _STMT_KERNELS[key]
    if (stmt.expr.has_prime()
            or _unexpressible(stmt.expr, stmt.region.rank) is not None):
        return None
    plan = KernelTemplate((stmt,), stmt.region)._build(stmt.region)
    KERNEL_STATS.plan_builds += 1
    _STMT_KERNELS[key] = (weakref.ref(stmt), plan)
    weakref.finalize(stmt, _STMT_KERNELS.pop, key, None)
    return plan.run


# ---------------------------------------------------------------------------
# Plan fingerprints (structural identity across process boundaries)
# ---------------------------------------------------------------------------
def plan_fingerprint(compiled: CompiledScan) -> str:
    """A digest of the lowered plan's *structure*, stable across pickling.

    Arrays are numbered in first-occurrence order over the statements (the
    same deterministic walk :func:`repro.parallel.sharedmem.collect_arrays`
    uses for its spec list, minus the hoisted temporaries), so a pickled
    copy — or the workers' ``hoisted=()`` replica — fingerprints identically
    to the original while any structural change (region, loop nest, shifts,
    masks, contraction, storage shapes) changes the digest.
    """
    return _fingerprint(
        compiled.region, compiled.loops, compiled.statements, compiled.contracted
    )


def _fingerprint(region: Region, loops, statements, contracted) -> str:
    """:func:`plan_fingerprint` on a plan's parts (``loops`` may be None)."""
    arrays: list[ZArray] = []
    index: dict[int, int] = {}

    def aidx(array: ZArray) -> int:
        k = index.get(id(array))
        if k is None:
            k = len(arrays)
            arrays.append(array)
            index[id(array)] = k
        return k

    def sig(node: Node) -> str:
        if isinstance(node, Const):
            return f"c{node.value!r}"
        if isinstance(node, Ref):
            prime = "p" if node.primed else ""
            return f"r{aidx(node.array)}@{tuple(node.offset)}{prime}"
        if isinstance(node, BinOp):
            return f"b{node.op}({sig(node.left)},{sig(node.right)})"
        if isinstance(node, UnOp):
            return f"u{node.op}({sig(node.operand)})"
        if isinstance(node, Where):
            return (
                f"w({sig(node.cond)},{sig(node.if_true)},{sig(node.if_false)})"
            )
        if isinstance(node, IndexExpr):
            return f"i{node.dim}"
        children = ",".join(sig(c) for c in node.children())
        return f"x{type(node).__name__}({children})"

    parts = [
        f"R{region.ranges}",
        "L-" if loops is None else
        f"L{loops.order}|{loops.signs}|{tuple(c.value for c in loops.classes)}",
    ]
    for stmt in statements:
        mask = "-" if stmt.mask is None else str(aidx(stmt.mask))
        parts.append(
            f"S{aidx(stmt.target)}|{mask}|{stmt.region.ranges}|{sig(stmt.expr)}"
        )
    parts.append(f"C{tuple(sorted(aidx(a) for a in contracted))}")
    parts.append(
        f"A{tuple((a.name, tuple(a._data.shape), a.dtype.str) for a in arrays)}"
    )
    return hashlib.sha1("\n".join(parts).encode()).hexdigest()
